"""Workload inputs generated from the workload seed.

The same seed always gives the same inputs; the program under test only
ever sees the generated values.  Each generator stratifies its deck (a
fixed share of every input family per seed) so that a run's mix of cheap
and expensive ops, and hence its host-time figures, does not swing with
the seed, while the values inside each family do.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


def rng(workload: str, seed: int, salt: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{salt}")


# ----------------------------------------------------------------------
# cold == warm check (serve-mix): fresh `python -m repro ...` processes
# ----------------------------------------------------------------------

SERVE_PRESETS = ("steady", "flash-crowd", "diurnal")
JOB_PRESETS = ("mini", "board", "chassis")
CHAOS_PRESETS = ("mini", "board", "board-transient")


@dataclass(frozen=True)
class ColdOp:
    command: str        # serve | jobs | chaos
    preset: str
    seed: int

    def argv(self, out: str) -> List[str]:
        if self.command == "serve":
            return ["serve", "--preset", self.preset, "--seed", str(self.seed),
                    "--out", out]
        if self.command == "jobs":
            return ["jobs", self.preset, "--seed", str(self.seed), "--out", out]
        return ["chaos", self.preset, "--seed", str(self.seed), "--events-out", out]


def cold_deck(seed: int) -> List[ColdOp]:
    """Every preset of every subcommand once, in a seeded order."""
    r = rng("cold-check", seed)
    deck = [ColdOp(command, preset, r.randrange(1000))
            for command, presets in (("serve", SERVE_PRESETS), ("jobs", JOB_PRESETS),
                                     ("chaos", CHAOS_PRESETS))
            for preset in presets]
    r.shuffle(deck)
    return deck


# ----------------------------------------------------------------------
# serve-mix: generated ServingScenario / TenantSpec values
# ----------------------------------------------------------------------

ARRIVALS = ("poisson", "bursty", "diurnal")
FUNCTIONS = ("saxpy", "fir32", "stencil5", "matmul", "montecarlo", "vecadd")


@dataclass(frozen=True)
class ServeItem:
    name: str
    scenario: Any       # repro.presets.ServingScenario
    seed: int


def _tenant(r: random.Random, name: str, arrival: str, reuse: str,
            interactive: bool) -> Dict[str, Any]:
    if reuse == "high":
        # one function, narrow sizes: batches and memo caches see repeats
        functions = (r.choice(FUNCTIONS[:3]),)
        lo = r.choice((512, 1024, 2048))
        items = (lo, lo + 64)
    elif reuse == "medium":
        functions = tuple(r.sample(FUNCTIONS[:4], 2))
        lo = r.choice((512, 1024))
        items = (lo, 2 * lo)
    else:
        functions = tuple(r.sample(FUNCTIONS, 3))
        items = (256, r.choice((4096, 8192)))
    kw: Dict[str, Any] = dict(
        name=name,
        arrival=arrival,
        functions=functions,
        items_range=items,
        policy="greedy-hw" if interactive else "energy",
        priority=2 if interactive else 1,
    )
    if interactive:
        kw.update(rate_rps=r.uniform(100_000.0, 160_000.0),
                  requests=r.randrange(140, 161),
                  slo_ns=r.uniform(300_000.0, 600_000.0),
                  admit_rate_rps=r.uniform(350_000.0, 450_000.0))
    else:
        kw.update(rate_rps=r.uniform(50_000.0, 90_000.0),
                  requests=r.randrange(70, 91),
                  slo_ns=r.uniform(1_500_000.0, 3_000_000.0),
                  admit_rate_rps=r.uniform(180_000.0, 240_000.0))
    if arrival == "bursty":
        kw.update(burst_multiplier=r.uniform(6.0, 10.0),
                  burst_fraction=r.uniform(0.2, 0.3))
    elif arrival == "diurnal":
        kw.update(diurnal_low=r.uniform(0.25, 0.4),
                  diurnal_high=r.uniform(2.0, 2.5))
    return kw


#: three reuse levels, so op costs spread evenly instead of splitting
#: into a cheap half and a dear half with the median in the gap
REUSE = ("high", "medium", "low")


def serve_deck(seed: int, per_stratum: int = 4) -> List[ServeItem]:
    """Arrival kind x reuse level strata, ``per_stratum`` scenarios each."""
    from repro.presets import ServingScenario, TenantSpec

    r = rng("serve-mix", seed)
    deck = []
    for k in range(per_stratum):
        for j, (arrival, reuse) in enumerate(itertools.product(ARRIVALS, REUSE)):
            # each stratum gets both node presets, alternating over k
            node = ("mini", "board")[(j + k) % 2]
            tenants = (
                TenantSpec(**_tenant(r, "front", arrival, reuse, True)),
                TenantSpec(**_tenant(r, "back", "poisson", reuse, False)),
            )
            scenario = ServingScenario(
                node=node,
                tenants=tenants,
                max_batch=r.choice((4, 8, 12)),
                max_wait_ns=r.uniform(10_000.0, 30_000.0),
                max_backlog=r.randrange(32, 65),
            )
            deck.append(ServeItem(
                name=f"gen-{len(deck)}", scenario=scenario,
                seed=r.randrange(1000),
            ))
    return deck


# ----------------------------------------------------------------------
# machine-build: generated multi-node shapes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    nodes: int
    workers: int                     # per node
    intra_fanout: Optional[int]
    fanouts: Optional[Tuple[int, ...]]  # inter-node tree, product == nodes
    repeat: bool                     # part of the repeated deck


def _shape(r: random.Random, nodes: int, workers: int, repeat: bool) -> Shape:
    intra = r.choice((None, 2)) if workers >= 4 else None
    fanouts = None
    if r.random() < 0.5:
        for split in (4, 2):
            if nodes % split == 0 and nodes // split > 1:
                fanouts = (split, nodes // split)
                break
    return Shape(nodes, workers, intra, fanouts, repeat)


#: (nodes, workers per node) strata of the repeated deck, one shape each
REPEAT_SHAPES = ((4, 8), (8, 8), (16, 4), (24, 4), (32, 4), (64, 2))
#: node-count ranges the one-off shapes cycle through
ONE_OFF_NODES = ((4, 16), (17, 40), (41, 64))


def shape_deck(seed: int) -> List[Shape]:
    r = rng("machine-build", seed)
    return [_shape(r, n, w, True) for n, w in REPEAT_SHAPES]


def shape_for_group(seed: int, deck: List[Shape], group: int) -> Shape:
    """Every third group builds a one-off shape (template-cache miss)."""
    if group % 3 == 2:
        r = rng("machine-build", seed, f"one-off-{group}")
        lo, hi = ONE_OFF_NODES[(group // 3) % len(ONE_OFF_NODES)]
        nodes = r.randrange(lo, hi + 1)
        workers = r.choice([w for w in (2, 4, 8) if nodes * w <= 256])
        return _shape(r, nodes, workers, False)
    return deck[(group - group // 3) % len(deck)]


# ----------------------------------------------------------------------
# daemon-session: a scripted protocol session
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Epoch:
    """One workload epoch of the scripted session.

    ``kind`` is jobs | serving | chaos | reconfigure; ``snapshot_after``
    is the number of one-window ``step`` commands after which the client
    snapshots (None: no snapshot).
    """

    kind: str
    preset: str
    seed: int
    snapshot_after: Optional[int] = None
    crash: Optional[Tuple[int, float, float]] = None   # worker, at_ns, downtime
    knobs: Optional[Dict[str, Any]] = None


WINDOW_NS = 100_000.0
#: the crash epoch's fault is injected after this many steps, and lands
#: inside the next window
CRASH_STEP = 2


#: rounds per scripted session; each round runs every preset once
DAEMON_ROUNDS = 10


def daemon_script(seed: int) -> List[Epoch]:
    """Rounds of: both job presets, then each serving preset under one
    epoch kind (plain, online crash, live reconfigure).

    Every round runs the same presets (only their order, seeds and knobs
    change), so the mix of cheap and busy windows is stable across seeds.
    """
    r = rng("daemon-session", seed)
    script: List[Epoch] = []
    for _ in range(DAEMON_ROUNDS):
        script += [Epoch("jobs", preset, r.randrange(1000))
                   for preset in r.sample(("board", "chassis"), 2)]
        serving, chaos, reconfigure = r.sample(SERVE_PRESETS, 3)
        script += [
            Epoch("serving", serving, r.randrange(1000), snapshot_after=r.randrange(2, 5)),
            Epoch("chaos", chaos, r.randrange(1000),
                  crash=(r.randrange(2), CRASH_STEP * WINDOW_NS + r.uniform(20_000.0, 80_000.0),
                         r.uniform(100_000.0, 300_000.0))),
            Epoch("reconfigure", reconfigure, r.randrange(1000), snapshot_after=3,
                  knobs={"max_batch": r.choice((4, 6, 12)),
                         "max_wait_ns": r.uniform(10_000.0, 40_000.0)}),
        ]
    return script
