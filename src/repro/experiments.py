"""How a preset becomes a running node machine, in one place.

The paper splits the runtime in two (Section 4): a per-node Execution
Engine schedules tasks inside one PGAS partition, and MPI connects the
partitions.  Every harness -- the batch CLI, the service daemon, the
sharded engine's nodes, the chaos and checkpoint experiments and
``repro bench`` -- builds its node machines here, so machines built
from the same seeds are the same machine whichever harness built them:

- :func:`build_node_engine` -- one Compute Node on a fresh simulator,
  wrapped in its Execution Engine;
- :func:`workload_graph` -- the task graph of every generated workload;
- :func:`build_jobs_machine` / :func:`run_jobs_experiment` -- the
  ``python -m repro jobs`` harness as a library call;
- :func:`chaos_preset` / :func:`chaos_config` -- a named chaos scenario
  and its fault mix once the fault-free baseline is known;
- :func:`resolve_warm_start` -- turns a ``warm_start`` argument (bool or
  path to a saved machine snapshot) into the ``warm`` build switch.

Warm builds stamp nodes from the shard layer's process-wide
:class:`~repro.shard.bringup.NodeTemplate` cache, so repeated
experiments on one topology skip the expensive bring-up; templated
builds are bit-identical to cold ones.  Imports stay inside the
functions so importing this module stays cheap.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Union

if TYPE_CHECKING:
    from repro.core.runtime.report import MachineReport

WarmStart = Union[bool, str]


def resolve_warm_start(warm_start: WarmStart, node: str) -> bool:
    """Normalize a ``warm_start`` argument against node preset ``node``.

    ``False``/``True`` pass through.  A string is a path to a snapshot
    saved by the service daemon (or the checkpoint subsystem); its
    ``workload`` block must name the same node preset -- warm-starting
    a different topology from it is an error, not a silent cold build.
    Returns whether the build should use templates.
    """
    if isinstance(warm_start, bool):
        return warm_start
    with open(warm_start, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    workload = payload.get("workload") or {}
    nodes = set(workload.get("nodes") or [])
    if workload.get("node"):
        nodes.add(workload["node"])
    if not nodes:
        raise ValueError(
            f"snapshot {warm_start!r} records no node preset; "
            "cannot use it as a warm-start token"
        )
    if node not in nodes:
        known = ", ".join(sorted(nodes))
        raise ValueError(
            f"snapshot {warm_start!r} was taken on node preset(s) {known}; "
            f"refusing to warm-start a {node!r} build from it"
        )
    return True


def build_node_engine(
    node,
    compiled=None,
    max_variants: int = 1,
    node_id: int = 0,
    warm: bool = False,
    daemon: bool = True,
    telemetry=None,
    fault_tolerance=None,
    start_ns: float = 0.0,
    tracer=None,
):
    """One Compute Node on a fresh simulator, wrapped in its Execution Engine.

    ``node`` is a preset name or a :class:`~repro.core.ComputeNodeParams`;
    ``compiled`` an optional ``(registry, library)`` pair (default: the
    cached kernel suite at ``max_variants``).  ``daemon`` runs the Fig. 5
    reconfiguration daemon every 100 us.  ``telemetry`` may be a hub or
    a ``sim -> hub`` factory; ``tracer`` is a ``sim -> tracer`` factory.
    ``start_ns`` warps the fresh clock (a restore resumes at its
    snapshot time).  The node and simulator are ``engine.node`` and
    ``engine.node.sim``.
    """
    from repro.core.runtime import ExecutionEngine
    from repro.presets import build_preset_node, compiled_suite
    from repro.sim import Simulator

    registry, library = (
        compiled if compiled is not None else compiled_suite(max_variants=max_variants)
    )
    sim = Simulator()
    if start_ns > 0.0:
        sim.warp_to(start_ns)
    if callable(telemetry):
        telemetry = telemetry(sim)
    return ExecutionEngine(
        build_preset_node(sim, node, warm=warm, node_id=node_id),
        registry,
        library,
        use_daemon=daemon,
        daemon_period_ns=100_000.0,
        tracer=tracer(sim) if tracer is not None else None,
        telemetry=telemetry,
        fault_tolerance=fault_tolerance,
    )


#: the task functions every generated workload graph draws from
WORKLOAD_FUNCTIONS = ("saxpy", "stencil5", "montecarlo")


def workload_graph(
    layers: int,
    width: int,
    num_workers: int,
    seed: int,
    functions=WORKLOAD_FUNCTIONS,
):
    """The layered task graph of one generated workload."""
    from repro.apps import make_layered_dag

    return make_layered_dag(layers, width, num_workers, functions=functions, seed=seed)


def build_jobs_machine(
    preset: str,
    seed: int = 0,
    telemetry=None,
    fault_tolerance=None,
    warm_start: WarmStart = False,
    max_variants: int = 1,
    submit_mix: bool = True,
    node_id: int = 0,
):
    """Build the ``python -m repro jobs`` machine for one preset.

    Returns the :class:`~repro.core.runtime.jobs.JobManager` owning a
    fresh machine with the preset's job mix submitted (unless
    ``submit_mix=False``, which leaves the manager empty for a service
    session or a sharded node to feed), and the preset's mix.
    """
    from repro.core.runtime import JobManager
    from repro.presets import job_preset

    mix = job_preset(preset)
    engine = build_node_engine(
        mix.node,
        max_variants=max_variants,
        node_id=node_id,
        warm=resolve_warm_start(warm_start, mix.node),
        telemetry=telemetry,
        fault_tolerance=fault_tolerance,
    )
    manager = JobManager(engine)
    if submit_mix:
        submit_job_mix(manager, mix, seed)
    return manager, mix


def job_mix_graphs(mix, num_workers: int, seed: int) -> list:
    """One graph per job of ``mix``, graph seeds offset by ``seed``."""
    return [
        workload_graph(spec.layers, spec.width, num_workers, spec.graph_seed + seed)
        for spec in mix.jobs
    ]


def submit_job_mix(manager, mix, seed: int) -> list:
    """Submit every job of ``mix`` onto ``manager`` (CLI-identical)."""
    graphs = job_mix_graphs(mix, len(manager.engine.node), seed)
    return [
        manager.submit_job(
            graph,
            policy=spec.policy,
            priority=spec.priority,
            dataflow=spec.dataflow,
        )
        for spec, graph in zip(mix.jobs, graphs)
    ]


def run_jobs_experiment(
    preset: str,
    seed: int = 0,
    telemetry=None,
    fault_tolerance=None,
    warm_start: WarmStart = False,
) -> MachineReport:
    """Run one job-mix preset end to end and return its MachineReport."""
    manager, _ = build_jobs_machine(
        preset,
        seed=seed,
        telemetry=telemetry,
        fault_tolerance=fault_tolerance,
        warm_start=warm_start,
    )
    return manager.run()


def experiment_summary(report: MachineReport) -> Dict[str, Any]:
    """The handful of headline numbers shared by CLI and daemon status."""
    return {
        "makespan_ns": report.makespan_ns,
        "tasks": report.tasks,
        "jobs": len(report.jobs),
        "energy_pj": report.energy_pj,
        "tasks_unrecovered": report.tasks_unrecovered,
    }


def chaos_preset(name: str):
    """Resolve one :data:`~repro.chaos.experiment.CHAOS_PRESETS` entry."""
    from repro.chaos.experiment import CHAOS_PRESETS

    if name not in CHAOS_PRESETS:
        known = ", ".join(sorted(CHAOS_PRESETS))
        raise KeyError(f"unknown chaos preset {name!r}; choose from: {known}")
    return CHAOS_PRESETS[name]


def chaos_config(preset, baseline_makespan_ns: float):
    """The seeded fault mix of ``preset``, its injection window placed
    on the fault-free baseline's makespan (so "mid-graph" is derived,
    not guessed)."""
    from repro.chaos.controller import ChaosConfig

    lo, hi = preset.window_fraction
    return ChaosConfig(
        worker_crashes=preset.worker_crashes,
        transient_fraction=preset.transient_fraction,
        worker_downtime_ns=preset.worker_downtime_ns,
        link_degradations=preset.link_degradations,
        link_drop_rate=preset.link_drop_rate,
        link_latency_multiplier=preset.link_latency_multiplier,
        window_ns=(lo * baseline_makespan_ns, hi * baseline_makespan_ns),
    )
