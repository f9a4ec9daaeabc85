"""Timing, spans and statistics shared by every workload.

A workload drives its own closed loop (one client, one op in flight) and
reports through a :class:`Run`:

- ``run.op(label, fn)`` times one op with ``time.perf_counter`` and
  records its latency under ``label``; an exception counts the op as
  attempted and failed.  Output checks run *after* ``op`` returns, so they
  never land in the timed region; ``run.check`` marks the last op failed.
- ``run.spans`` records a span around every timed layer call when the run
  is traced, and is a shared no-op context otherwise.
- ``run.setup_samples`` collects set-up times (seconds); ``setup_s`` is
  their median.

End-to-end metrics come from untraced runs only.  A traced run measures
half of its time untraced and half traced, so it can report the tracing
overhead of this file's span recorder per workload.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for op outputs, daemon sockets, snapshots and span files
#: (relative, so unix socket paths stay short in deep checkouts)
OUT = Path(".bench_out")


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class Spans:
    """In-memory span recorder: name, start, end, parent, op id.

    Spans stay in memory and are written out once, when the run ends.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.op_id = -1

    @contextmanager
    def _span(self, name: str):
        rec = {"id": len(self.records), "name": name,
               "start_ns": time.perf_counter_ns(), "end_ns": 0,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op_id}
        self.records.append(rec)
        self._stack.append(len(self.records) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end_ns"] = time.perf_counter_ns()

    @contextmanager
    def _off(self, name: str):
        yield None

    def span(self, name: str):
        return self._span(name) if self.enabled else self._off(name)

    def durations(self, name: str) -> List[float]:
        """Seconds spent in every span called ``name``."""
        return [(r["end_ns"] - r["start_ns"]) / 1e9
                for r in self.records if r["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (span name up to its first dot).

        A span's self time is its duration minus the part of it that its
        children cover; children of one span never overlap here (one
        client, no concurrency), so their durations simply add.
        """
        child_ns = [0] * len(self.records)
        for rec in self.records:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
        out: Dict[str, float] = {}
        for i, rec in enumerate(self.records):
            layer = rec["name"].split(".", 1)[0]
            own = rec["end_ns"] - rec["start_ns"] - child_ns[i]
            out[layer] = out.get(layer, 0.0) + own / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records))


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


class Run:
    """One closed-loop measurement: op latencies, failures, set-up samples."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spans = Spans()
        self.latencies: Dict[str, List[float]] = {}   # label -> s, untraced ops
        self.phase_latencies: Dict[bool, List[float]] = {False: [], True: []}
        # pairing key (e.g. deck item) -> latencies, per phase
        self.keyed: Dict[bool, Dict[Any, List[float]]] = {False: {}, True: {}}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.setup_samples: List[float] = []
        self.layer: Dict[str, float] = {}      # per-layer values a workload sets
        self.extra: Dict[str, Tuple[float, str, int]] = {}  # name -> value, unit, n
        self.digest = hashlib.sha256()
        self.digest_items = 0
        self.peak_rss_kb = 0
        self._op_failed = False
        self._deadline = 0.0
        self._phase_split = 0.0

    # -- loop control ---------------------------------------------------
    def start_clock(self) -> None:
        """Begin the measured period (after set-up and warmup)."""
        gc.collect()
        now = time.perf_counter()
        self._deadline = now + self.seconds
        # a traced run measures its first half untraced for the overhead
        self._phase_split = now + self.seconds / 2 if self.trace else self._deadline
        self.spans.enabled = False

    def time_left(self) -> bool:
        now = time.perf_counter()
        if self.trace and not self.spans.enabled and now >= self._phase_split:
            self.spans.enabled = True
        return now < self._deadline

    # -- ops ------------------------------------------------------------
    def op(self, label: str, fn: Callable[[], Any], key: Any = None) -> Any:
        """Time one op.  Returns its result, or None if it raised.

        ``key`` names the input the op ran on (default: its label), so
        traced and untraced ops on the same input can be paired.
        """
        self.attempted += 1
        self._op_failed = False
        self.spans.op_id = self.attempted - 1
        traced = self.spans.enabled
        try:
            with self.spans.span(f"bench.{label}"):
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op
            self._fail(f"{label}: raised {type(exc).__name__}: {exc}")
            return None
        if not traced:
            self.latencies.setdefault(label, []).append(dt)
        self.phase_latencies[traced].append(dt)
        self.keyed[traced].setdefault(label if key is None else key, []).append(dt)
        return result

    def untimed_op(self) -> None:
        """Start an op that is checked but not timed (it counts in
        ``attempted``, and in ``failed`` if a check on it fails)."""
        self.attempted += 1
        self._op_failed = False

    def check(self, ok: bool, message: str) -> bool:
        """Record an output check on the last op (outside the timed region)."""
        if not ok:
            self._fail(message)
        return ok

    def _fail(self, message: str) -> None:
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        if len(self.failures) < 20:
            self.failures.append(message)

    # -- deterministic outputs -------------------------------------------
    def add_report(self, canonical: str) -> None:
        """Fold one canonical simulated report into the run's sim digest."""
        self.digest.update(canonical.encode("utf-8"))
        self.digest.update(b"\0")
        self.digest_items += 1

    # -- derived numbers --------------------------------------------------
    def all_latencies(self) -> List[float]:
        """Latencies of the untraced ops, in seconds."""
        return self.phase_latencies[False]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def paired_ratio(a: Dict[Any, List[float]], b: Dict[Any, List[float]]) -> Optional[float]:
    """Median over shared keys of median(a[key]) / median(b[key])."""
    ratios = [median(a[k]) / median(b[k]) for k in a if k in b]
    return median(ratios) if ratios else None


def tail_supported(n: int, q: float) -> bool:
    """A tail percentile is reported only with >= 10 samples beyond it."""
    return n * (100.0 - q) / 100.0 >= 10


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ----------------------------------------------------------------------
# host facts, memory, processes
# ----------------------------------------------------------------------


def host_facts() -> Dict[str, Any]:
    from importlib import metadata

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown"
    # only this checkout's own repository: git would otherwise search the
    # parent directories and could report an enclosing repository
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "commit": commit,
        "platform": platform.platform(),
        "speed_probe_ms": speed_probe_ms(),
    }


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop on this host, right now.

    Shared hosts change speed over minutes; this number lets two result
    files be compared for host speed.  No metric is scaled by it.
    """
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        sum(i * i for i in range(100_000))
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e3


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def proc_peak_rss_kb(pid: int) -> int:
    """VmHWM of a live process (Linux), 0 if unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def run_child(argv: List[str], timeout: float = 120.0, **kw) -> subprocess.CompletedProcess:
    """Run one child to completion (waits; kills it on timeout)."""
    return subprocess.run(argv, env=child_env(), capture_output=True,
                          timeout=timeout, **kw)


def parse_importtime(stderr: str, roots: Sequence[str]) -> Dict[str, float]:
    """Seconds per package from ``python -X importtime`` output.

    ``total`` sums the top-level imports whose root package is in
    ``roots`` (lazy imports inside functions are top-level too); numpy
    and networkx are their cumulative times where they first load, and
    ``repro`` is the rest of ``total``.
    """
    total = 0.0
    first: Dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line, or interleaved output
        cumulative = int(parts[1]) / 1e6
        name = parts[2].strip()
        level = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        if level == 0 and name.split(".")[0] in roots:
            total += cumulative
        if name in ("numpy", "networkx") and name not in first:
            first[name] = cumulative
    numpy_s = first.get("numpy", 0.0)
    networkx_s = first.get("networkx", 0.0)
    return {"total": total, "numpy": numpy_s, "networkx": networkx_s,
            "repro": total - numpy_s - networkx_s}


def import_breakdown(run: "Run", modules: Sequence[str]) -> None:
    """``import.*`` per-layer numbers from a fresh ``-X importtime`` process."""
    stmt = "import " + ", ".join(modules)
    proc = run_child([sys.executable, "-X", "importtime", "-c", stmt])
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.decode()[-500:]}")
    roots = {m.split(".")[0] for m in modules}
    for key, value in parse_importtime(proc.stderr.decode(), roots).items():
        run.layer[f"import.{key}_s"] = value


def compile_suite(run: "Run", max_variants: int = 2):
    """First and repeat ``compiled_suite`` calls, timed as ``hls.*``."""
    from repro.presets import compiled_suite

    t0 = time.perf_counter()
    registry, library = compiled_suite(max_variants=max_variants)
    t1 = time.perf_counter()
    compiled_suite(max_variants=max_variants)
    t2 = time.perf_counter()
    run.layer["hls.compile_s"] = t1 - t0
    run.layer["hls.cached_s"] = t2 - t1
    run.layer["hls.modules"] = len(library)


def runtime_counts(run: "Run", rows: Sequence[Dict[str, Any]]) -> None:
    """``runtime.*`` and ``fabric.*`` per-layer counts, summed over one
    deck's reports (each row holds ``tasks``, ``hw_calls``,
    ``tasks_retried``, ``tasks_unrecovered``, ``reconfigurations`` and,
    for serving runs, ``evictions``)."""
    def total(key: str) -> float:
        return sum(row.get(key, 0) for row in rows)

    run.layer.update({
        "runtime.tasks": total("tasks"),
        "runtime.hw_call_ratio": total("hw_calls") / total("tasks"),
        "runtime.tasks_retried": total("tasks_retried"),
        "runtime.tasks_unrecovered": total("tasks_unrecovered"),
        "fabric.reconfigurations": total("reconfigurations"),
        "fabric.evictions": total("evictions"),
    })


def machine_row(machine: Dict[str, Any]) -> Dict[str, Any]:
    """A serving report's ``machine`` block as a :func:`runtime_counts` row."""
    return dict(machine, evictions=machine["fabric_evictions"])


# ----------------------------------------------------------------------
# result assembly
# ----------------------------------------------------------------------

def end_to_end(run: Run) -> Dict[str, Tuple[float, str, int]]:
    """Every end-to-end number this run supports: name -> (value, unit, n).

    Tail percentiles appear only where at least ten samples lie beyond
    them; workload-specific numbers (``sim_*``) come from ``run.extra``.
    """
    lat = run.all_latencies()
    if not lat:
        raise RuntimeError("no op completed; nothing to report")
    n = len(lat)
    out = {
        "setup_s": (median(run.setup_samples), "s", len(run.setup_samples)),
        "ops_per_s": (n / sum(lat), "1/s", n),
        "op_p50_ms": (percentile(lat, 50) * 1e3, "ms", n),
        "peak_rss_mb": (run.peak_rss_kb / 1024.0, "MB", 1),
        "fail_ratio": (run.failed / run.attempted, "ratio", run.attempted),
    }
    for q in (90, 99):
        if tail_supported(n, q):
            out[f"op_p{q}_ms"] = (percentile(lat, q) * 1e3, "ms", n)
    out.update(run.extra)
    return out
