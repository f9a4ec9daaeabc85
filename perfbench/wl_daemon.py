"""daemon-session: one ``python -m repro daemon`` driven by one client.

Each op is one protocol command over the unix socket.  The script per
seed (``inputs.daemon_script``) runs rounds of jobs epochs and serving
epochs -- plain, with an online worker crash, with a live reconfigure --
stepping one window at a time with status, metrics and events reads
between; it snapshots mid-epoch and runs to the end.  Each snapshot is then restored
into an idle session and continued.  Cheap reads sit beside disk writes
and journal replays, so a change that trades one for the other shows.

The script has a fixed length, so the daemon's report archive (which
every snapshot carries) stays the same size across the run: the run
repeats whole sessions, each on a freshly spawned daemon, and every
spawn is one set-up sample.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List

from harness import (
    OUT, Run, child_env, compile_suite, machine_row, median, percentile,
    proc_peak_rss_kb, runtime_counts,
)
from inputs import CRASH_STEP, Epoch, daemon_script

IMPORTS = ("repro.service.daemon", "repro.service.session", "repro.serving",
           "repro.experiments")
#: status, metrics and events every this many steps: steps stay the
#: large majority of ops, so the median op is a step, not a cheap read,
#: and does not jump between the two as the mix shifts with the seed
READS_EVERY = 10
MAX_STEPS = 2_000
SPAWN_TIMEOUT_S = 60.0


class SessionAborted(Exception):
    """A command failed; the rest of this session's script is moot."""


def play(script: List[Epoch], call: Callable[[Dict[str, Any]], Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Drive the scripted session through ``call(frame) -> reply``."""
    epochs = []
    for ep in script:
        info: Dict[str, Any] = {"epoch": ep}
        submit = {"cmd": "submit", "kind": "jobs" if ep.kind == "jobs" else "serving",
                  "preset": ep.preset, "seed": ep.seed}
        if ep.kind == "chaos":
            submit["fault_tolerance"] = True
        call(submit)
        steps = 0
        while True:
            if steps == ep.snapshot_after:
                info["snapshot"] = call({"cmd": "snapshot"})
                reply = call({"cmd": "run"})
            else:
                reply = call({"cmd": "step", "windows": 1})
                steps += 1
            if reply["state"] == "idle":
                info["key"] = reply["report_key"]
                break
            if steps > MAX_STEPS:
                raise SessionAborted(f"{ep} did not finish in {MAX_STEPS} steps")
            if steps % READS_EVERY == 0:
                call({"cmd": "status"})
                call({"cmd": "metrics"})
                call({"cmd": "events"})
            if ep.crash is not None and steps == CRASH_STEP:
                worker, at_ns, downtime_ns = ep.crash
                reply = call({"cmd": "chaos", "faults": [{
                    "kind": "crash", "worker": worker, "at_ns": at_ns,
                    "downtime_ns": downtime_ns}]})
                info["faults"] = reply["planned"]
            if ep.knobs is not None and steps == 1:
                call(dict({"cmd": "reconfigure"}, **ep.knobs))
        info["report"] = call({"cmd": "report", "key": info["key"]})["report"]
        epochs.append(info)
    return epochs


def batch_report(ep: Epoch):
    """The batch ``run_*_experiment`` equivalent of an epoch, if any."""
    if ep.kind == "jobs":
        from repro.experiments import run_jobs_experiment

        return run_jobs_experiment(ep.preset, seed=ep.seed, warm_start=True).json(indent=2)
    if ep.kind == "reconfigure":
        return None             # a live knob change has no batch form
    from repro.core.runtime import FaultTolerancePolicy
    from repro.serving import run_serving_experiment

    if ep.kind == "chaos":
        return run_serving_experiment(
            ep.preset, seed=ep.seed, warm_start=True,
            fault_tolerance=FaultTolerancePolicy(), crash=ep.crash).json(indent=2)
    return run_serving_experiment(ep.preset, seed=ep.seed, warm_start=True).json(indent=2)


def setup(run: Run) -> Dict[str, Any]:
    """Client imports, suite compile, and the script played in-process."""
    from repro.service.session import ServiceSession

    compile_suite(run)
    script = daemon_script(run.seed)
    session = ServiceSession(snapshot_dir=str(OUT / "daemon" / "reference"))
    sim = {"latencies_ns": [], "within": 0, "completed": 0, "events": 0}
    live = {}

    def call(frame):
        reply = session.handle(frame)
        if not reply.get("ok"):
            raise SessionAborted(f"reference session: {frame} -> {reply}")
        if frame["cmd"] == "submit":
            live["epoch"] = session.workload
        if reply.get("state") == "idle":
            epoch = live.pop("epoch")
            sim["events"] += epoch.sim.events_processed
            if epoch.kind == "serving":
                for tenant in epoch.gateway.slo.tenants():
                    sim["latencies_ns"].extend(tenant.latencies_ns)
                    sim["within"] += tenant.completed_within_slo
                    sim["completed"] += tenant.completed
        return reply

    epochs = play(script, call)
    refs = [info["report"] for info in epochs]
    return {
        "script": script, "refs": refs, "sim": sim,
        "batch": [batch_report(ep) for ep in script],
        "faults": sum(info.get("faults", 0) for info in epochs),
        # filled per session: spawn -> ping, snapshot sizes, journal lengths
        "start_s": [], "snapshot_bytes": [], "journal": [], "played": 0,
    }


class Daemon:
    """One spawned daemon process plus its socket client."""

    def __init__(self, root) -> None:
        from repro.service.client import ServiceClient

        root.mkdir(parents=True, exist_ok=True)
        self.socket = root / "d.sock"
        if self.socket.exists():
            self.socket.unlink()
        self.log = open(root / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "daemon", "--socket", str(self.socket),
             "--snapshot-dir", str(root / "snapshots")],
            env=child_env(), stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.perf_counter() + SPAWN_TIMEOUT_S
        while not self.socket.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError(f"daemon did not start (see {root / 'daemon.log'})")
            time.sleep(0.002)
        self.client = ServiceClient(socket_path=str(self.socket), timeout=SPAWN_TIMEOUT_S)

    def close(self) -> None:
        """Shut the daemon down over the protocol (terminate it if it never
        came up) and wait for it to exit."""
        client = getattr(self, "client", None)
        if self.proc.poll() is None:
            if client is None:
                self.proc.terminate()
            else:
                from repro.service.client import ServiceClientError

                try:
                    client.command("shutdown")
                except (OSError, ServiceClientError):
                    self.proc.terminate()
        if client is not None:
            client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def one_session(run: Run, state: Dict[str, Any], session_no: int) -> int:
    """Spawn, warm, play the script, restore and continue; return peak RSS."""
    root = OUT / "daemon" / f"session{session_no % 2}"
    t0 = time.perf_counter()
    daemon = Daemon(root)
    try:
        reply = daemon.client.command("ping")
        if not reply.get("ok"):
            raise SessionAborted(f"ping -> {reply}")
        state["start_s"].append(time.perf_counter() - t0)
        # warmup: every preset of the script, once, untimed
        warm = {("jobs" if ep.kind == "jobs" else "serving", ep.preset): ep.seed
                for ep in state["script"]}
        for (kind, preset), seed in sorted(warm.items()):
            daemon.client.command("submit", kind=kind, preset=preset, seed=seed)
            daemon.client.command("run")
        run.setup_samples.append(time.perf_counter() - t0)

        def call(frame):
            cmd = frame["cmd"]

            def rpc():
                with run.spans.span(f"service.{cmd}"):
                    return daemon.client.request(frame)

            reply = run.op(f"service.{cmd}", rpc)
            if reply is None or not run.check(bool(reply.get("ok")), f"{frame} -> {reply}"):
                raise SessionAborted(f"{frame} -> {reply}")
            return reply

        traced = run.spans.enabled
        epochs = play(state["script"], call)
        if not traced:
            state["played"] += 1
        rss = proc_peak_rss_kb(daemon.proc.pid)
    finally:
        daemon.close()
    check_epochs(run, state, epochs)
    return rss


def check_epochs(run: Run, state: Dict[str, Any], epochs) -> None:
    from repro.service.session import ServiceSession

    for info, ref, batch in zip(epochs, state["refs"], state["batch"]):
        ep = info["epoch"]
        run.check(info["report"] == ref, f"{ep}: daemon report != in-process session report")
        if batch is not None:
            run.check(info["report"] == batch, f"{ep}: daemon report != batch report")
        snap = info.get("snapshot")
        if snap is None:
            continue
        state["snapshot_bytes"].append(os.path.getsize(snap["path"]))
        state["journal"].append(snap["journal"])
        restored = ServiceSession(snapshot_dir=os.path.dirname(snap["path"]))
        for cmd, frame in (("restore", {"cmd": "restore", "path": snap["path"]}),
                           ("resumed_run", {"cmd": "run"}),
                           ("resumed_report", {"cmd": "report"})):
            def local():
                with run.spans.span(f"service.{cmd}"):
                    return restored.handle(frame)

            reply = run.op(f"service.{cmd}", local)
            if reply is None or not run.check(bool(reply.get("ok")), f"{frame} -> {reply}"):
                break
        else:
            run.check(reply["report"] == info["report"],
                      f"{ep}: restore -> continue != uninterrupted run")


def measure(run: Run, state: Dict[str, Any]) -> None:
    for ref in state["refs"]:
        run.add_report(ref)
    run.start_clock()
    sessions = 0
    # whole sessions only; a traced run gives its second session onwards
    # to tracing, so both halves hold at least one session
    while sessions < 2 or run.time_left():
        if run.trace and sessions == 1:
            run.spans.enabled = True
        try:
            run.peak_rss_kb = max(run.peak_rss_kb, one_session(run, state, sessions))
        except SessionAborted as exc:
            run.check(False, f"session {sessions} aborted: {exc}")
        sessions += 1
    summarize(run, state)


def summarize(run: Run, state: Dict[str, Any]) -> None:
    reports = [json.loads(text) for text in state["refs"]]
    jobs = [r for r, ep in zip(reports, state["script"]) if ep.kind == "jobs"]
    served = [r["machine"] for r, ep in zip(reports, state["script"]) if ep.kind != "jobs"]
    sim = state["sim"]
    pooled = sim["latencies_ns"]
    lat = run.all_latencies()
    run.extra["sim_events_per_s"] = (sim["events"] * state["played"] / sum(lat), "1/s",
                                     len(lat))
    run.extra["sim_p99_us"] = (percentile(pooled, 99) / 1e3, "us", len(pooled))
    run.extra["sim_slo_attainment"] = (sim["within"] / sim["completed"], "ratio",
                                       sim["completed"])
    run.extra["sim_makespan_ms"] = (median(r["makespan_ns"] for r in jobs) / 1e6, "ms",
                                    len(jobs))
    runtime_counts(run, jobs + [machine_row(m) for m in served])
    run.layer["chaos.faults_injected"] = state["faults"]
    run.layer["sim.events"] = sim["events"]
    if not run.trace:
        return
    run.layer["service.start_s"] = median(state["start_s"])
    run.layer["service.snapshot_bytes"] = median(state["snapshot_bytes"])
    run.layer["service.journal_len"] = median(state["journal"])
    for cmd in ("submit", "step", "run", "status", "metrics", "report",
                "snapshot", "restore"):
        lat = run.latencies.get(f"service.{cmd}")
        if lat:
            run.layer[f"service.{cmd}_ms"] = median(lat) * 1e3
