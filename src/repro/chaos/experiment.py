"""End-to-end chaos experiments: baseline run, fault run, verdict.

A chaos experiment runs the same workload twice on identical machines:

1. **baseline** -- fault tolerance off, no faults (today's behaviour),
2. **chaos** -- the self-healing runtime armed, with a seeded fault
   plan injected mid-graph (the window is derived from the baseline
   makespan, so "mid-graph" is deterministic, not guessed).

The :class:`ChaosReport` then answers the only question that matters:
did every task still complete (result integrity), and what did survival
cost (makespan degradation, retries, work lost, time-to-recover)?
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.taskgraph import TaskGraph
from repro.chaos.controller import ChaosController
from repro.core.runtime import FaultTolerancePolicy, MachineReport, RunReport
from repro.experiments import (
    build_node_engine,
    chaos_config,
    chaos_preset,
    resolve_warm_start,
    workload_graph,
)


@dataclass(frozen=True)
class ChaosPreset:
    """One named chaos scenario: workload + machine + fault mix."""

    node: str                   # repro.presets.NODE_PRESETS key
    layers: int = 6
    width: int = 10
    graph_seed: int = 1
    worker_crashes: int = 1
    transient_fraction: float = 0.0
    worker_downtime_ns: float = 300_000.0
    link_degradations: int = 1
    link_drop_rate: float = 0.05
    link_latency_multiplier: float = 4.0
    window_fraction: Tuple[float, float] = (0.2, 0.6)
    heartbeat_period_ns: float = 20_000.0
    max_attempts: int = 4

    def fault_tolerance(self) -> FaultTolerancePolicy:
        """The self-healing runtime armed for this scenario's chaos run."""
        return FaultTolerancePolicy(
            heartbeat_period_ns=self.heartbeat_period_ns,
            max_attempts=self.max_attempts,
        )


#: The scenarios ``python -m repro chaos <preset>`` accepts.  ``mini``
#: is the CI smoke configuration (small and fast, transient crash so
#: the Worker also exercises the rejoin path); ``board`` is the
#: acceptance scenario from DESIGN.md -- kill one Worker mid-graph and
#: degrade one inter-Worker link on the default 4-Worker board.
CHAOS_PRESETS: Dict[str, ChaosPreset] = {
    "mini": ChaosPreset(
        node="mini", layers=4, width=6,
        transient_fraction=1.0, worker_downtime_ns=200_000.0,
        link_latency_multiplier=2.0,
    ),
    "board": ChaosPreset(node="board"),
    "board-transient": ChaosPreset(node="board", transient_fraction=1.0),
    "chassis": ChaosPreset(
        node="chassis", width=20, worker_crashes=2, link_degradations=2,
    ),
}


def graph_signature(graph: TaskGraph) -> Tuple:
    """A workload signature independent of global task-id allocation.

    ``make_layered_dag`` draws task ids from a process-global counter,
    so two identical graphs built in one process carry different ids;
    compare what the tasks *are* -- (function, items, layer) in layer
    order -- not how they were numbered.
    """
    return tuple(
        (task.function, task.items, depth)
        for depth, layer in enumerate(graph.layers())
        for task in layer
    )


@dataclass
class ChaosReport:
    """Verdict of one chaos experiment."""

    preset: str
    seed: int
    baseline: RunReport
    chaos: RunReport
    faults_planned: int
    faults_injected: int
    plan: List[Dict[str, Any]] = field(default_factory=list)
    injected: List[Dict[str, Any]] = field(default_factory=list)
    workload_match: bool = True

    @property
    def integrity_ok(self) -> bool:
        """Same workload, every task completed despite the faults."""
        return (
            self.workload_match
            and self.chaos.tasks == self.baseline.tasks
            and self.chaos.tasks_unrecovered == 0
        )

    @property
    def slowdown(self) -> float:
        """Chaos makespan relative to the fault-free baseline."""
        if self.baseline.makespan_ns <= 0:
            return 1.0
        return self.chaos.makespan_ns / self.baseline.makespan_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "integrity_ok": self.integrity_ok,
            "slowdown": self.slowdown,
            "faults_planned": self.faults_planned,
            "faults_injected": self.faults_injected,
            "plan": self.plan,
            "injected": self.injected,
            "baseline": {
                "makespan_ns": self.baseline.makespan_ns,
                "tasks": self.baseline.tasks,
            },
            "chaos": {
                "makespan_ns": self.chaos.makespan_ns,
                "tasks": self.chaos.tasks,
                "worker_failures": self.chaos.worker_failures,
                "tasks_retried": self.chaos.tasks_retried,
                "tasks_unrecovered": self.chaos.tasks_unrecovered,
                "mean_detection_ns": self.chaos.mean_detection_ns,
                "mean_recovery_ns": self.chaos.mean_recovery_ns,
                "work_lost_ns": self.chaos.work_lost_ns,
                "fabric_recoveries": self.chaos.fabric_recoveries,
                "fabric_recovery_failures": self.chaos.fabric_recovery_failures,
            },
        }

    def events_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of the experiment (CI determinism diffing)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def build_chaos_run(
    preset: ChaosPreset,
    compiled=None,
    warm: bool = False,
    node_id: int = 0,
    graph_seed: Optional[int] = None,
    **engine_kwargs,
):
    """One fresh (engine, graph) pair for the preset.

    A sharded node passes its ``node_id`` and its offset ``graph_seed``;
    ``engine_kwargs`` reach :func:`repro.experiments.build_node_engine`.
    """
    engine = build_node_engine(
        preset.node, compiled, node_id=node_id, warm=warm, **engine_kwargs
    )
    graph = workload_graph(
        preset.layers,
        preset.width,
        len(engine.node),
        preset.graph_seed if graph_seed is None else graph_seed,
    )
    return engine, graph


def run_chaos_experiment(
    preset_name: str,
    seed: int = 0,
    telemetry=None,
    compiled=None,
    warm_start=False,
) -> ChaosReport:
    """Run one named chaos scenario end to end.

    ``compiled`` lets callers pass a pre-built ``(registry, library)``
    pair (the HLS flow is the slow part); ``telemetry`` instruments the
    chaos run only.  ``warm_start`` (bool or saved-snapshot path) builds
    both machines through the template cache -- bit-identical reports,
    bring-up paid once.
    """
    preset = chaos_preset(preset_name)
    warm = resolve_warm_start(warm_start, preset.node)

    # --- baseline: fault tolerance off, no faults ----------------------
    baseline_engine, baseline_graph = build_chaos_run(preset, compiled, warm)
    baseline_report = baseline_engine.run_graph(baseline_graph)

    # --- chaos: self-healing runtime + seeded fault plan ---------------
    engine, graph = build_chaos_run(
        preset, compiled, warm,
        fault_tolerance=preset.fault_tolerance(), telemetry=telemetry,
    )
    controller = ChaosController(engine.node.sim, seed=seed, telemetry=telemetry)
    controller.schedule_random(
        engine,
        engine.node.network.links,
        config=chaos_config(preset, baseline_report.makespan_ns),
    )
    controller.arm()
    chaos_report = engine.run_graph(graph)

    return ChaosReport(
        preset=preset_name,
        seed=seed,
        baseline=baseline_report,
        chaos=chaos_report,
        faults_planned=controller.faults_planned,
        faults_injected=controller.faults_injected,
        plan=[f.to_dict() for f in controller.plan],
        injected=list(controller.injected),
        workload_match=(
            graph_signature(baseline_graph) == graph_signature(graph)
        ),
    )


# ----------------------------------------------------------------------
# multi-tenant chaos: concurrent jobs, per-job verdicts
# ----------------------------------------------------------------------


@dataclass
class JobChaosVerdict:
    """Did one tenant survive the chaos run intact?"""

    job_id: int
    policy: str
    priority: int
    tasks: int
    tasks_retried: int
    tasks_unrecovered: int
    latency_ns: float
    workload_match: bool

    @property
    def integrity_ok(self) -> bool:
        """Same workload, every task of *this job* completed."""
        return self.workload_match and self.tasks_unrecovered == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "policy": self.policy,
            "priority": self.priority,
            "tasks": self.tasks,
            "tasks_retried": self.tasks_retried,
            "tasks_unrecovered": self.tasks_unrecovered,
            "integrity_ok": self.integrity_ok,
        }


@dataclass
class MultiJobChaosReport:
    """Verdict of one multi-tenant chaos experiment: the machine-wide
    roll-up plus one integrity verdict per job."""

    preset: str
    seed: int
    baseline: MachineReport
    chaos: MachineReport
    verdicts: List[JobChaosVerdict]
    faults_planned: int
    faults_injected: int
    plan: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def integrity_ok(self) -> bool:
        return bool(self.verdicts) and all(v.integrity_ok for v in self.verdicts)

    @property
    def slowdown(self) -> float:
        if self.baseline.makespan_ns <= 0:
            return 1.0
        return self.chaos.makespan_ns / self.baseline.makespan_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "integrity_ok": self.integrity_ok,
            "slowdown": self.slowdown,
            "faults_planned": self.faults_planned,
            "faults_injected": self.faults_injected,
            "plan": self.plan,
            "fairness_index": self.chaos.fairness_index(),
            "jobs": [v.to_dict() for v in self.verdicts],
            "baseline": {"makespan_ns": self.baseline.makespan_ns},
            "chaos": {
                "makespan_ns": self.chaos.makespan_ns,
                "worker_failures": self.chaos.worker_failures,
                "tasks_retried": self.chaos.tasks_retried,
                "tasks_unrecovered": self.chaos.tasks_unrecovered,
            },
        }

    def events_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of the experiment (CI determinism diffing)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_multi_job_chaos_experiment(
    preset_name: str,
    seed: int = 0,
    policies: Tuple[str, ...] = ("greedy-hw", "energy"),
    telemetry=None,
    compiled=None,
) -> MultiJobChaosReport:
    """Run one chaos scenario with concurrent tenant jobs.

    Same two-run shape as :func:`run_chaos_experiment` -- a fault-free
    multi-job baseline (FT off) pins down the workload and the fault
    window, then the chaos run arms the self-healing runtime and injects
    the seeded plan while the jobs stream concurrently.  The verdicts
    are *per job*: each tenant's workload signature and task integrity
    is checked independently.
    """
    from repro.chaos.checkpoint_experiment import (
        build_workload_machine,
        submit_workload,
        workload_spec,
    )

    preset = chaos_preset(preset_name)
    workload = workload_spec(preset_name, policies=policies)

    # --- baseline: concurrent jobs, fault tolerance off, no faults -----
    manager0 = build_workload_machine(workload, compiled=compiled)
    handles0 = submit_workload(manager0, workload)
    baseline = manager0.run()

    # --- chaos: self-healing runtime + seeded fault plan ---------------
    manager = build_workload_machine(
        workload,
        fault_tolerance=preset.fault_tolerance(),
        telemetry=telemetry,
        compiled=compiled,
    )
    handles = submit_workload(manager, workload)
    engine = manager.engine
    controller = ChaosController(manager.sim, seed=seed, telemetry=telemetry)
    controller.schedule_random(
        engine,
        engine.node.network.links,
        config=chaos_config(preset, baseline.makespan_ns),
    )
    controller.arm()
    chaos = manager.run()

    verdicts = []
    for h0, h in zip(handles0, handles):
        outcome = chaos.job(h.job_id)
        verdicts.append(
            JobChaosVerdict(
                job_id=h.job_id,
                policy=h.policy.name,
                priority=h.priority,
                tasks=outcome.report.tasks,
                tasks_retried=outcome.report.tasks_retried,
                tasks_unrecovered=outcome.report.tasks_unrecovered,
                latency_ns=outcome.latency_ns,
                workload_match=(
                    graph_signature(h0.graph) == graph_signature(h.graph)
                ),
            )
        )
    return MultiJobChaosReport(
        preset=preset_name,
        seed=seed,
        baseline=baseline,
        chaos=chaos,
        verdicts=verdicts,
        faults_planned=controller.faults_planned,
        faults_injected=controller.faults_injected,
        plan=[f.to_dict() for f in controller.plan],
    )
