"""serve-mix: one serving run per op in a warm process.

Each op builds a node, engine and gateway for one generated scenario and
serves it to completion: the simulator, serving, runtime and fabric
layers do nearly all the work, bring-up a small share.  Every fourth
run of each scenario has request tracing on, so ``telemetry.*`` sees
the cost of the program's own tracing.  After the timed loop, the
cold == warm check (``cold_check.py``) runs fresh CLI processes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from cold_check import check_cold
from harness import (
    Run, Spans, compile_suite, machine_row, median, paired_ratio, percentile,
    runtime_counts, self_peak_rss_kb,
)
from inputs import ServeItem, serve_deck

IMPORTS = ("repro.serving", "repro.presets", "repro.core.runtime")
PROBED_SETUP = True
TRACED_EVERY = 4


def setup(run: Run) -> Dict[str, Any]:
    """Imports, suite compile and one untimed pass over the deck."""
    compile_suite(run)
    deck = serve_deck(run.seed)
    refs = []
    for item in deck:
        gateway, report, text = serve_once(item, traced=False, spans=Spans())
        refs.append(reference(gateway, report, text))
    return {"deck": deck, "refs": refs}


def serve_once(item: ServeItem, traced: bool, spans):
    """The op: suite lookup, bring-up, serve, canonical report."""
    from repro.core.runtime.engine import ExecutionEngine
    from repro.presets import build_preset_node, compiled_suite
    from repro.serving import ServingGateway, TraceConfig
    from repro.sim import Simulator

    span = spans.span
    with span("hls.compiled_suite"):
        registry, library = compiled_suite(max_variants=2)
    with span("core.build") as rec:
        sim = Simulator()
        node = build_preset_node(sim, item.scenario.node, warm=True)
        engine = ExecutionEngine(node, registry, library, use_daemon=False)
        gateway = ServingGateway(
            engine, item.scenario, seed=item.seed, scenario_name=item.name,
            tracing=TraceConfig() if traced else None,
        )
        if rec is not None:
            rec["workers"] = len(node.workers)
    # ServingGateway.run() is start(); sim.run(); report() -- called
    # apart so the event loop gets a span of its own
    with span("serving.run"):
        gateway.start()
        with span("sim.run") as rec:
            sim.run()
        if rec is not None:
            rec["events"] = sim.events_processed
        report = gateway.report()
    with span("serving.report"):
        text = report.json()
    return gateway, report, text


def reference(gateway, report, text: str) -> Dict[str, Any]:
    latencies: List[float] = []
    within = completed = 0
    for tenant in gateway.slo.tenants():
        latencies.extend(tenant.latencies_ns)
        within += tenant.completed_within_slo
        completed += tenant.completed
    return {
        "text": text,
        "events": gateway.sim.events_processed,
        "workers": len(gateway.engine.node.workers),
        "latencies_ns": latencies,
        "within": within,
        "completed": completed,
        "offered": report.offered,
        "shed": report.shed,
        "batches": report.batches,
        "batched": report.mean_batch_size * report.batches,
        "machine": machine_row(report.machine),
    }


def check_report(run: Run, report, text: str, ref: Dict[str, Any], traced: bool) -> None:
    run.check(report.admitted + report.shed == report.offered,
              f"{report.scenario}: admitted + shed != offered")
    run.check(report.completed + report.unrecovered == report.admitted,
              f"{report.scenario}: completed + unrecovered != admitted")
    run.check(report.unrecovered == 0,
              f"{report.scenario}: {report.unrecovered} requests never completed")
    if traced:
        run.check(bool(report.tracing), f"{report.scenario}: traced run has no tracing block")
        body = report.to_dict()
        body.pop("tracing", None)
        body.pop("alerts", None)
        text = json.dumps(body, sort_keys=True)
    run.check(text == ref["text"],
              f"{report.scenario}: report differs from the deck's reference run")


def measure(run: Run, state: Dict[str, Any]) -> None:
    deck, refs = state["deck"], state["refs"]
    for ref in refs:
        run.add_report(ref["text"])
    run.start_clock()
    i = 0
    events_done = 0
    while run.time_left():
        k = i % len(deck)
        # each item runs traced once every TRACED_EVERY passes, so both
        # modes see the whole deck
        traced = (i // len(deck) + k) % TRACED_EVERY == TRACED_EVERY - 1
        label = "serve.traced" if traced else "serve"
        out = run.op(label, lambda: serve_once(deck[k], traced, run.spans),
                     key=(k, traced))
        i += 1
        if out is None:
            continue
        _, report, text = out
        check_report(run, report, text, refs[k], traced)
        if not run.spans.enabled:
            events_done += refs[k]["events"]
    # the workload's own peak, before the cold check runs presets in-process
    run.peak_rss_kb = self_peak_rss_kb()
    check_cold(run)
    summarize(run, refs, events_done)


def summarize(run: Run, refs, events_done: int) -> None:
    lat = run.all_latencies()
    pooled = [x for ref in refs for x in ref["latencies_ns"]]
    completed = sum(ref["completed"] for ref in refs)
    run.extra["sim_events_per_s"] = (events_done / sum(lat), "1/s", len(lat))
    run.extra["sim_p99_us"] = (percentile(pooled, 99) / 1e3, "us", len(pooled))
    run.extra["sim_slo_attainment"] = (
        sum(ref["within"] for ref in refs) / completed, "ratio", completed)

    offered = sum(ref["offered"] for ref in refs)
    batches = sum(ref["batches"] for ref in refs)
    run.layer.update({
        "serving.offered": offered,
        "serving.shed_ratio": sum(ref["shed"] for ref in refs) / offered,
        "serving.batches": batches,
        "serving.mean_batch_size": sum(ref["batched"] for ref in refs) / batches,
        "sim.events": sum(ref["events"] for ref in refs),
        "core.workers_built": sum(ref["workers"] for ref in refs),
    })
    runtime_counts(run, [ref["machine"] for ref in refs])
    if run.trace:
        spans = run.spans
        builds = [r for r in spans.records if r["name"] == "core.build"]
        loops = [r for r in spans.records if r["name"] == "sim.run"]
        run.layer.update({
            "serving.run_s": median(spans.durations("serving.run")),
            "serving.report_s": median(spans.durations("serving.report")),
            "core.build_s": median(spans.durations("core.build")),
            "hls.cached_s": median(spans.durations("hls.compiled_suite")),
            "sim.host_ns_per_event": sum(r["end_ns"] - r["start_ns"] for r in loops)
            / sum(r["events"] for r in loops),
            "core.build_us_per_worker": sum(r["end_ns"] - r["start_ns"] for r in builds)
            / 1e3 / sum(r["workers"] for r in builds),
        })
        # request tracing on against off, paired per deck item, from the
        # untraced half of the run
        untraced = run.keyed[False]
        on = {k: v for (k, traced), v in untraced.items() if traced}
        off = {k: v for (k, traced), v in untraced.items() if not traced}
        ratio = paired_ratio(on, off)
        if ratio is not None:
            run.layer["telemetry.traced_op_ms"] = median(run.latencies["serve.traced"]) * 1e3
            run.layer["telemetry.untraced_op_ms"] = median(run.latencies["serve"]) * 1e3
            run.layer["telemetry.trace_overhead_ratio"] = ratio
