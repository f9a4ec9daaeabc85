"""machine-build: build one generated multi-node machine per op.

Each shape is built three ways, one op each: ``Machine(...)``, then
``run_sharded_build`` with one partition inline and with two partitions
on the process backend.  Each build answers an allreduce and the maximum
hop distance; the three answers must agree.  The event loop does almost
nothing here: bring-up, routing and the shard backends do the work.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from harness import Run, Spans, median
from inputs import Shape, shape_deck, shape_for_group

IMPORTS = ("repro.core", "repro.sim", "repro.shard")
PROBED_SETUP = True
PAYLOAD_BYTES = 4096
PATHS = ("machine", "p1", "p2")


def setup(run: Run) -> Dict[str, Any]:
    """Imports and one untimed pass over the repeated shapes, all paths."""
    deck = shape_deck(run.seed)
    refs = []
    for shape in deck:
        answers = [build(shape, path, Spans()) for path in PATHS]
        refs.append(answers[0])
    return {"deck": deck, "refs": refs}


def build(shape: Shape, path: str, spans: Spans) -> Dict[str, Any]:
    """The op: one build by one path, plus allreduce and max hop."""
    from repro.core import ComputeNodeParams, Machine, MachineParams
    from repro.shard import run_sharded_build
    from repro.sim import Simulator

    fanouts = list(shape.fanouts) if shape.fanouts else None
    if path == "machine":
        with spans.span("core.build") as rec:
            machine = Machine(Simulator(), MachineParams(
                num_nodes=shape.nodes,
                node=ComputeNodeParams(num_workers=shape.workers,
                                       intra_fanout=shape.intra_fanout),
                inter_node_fanouts=fanouts,
            ))
            if rec is not None:
                rec["workers"] = machine.total_workers
        with spans.span("mpi.allreduce"):
            result = machine.world.allreduce(PAYLOAD_BYTES)
        with spans.span("interconnect.max_hop"):
            hop = machine.max_hop_distance()
        return {
            "num_nodes": shape.nodes,
            "total_workers": machine.total_workers,
            "max_hop_distance": hop,
            "allreduce": {"latency_ns": result.latency_ns, "rounds": result.rounds,
                          "bytes_moved": result.bytes_moved},
        }
    partitions, backend = (1, "inline") if path == "p1" else (2, "process")
    with spans.span(f"shard.{path}_build"):
        return run_sharded_build(
            shape.nodes, workers_per_node=shape.workers,
            intra_fanout=shape.intra_fanout, inter_node_fanouts=fanouts,
            partitions=partitions, backend=backend, payload_bytes=PAYLOAD_BYTES,
        )


def canonical(answer: Dict[str, Any]) -> str:
    return json.dumps(answer, sort_keys=True)


def measure(run: Run, state: Dict[str, Any]) -> None:
    deck, refs = state["deck"], state["refs"]
    for ref in refs:
        run.add_report(canonical(ref))
    run.layer["core.workers_built"] = sum(r["total_workers"] for r in refs)
    run.start_clock()
    group = 0
    while run.time_left():
        shape = shape_for_group(run.seed, deck, group)
        expected = refs[deck.index(shape)] if shape.repeat else None
        for path in PATHS:
            answer = run.op(f"build.{path}", lambda: build(shape, path, run.spans),
                            key=(shape, path))
            if answer is None:
                continue
            if expected is None:
                expected = answer      # a one-off: the first path is the reference
            run.check(canonical(answer) == canonical(expected),
                      f"{shape} via {path}: {answer} != {expected}")
        group += 1
    if run.trace:
        summarize(run)


def summarize(run: Run) -> None:
    spans = run.spans
    builds = [r for r in spans.records if r["name"] == "core.build"]
    p1 = median(spans.durations("shard.p1_build"))
    p2 = median(spans.durations("shard.p2_build"))
    run.layer.update({
        "core.build_s": median(spans.durations("core.build")),
        "core.build_us_per_worker": sum(r["end_ns"] - r["start_ns"] for r in builds)
        / 1e3 / sum(r["workers"] for r in builds),
        "mpi.allreduce_s": median(spans.durations("mpi.allreduce")),
        "interconnect.max_hop_s": median(spans.durations("interconnect.max_hop")),
        "shard.p1_build_s": p1,
        "shard.p2_build_s": p2,
        "shard.p2_over_p1": p2 / p1,
    })
