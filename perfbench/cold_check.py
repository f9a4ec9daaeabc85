"""cold == warm: fresh ``python -m repro`` processes against this process.

Run by serve-mix after its timed loop, outside every timing.  One
generated ``serve``, ``jobs`` and ``chaos`` invocation each writes its
report with ``--out`` (``--events-out`` for chaos); the file must be
byte-identical to the same preset and seed run in the warm benchmark
process.  Each invocation counts as one untimed op.
"""

from __future__ import annotations

import json
import sys

from harness import OUT, Run, run_child
from inputs import ColdOp, cold_deck


def warm_text(op: ColdOp) -> str:
    """The same preset and seed, run in this warm process."""
    if op.command == "serve":
        from repro.serving import build_serving_gateway

        return build_serving_gateway(op.preset, seed=op.seed, warm_start=True).run().json(indent=2)
    if op.command == "jobs":
        from repro.experiments import run_jobs_experiment

        return run_jobs_experiment(op.preset, seed=op.seed, warm_start=True).json(indent=2)
    from repro.chaos import run_chaos_experiment

    return run_chaos_experiment(op.preset, seed=op.seed, warm_start=True).events_json(indent=2)


def check_cold(run: Run) -> None:
    """The first op of each command in the seed's deck, cold vs warm."""
    out_dir = OUT / "cold"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "report.json"
    chosen = {}
    for op in cold_deck(run.seed):
        chosen.setdefault(op.command, op)
    for op in chosen.values():
        run.untimed_op()
        if out.exists():
            out.unlink()
        proc = run_child([sys.executable, "-m", "repro", *op.argv(str(out))])
        if not run.check(proc.returncode == 0,
                         f"{op}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}"):
            continue
        if not run.check(out.exists(), f"{op}: wrote no report"):
            continue
        text = out.read_text()
        run.check(text == warm_text(op),
                  f"{op}: cold report differs from the warm in-process report")
        if op.command == "serve":
            body = json.loads(text)
            run.check(body["admitted"] + body["shed"] == body["offered"],
                      f"{op}: admitted + shed != offered")
            run.check(body["completed"] + body["unrecovered"] == body["admitted"],
                      f"{op}: completed + unrecovered != admitted")
