"""The repository benchmark: one workload per invocation, from one process.

    python3 perfbench/run.py --workload serve-mix --seed 3 --seconds 10 --trace 0

Run from the repository root.  Workloads, metric names, units and bounds
live in ``BENCHMARK.json``; ``perfbench/README.md`` says what each
workload measures and why.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Everything else (sample counts, workload-specific
numbers, the sim digest, host facts, failures) is printed above it and
written to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

T_START = time.perf_counter()

from harness import (  # noqa: E402  (T_START must precede every import)
    OUT, ROOT, SRC, Run, end_to_end, host_facts, import_breakdown, median,
    paired_ratio, run_child, self_peak_rss_kb,
)

WORKLOADS = {
    "serve-mix": "wl_serve",
    "machine-build": "wl_machine",
    "daemon-session": "wl_daemon",
}

#: fresh processes that repeat a warm workload's set-up, for the setup_s
#: median (the run's own set-up is one more sample)
SETUP_PROBES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the workload's set-up, print its time, exit")
    return p.parse_args(argv)


def probe_setups(args) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = run_child([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", "0", "--setup-only"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-800:]}")
        samples.append(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])
    return samples


def layer_values(run: Run, names) -> dict:
    """Every per-layer metric; a layer this workload never calls reads 0."""
    values = dict(run.layer)
    traced = run.phase_latencies[True]
    if traced:
        ops = len(traced)
        for layer, seconds in run.spans.self_times().items():
            values[f"{layer}.self_ms"] = seconds * 1e3 / ops
        # traced over untraced latency, paired on the same inputs
        ratio = paired_ratio(run.keyed[True], run.keyed[False])
        if ratio is not None:
            values["bench.trace_overhead_ratio"] = ratio
    return {name: values.get(name, 0) for name in names}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = __import__(WORKLOADS[args.workload])

    run = Run(args.seed, args.seconds, bool(args.trace))
    state = module.setup(run)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    if getattr(module, "PROBED_SETUP", False):
        run.setup_samples = [own_setup] + probe_setups(args)
    module.measure(run, state)
    if not run.peak_rss_kb:
        run.peak_rss_kb = self_peak_rss_kb()
    if args.trace:
        import_breakdown(run, module.IMPORTS)

    e2e = end_to_end(run)
    names = [m["name"] for m in config["per_layer"]]
    units = {m["name"]: m["unit"] for m in config["per_layer"]}
    layers = layer_values(run, names) if args.trace else {}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_facts(),
        "sim_digest": run.digest.hexdigest(), "sim_reports": run.digest_items,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in layers.items()},
        "ops": {label: {"n": len(lat), "p50_ms": median(lat) * 1e3}
                for label, lat in sorted(run.latencies.items())},
        "setup_samples_s": run.setup_samples,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2))
    if args.trace:
        run.spans.write(OUT / "spans" / f"{stem}.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"host {result['host']}")
    print(f"sim_digest {result['sim_digest']} over {run.digest_items} reports")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<28s} {value:>14.6g} {unit:<6s} n={n}")
    for name, value in layers.items():
        print(f"  {name:<28s} {value:>14.6g} {units[name]}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")

    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    metrics = {}
    for m in wanted:
        value = layers[m["name"]] if args.trace else e2e[m["name"]][0]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
