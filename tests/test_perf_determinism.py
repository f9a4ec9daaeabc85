"""The perf sweep's behavior-preservation contract.

Every optimization in the wall-clock sweep (event batching, hot-path
caches, the telemetry fast path, the single-step event loop) must leave
seed-deterministic reports byte-identical.  These tests pin that down:

- canonical ServingReport JSON is identical with telemetry on vs off and
  with the compiled-suite cache hot vs cold, for both the ``steady`` and
  ``flash-crowd`` presets,
- canonical MachineReport JSON (the ``mini`` job mix) is identical hot
  vs cold,
- the engine-level mechanisms themselves (O(1) ``pending``, heap
  compaction, batched resource holds, pre-bound emitters) behave as
  specified,
- the bench harness emits the documented schema and its regression gate
  trips only on real slowdowns.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.presets as presets
from repro import perf
from repro.core import ComputeNode
from repro.core.runtime import ExecutionEngine, JobManager
from repro.apps import make_layered_dag
from repro.serving import run_serving_experiment
from repro.serving.gateway import ServingGateway
from repro.sim import Resource, Simulator, Timeout, spawn
from repro.telemetry import NullTelemetry, Telemetry, attach_simulator


def _clear_suite_cache():
    presets._SUITE_CACHE.clear()


# ----------------------------------------------------------------------
# engine mechanisms
# ----------------------------------------------------------------------
class TestPendingAndCompaction:
    def test_pending_tracks_schedule_fire_cancel(self):
        sim = Simulator()
        assert sim.pending == 0
        events = [sim.schedule(float(i), lambda: None) for i in range(10)]
        assert sim.pending == 10
        events[3].cancel()
        events[7].cancel()
        assert sim.pending == 8
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 8

    def test_cancel_is_idempotent_for_the_counter(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending == 0

    def test_compaction_prunes_cancelled_backlog(self):
        sim = Simulator()
        keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(4)]
        for i in range(500):
            sim.schedule(1.0 + i, lambda: None).cancel()
        # the heap must have shed the cancelled bulk, not grown to 504
        assert sim.pending == 4
        assert len(sim._queue) < 500
        sim.run()
        assert sim.events_processed == len(keep)

    def test_run_until_with_cancellations(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(2.0, fired.append, "b").cancel()
        sim.run(until=3.0)
        assert fired == ["a"]
        assert sim.pending == 1


class TestUseBatch:
    def _elapsed(self, cores, holds):
        sim = Simulator()
        res = Resource(sim, capacity=cores)
        out = {}

        def driver():
            start = sim.now
            yield from res.use_batch(holds)
            out["elapsed"] = sim.now - start

        spawn(sim, driver())
        sim.run()
        return out["elapsed"]

    def test_batch_runs_holds_concurrently(self):
        assert self._elapsed(4, [100.0] * 4) == pytest.approx(100.0)

    def test_batch_bounded_by_capacity(self):
        # 8 equal holds on 2 cores: 4 sequential waves
        assert self._elapsed(2, [50.0] * 8) == pytest.approx(200.0)

    def test_batch_matches_per_process_timing(self):
        holds = [30.0, 70.0, 20.0, 90.0, 10.0, 40.0]

        def per_process(cores):
            sim = Simulator()
            res = Resource(sim, capacity=cores)

            def one(h):
                yield from res.use(h)

            for h in holds:
                spawn(sim, one(h))
            sim.run()
            return sim.now

        for cores in (1, 2, 3):
            assert self._elapsed(cores, holds) == pytest.approx(
                per_process(cores)
            ), f"divergence at capacity {cores}"

    def test_empty_batch_is_free(self):
        assert self._elapsed(2, []) == 0.0

    def test_batch_is_cheaper_in_events(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def driver():
            yield from res.use_batch([10.0] * 16)

        spawn(sim, driver())
        sim.run()
        batched = sim.events_processed

        sim2 = Simulator()
        res2 = Resource(sim2, capacity=2)

        def one(h):
            yield from res2.use(h)

        for _ in range(16):
            spawn(sim2, one(10.0))
        sim2.run()
        assert batched < sim2.events_processed


class TestEmitters:
    def test_emitter_appends_structured_events(self):
        sim = Simulator()
        hub = Telemetry(sim)
        emit = hub.emitter("serve.admit", "node.gateway")
        sim.schedule(5.0, lambda: None)
        sim.run()
        emit(tenant="a", queued=3)
        assert len(hub.events) == 1
        ev = list(hub.events)[-1]
        assert (ev.kind, ev.component) == ("serve.admit", "node.gateway")
        assert ev.ts == 5.0
        assert ev.attrs == {"tenant": "a", "queued": 3}
        assert hub.events.emitted == 1

    def test_null_emitter_is_a_shared_noop(self):
        null = NullTelemetry()
        emit = null.emitter("k", "c")
        assert emit(any_kw=1) is None
        assert emit is null.emitter("other", "site")


# ----------------------------------------------------------------------
# byte-identical reports
# ----------------------------------------------------------------------
def _serving_json(preset, telemetry=None):
    if telemetry is None:
        return run_serving_experiment(preset, seed=0).json(indent=2)
    # run_serving_experiment builds its own Simulator, so the
    # telemetry-on variant mirrors its body around an external hub
    scenario = presets.serving_preset(preset)
    registry, library = presets.compiled_suite(max_variants=2)
    sim = Simulator()
    hub = Telemetry(sim)
    attach_simulator(hub, sim)
    node = ComputeNode(sim, presets.node_preset(scenario.node))
    engine = ExecutionEngine(
        node, registry, library, use_daemon=False, telemetry=hub
    )
    gateway = ServingGateway(
        engine, scenario, seed=0, scenario_name=preset, telemetry=hub
    )
    report = gateway.run()
    assert len(hub.events) > 0, "telemetry-on run emitted nothing"
    return report.json(indent=2)


@pytest.mark.parametrize("preset", ["steady", "flash-crowd"])
class TestServingReportBytes:
    def test_identical_with_caches_cold_vs_hot(self, preset):
        _clear_suite_cache()
        cold = _serving_json(preset)
        assert presets._SUITE_CACHE  # the run populated it
        hot = _serving_json(preset)
        assert cold == hot

    def test_identical_with_telemetry_on_vs_off(self, preset):
        dark = _serving_json(preset)
        lit = _serving_json(preset, telemetry=True)
        assert dark == lit


class TestMachineReportBytes:
    def _jobs_json(self):
        mix = presets.job_preset("mini")
        registry, library = presets.compiled_suite(max_variants=1)
        sim = Simulator()
        node = ComputeNode(sim, presets.node_preset(mix.node))
        engine = ExecutionEngine(
            node, registry, library, use_daemon=True,
            daemon_period_ns=100_000.0,
        )
        manager = JobManager(engine)
        for spec in mix.jobs:
            graph = make_layered_dag(
                layers=spec.layers, width=spec.width, num_workers=len(node),
                functions=("saxpy", "stencil5", "montecarlo"),
                seed=spec.graph_seed,
            )
            manager.submit_job(
                graph, policy=spec.policy, priority=spec.priority,
                dataflow=spec.dataflow,
            )
        return manager.run().json(indent=2)

    def test_identical_with_caches_cold_vs_hot(self):
        _clear_suite_cache()
        cold = self._jobs_json()
        hot = self._jobs_json()
        assert cold == hot
        json.loads(cold)  # stays valid canonical JSON


# ----------------------------------------------------------------------
# bench harness
# ----------------------------------------------------------------------
class TestBenchHarness:
    def test_payload_schema(self):
        payload = perf.run_benchmarks(quick=True, only=["sim.engine"])
        assert payload["schema"] == perf.SCHEMA
        assert payload["quick"] is True
        entry = payload["benchmarks"]["sim.engine"]
        assert set(entry) == {
            "wall_seconds", "events_processed", "events_per_sec"
        }
        assert entry["wall_seconds"] > 0
        assert entry["events_processed"] == 20_000
        json.loads(perf.to_json(payload))

    def test_unknown_benchmark_is_an_error(self):
        with pytest.raises(KeyError):
            perf.run_benchmarks(quick=True, only=["no.such.bench"])

    def _payload(self, wall):
        return {
            "schema": perf.SCHEMA,
            "quick": True,
            "benchmarks": {"b": {
                "wall_seconds": wall, "events_processed": 1,
                "events_per_sec": 1.0,
            }},
        }

    def test_compare_flags_real_regressions(self):
        failures = perf.compare(self._payload(2.0), self._payload(1.0))
        assert len(failures) == 1 and "b:" in failures[0]

    def test_compare_tolerates_threshold_and_noise(self):
        base = self._payload(1.0)
        assert perf.compare(self._payload(1.2), base) == []   # under 30%
        tiny = perf.compare(
            self._payload(0.05), self._payload(0.01)
        )
        assert tiny == []                                     # noise floor

    def test_compare_ignores_disjoint_benchmarks(self):
        base = self._payload(1.0)
        cur = {"schema": perf.SCHEMA, "quick": True,
               "benchmarks": {"other": {"wall_seconds": 9.0,
                                        "events_processed": 1,
                                        "events_per_sec": 1.0}}}
        assert perf.compare(cur, base) == []


# ----------------------------------------------------------------------
# reports must not depend on the interpreter's hash salt
# ----------------------------------------------------------------------
def test_serve_report_independent_of_hash_seed(tmp_path):
    """Two processes with different ``PYTHONHASHSEED`` write the same
    report: nothing on the simulated path may seed from ``hash(str)``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for hash_seed in ("0", "103"):
        out = tmp_path / f"serve-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--preset", "flash-crowd",
             "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
