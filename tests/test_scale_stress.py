"""Scale stress: nothing degenerates on a large machine / big workload."""

from repro.core import ComputeNodeParams, Machine, MachineParams
from repro.presets import job_preset
from repro.shard import report_json, run_sharded_jobs
from repro.sim import Simulator


def test_eight_node_cluster_run():
    """The job mix on 8 nodes over 4 partitions: every task runs once."""
    report = run_sharded_jobs("mini", seed=0, num_nodes=8, partitions=4)
    per_mix = sum(s.layers * s.width for s in job_preset("mini").jobs)
    machines = [report["nodes"][n]["machine"] for n in report["nodes"]]
    assert len(machines) == 8
    per_node = [m["sw_calls"] + m["hw_calls"] for m in machines]
    # every node did real work, and no task was lost or double-counted
    assert per_node == [per_mix] * 8
    assert report["tasks"] == sum(per_node) == 8 * per_mix
    assert report["tasks_unrecovered"] == 0
    assert report["makespan_ns"] > 0


def test_large_machine_construction_fast():
    """A 512-worker machine builds and answers hierarchy queries."""
    machine = Machine(
        Simulator(),
        MachineParams(
            num_nodes=64,
            node=ComputeNodeParams(num_workers=8, intra_fanout=4),
            inter_node_fanouts=[4, 4, 4],
        ),
    )
    assert machine.total_workers == 512
    assert machine.max_hop_distance() >= 8
    r = machine.world.allreduce(4096)
    assert r.rounds == 6


def test_repeat_run_deterministic():
    """Two identical multi-node runs produce identical reports."""

    def run():
        return report_json(
            run_sharded_jobs("mini", seed=13, num_nodes=2, partitions=2)
        )

    assert run() == run()
