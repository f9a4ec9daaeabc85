"""Machine-level checks on a multi-node jobs run.

Each Compute Node runs its own Execution Engine inside the sharded
machine; these checks pin the per-node accounting of the merged report.
"""

import pytest

from repro.presets import job_preset
from repro.shard import run_sharded_jobs


def node_machines(report):
    nodes = report["nodes"]
    return [nodes[n]["machine"] for n in sorted(nodes, key=int)]


def mix_tasks(preset):
    return sum(s.layers * s.width for s in job_preset(preset).jobs)


@pytest.fixture(scope="module")
def report():
    return run_sharded_jobs("mini", seed=0, num_nodes=2, partitions=2)


class TestClusterEngine:
    def test_all_tasks_complete_across_nodes(self, report):
        machines = node_machines(report)
        assert len(machines) == report["num_nodes"] == 2
        for m in machines:
            assert m["tasks"] == mix_tasks("mini")
            assert m["sw_calls"] + m["hw_calls"] == m["tasks"]
        assert report["tasks"] == sum(m["tasks"] for m in machines)
        assert report["tasks_unrecovered"] == 0
        assert report["makespan_ns"] > 0

    def test_work_actually_spreads_over_nodes(self, report):
        per_node = [m["sw_calls"] + m["hw_calls"] for m in node_machines(report)]
        assert all(n > 0 for n in per_node)

    def test_daemon_accelerates_per_node(self, report):
        # the reconfiguration daemon loads hardware on every node
        assert all(m["hw_calls"] > 0 for m in node_machines(report))

    def test_energy_aggregates_nodes(self, report):
        machines = node_machines(report)
        assert report["energy_pj"] > 0
        assert report["energy_pj"] == sum(m["energy_pj"] for m in machines)
