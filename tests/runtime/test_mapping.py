"""Tests for task placement on the mesh."""

import pytest

from repro.runtime.mapping import (
    Placement,
    TaskGraph,
    greedy_place,
    linear_place,
)


def chain_graph(n=4, weight=10.0) -> TaskGraph:
    tasks = tuple(f"t{i}" for i in range(n))
    edges = {(f"t{i}", f"t{i+1}"): weight for i in range(n - 1)}
    return TaskGraph(tasks, edges)


class TestTaskGraph:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph(("a", "a"))

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph(("a",), {("a", "b"): 1.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph(("a", "b"), {("a", "b"): -1.0})


class TestPlacement:
    def test_unplaced_task_rejected(self):
        g = chain_graph(2)
        with pytest.raises(ValueError):
            Placement(g, {"t0": (0, 0)}, 4, 4)

    def test_shared_core_rejected(self):
        g = chain_graph(2)
        with pytest.raises(ValueError):
            Placement(g, {"t0": (0, 0), "t1": (0, 0)}, 4, 4)

    def test_off_mesh_rejected(self):
        g = chain_graph(2)
        with pytest.raises(ValueError):
            Placement(g, {"t0": (0, 0), "t1": (4, 0)}, 4, 4)

    def test_core_id_row_major(self):
        g = chain_graph(2)
        p = Placement(g, {"t0": (1, 2), "t1": (0, 0)}, 4, 4)
        assert p.core_id("t0") == 6
        assert p.core_id("t1") == 0

    def test_weighted_hops(self):
        g = chain_graph(3, weight=5.0)
        p = Placement(
            g, {"t0": (0, 0), "t1": (0, 1), "t2": (0, 3)}, 4, 4
        )
        assert p.weighted_hops() == 5 * 1 + 5 * 2

    def test_max_link_load_convergence(self):
        """Flows converging on one node load its incoming link."""
        g = TaskGraph(
            ("a", "b", "sink"),
            {("a", "sink"): 10.0, ("b", "sink"): 10.0},
        )
        p = Placement(
            g, {"a": (0, 0), "b": (0, 2), "sink": (0, 1)}, 4, 4
        )
        assert p.max_link_load() == 10.0
        # Same flows forced through a shared link.
        p2 = Placement(
            g, {"a": (0, 0), "b": (0, 1), "sink": (0, 2)}, 4, 4
        )
        assert p2.max_link_load() == 20.0


class TestLinearPlace:
    def test_row_major_order(self):
        g = chain_graph(6)
        p = linear_place(g, 4, 4)
        assert p.coords["t0"] == (0, 0)
        assert p.coords["t4"] == (1, 0)

    def test_too_many_tasks(self):
        g = chain_graph(17)
        with pytest.raises(ValueError):
            linear_place(g, 4, 4)


class TestGreedyPlace:
    def test_never_worse_than_linear(self):
        g = chain_graph(8, weight=3.0)
        lin = linear_place(g, 4, 4)
        opt = greedy_place(g, 4, 4)
        assert opt.weighted_hops() <= lin.weighted_hops()

    def test_chain_becomes_adjacent(self):
        """A 4-task chain can always be placed with all-adjacent hops."""
        g = chain_graph(4)
        opt = greedy_place(g, 4, 4)
        assert opt.weighted_hops() == pytest.approx(3 * 10.0)

    def test_deterministic(self):
        g = chain_graph(8)
        a = greedy_place(g, 4, 4)
        b = greedy_place(g, 4, 4)
        assert a.coords == b.coords

    def test_improves_star_graph(self):
        """A hub with many spokes pulls the hub to the centre."""
        tasks = tuple(["hub"] + [f"s{i}" for i in range(8)])
        edges = {(f"s{i}", "hub"): 1.0 for i in range(8)}
        g = TaskGraph(tasks, edges)
        lin = linear_place(g, 4, 4)
        opt = greedy_place(g, 4, 4)
        assert opt.weighted_hops() < lin.weighted_hops()
