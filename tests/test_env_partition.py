"""Partitioning a world into audibility-closed cells and shard packings.

Everything here must be a pure, order-stable function of the placement:
the sharded simulator relies on `stations_of_shard` producing the same
station lists in every process that computes them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.env.partition import _components, assign_cells, partition_world
from repro.env.spatialindex import SpatialGrid
from repro.env.world import World
from repro.kernel.errors import ConfigurationError


def clustered_world() -> World:
    """Three clusters far apart: {a0,a1,a2}, {b0,b1}, {c0}."""
    world = World(10_000.0, 100.0)
    for name, pos in [("a0", (0.0, 0.0)), ("a1", (30.0, 0.0)),
                      ("a2", (60.0, 0.0)),
                      ("b0", (5000.0, 0.0)), ("b1", (5040.0, 0.0)),
                      ("c0", (9000.0, 0.0))]:
        world.place(name, pos)
    return world


def test_components_follow_transitive_audibility():
    # a0-a1 and a1-a2 are within 50 m but a0-a2 is not: the closure
    # still puts all three in one cell.
    plan = partition_world(clustered_world(), 50.0)
    assert plan.cells == (("a0", "a1", "a2"), ("b0", "b1"), ("c0",))


def test_radius_changes_the_decomposition():
    # At 20 m nothing is mutually audible: six singleton cells.
    plan = partition_world(clustered_world(), 20.0)
    assert all(len(cell) == 1 for cell in plan.cells)
    assert len(plan.cells) == 6
    # At 10 km everything coalesces.
    plan = partition_world(clustered_world(), 10_000.0)
    assert len(plan.cells) == 1


def test_lpt_packing_balances_and_is_deterministic():
    plan = partition_world(clustered_world(), 50.0, shards=2)
    # LPT: the 3-cell goes to shard 0, the 2-cell and the singleton
    # pack onto shard 1.
    assert plan.shards == ((0,), (1, 2))
    assert plan.stations_of_shard(0) == ["a0", "a1", "a2"]
    assert plan.stations_of_shard(1) == ["b0", "b1", "c0"]
    again = partition_world(clustered_world(), 50.0, shards=2)
    assert again == plan


def test_cell_and_shard_maps_are_consistent():
    plan = partition_world(clustered_world(), 50.0, shards=2)
    assert plan.cell_of["a2"] == 0
    assert plan.cell_of["c0"] == 2
    assert plan.shard_of == {0: 0, 1: 1, 2: 1}
    summary = plan.summary()
    assert summary["cells"] == 3
    assert summary["shard_loads"] == [3, 3]
    assert summary["imbalance"] == 1.0


def test_more_shards_than_cells_leaves_empty_shards():
    plan = partition_world(clustered_world(), 10_000.0, shards=3)
    assert plan.shards == ((0,), (), ())
    assert plan.stations_of_shard(1) == []


def test_assign_cells_packs_precomputed_sizes():
    packed = assign_cells([["x"] * 5, ["y"] * 3, ["z"] * 3], 2)
    assert packed == ((0,), (1, 2))


@pytest.mark.parametrize("kwargs", [
    {"radius_m": 0.0}, {"radius_m": -1.0}, {"shards": 0},
])
def test_partition_rejects_bad_configuration(kwargs):
    args = {"radius_m": 50.0, "shards": 1}
    args.update(kwargs)
    with pytest.raises(ConfigurationError):
        partition_world(clustered_world(), args["radius_m"],
                        shards=args["shards"])


def test_partition_rejects_empty_world():
    with pytest.raises(ConfigurationError):
        partition_world(World(10.0, 10.0), 50.0)


def per_station_components(world: World, radius_m: float):
    """Reference: union-find over one grid range query per station, with
    edges arriving station by station (the partitioner's earlier form)."""
    names = world.names_view()
    parent = list(range(len(names)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    grid = SpatialGrid(world)
    for i, name in enumerate(names):
        for j in grid.neighbor_indices_within(name, radius_m):
            a, b = find(i), find(int(j))
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(len(names)):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


@pytest.mark.parametrize("seed", range(8))
def test_components_match_per_station_queries_on_random_worlds(seed):
    rng = np.random.default_rng(seed)
    world = World(float(rng.uniform(50, 3000)), float(rng.uniform(50, 3000)))
    count = int(rng.integers(1, 250))
    for i in range(count):
        world.place(f"s{i}", (rng.uniform(0, world.width),
                              rng.uniform(0, world.height)))
    if seed % 3 == 0:  # co-located stations
        for i in range(20):
            world.place(f"dup{i}", world.position_of(f"s{i % count}"))
    for radius in (0.05, 10.0, 60.0, 250.0, 10_000.0):
        assert _components(world, radius) == \
            per_station_components(world, radius)
