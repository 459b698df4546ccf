"""Property-based equivalence of the grid's all-pairs pass.

``SpatialGrid.pairs_within`` must report exactly the pairs a brute-force
scan finds, and exactly the union of the per-entity
``neighbor_indices_within`` queries — on co-located points, points on
cell boundaries, radii below the 0.1 m co-location clip, world-spanning
radii over pinned tiny cells, and worlds of zero or one entity.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.spatialindex import MIN_SEPARATION_M, SpatialGrid
from repro.env.world import World

WIDTH, HEIGHT = 120.0, 80.0

# Cell sizes: auto, pinned tiny (world-spanning radii then cover
# thousands of cells), and pinned coarse.
_cells = st.sampled_from((None, 0.5, 2.0, 7.5, 40.0))


@st.composite
def worlds(draw):
    """A world plus a cell size; coordinates mix free floats, exact cell
    boundaries of the pinned size and duplicates (co-located points)."""
    cell = draw(_cells)
    boundary = cell if cell is not None else 10.0
    free = st.tuples(st.floats(min_value=0.0, max_value=WIDTH),
                     st.floats(min_value=0.0, max_value=HEIGHT))
    on_edges = st.tuples(
        st.integers(0, int(WIDTH / boundary)).map(lambda k: k * boundary),
        st.integers(0, int(HEIGHT / boundary)).map(lambda k: k * boundary))
    points = draw(st.lists(st.one_of(free, on_edges), max_size=40))
    if points and draw(st.booleans()):
        points += draw(st.lists(st.sampled_from(points), max_size=5))
    world = World(WIDTH, HEIGHT)
    for i, xy in enumerate(points):
        world.place(f"e{i}", xy)
    return world, cell


def brute_force_pairs(world: World, radius: float):
    """Every pair ``i < j`` tested with the grid's own distance
    expression, one row at a time."""
    positions = world.positions()
    out = []
    for i in range(len(world)):
        delta = positions[i + 1:] - positions[i]
        dist = np.maximum(np.sqrt(np.einsum("ij,ij->i", delta, delta)),
                          MIN_SEPARATION_M)
        out.extend((i, i + 1 + int(j)) for j in np.flatnonzero(dist <= radius))
    return out


def union_of_queries(world: World, grid: SpatialGrid, radius: float):
    pairs = set()
    for i, name in enumerate(world.names()):
        for j in grid.neighbor_indices_within(name, radius):
            pairs.add((min(i, int(j)), max(i, int(j))))
    return sorted(pairs)


def _check(world: World, cell, radius: float) -> None:
    grid = SpatialGrid(world, cell_size=cell)
    first, second = grid.pairs_within(radius)
    assert first.dtype == second.dtype == np.intp
    got = list(zip(first.tolist(), second.tolist()))
    assert got == sorted(got)
    assert all(i < j for i, j in got)
    assert got == brute_force_pairs(world, radius)
    assert got == union_of_queries(world, grid, radius)


_radii = st.one_of(
    st.sampled_from((0.0, 0.05, MIN_SEPARATION_M, 0.5, 2.0, 7.5, 10.0,
                     40.0, 150.0, 1e6)),
    st.floats(min_value=0.0, max_value=200.0))


@given(worlds(), _radii)
@settings(max_examples=150, deadline=None)
def test_pairs_within_equals_brute_force_and_union(world_cell, radius):
    world, cell = world_cell
    _check(world, cell, radius)


@given(worlds(), st.data())
@settings(max_examples=100, deadline=None)
def test_pairs_at_exactly_the_radius_are_kept(world_cell, data):
    """A radius equal to one pair's distance keeps that pair (and any
    other pair at the same distance)."""
    world, cell = world_cell
    if len(world) < 2:
        return
    i = data.draw(st.integers(0, len(world) - 2))
    j = data.draw(st.integers(i + 1, len(world) - 1))
    delta = world.positions()[[j]] - world.positions()[i]
    radius = float(np.maximum(np.sqrt(np.einsum("ij,ij->i", delta, delta)),
                              MIN_SEPARATION_M)[0])
    _check(world, cell, radius)
    first, second = SpatialGrid(world, cell_size=cell).pairs_within(radius)
    assert (i, j) in set(zip(first.tolist(), second.tolist()))


@given(st.integers(0, 2**31 - 1), st.sampled_from((0.3, 1.0, 2.5)),
       st.floats(min_value=0.5, max_value=12.0))
@settings(max_examples=40, deadline=None)
def test_coarse_buckets_over_many_occupied_cells(seed, cell, radius):
    """Hundreds of occupied small cells and radii of up to 40 cells: the
    bucketed join (several cells per bucket) or, once the radius box
    covers the occupied cells, the dense pass."""
    rng = np.random.default_rng(seed)
    world = World(WIDTH, HEIGHT)
    for i in range(300):
        world.place(f"e{i}", (rng.uniform(0, WIDTH), rng.uniform(0, HEIGHT)))
    _check(world, cell, radius)


def test_bucket_pass_taken_when_the_box_is_small():
    """Radius of three 1 m cells over ~290 occupied cells: the bucketed
    join runs (no dense scan) and still matches the brute force."""
    rng = np.random.default_rng(3)
    world = World(WIDTH, HEIGHT)
    for i in range(300):
        world.place(f"e{i}", (rng.uniform(0, WIDTH), rng.uniform(0, HEIGHT)))
    grid = SpatialGrid(world, cell_size=1.0)
    first, second = grid.pairs_within(3.0)
    assert grid.stats()["full_scans"] == 0
    assert grid.stats()["queries"] == 1
    assert list(zip(first.tolist(), second.tolist())) == \
        brute_force_pairs(world, 3.0)
