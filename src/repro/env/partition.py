"""Partition a :class:`~repro.env.world.World` into radio cells.

The conceptual model scopes interactions physically: a station can only
affect stations inside its audible radius, so the *transitive closure*
of the audibility relation decomposes the world into cells that never
exchange a single frame.  :func:`partition_world` computes those cells
(union-find over one :meth:`~repro.env.spatialindex.SpatialGrid.pairs_within`
pass) and :func:`assign_cells` packs them onto a fixed number of
shards for :class:`repro.kernel.shard.ShardedSimulator`.

Everything here is deterministic and order-stable: cells are labelled by
their lowest world index, members listed in world (placement) order, and
the shard packing is longest-processing-time with index tie-breaks — the
same inputs always produce the same plan, in any process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..kernel.errors import ConfigurationError
from .spatialindex import SpatialGrid
from .world import World


@dataclass(frozen=True)
class PartitionPlan:
    """Audibility-closed cells of one world, plus their shard packing.

    ``cells[i]`` holds the station names of cell ``i`` in world placement
    order; cells are ordered by their lowest member index.  ``shard_of``
    maps a cell index to its shard, and ``shards[s]`` lists the cell
    indices packed onto shard ``s`` (ascending).
    """

    radius_m: float
    cells: Tuple[Tuple[str, ...], ...]
    shards: Tuple[Tuple[int, ...], ...]

    @property
    def cell_of(self) -> Dict[str, int]:
        return {name: i for i, cell in enumerate(self.cells)
                for name in cell}

    @property
    def shard_of(self) -> Dict[int, int]:
        return {cell: s for s, cells in enumerate(self.shards)
                for cell in cells}

    def stations_of_shard(self, shard: int) -> List[str]:
        """All station names on ``shard``, in world placement order."""
        world_order: List[str] = []
        for cell in self.shards[shard]:
            world_order.extend(self.cells[cell])
        return world_order

    def summary(self) -> Dict[str, object]:
        sizes = [len(cell) for cell in self.cells]
        loads = [sum(len(self.cells[c]) for c in cells)
                 for cells in self.shards]
        return {
            "radius_m": self.radius_m,
            "cells": len(self.cells),
            "cell_sizes": sizes,
            "shards": len(self.shards),
            "shard_loads": loads,
            "imbalance": (max(loads) / (sum(loads) / len(loads))
                          if loads and sum(loads) else 1.0),
        }


def _components(world: World, radius_m: float) -> List[List[int]]:
    """Connected components of the audibility graph, as index lists.

    Union-find over the grid's all-pairs pass.  The radius is the
    *conservative* audible radius (clamped shadowing + fade margin, see
    ``WirelessMedium.max_audible_radius_m``), so two stations in
    different components provably never hear each other.  Union by lower
    root keeps every root the minimal index of its component, whatever
    order the edges arrive in.
    """
    n = len(world)
    parent = list(range(n))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:          # path compression
            parent[i], i = root, parent[i]
        return root

    first, second = SpatialGrid(world).pairs_within(radius_m)
    for i, j in zip(first.tolist(), second.tolist()):
        a, b = find(i), find(j)
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
    groups: Dict[int, List[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # Roots are minimal member indices, so sorting roots orders cells by
    # first placement; members are already ascending.
    return [groups[root] for root in sorted(groups)]


def _pack(sizes: Sequence[int], shards: int) -> List[List[int]]:
    """LPT bin packing: largest cell first onto the least-loaded shard.

    Ties break on lowest cell index (order) and lowest shard id (target),
    so the packing is a pure function of the size list.
    """
    order = sorted(range(len(sizes)), key=lambda c: (-sizes[c], c))
    loads = [0] * shards
    out: List[List[int]] = [[] for _ in range(shards)]
    for cell in order:
        target = min(range(shards), key=lambda s: (loads[s], s))
        out[target].append(cell)
        loads[target] += sizes[cell]
    for cells in out:
        cells.sort()
    return out


def partition_world(world: World, radius_m: float, *,
                    shards: int = 1) -> PartitionPlan:
    """Cells (audibility-closed components at ``radius_m``) + packing.

    Raises :class:`ConfigurationError` on a non-positive radius or shard
    count, or when the world is empty — an empty plan is always a
    configuration mistake, never a useful run.
    """
    if radius_m <= 0:
        raise ConfigurationError(
            f"audible radius must be positive, got {radius_m!r}")
    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards!r}")
    if len(world) == 0:
        raise ConfigurationError("cannot partition an empty world")
    names = world.names_view()
    cells = tuple(tuple(names[i] for i in component)
                  for component in _components(world, radius_m))
    packed = tuple(tuple(cells_of) for cells_of in
                   _pack([len(cell) for cell in cells], shards))
    return PartitionPlan(radius_m=float(radius_m), cells=cells,
                         shards=packed)


def assign_cells(cells: Sequence[Sequence[str]],
                 shards: int) -> Tuple[Tuple[int, ...], ...]:
    """Pack pre-computed cells onto ``shards`` shards (LPT, deterministic)."""
    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards!r}")
    return tuple(tuple(cells_of) for cells_of in
                 _pack([len(cell) for cell in cells], shards))
