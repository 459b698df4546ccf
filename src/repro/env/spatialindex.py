"""Uniform-grid spatial index over :class:`~repro.env.world.World` positions.

The paper leaves device density as the open question ("the effect of a high
concentration of these devices needs to be studied"), and studying it means
simulating rooms with hundreds or thousands of stations.  Every per-frame
question the radio medium asks — *who can hear this transmission?* — is a
range query, and answering it by scanning the whole population makes the
medium O(stations) per frame.  :class:`SpatialGrid` turns that into a query
over the handful of grid cells a radius actually covers, so per-frame cost
tracks *neighbours*, not population.

Design points (documented in ``docs/performance.md``):

* **Lazy rebuild keyed on** :attr:`World.epoch`.  The grid never observes a
  stale world: every query first compares the world's topology epoch and
  rebuilds the whole index when it moved.  A rebuild is one vectorised
  NumPy pass (sort by linearised cell id), so mobile scenarios pay one
  O(n log n) rebuild per mobility step — never per query.
* **Cell size** defaults to a density heuristic (a few entities per cell)
  and can be pinned for workloads that know their query radius; the classic
  choice is one query radius per cell.
* **Queries are conservative and exact**: candidate cells are taken from
  the bounding box of the radius, then filtered by true Euclidean distance
  (min-clipped to 0.1 m exactly like
  :meth:`World.distances_from <repro.env.world.World.distances_from>`), so
  the result set is identical to the brute-force scan — just cheaper.
  Results come back in world insertion order, which callers rely on for
  deterministic iteration.
* **One pass for every pair**: :meth:`SpatialGrid.pairs_within` answers
  "which entities are within ``radius`` of each other?" for the whole
  population at once — the union of every per-entity query — so a
  consumer that needs all neighbourhoods of one topology epoch (the
  medium's audibility table, the shard partitioner) pays a handful of
  vectorised passes instead of one query per entity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

import numpy as np

from ..kernel.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (world -> grid)
    from .world import World

#: Minimum separation enforced by distance queries, metres (matches World).
MIN_SEPARATION_M: float = 0.1

#: Target average entities per cell when the cell size is auto-derived.
_TARGET_PER_CELL: float = 2.0

#: Relative slack on ``radius / cell`` when :meth:`SpatialGrid.pairs_within`
#: sizes its buckets: it absorbs the rounding of ``x / cell`` in the cell
#: coordinates, so a pair exactly ``radius`` apart is never split across
#: buckets that the pass does not compare.
_REACH_SLACK: float = 1e-9

#: Most candidate pairs the dense pass materialises at once (rows are taken
#: in blocks, so its temporaries stay at tens of MB for any population).
_DENSE_BLOCK_PAIRS: int = 1 << 20

#: Bucket offsets that visit every unordered pair of neighbouring buckets
#: once: the bucket itself, then half of its eight neighbours.
_HALF_NEIGHBOURHOOD: Tuple[Tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``,
    in one vectorised pass."""
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    return (np.arange(total, dtype=np.intp)
            + np.repeat(starts - offsets, counts))


def _within(positions: np.ndarray, first: np.ndarray, second: np.ndarray,
            radius: float) -> np.ndarray:
    """Mask of the pairs ``(first[k], second[k])`` within ``radius``.

    The same expression as :meth:`SpatialGrid.neighbor_indices_within`
    (and symmetric in the pair, since only squares of the differences
    enter), so a pair passes here exactly when each end finds the other.
    """
    delta = positions[second] - positions[first]
    dist = np.maximum(
        np.sqrt(np.einsum("ij,ij->i", delta, delta)), MIN_SEPARATION_M)
    return dist <= radius


class SpatialGrid:
    """Uniform bucket grid over world positions, rebuilt lazily per epoch.

    Args:
        world: the world to index (positions are read on rebuild).
        cell_size: cell edge in metres; ``None`` auto-sizes from density
            (roughly :data:`_TARGET_PER_CELL` entities per cell).
    """

    __slots__ = ("world", "cell_size", "_auto_cell", "_epoch", "_cell_m",
                 "_cells", "_coords", "rebuilds", "queries", "full_scans")

    def __init__(self, world: "World", cell_size: Optional[float] = None) -> None:
        if cell_size is not None and cell_size <= 0:
            raise ConfigurationError(f"cell_size must be positive, got {cell_size}")
        self.world = world
        self.cell_size = cell_size
        self._auto_cell = cell_size is None
        self._epoch: int = -1  # force a build on first query
        self._cell_m: float = 1.0
        #: (cx, cy) -> array of entity indices in that cell (ascending).
        self._cells: Dict[Tuple[int, int], np.ndarray] = {}
        #: ``(n, 2)`` cell coordinates of every entity, in insertion order.
        self._coords = np.empty((0, 2), dtype=np.intp)
        self.rebuilds = 0
        self.queries = 0
        self.full_scans = 0

    # ------------------------------------------------------------------
    def _auto_cell_size(self, count: int) -> float:
        """Cell edge targeting ~:data:`_TARGET_PER_CELL` entities per cell."""
        world = self.world
        if count <= 1:
            return max(world.width, world.height)
        area = world.width * world.height
        cell = float(np.sqrt(area * _TARGET_PER_CELL / count))
        # Never finer than the co-location clip, never coarser than the world.
        return float(np.clip(cell, MIN_SEPARATION_M,
                             max(world.width, world.height)))

    def _rebuild(self) -> None:
        world = self.world
        positions = world.positions()
        count = positions.shape[0]
        self._cell_m = (self._auto_cell_size(count) if self._auto_cell
                        else float(self.cell_size))
        cells: Dict[Tuple[int, int], np.ndarray] = {}
        coords = np.floor(positions / self._cell_m).astype(np.intp)
        if count:
            # Linearise, stable-sort once, then slice per unique cell: one
            # vectorised pass instead of a Python append per entity.
            span = int(coords[:, 1].max()) + 1 if count else 1
            linear = coords[:, 0] * span + coords[:, 1]
            order = np.argsort(linear, kind="stable")
            sorted_linear = linear[order]
            boundaries = np.flatnonzero(
                np.diff(sorted_linear, prepend=sorted_linear[0] - 1))
            for start, stop in zip(boundaries,
                                   list(boundaries[1:]) + [count]):
                idx = order[start:stop]
                cx, cy = coords[idx[0]]
                cells[(int(cx), int(cy))] = np.sort(idx)
        self._cells = cells
        self._coords = coords
        self._epoch = world.epoch
        self.rebuilds += 1

    def _ensure_current(self) -> None:
        if self._epoch != self.world.epoch:
            self._rebuild()

    # ------------------------------------------------------------------
    def neighbor_indices_within(self, name: str, radius: float) -> np.ndarray:
        """Indices of entities within ``radius`` metres of ``name``.

        Excludes the entity itself; distances are min-clipped to
        :data:`MIN_SEPARATION_M` (so co-located entities only match when
        ``radius >= 0.1``).  Returned ascending, i.e. insertion order.
        """
        self._ensure_current()
        self.queries += 1
        world = self.world
        me = world.index_of(name)
        positions = world.positions()
        origin = positions[me]
        cell = self._cell_m
        lo_x = int(np.floor((origin[0] - radius) / cell))
        hi_x = int(np.floor((origin[0] + radius) / cell))
        lo_y = int(np.floor((origin[1] - radius) / cell))
        hi_y = int(np.floor((origin[1] + radius) / cell))
        box_cells = (hi_x - lo_x + 1) * (hi_y - lo_y + 1)
        if box_cells >= len(self._cells):
            # The radius covers (nearly) the whole world: gathering cells
            # would touch everything anyway, so scan the position array in
            # one vectorised pass.
            self.full_scans += 1
            candidates = None
            pts = positions
        else:
            cells = self._cells
            chunks = []
            for cx in range(lo_x, hi_x + 1):
                for cy in range(lo_y, hi_y + 1):
                    bucket = cells.get((cx, cy))
                    if bucket is not None:
                        chunks.append(bucket)
            if not chunks:
                return np.empty(0, dtype=np.intp)
            candidates = np.concatenate(chunks)
            pts = positions[candidates]
        delta = pts - origin
        dist = np.maximum(
            np.sqrt(np.einsum("ij,ij->i", delta, delta)), MIN_SEPARATION_M)
        mask = dist <= radius
        hits = np.flatnonzero(mask) if candidates is None else candidates[mask]
        hits = hits[hits != me]
        hits.sort()
        return hits

    def pairs_within(self, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Every pair of entities within ``radius`` metres of each other.

        Returns index arrays ``(first, second)`` with ``first < second``,
        sorted by ``(first, second)``: exactly the pairs the per-entity
        :meth:`neighbor_indices_within` queries would report, each once.
        Counts as one query.

        Entities are bucketed into squares of whole grid cells at least
        ``radius`` wide, so any pair within the radius sits in the same or
        adjacent buckets, and five vectorised bucket-offset joins
        enumerate the candidates.  When the radius box covers (nearly)
        every occupied cell, the joins would touch everything anyway and
        one dense pass over all pairs runs instead (counted in
        ``full_scans``), so a world-spanning radius over small cells
        never loops over cell offsets.
        """
        self._ensure_current()
        self.queries += 1
        positions = self.world.positions()
        count = positions.shape[0]
        reach = radius * (1.0 + _REACH_SLACK) / self._cell_m
        box = 2.0 * reach + 3.0  # cells per side of the radius box
        if not box * box < len(self._cells):  # also catches inf and NaN
            self.full_scans += 1
            return self._dense_pairs(positions, radius)
        buckets = self._coords // (int(reach) + 1)
        height = int(buckets[:, 1].max()) + 3  # room for row offsets -1..1
        keys = buckets[:, 0] * height + buckets[:, 1] + 1
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        slots = np.arange(count, dtype=np.intp)
        firsts, seconds = [], []
        for dx, dy in _HALF_NEIGHBOURHOOD:
            target = sorted_keys + (dx * height + dy)
            stop = np.searchsorted(sorted_keys, target, "right")
            if dx == 0 and dy == 0:
                start = slots + 1  # own bucket: later members only
            else:
                start = np.searchsorted(sorted_keys, target, "left")
            counts = stop - start
            a = np.repeat(order, counts)
            b = order[_ranges(start, counts)]
            keep = _within(positions, a, b, radius)
            a, b = a[keep], b[keep]
            firsts.append(np.minimum(a, b))
            seconds.append(np.maximum(a, b))
        first = np.concatenate(firsts)
        second = np.concatenate(seconds)
        ranked = np.argsort(first * count + second, kind="stable")
        return first[ranked], second[ranked]

    @staticmethod
    def _dense_pairs(positions: np.ndarray,
                     radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`pairs_within` by testing all pairs, in row blocks."""
        count = positions.shape[0]
        rows_per_block = max(1, _DENSE_BLOCK_PAIRS // max(count, 1))
        firsts = [np.empty(0, dtype=np.intp)]
        seconds = [np.empty(0, dtype=np.intp)]
        for lo in range(0, count - 1, rows_per_block):
            rows = np.arange(lo, min(lo + rows_per_block, count - 1),
                             dtype=np.intp)
            counts = count - 1 - rows
            a = np.repeat(rows, counts)
            b = _ranges(rows + 1, counts)
            keep = _within(positions, a, b, radius)
            firsts.append(a[keep])
            seconds.append(b[keep])
        return np.concatenate(firsts), np.concatenate(seconds)

    def neighbors_within(self, name: str, radius: float) -> List[str]:
        """Names of entities within ``radius`` of ``name`` (insertion order).

        Byte-for-byte equivalent to
        :meth:`World.within <repro.env.world.World.within>`'s brute-force
        scan — the grid only changes how candidates are enumerated.
        """
        names = self.world.names_view()
        return [names[i] for i in self.neighbor_indices_within(name, radius)]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for benchmarks and the medium's culling probe."""
        return {
            "rebuilds": self.rebuilds,
            "queries": self.queries,
            "full_scans": self.full_scans,
            "cells": len(self._cells),
            "cell_m": self._cell_m,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SpatialGrid cells={len(self._cells)} cell={self._cell_m:.1f}m "
                f"rebuilds={self.rebuilds}>")
