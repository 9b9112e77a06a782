"""Spatial sharding of the service region.

A production deployment cannot serve a whole metro area from one HST: tree
construction is quadratic in the predefined point count and a single
matcher trie is a serialization point. The engine therefore partitions the
region into an ``nx x ny`` lattice of shard cells; each shard publishes its
own HST over its own predefined points and runs its own matcher, so shards
scale independently and a request only ever touches one of them.

Routing reuses the geometry layer: the shard centers are exactly
:func:`~repro.geometry.grid.uniform_grid` over the region, and a
:class:`~repro.geometry.grid.SnapIndex` over those centers maps any
coordinate to its owning cell (nearest-center == containing-cell for a
uniform lattice, with clamping handling on-boundary and out-of-region
points).

Privacy note: the shard id leaks only which cell a user is in, and the
cells are public knowledge — the same granularity coarsening as snapping
to a predefined point, which the paper's model already accepts. Within a
shard, reports stay ε-Geo-Indistinguishable on the shard's tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.box import Box
from ..geometry.grid import SnapIndex, uniform_grid
from ..geometry.points import as_points, as_xy

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """Partition of a service region into an ``nx x ny`` lattice of shards.

    Shard ids are row-major (y outer, x inner), matching the ordering of
    :func:`~repro.geometry.grid.uniform_grid`. :meth:`shard_of` routes one
    point on Python floats because, in the online model, every arrival is
    routed on its own, and a one-row numpy round trip costs about 20x the
    lattice arithmetic underneath.
    """

    region: Box
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"need at least a 1x1 shard grid, got {self.nx}x{self.ny}")
        # built eagerly: the map is immutable and routed from many threads
        centers = uniform_grid(self.region, self.nx, self.ny)
        object.__setattr__(self, "centers", centers)  # (n_shards, 2) routing anchors
        object.__setattr__(self, "_router", SnapIndex(centers))

    @property
    def n_shards(self) -> int:
        return self.nx * self.ny

    def shard_box(self, shard_id: int) -> Box:
        """The cell of ``shard_id`` as a :class:`Box`."""
        if not 0 <= shard_id < self.n_shards:
            raise IndexError(f"shard {shard_id} outside [0, {self.n_shards})")
        ix = shard_id % self.nx
        iy = shard_id // self.nx
        w = self.region.width / self.nx
        h = self.region.height / self.ny
        return Box(
            self.region.xmin + ix * w,
            self.region.ymin + iy * h,
            self.region.xmin + (ix + 1) * w,
            self.region.ymin + (iy + 1) * h,
        )

    def subdivide(self, shard_id: int, nx: int, ny: int | None = None) -> "ShardMap":
        """A finer ``nx x ny`` sub-lattice over one cell of this map.

        The incremental-routing hook behind hot-shard splitting
        (:mod:`repro.cluster.balancer`): the returned map tiles exactly
        ``shard_box(shard_id)``, so a router can delegate any location that
        falls in the hot cell to the sub-lattice while every other cell
        keeps its existing routing.
        """
        return ShardMap(self.shard_box(shard_id), nx, nx if ny is None else ny)

    def shard_of(self, location) -> int:
        """Shard id owning ``location`` (out-of-region snaps to the edge)."""
        x, y = as_xy(location)
        r = self.region
        return self._router.snap(
            (min(max(x, r.xmin), r.xmax), min(max(y, r.ymin), r.ymax))
        )

    def shard_of_many(self, locations) -> np.ndarray:
        """Vectorized routing: shard id per row of an ``(n, 2)`` array."""
        pts = self.region.clamp(as_points(locations))
        if len(pts) == 0:
            return np.empty(0, dtype=np.intp)
        return self._router.snap_many(pts)
