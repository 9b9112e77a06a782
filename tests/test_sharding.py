"""ShardMap routing: the scalar path answers exactly what the chunked one does.

``shard_of`` routes one point on Python floats and ``shard_of_many`` routes
an ``(n, 2)`` array with numpy; every routing caller (engine, ordering
keys, coordinators) relies on the two never disagreeing, including on cell
edges, where a one-ulp difference would pick the neighbouring shard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box
from repro.service.sharding import ShardMap

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
side = st.floats(min_value=1e-2, max_value=1e4, allow_nan=False, allow_infinity=False)
dims = st.sampled_from([(1, 1), (2, 2), (3, 5)])


@st.composite
def shard_maps(draw):
    x0, y0 = draw(coord), draw(coord)
    box = Box(x0, y0, x0 + draw(side), y0 + draw(side))
    smap = ShardMap(box, *draw(dims))
    if draw(st.booleans()):
        # a hot-split sub-lattice over one cell
        sid = draw(st.integers(0, smap.n_shards - 1))
        smap = smap.subdivide(sid, *draw(dims))
    return smap


def edge_points(smap: ShardMap) -> list[tuple[float, float]]:
    """Cell edges, midlines between adjacent centers, and region corners."""
    r = smap.region
    xs = [r.xmin + i * (r.width / smap.nx) for i in range(smap.nx + 1)]
    ys = [r.ymin + j * (r.height / smap.ny) for j in range(smap.ny + 1)]
    cx = np.unique(smap.centers[:, 0])
    cy = np.unique(smap.centers[:, 1])
    xs += [float(v) for v in (cx[:-1] + cx[1:]) / 2.0] + [float(v) for v in cx]
    ys += [float(v) for v in (cy[:-1] + cy[1:]) / 2.0] + [float(v) for v in cy]
    corners = [(r.xmin, r.ymin), (r.xmin, r.ymax), (r.xmax, r.ymin), (r.xmax, r.ymax)]
    return [(x, y) for x in xs for y in ys] + corners


def assert_agrees(smap: ShardMap, p) -> None:
    want = int(smap.shard_of_many(np.asarray([p], dtype=np.float64))[0])
    assert smap.shard_of(p) == want
    assert smap.shard_of(list(p)) == want
    assert smap.shard_of(np.asarray(p, dtype=np.float64)) == want


class TestScalarMatchesChunked:
    @settings(max_examples=200, deadline=None)
    @given(shard_maps(), st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    def test_random_points_inside_and_outside(self, smap, u, v):
        r = smap.region
        assert_agrees(smap, (r.xmin + u * r.width, r.ymin + v * r.height))

    @settings(max_examples=60, deadline=None)
    @given(shard_maps())
    def test_edges_midlines_and_corners(self, smap):
        for p in edge_points(smap):
            assert_agrees(smap, p)

    @pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2), (3, 5)])
    def test_paper_region_edges(self, nx, ny):
        smap = ShardMap(Box.square(200.0), nx, ny)
        for p in edge_points(smap):
            assert_agrees(smap, p)

    def test_returns_a_python_int(self):
        smap = ShardMap(Box.square(200.0), 2, 2)
        assert type(smap.shard_of((150.0, 150.0))) is int
        assert type(smap.shard_of(np.array([150, 150]))) is int

    def test_integer_and_numpy_scalar_coordinates(self):
        smap = ShardMap(Box.square(200.0), 3, 5)
        for p in [(10, 190), (np.float32(10.5), np.int64(190)), [199, 0]]:
            assert_agrees(smap, p)


class TestRoutingRejects:
    smap = ShardMap(Box.square(200.0), 2, 2)

    @pytest.mark.parametrize(
        "bad", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.0), np.array([np.nan, 0.0])]
    )
    def test_non_finite_coordinates(self, bad):
        with pytest.raises(ValueError):
            self.smap.shard_of(bad)
        with pytest.raises(ValueError):
            self.smap.shard_of_many([bad])

    @pytest.mark.parametrize(
        "bad",
        [(1.0, 2.0, 3.0), (1.0,), [[1.0, 2.0]], np.zeros((2, 1)), np.zeros((2, 2)),
         [[1.0], [2.0]], np.zeros(3)],
    )
    def test_wrong_shapes(self, bad):
        with pytest.raises(ValueError):
            self.smap.shard_of(bad)
