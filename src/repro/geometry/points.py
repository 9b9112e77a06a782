"""Planar point sets and Euclidean distance helpers.

All public functions operate on ``float64`` arrays of shape ``(n, 2)``
(one row per point) or shape ``(2,)`` for a single point. :func:`as_points`
is the single validation/normalization entry point used across the library,
so every other module can assume well-formed input.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_point",
    "as_xy",
    "as_points",
    "euclidean",
    "distances_to",
    "pairwise_distances",
    "diameter",
    "total_pair_distance",
]


def as_point(p) -> np.ndarray:
    """Validate and return ``p`` as a float64 array of shape ``(2,)``."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape != (2,):
        raise ValueError(f"expected a single 2-D point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"point has non-finite coordinates: {arr}")
    return arr


_REAL = (float, int, np.floating, np.integer)


def as_xy(p) -> tuple[float, float]:
    """Validate a single 2-D point and return it as two Python floats.

    The scalar twin of :func:`as_point` for per-event paths: a pair of real
    scalars (a tuple, list or ``(2,)`` array) converts without building an
    array; anything else goes through :func:`as_point`, so the inputs it
    accepts and the ``ValueError`` it raises are the same.
    """
    try:
        x, y = p
    except (TypeError, ValueError):
        x = y = None
    if isinstance(x, _REAL) and isinstance(y, _REAL):
        x, y = float(x), float(y)
    else:
        x, y = as_point(p).tolist()
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point has non-finite coordinates: ({x}, {y})")
    return x, y


def as_points(points) -> np.ndarray:
    """Validate and return ``points`` as a float64 array of shape ``(n, 2)``.

    A single point of shape ``(2,)`` is promoted to shape ``(1, 2)``.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape == (2,):
            arr = arr.reshape(1, 2)
        elif arr.size == 0:
            arr = arr.reshape(0, 2)
        else:
            raise ValueError(f"expected (n, 2) points, got shape {arr.shape}")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("point set contains non-finite coordinates")
    return arr


def euclidean(a, b) -> float:
    """Euclidean distance between two points."""
    return float(np.hypot(*(as_point(a) - as_point(b))))


def distances_to(points, q) -> np.ndarray:
    """Vector of Euclidean distances from every row of ``points`` to ``q``."""
    pts = as_points(points)
    diff = pts - as_point(q)
    return np.hypot(diff[:, 0], diff[:, 1])


def pairwise_distances(points) -> np.ndarray:
    """Dense ``(n, n)`` Euclidean distance matrix.

    Intended for the *predefined* point set of an HST (hundreds to a few
    thousand points), not for full workloads.
    """
    pts = as_points(points)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def diameter(points) -> float:
    """Maximum pairwise distance of the point set (0.0 for n < 2).

    Computed exactly via the convex hull observation: the diameter of a
    finite planar set is attained between hull vertices. Falls back to the
    brute-force matrix for tiny or degenerate (collinear) sets.
    """
    pts = as_points(points)
    n = len(pts)
    if n < 2:
        return 0.0
    if n > 64:
        try:
            from scipy.spatial import ConvexHull

            hull = pts[ConvexHull(pts).vertices]
            return float(pairwise_distances(hull).max())
        except Exception:  # degenerate input (collinear points): brute force
            pass
    return float(pairwise_distances(pts).max())


def total_pair_distance(left, right) -> float:
    """Sum of row-wise Euclidean distances between two aligned point sets.

    This is the paper's ``total distance`` objective evaluated on matched
    (task, worker) coordinate pairs.
    """
    a = as_points(left)
    b = as_points(right)
    if a.shape != b.shape:
        raise ValueError(f"mismatched pair sets: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.hypot(diff[:, 0], diff[:, 1]).sum())
