"""Shared fixtures: the paper's worked example tree and small random trees,
plus a guard that fails any test leaking a thread or a child process."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.geometry import Box, uniform_grid
from repro.hst import HST, build_hst

#: How long a test's threads and child processes get to finish after it.
LEAK_GRACE_S = 1.0


def _live_children() -> set[int]:
    """Pids of this process's children that have not exited.

    Covers ``multiprocessing`` workers and ``subprocess`` children alike;
    exited but unreaped children (zombies) do not count.
    """
    if not os.path.isdir("/proc"):
        return {p.pid for p in multiprocessing.active_children()}
    me = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # the fields after the parenthesised command name: state, ppid, ...
        state, ppid = stat.rpartition(")")[2].split()[:2]
        if int(ppid) == me and state != "Z":
            found.add(int(entry))
    return found


@pytest.fixture(autouse=True)
def no_leaked_threads_or_children():
    """Fail a test that leaves a new thread or child process alive.

    Whatever a test starts must be gone within :data:`LEAK_GRACE_S` of
    its end: no thread or process outlives the ``close()`` that owns it.
    """
    threads = set(threading.enumerate())
    children = _live_children()
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        new_threads = [
            t for t in threading.enumerate() if t not in threads and t.is_alive()
        ]
        new_children = sorted(_live_children() - children)
        if not (new_threads or new_children) or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    assert not new_threads, f"test leaked threads: {new_threads}"
    assert not new_children, f"test leaked child processes: {new_children}"


#: The point set of the paper's Example 1 (Fig. 2).
EXAMPLE1_POINTS = [(1.0, 1.0), (2.0, 3.0), (5.0, 3.0), (4.0, 4.0)]


@pytest.fixture(scope="session")
def example1_tree() -> HST:
    """The deterministic Example 1 HST: beta = 1/2, identity permutation."""
    return build_hst(EXAMPLE1_POINTS, beta=0.5, permutation=[0, 1, 2, 3])


@pytest.fixture(scope="session")
def small_grid_tree() -> HST:
    """A 6x6-grid tree over a 100x100 region (36 real leaves)."""
    return build_hst(uniform_grid(Box.square(100.0), 6), seed=7)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_point_set(
    n: int, seed: int, side: float = 64.0
) -> np.ndarray:
    """``n`` distinct random lattice points in a ``side x side`` square.

    Lattice coordinates guarantee distinctness and a minimum distance of 1,
    so no metric rescaling kicks in unless a test wants it.
    """
    rng = np.random.default_rng(seed)
    cells = int(side)
    chosen = rng.choice(cells * cells, size=n, replace=False)
    xs, ys = np.divmod(chosen, cells)
    return np.column_stack([xs, ys]).astype(np.float64)


def random_tree(n: int = 12, seed: int = 0) -> HST:
    """A small random HST for property-style tests."""
    return build_hst(random_point_set(n, seed), seed=seed + 1)
