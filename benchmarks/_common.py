"""Shared plumbing for the ``BENCH``-line benchmarks.

The serving benchmarks (``bench_service_throughput.py``,
``bench_cluster_scaling.py``) emit one machine-readable line per run:
``BENCH {json}``. This module is the single implementation of that
emission plus the best-of-N timing helper, so every benchmark reports
identically shaped output. It also holds the single-process engine
baseline that the scaling benchmarks (``bench_cluster_scaling.py``,
``bench_mesh_scaling.py``) compare their runtimes against.

Quantiles: ``repro.service.metrics`` is the single quantile
implementation in this repo — benchmarks that report latency
percentiles import ``percentile``/``summarize_reservoir`` from here
rather than rolling their own, so a BENCH line and a telemetry
snapshot can never disagree on interpolation.
"""

from __future__ import annotations

import json
import time

from repro.service import LoadConfig, LoadGenerator, RequestQueue
from repro.service.metrics import (  # noqa: F401  (re-exports)
    percentile,
    summarize_reservoir,
)

DEFAULT_REPEATS = 3


def best_of(fn, repeats: int = DEFAULT_REPEATS) -> float:
    """Best wall-clock seconds of ``repeats`` calls to ``fn``.

    Best-of (not mean) is the standard micro-benchmark estimator: system
    noise only ever adds time.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def emit_bench(payload: dict) -> None:
    """Print the one-line machine-readable benchmark record."""
    print("BENCH " + json.dumps(payload))


def build_stream(config: LoadConfig):
    """The region and timed event list one ``config`` generates."""
    region, events, _, _ = LoadGenerator(config).build_events()
    return region, events


def bench_engine(region, events, config: LoadConfig) -> dict:
    """Single-process baseline on the exact same event list.

    Built through the API's sharded backend (keyed seeding, same as the
    multi-process runs it is compared with) but timed on the raw engine,
    so the number stays pure routing + matching throughput without
    client-layer overhead.
    """
    from repro.api import make_backend

    backend = make_backend("sharded", LoadGenerator(config).service_spec(region))
    backend.open()
    try:
        engine = backend.engine
        start = time.perf_counter()
        engine.process(RequestQueue(events))
        wall = time.perf_counter() - start
        report = engine.report(wall_seconds=wall)
    finally:
        backend.close()
    return {
        "runtime": "engine",
        "tasks": report.tasks_total,
        "assigned": report.tasks_assigned,
        "wall_seconds": wall,
        "throughput_tasks_per_s": report.throughput_tasks_per_s,
    }
