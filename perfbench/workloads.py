"""The benchmark's four workloads: their inputs, reference and output checks.

Every workload shares one service spec modeled on the paper's defaults
(``repro.experiments.config.Defaults``: ``grid_nx=32``, ``epsilon=0.6``)
on a 2x2 shard lattice with keyed shard seeds. Inputs come from
``repro.service.LoadGenerator`` and depend only on ``--seed``. The
reference for a seed is one replay on the in-process ``sharded``
backend; every timed round must reproduce its decisions exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.api import (
    AssignmentClient,
    RegisterWorker,
    SubmitTask,
    TaskDecision,
    make_backend,
    requests_from_events,
)
from repro.experiments.config import DEFAULTS
from repro.service import LoadConfig, LoadGenerator

SHARDS = (2, 2)
BUDGET_CAPACITY = 2.0
COHORT_BATCH = 256
WINDOW = 512
#: Mesh checkpoint cadence: with 8000 events a round this takes five
#: barriers (base, two deltas, a rebase, a delta), each compacting the
#: journal. One window in three carries a barrier, so the median
#: decision waits on none and the p99 on one.
MESH_CHECKPOINT_EVERY = 3 * WINDOW
MESH_REBASE_EVERY = 2
#: The Chengdu-like day every seed draws its taxi tasks from: the day's
#: hotspot jitter would otherwise add to the seed-to-seed spread.
TAXI_DAY = 0
#: Sizes are divided by this for the harness self-test.
SMALL_DIVISOR = 20


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "gaussian" (Table II model) or "taxi" (Chengdu-like day)
    n_workers: int
    n_tasks: int
    backend: str  # "local", "gateway" or "mesh"
    mode: str  # "stream" (AssignmentClient.stream) or "calls" (one call per event)
    window: int = WINDOW
    pipeline: int = 1
    #: pin the run, and the gateway process with it, to one CPU (see
    #: README, "Noise on this machine")
    one_cpu: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # paper defaults: |W| = 5000, |T| = 3000
        Workload("local-stream", "gaussian", DEFAULTS.n_workers, DEFAULTS.n_tasks,
                 "local", "stream", one_cpu=True),
        Workload("gateway-stream", "gaussian", DEFAULTS.n_workers, DEFAULTS.n_tasks,
                 "gateway", "stream", pipeline=2, one_cpu=True),
        # half the paper's 8000 real-data workers and a 1200-task prefix of
        # one shuffled day, so a synchronous round stays under 10 s; fewer
        # workers per task spread mean_true_distance twice as wide over seeds
        Workload("gateway-calls", "taxi", 4000, 1200, "gateway", "calls", one_cpu=True),
        Workload("mesh-checkpoint", "gaussian", DEFAULTS.n_workers, DEFAULTS.n_tasks,
                 "mesh", "stream"),
    )
}


@dataclass
class Plan:
    """One seed's inputs: the request stream plus the true coordinates."""

    workload: Workload
    spec: object  # repro.api.ServiceSpec
    requests: list
    workers: np.ndarray
    tasks: np.ndarray
    mesh_checkpoint_every: int = MESH_CHECKPOINT_EVERY

    @property
    def n_registrations(self) -> int:
        return sum(1 for r in self.requests if type(r) is RegisterWorker)

    @property
    def n_tasks(self) -> int:
        return sum(1 for r in self.requests if type(r) is SubmitTask)


def build_plan(workload: Workload, seed: int, *, small: bool = False) -> Plan:
    div = SMALL_DIVISOR if small else 1
    generator = LoadGenerator(
        LoadConfig(
            workload=workload.source,
            n_workers=max(1, workload.n_workers // div),
            n_tasks=max(1, workload.n_tasks // div),
            task_rate=400.0,
            shards=SHARDS,
            grid_nx=DEFAULTS.grid_nx,
            epsilon=DEFAULTS.epsilon,
            budget_capacity=BUDGET_CAPACITY,
            batch_size=COHORT_BATCH,
            taxi_day=TAXI_DAY,
            seed=seed,
        )
    )
    region, events, workers, tasks = generator.build_events()
    return Plan(
        workload=workload,
        spec=generator.service_spec(region),
        requests=list(requests_from_events(events)),
        workers=workers,
        tasks=tasks,
        mesh_checkpoint_every=MESH_CHECKPOINT_EVERY // div,
    )


def reference_decisions(plan: Plan) -> list[tuple[int, int | None]]:
    """Replay the plan once on the in-process sharded backend.

    Returns every ``(task, worker-or-None)`` decision in stream order and
    raises ``CheckFailed`` if the reference itself fails the ledger audit.
    """
    with AssignmentClient(make_backend("sharded", plan.spec)) as client:
        decisions = [
            (r.task_id, r.worker_id)
            for r in client.stream(plan.requests, window=WINDOW)
            if type(r) is TaskDecision
        ]
        client.flush()
        problems = check_ledger_totals(ledger_totals(client.backend.engine.shards), plan)
    if problems:
        raise CheckFailed("reference: " + "; ".join(problems))
    return decisions


class CheckFailed(Exception):
    """An output check failed; the benchmark exits non-zero."""


def check_decisions(reference, got, n_tasks: int) -> list[str]:
    """Problems with one round's decisions against the reference."""
    problems = []
    counts = Counter(t for t, _ in got)
    repeated = [t for t, c in counts.items() if c > 1]
    if repeated:
        problems.append(f"{len(repeated)} tasks answered more than once")
    if len(counts) != n_tasks:
        problems.append(f"{n_tasks - len(counts)} tasks never answered")
    if got != reference:
        first = next(
            (i for i, (a, b) in enumerate(zip(got, reference)) if a != b),
            min(len(got), len(reference)),
        )
        problems.append(
            f"decisions differ from the reference at #{first} "
            f"({got[first] if first < len(got) else None} vs "
            f"{reference[first] if first < len(reference) else None})"
        )
    return problems


def ledger_totals(shards) -> dict:
    """What the ledger audit needs from a set of live ``ShardServer``s."""
    return {
        "min_remaining": min(s.ledger.min_remaining() for s in shards),
        "total_spent": sum(s.ledger.total_spent() for s in shards),
        "principals": sum(s.ledger.principals for s in shards),
    }


def check_ledger_totals(totals: dict, plan: Plan) -> list[str]:
    """The ledger audit: nobody above budget_capacity, ε x registrations spent."""
    problems = []
    if totals["min_remaining"] < 0:
        problems.append("a worker spent above budget_capacity")
    want = plan.spec.epsilon * plan.n_registrations
    if not math.isclose(totals["total_spent"], want, rel_tol=1e-9):
        problems.append(f"eps spent {totals['total_spent']!r} != eps x registrations {want!r}")
    if totals["principals"] != plan.n_registrations:
        problems.append(
            f"{totals['principals']} ledger principals != {plan.n_registrations} registered"
        )
    return problems


def report_eps_spent(report) -> float:
    """Total epsilon spent, from a service report's per-shard ledger audit."""
    return sum(
        (s.budget_capacity - s.budget_mean_remaining) * s.workers_registered
        for s in report.shards
    )


def check_report(report, plan: Plan) -> list[str]:
    """The ledger audit through the backend's own report (any backend)."""
    problems = []
    if any(s.budget_min_remaining < -1e-12 for s in report.shards):
        problems.append("a worker spent above budget_capacity")
    if report.workers_registered != plan.n_registrations:
        problems.append(
            f"{report.workers_registered} workers registered, expected {plan.n_registrations}"
        )
    spent = report_eps_spent(report)
    want = plan.spec.epsilon * plan.n_registrations
    if not math.isclose(spent, want, rel_tol=1e-9):
        problems.append(f"eps spent {spent!r} != eps x registrations {want!r}")
    if report.tasks_total != plan.n_tasks:
        problems.append(f"report counts {report.tasks_total} tasks, sent {plan.n_tasks}")
    return problems


def mean_true_distance(plan: Plan, decisions) -> float:
    """Mean true worker-task distance over the assigned pairs."""
    pairs = [(t, w) for t, w in decisions if w is not None]
    if not pairs:
        return float("nan")
    t_idx = np.array([t for t, _ in pairs])
    w_idx = np.array([w for _, w in pairs])
    return float(np.hypot(*(plan.tasks[t_idx] - plan.workers[w_idx]).T).mean())
