"""The repo benchmark: one named workload, one seed, timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload local-stream --seed 1 --seconds 30 --trace 0

A run replays the workload's request stream in rounds until ``--seconds``
have passed (at least ``MIN_ROUNDS``). Each round opens a fresh backend
(timed as ``setup_s``), serves the whole stream from one client in a
closed loop, flushes, and closes it (``teardown_s``). Every round's
decisions must equal the seed's reference replay on the in-process
``sharded`` backend, and the ledger audit must hold; a failed check makes
the run exit 1. ``--trace 0`` prints the end-to-end metrics. ``--trace 1``
spends half its time untraced and half with the layer wrappers and the
program's own spans on; it prints the per-layer metrics and writes the
spans of its first traced round to ``.perfbench/trace-<workload>.jsonl``.

The last line of stdout is the result object; the line before it is a
metadata record (git sha, versions, load average, machine-speed probe).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1


def _load_program() -> None:
    """Put the repository's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def serve(client, plan):
    """One closed-loop pass over the plan; the serving wall clock covers
    the first request to the end of the final flush."""
    from repro.api import SubmitTask, TaskDecision

    wl = plan.workload
    decisions, latencies = [], []
    answered = 0
    perf = time.perf_counter
    if wl.mode == "stream":
        sent = {}

        def feed():
            for request in plan.requests:
                if type(request) is SubmitTask:
                    sent[request.task_id] = perf()
                yield request

        start = perf()
        for response in client.stream(feed(), window=wl.window, pipeline=wl.pipeline):
            answered += 1
            if type(response) is TaskDecision:
                latencies.append(perf() - sent[response.task_id])
                decisions.append((response.task_id, response.worker_id))
    else:
        start = perf()
        for request in plan.requests:
            t = perf()
            response = client.call(request)
            answered += 1
            if type(request) is SubmitTask:
                latencies.append(perf() - t)
                decisions.append((response.task_id, response.worker_id))
    client.flush()
    wall = perf() - start
    return decisions, latencies, wall, answered


class Runner:
    """Runs rounds of one plan and keeps their measurements."""

    def __init__(self, plan, reference) -> None:
        from drivers import DRIVERS

        self.plan = plan
        self.reference = reference
        self.driver_cls = DRIVERS[plan.workload.backend]
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def round(self, tracer=None, trace_path=None) -> dict | None:
        from host import cpu_seconds, peak_rss_mib
        from workloads import check_decisions, check_ledger_totals, check_report

        plan = self.plan
        driver = self.driver_cls(plan, tracer, trace_path)
        attempted = len(plan.requests) + 1  # the stream plus the final flush
        self.attempted += attempted
        t = time.perf_counter()
        try:
            driver.open()
            setup = time.perf_counter() - t
            pids = driver.pids()
            cpu0 = cpu_seconds(pids)
            w0 = time.time()
            decisions, latencies, wall, answered = serve(driver.client, plan)
            w1 = time.time()
            cpu = cpu_seconds(pids) - cpu0
            rss = peak_rss_mib(pids)
            report = driver.client.report()
            counters = driver.counters()
            problems = driver.audit()
        except Exception as exc:
            self.failed += attempted
            self.problems.append(f"round failed: {type(exc).__name__}: {exc}")
            driver.abort()
            return None
        t = time.perf_counter()
        try:
            driver.close()
        except Exception as exc:
            problems.append(f"teardown failed: {type(exc).__name__}: {exc}")
        teardown = time.perf_counter() - t
        if answered != len(plan.requests):
            problems.append(f"{answered} responses to {len(plan.requests)} requests")
        problems += check_decisions(self.reference, decisions, plan.n_tasks)
        problems += check_report(report, plan)
        child = getattr(driver, "child", {})
        if child:
            problems += check_ledger_totals(child["ledger"], plan)
        self.problems += problems
        result = {
            "setup_s": setup,
            "teardown_s": teardown,
            "wall_s": wall,
            "window": (w0, w1),
            "tasks": len(decisions),
            "assigned": sum(1 for _, w in decisions if w is not None),
            "latencies": latencies,
            "cpu_s": cpu,
            "rss_mib": rss,
            "report": report,
            "decisions": decisions,
            "counters": counters,
            "child": child,
        }
        self.rounds.append(result)
        return result

    def run_for(self, seconds: float, min_rounds: int, **kwargs) -> list[dict]:
        done = []
        start = time.perf_counter()
        while len(done) < min_rounds or time.perf_counter() - start < seconds:
            result = self.round(**kwargs)
            if result is None:
                break
            done.append(result)
        return done


def round_mean(values) -> float:
    """The mean over rounds without the highest and the lowest round.

    The host's speed changes in phases of seconds, between a fast and a
    slow state about 1.6x apart. A median over rounds jumps from one state
    to the other as the share of fast rounds crosses one half; a mean
    moves in proportion to that share. Dropping the two extremes keeps
    one stalled round from moving it. With three or four rounds this is
    the median.
    """
    values = sorted(values)
    if len(values) >= 3:
        values = values[1:-1]
    return statistics.fmean(values)


def _tps(rounds) -> float:
    return round_mean(r["tasks"] / r["wall_s"] for r in rounds)


def end_to_end(plan, rounds) -> tuple[dict, dict]:
    """The end-to-end metrics over a run's rounds, plus sample counts."""
    import numpy as np

    from workloads import mean_true_distance

    # percentiles per round, then round_mean over rounds: one slow
    # window (a collection pause, a noisy neighbour) moves one round's
    # tail, not the run's
    per_round = [np.array(r["latencies"]) * 1e3 for r in rounds]
    p50s = [float(np.percentile(ms, 50)) for ms in per_round]
    p99s = [float(np.percentile(ms, 99)) for ms in per_round]
    first = rounds[0]
    values = {
        "tasks_per_s": (_tps(rounds), "tasks/s"),
        "decide_p50_ms": (round_mean(p50s), "ms"),
        "decide_p99_ms": (round_mean(p99s), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "teardown_s": (round_mean(r["teardown_s"] for r in rounds), "s"),
        "cpu_us_per_task": (
            round_mean(r["cpu_s"] / r["tasks"] for r in rounds) * 1e6,
            "us/task",
        ),
        "peak_rss_mb": (statistics.median(r["rss_mib"] for r in rounds), "MiB"),
        "mean_true_distance": (mean_true_distance(plan, first["decisions"]), "units"),
        "assigned_ratio": (first["assigned"] / plan.n_tasks, "ratio"),
    }
    samples = {
        # the program's own latency figure, which times only the match
        # inside a shard, kept beside decide_p50_ms to show the gap
        "service_report_latency_p50_ms": statistics.median(
            r["report"].latency_p50_ms for r in rounds
        ),
        "rounds": len(rounds),
        "decide_samples_per_round": min(ms.size for ms in per_round),
        "decide_samples_above_p99_per_round": min(
            int((ms > p99).sum()) for ms, p99 in zip(per_round, p99s)
        ),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, samples


#: Why some layers have no samples on a workload even though it runs
#: them: the mesh peers are separate processes the benchmark cannot
#: wrap, and they report only their worker-execute spans.
IN_MESH_PEERS = (
    "hst.build_s", "geometry.snap_us", "privacy.obfuscate_us", "privacy.rows_per_call",
    "privacy.ledger_us", "crowdsourcing.match_us", "matching.level_mean",
    "service.cohort_self_us", "service.shard_submit_self_us", "service.engine_self_us",
)


def traced_run(runner, seconds: float) -> tuple[dict, dict]:
    """Half the time untraced, half traced: per-layer metrics + JSONL."""
    import layers
    from repro.obs.summary import load_spans
    from workloads import report_eps_spent

    plan = runner.plan
    events, tasks = len(plan.requests), plan.n_tasks
    tally = layers.LayerTally()
    untraced = runner.run_for(seconds / 2, MIN_ROUNDS - 1)
    for r in untraced:
        absorb_counters(tally, plan, r)

    tracer = layers.make_tracer("perfbench")
    uninstall = layers.install(tracer)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{plan.workload.name}.jsonl"
    child_file = OUT / f"child-{os.getpid()}.jsonl"
    traced = []
    start = time.perf_counter()
    try:
        while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() - start < seconds / 2:
            child_path = str(child_file) if plan.workload.backend == "gateway" else None
            r = runner.round(tracer=tracer, trace_path=child_path)
            spans = tracer.sink.records
            tracer.sink.records = []
            if child_path is not None and child_file.exists():
                spans = spans + load_spans(child_file)
                child_file.unlink()
            if r is None:
                break
            if not traced:
                layers.write_jsonl(spans, trace_file)
            tally.absorb_spans(spans, r["window"], tasks=tasks, events=events)
            tally.add("eps_spent", report_eps_spent(r["report"]))
            traced.append(r)
    finally:
        uninstall()
    if untraced and traced:
        tally.add("trace_overhead", _tps(traced) / _tps(untraced))
    info = {
        "trace_file": str(trace_file.relative_to(ROOT)),
        "untraced_rounds": len(untraced),
        "traced_rounds": len(traced),
        "no_samples": tally.no_samples(),
    }
    if plan.workload.backend == "mesh":
        info["runs_in_mesh_peers"] = list(IN_MESH_PEERS)
    return tally.metrics(), info


def absorb_counters(tally, plan, r) -> None:
    """Counters the program keeps itself, read after an untraced round."""
    tasks = r["tasks"]
    stats = r["child"].get("stats")
    if stats is not None:
        tally.add("bytes", r["counters"]["bytes"], tasks)
        tally.add("frames", stats["frames"], tasks)
        tally.add("errors", stats["errors"])
    telemetry = r["counters"]
    if "peers" in telemetry:
        depths = [p["dispatch_depth"]["p50"] for p in telemetry["peers"].values()]
        tally.add("dispatch_depth", statistics.median(depths))
        tally.add("checkpoints", telemetry["checkpoint_seconds"]["count"])
        if telemetry["checkpoint_seconds"]["count"]:
            tally.add("checkpoint_s", telemetry["checkpoint_seconds"]["p50"])
            tally.add("snapshot_kib", telemetry["snapshot_bytes"]["p50"] / 1024.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="a twentieth of the inputs (harness self-test)"
    )
    args = parser.parse_args(argv)
    try:
        _load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    from host import host_ticks, quietest_cpu, run_metadata, steal_share
    from workloads import WORKLOADS, CheckFailed, build_plan, reference_decisions

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cpus = os.sched_getaffinity(0)
    if workload.one_cpu:
        cpus = {quietest_cpu(cpus)}
        os.sched_setaffinity(0, cpus)
    ticks = host_ticks()
    meta = run_metadata(ROOT, args.seed)
    meta["cpus"] = sorted(cpus)
    meta["workload"] = args.workload
    meta["trace"] = args.trace
    plan = build_plan(workload, args.seed, small=args.small)
    try:
        reference = reference_decisions(plan)
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    runner = Runner(plan, reference)
    if args.trace:
        metrics, info = traced_run(runner, args.seconds)
    else:
        rounds = runner.run_for(args.seconds, MIN_ROUNDS)
        metrics, info = end_to_end(plan, rounds) if rounds else ({}, {})
    meta.update(info)
    meta["loadavg_after"] = list(os.getloadavg())
    meta["steal_share"] = steal_share(ticks)
    meta["problems"] = runner.problems
    correct = not runner.problems and bool(runner.rounds)
    print(json.dumps({"record": "meta", **meta}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    for problem in runner.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
