"""Harness self-test: the benchmark at a twentieth of its size.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload ``run.py`` knows, including ``gateway-calls``, which
``BENCHMARK.json`` leaves out, it runs ``run.py --small`` timed and traced, and checks that the result line has exactly the contract's
keys, that every named metric is emitted with its unit and a finite
value, and that the trace file renders with ``python -m repro.obs
summarize``. It checks that the output check rejects a corrupted pair
list, and that the command fails, printing no result, in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files. Exits 1
on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 300


class SelfTestFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailed(message)


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    command = [*SPEC["command"], "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--small"]
    command[0] = sys.executable if command[0] == "python3" else command[0]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(workload: str, trace: int) -> None:
    proc = run_bench(workload, trace)
    where = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}")
    expect(result["correct"] is True, f"{where}: correct is {result['correct']}")
    expect(result["attempted"] >= 1 and result["failed"] == 0, f"{where}: {result}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expect(
        set(result["metrics"]) == {m["name"] for m in wanted},
        f"{where}: metric names {sorted(result['metrics'])}",
    )
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        expect(got["unit"] == metric["unit"], f"{where}: {metric['name']} unit {got['unit']}")
        expect(
            isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
            f"{where}: {metric['name']} value {got['value']!r}",
        )
    if trace:
        meta = json.loads(proc.stdout.strip().splitlines()[-2])
        summary = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summarize", meta["trace_file"]],
            cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        expect(
            summary.returncode == 0 and "per-stage latency" in summary.stdout,
            f"{where}: summarize failed\n{summary.stderr[-2000:]}",
        )
    print(f"ok  {where}: {len(wanted)} metrics")


def check_corruption() -> None:
    """The output check must reject a pair list that differs from the reference."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, build_plan, check_decisions, reference_decisions

    plan = build_plan(WORKLOADS["local-stream"], 3, small=True)
    reference = reference_decisions(plan)
    expect(not check_decisions(reference, list(reference), plan.n_tasks), "clean pairs rejected")
    i = next(k for k, (_, w) in enumerate(reference) if w is not None)
    task, worker = reference[i]
    corrupted = {
        "swapped worker": reference[:i] + [(task, worker + 1)] + reference[i + 1:],
        "dropped task": reference[:i] + reference[i + 1:],
        "repeated task": reference[: i + 1] + [reference[i]] + reference[i + 1:],
    }
    for what, pairs in corrupted.items():
        expect(check_decisions(reference, pairs, plan.n_tasks), f"{what} accepted")
    print(f"ok  output check rejects {', '.join(corrupted)}")


def check_bare_directory() -> None:
    """Without the program's sources the command must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        expect(proc.returncode != 0, "bare directory: exit 0")
        expect(
            not any(line.startswith('{"correct"') for line in proc.stdout.splitlines()),
            "bare directory: printed a result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory fails without a result")


def main() -> int:
    try:
        check_corruption()
        check_bare_directory()
        # every workload run.py knows, including any BENCHMARK.json leaves out
        from workloads import WORKLOADS

        for name in WORKLOADS:
            for trace in (0, 1):
                check_result(name, trace)
    except SelfTestFailed as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
