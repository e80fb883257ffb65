"""Self-test of the benchmark harness on seconds-long stand-in workloads.

Usage: python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both trace settings, runs
``run.py --tiny`` and checks the result line: exactly the four keys, every
named metric emitted once with its unit, all output checks passed.  Then
checks that the harness refuses to report from a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits non-zero on the first
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} trace {trace}: keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise SystemExit(f"{workload} trace {trace}: checks failed: {result}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise SystemExit(f"{workload} trace {trace}: metrics {got} != {wanted}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        raise SystemExit(f"{workload} trace {trace}: non-numeric metric value")
    print(f"ok {workload} trace {trace}: {len(got)} metrics, "
          f"{result['attempted']} processes")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit("bare directory: the harness reported a result")
    print("ok bare directory: refused without a result")


def main() -> int:
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(workload["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
