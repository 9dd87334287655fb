"""Smoke self-test of the benchmark, in about half a minute.

    python3 perfbench/selftest.py

Runs every workload at reduced size, untraced and traced, and checks that
the last line is a correct result naming exactly the metrics BENCHMARK.json
lists, each with its unit, and that the report names all five end-to-end
metrics.  Then checks that the benchmark refuses to run in a directory that
holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RATIOS = ("failed_ratio", "replay_failed_ratio")
REPORTED = ("pass_ref_s", "wall_s", "setup_s", "peak_rss_mb") + RATIOS


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: not a correct result: {lines[-8:]}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        errors.append(f"{where}: metrics differ: missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        metric = got.get(name, {})
        if metric.get("unit") != unit or not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{where}: {name} printed as {metric}")
    report = "\n".join(lines[:-1])
    for name in RATIOS if trace else REPORTED:
        if f"  {name} " not in report:
            errors.append(f"{where}: report lacks {name}")
    return errors


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "gate-sweep", 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            return ["benchmark ran without ptflab sources"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = [f"BENCHMARK.json names unknown workload {w['name']}" for w in bench["workloads"] if w["name"] not in workloads.WORKLOADS]
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            errors += check_result(bench, workload, trace)
    errors += check_refuses_without_sources()
    for err in errors:
        print("FAIL", err)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
