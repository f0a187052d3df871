"""Smoke test of the benchmark itself; not part of the repository's tests.

Runs every workload at minimal size, untraced and traced, and checks that
each run passes its output checks and emits exactly the metrics
``BENCHMARK.json`` names, with their units. Also checks that the benchmark
refuses to run where the program is missing. Run from the repository root:

    python3 perfbench/smoke.py

It takes about 80 seconds on a 2-CPU machine.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(root: Path, workload: str, trace: int) -> tuple[int, str]:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600, check=False)
    return res.returncode, res.stdout


def check_result(spec: dict, workload: str, trace: int, code: int, stdout: str) -> list:
    problems = []
    where = f"{workload} --trace {trace}"
    if code != 0:
        return [f"{where}: exit status {code}"]
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        value, unit = m.get("value"), m.get("unit")
        if name in wanted and unit != wanted[name]["unit"]:
            problems.append(f"{where}: {name} unit {unit!r}, expected {wanted[name]['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {value!r}, not positive")
    if trace and not problems:
        layers = sum(v["value"] for k, v in got.items() if k.endswith(".self_s"))
        total = layers + got["trace.harness_s"]["value"]
        if abs(total - got["trace.wall_s"]["value"]) > 1e-6:
            problems.append(f"{where}: self times sum to {total!r}, traced wall "
                            f"{got['trace.wall_s']['value']!r}")
    return problems


def check_refuses_without_program(root: Path) -> list:
    """With only BENCHMARK.json and the benchmark's files, exit non-zero
    without printing a result."""
    bare = root / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run(bare, "fit-tick", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"metrics"' in stdout:
        return [f"bare directory: exit status {code}, stdout {stdout[-200:]!r}"]
    return []


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = check_refuses_without_program(root)
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, stdout = run(root, w["name"], trace)
            found = check_result(spec, w["name"], trace, code, stdout)
            print(f"{w['name']} --trace {trace}: {'FAIL' if found else 'ok'}")
            problems += found
    for p in problems:
        print("  " + p)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
