"""Fast self-test of the benchmark: every workload at its tiny size, traced
and untraced, with the printed metrics held against BENCHMARK.json.

    python3 perfbench/selftest.py

Also checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes; prints each failure otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_output(proc: subprocess.CompletedProcess, table: list[dict], label: str) -> list[str]:
    errors = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{label}: attempted {result['attempted']!r}")
    if result["failed"] != 0:
        errors.append(f"{label}: failed {result['failed']!r}")

    want = [m["name"] for m in table]
    if list(result["metrics"]) != want:
        errors.append(f"{label}: metric names differ: {sorted(set(result['metrics']) ^ set(want))}")
    printed = {}
    for line in lines:
        if line.startswith("# metric "):
            name, _value, unit, better = line.split()[2:]
            printed[name] = (unit, better)
    for m in table:
        name = m["name"]
        got = result["metrics"].get(name)
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            errors.append(f"{label}: {name} printed as {got}, unit should be {m['unit']}")
        if not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            errors.append(f"{label}: {name} value {got['value']!r} is not a finite number")
        if printed.get(name) != (m["unit"], m["better"]):
            errors.append(f"{label}: {name} listed as {printed.get(name)}, BENCHMARK.json says {m['unit']} {m['better']}")
    return errors


def check_fails_without_program(bench: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for rel in bench["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for wl in bench["workloads"]:
        for trace, table in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{wl['name']} trace={trace}"
            proc = run(["--workload", wl["name"], "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"], ROOT)
            errs = check_output(proc, table, label)
            print(f"{'FAIL' if errs else 'ok'}   {label}")
            errors += errs
    errs = check_fails_without_program(bench)
    print(f"{'FAIL' if errs else 'ok'}   bare directory fails")
    errors += errs
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
