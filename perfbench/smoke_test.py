#!/usr/bin/env python3
"""Smoke check of the benchmark: a reduced-size run of every workload in
BENCHMARK.json, untraced and traced, must exit 0, print every BENCHMARK.json
metric of its mode with its unit, and pass every self-check and correctness
check.

    python3 perfbench/smoke_test.py

Takes about a minute once the binary is built (run.py builds it first).
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tier = "per_layer" if trace else "end_to_end"
            expected = {m["name"]: m["unit"] for m in spec[tier]}
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().split("\n")
            label = f"{workload} trace={trace}"
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                result = None
                problems.append("no result line")
            if result is not None:
                if not result["correct"] or result["failed"]:
                    problems.append(f"correct={result['correct']} failed={result['failed']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected:
                    problems.append(f"metrics/units differ from BENCHMARK.json {tier}")
                for name, unit in expected.items():
                    if not any(l.startswith(f"metric {name} = ") and f" {unit} (n=" in l
                               for l in lines):
                        problems.append(f"no metric line for {name} [{unit}]")
            if not any(l.startswith("checks: ") and l.endswith(" 0 failed") for l in lines):
                problems.append("self-checks did not all pass")
            if trace and not any(l.startswith("per-layer self time") for l in lines):
                problems.append("no per-layer table")
            print(f"{'FAIL' if problems else 'ok  '} {label}")
            failures += [f"{label}: {p}" for p in problems]
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
