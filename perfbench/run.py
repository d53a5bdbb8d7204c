#!/usr/bin/env python3
"""Run one workload of the BusSense end-to-end + per-layer benchmark.

    python3 perfbench/run.py --workload metropolis_day --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. On first use it configures and builds
perfbench/ (a CMake project over src/) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set. It then runs the workload and
re-prints the program's output, ending with the result line after checking
it against BENCHMARK.json: with --trace 0 the metrics must be exactly the
end_to_end set, with --trace 1 exactly the per_layer set, each with its
declared unit and a finite value.

Exit codes: 0 on success; the program's code when a self-check or
correctness check failed; 1 when the sources are missing, the build fails,
the program times out or the result line does not check out (no result line
is printed then); 2 on bad arguments.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("metropolis_day", "serving_read_write")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then brings the binary up to date."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def git_describe():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def check_result(result, expected):
    """Returns a list of problems with the result line (empty when fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"{name}: want unit {unit}, got {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r} is not a finite number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes (the smoke check)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    tier = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[tier]}

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root / "perfbench")
    out_dir = build_root / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir), "--git", git_describe()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.txt").write_text(
        proc.stdout)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit code {proc.returncode})")
    problems = check_result(result, expected)
    print("\n".join(lines[:-1]))
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if not result["correct"] or result["failed"]:
        fail("run reported failures")


if __name__ == "__main__":
    main()
