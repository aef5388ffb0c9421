#!/usr/bin/env python3
"""Tiny-size smoke test of the service benchmark.

    python3 servbench/smoke_test.py [--binary B --lint L --root R]

Runs every workload at about 1,200 users and checks that each run passes
its correctness gate and emits exactly the metrics BENCHMARK.json names
(end-to-end with --trace=0, per-layer with --trace=1); that a tampered
replay digest fails the gate (exit 1, correct=false, every request counted
as failed); and that the benchmark's sources pass nela_lint. Without
--binary it builds the benchmark the way run.py does.
"""

import argparse
import json
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402

SMOKE_USERS = 1200


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(condition, message, failures):
    if not condition:
        failures.append(message)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary")
    parser.add_argument("--lint")
    parser.add_argument("--root", default=str(run.ROOT))
    args = parser.parse_args()
    root = pathlib.Path(args.root)
    binary = args.binary or run.build()
    if binary is None:
        return 1
    lint = args.lint or str(run.BUILD_DIR / "nela" / "tools" / "nela_lint" /
                            "nela_lint")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    work_dir = run.BUILD_DIR.parent / "servbench-smoke-work"

    failures = []

    def bench(workload, trace, *extra):
        command = [str(binary), f"--workload={workload}", "--seed=7",
                   "--seconds=0.2", f"--trace={trace}",
                   f"--users={SMOKE_USERS}", f"--work_dir={work_dir}",
                   *extra]
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        return done.returncode, last_json(done.stdout), done.stderr

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            code, result, stderr = bench(name, trace)
            where = f"{name} --trace={trace}"
            check(code == 0, f"{where}: exit {code}: {stderr}", failures)
            if result is None:
                failures.append(f"{where}: no JSON result")
                continue
            check(result["correct"] is True, f"{where}: gate failed",
                  failures)
            check(result["failed"] == 0, f"{where}: failed requests",
                  failures)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == expected[trace],
                  f"{where}: metrics differ from BENCHMARK.json: missing "
                  f"{sorted(set(expected[trace]) - set(emitted))}, extra "
                  f"{sorted(set(emitted) - set(expected[trace]))}", failures)

        code, result, _ = bench(name, 0, "--tamper_digest=true")
        where = f"{name} with a tampered digest"
        check(code == 1, f"{where}: exit {code}, want 1", failures)
        check(result is not None and result["correct"] is False
              and result["failed"] == result["attempted"],
              f"{where}: failure not counted", failures)

    linted = subprocess.run([lint, f"--root={root}", "servbench"],
                            capture_output=True, text=True, check=False)
    check(linted.returncode == 0, f"nela_lint: {linted.stdout}", failures)

    for failure in failures:
        print(f"FAIL {failure}")
    print("servbench smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
