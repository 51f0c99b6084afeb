#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the repository root:

    python3 xtbench/selftest.py

It checks, with tiny runs (a few seconds each):
  * every workload runs, exits 0 and reports every end_to_end metric of
    BENCHMARK.json with its unit (latency_p99_ms may instead be flagged as
    too short: a tiny run has too few samples beyond the 99th percentile);
  * the traced run reports every per_layer metric with its unit;
  * a deliberately wrong expected digest makes the command fail: exit code
    non-zero and a result with "correct": false;
  * a thread count above the hardware thread count is refused without a
    result.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
failures = []


def run(workload, seconds, trace, *extra):
    command = [sys.executable, os.path.join("xtbench", "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_metrics(label, result, wanted, output, may_be_short=()):
    metrics = result["metrics"] if result else {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = metrics.get(name)
        if got is None and name in may_be_short:
            expect(f"TOO SHORT: {name}" in output, f"{label}: {name} flagged too short")
            continue
        expect(got is not None and got.get("unit") == unit and isinstance(
            got.get("value"), (int, float)), f"{label}: {name} [{unit}]")
    extra = set(metrics) - {m["name"] for m in wanted}
    expect(not extra, f"{label}: no unlisted metrics {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for w in bench["workloads"]:
        code, result, output = run(w["name"], 2, 0)
        expect(code == 0 and result is not None and result["correct"] is True
               and result["failed"] == 0 and result["attempted"] >= 1,
               f"{w['name']}: exit 0, correct, nothing failed")
        check_metrics(w["name"], result, bench["end_to_end"], output,
                      may_be_short=("latency_p99_ms",))

    code, result, output = run(bench["workloads"][0]["name"], 4, 1)
    expect(code == 0 and result is not None and result["correct"] is True,
           "traced run: exit 0, correct (recomposed pipeline matches the Analyzer)")
    check_metrics("traced run", result, bench["per_layer"], output)

    for workload in ("batch_cold", "daemon_mixed"):
        code, result, _ = run(workload, 1, 0, "--corrupt-digest")
        expect(code != 0 and result is not None and result["correct"] is False
               and result["failed"] > 0,
               f"{workload}: a wrong expected digest fails the command")

    code, result, _ = run("app_cold", 1, 0, "--jobs", str(os.cpu_count() + 1))
    expect(code == 2 and result is None, "app_cold: jobs above hardware threads is refused")

    print(f"\n{len(failures)} failure(s)" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
