#!/usr/bin/env python3
"""The benchmark's own test: runs every workload in smoke mode, untraced
and traced, and checks that the last line of output names every metric
BENCHMARK.json lists for that mode, with its unit, and that every checked
outcome was correct.

    python3 perfbench/test_smoke.py        (from the root of a checkout)
"""

import json
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            out = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", "7",
                                   "--seconds", "0.2", "--trace", str(trace),
                                   "--smoke"],
                capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                failures.append(f"{what}: exit {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{what}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{what}: {result['failed']} of "
                                f"{result['attempted']} outcomes wrong")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                failures.append(f"{what}: missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    failures.append(f"{what}: {name} is not a number")
            print(f"ok   {what}: {len(got)} metrics, "
                  f"{result['attempted']} outcomes checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
