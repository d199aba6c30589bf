"""Smoke self-test: every workload at toy sizes, with tracing off and on.

    python3 perfbench/selftest.py

Run from the root of the checkout.  Asserts that each run exits 0, that
its last line is the result object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`, that every output passed its oracle,
and that the metrics are exactly those BENCHMARK.json names, each with its
unit.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    # every workload run.py knows, the ungated extra included
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']}/{result['attempted']} failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                missing = set(expected[trace]) - set(units)
                extra = set(units) - set(expected[trace])
                wrong = {k for k in set(units) & set(expected[trace]) if units[k] != expected[trace][k]}
                failures.append(f"{label}: missing {sorted(missing)} extra {sorted(extra)} "
                                f"wrong units {sorted(wrong)}")
            if trace and workload == "dense-spectral":
                ratio = result["metrics"]["linalg.eigendecompose.repeat_ratio"]["value"]
                if not ratio > 1:
                    failures.append(f"{label}: eigendecompose repeat ratio {ratio} is not above 1")
            print(f"{label}: ok" if not failures or not failures[-1].startswith(label)
                  else f"{label}: FAILED", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
