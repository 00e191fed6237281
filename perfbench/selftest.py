"""Smoke test of the benchmark itself: every workload at a small size, timed
and traced, must emit exactly the metrics BENCHMARK.json declares, with no
failed job and no broken invariant.

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise.  Takes under a minute.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads

SMOKE_SCALE = 0.1
SMOKE_SECONDS = 0.5


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name in workloads.BUILDERS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run.measure(name, seed=7, seconds=SMOKE_SECONDS, trace=trace, scale=SMOKE_SCALE)
            expected = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{name} trace={int(trace)}"
            if got != expected:
                problems.append(f"{where}: metrics {sorted(got)} != declared {sorted(expected)}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{where}: a metric is not a finite number")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                                f"failed={result['failed']}\n" + "\n".join(lines))
            print(f"{where}: {result['attempted']} jobs, fail_ratio {result['failed'] / result['attempted']:.3f}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
