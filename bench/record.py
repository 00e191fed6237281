"""Record a before/after benchmark comparison as BENCH_<n>.json.

    python3 bench/record.py --parent REV --out BENCH_<n>.json [--seed 1]

Runs ``perfbench/run.py --seconds 20 --trace 0`` in ten pairs: once in a
checkout of the parent revision and once in this tree (the change), for
every workload of ``BENCHMARK.json`` and the seeds ``--seed``, ``--seed +
1``, ...  Which side goes first alternates from pair to pair, so a drift
in host speed falls on both sides alike.  The parent is exported with
``git archive`` into a temporary directory that is removed afterwards, so
no worktree is registered.  The change is this tree as it is on disk; the
file records whether it had uncommitted changes.  Both trees are
byte-compiled before the first run, so that neither side pays for
compiling its modules in a run and the other not.

For every end-to-end metric of ``BENCHMARK.json`` the file holds, per
side, every run's value with its median and quartiles
(``statistics.quantiles``, n=4), and the number of pairs the change won
(better in the metric's direction).  It also records the seeds, the order
of each pair, both git shas, and the Python version and host.  The script
uses only the standard library.  It runs ``perfbench/run.py`` as it is
and reads the metric names and directions only, never a bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIRS = 10
SECONDS = 20


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def perfbench(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(workload: str, metrics: list[dict], parent: Path, first_seed: int) -> dict:
    runs = {"parent": [], "change": []}
    seeds = [first_seed + i for i in range(PAIRS)]
    order = []
    for i, seed in enumerate(seeds):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(f"{sides[0]} first")
        for side in sides:
            tree = parent if side == "parent" else ROOT
            result = perfbench(tree, workload, seed)
            runs[side].append(result)
            print(f"{workload} seed {seed} {side}: "
                  f"{json.dumps({k: round(v['value'], 4) for k, v in result['metrics'].items()})}",
                  file=sys.stderr, flush=True)
    out = {
        "seeds": seeds,
        "order": order,
        "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "metrics": {},
    }
    for m in metrics:
        name = m["name"]
        before = [r["metrics"][name]["value"] for r in runs["parent"]]
        after = [r["metrics"][name]["value"] for r in runs["change"]]
        higher = m["better"] == "higher"
        wins = sum(1 for b, a in zip(before, after) if (a > b if higher else a < b))
        med_b, med_a = statistics.median(before), statistics.median(after)
        out["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": summary(before),
            "change": summary(after),
            "change_wins": wins,
            "change_over_parent_median": med_a / med_b if med_b else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [{k: m[k] for k in ("name", "unit", "better")} for m in declared["end_to_end"]]
    parent_sha = git("rev-parse", args.parent)
    record = {
        "about": "perfbench/run.py --trace 0 in alternating parent/change pairs, "
                 "written by bench/record.py; times are reference-host seconds "
                 "(perfbench/hostspeed.py)",
        "seed": args.seed,
        "parent_sha": parent_sha,
        "change_sha": git("rev-parse", "HEAD"),
        "change_uncommitted": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "system": platform.system(), "nproc": os.cpu_count()},
        "pairs": PAIRS,
        "seconds": SECONDS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        parent = Path(scratch) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        for tree in (parent, ROOT):
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True)
        for workload in declared["workloads"]:
            name = workload["name"]
            record["workloads"][name] = compare(name, metrics, parent, args.seed)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
