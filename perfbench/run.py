"""Run one lamc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lamc source tree: the package is imported from
``src/lamc`` next to this directory and from nowhere else.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.  ``--trace 0`` measures the end-to-end metrics with
lamc untouched; ``--trace 1`` runs one pass untraced and one pass with the
layer wrappers of ``spans.py`` installed, and reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``.

Policy, identical on every commit: one process, one thread, Python's
default recursion limit; set-up is repeated ``SETUP_REPEATS`` times and
its median reported; one warm-up job runs untimed; after set-up the
collector runs once and the surviving objects are frozen; while jobs run
the automatic collector is off and a full collection runs between jobs
every ``COLLECT_EVERY_S``.  End-to-end times are in reference-host seconds
(see ``hostspeed.py``); the report also prints the raw figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
TAIL_JOBS_ABOVE = 10
COLLECT_EVERY_S = 0.25


def fresh_import():
    """Import lamc from this tree as a first import would, dropping any
    modules a previous import left behind."""
    for mod in [m for m in sys.modules if m == "lamc" or m.startswith("lamc.")]:
        del sys.modules[mod]
    lamc = importlib.import_module("lamc")
    importlib.import_module("lamc.demo")
    if Path(lamc.__file__).resolve().parent != SRC / "lamc":
        raise ImportError(f"lamc was imported from {lamc.__file__}, not from {SRC / 'lamc'}")
    return lamc


class Pass:
    """Outcomes of job executions: per-job timing samples (reference-host
    seconds), the first result record of each job, and every failure."""

    def __init__(self, jobs, clock: hostspeed.Clock):
        self.jobs = jobs
        self.clock = clock
        self.samples = [[] for _ in jobs]
        self.results = [None] * len(jobs)
        self.attempted = 0
        self.failures: list[str] = []
        self.collected = perf_counter()

    def execute(self, i: int, tracer=None) -> None:
        job = self.jobs[i]

        def attempt():
            if tracer is not None:
                tracer.job = i
                tracer.begin("job")
            try:
                return job.run(), None
            except Exception as exc:  # a crashing job is a failed job; the run goes on
                return None, f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.end()

        (res, error), _, corrected = self.clock.time(attempt)
        self.samples[i].append(corrected)
        self.attempted += 1
        if res is not None:
            error = res.error
            first = self.results[i]
            if first is None:
                self.results[i] = res
            elif first.record != res.record:
                error = f"result changed between executions: {first.record} then {res.record}"
        if error is not None:
            self.failures.append(f"job {i} ({job.label}): {error}")
        if perf_counter() - self.collected >= COLLECT_EVERY_S:
            gc.collect()
            self.collected = perf_counter()


def _run_pass(p: Pass, tracer=None) -> None:
    """One pass over the job list, collector policy as in _run_timed."""
    gc.disable()
    try:
        for i in range(len(p.jobs)):
            p.execute(i, tracer)
    finally:
        gc.enable()


def _run_timed(wl, seconds: float) -> Pass:
    """Cycle through the job list until `seconds` of wall time have passed,
    completing at least one whole pass.  The automatic collector is off, so
    a collection never lands inside a job's time; Pass.execute collects
    between jobs every COLLECT_EVERY_S instead."""
    p = Pass(wl.jobs, hostspeed.Clock())
    n, k = len(wl.jobs), 0
    start = perf_counter()
    gc.disable()
    try:
        while k < n or perf_counter() - start < seconds:
            p.execute(k % n)
            k += 1
    finally:
        gc.enable()
    return p


def _compare_with_previous(wl, name: str, seed: int, scale: float, results) -> list[str]:
    """Result invariants of this seed must equal those of any earlier run
    of the same seed in this tree; the current ones are stored for the next."""
    OUT.mkdir(exist_ok=True)
    # keyed by the generator's source too: a different benchmark makes different jobs
    source = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()[:12]
    path = OUT / f"{name}-seed{seed}-scale{scale}-{source}-results.json"
    current = [[job.label, None if r is None else list(r.record)] for job, r in zip(wl.jobs, results)]
    current = json.loads(json.dumps(current))
    problems = []
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        for (label, now), (label0, before) in zip(current, previous):
            if label == label0 and before is not None and now is not None and now != before:
                problems.append(f"job {label}: result {now} differs from an earlier run's {before}")
    path.write_text(json.dumps(current), encoding="utf-8")
    return problems


def _check_anchors(name: str, lamc) -> list[str]:
    reference = json.loads((HERE / "invariants.json").read_text(encoding="utf-8"))[name]
    actual = json.loads(json.dumps(workloads.anchors(name, lamc)))
    return [
        f"anchor {key}: {actual.get(key)} != committed {value}"
        for key, value in reference.items()
        if actual.get(key) != value
    ]


def _end_to_end(wl, p: Pass, setup_times: list[float]) -> tuple[dict, list[str]]:
    per_job = [statistics.median(s) for s in p.samples]
    total = sum(per_job)
    steps = sum(r.machine_steps for r in p.results if r is not None)
    ordered = sorted(per_job)
    n = len(ordered)
    idx = max(0, n - 1 - TAIL_JOBS_ABOVE)
    values = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": n / total,
        "job_ms_p50": statistics.median(per_job) * 1000,
        "job_ms_tail": ordered[idx] * 1000,
        "kam_steps_per_s": steps / total,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    clock = p.clock
    notes = [
        f"job_ms_tail is p{100 * (idx + 1) / n:.1f} of {n} jobs ({n - 1 - idx} above it)",
        f"per-job time is the median of {min(map(len, p.samples))}..{max(map(len, p.samples))} executions",
        f"host speed: jobs took {clock.raw_total:.3f} s measured, {clock.corrected_total:.3f} "
        f"reference-host s (factor {clock.corrected_total / clock.raw_total:.4f}); "
        f"raw jobs_per_s {values['jobs_per_s'] * clock.corrected_total / clock.raw_total:.6g}",
        "slowest jobs: " + ", ".join(
            f"{wl.jobs[i].label} {per_job[i] * 1000:.1f} ms" for i in sorted(range(n), key=per_job.__getitem__)[-3:]
        ),
        f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}",
    ]
    return values, notes


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> tuple[dict, list[str]]:
    """Run one workload; the result object and the report lines."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = spans.Tracer() if trace else None

    def setup():
        lamc = fresh_import()
        if tracer is not None:
            spans.install_layers(tracer, lamc)
        return lamc, workloads.build(name, lamc, seed, scale)

    setup_clock = hostspeed.Clock()
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        lamc = wl = None
        gc.collect()  # each set-up starts without the previous one's garbage
        (lamc, wl), _, corrected = setup_clock.time(setup)
        setup_times.append(corrected)
    if tracer is not None:
        tracer.uninstall()

    wl.warmup.run()
    gc.collect()
    gc.freeze()

    if trace:
        untraced = Pass(wl.jobs, hostspeed.Clock())
        _run_pass(untraced)
        spans.install_layers(tracer, lamc)
        p = Pass(wl.jobs, hostspeed.Clock())
        _run_pass(p, tracer)
        tracer.uninstall()
        p.attempted += untraced.attempted
        p.failures += untraced.failures
        for i, (a, b) in enumerate(zip(untraced.results, p.results)):
            if a is not None and b is not None and a.record != b.record:
                p.failures.append(f"job {i}: traced result {b.record} differs from untraced {a.record}")
    else:
        p = _run_timed(wl, seconds)
    gc.unfreeze()

    problems = _check_anchors(name, lamc) + _compare_with_previous(wl, name, seed, scale, p.results)
    failed = len(p.failures) + sum(1 for m in problems if m.startswith("job "))
    checks = sum(r.checks for r in p.results if r is not None)
    decided = sum(r.decided for r in p.results if r is not None)

    lines = [
        f"workload {name}  seed {seed}  scale {scale}  trace {int(trace)}",
        f"python {platform.python_version()}  recursion limit {sys.getrecursionlimit()}",
        f"sizes {json.dumps(wl.sizes)}",
        f"jobs {len(wl.jobs)}  executions {p.attempted}  failed {failed}  "
        f"fail_ratio {failed / p.attempted:.4f}",
    ]
    if checks:
        lines.append(f"one-step checks {checks}  verified {decided}  decided_ratio {decided / checks:.4f}")
    if trace:
        values = spans.layer_metrics(tracer)
        values["trace.overhead_ratio"] = p.clock.corrected_total / untraced.clock.corrected_total
        lines.append(f"untraced pass {untraced.clock.raw_total:.3f} s, traced pass {p.clock.raw_total:.3f} s "
                     "(measured; the overhead ratio uses reference-host seconds)")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{name}-seed{seed}-scale{scale}-spans.json", {"workload": name, "seed": seed})
        section = "per_layer"
    else:
        values, notes = _end_to_end(wl, p, setup_times)
        lines += notes
        section = "end_to_end"
    lines += [f"FAIL {m}" for m in (p.failures + problems)[:20]]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[section]}
    lines += [f"  {k:<28} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    result = {
        "correct": not p.failures and not problems,
        "attempted": p.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lamc" / "__init__.py").is_file():
        print(f"error: no lamc sources at {SRC / 'lamc'}; run from a lamc source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
