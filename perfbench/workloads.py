"""The four benchmark workloads: seeded job lists, their oracles and anchors.

Every workload is built by ``build(name, lamc, seed, scale)`` from the
freshly imported ``lamc`` package, so that building it is part of the
measured set-up.  A job is a closure that runs one independent piece of
user-visible work and returns a ``JobResult``; the harness times the
closure and never looks inside it.

The generators and oracles here are the benchmark's own.  They do not use
``tests/gen.py`` (a test refactor must not change the load) and do not use
``lamc.arith.eval_expr`` or ``lamc.demo.oracle_guesses`` (layers under
test must not grade themselves).
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass
from typing import Callable

from spans import term_nodes

# Fuel limits: far above what any generated job needs, so hitting one is a
# defect (counted as a failed job), never a property of the input.
SCRIPT_FUEL = 1_000_000
KAM_FUEL = 5_000_000
WITNESS_FUEL = 20_000_000
SIMULATE_FUEL = 40


@dataclass(frozen=True)
class JobResult:
    """What one job did.  ``record`` holds the result invariants (steps,
    witnesses, verdicts) and must repeat exactly; ``error`` is None when
    the oracle accepted the output."""

    record: tuple
    machine_steps: int
    checks: int = 0  # one-step simulation checks attempted
    decided: int = 0  # ... of which verified
    error: str | None = None


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], JobResult]


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    warmup: Job
    sizes: dict  # description of the drawn sizes, for the report


def _count(scale: float, n: int) -> int:
    return max(2, round(n * scale))


def _stratified(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """n draws, one uniform draw inside each of n equal strata of [lo, hi)
    (equal in log space when log is set).  Stratifying keeps the total
    work of a job list nearly the same from seed to seed."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = []
    for i in range(n):
        x = a + (i + rng.random()) * (b - a) / n
        out.append(math.exp(x) if log else x)
    return out


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


# ---------------------------------------------------------------------------
# minprinc_script: lamc run + sigma01 extraction on the minimum-principle demo


def min_principle_oracle(c: int) -> tuple[int, list[int]]:
    """Iterate g(x) = 2x + 1 from 0 until |x - c| <= |g(x) - c|."""
    x, guesses = 0, []
    while True:
        guesses.append(x)
        if abs(x - c) <= abs(2 * x + 1 - c):
            return x, guesses
        x = 2 * x + 1


def _script_job(lamc, text: str, c: int) -> Job:
    runner_class = lamc.script.ScriptRunner

    def job() -> JobResult:
        result = runner_class(fuel=SCRIPT_FUEL).execute(lamc.parse_script(text))
        witness, guesses = min_principle_oracle(c)
        ev, ex = result.doc["statements"]
        steps = ev["steps"] + ex["steps"]
        error = (
            _expect(result.exit_code == 0, f"exit code {result.exit_code}")
            or _expect(ev["printed"] == guesses, "Eval printed guesses differ from the oracle")
            or _expect(ev["halt"] == {"kind": "final-stop", "value": witness}, f"Eval halt {ev['halt']}")
            or _expect(ex["witness"] == witness and ex["verified"] is True,
                       f"Extract witness {ex['witness']} verified {ex['verified']}, oracle {witness}")
        )
        return JobResult((ex["witness"], ev["steps"], ex["steps"]), steps, error=error)

    return Job(f"c={c}", job)


def _minprinc_script(lamc, rng: random.Random, scale: float) -> Workload:
    demo = importlib.import_module("lamc.demo")
    # Nine size classes 100 * 10**(k/4), k = 0..8, each c jittered by up to
    # 5% (one instance of class 1000 is exactly 1000).  Class k gets about
    # 10 * 10**(-k/8) instances: a job costs about linearly in c, so the
    # large classes, few as they are, still take half of a pass, and a pass
    # stays short enough to repeat several times in one run.
    cs = [1000]
    for k in range(9):
        for _ in range(max(1, round(_count(scale, 10) * 10 ** (-k / 8))) - (k == 4)):
            cs.append(round(100 * 10 ** (k / 4) * math.exp(rng.uniform(-0.05, 0.05))))
    rng.shuffle(cs)
    extract = "Extract sigma01 realizer with fleq;\n"
    jobs = tuple(_script_job(lamc, demo.build_script(c) + extract, c) for c in cs)
    warmup = _script_job(lamc, demo.build_script(100) + extract, 100)
    return Workload(jobs, warmup, {"c": sorted(cs)})


def fig5_table(lamc) -> dict:
    """The Fig. 5 run (c = 1000): steps, printed guesses, instruction calls."""
    demo = importlib.import_module("lamc.demo")
    result = lamc.run_script_text(demo.build_script(1000))
    ev = result.doc["statements"][0]
    return {"steps": ev["steps"], "printed": ev["printed"], "calls": dict(sorted(ev["calls"].items()))}


# ---------------------------------------------------------------------------
# primrec_kam: compiled primitive recursive terms on the bare machine

# Python-int semantics of the default signature, the oracle for compiled terms.
_OPS = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "minus": lambda a, b: max(a - b, 0),
    "pred": lambda a: max(a - 1, 0),
    "neg": lambda a: 1 if a == 0 else 0,
    "s": lambda a: a + 1,
}


def _eval(e, env: dict[str, int]) -> int:
    kind = e[0]
    if kind == "var":
        return env[e[1]]
    if kind == "lit":
        return e[1]
    return _OPS[kind](*(_eval(a, env) for a in e[1:]))


def _cost(e, env: dict[str, int]) -> int:
    """A step-count proxy for running the compiled term.  The compiled
    symbols recurse in unary: + on its first argument, minus on both, and
    *(s x, y) = *(x, y) + y adds onto the growing product, so *(a, b) costs
    about b * a * (a - 1) / 2."""
    if e[0] in ("var", "lit"):
        return 1
    args = [_eval(a, env) for a in e[1:]]
    if e[0] == "+":
        own = args[0]
    elif e[0] == "minus":
        own = min(args)
    elif e[0] == "*":
        own = _times_cost(*args)
    else:
        own = 1
    return own + 1 + sum(_cost(a, env) for a in e[1:])


def _times_cost(a: int, b: int) -> int:
    return b * a * (a - 1) // 2 + a


def _render(e) -> str:
    kind = e[0]
    if kind == "var":
        return e[1]
    if kind == "lit":
        return str(e[1])
    if kind in ("+", "*"):
        return f"({_render(e[1])} {kind} {_render(e[2])})"
    return f"{kind}({', '.join(_render(a) for a in e[1:])})"


def _random_expr(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        return ("var", rng.choice("xy")) if rng.random() < 0.8 else ("lit", rng.randint(0, 3))
    op = rng.choice(["+", "+", "*", "minus", "minus", "pred", "neg", "s"])
    arity = 2 if op in ("+", "*", "minus") else 1
    return (op,) + tuple(_random_expr(rng, depth - 1) for _ in range(arity))


def _kam_job(lamc, term, args: tuple[int, ...], expected: int, label: str) -> Job:
    stop_k = lamc.Lam("r", lamc.App(lamc.Inst("stop"), lamc.Var("r")))
    nums = [lamc.Numeral(a) for a in args]
    process = lamc.Process(term, lamc.syntax.stack_of(*nums, stop_k))
    cfg = lamc.MachineConfig(fuel=KAM_FUEL)

    def job() -> JobResult:
        out = lamc.run(process, cfg)
        error = _expect(out.halt.kind == "final-stop" and out.halt.value == expected,
                        f"halt {out.halt}, oracle {expected}")
        return JobResult((out.halt.value, out.steps), out.steps, error=error)

    return Job(label, job)


def _primrec_kam(lamc, rng: random.Random, scale: float) -> Workload:
    # Each kind of job is drawn so that its cost proxy falls in its own
    # stratum of a fixed range; the total work of a job list then hardly
    # depends on the seed, while the arguments and definitions do.
    # The counts and ranges put both the median job and the tail job (the
    # 11th largest) among the * jobs, inside their log-spaced strata: 60
    # cheap + and minus jobs (first argument below 20), 70 * jobs from 10
    # to 800 units, and 30 compositions from 100 to 150 units.
    sig = lamc.default_signature()
    cache: dict = {}
    jobs = []
    n_cheap, n_times, n_comp = _count(scale, 30), _count(scale, 70), _count(scale, 30)
    plus = lamc.compile_primrec("+", sig, cache)
    minus = lamc.compile_primrec("minus", sig, cache)
    times = lamc.compile_primrec("*", sig, cache)
    for x in _stratified(rng, n_cheap, 0, 20):
        a, b = int(x), rng.randint(0, 60)
        jobs.append(_kam_job(lamc, plus, (a, b), a + b, f"+({a},{b})"))
        a, b = int(x), max(0, int(x) + rng.randint(-10, 10))
        jobs.append(_kam_job(lamc, minus, (a, b), max(a - b, 0), f"minus({a},{b})"))
    for target in _stratified(rng, n_times, 10, 800, log=True):
        # redrawn until the cost is within 5% of the target (a = 2 always fits)
        while True:
            a = rng.randint(2, 12)
            b = max(1, round((target - a) / (a * (a - 1) / 2)))
            if abs(_times_cost(a, b) - target) <= 0.05 * target:
                break
        jobs.append(_kam_job(lamc, times, (a, b), a * b, f"*({a},{b})"))
    pattern = (lamc.Pattern("var", "x"), lamc.Pattern("var", "y"))
    for i, target in enumerate(_stratified(rng, n_comp, 100, 150)):
        # random compositions over the default signature, redrawn until the
        # cost proxy is within 5% of the stratum's target
        while True:
            body = _random_expr(rng, rng.randint(1, 3))
            env = {"x": rng.randint(0, 12), "y": rng.randint(0, 12)}
            cost = _cost(body, env)
            if abs(cost - target) <= 0.05 * target:
                break
        name = f"h{i}"
        sig_i = sig.define(name, 2, [lamc.Equation(pattern, lamc.parse_expr(_render(body), sig))])
        term = lamc.compile_primrec(name, sig_i, dict(cache))
        label = f"{name}{(env['x'], env['y'])} = {_render(body)}"
        jobs.append(_kam_job(lamc, term, (env["x"], env["y"]), _eval(body, env), label))
    rng.shuffle(jobs)
    warmup = _kam_job(lamc, plus, (3, 4), 7, "+(3,4)")
    return Workload(tuple(jobs), warmup, {"plus": n_cheap, "minus": n_cheap, "times": n_times, "compositions": n_comp})


# ---------------------------------------------------------------------------
# cps_witness: KAM witness = CPS witness = oracle on the closed realizer


def _cps_job(lamc, term, c: int) -> Job:
    wrapper = lamc.extract.sigma01_wrapper()
    process = lamc.Process(term, lamc.Push(wrapper, lamc.BOTTOM))
    cfg = lamc.MachineConfig(fuel=KAM_FUEL)

    def job() -> JobResult:
        kam = lamc.run(process, cfg)
        found = lamc.read_witness(lamc.cps_process(process), fuel=WITNESS_FUEL)
        witness, _ = min_principle_oracle(c)
        cps_w = None if found is None else found[0]
        error = _expect(kam.halt.kind == "final-stop" and kam.halt.value == witness == cps_w,
                        f"KAM {kam.halt}, CPS {cps_w}, oracle {witness}")
        return JobResult((kam.halt.value, cps_w, kam.steps), kam.steps, error=error)

    return Job(f"c={c}", job)


def _cps_witness(lamc, rng: random.Random, scale: float) -> Workload:
    demo = importlib.import_module("lamc.demo")
    cs = [int(x) for x in _stratified(rng, _count(scale, 30), 2, 13)]
    rng.shuffle(cs)
    terms = {c: demo.closed_realizer(c)[0] for c in sorted(set(cs) | {2})}
    jobs = tuple(_cps_job(lamc, terms[c], c) for c in cs)
    return Workload(jobs, _cps_job(lamc, terms[2], 2), {"c": sorted(cs)})


# ---------------------------------------------------------------------------
# simulate_suite: one-step simulation checks, small and large terms

_BINDERS = ("a", "b", "c", "d", "x", "y")
_INSTS = ("cc", "s", "rec", "stop")


def _random_term(lamc, rng: random.Random, depth: int, bound: tuple[str, ...] = ()):
    """A random closed lambda-c term over the closed instruction set."""
    leaves = ["num", "inst"] + (["var", "var"] if bound else [])
    kind = rng.choice(leaves if depth <= 0 else leaves + ["lam", "lam", "app", "app", "app"])
    if kind == "var":
        return lamc.Var(rng.choice(bound))
    if kind == "num":
        return lamc.Numeral(rng.randint(0, 5))
    if kind == "inst":
        return lamc.Inst(rng.choice(_INSTS))
    if kind == "lam":
        x = rng.choice(_BINDERS)
        return lamc.Lam(x, _random_term(lamc, rng, depth - 1, bound + (x,)))
    return lamc.App(_random_term(lamc, rng, depth - 1, bound), _random_term(lamc, rng, depth - 1, bound))


def random_processes(lamc, rng: random.Random, n: int) -> list:
    """n random closed processes; one in ten starts on rec with a numeral
    argument so that the Rec rules (and inner equality) are exercised."""
    out = []
    rec_head = lamc.parse_term(r"rec (\z. z) (\p r. r)")
    for i in range(n):
        if i % 10 == 9:
            stack = lamc.syntax.stack_of(lamc.Numeral(rng.randint(0, 5)), _random_term(lamc, rng, 3))
            out.append(lamc.Process(rec_head, stack))
            continue
        terms = [_random_term(lamc, rng, rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        out.append(lamc.Process(_random_term(lamc, rng, 6), lamc.syntax.stack_of(*terms)))
    return out


# Quotas of random processes by the number of machine steps they run before
# halting (at most SIMULATE_FUEL) and by their size in term nodes, roughly
# their natural frequencies.  Each step is one one-step check and its cost
# grows with the terms, so fixing the quotas fixes the cost distribution.
# The median job of the whole list falls in the middle band of the 2-step
# class, never on a class boundary.
QUOTAS = (  # (steps from, steps to, nodes from, nodes to, count)
    (0, 0, 0, None, 66),
    (1, 1, 0, None, 30),
    (2, 2, 0, 9, 5),
    (2, 2, 10, 13, 30),
    (2, 2, 14, None, 5),
    (3, 4, 0, None, 22),
    (5, 7, 0, None, 16),
    (8, 11, 0, None, 6),
    (12, 15, 0, None, 6),
    (16, 24, 0, None, 7),
    (25, SIMULATE_FUEL, 0, None, 7),
)


def _machine_steps(lamc, p, cfg) -> int:
    for k in range(SIMULATE_FUEL):
        nxt = lamc.step(p, cfg)
        if not isinstance(nxt, lamc.machine.Next):
            return k
        p = nxt.process
    return SIMULATE_FUEL


def quota_processes(lamc, rng: random.Random, scale: float) -> list:
    """Random processes drawn until every class of QUOTAS is full."""
    cfg = lamc.MachineConfig()
    want = [[lo, hi, nlo, nhi, _count(scale, n)] for lo, hi, nlo, nhi, n in QUOTAS]
    out = []
    while any(w[4] for w in want):
        for p in random_processes(lamc, rng, 10):
            k = _machine_steps(lamc, p, cfg)
            size = term_nodes(p.head) + sum(term_nodes(t) for t in p.stack)
            for w in want:
                if w[0] <= k <= w[1] and w[2] <= size and (w[3] is None or size <= w[3]):
                    if w[4]:
                        w[4] -= 1
                        out.append(p)
                    break
    return out


def _run_job(lamc, process, i: int) -> Job:
    def job() -> JobResult:
        rep = lamc.simulate_run(process, fuel=SIMULATE_FUEL)
        record = (rep.machine_steps, rep.halt_kind, tuple((r.rule, r.verified, r.weak_steps) for r in rep.reports))
        return JobResult(record, rep.machine_steps, len(rep.reports), rep.verified,
                         _expect(rep.failed == 0, f"{rep.failed} one-step checks failed"))

    return Job(f"run#{i}", job)


def _one_step_job(lamc, process, position: int) -> Job:
    def job() -> JobResult:
        rep = lamc.simulate_one_step(process)
        return JobResult((rep.rule, rep.verified, rep.weak_steps, rep.syntactic), 1, 1,
                         int(rep.verified is True),
                         _expect(rep.verified is not False, f"one-step check failed: {rep.message}"))

    return Job(f"demo@{position}", job)


def demo_run(lamc, c: int) -> list[tuple]:
    """(process, rule) for every step of the machine run of the closed demo
    realizer."""
    demo = importlib.import_module("lamc.demo")
    term, _ = demo.closed_realizer(c)
    p = lamc.Process(term, lamc.Push(lamc.extract.sigma01_wrapper(), lamc.BOTTOM))
    cfg = lamc.MachineConfig()
    out = []
    while True:
        nxt = lamc.step(p, cfg)
        if not isinstance(nxt, lamc.machine.Next):
            return out
        out.append((p, nxt.rule))
        p = nxt.process


DEMO_C = 5


def _simulate_suite(lamc, rng: random.Random, scale: float) -> Workload:
    small = [_run_job(lamc, p, i) for i, p in enumerate(quota_processes(lamc, rng, scale))]
    # The demo positions are fixed, evenly spaced over the steps other than
    # Rec-S: the cost of a check jumps tenfold between neighbouring steps,
    # so seeded positions would make a run's total depend on the seed.  A
    # Rec-S step costs 1-10 s to check (inner equality on terms of thousands
    # of nodes), more than a pass can hold; Rec-S checks on small terms come
    # from the random processes that start on rec.
    along = demo_run(lamc, DEMO_C)
    plain = [k for k, (_, rule) in enumerate(along) if rule != "rec-s"]
    m = _count(scale, 32)
    positions = [plain[(2 * i + 1) * len(plain) // (2 * m)] for i in range(m)]
    large = [_one_step_job(lamc, along[k][0], k) for k in positions]
    jobs = small + large
    rng.shuffle(jobs)
    warmup = _run_job(lamc, lamc.parse_process(r"(\x. x) (\y. y) * $"), -1)
    return Workload(tuple(jobs), warmup,
                    {"random_processes": len(small), "demo_c": DEMO_C, "demo_positions": sorted(positions)})


BUILDERS = {
    "minprinc_script": _minprinc_script,
    "primrec_kam": _primrec_kam,
    "cps_witness": _cps_witness,
    "simulate_suite": _simulate_suite,
}


def build(name: str, lamc, seed: int, scale: float = 1.0) -> Workload:
    return BUILDERS[name](lamc, random.Random(f"{name}:{seed}"), scale)


# ---------------------------------------------------------------------------
# anchors: fixed inputs whose result invariants are committed in
# invariants.json, so that a change between commits is caught


def anchors(name: str, lamc) -> dict:
    if name == "minprinc_script":
        return {"fig5_c1000": fig5_table(lamc)}
    if name == "primrec_kam":
        sig, cache = lamc.default_signature(), {}
        out = {}
        for sym, args in (("+", (30, 30)), ("minus", (30, 17)), ("*", (12, 12))):
            term = lamc.compile_primrec(sym, sig, cache)
            res = _kam_job(lamc, term, args, _OPS[sym](*args), sym).run()
            out[f"{sym}{args}"] = list(res.record)
        return out
    if name == "cps_witness":
        demo = importlib.import_module("lamc.demo")
        return {f"c={c}": list(_cps_job(lamc, demo.closed_realizer(c)[0], c).run().record) for c in (5, 10)}
    if name == "simulate_suite":
        procs = random_processes(lamc, random.Random("anchor"), 30)
        reps = [lamc.simulate_run(p, fuel=SIMULATE_FUEL) for p in procs]
        along = demo_run(lamc, DEMO_C)
        one = {k: lamc.simulate_one_step(along[k][0]) for k in (0, 400, 800, 1200)}
        return {
            "random_runs": {
                "machine_steps": sum(r.machine_steps for r in reps),
                "verified": sum(r.verified for r in reps),
                "inconclusive": sum(r.inconclusive for r in reps),
                "failed": sum(r.failed for r in reps),
                "weak_steps": sum(x.weak_steps for r in reps for x in r.reports),
            },
            "demo_run_length": len(along),
            "demo_one_step": {str(k): [r.rule, r.verified, r.weak_steps, r.syntactic] for k, r in one.items()},
        }
    raise KeyError(name)
