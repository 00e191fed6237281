"""``run``, the environment machine, against the loop over the substitution
``step`` (tests/machine_reference.py): the same halt, steps, statistics,
printed numerals and final process, byte for byte.  Traced, the rules and
the lines of ``lamc run --trace``, built from ``iter_steps``, against the
reference's rule log and trace lines.  Then ``lamc.step`` on user
instructions, which fires the compiled rules, against the reference
``step``, which fires them by substitution."""

import random
import re
from dataclasses import replace

import pytest

from lamc.arith import EApp, EVar, Equation, Pattern, parse_expr
from lamc.demo import closed_realizer, instruction_config
from lamc.extract import sigma01_wrapper
from lamc.machine import (
    BindNumeral,
    BindTerm,
    Guard,
    Halt,
    InstructionRule,
    LitNumeral,
    MachineConfig,
    MachineError,
    StopRun,
    TExpr,
    iter_steps,
    register_batch,
    run,
    step,
)
from lamc.stdlib import compile_primrec
from lamc.syntax import (
    BOTTOM,
    App,
    HConst,
    Inst,
    Lam,
    LamcError,
    Numeral,
    Process,
    Push,
    Var,
    app,
    parse_process,
    print_process,
    stack_of,
)

from gen import random_closed_term, random_expr, random_process, random_stack
from helpers import test_le_rules as le_rules
import machine_reference
from machine_reference import run_by_steps


def view(out):
    return (
        out.halt,
        out.steps,
        out.stats,
        out.printed,
        print_process(out.final),
        out.instruction_calls(),
    )


def traced(p: Process, cfg: MachineConfig) -> tuple:
    """The rules and trace lines of the steps ``iter_steps`` gives, up to
    a print whose sink aborts the run."""
    rules, lines = [], []
    try:
        for k, nxt in enumerate(iter_steps(p, cfg), 1):
            rules.append(nxt.rule)
            lines.append(f"step {k}: {nxt.rule} | {print_process(nxt.process)}")
    except StopRun:
        pass
    return tuple(rules), tuple(lines)


def assert_same(p: Process, make_cfg, trace: bool = False) -> tuple:
    """Run both machines, each on a fresh configuration from ``make_cfg``
    (sinks keep state); an error must be the same error.  With ``trace``,
    ``iter_steps`` gives the reference's rule log and trace lines too."""
    try:
        reference = run_by_steps(p, make_cfg(), trace)
    except LamcError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            run(p, make_cfg())
        return ()
    expected = view(reference)
    assert view(run(p, make_cfg())) == expected
    if trace:
        assert traced(p, make_cfg()) == (reference.fired, reference.trace)
    return expected


def stop_after(k: int):
    """A configuration factory whose sink aborts the run at the k-th print."""

    def make(base: MachineConfig):
        seen = []

        def sink(n):
            seen.append(n)
            if len(seen) >= k:
                raise StopRun

        return replace(base, sink=sink)

    return make


def _sig_rule(sig, text):
    return TExpr(parse_expr(text, sig))


def rule_config(fuel: int = 400) -> MachineConfig:
    """Guards, literal patterns, #(...) templates (in head, stack and under
    binders), template binders that shadow pattern variables, and a
    mutually recursive pair."""
    base = MachineConfig(fuel=fuel)
    sig = base.sig
    definitions = {
        "test_le": le_rules(),
        "double": [
            InstructionRule("double", (BindNumeral("n"), BindTerm("u")), Var("u"), (_sig_rule(sig, "2 * n"),)),
        ],
        "isz": [
            InstructionRule("isz", (LitNumeral(0), BindTerm("u"), BindTerm("v")), Var("u")),
            InstructionRule("isz", (BindNumeral("n"), BindTerm("u"), BindTerm("v")), App(Var("v"), _sig_rule(sig, "pred(n)"))),
        ],
        # \u. shadows the pattern u; #(n + 1) sits under it
        "shadow": [
            InstructionRule(
                "shadow",
                (BindTerm("u"), BindNumeral("n")),
                App(Lam("u", App(Var("u"), _sig_rule(sig, "n + 1"))), Var("u")),
            ),
        ],
        # \n. shadows the numeral pattern n; the stack gets #(3 * n) and n
        "tri": [
            InstructionRule(
                "tri",
                (BindNumeral("n"), BindTerm("u")),
                Lam("n", App(Var("u"), Var("n"))),
                (_sig_rule(sig, "3 * n"), Var("n"), Lam("w", _sig_rule(sig, "n * n"))),
                Guard("<", EVar("n"), parse_expr("5", sig)),
            ),
            InstructionRule("tri", (BindNumeral("n"), BindTerm("u")), App(Var("u"), Var("n"))),
        ],
        "ping": [InstructionRule("ping", (BindTerm("u"),), App(Inst("pong"), App(Inst("s"), Var("u"))))],
        "pong": [InstructionRule("pong", (BindTerm("u"), BindTerm("v")), App(Var("v"), Var("u")))],
    }
    return register_batch(base, definitions)


RULE_INSTRUCTIONS = ("cc", "s", "rec", "stop", "print", "test_le", "double", "isz", "shadow", "tri", "ping", "pong")


class TestRandomProcesses:
    def test_builtin_instructions(self):
        rng = random.Random(2024)
        kinds = set()
        for i in range(1200):
            p = random_process(rng)
            kinds.add(assert_same(p, lambda: MachineConfig(fuel=120), trace=i % 2 == 0)[0].kind)
        assert kinds == {"final-stop", "stuck", "fuel"}

    def test_with_print_and_user_rules(self):
        rng = random.Random(2025)
        base = rule_config(fuel=120)
        aborting = stop_after(2)
        kinds = set()
        rules_fired = set()
        for i in range(1000):
            p = random_process(rng, instructions=RULE_INSTRUCTIONS)
            make = (lambda: aborting(base)) if i % 3 == 0 else (lambda: base)
            out = assert_same(p, make, trace=True)
            kinds.add(out[0].kind)
            rules_fired |= set(out[2])
            # an instruction applied to numerals and terms fires rules more often
            p = Process(app(Inst(rng.choice(RULE_INSTRUCTIONS)), *(_rule_arg(rng) for _ in range(rng.randint(1, 4)))),
                        random_stack(rng, 3, instructions=RULE_INSTRUCTIONS))
            out = assert_same(p, make, trace=True)
            kinds.add(out[0].kind)
            rules_fired |= set(out[2])
        assert {"final-stop", "stuck"} <= kinds  # fuel and aborts: TestRuleCorpus
        assert {"test_le", "double", "isz", "shadow", "tri", "ping", "pong", "print", "cc", "s"} <= rules_fired


def _rule_arg(rng: random.Random):
    if rng.random() < 0.5:
        return Numeral(rng.randint(0, 6))
    return random_closed_term(rng, 3, instructions=RULE_INSTRUCTIONS)


class TestDemoFamily:
    @pytest.mark.parametrize("c", [10, 1000])
    @pytest.mark.parametrize("wrapper", [r"(\x y. print x y (stop x))", r"(\x y. y (stop x))"])
    def test_instruction_build(self, c, wrapper):
        cfg = instruction_config(c)
        p = parse_process(f"realizer * {wrapper} . $", instructions=cfg.instructions, strict=True)
        halt = assert_same(p, lambda: cfg, trace=True)[0]
        assert halt.kind == "final-stop"

    def test_demo_stack_independence(self):
        cfg = instruction_config(100)
        p = parse_process(r"realizer * (\x y. y (stop x)) . #7 . I . $", instructions=cfg.instructions)
        assert assert_same(p, lambda: cfg, trace=True)[0].kind == "final-stop"

    @pytest.mark.parametrize("c", range(2, 13))
    def test_closed_realizer_sigma01(self, c):
        t0, sig = closed_realizer(c)
        p = Process(t0, stack_of(sigma01_wrapper()))
        # traced at c = 2 only: the trace lines are long
        assert assert_same(p, lambda: MachineConfig(sig=sig), trace=c == 2)[0].kind == "final-stop"

    def test_closed_realizer_print_guesses(self):
        t0, sig = closed_realizer(9)
        p = Process(t0, stack_of(sigma01_wrapper(trace_guesses=True)))
        assert assert_same(p, lambda: MachineConfig(sig=sig))[3] == (0, 1, 3, 7)


def _stop_k():
    return Lam("r", App(Inst("stop"), Var("r")))


class TestCompiledPrimrec:
    @pytest.mark.parametrize("name", ["+", "minus", "*", "pred", "neg"])
    def test_default_symbols(self, sig, name):
        t = compile_primrec(name, sig)
        arity = sig.arity(name)
        for args in [(0, 0), (1, 0), (0, 3), (3, 2), (4, 5), (2, 7)]:
            p = Process(t, stack_of(*[Numeral(a) for a in args[:arity]], _stop_k()))
            assert assert_same(p, lambda: MachineConfig(fuel=50_000))[0].kind == "final-stop"

    def test_traced_small_product(self, sig):
        t = compile_primrec("*", sig)
        p = Process(t, stack_of(Numeral(2), Numeral(3), _stop_k()))
        assert assert_same(p, MachineConfig, trace=True)[0].value == 6

    def test_random_compositions(self, sig):
        rng = random.Random(77)
        for _ in range(25):
            e = random_expr(rng, 3)
            sig2 = sig.define("comp", 2, [Equation((Pattern("var", "x"), Pattern("var", "y")), e)])
            t = compile_primrec("comp", sig2)
            for x, y in [(0, 0), (2, 1), (3, 4)]:
                p = Process(t, stack_of(Numeral(x), Numeral(y), _stop_k()))
                assert_same(p, lambda: MachineConfig(fuel=20_000))


class TestRuleCorpus:
    CASES = [
        "test_le #2 #5 (stop #1) (stop #0) * $",
        "test_le #5 #2 (stop #1) (stop #0) * $",
        r"double #21 (\x. stop x) * $",
        "double #21 stop * $",
        "double stop stop * $",
        "isz #0 (stop #1) stop * $",
        "isz #9 (stop #1) stop * $",
        r"shadow (\v. stop v) #4 * $",
        r"shadow (\v. isz v (stop #0) (\w. shadow stop w)) #0 * $",
        r"tri #3 (\a b c d. d #0 (c (stop a))) * $",
        r"tri #3 (\a b c d. b (stop c)) * $",
        r"tri #7 (\a. stop a) * $",
        r"tri #4 (\a b c. c) * $",
        r"ping #3 * (\x y. print x (stop y)) . #9 . $",
        r"ping * (\x. stop x) . $",
        r"cc (\k. k #3 (\x y. stop x)) * $",
        r"cc (\k. double #4 (\n. k n)) * (\x. stop x) . $",
        r"rec (stop #0) (\p r. cc (\k. r)) #4 * $",
        r"(\x y. y x) #2 * k[(\z. print z (stop z)) . $] . $",
        r"k[(\z. stop z) . $] * #4 . $",
        r"k[$] * $",
        r"(\x. x) * k[#1 . k[stop . $] . $] . $",
        r"print #1 (print #2 (print #3 (stop #4))) * $",
        r"print stop stop * $",
        r"ghost #1 * $",
        r"s #1 (\x. s x stop) * $",
        r"s #1 * $",
        r"rec * #1 . #2 . stop . $",
        r"#3 * #4 . $",
        r"(\x. x x) (\x. x x) * $",
        r"(\f. f f) (\g. double #1 (g g)) * $",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_case(self, text):
        cfg = rule_config()
        p = parse_process(text, instructions=cfg.instructions | {"ghost"})
        assert_same(p, lambda: cfg, trace=True)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sink_raises_stoprun(self, k):
        cfg = rule_config()
        p = parse_process(r"print #1 (print #2 (print #3 (stop #4))) * $", instructions=cfg.instructions)
        out = assert_same(p, lambda: stop_after(k)(cfg), trace=True)
        assert out[0].kind == "aborted" and out[3] == tuple(range(1, k + 1))

    @pytest.mark.parametrize("fuel", [0, 1, 2, 7, 57])
    def test_fuel_exhaustion(self, fuel):
        cfg = rule_config(fuel=fuel)
        p = parse_process(r"(\f. f f) (\g. double #1 (g g)) * $", instructions=cfg.instructions)
        out = assert_same(p, lambda: cfg, trace=True)
        assert out[0].kind == "fuel" and out[1] == fuel

    def test_evaluation_error_is_the_same_error(self):
        # the guard names a symbol the signature lacks: eval_expr raises
        bad = InstructionRule(
            "bad", (BindNumeral("n"),), Inst("stop"), (), Guard("=", EApp("nosuch", (EVar("n"),)), EVar("n"))
        )
        cfg = replace(MachineConfig(), rules={"bad": (bad,)})
        assert assert_same(parse_process("bad #1 * $", instructions={"bad"}), lambda: cfg) == ()


class TestHa2Constants:
    """An HA2 constant is no lambda-c term: both machines carry it as data
    and raise the same TypeError once it reaches head position."""

    @pytest.mark.parametrize(
        "p",
        [
            Process(HConst("pair"), BOTTOM),
            Process(app(Lam("x", Var("x")), HConst("z0")), Push(Numeral(1), BOTTOM)),
            Process(app(Inst("cc"), Lam("k", HConst("rec"))), BOTTOM),
        ],
    )
    def test_in_head_position(self, p):
        with pytest.raises(TypeError) as expected:
            run_by_steps(p, rule_config())
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            run(p, rule_config())

    @pytest.mark.parametrize(
        "p",
        [
            Process(Lam("x", Inst("stop")), Push(HConst("sc"), Push(Numeral(3), BOTTOM))),
            Process(app(Lam("x", Lam("y", Var("y"))), HConst("fst"), Inst("stop"), Numeral(2)), BOTTOM),
            Process(
                app(Inst("cc"), Lam("k", app(Var("k"), Numeral(4)))),
                Push(Inst("stop"), Push(HConst("snd"), BOTTOM)),
            ),
        ],
    )
    def test_as_data(self, p):
        assert assert_same(p, rule_config, trace=True)


# ``RunOutcome.stats`` lists the built-in rules in this order, then user
# rules in the order they first fired; the reference counts in fired order
BUILTIN_ORDER = ("Push", "Grab", "Resume", "cc", "s", "rec-0", "rec-s", "print")


def in_rule_order(stats: dict) -> list:
    return [(k, stats[k]) for k in BUILTIN_ORDER if k in stats] + [
        (k, n) for k, n in stats.items() if k not in BUILTIN_ORDER
    ]


def assert_same_at_fuels(p: Process, cfg: MachineConfig, fuels, traced_fuels) -> None:
    """``run`` against the reference at each fuel, with the statistics in
    rule order (Push and Grab finish their own steps and Push is counted
    as the remainder), and at each of ``traced_fuels`` the rules and lines
    of ``iter_steps`` too: a trace line prints the whole process."""
    for fuel in dict.fromkeys([*fuels, *traced_fuels]):
        c = replace(cfg, fuel=fuel)
        trace = fuel in traced_fuels
        expected, got = run_by_steps(p, c, trace), run(p, c)
        assert view(got) == view(expected), fuel
        assert list(got.stats.items()) == in_rule_order(expected.stats), fuel
        if trace:
            assert traced(p, c) == (expected.fired, expected.trace), fuel


class TestFuelSweep:
    """Every fuel up to one past the halt, so every stop between two
    steps; under 5 s in all."""

    def test_compiled_product(self, sig):
        p = Process(compile_primrec("*", sig), stack_of(Numeral(3), Numeral(4), _stop_k()))
        total = run(p, MachineConfig()).steps
        assert_same_at_fuels(p, MachineConfig(), range(total + 2), [*range(12), total - 1, total, total + 1])

    def test_omega(self):
        fuels = range(40)
        assert_same_at_fuels(parse_process(r"(\x. x x) (\x. x x) * $"), MachineConfig(), fuels, fuels)

    def test_print_and_user_rules(self):
        cfg = rule_config()
        p = parse_process(
            r"double #3 (\n. print n (isz n (stop #0) (\w. print w (stop w)))) * $", instructions=cfg.instructions
        )
        out = run(p, cfg)
        assert list(out.stats) == ["Push", "Grab", "print", "double", "isz"] and out.halt.kind == "final-stop"
        fuels = range(out.steps + 2)
        assert_same_at_fuels(p, cfg, fuels, fuels)

    def test_closed_realizer(self):
        t0, sig = closed_realizer(2)
        p = Process(t0, stack_of(sigma01_wrapper()))
        cfg = MachineConfig(sig=sig)
        total = run(p, cfg).steps
        assert_same_at_fuels(p, cfg, [*range(0, total, 25), total - 1, total, total + 1], range(0, 100, 25))


def assert_steps_agree(p: Process, cfg: MachineConfig, limit: int = 400) -> set:
    """Step ``p`` with ``lamc.step`` and the reference ``step`` side by
    side: at every step the same Halt, or the same rule and the same
    printed next process.  What happened at user instructions: the rules
    fired, and "stuck" when no rule matched."""
    seen = set()
    for _ in range(limit):
        expected = machine_reference.step(p, cfg)
        got = step(p, cfg)
        at_user_rule = isinstance(p.head, Inst) and p.head.name in cfg.rules
        if isinstance(expected, Halt):
            assert got == expected, print_process(p)
            if at_user_rule:
                seen.add(expected.kind)
            break
        assert (got.rule, print_process(got.process)) == (expected.rule, print_process(expected.process))
        if at_user_rule:
            seen.add(expected.rule)
        p = expected.process
    return seen


USER_RULES = {"test_le", "double", "isz", "shadow", "tri", "ping", "pong"}


class TestStepOnUserRules:
    """``lamc.step`` takes one step of ``run`` at a user instruction."""

    def test_rule_corpus(self):
        cfg = rule_config()
        seen = set()
        for text in TestRuleCorpus.CASES:
            p = parse_process(text, instructions=cfg.instructions | {"ghost"})
            seen |= assert_steps_agree(p, cfg)
        assert seen == USER_RULES | {"stuck"}

    def test_random_applications(self):
        rng = random.Random(2026)
        cfg = rule_config()
        seen = set()
        for _ in range(300):
            head = app(Inst(rng.choice(RULE_INSTRUCTIONS)), *(_rule_arg(rng) for _ in range(rng.randint(1, 4))))
            p = Process(head, random_stack(rng, 3, instructions=RULE_INSTRUCTIONS))
            seen |= assert_steps_agree(p, cfg, limit=120)
        assert seen == USER_RULES | {"stuck"}

    def test_open_stack_is_an_error(self):
        # the substitution reference would fire here; run takes closed stacks only
        p = Process(Inst("double"), stack_of(Numeral(2), Var("y")))
        with pytest.raises(MachineError, match="ill-formed process: stack is not closed"):
            step(p, rule_config())
