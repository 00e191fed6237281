import random
import sys

import pytest

from lamc import cps_process, machine
from lamc.arith import EVar, parse_expr
from lamc.demo import closed_realizer
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
    Next,
    RuleError,
    TExpr,
    iter_steps,
    macro_rule,
    register_batch,
    register_instruction,
    run,
    step,
)
from lamc.stdlib import church, church_to_lazy, lazy_numeral, lazy_to_church
from lamc.syntax import (
    App,
    BOTTOM,
    Inst,
    Kont,
    Lam,
    Numeral,
    ParseError,
    Process,
    Push,
    Term,
    Var,
    extend_stack_bottom,
    parse_process,
    print_process,
    stack_of,
)

import machine_reference
from gen import random_hterm, random_process, random_stack, random_term


def proc(src, **kw):
    return parse_process(src, **kw)


class TestBaseRules:
    def test_push(self, cfg):
        out = step(proc(r"(\x. x) stop * $"), cfg)
        assert out == Next(Process(Lam("x", Var("x")), stack_of(Inst("stop"))), "Push")

    def test_grab(self, cfg):
        out = step(proc(r"\x. x x * stop . $"), cfg)
        assert out == Next(proc("stop stop * $"), "Grab")

    def test_grab_underflow_is_stuck(self, cfg):
        assert step(proc(r"(\x. x) * $"), cfg) == Halt("stuck")

    def test_callcc(self, cfg):
        out = step(proc(r"cc * (\x. x) . #3 . $"), cfg)
        pi = stack_of(Numeral(3))
        assert out == Next(Process(Lam("x", Var("x")), Push(Kont(pi), pi)), "cc")

    def test_resume(self, cfg):
        saved = stack_of(Numeral(1))
        p = Process(Kont(saved), stack_of(Inst("stop"), Numeral(9)))
        out = step(p, cfg)
        assert out == Next(Process(Inst("stop"), saved), "Resume")

    def test_succ(self, cfg):
        out = step(proc(r"s * #3 . (\u. u) . $"), cfg)
        assert out == Next(Process(Lam("u", Var("u")), stack_of(Numeral(4))), "s")

    def test_rec_zero(self, cfg):
        out = step(proc("rec * stop . cc . #0 . $"), cfg)
        assert out == Next(proc("stop * $"), "rec-0")

    def test_rec_succ(self, cfg):
        out = step(proc("rec * stop . cc . #3 . $"), cfg)
        assert out == Next(proc("cc * #2 . (rec stop cc #2) . $"), "rec-s")

    def test_print_emits(self):
        emitted = []
        cfg = MachineConfig(sink=emitted.append)
        out = step(proc("print * #7 . stop . $"), cfg)
        assert out == Next(proc("stop * $"), "print")
        assert emitted == [7]

    def test_print_without_numeral_is_stuck(self, cfg):
        assert step(proc("print * stop . stop . $"), cfg) == Halt("stuck")

    def test_stop_with_numeral_halts(self, cfg):
        assert step(proc("stop * #5 . $"), cfg) == Halt("final-stop", 5)

    def test_stop_without_numeral_is_stuck(self, cfg):
        assert step(proc("stop * cc . $"), cfg) == Halt("stuck")

    def test_numeral_in_head_is_stuck(self, cfg):
        assert step(proc("#3 * $"), cfg) == Halt("stuck")

    def test_open_head_is_an_error(self, cfg):
        with pytest.raises(MachineError):
            run(Process(Var("x"), BOTTOM), cfg)

    def test_open_stack_is_an_error(self, cfg):
        # substituting y under \y would rename the binder: \y'. y * $
        p = Process(Lam("x", Lam("y", Var("x"))), stack_of(Var("y")))
        with pytest.raises(MachineError, match="ill-formed process: stack is not closed"):
            run(p, cfg)
        # a continuation's saved stack is closed by construction
        with pytest.raises(ParseError, match="^1:11: saved stacks are closed: free variable 'y'$"):
            parse_process(r"(\x. x) * k[y . $] . $")
        with pytest.raises(ValueError, match="^saved stacks are closed: free variable 'y'$"):
            Kont(stack_of(Var("y")))


class TestRun:
    def test_stop_numeral(self, cfg):
        out = run(proc("stop #5 * $"), cfg)
        assert out.halt == Halt("final-stop", 5)
        assert out.steps == 1 and out.stats == {"Push": 1}

    def test_rec_base(self, cfg):
        out = run(proc(r"rec (stop #0) (\p r. r) #0 * $"), cfg)
        assert out.halt == Halt("final-stop", 0)

    def test_rec_iterates(self, cfg):
        out = run(proc(r"rec (stop #0) (\p r. r) #4 * $"), cfg)
        assert out.halt == Halt("final-stop", 0)
        assert out.stats["rec-s"] == 4 and out.stats["rec-0"] == 1

    def test_fuel_exhaustion(self):
        cfg = MachineConfig(fuel=10)
        out = run(proc(r"(\x. x x) (\x. x x) * $"), cfg)
        assert out.halt == Halt("fuel")
        assert out.steps == 10

    def test_stats_conservation(self, cfg):
        rng = random.Random(13)
        for _ in range(200):
            p = random_process(rng)
            out = run(p, MachineConfig(fuel=300))
            assert sum(out.stats.values()) == out.steps

    def test_determinism_double_run(self, cfg):
        rng = random.Random(14)
        for _ in range(100):
            p = random_process(rng)
            a = run(p, MachineConfig(fuel=200))
            b = run(p, MachineConfig(fuel=200))
            assert a.final == b.final and a.stats == b.stats and a.printed == b.printed

    def test_trace_lines(self):
        steps = iter_steps(proc("stop #5 * $"), MachineConfig())
        assert [(n.rule, print_process(n.process)) for n in steps] == [("Push", "stop * #5 . $")]

    def test_instruction_calls_counts_final_stop(self, cfg):
        out = run(proc("stop #5 * $"), cfg)
        calls = out.instruction_calls()
        assert calls["stop"] == 1 and calls["Push"] == 1


class TestStackExtension:
    def test_substitutivity_of_evaluation(self):
        # if p > p' then p{<>:=pi0} > p'{<>:=pi0}, same rule
        rng = random.Random(15)
        cfg = MachineConfig()
        checked = 0
        for _ in range(400):
            p = random_process(rng, depth=5)
            pi0 = random_stack(rng, depth=3)
            result = step(p, cfg)
            if not isinstance(result, Next):
                continue
            checked += 1
            extended = step(extend_stack_bottom(p, pi0), cfg)
            assert isinstance(extended, Next)
            assert extended.rule == result.rule
            assert extended.process == extend_stack_bottom(result.process, pi0)
        assert checked > 150


class TestRegistration:
    def nat_guard_rules(self):
        return [
            InstructionRule(
                "test_le",
                (BindNumeral("n"), BindNumeral("m"), BindTerm("u"), BindTerm("v")),
                Var("u"),
                (),
                Guard("<=", EVar("n"), EVar("m")),
            ),
            InstructionRule(
                "test_le",
                (BindNumeral("n"), BindNumeral("m"), BindTerm("u"), BindTerm("v")),
                Var("v"),
            ),
        ]

    def test_guarded_dispatch(self, cfg, sig):
        cfg = register_instruction(cfg, "test_le", self.nat_guard_rules())
        insts = cfg.instructions
        out = run(proc("test_le #2 #5 (stop #1) (stop #0) * $", instructions=insts), cfg)
        assert out.halt.value == 1
        out = run(proc("test_le #5 #2 (stop #1) (stop #0) * $", instructions=insts), cfg)
        assert out.halt.value == 0
        assert out.stats["test_le"] == 1

    def test_macro_definition(self, cfg):
        pair = Lam("x", Lam("y", Lam("z", App(App(Var("z"), Var("x")), Var("y")))))
        cfg = register_instruction(cfg, "pair", [macro_rule("pair", pair)])
        p = proc("pair #1 #2 (\\a b. stop a) * $", instructions=cfg.instructions)
        out = run(p, cfg)
        assert out.halt.value == 1

    def test_reserved_name_rejected(self, cfg):
        with pytest.raises(RuleError, match="reserved"):
            register_instruction(cfg, "cc", [macro_rule("cc", Inst("stop"))])
        with pytest.raises(RuleError, match="reserved"):
            register_instruction(cfg, "callcc", [macro_rule("callcc", Inst("stop"))])

    def test_duplicate_rejected(self, cfg):
        cfg = register_instruction(cfg, "idle", [macro_rule("idle", Lam("x", Var("x")))])
        with pytest.raises(RuleError, match="already defined"):
            register_instruction(cfg, "idle", [macro_rule("idle", Lam("x", Var("x")))])

    def test_unbound_rhs_variable_rejected(self, cfg):
        bad = InstructionRule("f", (BindTerm("u"),), Var("w"))
        with pytest.raises(RuleError, match="unbound"):
            register_instruction(cfg, "f", [bad])

    def test_unknown_instruction_in_rhs_rejected(self, cfg):
        bad = InstructionRule("f", (BindTerm("u"),), Inst("ghost"))
        with pytest.raises(RuleError, match="unknown instruction"):
            register_instruction(cfg, "f", [bad])

    def test_mutual_batch_allows_cross_reference(self, cfg):
        ping = InstructionRule("ping", (BindTerm("u"),), App(Inst("pong"), Var("u")))
        pong = InstructionRule("pong", (BindTerm("u"),), Var("u"))
        cfg = register_batch(cfg, {"ping": [ping], "pong": [pong]})
        out = run(proc("ping (stop #3) * $", instructions=cfg.instructions), cfg)
        assert out.halt.value == 3

    def test_shadowed_rule_rejected(self, cfg):
        rules = [
            InstructionRule("f", (BindTerm("u"),), Var("u")),
            InstructionRule("f", (BindNumeral("n"),), Var("n")),
        ]
        with pytest.raises(RuleError, match="shadowed"):
            register_instruction(cfg, "f", rules)

    def test_guard_over_term_variable_rejected(self, cfg):
        bad = InstructionRule(
            "f", (BindTerm("u"),), Var("u"), (), Guard("=", EVar("u"), EVar("u"))
        )
        with pytest.raises(RuleError, match="non-numeral"):
            register_instruction(cfg, "f", [bad])

    def test_kont_in_rule_rejected(self, cfg):
        bad = InstructionRule("f", (), Kont(BOTTOM))
        with pytest.raises(RuleError, match="continuation"):
            register_instruction(cfg, "f", [bad])

    def test_computed_numeral_template(self, cfg, sig):
        rule = InstructionRule(
            "double",
            (BindNumeral("n"), BindTerm("u")),
            Var("u"),
            (TExpr(parse_expr("2 * n", sig)),),
        )
        cfg = register_instruction(cfg, "double", [rule])
        out = run(proc("double #21 stop * $", instructions=cfg.instructions), cfg)
        assert out.halt.value == 42

    def test_literal_numeral_pattern(self, cfg):
        rules = [
            InstructionRule("isz", (LitNumeral(0), BindTerm("u"), BindTerm("v")), Var("u")),
            InstructionRule("isz", (BindNumeral("n"), BindTerm("u"), BindTerm("v")), Var("v")),
        ]
        cfg = register_instruction(cfg, "isz", rules)
        insts = cfg.instructions
        assert run(proc("isz #0 (stop #1) (stop #0) * $", instructions=insts), cfg).halt.value == 1
        assert run(proc("isz #9 (stop #1) (stop #0) * $", instructions=insts), cfg).halt.value == 0


class TestRuleCode:
    """Each rule is checked and compiled once, and keeps its code: runs
    that share a configuration compile nothing again."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        import lamc.machine as machine

        seen = []
        compile_rule = machine._compile_rule

        def counting(rule):
            seen.append(rule)
            return compile_rule(rule)

        monkeypatch.setattr(machine, "_compile_rule", counting)
        return seen

    def rules(self):
        return TestRegistration().nat_guard_rules()

    def test_registration_compiles_each_rule_once(self, compiled):
        rules = self.rules()
        cfg = register_instruction(MachineConfig(), "test_le", rules)
        assert [id(r) for r in compiled] == [id(r) for r in rules]
        for args in ("#2 #5", "#5 #2"):
            p = proc(f"test_le {args} (stop #1) (stop #0) * $", instructions=cfg.instructions)
            first, second = run(p, cfg), run(p, cfg)
            assert first == second and first.stats["test_le"] == 1
        assert len(compiled) == len(rules)

    def test_unregistered_rules_compile_when_first_tried(self, compiled):
        from dataclasses import replace

        rules = self.rules()
        cfg = replace(MachineConfig(), rules={"test_le": tuple(rules)})
        p = proc("test_le #2 #5 (stop #1) (stop #0) * $", instructions=cfg.instructions)
        assert run(p, cfg).halt.value == 1 and run(p, cfg).halt.value == 1
        assert [id(r) for r in compiled] == [id(rules[0])]
        p = proc("test_le #5 #2 (stop #1) (stop #0) * $", instructions=cfg.instructions)
        assert run(p, cfg).halt.value == 0 and run(p, cfg).halt.value == 0
        assert [id(r) for r in compiled] == [id(r) for r in rules]

    def test_script_jobs_compile_the_demo_rules_once(self, compiled):
        from lamc.demo import build_script
        from lamc.script import ScriptRunner, parse_script

        runner = ScriptRunner()
        result = runner.execute(parse_script(build_script(10) + "Extract sigma01 realizer with fleq;"))
        assert [doc["kind"] for doc in result.doc["statements"]] == ["eval", "extract"]
        registered = [r for rules in runner.cfg.rules.values() for r in rules]
        assert sorted(map(id, compiled)) == sorted(map(id, registered))


class TestCompileWalk:
    """``_compile`` against the walk it replaced (``machine_reference.compile``):
    the same code tuples, the same closed code shared, the same errors."""

    def assert_same_code(self, terms, scope=()):
        # compiled with one memo per walk, as ``run`` compiles a head and its stack
        memo, ref_memo = {}, {}
        got = [machine._compile(t, scope, memo) for t in terms]
        want = [machine_reference.compile(t, scope, ref_memo) for t in terms]
        # a node of one walk stands for one node of the other, and each pair
        # is compared once, so shared code is walked once
        ids: dict = {}
        todo = list(zip(got, want))
        while todo:
            a, b = todo.pop()
            if ids.setdefault(id(a), id(b)) != id(b) or ids.setdefault(-id(b), -id(a)) != -id(a):
                pytest.fail(f"shared differently: {a[4]!r}")
            tag = a[0]
            assert len(a) == len(b) and (tag, a[3]) == (b[0], b[3]) and a[4] is b[4]
            if tag == machine._APP:
                todo += ((a[1], b[1]), (a[2], b[2]))
                # the argument's closure, its environment index, or None
                assert type(a[5]) is type(b[5])
                if type(a[5]) is tuple:
                    assert a[5] == (a[2], None) and b[5] == (b[2], None)
                else:
                    assert a[5] == b[5]
            elif tag == machine._LAM:
                todo.append((a[1], b[1]))
                assert a[2] is b[2] is None
            elif tag == machine._KONT:
                cell, ref_cell = a[1], b[1]
                while cell is not None:
                    todo.append((cell[0][0], ref_cell[0][0]))
                    assert cell[0][1] is ref_cell[0][1] is None
                    cell, ref_cell = cell[1], ref_cell[1]
                assert ref_cell is None
            else:
                assert a == b
        return got

    def test_random_hterms(self):
        rng = random.Random(611)
        for i in range(400):
            t = random_hterm(rng, rng.randint(0, 6), closed=i % 2 == 0)
            self.assert_same_code([t, App(t, t), t], tuple(sorted(t.fv)))

    def test_random_lambda_c_terms(self):
        rng = random.Random(612)
        for _ in range(400):
            p = random_process(rng)
            self.assert_same_code([p.head, *p.stack])

    def test_rule_templates(self):
        rng = random.Random(613)
        for _ in range(200):
            leaves = []

            def template(depth, bound):
                kinds = ("var", "expr", "leaf", "lam", "app", "app")
                kind = rng.choice(kinds if depth else kinds[:3])
                if kind == "var":
                    return Var(rng.choice(bound))
                if kind == "expr":
                    leaves.append(TExpr(EVar("n")))
                    return leaves[-1]
                if kind == "leaf":
                    return rng.choice((Numeral(2), Inst("s"), Inst("test_le")))
                if kind == "lam":
                    binder = rng.choice(("u", "n", "x"))
                    return Lam(binder, template(depth - 1, bound + (binder,)))
                return App(template(depth - 1, bound), template(depth - 1, bound))

            rhs = [template(rng.randint(0, 5), ("u", "n")) for _ in range(3)]
            self.assert_same_code(rhs, ("u", "n", *map(id, leaves)))

    def test_continuations_and_shared_closed_terms(self):
        rng = random.Random(614)
        for _ in range(200):
            shared = random_term(rng, rng.randint(1, 4))
            k = Kont(Push(shared, random_stack(rng)))
            t = App(App(Lam("x", App(Var("x"), shared)), Kont(Push(k, Push(shared, BOTTOM)))), k)
            code, shared_code, k_code = self.assert_same_code([t, shared, k])
            assert code[2] is k_code
            assert (code[1][1][1][2] is shared_code) == isinstance(shared, (App, Lam))
        image = cps_process(Process(closed_realizer(2)[0], Push(sigma01_wrapper(), BOTTOM)))
        self.assert_same_code([image])

    def test_errors(self):
        class Odd(Term):
            fv = frozenset()

        for t, scope in [
            (Var("zz"), ()),
            (Lam("x", App(Var("x"), Var("y"))), ("u",)),
            (TExpr(EVar("n")), ("n",)),
            (App(Odd(), Numeral(1)), ()),
            (Odd(), ()),
            (5, ()),
            ("x", ()),
            (BOTTOM, ()),
        ]:
            raised = []
            for walk in (machine._compile, machine_reference.compile):
                with pytest.raises((RuleError, TypeError)) as err:
                    walk(t, scope, {})
                raised.append((err.type, str(err.value)))
            assert raised[0] == raised[1]


class TestNumeralConversions:
    def test_church_lazy_round_trip(self, cfg):
        c2l, l2c = church_to_lazy(), lazy_to_church()
        for n in range(51):
            t = App(c2l, App(l2c, lazy_numeral(n)))
            out = run(Process(t, stack_of(Inst("stop"))), cfg)
            assert out.halt == Halt("final-stop", n)

    def test_church_to_lazy_behaves_as_lazy(self, cfg):
        c2l = church_to_lazy()
        for n in (0, 1, 2, 10, 30):
            out = run(Process(App(c2l, church(n)), stack_of(Inst("stop"))), cfg)
            assert out.halt == Halt("final-stop", n)

    def test_lazy_numeral_two_steps(self, cfg):
        out = run(Process(lazy_numeral(7), stack_of(Inst("stop"))), cfg)
        assert out.steps == 2 and out.halt == Halt("final-stop", 7)


class TestDeepInput:
    """Compiling, running and reading back walk no Python stack: checked at
    Python's default recursion limit, which conftest raises."""

    def run_at_default_limit(self, p):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            out = run(p, MachineConfig())
            return out, print_process(out.final)
        finally:
            sys.setrecursionlimit(limit)

    def test_deep_head(self):
        # 10^5 nested (\x. x) applications around stop #0
        t = App(Inst("stop"), Numeral(0))
        for _ in range(100_000):
            t = App(Lam("x", Var("x")), t)
        out, final = self.run_at_default_limit(Process(t, BOTTOM))
        assert final == "stop * #0 . $"
        assert out.steps == 200_001 and out.halt == Halt("final-stop", 0)

    def test_deep_final_process(self):
        # \x y ... y. x applied to stop: 10^5 binders read back
        t = Var("x")
        for _ in range(100_000):
            t = Lam("y", t)
        out, final = self.run_at_default_limit(Process(App(Lam("x", t), Inst("stop")), BOTTOM))
        assert out.halt == Halt("stuck") and out.steps == 2
        assert final == "\\" + " ".join(["y"] * 100_000) + ". stop * $"
