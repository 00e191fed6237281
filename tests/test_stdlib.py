import gc
import itertools

from lamc.arith import EApp, eval_expr, expr_of_nat, parse_expr
from lamc.demo import instruction_config, oracle_guesses
from lamc.machine import MachineConfig, iter_steps, run
from lamc.stdlib import (
    catalog,
    church,
    compile_primrec,
    lazy_numeral,
    make_pair,
    peano_axiom_terms,
    test_le_term as build_test_le_term,
    turing_fixpoint,
)
from lamc.syntax import (
    App,
    BOTTOM,
    Inst,
    Lam,
    Numeral,
    Process,
    Var,
    is_closed,
    is_proof_like,
    parse_term,
    print_term,
    stack_of,
)

from helpers import computes_value, test_le_rules as build_test_le_rules


class TestNumeralBuilders:
    def test_church_zero(self):
        assert church(0) == parse_term(r"\x f. x")

    def test_church_two(self):
        assert church(2) == parse_term(r"\x f. f (f x)")

    def test_church_one_machine_behavior(self, cfg):
        # church(1) applied to (a, g) brings g to head facing a
        p = Process(App(App(church(1), Inst("stop")), Lam("w", App(Var("w"), Numeral(1)))), BOTTOM)
        out = run(p, cfg)
        assert out.halt.kind == "final-stop"

    def test_lazy_numeral_shape(self):
        assert lazy_numeral(0) == parse_term(r"\x. x #0")
        assert lazy_numeral(7) == parse_term(r"\x. x #7")

    def test_lazy_numeral_proof_like(self):
        assert all(is_proof_like(lazy_numeral(n)) for n in range(20))


class TestPairEncoding:
    def test_first_projection(self, cfg):
        p = Process(make_pair(Inst("stop"), Inst("cc")), stack_of(parse_term(r"\x y. x"), Numeral(1)))
        out = run(p, cfg)
        assert out.halt == run(Process(Inst("stop"), stack_of(Numeral(1))), cfg).halt

    def test_second_projection(self, cfg):
        p = Process(make_pair(Inst("cc"), parse_term("stop #2")), stack_of(parse_term(r"\x y. y")))
        assert run(p, cfg).halt.value == 2

    def test_printed_form(self):
        assert print_term(catalog()["pair"].term) == r"\x y z. z x y"


class TestTuringFixpoint:
    def test_unfolds_to_f_of_yf(self, cfg):
        # Y * F . pi reaches F * (Y F) . pi within a few steps
        Y = turing_fixpoint()
        p = Process(Y, stack_of(Inst("stop")))
        out = run(p, MachineConfig(fuel=10))
        assert out.final == Process(Inst("stop"), stack_of(App(Y, Inst("stop"))))

    def test_closed_and_proof_like(self):
        Y = turing_fixpoint()
        assert is_closed(Y) and is_proof_like(Y)

    def test_round_trips_through_printer(self):
        Y = turing_fixpoint()
        assert parse_term(print_term(Y)) == Y


class TestCompilePrimrec:
    def test_pred(self, sig):
        t = compile_primrec("pred", sig)
        assert computes_value(t, (5,)) == 4
        assert computes_value(t, (0,)) == 0

    def test_plus(self, sig):
        t = compile_primrec("+", sig)
        assert computes_value(t, (2, 3)) == 5

    def test_minus_truncates(self, sig):
        t = compile_primrec("minus", sig)
        assert computes_value(t, (3, 5)) == 0
        assert computes_value(t, (5, 3)) == 2

    def test_exhaustive_against_eval(self, sig):
        # machine result equals the expression evaluator on all small inputs
        for name in ("pred", "neg"):
            t = compile_primrec(name, sig)
            for n in range(13):
                expected = eval_expr(EApp(name, (expr_of_nat(n),)), {}, sig)
                assert computes_value(t, (n,)) == expected
        for name in ("+", "minus"):
            t = compile_primrec(name, sig)
            for a, b in itertools.product(range(9), repeat=2):
                expected = eval_expr(EApp(name, (expr_of_nat(a), expr_of_nat(b))), {}, sig)
                assert computes_value(t, (a, b)) == expected

    def test_composite_symbol(self, sig):
        from lamc.arith import Equation, Pattern

        sig2 = sig.define(
            "dist3",
            1,
            [Equation((Pattern("var", "x"),), parse_expr("minus(x, 3) + minus(3, x)", sig))],
        )
        t = compile_primrec("dist3", sig2)
        for n in range(10):
            assert computes_value(t, (n,)) == abs(n - 3)

    def test_compiled_terms_are_proof_like(self, sig):
        for name in ("pred", "neg", "+", "*", "minus"):
            t = compile_primrec(name, sig)
            assert is_closed(t) and is_proof_like(t)


class TestTestLe:
    def probe(self, cfg, t, n, m):
        p = Process(t, stack_of(Numeral(n), Numeral(m), parse_term("stop #1"), parse_term("stop #0")))
        return run(p, cfg).halt.value

    def test_term_contract(self, cfg, sig):
        t = build_test_le_term(sig)
        assert self.probe(cfg, t, 2, 2) == 1
        assert self.probe(cfg, t, 5, 2) == 0
        assert self.probe(cfg, t, 2, 5) == 1

    def test_term_and_builtin_agree(self, sig):
        from lamc.machine import register_instruction

        cfg = register_instruction(MachineConfig(), "test_le", build_test_le_rules())
        term = build_test_le_term(sig)
        for n, m in itertools.product(range(21), repeat=2):
            via_term = self.probe(cfg, term, n, m)
            via_rules = self.probe(cfg, Inst("test_le"), n, m)
            assert via_term == via_rules == (1 if n <= m else 0)


class TestPeanoTerms:
    def test_shapes(self):
        terms = peano_axiom_terms()
        assert terms["peano3"] == parse_term(r"\z. z")
        assert terms["peano4"] == parse_term(r"\z. z (\w. w)")

    def test_proof_like(self):
        assert all(is_proof_like(t) for t in peano_axiom_terms().values())


class TestMinPrinciple:
    def test_save_and_restore_counts(self):
        # one call/cc, one continuation resume per wrong guess
        cfg = instruction_config(10)
        p = Process(
            Inst("realizer"),
            stack_of(parse_term(r"\x y. print x y (stop x)", instructions=cfg.instructions)),
        )
        out = run(p, cfg)
        witness, guesses = oracle_guesses(10)
        assert out.halt.value == witness
        assert out.stats["cc"] == 1
        assert out.stats["Resume"] == len(guesses) - 1

    def test_one_f_and_one_test_le_between_resumes(self):
        # between consecutive resumes exactly one f evaluation and one
        # comparison happen: the hand-built realizer is optimal
        cfg = instruction_config(10)
        p = Process(
            Inst("realizer"),
            stack_of(parse_term(r"\x y. print x y (stop x)", instructions=cfg.instructions)),
        )
        fired = [n.rule for n in iter_steps(p, cfg)]
        resumes = [i for i, r in enumerate(fired) if r == "Resume"]
        for a, b in zip(resumes, resumes[1:]):
            window = fired[a + 1 : b]
            assert window.count("f") == 1
            assert window.count("test_le") == 1

    def test_term_build_and_instruction_build_agree(self, cfg):
        # same guesses and final state; only Push/Grab counts differ
        from lamc.demo import closed_realizer
        from lamc.extract import sigma01_wrapper

        icfg = instruction_config(10)
        p_inst = Process(
            Inst("realizer"),
            stack_of(parse_term(r"\x y. print x y (stop x)", instructions=icfg.instructions)),
        )
        out_inst = run(p_inst, icfg)

        t0, _ = closed_realizer(10)
        p_term = Process(t0, stack_of(sigma01_wrapper(trace_guesses=True)))
        out_term = run(p_term, cfg)

        assert out_inst.printed == out_term.printed
        assert out_inst.halt == out_term.halt
        assert out_inst.stats["Push"] != out_term.stats["Push"]


class TestCatalog:
    def test_entries_closed_and_proof_like(self):
        for named in catalog().values():
            assert is_closed(named.term), named.name
            assert is_proof_like(named.term), named.name

    def test_expected_names(self):
        names = set(catalog())
        assert {"I", "pair", "Y", "peano3", "peano4", "test_le", "min_aux", "min_princ"} <= names


def test_compile_primrec_leaves_no_cycles(sig):
    # everything a compilation builds is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for name in ("minus", "*"):
            assert compile_primrec(name, sig) is not None
            assert gc.collect() == 0
    finally:
        gc.enable()
