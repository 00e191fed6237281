import random

import pytest

from lamc.arith import EVar, default_signature
from lamc.formulas import (
    All1,
    All2,
    And,
    Brace,
    Ex1,
    Imp,
    Nat,
    Null,
    PredVar,
    normalize_formula_ha2,
    parse_formula,
    parse_hformula,
    subst_expr1,
    subst_pred,
)
from lamc.ha2 import hnumeral, parse_hterm
from lamc.negtrans import (
    BraceDecl,
    CpsMemo,
    MAX_CPS_NUMERAL,
    ReturnFormula,
    TranslationError,
    cps_process,
    cps_stack,
    cps_term,
    formula_bot,
    formula_nn,
    inline_instructions,
    sigma01_return_formula,
    translate_context,
)
from lamc.syntax import (
    BOTTOM,
    Inst,
    Kont,
    Numeral,
    Push,
    Var,
    free_vars,
    parse_process,
    parse_term,
    print_process,
    print_term,
    stack_of,
)

import negtrans_reference as cps_ref
import syntax_reference as ref
from gen import random_expr, random_pa2_formula, random_congruent_expr, random_process

R = ReturnFormula(PredVar("R"))


@pytest.fixture(scope="module")
def SIG():
    return default_signature()


def bot(src, SIG):
    return formula_bot(parse_formula(src, SIG), R)


class TestFormulaTranslation:
    def test_forall_first_order(self, SIG):
        assert bot("forall x. A(x)", SIG) == parse_hformula("exists x. A(x)", SIG)

    def test_null(self, SIG):
        assert bot("null(y)", SIG) == parse_hformula("null(neg(y))", SIG)

    def test_brace(self, SIG):
        assert bot("{y} -> B", SIG) == And(Nat(EVar("y")), PredVar("B"))

    def test_implication(self, SIG):
        out = bot("A -> B", SIG)
        assert out == And(Imp(PredVar("A"), PredVar("R")), PredVar("B"))

    def test_forall_second_order(self, SIG):
        assert bot("forall X. X", SIG) == parse_hformula("exists X. X", SIG)

    def test_nn_is_bot_imp_r(self, SIG):
        f = parse_formula("X", SIG)
        assert formula_nn(f, R) == Imp(PredVar("X"), PredVar("R"))

    def test_pole_variable_not_captured(self, SIG):
        pole = ReturnFormula(parse_hformula("null(x)", SIG))
        out = formula_bot(parse_formula("forall x. A(x) -> A(x)", SIG), pole)
        # the bound x must have been renamed away from FV(R)
        assert isinstance(out, Ex1) and out.x != "x"

    def test_sigma01_return_formula(self, SIG):
        out = sigma01_return_formula("pred")
        assert out.formula == parse_hformula("exists x. nat(x) /\\ null(pred(x))", SIG)

    def test_context_translation(self, SIG):
        ctx = [("x", BraceDecl(EVar("e"))), ("y", parse_formula("A", SIG))]
        out = translate_context(ctx, R)
        assert out[0] == ("x", Nat(EVar("e")))
        assert out[1] == ("y", Imp(PredVar("A"), PredVar("R")))


class TestTransSubstProperty:
    def test_first_order(self, SIG):
        rng = random.Random(31)
        for _ in range(300):
            a = random_pa2_formula(rng, 3)
            e = random_expr(rng, 2)
            lhs = formula_bot(subst_expr1(a, "x", e), R)
            rhs = subst_expr1(formula_bot(a, R), "x", e)
            assert lhs == rhs

    def test_second_order(self, SIG):
        rng = random.Random(32)
        for _ in range(300):
            a = random_pa2_formula(rng, 3)
            b = random_pa2_formula(rng, 2, quantifiers=False, brace=False)
            lhs = formula_bot(subst_pred(a, "X", ("x",), b), R)
            rhs = subst_pred(formula_bot(a, R), "X", ("x",), formula_bot(b, R))
            assert lhs == rhs


class TestConvSoundProperty:
    def test_congruent_formulas_translate_congruently(self, SIG):
        rng = random.Random(33)
        for _ in range(300):
            a = random_pa2_formula(rng, 3)
            a2 = _mutate_exprs(rng, a)
            lhs = normalize_formula_ha2(formula_bot(a, R), SIG)
            rhs = normalize_formula_ha2(formula_bot(a2, R), SIG)
            assert lhs == rhs

    def test_null_succ_case(self, SIG):
        # (null(s(e)))^bot = null(neg(s(e))) ~ null(0) ~ top = (bot)^bot
        lhs = normalize_formula_ha2(bot("null(s(y))", SIG), SIG)
        rhs = normalize_formula_ha2(bot("bot", SIG), SIG)
        assert lhs == rhs


def _mutate_exprs(rng, f):
    """Replace each arithmetic expression by a random congruent one."""
    def m(e):
        return random_congruent_expr(rng, e, moves=rng.randint(0, 3))

    def go(g):
        match g:
            case Null(e):
                return Null(m(e))
            case PredVar(name, args):
                return PredVar(name, tuple(m(a) for a in args))
            case Imp(a, b):
                return Imp(go(a), go(b))
            case Brace(e, b):
                return Brace(m(e), go(b))
            case All1(x, body):
                return All1(x, go(body))
            case All2(x, arity, body):
                return All2(x, arity, go(body))

    return go(f)


class TestConvForall:
    def test_normalization_identity(self, SIG):
        rng = random.Random(34)
        for _ in range(100):
            a = random_pa2_formula(rng, 3)
            lhs = normalize_formula_ha2(formula_nn(All1("x", a), R), SIG)
            rhs = normalize_formula_ha2(All1("x", formula_nn(a, R)), SIG)
            assert lhs == rhs


class TestCpsTerm:
    def test_variable(self):
        assert cps_term(Var("x")) == parse_hterm("x")

    def test_numeral(self):
        assert cps_term(Numeral(3)) == hnumeral(3)

    def test_application(self):
        out = cps_term(parse_term("f x"))
        assert out == parse_hterm(r"\k. f <x; k>")

    def test_abstraction(self):
        out = cps_term(parse_term(r"\x. x"))
        assert out == parse_hterm(r"\k. (\x k2. x k2) (fst k) (snd k)")

    def test_stop_is_identity(self):
        assert cps_term(Inst("stop")) == parse_hterm(r"\z. z")

    def test_cc_shape(self):
        out = cps_term(Inst("cc"))
        expected = parse_hterm(
            r"\k. (\x k1. x <\k2. (\y w. y k1) (fst k2) (snd k2); k1>) (fst k) (snd k)"
        )
        assert out == expected

    def test_kont(self):
        out = cps_term(Kont(Push(Numeral(1), BOTTOM)))
        assert out == parse_hterm(r"\k. (\x w. x <sc z0; z0>) (fst k) (snd k)")

    def test_print_rejected(self):
        with pytest.raises(TranslationError, match="kamikaze"):
            cps_term(Inst("print"))

    def test_user_instruction_rejected(self):
        with pytest.raises(TranslationError, match="no CPS translation"):
            cps_term(Inst("mystery"))

    def test_numeral_above_the_bound_rejected_before_its_image(self):
        import tracemalloc

        tracemalloc.start()
        try:
            for n in (MAX_CPS_NUMERAL + 1, 10**20):
                with pytest.raises(TranslationError, match="numeral too large to translate"):
                    cps_term(Numeral(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_non_term_rejected(self):
        with pytest.raises(TypeError, match="not a term"):
            cps_term(BOTTOM)

    def test_closedness_preserved(self):
        rng = random.Random(35)
        from gen import random_term

        for _ in range(150):
            t = random_term(rng, 4, closed=bool(rng.getrandbits(1)))
            image = cps_term(t)
            assert free_vars(image) == free_vars(t)

    def test_binders_named_like_fresh_names_are_not_captured(self):
        for src, plain in ((r"\k2. k2 k2", r"\a. a a"), (r"\k1 k3. k3 (k1 k3)", r"\a b. b (a b)")):
            assert cps_term(parse_term(src)) == cps_term(parse_term(plain)), src
        assert cps_stack(stack_of(parse_term(r"\k1. k1"))) == cps_stack(stack_of(parse_term(r"\a. a")))
        # a free k-name stays free
        from lamc.syntax import substitute

        image = cps_term(parse_term(r"\x. k1 x"))
        assert image == substitute(cps_term(parse_term(r"\x. q x")), "q", Var("k1"))

    def test_substitution_commutes_with_translation(self):
        rng = random.Random(36)
        from gen import random_term
        from lamc.syntax import substitute

        for _ in range(150):
            t = random_term(rng, 4, closed=False)
            u = random_term(rng, 3, closed=True)
            lhs = cps_term(substitute(t, "a", u))
            rhs = substitute(cps_term(t), "a", cps_term(u))
            assert lhs == rhs


class TestCpsStackProcess:
    def test_bottom(self):
        assert cps_stack(BOTTOM) == parse_hterm("z0")

    def test_cons(self):
        out = cps_stack(stack_of(Inst("stop")))
        assert out == parse_hterm(r"<\z. z; z0>")

    def test_wrapper_stack(self):
        u = parse_term(r"\x y. y (stop x)")
        out = cps_stack(stack_of(u))
        assert print_term(out).startswith("<")

    def test_process(self):
        out = cps_process(parse_process("stop * #3 . $"))
        assert out == parse_hterm(r"(\z. z) <sc (sc (sc z0)); z0>")

    def test_demo_process_is_closed(self):
        from lamc.demo import closed_realizer
        from lamc.extract import sigma01_wrapper
        from lamc.syntax import Process

        t0, _ = closed_realizer(5)
        image = cps_process(Process(t0, stack_of(sigma01_wrapper())))
        assert free_vars(image) == frozenset()


def _steps(p, fuel):
    """(process, successor) for at most fuel machine steps from p."""
    from lamc.machine import MachineConfig, Next, step

    cfg = MachineConfig()
    for _ in range(fuel):
        nxt = step(p, cfg)
        if not isinstance(nxt, Next):
            return
        yield p, nxt.process
        p = nxt.process


class TestCpsMemo:
    """Images through a memo chained along a run, as the simulator makes
    them, against the translation without a memo."""

    def test_random_runs(self):
        rng = random.Random(37)
        for _ in range(60):
            memo = None
            for p, p2 in _steps(random_process(rng), 25):
                memo = CpsMemo(memo)
                assert ref.alpha_eq(cps_process(p, memo), cps_ref.cps_process(p))
                assert ref.alpha_eq(cps_term(p2.head, memo), cps_ref.cps_term(p2.head))
                assert ref.alpha_eq(cps_stack(p2.stack, memo), cps_ref.cps_stack(p2.stack))

    def test_demo_run(self):
        from lamc.demo import closed_realizer
        from lamc.extract import sigma01_wrapper
        from lamc.syntax import Process

        p = Process(closed_realizer(2)[0], stack_of(sigma01_wrapper()))
        memo = None
        for k, (p, p2) in enumerate(_steps(p, 10_000)):
            memo = CpsMemo(memo)
            source = cps_process(p, memo)
            target = cps_process(p2, memo)
            if k % 110 == 0:
                assert ref.alpha_eq(source, cps_ref.cps_process(p)), k
                assert ref.alpha_eq(target, cps_ref.cps_process(p2)), k
        assert k == 867

    def test_images_are_shared(self):
        t = parse_term(r"(\x. x) (\y. s y)")
        first = CpsMemo()
        image = cps_term(t, first)
        assert cps_term(t, first) is image
        # through the memo before, and then from its own table
        second = CpsMemo(first)
        assert cps_term(t, second) is image
        assert cps_term(t, CpsMemo(second)) is image

    def test_parsed_input_prints_as_the_reference(self):
        # a parsed process shares no node, so sharing changes no printed byte
        rng = random.Random(38)
        for i in range(3000):
            p = parse_process(print_process(random_process(rng)))
            assert print_term(cps_process(p)) == print_term(cps_ref.cps_process(p)), i

    @pytest.mark.parametrize("c", [2, 3, 6])
    def test_closed_realizer_image_is_shared(self, c):
        from lamc.demo import closed_realizer
        from lamc.extract import sigma01_wrapper
        from lamc.ha2 import read_witness
        from lamc.syntax import Process

        p = Process(closed_realizer(c)[0], stack_of(sigma01_wrapper()))
        image, reference = cps_process(p), cps_ref.cps_process(p)
        assert ref.alpha_eq(image, reference)
        assert _distinct_nodes(image) < _distinct_nodes(reference)
        found, expected = read_witness(image), read_witness(reference)
        assert found.n == expected.n
        assert found.head_steps == expected.head_steps


def _distinct_nodes(t) -> int:
    seen, todo = set(), [t]
    while todo:
        u = todo.pop()
        if id(u) not in seen:
            seen.add(id(u))
            todo.extend(getattr(u, a) for a in ("fn", "arg", "body") if hasattr(u, a))
    return len(seen)


class TestInlineInstructions:
    def test_macro_expansion(self):
        mapping = {"I": parse_term(r"\x. x")}
        out = inline_instructions(parse_term("I I", instructions={"I"}), mapping)
        assert out == parse_term(r"(\x. x) (\x. x)")

    def test_nested_mapping(self):
        mapping = {
            "twice": parse_term(r"\f x. f (f x)"),
            "both": parse_term("twice twice", instructions={"twice"}),
        }
        out = inline_instructions(Inst("both"), mapping)
        assert out == parse_term(r"(\f x. f (f x)) (\f x. f (f x))")

    def test_cycle_rejected(self):
        mapping = {"loop": parse_term("loop", instructions={"loop"})}
        with pytest.raises(TranslationError, match="recursive"):
            inline_instructions(Inst("loop"), mapping)
