import random

import pytest

from lamc.arith import EVar, default_signature, parse_expr
from gen import random_hformula, random_pa2_formula

from lamc.formulas import (
    All1,
    All2,
    Brace,
    FormulaError,
    Imp,
    PredVar,
    expand_abbreviation,
    f_bot,
    f_nat,
    f_natp,
    formula_congruent_pa2,
    formula_free_vars,
    h_top,
    is_fully_relativized,
    normalize_formula_ha2,
    normalize_formula_pa2,
    parse_formula,
    parse_hformula,
    relativize_nat,
    subst_expr1,
    subst_pred,
)


@pytest.fixture(scope="module")
def SIG():
    return default_signature()


def pf(src, SIG):
    return parse_formula(src, SIG)


def hf(src, SIG):
    return parse_hformula(src, SIG)


class TestNormalizePA2:
    def test_null_succ_is_bot(self, SIG):
        assert normalize_formula_pa2(pf("null(s(x))", SIG), SIG) == f_bot()

    def test_null_neg_succ(self, SIG):
        # neg(s(0)) rewrites to 0
        out = normalize_formula_pa2(pf("null(neg(s(0)))", SIG), SIG)
        assert out == pf("null(0)", SIG)

    def test_congruence_closure_under_null(self, SIG):
        assert formula_congruent_pa2(pf("null(pred(s(y)))", SIG), pf("null(y)", SIG), SIG)

    def test_top_is_not_bot(self, SIG):
        assert not formula_congruent_pa2(pf("top", SIG), pf("bot", SIG), SIG)


class TestNormalizeHA2:
    def test_exists_imp_commutation(self, SIG):
        out = normalize_formula_ha2(hf("(exists x. A(x)) -> R", SIG), SIG)
        assert out == hf("forall x. A(x) -> R", SIG)

    def test_null_zero_is_top(self, SIG):
        assert normalize_formula_ha2(hf("null(0)", SIG), SIG) == h_top()

    def test_null_succ_is_bot(self, SIG):
        assert normalize_formula_ha2(hf("null(s(y))", SIG), SIG) == f_bot()

    def test_commutation_renames_on_capture(self, SIG):
        out = normalize_formula_ha2(hf("(exists x. A(x)) -> B(x)", SIG), SIG)
        # the bound x must be renamed away from the free x of B
        assert out == All1("w", Imp(PredVar("A", (EVar("w"),)), PredVar("B", (EVar("x"),))))

    def test_second_order_commutation(self, SIG):
        out = normalize_formula_ha2(hf("(exists X. X) -> R", SIG), SIG)
        assert out == All2("X", 0, Imp(PredVar("X"), PredVar("R")))

    def test_nested_commutation(self, SIG):
        out = normalize_formula_ha2(hf("(exists x. exists y. A(x, y)) -> R", SIG), SIG)
        assert out == hf("forall x. forall y. A(x, y) -> R", SIG)

    def test_no_new_free_vars(self, SIG):
        # null(s(x)) -> bot erases x, so normalization may shrink the free
        # variable set; it must never grow it (no capture, no stray names)
        rng = random.Random(5)
        for _ in range(150):
            f = random_hformula(rng, 4)
            assert formula_free_vars(normalize_formula_ha2(f, SIG)) <= formula_free_vars(f)

    def test_expr_only_normalization_preserves_free_vars(self, SIG):
        # away from the null collapses, the free variables are untouched
        f = hf("forall x. A(pred(s(y)), x) -> nat(0 + z)", SIG)
        out = normalize_formula_ha2(f, SIG)
        assert formula_free_vars(out) == formula_free_vars(f) == {"A", "y", "z"}


class TestRelativize:
    def test_first_order_quantifier_guarded(self, SIG):
        out = relativize_nat(pf("forall x. X(x)", SIG))
        assert out == All1("x", Imp(f_nat(EVar("x")), PredVar("X", (EVar("x"),))))

    def test_null_unchanged(self, SIG):
        f = pf("null(y)", SIG)
        assert relativize_nat(f) == f

    def test_second_order_untouched(self, SIG):
        assert relativize_nat(pf("forall X. X", SIG)) == pf("forall X. X", SIG)

    def test_rejects_brace(self, SIG):
        with pytest.raises(FormulaError):
            relativize_nat(pf("{x} -> X", SIG))

    def test_identity_without_first_order_quantifiers(self, SIG):
        rng = random.Random(11)
        for _ in range(100):
            f = random_pa2_formula(rng, 3, quantifiers=False, brace=False)
            assert relativize_nat(f) == f

    def test_output_fully_relativized(self, SIG):
        rng = random.Random(12)
        for _ in range(100):
            f = random_pa2_formula(rng, 3, quantifiers=True, brace=False)
            assert is_fully_relativized(relativize_nat(f))


class TestAbbreviations:
    def test_equality(self, SIG):
        e1, e2 = parse_expr("x", SIG), parse_expr("y", SIG)
        out = expand_abbreviation("eq", [e1, e2])
        assert out == All2("Z", 1, Imp(PredVar("Z", (e1,)), PredVar("Z", (e2,))))

    def test_existsN(self, SIG):
        out = expand_abbreviation("existsN", ["x", PredVar("A", (EVar("x"),))])
        expected = All2(
            "Z",
            0,
            Imp(
                All1("x", Brace(EVar("x"), Imp(PredVar("A", (EVar("x"),)), PredVar("Z")))),
                PredVar("Z"),
            ),
        )
        assert out == expected

    def test_top_is_null_zero(self, SIG):
        assert expand_abbreviation("top", []) == pf("null(0)", SIG)

    def test_natp_shape(self, SIG):
        out = f_natp(EVar("e"))
        assert out == All2("Z", 0, Imp(Brace(EVar("e"), PredVar("Z")), PredVar("Z")))

    def test_unknown_abbreviation(self):
        with pytest.raises(FormulaError):
            expand_abbreviation("xor", [])

    def test_fresh_binder_avoids_args(self, SIG):
        f = expand_abbreviation("and", [pf("Z", SIG), pf("Z2", SIG)])
        assert isinstance(f, All2) and f.x not in ("Z", "Z2")


class TestSubstitution:
    def test_first_order(self, SIG):
        f = pf("forall y. A(x, y)", SIG)
        out = subst_expr1(f, "x", parse_expr("s(0)", SIG))
        assert out == pf("forall y. A(s(0), y)", SIG)

    def test_capture_renames(self, SIG):
        f = All1("y", PredVar("A", (EVar("x"), EVar("y"))))
        out = subst_expr1(f, "x", EVar("y"))
        assert out == All1("w", PredVar("A", (EVar("y"), EVar("w"))))

    def test_second_order(self, SIG):
        f = pf("forall x. X(x)", SIG)
        out = subst_pred(f, "X", ("v",), pf("null(v)", SIG))
        assert out == pf("forall x. null(x)", SIG)

    def test_second_order_shadowing(self, SIG):
        f = pf("forall X. X(x)", SIG)
        assert subst_pred(f, "X", ("v",), pf("null(v)", SIG)) == f

    def test_second_order_parameters_substituted_simultaneously(self, SIG):
        f = pf("X(v, u)", SIG)
        out = subst_pred(f, "X", ("u", "v"), pf("A(u, v)", SIG))
        assert out == pf("A(v, u)", SIG)


class TestPrintParse:
    @pytest.mark.parametrize(
        "make, parse",
        [(random_pa2_formula, parse_formula), (random_hformula, parse_hformula)],
        ids=["pa2", "ha2"],
    )
    def test_printed_formulas_parse_back(self, SIG, make, parse):
        rng = random.Random(3)
        for _ in range(500):
            f = make(rng, 4)
            assert parse(str(f), SIG) == f, str(f)

    def test_conjunction_is_right_associative(self, SIG):
        assert hf("A /\\ B /\\ C", SIG) == hf("A /\\ (B /\\ C)", SIG)
        assert pf("A /\\ B /\\ C", SIG) == pf("A /\\ (B /\\ C)", SIG)

    def test_quantifier_after_implication(self, SIG):
        assert pf("Y -> forall X. X(x)", SIG) == pf("Y -> (forall X. X(x))", SIG)
        assert pf("{x} -> exists y. x = y", SIG) == pf("{x} -> (exists y. x = y)", SIG)
