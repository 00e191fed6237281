import random

import pytest

import formulas_reference as ref
from lamc import negtrans
from lamc.arith import EVar, default_signature, parse_expr
from gen import random_expr, random_hformula, random_pa2_formula

from lamc.formulas import (
    All1,
    All2,
    And,
    Brace,
    Ex1,
    Ex2,
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
from lamc.negtrans import ReturnFormula, formula_bot, formula_nn, sigma01_return_formula


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


PARSERS = pytest.mark.parametrize("parse", [parse_formula, parse_hformula], ids=["pa2", "ha2"])


class TestPredicateArity:
    @PARSERS
    @pytest.mark.parametrize(
        "text, arities",
        [
            ("forall X. X(0, 1) -> X(1)", "2 and 1"),
            ("exists X. X(1) /\\ X(1, 2)", "1 and 2"),
            ("forall y. X(y) -> X", "1 and 0"),
            ("Y -> forall X. X(0) -> Y(1)", "0 and 1"),
        ],
        ids=["bound", "exists", "free", "free-under-binder"],
    )
    def test_two_arities_in_one_scope_are_refused(self, SIG, parse, text, arities):
        with pytest.raises(FormulaError, match=rf"predicate variable '[XY]' used at arities {arities}$"):
            parse(text, SIG)

    @PARSERS
    @pytest.mark.parametrize(
        "text, arity",
        [("(forall X. X(1)) -> forall X. X(1, 2)", 1), ("X(1) -> forall X. X(1, 2)", None)],
        ids=["two-binders", "free-and-bound"],
    )
    def test_each_binder_has_its_own_arity(self, SIG, parse, text, arity):
        f = parse(text, SIG)
        assert f.b.arity == 2 and f.b.x == "X"
        if arity is not None:
            assert f.a.arity == arity


# ---------------------------------------------------------------------------
# the child map and the flat key against the recursive walks of
# tests/formulas_reference.py

DIALECTS = pytest.mark.parametrize(
    "make, seed", [(random_pa2_formula, 5), (random_hformula, 6)], ids=["pa2", "ha2"]
)


def _corpus(make, seed, n=2000):
    rng = random.Random(seed)
    return [make(rng, rng.randint(0, 5)) for _ in range(n)]


def _printed(fn, *args):
    """What fn prints, or the formula error it raises."""
    try:
        return str(fn(*args))
    except FormulaError as exc:
        return f"FormulaError: {exc}"


def _alpha_variant(f):
    """f with every binder renamed to a fresh name."""
    if isinstance(f, (All1, Ex1, All2, Ex2)):
        f = ref._rebind(f, frozenset({f.x}))
    return ref._map(f, _alpha_variant)


class TestAgainstReference:
    @DIALECTS
    def test_substitution(self, make, seed):
        # the generators' variables x, y, X, Y are free and bound at once, so
        # substituting an expression or formula over them renames binders
        rng = random.Random(seed)
        for f in _corpus(make, seed):
            e = random_expr(rng, 2)
            for x in ("x", "y"):
                assert str(subst_expr1(f, x, e)) == str(ref.subst_expr1(f, x, e))
            b = make(rng, 2)
            # X has arity 1 and Y arity 0, so the last two are arity errors
            # wherever the variable occurs free
            for x, params in (("X", ("x",)), ("X", ("v",)), ("Y", ()), ("X", ()), ("Y", ("v",))):
                assert _printed(subst_pred, f, x, params, b) == _printed(
                    ref.subst_pred, f, x, params, b
                )

    @DIALECTS
    def test_normal_forms(self, SIG, make, seed):
        for f in _corpus(make, seed):
            for new, old in (
                (normalize_formula_pa2, ref.normalize_formula_pa2),
                (normalize_formula_ha2, ref.normalize_formula_ha2),
            ):
                assert str(new(f, SIG)) == str(old(f, SIG))

    def test_relativization(self):
        rng = random.Random(8)
        for _ in range(2000):
            f = random_pa2_formula(rng, rng.randint(0, 5), brace=False)
            assert str(relativize_nat(f)) == str(ref.relativize_nat(f))

    def test_negative_translation(self, SIG, monkeypatch):
        # the sigma01 R is closed; R with the free names y and X makes the
        # translation rename the binders of y and X (over 1,000 times here).
        # The commutation's renaming is met in test_normal_forms[ha2]
        sigma = sigma01_return_formula("pred").formula
        returns = [
            ReturnFormula(PredVar("R")),
            ReturnFormula(sigma),
            ReturnFormula(And(sigma, PredVar("X", (EVar("y"),)))),
        ]
        corpus = _corpus(random_pa2_formula, 7)

        def images(normalize):
            return [
                str(out)
                for f in corpus
                for R in returns
                for out in (formula_bot(f, R), normalize(formula_nn(f, R), SIG))
            ]

        new = images(normalize_formula_ha2)
        monkeypatch.setattr(negtrans, "_rebind", ref._rebind)
        assert new == images(ref.normalize_formula_ha2)

    @DIALECTS
    def test_equality_agrees_with_the_reference_key(self, make, seed):
        corpus = _corpus(make, seed)
        rng = random.Random(seed)
        pairs = list(zip(corpus, corpus[1:]))
        pairs += [(rng.choice(corpus), rng.choice(corpus)) for _ in range(4000)]
        for f in corpus[:800]:
            # alpha-equal, then (where x or X is free, or at the arity) different
            pairs.append((f, _alpha_variant(f)))
            pairs.append((f, ref.subst_expr1(f, "x", EVar("z"))))
            pairs.append((f, ref._rename_pred(f, "X", "Z")))
            if isinstance(f, (All2, Ex2)):
                pairs.append((f, type(f)(f.x, f.arity + 1, f.body)))
        equal = 0
        for a, b in pairs:
            same = ref.key(a) == ref.key(b)
            assert (a == b) is same, (str(a), str(b))
            if same:
                assert hash(a) == hash(b)
                equal += 1
        assert 800 <= equal < len(pairs)


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepInput:
    def test_read_only_walks_on_a_deep_implication(self):
        from lamc.formulas import _pred_arity, formula_all_names

        # A(y) -> A(y) -> ... -> forall X. X(y, z), 10^5 implications deep
        x = EVar("y")
        f = All2("X", 2, PredVar("X", (x, EVar("z"))))
        for _ in range(100_000):
            f = Imp(PredVar("A", (x,)), f)
        assert formula_free_vars(f) == {"A", "y", "z"}
        assert formula_all_names(f) == {"A", "X", "y", "z"}
        assert _pred_arity(f, "A") == 1
        assert _pred_arity(f, "X") == 0

    def test_read_only_walks_under_deep_quantifiers(self):
        from lamc.formulas import _pred_arity

        # (forall x. forall v99998. ... forall v0. P(x, y, v0)) -> Q(x, v0),
        # 10^5 binders deep: the walk keeps one count per bound name, so it
        # takes linear time, and x and v0 are free again on the right
        f = PredVar("P", (EVar("x"), EVar("y"), EVar("v0")))
        for i in range(100_000):
            f = All1("x" if i % 2 else f"v{i}", f)
        f = Imp(f, PredVar("Q", (EVar("x"), EVar("v0"))))
        assert formula_free_vars(f) == {"P", "Q", "x", "y", "v0"}
        assert _pred_arity(f, "Q") == 2

    @pytest.mark.parametrize("binder", [True, False], ids=["all1", "imp"])
    def test_equality_and_hash_at_depth(self, binder):
        # two chains 10^5 deep, built apart; the binder chains name their
        # variables differently, so only a nameless key finds them equal
        def chain(x):
            f = PredVar("X", (EVar(x),))
            for _ in range(100_000):
                f = All1(x, f) if binder else Imp(PredVar("A"), f)
            return f

        a, b = chain("x"), chain("y" if binder else "x")
        assert a == b
        assert hash(a) == hash(b)
