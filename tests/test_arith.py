import gc
import random
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import gen
import arith_reference
from arith_reference import eval_equational
from lamc.arith import (
    EApp,
    ENat,
    EVar,
    Equation,
    EvalError,
    Pattern,
    PrimRecSignature,
    SignatureError,
    ZERO,
    default_signature,
    eval_expr,
    expr_congruent,
    expr_subst,
    expr_of_nat,
    nat_of_expr,
    normalize_expr,
    parse_expr,
    print_expr,
    _match_structural,
)
from lamc.demo import build_script, demo_signature, oracle_guesses
from lamc.script import run_script_text


def ev(src, rho=None, sig=None):
    sig = sig or default_signature()
    return eval_expr(parse_expr(src, sig), rho or {}, sig)


def nf(src, sig=None):
    sig = sig or default_signature()
    return normalize_expr(parse_expr(src, sig), sig)


class TestEval:
    def test_pred_of_one(self, sig):
        assert ev("pred(s(0))") == 0

    def test_minus(self, sig):
        # hand-applied equations: minus(s x, s y) = minus(x, y), minus(x, 0) = x
        assert ev("minus(5, 3)") == 2
        assert ev("minus(3, 5)") == 0

    def test_plus_with_valuation(self):
        assert ev("s(x) + y", {"x": 4, "y": 2}) == 7

    def test_times(self):
        assert ev("3 * 4") == 12

    def test_neg(self):
        assert ev("neg(0)") == 1
        assert ev("neg(s(s(0)))") == 0

    def test_large_numerals(self):
        assert ev("minus(1023, 1000) + minus(1000, 1023)") == 23

    def test_unbound_variable(self, sig):
        with pytest.raises(EvalError, match="unbound"):
            eval_expr(EVar("q"), {}, sig)

    def test_unknown_symbol(self, sig):
        with pytest.raises(EvalError, match="unknown"):
            eval_expr(EApp("mystery", (ZERO,)), {}, sig)


class TestNormalize:
    def test_pred_zero(self):
        assert nf("pred(0)") == ZERO

    def test_neg_succ_open(self):
        assert nf("neg(s(x))") == ZERO

    def test_minus_two_one(self):
        assert nf("minus(s(s(0)), s(0))") == expr_of_nat(1)

    def test_open_normal_form_blocks(self):
        assert nf("minus(x, y)") == parse_expr("minus(x, y)", default_signature())

    def test_pred_succ_var(self):
        assert nf("pred(s(y))") == EVar("y")

    def test_congruence(self, sig):
        assert expr_congruent(parse_expr("0 + y", sig), EVar("y"), sig)
        assert not expr_congruent(EVar("y"), EVar("z"), sig)


class TestNumerals:
    def test_round_trip(self):
        assert nat_of_expr(expr_of_nat(137)) == 137

    def test_non_numeral(self):
        assert nat_of_expr(EVar("x")) is None

    def test_print_decimal_compression(self, sig):
        assert print_expr(expr_of_nat(1000)) == "1000"
        assert print_expr(parse_expr("minus(x, 10)", sig)) == "minus(x, 10)"

    def test_print_infix(self, sig):
        assert print_expr(parse_expr("2 * x + 1", sig)) == "2 * x + 1"


class TestSignature:
    def test_builtins_present(self, sig):
        for name in ("0", "s", "+", "*", "pred", "neg", "minus"):
            assert name in sig

    def test_redefinition_rejected(self, sig):
        with pytest.raises(SignatureError, match="already defined"):
            sig.define("pred", 1, [Equation((Pattern("var", "x"),), EVar("x"))])

    def test_missing_case(self, sig):
        with pytest.raises(SignatureError, match="missing"):
            sig.define("half", 1, [Equation((Pattern("zero"),), ZERO)])

    def test_overlapping_case(self, sig):
        with pytest.raises(SignatureError, match="overlapping"):
            sig.define(
                "both",
                1,
                [
                    Equation((Pattern("var", "x"),), EVar("x")),
                    Equation((Pattern("zero"),), ZERO),
                ],
            )

    def test_non_decreasing_recursion(self, sig):
        with pytest.raises(SignatureError, match="decrease"):
            sig.define(
                "spin",
                1,
                [
                    Equation((Pattern("zero"),), ZERO),
                    Equation(
                        (Pattern("succ", "x"),),
                        EApp("spin", (EApp("s", (EVar("x"),)),)),
                    ),
                ],
            )

    def test_unknown_symbol_in_rhs(self, sig):
        with pytest.raises(SignatureError, match="unknown symbol"):
            sig.define("f", 1, [Equation((Pattern("var", "x"),), EApp("ghost", (EVar("x"),)))])

    def test_non_linear_pattern(self, sig):
        with pytest.raises(SignatureError, match="non-linear"):
            sig.define(
                "diag",
                2,
                [Equation((Pattern("var", "x"), Pattern("var", "x")), EVar("x"))],
            )

    def test_ackermann_accepted(self, sig):
        # nested recursion with lexicographic descent is in the accepted class
        v, z, sc = (lambda n: Pattern("var", n)), Pattern("zero"), (lambda n: Pattern("succ", n))
        ack = lambda a, b: EApp("ack", (a, b))
        s = lambda a: EApp("s", (a,))
        sig2 = sig.define(
            "ack",
            2,
            [
                Equation((z, v("y")), s(EVar("y"))),
                Equation((sc("x"), z), ack(EVar("x"), s(ZERO))),
                Equation((sc("x"), sc("y")), ack(EVar("x"), ack(s(EVar("x")), EVar("y")))),
            ],
        )
        assert eval_expr(parse_expr("ack(2, 3)", sig2), {}, sig2) == 9

    def test_composition_accepted(self, sig):
        sig2 = sig.define(
            "dist", 1, [Equation((Pattern("var", "x"),), parse_expr("minus(x, 3) + minus(3, x)", sig))]
        )
        assert eval_expr(parse_expr("dist(10)", sig2), {}, sig2) == 7
        assert eval_expr(parse_expr("dist(1)", sig2), {}, sig2) == 2


# randomized properties


def random_expr(rng, sig, depth, vars=("x", "y")):
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return EVar(rng.choice(vars))
        return expr_of_nat(rng.randint(0, 4))
    name = rng.choice(["+", "*", "pred", "neg", "minus", "s"])
    arity = sig.arity(name)
    return EApp(name, tuple(random_expr(rng, sig, depth - 1, vars) for _ in range(arity)))


def test_congruence_soundness(sig):
    # Val(e) = Val(normalize(e)) under every valuation
    rng = random.Random(42)
    for _ in range(300):
        e = random_expr(rng, sig, rng.randint(1, 5))
        rho = {"x": rng.randint(0, 8), "y": rng.randint(0, 8)}
        assert eval_expr(e, rho, sig) == eval_expr(normalize_expr(e, sig), rho, sig)


def _rewrite_positions(e, sig):
    """All (path, reduct) pairs for one rewriting step."""
    out = []

    def go(cur, path):
        if isinstance(cur, EApp):
            sym = sig.symbols.get(cur.symbol)
            if sym is not None and sym.equations:
                m = _match_structural(sym, cur.args)
                if m is not None:
                    eq, env = m
                    from lamc.arith import expr_subst

                    out.append((path, expr_subst(eq.rhs, env)))
            for i, a in enumerate(cur.args):
                go(a, path + (i,))

    go(e, ())
    return out


def _replace(e, path, new):
    if not path:
        return new
    args = list(e.args)
    args[path[0]] = _replace(args[path[0]], path[1:], new)
    return EApp(e.symbol, tuple(args))


def test_termination_and_confluence_random_orders(sig):
    # every maximal rewrite sequence reaches the same normal form
    rng = random.Random(271)
    for _ in range(120):
        e = random_expr(rng, sig, rng.randint(1, 4))
        expected = normalize_expr(e, sig)
        cur = e
        for _ in range(10_000):
            options = _rewrite_positions(cur, sig)
            if not options:
                break
            path, new = rng.choice(options)
            cur = _replace(cur, path, new)
        else:
            pytest.fail(f"rewriting did not terminate from {e}")
        assert cur == expected


# ---------------------------------------------------------------------------
# the native evaluator against the equational reference


def _outcome(fn, *args):
    """A value, or the EvalError message."""
    try:
        return fn(*args)
    except EvalError as exc:
        return f"EvalError: {exc}"


def _agree(e, rho, sig):
    native = _outcome(eval_expr, e, rho, sig)
    assert native == _outcome(eval_equational, e, rho, sig), print_expr(e)
    return native


def _ack_signature(sig):
    v, z, sc = (lambda n: Pattern("var", n)), Pattern("zero"), (lambda n: Pattern("succ", n))
    ack = lambda a, b: EApp("ack", (a, b))
    s = lambda a: EApp("s", (a,))
    return sig.define(
        "ack",
        2,
        [
            Equation((z, v("y")), s(EVar("y"))),
            Equation((sc("x"), z), ack(EVar("x"), s(ZERO))),
            Equation((sc("x"), sc("y")), ack(EVar("x"), ack(s(EVar("x")), EVar("y")))),
        ],
    )


def _user_signature(sig):
    """ack and dist as in TestSignature, plus a symbol that pattern-matches
    without recursion and one that recurses through native symbols."""
    sig = _ack_signature(sig)
    sig = sig.define(
        "dist", 1, [Equation((Pattern("var", "x"),), parse_expr("minus(x, 3) + minus(3, x)", sig))]
    )
    sig = sig.define(
        "isz", 1, [Equation((Pattern("zero"),), expr_of_nat(1)), Equation((Pattern("succ", "x"),), ZERO)]
    )
    return sig.define(
        "tri",
        1,
        [
            Equation((Pattern("zero"),), ZERO),
            Equation(  # tri(s(x)) = tri(x) + s(x)
                (Pattern("succ", "x"),),
                EApp("+", (EApp("tri", (EVar("x"),)), EApp("s", (EVar("x"),)))),
            ),
        ],
    )


_LEAF = st.one_of(
    st.integers(0, 4).map(expr_of_nat),
    st.sampled_from(["x", "y"]).map(EVar),
)


def _node(children):
    unary = st.tuples(st.sampled_from(["s", "pred", "neg"]), children).map(
        lambda t: EApp(t[0], (t[1],))
    )
    binary = st.tuples(st.sampled_from(["+", "*", "minus"]), children, children).map(
        lambda t: EApp(t[0], (t[1], t[2]))
    )
    return unary | binary


_EXPRS = st.recursive(_LEAF, _node, max_leaves=8)


class TestNativeAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_EXPRS, st.integers(0, 6), st.integers(0, 6))
    def test_hypothesis_expressions(self, e, x, y):
        sig = default_signature()
        _agree(e, {"x": x, "y": y}, sig)
        _agree(e, {"x": x}, sig)  # y may be unbound

    def test_gen_random_expressions(self, sig):
        rng = random.Random(5)
        for _ in range(400):
            e = gen.random_expr(rng, rng.randint(0, 5))
            _agree(e, {"x": rng.randint(0, 6), "y": rng.randint(0, 6)}, sig)
            _agree(e, {}, sig)

    def test_recursive_user_symbols(self, sig):
        sig2 = _user_signature(sig)
        for a in range(3):
            for b in range(4):
                _agree(EApp("ack", (expr_of_nat(a), expr_of_nat(b))), {}, sig2)
        for n in range(12):
            for name in ("dist", "isz", "tri"):
                _agree(EApp(name, (EVar("n"),)), {"n": n}, sig2)
        assert eval_expr(parse_expr("ack(2, 3) + tri(dist(10))", sig2), {}, sig2) == 9 + 28
        rng = random.Random(8)
        for _ in range(200):  # user symbols inside random default-signature context
            inner = EApp(rng.choice(["dist", "isz", "tri"]), (gen.random_expr(rng, 2),))
            e = EApp(rng.choice(["+", "minus"]), (inner, gen.random_expr(rng, 2)))
            _agree(e, {"x": rng.randint(0, 5), "y": rng.randint(0, 5)}, sig2)

    def test_hand_built_constructor_numerals(self, sig):
        s = lambda a: EApp("s", (a,))
        two = s(s(EApp("0", ())))
        assert two == ENat(2) and type(two) is ENat
        assert EApp("0") is ZERO
        for e in (two, s(EVar("x")), EApp("+", (two, s(s(EVar("x"))))), EApp("minus", (two, s(ZERO)))):
            _agree(e, {"x": 3}, sig)

    def test_error_messages(self, sig):
        cases = [
            EVar("q"),
            EApp("mystery", (ZERO,)),
            EApp("+", (EApp("mystery", (ZERO,)), EVar("q"))),  # rightmost first: q
            EApp("+", (EVar("q"), EApp("mystery", (ZERO,)))),  # ... here mystery
            EApp("mystery", (EVar("q"),)),  # the symbol before its arguments
            EApp("+", (EVar("x"),)),  # wrong arity
            EApp("s", ()),
            EApp("pred", (EApp("minus", (EVar("x"), EVar("z"))),)),
        ]
        for e in cases:
            assert _agree(e, {"x": 1}, sig).startswith("EvalError: ")

    def test_redefined_builtin_uses_its_own_equations(self):
        # a signature where + is first projection, and * has the default
        # equations over that +: neither may run the native operation
        v, z, sc = (lambda n: Pattern("var", n)), Pattern("zero"), (lambda n: Pattern("succ", n))
        x, y = EVar("x"), EVar("y")
        sig = PrimRecSignature().define("+", 2, [
            Equation((v("x"), z), x),
            Equation((v("x"), sc("y")), EApp("+", (x, y))),
        ])
        sig = sig.define("*", 2, default_signature().symbols["*"].equations)
        assert sig.symbols["*"] == default_signature().symbols["*"]
        assert eval_expr(parse_expr("3 + 4", sig), {}, sig) == 3
        assert eval_expr(parse_expr("3 * 4", sig), {}, sig) == 0  # (0 + 4) + 4 + 4 = 0
        rng = random.Random(3)
        for _ in range(100):
            a, b = rng.randint(0, 6), rng.randint(0, 6)
            for op in ("+", "*"):
                _agree(EApp(op, (EVar("x"), EVar("y"))), {"x": a, "y": b}, sig)


class TestSubstAgainstReference:
    def test_agrees_with_the_recursive_substitution(self):
        rng = random.Random(11)
        for _ in range(2000):
            e = gen.random_expr(rng, rng.randint(0, 6))
            names = rng.sample(["x", "y", "z"], rng.randint(0, 3))
            env = {v: gen.random_expr(rng, 2, ("x", "z")) for v in names}
            assert expr_subst(e, env) == arith_reference.expr_subst(e, env), (e, env)

    def test_keeps_a_node_with_nothing_replaced(self):
        e = EApp("+", (EVar("x"), EApp("s", (EVar("y"),))))
        assert expr_subst(e, {"z": ZERO}) is e
        assert expr_subst(e, {}) is e
        assert expr_subst(e, {"x": ZERO}).args[1] is e.args[1]


# ---------------------------------------------------------------------------
# scale, at Python's default recursion limit


def _size(e) -> int:
    return 1 + sum(_size(a) for a in getattr(e, "args", ()))


@pytest.mark.usefixtures("default_recursion_limit")
class TestScale:
    def test_one_numeral_per_value(self, sig):
        assert parse_expr("s(s(0))", sig) == parse_expr("2", sig) == expr_of_nat(2)
        assert type(parse_expr("s(s(0))", sig)) is ENat

    def test_huge_literal_is_constant_size(self, sig):
        e = parse_expr("minus(x, 10000000)", sig)
        assert _size(e) == 3
        assert print_expr(e) == "minus(x, 10000000)"
        assert _size(normalize_expr(e, sig)) == 3
        sig2 = sig.define("big", 1, [Equation((Pattern("var", "x"),), e)])
        assert eval_expr(parse_expr("big(10000005)", sig2), {}, sig2) == 5
        assert eval_expr(parse_expr("2 * 100000000000", sig), {}, sig) == 200000000000

    def test_deep_recursive_symbol(self, sig):
        sig2 = _user_signature(sig)
        n = 100_000
        assert eval_expr(EApp("tri", (EVar("n"),)), {"n": n}, sig2) == n * (n + 1) // 2

    @pytest.mark.parametrize("c", [10**5, 10**7])
    def test_demo_family(self, c):
        result = run_script_text(build_script(c))
        ev = result.doc["statements"][0]
        witness, guesses = oracle_guesses(c)
        assert ev["printed"] == guesses
        assert ev["halt"] == {"kind": "final-stop", "value": witness}

    def test_substitution_on_a_deep_chain(self):
        # s(s(...s(x + y))), 10^5 deep: one pass, simultaneous, no recursion
        e = EApp("+", (EVar("x"), EVar("y")))
        for _ in range(100_000):
            e = EApp("s", (e,))
        started = time.perf_counter()
        out = expr_subst(e, {"x": EVar("y"), "y": ENat(3)})
        elapsed = time.perf_counter() - started
        for _ in range(100_000):
            assert out.symbol == "s"
            (out,) = out.args
        assert out == EApp("+", (EVar("y"), ENat(3)))
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_fig5_run_unchanged(self):
        ev = run_script_text(build_script(1000)).doc["statements"][0]
        assert ev["steps"] == 541 and ev["calls"]["f"] == 12 and ev["calls"]["test_le"] == 11


def test_compiled_signature_holds_no_cycles():
    # the compiled code lives on its signature and nothing in it refers
    # back, so the signature is freed by reference counting alone
    gc.disable()
    try:
        sig = demo_signature(7)
        # fleq(3) = minus(|3 - 7|, |7 - 7|) = 4, f(g(2)) = |5 - 7| = 2
        assert eval_expr(parse_expr("fleq(3) + f(g(2))", sig), {}, sig) == 4 + 2
        ref = weakref.ref(sig)
        del sig
        assert ref() is None
    finally:
        gc.enable()
