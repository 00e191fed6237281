"""The recursive walks on the trampoline (``syntax.trampoline``): the
parsers, printers and rebuilding walks are byte-identical to their plain
recursive references (the ``*_reference`` modules) on seeded corpora, and
deep inputs, ``==``, ``hash`` and ``repr`` included, are handled at
Python's default recursion limit."""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

import arith_reference as aref
import formulas_reference as fref
import ha2_reference as href
import negtrans_reference as nref
import stdlib_reference as stref
import syntax_reference as sref
from gen import VARS, random_expr, random_hformula, random_hterm, random_pa2_formula, random_term
from lamc import formulas
from lamc.arith import (
    EApp,
    ENat,
    EVar,
    Equation,
    Pattern,
    default_signature,
    expr_subst,
    normalize_expr,
    parse_expr,
    print_expr,
)
from lamc.cli import main
from lamc.formulas import (
    All1,
    All2,
    Ex1,
    FormulaError,
    Imp,
    Null,
    PredVar,
    expand_abbreviation,
    is_fully_relativized,
    normalize_formula_ha2,
    normalize_formula_pa2,
    parse_formula,
    parse_hformula,
    print_formula,
    relativize_nat,
    subst_expr1,
    subst_pred,
)
from lamc.ha2 import INNER_FUEL, EqResult, _ieq, inner_equal, parse_hterm
from lamc.negtrans import (
    ReturnFormula,
    TranslationError,
    cps_stack,
    cps_term,
    formula_bot,
    inline_instructions,
    sigma01_return_formula,
)
from lamc.script import parse_script, translate_statement
from lamc.stdlib import compile_primrec
from lamc.syntax import (
    BOTTOM,
    App,
    HConst,
    Inst,
    Kont,
    Lam,
    LamcError,
    Numeral,
    ParseError,
    Process,
    Var,
    _lex,
    _TermParser,
    _TokenStream,
    alpha_key,
    extend_stack_bottom,
    fresh_name,
    is_proof_like,
    parse_process,
    parse_stack,
    parse_term,
    print_process,
    print_stack,
    print_term,
    stack_of,
    substitute,
)

SIG = default_signature()


def _outcome(parse, text):
    """What parse prints for text, its ParseError's message and position,
    or its FormulaError's message."""
    try:
        return str(parse(text))
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.col)
    except FormulaError as exc:
        return ("FormulaError", str(exc))


def _mutants(rng, text, n=3):
    """n seeded one-edit mutants of text: a character deleted, a token
    character inserted, or a slice doubled."""
    out = []
    for _ in range(n):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0 and text:
            out.append(text[: max(i - 1, 0)] + text[i:])
        elif edit == 1:
            out.append(text[:i] + rng.choice("()[]<>;.\\$*#k,{}=+-/x ") + text[i:])
        else:
            j = rng.randrange(i, len(text) + 1)
            out.append(text[:j] + text[i:j] + text[j:])
    return out


def _kterm(rng, depth, bound=()):
    """A random term whose leaves include continuations over closed stacks."""
    r = rng.random()
    if depth <= 0 or r < 0.25:
        if bound and r < 0.1:
            return Var(rng.choice(bound))
        if r < 0.17:
            return Kont(stack_of(*(_kterm(rng, depth - 1) for _ in range(rng.randint(0, 2)))))
        return rng.choice([Numeral(rng.randint(0, 3)), Inst("stop"), Inst("f"), Inst("g")])
    if r < 0.5:
        x = rng.choice("xyz")
        return Lam(x, _kterm(rng, depth - 1, bound + (x,)))
    return App(_kterm(rng, depth - 1, bound), _kterm(rng, depth - 1, bound))


def _kprocess(rng, depth):
    tops = (_kterm(rng, depth // 2) for _ in range(rng.randint(0, 3)))
    return Process(_kterm(rng, depth), stack_of(*tops))


class TestAgainstReference:
    def test_substitution(self):
        # binders and free variables share names, so binders get renamed,
        # and renamed again inside a renaming
        rng = random.Random(1)
        for _ in range(3000):
            t = random_term(rng, rng.randint(0, 6), closed=False)
            u = random_term(rng, 2, closed=False)
            x = rng.choice(VARS + ("x", "y", "z"))
            assert print_term(substitute(t, x, u)) == print_term(sref.substitute(t, x, u))

    def test_continuation_walks(self):
        rng = random.Random(2)
        pi0 = stack_of(Numeral(7), Inst("stop"))
        for _ in range(2000):
            p = _kprocess(rng, rng.randint(0, 6))
            q = Process(_kterm(rng, 3), BOTTOM)
            extended = extend_stack_bottom(p, pi0)
            assert print_process(extended) == print_process(sref.extend_stack_bottom(p, pi0))
            assert is_proof_like(p) == sref.is_proof_like(p)
            assert print_term(p.head) == sref.print_term(p.head)
            assert print_stack(p.stack) == sref.print_stack(p.stack)
            assert (p.head == q.head) == sref.alpha_eq(p.head, q.head)
            again = parse_term(print_term(p.head), ("stop", "f", "g"))
            assert again == p.head and hash(again) == hash(p.head)

    def test_inlining(self):
        rng = random.Random(3)
        for _ in range(2000):
            mapping = {name: _kterm(rng, 3) for name in ("f", "g") if rng.random() < 0.8}
            mapping = {k: v for k, v in mapping.items() if not v.fv}
            t = _kterm(rng, rng.randint(0, 6))
            outcomes = []
            for inline in (inline_instructions, nref.inline_instructions):
                try:
                    outcomes.append(print_term(inline(t, mapping)))
                except TranslationError as exc:  # a cyclic definition, on both sides alike
                    outcomes.append(f"{type(exc).__name__}: {exc}")
            assert outcomes[0] == outcomes[1]

    def test_negative_translation(self):
        sigma = sigma01_return_formula("pred").formula
        open_R = Imp(sigma, PredVar("X", (EVar("y"),)))
        returns = [ReturnFormula(PredVar("R")), ReturnFormula(sigma), ReturnFormula(open_R)]
        rng = random.Random(4)
        for _ in range(1500):
            f = random_pa2_formula(rng, rng.randint(0, 5))
            for R in returns:
                assert str(formula_bot(f, R)) == str(nref.formula_bot(f, R, fref._rebind))

    def test_relativization_check(self):
        rng = random.Random(5)
        for _ in range(2000):
            f = random_pa2_formula(rng, rng.randint(0, 5), brace=False)
            g = relativize_nat(f)
            mixed = Imp(g, f) if rng.random() < 0.5 else Imp(f, g)
            for h in (f, g, mixed, All1("x", Imp(Null(EVar("x")), g))):
                assert is_fully_relativized(h) == fref.is_fully_relativized(h)

    def test_term_parser(self):
        rng = random.Random(6)
        insts = frozenset({"cc", "s", "rec", "stop", "print", "f", "g"})

        def parser(cls, goal, strict, stop):
            def parse(text):
                p = cls(_TokenStream(_lex(text)), insts, strict, stop)
                return p.ts.finish(getattr(p, goal)(frozenset({"x"}) if goal == "atom" else frozenset()))

            return parse

        texts = []
        for _ in range(600):
            p = _kprocess(rng, rng.randint(0, 5))
            head = print_term(p.head)
            texts += [head, print_process(p), print_stack(p.stack), "(" + head + ") with x"]
        for text in list(texts):
            texts += _mutants(rng, text)
        cases = [
            (goal, strict, stop)
            for goal in ("term", "atom", "stack", "process")
            for strict in (False, True)
            for stop in (frozenset(), frozenset({"with"}))
        ]
        for text in texts:
            case = rng.choice(cases)
            new, old = parser(_TermParser, *case), parser(sref.TermParser, *case)
            assert _outcome(new, text) == _outcome(old, text), text

    def test_hterm_parser(self):
        rng = random.Random(7)
        texts = [print_term(random_hterm(rng, rng.randint(0, 6))) for _ in range(1500)]
        texts += [m for t in texts for m in _mutants(rng, t)] + ["<#1; z0>", "<z0>", "fst <a; b;", "k[$]"]

        def reference(text):
            p = sref.HTermParser(_TokenStream(_lex(text)), frozenset(), False)
            return p.ts.finish(p.term(frozenset()))

        for text in texts:
            assert _outcome(parse_hterm, text) == _outcome(reference, text), text

    @pytest.mark.parametrize("dialect", ["pa2", "ha2"])
    def test_formula_parser_and_printer(self, dialect):
        rng = random.Random(8)
        make = random_pa2_formula if dialect == "pa2" else random_hformula
        corpus = [make(rng, rng.randint(0, 5)) for _ in range(1000)]
        for f in corpus:
            assert print_formula(f) == fref.print_formula(f)
        texts = [print_formula(f) for f in corpus]
        texts += [_formula_text(rng, rng.randint(0, 5)) for _ in range(1500)]
        texts += [m for t in texts for m in _mutants(rng, t, 2)]
        if dialect == "pa2":
            new, old = parse_formula, fref.parse_formula
        else:
            new, old = parse_hformula, fref.parse_hformula
        for text in texts:
            assert _outcome(lambda t: new(t, SIG), text) == _outcome(lambda t: old(t, SIG), text), text

    def test_expression_parser_and_printer(self):
        rng = random.Random(9)
        corpus = [random_expr(rng, rng.randint(0, 6)) for _ in range(2000)]
        corpus += [EApp("+", (EVar("x"),)), EApp("*", (EVar("x"), EVar("y"), EVar("z"))), EApp("f")]
        for e in corpus:
            assert print_expr(e) == aref.print_expr(e)
        texts = [print_expr(e) for e in corpus] + [_expr_text(rng, rng.randint(0, 5)) for _ in range(2000)]
        texts += [m for t in texts for m in _mutants(rng, t, 2)]
        for text in texts:
            assert _outcome(lambda t: parse_expr(t, SIG), text) == _outcome(
                lambda t: aref.parse_expr(t, SIG), text
            ), text

    def test_normal_form(self):
        sig = _double_signature()
        rng = random.Random(10)
        corpus = [random_expr(rng, rng.randint(0, 6)) for _ in range(3000)]
        corpus += [EApp("double", (random_expr(rng, 3),)) for _ in range(300)]
        corpus += [EApp("+", (ENat(n), EVar("x"))) for n in range(0, 60, 7)]
        corpus += [EApp("s", (EApp("nope", (EVar("x"),)),)), EApp("+", (EVar("x"), EApp("nope", ())))]
        for e in corpus:
            outcomes = []
            for normalize in (normalize_expr, aref.normalize_expr):
                try:
                    n = normalize(e, sig)
                    outcomes.append((print_expr(n), n))
                except LamcError as exc:  # an unknown symbol, on both sides alike
                    outcomes.append(f"{type(exc).__name__}: {exc}")
            assert outcomes[0] == outcomes[1], print_expr(e)

    def test_primitive_recursive_compiler(self):
        sig = _double_signature()
        x, y = EVar("x"), EVar("y")
        # minus(s(x + pred(y)), double(x) * 2): nontrivial arguments inside nontrivial arguments
        left = EApp("s", (EApp("+", (x, EApp("pred", (y,)))),))
        nested = EApp("minus", (left, EApp("*", (EApp("double", (x,)), ENat(2)))))
        sig = sig.define("mix", 2, [Equation((Pattern("var", "x"), Pattern("var", "y")), nested)])
        for name in sig.symbols:
            assert print_term(compile_primrec(name, sig)) == print_term(stref.compile_primrec(name, sig))

    def test_inner_equality(self):
        rng = random.Random(11)
        verdicts = Counter()
        for i in range(2400):
            t = random_hterm(rng, rng.randint(1, 5))
            if i % 3 == 2:  # \x. t x against \q. (\x. t x) q (beta) or \q. t q (alpha)
                x, q = fresh_name("x", t.fv), fresh_name("q", t.fv)
                lam = Lam(x, App(t, Var(x)))
                t, u = lam, Lam(q, App(lam if rng.random() < 0.7 else t, Var(q)))
                if rng.random() < 0.5:
                    a = random_hterm(rng, 2)
                    t, u = App(t, a), App(u, a)
            else:
                u = t if rng.random() < 0.3 else random_hterm(rng, rng.randint(1, 5))
                if rng.random() < 0.5:
                    t, u = App(t, u), App(t, random_hterm(rng, 2))
            fuel = rng.choice([0, 1, 2, 3, 4, 5, 20, 200, INNER_FUEL])
            budget = [fuel]
            verdict = _ieq(t, u, budget)
            assert (verdict, budget[0]) == href.inner_equal(t, u, fuel)
            assert inner_equal(t, u, fuel) is verdict
            verdicts[verdict] += 1
        assert verdicts == {EqResult.EQUAL: 856, EqResult.NOT_EQUAL: 1226, EqResult.UNKNOWN: 318}


def _double_signature():
    """The default signature with double(0) = 0, double(s x) = s(s(double(x)))
    and first(x, y) = x."""
    x = EVar("x")
    twice = EApp("s", (EApp("s", (EApp("double", (x,)),)),))
    sig = default_signature().define(
        "double", 1, [Equation((Pattern("zero"),), ENat(0)), Equation((Pattern("succ", "x"),), twice)]
    )
    return sig.define("first", 2, [Equation((Pattern("var", "x"), Pattern("var", "y")), x)])


def _formula_text(rng, depth):
    """Random formula text over the sugar both dialects read, and some they reject."""
    if depth <= 0:
        atoms = ["null(x)", "X(y + 1)", "Y", "top", "bot", "nat(x)", "natp(y)", "x = s(y)", "pred(x) = 0"]
        return rng.choice(atoms + ["(X(x))"])
    a, b = _formula_text(rng, depth - 1), _formula_text(rng, depth - 1)
    return rng.choice([
        f"{a} -> {b}", f"{a} /\\ {b}", f"{a} \\/ {b}", f"not {a}", f"({a})", f"forall x y. {a}",
        f"exists x X. {a}", f"{{x + 1}} -> {a}", f"({a}) /\\ {b} -> {a}", f"not ({a} \\/ {b})",
    ])


def _expr_text(rng, depth):
    """Random expression text, with calls at wrong arities and unknown symbols."""
    if depth <= 0:
        return rng.choice(["x", "y", "0", "12", "pred", "f(x)"])
    a, b = _expr_text(rng, depth - 1), _expr_text(rng, depth - 1)
    return rng.choice(
        [f"{a} + {b}", f"{a} * {b}", f"({a})", f"minus({a}, {b})", f"s({a})", f"pred({a}, {b})", "s()"]
    )


# ---------------------------------------------------------------------------
# deep input at the default recursion limit

N = 100_000


def _chain(wrap, leaf, n=N):
    for _ in range(n):
        leaf = wrap(leaf)
    return leaf


def _probe_substitute():
    t = Lam("y", _chain(lambda b: App(Var("x"), b), Var("y")))
    out = substitute(t, "x", Var("y"))  # the binder is renamed under the whole chain
    assert out.binder == "y'" and out.fv == {"y"} and print_term(out).count("(y") == N - 1


def _probe_continuation_walks():
    t = _chain(lambda b: App(Inst("stop"), b), Kont(stack_of(Numeral(1))))
    deep_kont = _chain(lambda k: Kont(stack_of(k)), Kont(BOTTOM), 3000)
    p = Process(t, stack_of(*[deep_kont] * 3, *[Numeral(1)] * N))
    assert not is_proof_like(p)
    q = extend_stack_bottom(p, stack_of(Numeral(2)))
    assert len(q.stack) == N + 4 and print_stack(q.stack).endswith("#1 . #2 . $")
    text = print_term(deep_kont)
    assert len(text) == len("k[$]") + 3000 * len("k[ . $]") and parse_term(text) == deep_kont
    assert hash(deep_kont) == hash(parse_term(text)) and alpha_key(deep_kont)[-1][0] == "k"


def _probe_inline():
    t = _chain(lambda b: App(Inst("f"), b), Inst("stop"))
    out = inline_instructions(t, {"f": Lam("x", Var("x")), "g": Inst("f")})
    assert out.fv == frozenset() and print_term(out).count("x. x") == N


def _probe_cps():
    t = Lam("x", _chain(lambda b: App(b, Var("x")), Var("x")))
    image = cps_term(t)
    assert image.binder == "k1" and not image.fv
    k = _chain(lambda k: Kont(stack_of(k)), Kont(BOTTOM), 3000)
    assert print_term(cps_stack(stack_of(k, *[Numeral(0)] * 3000))).count("z0") == 6002


def _probe_formula_walks():
    n = 3000
    a = PredVar("A", (EVar("y"),))
    f = All1("y", _chain(lambda b: Imp(a, b), PredVar("B", (EVar("x"), EVar("y"))), n))
    g = subst_expr1(f, "x", EVar("y"))  # renames y under the whole chain
    assert g.x == "y'" and g.fv == {"A", "B", "y"}
    h = subst_pred(All2("X", 0, f), "A", ("v",), Null(EApp("s", (EVar("v"),))))
    assert h.fv == {"B", "x"} and str(h).count("null(s(y))") == n
    assert str(normalize_formula_pa2(h, SIG)).count("forall Z. Z") == n
    bot = formula_bot(f, ReturnFormula(PredVar("R", (EVar("y"),))))
    assert bot.x == "y'" and str(bot).count("-> R(y)") == n
    rel = relativize_nat(f)
    assert is_fully_relativized(rel) and not is_fully_relativized(f)
    assert f == All1("z", subst_expr1(f.body, "y", EVar("z"))) and f != All1("z", f.body)


def _probe_commutation():
    # (exists x. ... exists x. A(x)) -> B, 3,000 existentials moved out
    ante = _chain(lambda b: Ex1("x", b), PredVar("A", (EVar("x"),)), 3000)
    f = normalize_formula_ha2(Imp(ante, PredVar("B")), SIG)
    assert str(f) == "forall " + " ".join(["x"] * 3000) + ". A(x) -> B"


def _probe_expressions():
    e = _chain(lambda b: EApp("s", (b,)), EApp("+", (EVar("x"), EVar("y"))))
    assert print_expr(normalize_expr(expr_subst(e, {"y": ENat(0)}), SIG)) == "s(" * N + "x + 0" + ")" * N
    assert print_expr(normalize_expr(parse_expr("3000 + x", SIG), SIG)).count("s(") == 3000
    assert parse_expr("(" * N + "x" + ")" * N, SIG) == EVar("x")
    assert len(print_expr(parse_expr(" + ".join(["x"] * N), SIG))) == 4 * N - 3
    assert len(print_expr(parse_expr("s(" * N + "x" + ")" * N, SIG))) == 3 * N + 1


def _probe_compiler():
    deep = _chain(lambda b: EApp("pred", (EApp("s", (b,)),)), EVar("x"), 3000)
    sig = SIG.define("deep", 1, [Equation((Pattern("var", "x"),), deep)])
    assert print_term(compile_primrec("deep", sig)).count("\\v") == 6000


def _probe_inner_equality():
    z0 = HConst("z0")
    t = _chain(lambda b: App(b, z0), z0)
    assert inner_equal(t, App(t, z0)) is EqResult.NOT_EQUAL
    assert inner_equal(App(t, z0), App(t, HConst("sc"))) is EqResult.NOT_EQUAL
    # open spines f a ... a: against one more a, and against g a ... a
    a = Var("a")
    f, g = (_chain(lambda b: App(b, a), Var(head)) for head in "fg")
    for u in (App(f, a), g):
        started = time.perf_counter()
        assert inner_equal(f, u) is EqResult.NOT_EQUAL
        assert time.perf_counter() - started < 1.0


def _probe_expression_equality():
    a, b = (_chain(lambda e: EApp("s", (e,)), EVar("x")) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert a != _chain(lambda e: EApp("s", (e,)), EVar("y"))


def _probe_stack_equality():
    s, t = (stack_of(*[Numeral(1)] * N) for _ in range(2))
    assert s == t and hash(s) == hash(t) and s != stack_of(*[Numeral(1)] * (N - 1), Numeral(2))
    p, q = Process(Inst("stop"), s), Process(Inst("stop"), t)
    assert p == q and hash(p) == hash(q)


def _probe_term_equality():
    def binders_over_spine(prefix):
        names = [f"{prefix}{i}" for i in range(N)]
        t = _chain(lambda b: App(b, Var(names[0])), Var(names[0]))
        for name in reversed(names):
            t = Lam(name, t)
        return t

    t, u = binders_over_spine("v"), binders_over_spine("w")
    started = time.perf_counter()
    assert t == u  # each variable is found at its binder's depth, not by a scan
    assert time.perf_counter() - started < 2.0
    a, b, c = (_chain(lambda t: App(t, Inst("stop")), Numeral(n)) for n in (1, 1, 2))
    assert a == b and a != c


def _probe_repr():
    t = _chain(lambda b: Lam("x", b), Var("x"))
    assert repr(t) == "Lam(binder='x', body=" * N + "Var(name='x')" + ")" * N
    s = stack_of(*[Kont(stack_of(Numeral(1)))] * N)
    cell = "Push(top=Kont(saved=Push(top=Numeral(n=1), rest=Bottom())), rest="
    assert repr(Process(Inst("stop"), s)) == "Process(head=Inst(name='stop'), stack=" + cell * N + "Bottom()" + ")" * (N + 1)


def _probe_term_parsers():
    assert parse_process("(" * N + "stop" + ")" * N + " * $") == parse_process("stop * $")
    assert len(parse_stack(" . ".join(["#1"] * N) + " . $")) == N
    t = parse_term("\\x. " * N + "x")
    assert print_term(t) == "\\" + " ".join(["x"] * N) + ". x"
    pairs = parse_hterm("<z0; " * N + "z0" + ">" * N)
    assert len(print_term(pairs)) == len("<z0; ") * N + 2 + N
    script = parse_script("Eval " + "(" * N + "stop" + ")" * N + " * $;")
    assert str(script.statements[0].process) == "stop * $"


def _probe_formula_parser():
    assert parse_formula("(" * N + "null(x)" + ")" * N, SIG) == Null(EVar("x"))
    f = parse_formula(" -> ".join(["X(x)"] * N), SIG)
    assert len(print_formula(f)) == len(" -> ".join(["X(x)"] * N))
    g = parse_hformula("not " * 3000 + "nat(x) /\\ " * 3000 + "Y", SIG)
    assert g.fv == {"x", "Y"}


@pytest.mark.usefixtures("default_recursion_limit")
@pytest.mark.parametrize(
    "probe",
    [
        _probe_substitute,
        _probe_continuation_walks,
        _probe_inline,
        _probe_cps,
        _probe_formula_walks,
        _probe_commutation,
        _probe_expressions,
        _probe_compiler,
        _probe_inner_equality,
        _probe_expression_equality,
        _probe_stack_equality,
        _probe_term_equality,
        _probe_repr,
        _probe_term_parsers,
        _probe_formula_parser,
    ],
    ids=lambda probe: probe.__name__.removeprefix("_probe_"),
)
def test_deep_input(probe):
    probe()


@pytest.mark.parametrize(
    "text",
    [
        " /\\ ".join(["X(x)"] * 3000),
        " \\/ ".join(["X(x)"] * 3000),
        "exists x. " * 3000 + "X(x)",
        "exists X. " * 3000 + "X(x)",
    ],
    ids=["and", "or", "exists1", "exists2"],
)
def test_sugar_chains_translate_in_linear_time(text, default_recursion_limit):
    started = time.perf_counter()
    lines, _, code = translate_statement(parse_formula(text, SIG))
    assert code == 0 and len(lines) == 2
    assert time.perf_counter() - started < 2.0


def test_normal_form_of_a_deep_chain_in_linear_time(default_recursion_limit):
    e = _chain(lambda b: EApp("pred", (b,)), EVar("x"), 8000)
    started = time.perf_counter()
    assert normalize_expr(e, SIG) == e
    assert time.perf_counter() - started < 0.5


def test_rewrite_chain_normalizes_in_linear_time(default_recursion_limit):
    # each rewrite binds the already normal s^k(x) and s^k(y): none is walked again
    x, y = (_chain(lambda b: EApp("s", (b,)), EVar(v), 4000) for v in "xy")
    started = time.perf_counter()
    assert normalize_expr(EApp("minus", (x, y)), SIG) == EApp("minus", (EVar("x"), EVar("y")))
    assert time.perf_counter() - started < 0.5


def _with_fault(rng, e):
    """e with one subexpression put under a faulty call: an unknown symbol,
    or a known one with one argument too few or too many."""
    if type(e) is EApp and e.args and rng.random() < 0.6:
        args = list(e.args)
        i = rng.randrange(len(args))
        args[i] = _with_fault(rng, args[i])
        return EApp(e.symbol, tuple(args))
    symbol = rng.choice(["nope", "+", "*", "pred", "neg", "minus", "s"])
    if symbol == "nope":
        return EApp(symbol, (e,))
    arity = SIG.arity(symbol) + rng.choice((-1, 1))
    return EApp(symbol, tuple([e] + [random_expr(rng, 2) for _ in range(arity - 1)])[:arity])


def test_normal_form_of_faulty_expressions_matches_reference():
    # a value or the same error as the reference, on one or two faults per expression
    rng = random.Random(18)
    corpus = []
    for _ in range(3000):
        e = random_expr(rng, rng.randint(1, 8))
        for _ in range(rng.randint(1, 2)):
            e = _with_fault(rng, e)
        corpus.append(e)
    # s(0, 0) is left ground in the normal form of y + s(neg(s(z)), 0); the rewrite of
    # s(x) + ... binds it, so the reference normalizes it again and meets the fault
    x, y, z = EVar("x"), EVar("y"), EVar("z")
    stuck = EApp("s", (EApp("neg", (EApp("s", (z,)),)), ENat(0)))
    corpus.append(EApp("+", (EApp("s", (x,)), EApp("+", (y, stuck)))))
    for e in corpus:
        outcomes = []
        for normalize in (normalize_expr, aref.normalize_expr):
            try:
                outcomes.append(normalize(e, SIG))
            except LamcError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
        assert outcomes[0] == outcomes[1], print_expr(e)


def test_existsN_chain_translates_in_linear_time():
    started = time.perf_counter()
    f = PredVar("X", (EVar("x"),))
    for _ in range(3000):
        f = expand_abbreviation("existsN", ["x", f])
    lines, _, code = translate_statement(f)
    assert code == 0 and len(lines) == 2
    assert time.perf_counter() - started < 2.0


def test_equality_rejects_without_keys(monkeypatch):
    f = _chain(lambda b: Imp(PredVar("A"), b), PredVar("B"))

    def refuse(_):
        raise AssertionError("keyed")

    monkeypatch.setattr(formulas, "_fkey", refuse)
    assert f != All1("x", f) and f != Imp(PredVar("A"), PredVar("C")) and f == f


def test_deep_formula_option_exits_zero(capsys):
    depth = 6000
    assert main(["translate", "--formula", "(" * depth + "null(x)" + ")" * depth]) == 0
    out = capsys.readouterr().out
    assert out == "translate formula bot: null(neg(x))\ntranslate formula nn: null(neg(x)) -> R\n"
