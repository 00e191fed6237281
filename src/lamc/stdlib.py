"""A library of named lambda-c terms: numeral encodings, pairing, the
fixpoint combinator, a compiler from primitive recursive definitions to
closed terms, comparison, Peano axiom terms and the minimum-principle
realizer.

Every catalog term is closed and proof-like.  Operational contracts are
stated next to each builder; the test suite checks them on the machine.
The compiler's right-hand sides are a recursive walk on
``syntax.trampoline``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Mapping

from .arith import EApp, EVar, PrimRecSignature, _self_calls, default_signature, nat_of_expr
from .machine import RuleError
from .syntax import App, Inst, Lam, Numeral, Term, Var, app, lam, trampoline

IDENTITY = Lam("x", Var("x"))


# ---------------------------------------------------------------------------
# numerals


def church(n: int) -> Term:
    """The Church numeral \\x f. f^n x."""
    body: Term = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return lam("x f", body)


def lazy_numeral(n: int) -> Term:
    """The lazy numeral \\x. x #n: the program-level representative of n."""
    return Lam("x", App(Var("x"), Numeral(n)))


def church_to_lazy() -> Term:
    """Sends a Church numeral to the corresponding lazy numeral."""
    return Lam("z", app(Var("z"), lazy_numeral(0), Lam("y", App(Var("y"), Inst("s")))))


def lazy_to_church() -> Term:
    """Sends a lazy numeral to a term behaving as the Church numeral."""
    step = lam("w n x f", App(Var("f"), app(Var("n"), Var("x"), Var("f"))))
    return Lam("z", App(Var("z"), app(Inst("rec"), lam("x f", Var("x")), step)))


# ---------------------------------------------------------------------------
# pairing and fixpoint


PAIR = lam("x y z", app(Var("z"), Var("x"), Var("y")))


def make_pair(a: Term, b: Term) -> Term:
    """The ordered pair <a; b> = \\z. z a b."""
    return Lam("z", app(Var("z"), a, b))


def turing_fixpoint() -> Term:
    """Turing's fixpoint combinator: Y * F . pi evaluates in a few steps to
    F * (Y F) . pi, which makes it fit for call-by-name recursion."""
    half = lam("y z", App(Var("z"), app(Var("y"), Var("y"), Var("z"))))
    return App(half, half)


# ---------------------------------------------------------------------------
# Peano axioms


def peano_axiom_terms() -> dict[str, Term]:
    """Proof terms for Peano's 3rd and 4th axioms.

    peano3 proves s(x)=s(y) => x=y through the congruence pred(s(x)) = x;
    peano4 proves not (s(x)=0): the equality sends a proof of top (here the
    arbitrary proof-term \\w.w) to a proof of bottom.
    """
    return {
        "peano3": Lam("z", Var("z")),
        "peano4": Lam("z", App(Var("z"), Lam("w", Var("w")))),
    }


# ---------------------------------------------------------------------------
# the primitive recursive compiler


def compile_primrec(
    name: str, sig: PrimRecSignature, cache: dict[str, Term] | None = None
) -> Term:
    """A closed term computing the signature symbol: the compiled term
    satisfies  f * n1 . ... . nk . u . pi  >*  u * m . pi  with m the value.

    Case analysis on constructor patterns is performed with rec; recursion
    is tied with Turing's fixpoint; previously compiled symbols are inlined.
    """
    if cache is None:
        cache = {}
    if name in cache:
        return cache[name]
    if name not in sig:
        raise RuleError(f"unknown function symbol {name!r}")
    sym = sig.symbols[name]
    if name == "0":
        term = Lam("u", App(Var("u"), Numeral(0)))
        cache[name] = term
        return term
    if name == "s":
        cache[name] = Inst("s")
        return Inst("s")

    compiler = _PrimRecCompiler(name, sym, sig, cache)
    tree = compiler.build([None] * sym.arity)
    body = lam(" ".join(compiler.arg_names + ["u"]), tree)
    recursive = any(True for eq in sym.equations for _ in _self_calls(eq.rhs, name))
    term = App(turing_fixpoint(), Lam("self", body)) if recursive else body
    cache[name] = term
    return term


class _PrimRecCompiler:
    """The compilation of one symbol.  Methods rather than nested
    functions, so that compiling leaves no reference cycle behind."""

    def __init__(self, name: str, sym, sig: PrimRecSignature, cache: dict[str, Term]):
        self.name = name
        self.sym = sym
        self.sig = sig
        self.cache = cache
        self.arg_names = [f"x{i + 1}" for i in range(sym.arity)]
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def compile_rhs(self, e, env: dict[str, Term], k: Term) -> Term:
        """The term that computes e and passes its value to k."""
        return trampoline(self._rhs(e, env, k))

    def _rhs(self, e, env: dict[str, Term], k: Term):
        """The walk of ``compile_rhs``.  A call evaluates its arguments in
        turn; each argument that is not a variable or a numeral gets a
        fresh name v, and is compiled after the rest of the call, with
        continuation \\v. (the rest), the last such argument first."""
        while isinstance(e, EApp) and e.symbol == "s":
            v = self.fresh("v")
            e, k = e.args[0], Lam(v, app(Inst("s"), Var(v), k))
        lit = nat_of_expr(e)
        if lit is not None:
            return App(k, Numeral(lit))
        if isinstance(e, EVar):
            return App(k, env[e.name])
        fn = Var("self") if e.symbol == self.name else compile_primrec(e.symbol, self.sig, self.cache)
        values: list[Term] = []
        nested = []  # (argument, its name)
        for a in e.args:
            lit = nat_of_expr(a)
            if isinstance(a, EVar):
                values.append(env[a.name])
            elif lit is not None:
                values.append(Numeral(lit))
            else:
                v = self.fresh("v")
                nested.append((a, v))
                values.append(Var(v))
        t = App(app(fn, *values), k)
        for a, v in reversed(nested):
            t = yield self._rhs(a, env, Lam(v, t))
        return t

    def build(self, knowledge: list) -> Term:
        cands = [
            eq
            for eq in self.sym.equations
            if all(_pat_consistent(p, know) for p, know in zip(eq.patterns, knowledge))
        ]
        if not cands:  # unreachable: equations are exhaustive
            raise RuleError(f"{self.name}: no equation matches")
        split = None
        for i, know in enumerate(knowledge):
            if know is None and any(eq.patterns[i].kind != "var" for eq in cands):
                split = i
                break
        if split is None:
            eq = cands[0]
            env: dict[str, Term] = {}
            for i, p in enumerate(eq.patterns):
                if p.kind == "var":
                    env[p.var] = Var(self.arg_names[i])
                elif p.kind == "succ":
                    env[p.var] = Var(knowledge[i][1])
            return self.compile_rhs(eq.rhs, env, Var("u"))
        zero_branch = self.build(knowledge[:split] + ["zero"] + knowledge[split + 1 :])
        pv = f"p{split}"
        succ_branch = self.build(knowledge[:split] + [("succ", pv)] + knowledge[split + 1 :])
        dump = self.fresh("w")
        return app(
            Inst("rec"), zero_branch, lam(f"{pv} {dump}", succ_branch), Var(self.arg_names[split])
        )


def _pat_consistent(pat, know) -> bool:
    if know is None or pat.kind == "var":
        return True
    if know == "zero":
        return pat.kind == "zero"
    return pat.kind == "succ"


# ---------------------------------------------------------------------------
# comparison


def test_le_term(sig: PrimRecSignature | None = None) -> Term:
    """A closed term deciding n <= m:
    test_le * n . m . u . v . pi  >*  u * pi  if n <= m, else  v * pi."""
    sig = sig or default_signature()
    cache: dict[str, Term] = {}
    minus = compile_primrec("minus", sig, cache)
    neg = compile_primrec("neg", sig, cache)
    # neg(minus(n, m)) is 1 iff n <= m; branch on that bit with rec
    dispatch = app(Inst("rec"), Var("v"), lam("p w", Var("u")), Var("b"))
    body = app(
        minus,
        Var("n"),
        Var("m"),
        Lam("d", app(neg, Var("d"), Lam("b", dispatch))),
    )
    return lam("n m u v", body)


# ---------------------------------------------------------------------------
# the minimum principle


def min_principle_realizers(test_le: Term | None = None) -> dict[str, Term]:
    """Hand-built universal realizers for the functional minimum principle.

    min_aux takes an implementation of f, a continuation for backtracking,
    the current witness proposal n and its image m = f(n); it returns the
    pair <n; h> whose second component h compares m with the image of any
    challenger and backtracks through the continuation when the challenger
    does better.  min_princ computes f(0), saves the continuation with one
    call/cc and starts min_aux at 0.
    """
    test_le = test_le if test_le is not None else Inst("test_le")
    challenger = Lam(
        "m2",
        app(
            test_le,
            Var("m"),
            Var("m2"),
            IDENTITY,
            App(Var("k"), app(Var("r"), Var("f"), Var("k"), Var("n2"), Var("m2"))),
        ),
    )
    second = Lam("n2", app(Var("f"), Var("n2"), challenger))
    min_aux = App(
        turing_fixpoint(),
        lam("r f k n m", make_pair(Var("n"), second)),
    )
    min_princ = Lam(
        "f",
        app(
            Var("f"),
            Numeral(0),
            Lam("m", App(Inst("cc"), Lam("k", app(min_aux, Var("f"), Var("k"), Numeral(0), Var("m"))))),
        ),
    )
    return {"min_aux": min_aux, "min_princ": min_princ}


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class NamedTerm:
    name: str
    term: Term
    contract: str


@cache
def catalog() -> Mapping[str, NamedTerm]:
    """Named closed proof-like terms addressable from scripts (`use name;`).

    Built once, on first use, and shared read-only: terms are immutable."""

    def entry(name: str, term: Term, contract: str) -> tuple[str, NamedTerm]:
        return name, NamedTerm(name, term, contract)

    test_le = test_le_term()
    minp = min_principle_realizers(test_le)
    return MappingProxyType(dict(
        [
            entry("I", IDENTITY, "I * t . pi  >  t * pi"),
            entry("pair", PAIR, "pair * x . y . z . pi  >*  z * x . y . pi"),
            entry("Y", turing_fixpoint(), "Y * F . pi  >*  F * (Y F) . pi"),
            entry("peano3", peano_axiom_terms()["peano3"], "proof term for s(x)=s(y) => x=y"),
            entry("peano4", peano_axiom_terms()["peano4"], "proof term for not (s(x)=0)"),
            entry(
                "church_to_lazy",
                church_to_lazy(),
                "applied to a Church numeral, behaves as the lazy numeral",
            ),
            entry(
                "lazy_to_church",
                lazy_to_church(),
                "applied to a lazy numeral, behaves as the Church numeral",
            ),
            entry("test_le", test_le, "test_le * n . m . u . v . pi  >*  u|v * pi"),
            entry("min_aux", minp["min_aux"], "see min_principle_realizers"),
            entry("min_princ", minp["min_princ"], "universal realizer of the minimum principle"),
        ]
    ))
