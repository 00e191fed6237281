"""The negative translation: PA2+ formulas to HA2 formulas, and the CPS
translation of lambda-c terms, stacks and processes to HA2 terms.

The formula translation is parameterized by a return formula R standing
for the pole; A-bot is the type of stacks against A and A-notnot is
A-bot => R.  The term translation sends machine evaluation to weak
reduction; the instruction set is closed to cc, s, rec, stop and the
numerals, so user instructions must be inlined first and print has no
translation at all.  It translates a closed subterm once per ``CpsMemo``
and shares the image wherever that object recurs, so a term built with
shared subterms gets an image with the same sharing, alpha-equal to the
unshared one; a parsed term shares no node, and its printed image does
not depend on the memo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import ArithExpr, EApp, EVar
from .formulas import (
    All1,
    All2,
    And,
    Brace,
    Ex1,
    Ex2,
    Formula,
    Imp,
    Nat,
    Null,
    PredVar,
    _rebind,
    formula_free_vars,
)
from .ha2 import FST, REC, SND, Z0, hnumeral, hpair
from .syntax import (
    App,
    Bottom,
    HConst,
    Inst,
    Kont,
    Lam,
    LamcError,
    Numeral,
    Process,
    Push,
    Stack,
    Term,
    Var,
    app,
)

_EMPTY: frozenset[str] = frozenset()


class TranslationError(LamcError):
    pass


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class ReturnFormula:
    """The pole formula R, fixed for a translation session."""

    formula: Formula


def sigma01_return_formula(f: str, var: str = "x") -> ReturnFormula:
    """The Friedman-trick instantiation for the Sigma-0-1 pipeline:
    R = exists x (nat(x) /\\ null(f(x)))."""
    x = EVar(var)
    return ReturnFormula(Ex1(var, And(Nat(x), Null(EApp(f, (x,))))))


def formula_bot(a: Formula, R: ReturnFormula) -> Formula:
    """The stack type A-bot of the negative translation."""
    r_free = formula_free_vars(R.formula)
    return _bot(a, R.formula, r_free)


def formula_nn(a: Formula, R: ReturnFormula) -> Formula:
    """The proof type A-notnot = A-bot => R."""
    return Imp(formula_bot(a, R), R.formula)


def _bot(a: Formula, R: Formula, r_free: frozenset[str]) -> Formula:
    match a:
        case PredVar():
            return a
        case Null(e):
            return Null(EApp("neg", (e,)))
        case Imp(x, b):
            return And(Imp(_bot(x, R, r_free), R), _bot(b, R, r_free))
        case Brace(e, b):
            return And(Nat(e), _bot(b, R, r_free))
        case All1(x, _) | All2(x, _, _) if x in r_free:
            return _bot(_rebind(a, r_free), R, r_free)
        case All1(x, body):
            return Ex1(x, _bot(body, R, r_free))
        case All2(x, arity, body):
            return Ex2(x, arity, _bot(body, R, r_free))
    raise TypeError(f"not a PA2 formula: {a!r}")


@dataclass(frozen=True)
class BraceDecl:
    """A context declaration x : {e} of PA2+."""

    e: ArithExpr


def translate_context(
    ctx: list[tuple[str, Formula | BraceDecl]], R: ReturnFormula
) -> list[tuple[str, Formula]]:
    """Context translation: x:A becomes x:A-notnot, x:{e} becomes x:nat(e)."""
    out: list[tuple[str, Formula]] = []
    for name, decl in ctx:
        if isinstance(decl, BraceDecl):
            out.append((name, Nat(decl.e)))
        else:
            out.append((name, formula_nn(decl, R)))
    return out


# ---------------------------------------------------------------------------
# terms, stacks, processes


class _Fresh:
    """The names k1, k2, ... in turn; each call skips the names it must
    avoid, so no two binders of one translation share a name."""

    def __init__(self) -> None:
        self.counter = 0

    def __call__(self, avoid: frozenset[str] = _EMPTY, binder: str | None = None) -> str:
        while True:
            self.counter += 1
            name = f"k{self.counter}"
            if name not in avoid and name != binder:
                return name


class CpsMemo:
    """CPS images by identity, of closed terms and of stack cells.  The
    image of a closed term is closed, so it serves wherever the term
    recurs.  Each translation makes a fresh memo unless the caller hands
    one on.  The simulator keeps one for one check; ``CpsMemo(previous)``
    reads through to the table of the check before, so that along a
    machine run each process is translated once, as the target of one
    step and then as the source of the next."""

    __slots__ = ("table", "previous")

    def __init__(self, previous: CpsMemo | None = None) -> None:
        # id() of a term or cell -> (it, its image); holding it keeps its id() its own
        self.table: dict[int, tuple] = {}
        self.previous: dict[int, tuple] = previous.table if previous is not None else {}

    def get(self, node) -> Term | None:
        hit = self.table.get(id(node))
        if hit is None:
            hit = self.previous.get(id(node))
            if hit is None:
                return None
            self.table[id(node)] = hit
        return hit[1]

    def put(self, node, image: Term) -> Term:
        self.table[id(node)] = (node, image)
        return image


def _letp(x: str, y: str, u: Term, body: Term) -> Term:
    """The destructing let: (\\x y. body) (fst u) (snd u)."""
    return app(Lam(x, Lam(y, body)), App(FST, u), App(SND, u))


def cps_term(t: Term, memo: CpsMemo | None = None) -> Term:
    """CPS-translate a lambda-c term over the closed instruction set.  A
    closed subterm is translated once per memo, a fresh one unless given:
    where it recurs as the same object, its image is the same object too."""
    return _cps(t, _Fresh(), memo if memo is not None else CpsMemo())


def _cps(t: Term, fresh: _Fresh, memo: CpsMemo) -> Term:
    closed = isinstance(t, Term) and not t.fv
    if closed:
        image = memo.get(t)
        if image is not None:
            return image
    # a fresh binder scopes over images whose free variables are among those
    # of t and its binder, so it avoids exactly these
    match t:
        case Var(_):
            return t
        case App(fn, arg):
            k = fresh(t.fv)
            image = Lam(k, App(_cps(fn, fresh, memo), hpair(_cps(arg, fresh, memo), Var(k))))
        case Lam(x, body):
            k, k2 = fresh(t.fv, x), fresh(t.fv, x)
            image = Lam(k, _letp(x, k2, Var(k), App(_cps(body, fresh, memo), Var(k2))))
        case Numeral(n):
            image = hnumeral(n)
        case Kont(saved):
            k, w = fresh(), fresh()
            image = Lam(k, _letp("x", w, Var(k), App(Var("x"), _cps_stack(saved, fresh, memo))))
        case Inst("stop"):
            image = Lam("z", Var("z"))
        case Inst("cc"):
            image = _cps_cc(fresh)
        case Inst("s"):
            image = _cps_succ(fresh)
        case Inst("rec"):
            image = _cps_rec(fresh)
        case Inst(name):
            raise TranslationError(
                f"instruction {name!r} has no CPS translation; the closed "
                f"instruction set is cc, s, rec, stop and the numerals"
                + (" (kamikaze processes are untranslatable)" if name == "print" else "")
            )
        case _:
            raise TypeError(f"not a term: {t!r}")
    return memo.put(t, image) if closed else image


def _cps_cc(fresh: _Fresh) -> Term:
    k, k1, k2, w = fresh(), fresh(), fresh(), fresh()
    resume = Lam(k2, _letp("y", w, Var(k2), App(Var("y"), Var(k1))))
    return Lam(k, _letp("x", k1, Var(k), App(Var("x"), hpair(resume, Var(k1)))))


def _cps_succ(fresh: _Fresh) -> Term:
    k, k1, k2 = fresh(), fresh(), fresh()
    inner = _letp("y", k2, Var(k1), App(Var("y"), hpair(App(HConst("sc"), Var("x")), Var(k2))))
    return Lam(k, _letp("x", k1, Var(k), inner))


def _cps_rec(fresh: _Fresh) -> Term:
    k, k1, k2, k3, k0, kk = fresh(), fresh(), fresh(), fresh(), fresh(), fresh()
    step = Lam(
        "xp",
        Lam(
            "y",
            Lam(
                k0,
                App(
                    Var("r1"),
                    hpair(Var("xp"), hpair(Lam(kk, App(Var("y"), Var(kk))), Var(k0))),
                ),
            ),
        ),
    )
    body = app(REC, Var("r0"), step, Var("x"), Var(k3))
    inner2 = _letp("x", k3, Var(k2), body)
    inner1 = _letp("r1", k2, Var(k1), inner2)
    return Lam(k, _letp("r0", k1, Var(k), inner1))


def cps_stack(pi: Stack, memo: CpsMemo | None = None) -> Term:
    """Stacks translate as finite lists: bottom to z0, consing to pairing.
    Cells and closed terms go through the memo, as in ``cps_term``."""
    return _cps_stack(pi, _Fresh(), memo if memo is not None else CpsMemo())


def _cps_stack(pi: Stack, fresh: _Fresh, memo: CpsMemo) -> Term:
    # the tops are translated top first, which keeps the order of the fresh
    # names in the printed image; then the pairs are built bottom up
    cells: list[Push] = []
    while isinstance(pi, Push):
        tail = memo.get(pi)
        if tail is not None:
            break
        cells.append(pi)
        pi = pi.rest
    else:
        if not isinstance(pi, Bottom):
            raise TypeError(f"not a stack: {pi!r}")
        tail = Z0
    tops = [_cps(cell.top, fresh, memo) for cell in cells]
    for cell, top in zip(reversed(cells), reversed(tops)):
        tail = memo.put(cell, hpair(top, tail))
    return tail


def cps_process(p: Process, memo: CpsMemo | None = None) -> Term:
    """(t * pi) translates to the application t-star pi-star; the head and
    the stack share one memo."""
    memo = memo if memo is not None else CpsMemo()
    return App(cps_term(p.head, memo), cps_stack(p.stack, memo))


# ---------------------------------------------------------------------------
# instruction inlining (macro instructions before translation)


def inline_instructions(t: Term, mapping: dict[str, Term]) -> Term:
    """Replace named instructions by closed lambda-c terms, recursively.
    Cyclic definitions are rejected."""
    return _inline(t, mapping, ())


def _inline(t: Term, mapping: dict[str, Term], path: tuple[str, ...]) -> Term:
    match t:
        case Inst(name) if name in mapping:
            if name in path:
                raise TranslationError(
                    f"cannot inline recursive instruction {name!r}; "
                    f"use a fixpoint-based term instead"
                )
            return _inline(mapping[name], mapping, path + (name,))
        case App(fn, arg):
            return App(_inline(fn, mapping, path), _inline(arg, mapping, path))
        case Lam(x, body):
            return Lam(x, _inline(body, mapping, path))
        case Kont(saved):
            return Kont(_inline_stack(saved, mapping, path))
        case _:
            return t


def _inline_stack(pi: Stack, mapping: dict[str, Term], path):
    match pi:
        case Bottom():
            return pi
        case Push(top, rest):
            return Push(_inline(top, mapping, path), _inline_stack(rest, mapping, path))
    raise TypeError(f"not a stack: {pi!r}")
