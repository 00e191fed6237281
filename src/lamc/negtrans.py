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
from functools import partial

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
    rebuild,
    stack_of,
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
    return rebuild(a, (R, r_free), _bot_step)


def _bot_step(a: Formula, ctx: tuple[Formula, frozenset[str]]):
    R, r_free = ctx
    match a:
        case PredVar():
            return a
        case Null(e):
            return Null(EApp("neg", (e,)))
        case Imp(x, b):
            return (lambda x, b: And(Imp(x, R), b)), ctx, (x, b)
        case Brace(e, b):
            return partial(And, Nat(e)), ctx, (b,)
        case All1(x, _) | All2(x, _, _) if x in r_free:
            a = _rebind(a, r_free)
    match a:
        case All1(x, body):
            return partial(Ex1, x), ctx, (body,)
        case All2(x, arity, body):
            return partial(Ex2, x, arity), ctx, (body,)
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
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    return rebuild(t, (_Fresh(), memo if memo is not None else CpsMemo()), _cps)


def _cps(t: Term | Stack, ctx: tuple[_Fresh, CpsMemo]):
    """The rebuild step of the translation of terms and stacks.  Fresh
    names are drawn when a node is visited, before its children, so they
    come in the order of the recursive translation."""
    cls = type(t)
    if cls is Var:
        return t
    fresh, memo = ctx
    if cls is Push or cls is Bottom:
        # the cells down to the first one in the memo become one node, whose
        # children are their tops; the pairs are built bottom up
        cells: list[Push] = []
        while type(t) is Push:
            tail = memo.get(t)
            if tail is not None:
                break
            cells.append(t)
            t = t.rest
        else:
            tail = Z0

        def cons(*tops: Term) -> Term:
            image = tail
            for cell, top in zip(reversed(cells), reversed(tops)):
                image = memo.put(cell, hpair(top, image))
            return image

        return cons, ctx, [cell.top for cell in cells]
    closed = not t.fv
    if closed:
        image = memo.get(t)
        if image is not None:
            return image
    # a fresh binder scopes over images whose free variables are among those
    # of t and its binder, so it avoids exactly these; a closed node's image
    # goes into the memo
    put = t if closed else None
    if cls is App:
        return partial(_cps_app, fresh(t.fv), memo, put), ctx, (t.fn, t.arg)
    if cls is Lam:
        k, k2 = fresh(t.fv, t.binder), fresh(t.fv, t.binder)
        return partial(_cps_lam, k, t.binder, k2, memo, put), ctx, (t.body,)
    if cls is Kont:
        k, w = fresh(), fresh()
        return partial(_cps_kont, k, w, memo, put), ctx, (t.saved,)
    match t:
        case Numeral(n):
            return memo.put(t, hnumeral(n))
        case Inst("stop"):
            return memo.put(t, Lam("z", Var("z")))
        case Inst("cc"):
            return memo.put(t, _cps_cc(fresh))
        case Inst("s"):
            return memo.put(t, _cps_succ(fresh))
        case Inst("rec"):
            return memo.put(t, _cps_rec(fresh))
        case Inst(name):
            raise TranslationError(
                f"instruction {name!r} has no CPS translation; the closed "
                f"instruction set is cc, s, rec, stop and the numerals"
                + (" (kamikaze processes are untranslatable)" if name == "print" else "")
            )
    raise TypeError(f"not a term: {t!r}")


def _cps_app(k: str, memo: CpsMemo, put: Term | None, fn: Term, arg: Term) -> Term:
    """The image of an application from the images of its parts."""
    image = Lam(k, App(fn, hpair(arg, Var(k))))
    return image if put is None else memo.put(put, image)


def _cps_lam(k: str, x: str, k2: str, memo: CpsMemo, put: Term | None, body: Term) -> Term:
    """The image of an abstraction over x from the image of its body."""
    image = Lam(k, _letp(x, k2, Var(k), App(body, Var(k2))))
    return image if put is None else memo.put(put, image)


def _cps_kont(k: str, w: str, memo: CpsMemo, put: Term, saved: Term) -> Term:
    """The image of a continuation from the image of its saved stack."""
    return memo.put(put, Lam(k, _letp("x", w, Var(k), App(Var("x"), saved))))


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
    if not isinstance(pi, Stack):
        raise TypeError(f"not a stack: {pi!r}")
    return rebuild(pi, (_Fresh(), memo if memo is not None else CpsMemo()), _cps)


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
    return rebuild(t, (mapping, ()), _inline)


def _inline(t: Term | Stack, ctx: tuple[dict[str, Term], tuple[str, ...]]):
    mapping, path = ctx
    match t:
        case Inst(name) if name in mapping:
            if name in path:
                raise TranslationError(
                    f"cannot inline recursive instruction {name!r}; "
                    f"use a fixpoint-based term instead"
                )
            return _same, (mapping, path + (name,)), (mapping[name],)
        case App(fn, arg):
            return App, ctx, (fn, arg)
        case Lam(x, body):
            return partial(Lam, x), ctx, (body,)
        case Kont(saved):
            return (lambda *tops: Kont(stack_of(*tops))), ctx, tuple(saved)
    return t


def _same(image: Term) -> Term:
    return image
