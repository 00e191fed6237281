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
not depend on the memo.  The translations are recursive walks on
``syntax.trampoline``.
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
    stack_of,
    trampoline,
)

_EMPTY: frozenset[str] = frozenset()

# The largest numeral the translation takes: the image of #n is the unary
# sc (... (sc z0)), n + 1 nodes of about 56 bytes each (560 MB at the bound).
MAX_CPS_NUMERAL = 10**7


class TranslationError(LamcError):
    pass


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class ReturnFormula:
    """The pole formula R, fixed for a translation session."""

    formula: Formula


def sigma01_return_formula(f: str) -> ReturnFormula:
    """The Friedman-trick instantiation for the Sigma-0-1 pipeline:
    R = exists x (nat(x) /\\ null(f(x)))."""
    x = EVar("x")
    return ReturnFormula(Ex1("x", And(Nat(x), Null(EApp(f, (x,))))))


def formula_bot(a: Formula, R: ReturnFormula) -> Formula:
    """The stack type A-bot of the negative translation."""
    return trampoline(_bot(a, R.formula, formula_free_vars(R.formula)))


def formula_nn(a: Formula, R: ReturnFormula) -> Formula:
    """The proof type A-notnot = A-bot => R."""
    return Imp(formula_bot(a, R), R.formula)


def _bot(a: Formula, R: Formula, r_free: frozenset[str]):
    match a:
        case PredVar():
            return a
        case Null(e):
            return Null(EApp("neg", (e,)))
        case Imp(x, b):
            return And(Imp((yield _bot(x, R, r_free)), R), (yield _bot(b, R, r_free)))
        case Brace(e, b):
            return And(Nat(e), (yield _bot(b, R, r_free)))
        case All1(x, _) | All2(x, _, _) if x in r_free:
            return (yield _bot(_rebind(a, r_free), R, r_free))
        case All1(x, body):
            return Ex1(x, (yield _bot(body, R, r_free)))
        case All2(x, arity, body):
            return Ex2(x, arity, (yield _bot(body, R, r_free)))
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
    return _translate(t, memo)


def _translate(t: Term | Stack, memo: CpsMemo | None) -> Term:
    memo = memo if memo is not None else CpsMemo()
    image = memo.get(t)  # only closed terms and stack cells are in a memo
    return image if image is not None else trampoline(_cps(t, _Fresh(), memo))


def _cps(t: Term | Stack, fresh: _Fresh, memo: CpsMemo):
    """The walk of the translation of terms and stacks.  Fresh names are
    drawn before the parts are translated, so they come in the order of
    the recursive translation.  A closed term's image, and a stack cell's,
    goes into the memo."""
    cls = type(t)
    if cls is Push or cls is Bottom:
        # the cells down to the first one in the memo: their tops are
        # translated top first, then the pairs are built bottom up
        cells: list[Push] = []
        while type(t) is Push:
            tail = memo.get(t)
            if tail is not None:
                break
            cells.append(t)
            t = t.rest
        else:
            tail = Z0
        tops = []
        for cell in cells:
            top = cell.top
            tops.append(top if type(top) is Var else (yield _cps(top, fresh, memo)))
        for cell, top in zip(reversed(cells), reversed(tops)):
            tail = memo.put(cell, hpair(top, tail))
        return tail
    if cls is Var:
        return t
    closed = not t.fv
    if closed:
        image = memo.get(t)
        if image is not None:
            return image
    # a fresh binder scopes over images whose free variables are among those
    # of t and its binder, so it avoids exactly these
    if cls is App:
        k = fresh(t.fv)
        fn, arg = t.fn, t.arg
        if type(fn) is not Var:
            fn = yield _cps(fn, fresh, memo)
        if type(arg) is not Var:
            arg = yield _cps(arg, fresh, memo)
        image = Lam(k, App(fn, hpair(arg, Var(k))))
    elif cls is Lam:
        k, k2 = fresh(t.fv, t.binder), fresh(t.fv, t.binder)
        body = t.body
        if type(body) is not Var:
            body = yield _cps(body, fresh, memo)
        image = Lam(k, _letp(t.binder, k2, Var(k), App(body, Var(k2))))
    elif cls is Kont:
        k, w = fresh(), fresh()
        image = Lam(k, _letp("x", w, Var(k), App(Var("x"), (yield _cps(t.saved, fresh, memo)))))
    elif cls is Numeral:
        if t.n > MAX_CPS_NUMERAL:
            raise TranslationError(f"numeral too large to translate (more than {MAX_CPS_NUMERAL})")
        image = hnumeral(t.n)
    elif cls is Inst and t.name in _CPS_INSTRUCTIONS:
        image = _CPS_INSTRUCTIONS[t.name](fresh)
    elif cls is Inst:
        raise TranslationError(
            f"instruction {t.name!r} has no CPS translation; the closed "
            f"instruction set is cc, s, rec, stop and the numerals"
            + (" (kamikaze processes are untranslatable)" if t.name == "print" else "")
        )
    else:
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


_CPS_INSTRUCTIONS = {
    "stop": lambda fresh: Lam("z", Var("z")),
    "cc": _cps_cc,
    "s": _cps_succ,
    "rec": _cps_rec,
}


def cps_stack(pi: Stack, memo: CpsMemo | None = None) -> Term:
    """Stacks translate as finite lists: bottom to z0, consing to pairing.
    Cells and closed terms go through the memo, as in ``cps_term``."""
    if not isinstance(pi, Stack):
        raise TypeError(f"not a stack: {pi!r}")
    return _translate(pi, memo)


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
    return trampoline(_inline(t, mapping, ()))


def _inline(t: Term, mapping: dict[str, Term], path: tuple[str, ...]):
    match t:
        case Inst(name) if name in mapping:
            if name in path:
                raise TranslationError(
                    f"cannot inline recursive instruction {name!r}; "
                    f"use a fixpoint-based term instead"
                )
            return (yield _inline(mapping[name], mapping, path + (name,)))
        case App(fn, arg):
            return App((yield _inline(fn, mapping, path)), (yield _inline(arg, mapping, path)))
        case Lam(x, body):
            return Lam(x, (yield _inline(body, mapping, path)))
        case Kont(saved):
            tops = []
            for top in saved:
                tops.append((yield _inline(top, mapping, path)))
            return Kont(stack_of(*tops))
    return t
