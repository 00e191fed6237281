"""The negative translation: PA2+ formulas to HA2 formulas, and the CPS
translation of lambda-c terms, stacks and processes to HA2 terms.

The formula translation is parameterized by a return formula R standing
for the pole; A-bot is the type of stacks against A and A-notnot is
A-bot => R.  The term translation sends machine evaluation to weak
reduction; the instruction set is closed to cc, s, rec, stop and the
numerals, so user instructions must be inlined first and print has no
translation at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import ArithExpr, EApp, EVar
from .formulas import (
    FAll1,
    FAll2,
    FBrace,
    FImp,
    FNull,
    FPredVar,
    Formula,
    HAnd,
    HEx1,
    HEx2,
    HFormula,
    HImp,
    HNat,
    HNull,
    HPredVar,
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
    free_vars,
)


class TranslationError(LamcError):
    pass


TRANSLATABLE_INSTRUCTIONS = frozenset({"cc", "s", "rec", "stop"})


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class ReturnFormula:
    """The pole formula R, fixed for a translation session."""

    formula: HFormula


def sigma01_return_formula(f: str, var: str = "x") -> ReturnFormula:
    """The Friedman-trick instantiation for the Sigma-0-1 pipeline:
    R = exists x (nat(x) /\\ null(f(x)))."""
    x = EVar(var)
    return ReturnFormula(HEx1(var, HAnd(HNat(x), HNull(EApp(f, (x,))))))


def formula_bot(a: Formula, R: ReturnFormula) -> HFormula:
    """The stack type A-bot of the negative translation."""
    r_free = formula_free_vars(R.formula)
    return _bot(a, R.formula, r_free)


def formula_nn(a: Formula, R: ReturnFormula) -> HFormula:
    """The proof type A-notnot = A-bot => R."""
    return HImp(formula_bot(a, R), R.formula)


def _bot(a: Formula, R: HFormula, r_free: frozenset[str]) -> HFormula:
    match a:
        case FPredVar(name, args):
            return HPredVar(name, args)
        case FNull(e):
            return HNull(EApp("neg", (e,)))
        case FImp(x, b):
            return HAnd(HImp(_bot(x, R, r_free), R), _bot(b, R, r_free))
        case FBrace(e, b):
            return HAnd(HNat(e), _bot(b, R, r_free))
        case FAll1(x, _) | FAll2(x, _, _) if x in r_free:
            return _bot(_rebind(a, r_free), R, r_free)
        case FAll1(x, body):
            return HEx1(x, _bot(body, R, r_free))
        case FAll2(x, arity, body):
            return HEx2(x, arity, _bot(body, R, r_free))
    raise TypeError(f"not a PA2 formula: {a!r}")


@dataclass(frozen=True)
class BraceDecl:
    """A context declaration x : {e} of PA2+."""

    e: ArithExpr


def translate_context(
    ctx: list[tuple[str, Formula | BraceDecl]], R: ReturnFormula
) -> list[tuple[str, HFormula]]:
    """Context translation: x:A becomes x:A-notnot, x:{e} becomes x:nat(e)."""
    out: list[tuple[str, HFormula]] = []
    for name, decl in ctx:
        if isinstance(decl, BraceDecl):
            out.append((name, HNat(decl.e)))
        else:
            out.append((name, formula_nn(decl, R)))
    return out


# ---------------------------------------------------------------------------
# terms, stacks, processes


class _Fresh:
    def __init__(self, avoid: frozenset[str]):
        self.avoid = set(avoid)
        self.counter = 0

    def __call__(self) -> str:
        while True:
            self.counter += 1
            name = f"k{self.counter}"
            if name not in self.avoid:
                self.avoid.add(name)
                return name


def _letp(x: str, y: str, u: Term, body: Term) -> Term:
    """The destructing let: (\\x y. body) (fst u) (snd u)."""
    return app(Lam(x, Lam(y, body)), App(FST, u), App(SND, u))


def cps_term(t: Term) -> Term:
    """CPS-translate a lambda-c term over the closed instruction set."""
    fresh = _Fresh(free_vars(t))
    return _cps(t, fresh)


def _cps(t: Term, fresh: _Fresh) -> Term:
    match t:
        case Var(_):
            return t
        case App(fn, arg):
            k = fresh()
            return Lam(k, App(_cps(fn, fresh), hpair(_cps(arg, fresh), Var(k))))
        case Lam(x, body):
            k, k2 = fresh(), fresh()
            return Lam(k, _letp(x, k2, Var(k), App(_cps(body, fresh), Var(k2))))
        case Numeral(n):
            return hnumeral(n)
        case Kont(saved):
            k, w = fresh(), fresh()
            return Lam(k, _letp("x", w, Var(k), App(Var("x"), _cps_stack(saved, fresh))))
        case Inst("stop"):
            return Lam("z", Var("z"))
        case Inst("cc"):
            return _cps_cc(fresh)
        case Inst("s"):
            return _cps_succ(fresh)
        case Inst("rec"):
            return _cps_rec(fresh)
        case Inst(name):
            raise TranslationError(
                f"instruction {name!r} has no CPS translation; the closed "
                f"instruction set is cc, s, rec, stop and the numerals"
                + (" (kamikaze processes are untranslatable)" if name == "print" else "")
            )
    raise TypeError(f"not a term: {t!r}")


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


def cps_stack(pi: Stack) -> Term:
    """Stacks translate as finite lists: bottom to z0, consing to pairing."""
    fresh = _Fresh(frozenset())
    return _cps_stack(pi, fresh)


def _cps_stack(pi: Stack, fresh: _Fresh) -> Term:
    match pi:
        case Bottom():
            return Z0
        case Push(top, rest):
            return hpair(_cps(top, fresh), _cps_stack(rest, fresh))
    raise TypeError(f"not a stack: {pi!r}")


def cps_process(p: Process) -> Term:
    """(t * pi) translates to the application t-star pi-star."""
    return App(cps_term(p.head), cps_stack(p.stack))


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
