"""The CPS translation without a memo: the reference of lamc.negtrans.

``_cps`` and ``_cps_stack`` translate every occurrence of a subterm
afresh, so an image is a tree whatever the sharing of its source.  The
translation in ``lamc`` shares the image of a closed subterm wherever the
same object recurs; on input that shares no node (a parsed term) the two
print the same bytes, and on any input their images are alpha-equal.

``inline_instructions`` and ``formula_bot`` are the plain recursive forms
of the walks that ``lamc.negtrans`` runs on the trampoline.
"""

from __future__ import annotations

from lamc.arith import EApp
from lamc.formulas import All1, All2, And, Brace, Ex1, Ex2, Imp, Nat, Null, PredVar, formula_free_vars
from lamc.ha2 import Z0, hnumeral, hpair
from lamc.negtrans import TranslationError, _cps_cc, _cps_rec, _cps_succ, _Fresh, _letp
from lamc.syntax import App, Bottom, Inst, Kont, Lam, Numeral, Process, Push, Stack, Term, Var


def cps_term(t: Term) -> Term:
    return _cps(t, _Fresh())


def _cps(t: Term, fresh: _Fresh) -> Term:
    # a fresh binder scopes over images whose free variables are among those
    # of t and its binder, so it avoids exactly these
    match t:
        case Var(_):
            return t
        case App(fn, arg):
            k = fresh(t.fv)
            return Lam(k, App(_cps(fn, fresh), hpair(_cps(arg, fresh), Var(k))))
        case Lam(x, body):
            k, k2 = fresh(t.fv, x), fresh(t.fv, x)
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
        case _:
            raise TypeError(f"not a term: {t!r}")


def cps_stack(pi: Stack) -> Term:
    return _cps_stack(pi, _Fresh())


def _cps_stack(pi: Stack, fresh: _Fresh) -> Term:
    # the tops are translated top first, which keeps the order of the fresh
    # names in the printed image; then the pairs are built bottom up
    cells: list[Push] = []
    while isinstance(pi, Push):
        cells.append(pi)
        pi = pi.rest
    if not isinstance(pi, Bottom):
        raise TypeError(f"not a stack: {pi!r}")
    tops = [_cps(cell.top, fresh) for cell in cells]
    tail = Z0
    for top in reversed(tops):
        tail = hpair(top, tail)
    return tail


def cps_process(p: Process) -> Term:
    """(t * pi) translates to the application t-star pi-star."""
    return App(cps_term(p.head), cps_stack(p.stack))


def inline_instructions(t: Term, mapping: dict) -> Term:
    return _inline(t, mapping, ())


def _inline(t: Term, mapping: dict, path: tuple) -> Term:
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


def _inline_stack(pi: Stack, mapping: dict, path: tuple) -> Stack:
    match pi:
        case Bottom():
            return pi
        case Push(top, rest):
            return Push(_inline(top, mapping, path), _inline_stack(rest, mapping, path))
    raise TypeError(f"not a stack: {pi!r}")


def formula_bot(a, R, rebind):
    """A-bot against the return formula R (a ``ReturnFormula``); rebind
    renames a quantifier, as ``lamc.formulas._rebind`` does."""
    return _bot(a, R.formula, formula_free_vars(R.formula), rebind)


def _bot(a, R, r_free, rebind):
    match a:
        case PredVar():
            return a
        case Null(e):
            return Null(EApp("neg", (e,)))
        case Imp(x, b):
            return And(Imp(_bot(x, R, r_free, rebind), R), _bot(b, R, r_free, rebind))
        case Brace(e, b):
            return And(Nat(e), _bot(b, R, r_free, rebind))
        case All1(x, _) | All2(x, _, _) if x in r_free:
            return _bot(rebind(a, r_free), R, r_free, rebind)
        case All1(x, body):
            return Ex1(x, _bot(body, R, r_free, rebind))
        case All2(x, arity, body):
            return Ex2(x, arity, _bot(body, R, r_free, rebind))
    raise TypeError(f"not a PA2 formula: {a!r}")
