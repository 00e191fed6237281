"""Second-order formula languages: classical PA2+ and intuitionistic HA2.

PA2+ has null(e), predicate variables, implication, the data-implication
{e} -> B and universal quantifiers; everything else (truth, falsity,
negation, conjunction, disjunction, existentials, equality, nat) is a
second-order encoding.  HA2 adds primitive nat(e), conjunction and
existentials.  Congruence on both sides is decided by normal forms.

Convention: first-order variables start lowercase, second-order variables
start uppercase.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import (
    ArithExpr,
    EApp,
    EVar,
    PrimRecSignature,
    ZERO,
    expr_free_vars,
    expr_subst,
    normalize_expr,
    print_expr,
    _parse_expr,
)
from .syntax import LamcError, ParseError, _TokenStream, _lex, fresh_name, pick_name


class FormulaError(LamcError):
    pass


# ---------------------------------------------------------------------------
# PA2+ formulas


class Formula:
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Formula) and _feq(self, other, {}, {}, 0)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(_fkey(self, {}, 0))

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True, eq=False, slots=True)
class FNull(Formula):
    e: ArithExpr


@dataclass(frozen=True, eq=False, slots=True)
class FPredVar(Formula):
    name: str
    args: tuple[ArithExpr, ...] = ()


@dataclass(frozen=True, eq=False, slots=True)
class FImp(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True, eq=False, slots=True)
class FBrace(Formula):
    """The data implication {e} -> B of PA2+."""

    e: ArithExpr
    b: Formula


@dataclass(frozen=True, eq=False, slots=True)
class FAll1(Formula):
    x: str
    body: Formula


@dataclass(frozen=True, eq=False, slots=True)
class FAll2(Formula):
    x: str
    arity: int
    body: Formula


# ---------------------------------------------------------------------------
# HA2 formulas


class HFormula:
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, HFormula) and _feq(self, other, {}, {}, 0)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(_fkey(self, {}, 0))

    def __str__(self) -> str:
        return print_hformula(self)


@dataclass(frozen=True, eq=False, slots=True)
class HNull(HFormula):
    e: ArithExpr


@dataclass(frozen=True, eq=False, slots=True)
class HNat(HFormula):
    e: ArithExpr


@dataclass(frozen=True, eq=False, slots=True)
class HPredVar(HFormula):
    name: str
    args: tuple[ArithExpr, ...] = ()


@dataclass(frozen=True, eq=False, slots=True)
class HImp(HFormula):
    a: HFormula
    b: HFormula


@dataclass(frozen=True, eq=False, slots=True)
class HAnd(HFormula):
    a: HFormula
    b: HFormula


@dataclass(frozen=True, eq=False, slots=True)
class HAll1(HFormula):
    x: str
    body: HFormula


@dataclass(frozen=True, eq=False, slots=True)
class HAll2(HFormula):
    x: str
    arity: int
    body: HFormula


@dataclass(frozen=True, eq=False, slots=True)
class HEx1(HFormula):
    x: str
    body: HFormula


@dataclass(frozen=True, eq=False, slots=True)
class HEx2(HFormula):
    x: str
    arity: int
    body: HFormula


_BINDER1 = (FAll1, HAll1, HEx1)
_BINDER2 = (FAll2, HAll2, HEx2)


# ---------------------------------------------------------------------------
# alpha-equivalence (shared between the two languages)


def _expr_key(e: ArithExpr, env: dict):
    if isinstance(e, EVar):
        b = env.get(e.name)
        return ("b", b) if b is not None else ("f", e.name)
    return (e.symbol,) + tuple(_expr_key(a, env) for a in e.args)


def _fkey(f, env: dict, depth: int):
    match f:
        case FNull(e) | HNull(e):
            return ("null", _expr_key(e, env))
        case HNat(e):
            return ("nat", _expr_key(e, env))
        case FPredVar(name, args) | HPredVar(name, args):
            b = env.get(name)
            head = ("B", b) if b is not None else ("F", name)
            return ("pv", head) + tuple(_expr_key(a, env) for a in args)
        case FImp(a, b) | HImp(a, b):
            return ("imp", _fkey(a, env, depth), _fkey(b, env, depth))
        case HAnd(a, b):
            return ("and", _fkey(a, env, depth), _fkey(b, env, depth))
        case FBrace(e, b):
            return ("brace", _expr_key(e, env), _fkey(b, env, depth))
        case FAll1(x, body) | HAll1(x, body):
            env2 = dict(env)
            env2[x] = depth
            return ("all1", _fkey(body, env2, depth + 1))
        case HEx1(x, body):
            env2 = dict(env)
            env2[x] = depth
            return ("ex1", _fkey(body, env2, depth + 1))
        case FAll2(x, arity, body) | HAll2(x, arity, body):
            env2 = dict(env)
            env2[x] = depth
            return ("all2", arity, _fkey(body, env2, depth + 1))
        case HEx2(x, arity, body):
            env2 = dict(env)
            env2[x] = depth
            return ("ex2", arity, _fkey(body, env2, depth + 1))
    raise TypeError(f"not a formula: {f!r}")


def _feq(f, g, env_f: dict, env_g: dict, depth: int) -> bool:
    return _fkey(f, env_f, depth) == _fkey(g, env_g, depth)


# ---------------------------------------------------------------------------
# free variables and substitution (generic over both languages)


def formula_free_vars(f) -> frozenset[str]:
    """Free first- and second-order variable names."""
    acc: set[str] = set()
    _ffv(f, frozenset(), acc)
    return frozenset(acc)


def _ffv(f, bound: frozenset[str], acc: set[str]) -> None:
    match f:
        case FNull(e) | HNull(e) | HNat(e):
            acc.update(expr_free_vars(e) - bound)
        case FPredVar(name, args) | HPredVar(name, args):
            if name not in bound:
                acc.add(name)
            for a in args:
                acc.update(expr_free_vars(a) - bound)
        case FImp(a, b) | HImp(a, b) | HAnd(a, b):
            _ffv(a, bound, acc)
            _ffv(b, bound, acc)
        case FBrace(e, b):
            acc.update(expr_free_vars(e) - bound)
            _ffv(b, bound, acc)
        case FAll1(x, body) | HAll1(x, body) | HEx1(x, body):
            _ffv(body, bound | {x}, acc)
        case FAll2(x, _, body) | HAll2(x, _, body) | HEx2(x, _, body):
            _ffv(body, bound | {x}, acc)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _rebuild(f, **kw):
    return type(f)(**kw)


def formula_all_names(f) -> frozenset[str]:
    """Every variable name occurring in f, free or bound (for freshness)."""
    acc: set[str] = set()
    _fan(f, acc)
    return frozenset(acc)


def _fan(f, acc: set[str]) -> None:
    match f:
        case FNull(e) | HNull(e) | HNat(e):
            acc.update(expr_free_vars(e))
        case FPredVar(name, args) | HPredVar(name, args):
            acc.add(name)
            for a in args:
                acc.update(expr_free_vars(a))
        case FImp(a, b) | HImp(a, b) | HAnd(a, b):
            _fan(a, acc)
            _fan(b, acc)
        case FBrace(e, b):
            acc.update(expr_free_vars(e))
            _fan(b, acc)
        case FAll1(x, body) | HAll1(x, body) | HEx1(x, body):
            acc.add(x)
            _fan(body, acc)
        case FAll2(x, _, body) | HAll2(x, _, body) | HEx2(x, _, body):
            acc.add(x)
            _fan(body, acc)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def subst_expr1(f, x: str, e: ArithExpr):
    """First-order substitution f{x:=e}, capture-avoiding."""
    env = {x: e}
    avoid = expr_free_vars(e) | {x}
    return _subst1(f, env, avoid)


def _subst1(f, env: dict[str, ArithExpr], avoid: frozenset[str]):
    se = lambda ex: expr_subst(ex, env)
    match f:
        case FNull(e):
            return FNull(se(e))
        case HNull(e):
            return HNull(se(e))
        case HNat(e):
            return HNat(se(e))
        case FPredVar(name, args):
            return FPredVar(name, tuple(se(a) for a in args))
        case HPredVar(name, args):
            return HPredVar(name, tuple(se(a) for a in args))
        case FImp(a, b):
            return FImp(_subst1(a, env, avoid), _subst1(b, env, avoid))
        case HImp(a, b):
            return HImp(_subst1(a, env, avoid), _subst1(b, env, avoid))
        case HAnd(a, b):
            return HAnd(_subst1(a, env, avoid), _subst1(b, env, avoid))
        case FBrace(e, b):
            return FBrace(se(e), _subst1(b, env, avoid))
        case FAll1(x, body) | HAll1(x, body) | HEx1(x, body):
            cls = type(f)
            if x in env:
                env = {k: v for k, v in env.items() if k != x}
                if not env:
                    return f
            if x in avoid:
                x2 = fresh_name(x, avoid | formula_all_names(body))
                body = _subst1(body, {x: EVar(x2)}, frozenset({x2}))
                return cls(x2, _subst1(body, env, avoid))
            return cls(x, _subst1(body, env, avoid))
        case FAll2(x, arity, body) | HAll2(x, arity, body) | HEx2(x, arity, body):
            # second-order binders cannot capture first-order variables
            return _rebuild(f, x=x, arity=arity, body=_subst1(body, env, avoid))
    raise TypeError(f"not a formula: {f!r}")


def subst_pred(f, x: str, params: tuple[str, ...], b):
    """Second-order substitution f{x(params):=b}, capture-avoiding."""
    fv_b = formula_free_vars(b)
    return _subst2(f, x, params, b, fv_b)


def _subst2(f, x: str, params: tuple[str, ...], b, fv_b: frozenset[str]):
    match f:
        case FNull(_) | HNull(_) | HNat(_):
            return f
        case FPredVar(name, args) | HPredVar(name, args):
            if name != x:
                return f
            if len(args) != len(params):
                raise FormulaError(
                    f"predicate variable {x!r} used with arity {len(args)}, "
                    f"substituted at arity {len(params)}"
                )
            out = b
            for p, a in zip(params, args):
                out = subst_expr1(out, p, a)
            return out
        case FImp(a, c):
            return FImp(_subst2(a, x, params, b, fv_b), _subst2(c, x, params, b, fv_b))
        case HImp(a, c):
            return HImp(_subst2(a, x, params, b, fv_b), _subst2(c, x, params, b, fv_b))
        case HAnd(a, c):
            return HAnd(_subst2(a, x, params, b, fv_b), _subst2(c, x, params, b, fv_b))
        case FBrace(e, c):
            return FBrace(e, _subst2(c, x, params, b, fv_b))
        case FAll1(y, body) | HAll1(y, body) | HEx1(y, body):
            cls = type(f)
            if y in fv_b - frozenset(params):
                y2 = fresh_name(y, fv_b | formula_all_names(body) | {x})
                body = _subst1(body, {y: EVar(y2)}, frozenset({y2}))
                y = y2
            return cls(y, _subst2(body, x, params, b, fv_b))
        case FAll2(y, arity, body) | HAll2(y, arity, body) | HEx2(y, arity, body):
            if y == x:
                return f
            if y in fv_b:
                y2 = fresh_name(y, fv_b | formula_all_names(body) | {x})
                body = _rename_pred(body, y, y2)
                y = y2
            return _rebuild(f, x=y, arity=arity, body=_subst2(body, x, params, b, fv_b))
    raise TypeError(f"not a formula: {f!r}")


def _rename_pred(f, old: str, new: str):
    """Rename a free predicate variable (no clash checking)."""
    match f:
        case FPredVar(name, args):
            return FPredVar(new if name == old else name, args)
        case HPredVar(name, args):
            return HPredVar(new if name == old else name, args)
        case FNull(_) | HNull(_) | HNat(_):
            return f
        case FImp(a, b):
            return FImp(_rename_pred(a, old, new), _rename_pred(b, old, new))
        case HImp(a, b):
            return HImp(_rename_pred(a, old, new), _rename_pred(b, old, new))
        case HAnd(a, b):
            return HAnd(_rename_pred(a, old, new), _rename_pred(b, old, new))
        case FBrace(e, b):
            return FBrace(e, _rename_pred(b, old, new))
        case FAll1(x, body) | HAll1(x, body) | HEx1(x, body):
            return type(f)(x, _rename_pred(body, old, new))
        case FAll2(x, arity, body) | HAll2(x, arity, body) | HEx2(x, arity, body):
            if x == old:
                return f
            return _rebuild(f, x=x, arity=arity, body=_rename_pred(body, old, new))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# abbreviations (second-order encodings)


def f_bot() -> Formula:
    return FAll2("Z", 0, FPredVar("Z"))


def f_top() -> Formula:
    return FNull(ZERO)


def f_not(a: Formula) -> Formula:
    return FImp(a, f_bot())


def f_and(a: Formula, b: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | formula_free_vars(b))
    return FAll2(z, 0, FImp(FImp(a, FImp(b, FPredVar(z))), FPredVar(z)))


def f_or(a: Formula, b: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | formula_free_vars(b))
    return FAll2(z, 0, FImp(FImp(a, FPredVar(z)), FImp(FImp(b, FPredVar(z)), FPredVar(z))))


def f_exists1(x: str, a: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | {x})
    return FAll2(z, 0, FImp(FAll1(x, FImp(a, FPredVar(z))), FPredVar(z)))


def f_exists2(x: str, arity: int, a: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | {x})
    return FAll2(z, 0, FImp(FAll2(x, arity, FImp(a, FPredVar(z))), FPredVar(z)))


def f_eq(e1: ArithExpr, e2: ArithExpr) -> Formula:
    z = pick_name("Z", expr_free_vars(e1) | expr_free_vars(e2))
    return FAll2(z, 1, FImp(FPredVar(z, (e1,)), FPredVar(z, (e2,))))


def f_nat(e: ArithExpr) -> Formula:
    avoid = expr_free_vars(e)
    z = pick_name("Z", avoid)
    y = pick_name("y", avoid)
    step = FAll1(y, FImp(FPredVar(z, (EVar(y),)), FPredVar(z, (EApp("s", (EVar(y),)),))))
    return FAll2(z, 1, FImp(FPredVar(z, (ZERO,)), FImp(step, FPredVar(z, (e,)))))


def f_natp(e: ArithExpr) -> Formula:
    """nat'(e): the lazy-numeral relativization predicate."""
    z = pick_name("Z", expr_free_vars(e))
    return FAll2(z, 0, FImp(FBrace(e, FPredVar(z)), FPredVar(z)))


def f_forallN(x: str, a: Formula) -> Formula:
    return FAll1(x, FBrace(EVar(x), a))


def f_existsN(x: str, a: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | {x})
    return FAll2(z, 0, FImp(FAll1(x, FBrace(EVar(x), FImp(a, FPredVar(z)))), FPredVar(z)))


_ABBREVIATIONS = {
    "top": (0, lambda: f_top()),
    "bot": (0, lambda: f_bot()),
    "not": (1, f_not),
    "and": (2, f_and),
    "or": (2, f_or),
    "exists1": (2, f_exists1),
    "exists2": (3, f_exists2),
    "eq": (2, f_eq),
    "nat": (1, f_nat),
    "natp": (1, f_natp),
    "forallN": (2, f_forallN),
    "existsN": (2, f_existsN),
}


def expand_abbreviation(name: str, args: list) -> Formula:
    """Expand a named abbreviation into its second-order encoding."""
    try:
        arity, builder = _ABBREVIATIONS[name]
    except KeyError:
        raise FormulaError(f"unknown abbreviation {name!r}") from None
    if len(args) != arity:
        raise FormulaError(f"abbreviation {name!r} expects {arity} arguments")
    return builder(*args)


def h_bot() -> HFormula:
    return HAll2("Z", 0, HPredVar("Z"))


def h_top() -> HFormula:
    return HEx2("Z", 0, HPredVar("Z"))


def h_eq(e1: ArithExpr, e2: ArithExpr) -> HFormula:
    z = pick_name("Z", expr_free_vars(e1) | expr_free_vars(e2))
    return HAll2(z, 1, HImp(HPredVar(z, (e1,)), HPredVar(z, (e2,))))


# ---------------------------------------------------------------------------
# normalization


def normalize_formula_pa2(f: Formula, sig: PrimRecSignature) -> Formula:
    """Normal form under expression rewriting plus null(s(e)) -> bot."""
    match f:
        case FNull(e):
            ne = normalize_expr(e, sig)
            if isinstance(ne, EApp) and ne.symbol == "s":
                return f_bot()
            return FNull(ne)
        case FPredVar(name, args):
            return FPredVar(name, tuple(normalize_expr(a, sig) for a in args))
        case FImp(a, b):
            return FImp(normalize_formula_pa2(a, sig), normalize_formula_pa2(b, sig))
        case FBrace(e, b):
            return FBrace(normalize_expr(e, sig), normalize_formula_pa2(b, sig))
        case FAll1(x, body):
            return FAll1(x, normalize_formula_pa2(body, sig))
        case FAll2(x, arity, body):
            return FAll2(x, arity, normalize_formula_pa2(body, sig))
    raise TypeError(f"not a PA2 formula: {f!r}")


def normalize_formula_ha2(f: HFormula, sig: PrimRecSignature) -> HFormula:
    """Normal form under expression rewriting, null(0) -> top,
    null(s(e)) -> bot, and the commutation (exists v A) -> B = forall v (A -> B)."""
    match f:
        case HNull(e):
            ne = normalize_expr(e, sig)
            if ne == ZERO:
                return h_top()
            if isinstance(ne, EApp) and ne.symbol == "s":
                return h_bot()
            return HNull(ne)
        case HNat(e):
            return HNat(normalize_expr(e, sig))
        case HPredVar(name, args):
            return HPredVar(name, tuple(normalize_expr(a, sig) for a in args))
        case HAnd(a, b):
            return HAnd(normalize_formula_ha2(a, sig), normalize_formula_ha2(b, sig))
        case HAll1(x, body):
            return HAll1(x, normalize_formula_ha2(body, sig))
        case HAll2(x, arity, body):
            return HAll2(x, arity, normalize_formula_ha2(body, sig))
        case HEx1(x, body):
            return HEx1(x, normalize_formula_ha2(body, sig))
        case HEx2(x, arity, body):
            return HEx2(x, arity, normalize_formula_ha2(body, sig))
        case HImp(a, b):
            na = normalize_formula_ha2(a, sig)
            nb = normalize_formula_ha2(b, sig)
            if isinstance(na, HEx1):
                x, body = na.x, na.body
                if x in formula_free_vars(nb):
                    x2 = fresh_name(x, formula_all_names(body) | formula_free_vars(nb))
                    body = _subst1(body, {x: EVar(x2)}, frozenset({x2}))
                    x = x2
                return normalize_formula_ha2(HAll1(x, HImp(body, nb)), sig)
            if isinstance(na, HEx2):
                x, arity, body = na.x, na.arity, na.body
                if x in formula_free_vars(nb):
                    x2 = fresh_name(x, formula_all_names(body) | formula_free_vars(nb))
                    body = _rename_pred(body, x, x2)
                    x = x2
                return normalize_formula_ha2(HAll2(x, arity, HImp(body, nb)), sig)
            return HImp(na, nb)
    raise TypeError(f"not an HA2 formula: {f!r}")


def formula_congruent_pa2(a: Formula, b: Formula, sig: PrimRecSignature) -> bool:
    return normalize_formula_pa2(a, sig) == normalize_formula_pa2(b, sig)


# ---------------------------------------------------------------------------
# nat-relativization


def relativize_nat(f: Formula) -> Formula:
    """Relativize all first-order quantifications with the nat predicate."""
    match f:
        case FNull(_) | FPredVar(_, _):
            return f
        case FImp(a, b):
            return FImp(relativize_nat(a), relativize_nat(b))
        case FAll1(x, body):
            return FAll1(x, FImp(f_nat(EVar(x)), relativize_nat(body)))
        case FAll2(x, arity, body):
            return FAll2(x, arity, relativize_nat(body))
        case FBrace(_, _):
            raise FormulaError("relativize_nat expects a plain PA2 formula (no {e} -> B)")
    raise TypeError(f"not a PA2 formula: {f!r}")


def is_fully_relativized(f: Formula) -> bool:
    """True when every first-order quantifier is nat-guarded (shape check)."""
    match f:
        case FNull(_) | FPredVar(_, _):
            return True
        case FImp(a, b):
            return is_fully_relativized(a) and is_fully_relativized(b)
        case FBrace(_, b):
            return is_fully_relativized(b)
        case FAll1(x, FImp(guard, body)):
            return guard == f_nat(EVar(x)) and is_fully_relativized(body)
        case FAll1(_, _):
            return False
        case FAll2(_, _, body):
            return is_fully_relativized(body)
    raise TypeError(f"not a PA2 formula: {f!r}")


# ---------------------------------------------------------------------------
# parsing (shared token machinery; the dialect flag selects PA2+ or HA2)


def parse_formula(text: str, sig: PrimRecSignature) -> Formula:
    """Parse a PA2+ formula; sugar expands to second-order encodings."""
    ts = _TokenStream(_lex(text))
    f = _formula(ts, sig, "pa2")
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return f


def parse_hformula(text: str, sig: PrimRecSignature) -> HFormula:
    """Parse an HA2 formula (primitive /\\, exists, nat)."""
    ts = _TokenStream(_lex(text))
    f = _formula(ts, sig, "ha2")
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return f


def _formula(ts, sig, dialect):
    tok = ts.peek()
    if tok.kind == "ident" and tok.text in ("forall", "exists"):
        ts.next()
        binders = []
        while ts.peek().kind == "ident":
            binders.append(ts.next().text)
        if not binders:
            raise ts.error(f"expected binders after {tok.text!r}")
        ts.expect(".")
        body = _formula(ts, sig, dialect)
        for b in reversed(binders):
            second = b[0].isupper()
            arity = _pred_arity(body, b) if second else 0
            if tok.text == "forall":
                if dialect == "pa2":
                    body = FAll2(b, arity, body) if second else FAll1(b, body)
                else:
                    body = HAll2(b, arity, body) if second else HAll1(b, body)
            else:
                if dialect == "pa2":
                    body = f_exists2(b, arity, body) if second else f_exists1(b, body)
                else:
                    body = HEx2(b, arity, body) if second else HEx1(b, body)
        return body
    return _implication(ts, sig, dialect)


def _pred_arity(f, name: str) -> int:
    """Arity of a predicate variable from its first free occurrence."""
    found: list[int] = []

    def walk(g, bound):
        if found:
            return
        match g:
            case FPredVar(n, args) | HPredVar(n, args):
                if n == name and n not in bound:
                    found.append(len(args))
            case FImp(a, b) | HImp(a, b) | HAnd(a, b):
                walk(a, bound)
                walk(b, bound)
            case FBrace(_, b):
                walk(b, bound)
            case FAll1(x, body) | HAll1(x, body) | HEx1(x, body):
                walk(body, bound)
            case FAll2(x, _, body) | HAll2(x, _, body) | HEx2(x, _, body):
                walk(body, bound | {x})
            case _:
                pass

    walk(f, frozenset())
    return found[0] if found else 0


def _implication(ts, sig, dialect):
    if ts.peek().text == "{":
        ts.next()
        e = _parse_expr(ts, sig)
        ts.expect("}")
        ts.expect("->")
        b = _implication(ts, sig, dialect)
        if dialect == "ha2":
            raise ts.error("{e} -> B is a PA2+ construct")
        return FBrace(e, b)
    a = _disjunction(ts, sig, dialect)
    if ts.peek().text == "->":
        ts.next()
        b = _implication(ts, sig, dialect)
        return FImp(a, b) if dialect == "pa2" else HImp(a, b)
    return a


def _disjunction(ts, sig, dialect):
    a = _conjunction(ts, sig, dialect)
    while ts.peek().text == "\\/":
        if dialect == "ha2":
            raise ts.error("HA2 has no disjunction")
        ts.next()
        a = f_or(a, _conjunction(ts, sig, dialect))
    return a


def _conjunction(ts, sig, dialect):
    a = _unary(ts, sig, dialect)
    while ts.peek().text == "/\\":
        ts.next()
        b = _unary(ts, sig, dialect)
        a = f_and(a, b) if dialect == "pa2" else HAnd(a, b)
    return a


def _unary(ts, sig, dialect):
    tok = ts.peek()
    if tok.kind == "ident" and tok.text == "not":
        ts.next()
        a = _unary(ts, sig, dialect)
        if dialect == "pa2":
            return f_not(a)
        return HImp(a, h_bot())
    return _atom_formula(ts, sig, dialect)


def _atom_formula(ts, sig, dialect):
    tok = ts.peek()
    if tok.text == "(":
        ts.next()
        f = _formula(ts, sig, dialect)
        ts.expect(")")
        return f
    if tok.kind == "ident":
        word = tok.text
        if word == "null":
            ts.next()
            ts.expect("(")
            e = _parse_expr(ts, sig)
            ts.expect(")")
            return FNull(e) if dialect == "pa2" else HNull(e)
        if word == "nat":
            ts.next()
            ts.expect("(")
            e = _parse_expr(ts, sig)
            ts.expect(")")
            return f_nat(e) if dialect == "pa2" else HNat(e)
        if word == "natp" and dialect == "pa2":
            ts.next()
            ts.expect("(")
            e = _parse_expr(ts, sig)
            ts.expect(")")
            return f_natp(e)
        if word == "top":
            ts.next()
            return f_top() if dialect == "pa2" else h_top()
        if word == "bot":
            ts.next()
            return f_bot() if dialect == "pa2" else h_bot()
        if word[0].isupper():
            ts.next()
            args: tuple = ()
            if ts.peek().text == "(":
                ts.next()
                lst = [_parse_expr(ts, sig)]
                while ts.peek().text == ",":
                    ts.next()
                    lst.append(_parse_expr(ts, sig))
                ts.expect(")")
                args = tuple(lst)
            return FPredVar(word, args) if dialect == "pa2" else HPredVar(word, args)
    # equality between arithmetic expressions
    e1 = _parse_expr(ts, sig)
    ts.expect("=")
    e2 = _parse_expr(ts, sig)
    return f_eq(e1, e2) if dialect == "pa2" else h_eq(e1, e2)


# ---------------------------------------------------------------------------
# printing


def print_formula(f: Formula) -> str:
    return _pf(f, top=True)


def _pf(f, top: bool) -> str:
    match f:
        case FNull(e):
            return f"null({print_expr(e)})"
        case FPredVar(name, ()):
            return name
        case FPredVar(name, args):
            return name + "(" + ", ".join(print_expr(a) for a in args) + ")"
        case FImp(a, b):
            s = f"{_pf(a, False)} -> {_pf(b, True)}"
            return s if top else "(" + s + ")"
        case FBrace(e, b):
            s = f"{{{print_expr(e)}}} -> {_pf(b, True)}"
            return s if top else "(" + s + ")"
        case FAll1(_, _) | FAll2(_, _, _):
            binders = []
            body = f
            while isinstance(body, (FAll1, FAll2)):
                binders.append(body.x)
                body = body.body
            s = "forall " + " ".join(binders) + ". " + _pf(body, True)
            return s if top else "(" + s + ")"
    raise TypeError(f"not a PA2 formula: {f!r}")


def print_hformula(f: HFormula) -> str:
    return _ph(f, 0)


# precedence levels: 0 = top (quantifiers, ->), 1 = /\ operand, 2 = atom
def _ph(f, level: int) -> str:
    match f:
        case HNull(e):
            return f"null({print_expr(e)})"
        case HNat(e):
            return f"nat({print_expr(e)})"
        case HPredVar(name, ()):
            return name
        case HPredVar(name, args):
            return name + "(" + ", ".join(print_expr(a) for a in args) + ")"
        case HImp(a, b):
            s = f"{_ph(a, 1)} -> {_ph(b, 0)}"
            return s if level == 0 else "(" + s + ")"
        case HAnd(a, b):
            s = f"{_ph(a, 2)} /\\ {_ph(b, 1)}"
            return s if level <= 1 else "(" + s + ")"
        case HAll1(_, _) | HAll2(_, _, _) | HEx1(_, _) | HEx2(_, _, _):
            kind = "forall" if isinstance(f, (HAll1, HAll2)) else "exists"
            binders = []
            body = f
            while (isinstance(body, (HAll1, HAll2)) and kind == "forall") or (
                isinstance(body, (HEx1, HEx2)) and kind == "exists"
            ):
                binders.append(body.x)
                body = body.body
            s = kind + " " + " ".join(binders) + ". " + _ph(body, 0)
            return s if level == 0 else "(" + s + ")"
    raise TypeError(f"not an HA2 formula: {f!r}")
