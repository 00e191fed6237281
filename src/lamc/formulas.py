"""Second-order formula languages: classical PA2+ and intuitionistic HA2.

PA2+ has null(e), predicate variables, implication, the data-implication
{e} -> B and universal quantifiers; everything else (truth, falsity,
negation, conjunction, disjunction, existentials, equality, nat) is a
second-order encoding.  HA2 adds primitive nat(e), conjunction and
existentials.  Both languages are built from one set of node classes, so
every walk (alpha key, free variables, substitution, normal form, parser
and printer) is written once.  Congruence on both sides is decided by
normal forms.

Convention: first-order variables start lowercase, second-order variables
start uppercase.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import (
    ArithExpr,
    EApp,
    ENat,
    EVar,
    PrimRecSignature,
    ZERO,
    expr_free_vars,
    expr_subst,
    normalize_expr,
    print_expr,
    _parse_expr,
)
from .syntax import LamcError, _TokenStream, _lex, fresh_name, pick_name


class FormulaError(LamcError):
    pass


# ---------------------------------------------------------------------------
# node classes: Null, PredVar, Imp, All1 and All2 belong to both languages,
# Brace to PA2+ only, Nat, And, Ex1 and Ex2 to HA2 only


class Formula:
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Formula) and _fkey(self, {}, 0) == _fkey(other, {}, 0)

    def __hash__(self):
        return hash(_fkey(self, {}, 0))

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True, eq=False, slots=True)
class Null(Formula):
    e: ArithExpr


@dataclass(frozen=True, eq=False, slots=True)
class Nat(Formula):
    e: ArithExpr


@dataclass(frozen=True, eq=False, slots=True)
class PredVar(Formula):
    name: str
    args: tuple[ArithExpr, ...] = ()


@dataclass(frozen=True, eq=False, slots=True)
class Imp(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True, eq=False, slots=True)
class And(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True, eq=False, slots=True)
class Brace(Formula):
    """The data implication {e} -> B of PA2+."""

    e: ArithExpr
    b: Formula


@dataclass(frozen=True, eq=False, slots=True)
class All1(Formula):
    x: str
    body: Formula


@dataclass(frozen=True, eq=False, slots=True)
class Ex1(Formula):
    x: str
    body: Formula


@dataclass(frozen=True, eq=False, slots=True)
class All2(Formula):
    x: str
    arity: int
    body: Formula


@dataclass(frozen=True, eq=False, slots=True)
class Ex2(Formula):
    x: str
    arity: int
    body: Formula


# ---------------------------------------------------------------------------
# alpha-equivalence


def _expr_key(e: ArithExpr, env: dict):
    if isinstance(e, EVar):
        b = env.get(e.name)
        return ("b", b) if b is not None else ("f", e.name)
    if isinstance(e, ENat):
        return e.n
    return (e.symbol,) + tuple(_expr_key(a, env) for a in e.args)


def _fkey(f, env: dict, depth: int):
    tag = type(f).__name__
    match f:
        case Null(e) | Nat(e):
            return (tag, _expr_key(e, env))
        case PredVar(name, args):
            b = env.get(name)
            head = ("B", b) if b is not None else ("F", name)
            return (tag, head) + tuple(_expr_key(a, env) for a in args)
        case Imp(a, b) | And(a, b):
            return (tag, _fkey(a, env, depth), _fkey(b, env, depth))
        case Brace(e, b):
            return (tag, _expr_key(e, env), _fkey(b, env, depth))
        case All1(x, body) | Ex1(x, body):
            return (tag, _fkey(body, {**env, x: depth}, depth + 1))
        case All2(x, arity, body) | Ex2(x, arity, body):
            return (tag, arity, _fkey(body, {**env, x: depth}, depth + 1))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# free variables and substitution


def formula_free_vars(f) -> frozenset[str]:
    """Free first- and second-order variable names."""
    acc: set[str] = set()
    _ffv(f, frozenset(), acc)
    return frozenset(acc)


def _ffv(f, bound: frozenset[str], acc: set[str]) -> None:
    match f:
        case Null(e) | Nat(e):
            acc.update(expr_free_vars(e) - bound)
        case PredVar(name, args):
            if name not in bound:
                acc.add(name)
            for a in args:
                acc.update(expr_free_vars(a) - bound)
        case Imp(a, b) | And(a, b):
            _ffv(a, bound, acc)
            _ffv(b, bound, acc)
        case Brace(e, b):
            acc.update(expr_free_vars(e) - bound)
            _ffv(b, bound, acc)
        case All1(x, body) | Ex1(x, body) | All2(x, _, body) | Ex2(x, _, body):
            _ffv(body, bound | {x}, acc)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def formula_all_names(f) -> frozenset[str]:
    """Every variable name occurring in f, free or bound (for freshness)."""
    acc: set[str] = set()
    _fan(f, acc)
    return frozenset(acc)


def _fan(f, acc: set[str]) -> None:
    match f:
        case Null(e) | Nat(e):
            acc.update(expr_free_vars(e))
        case PredVar(name, args):
            acc.add(name)
            for a in args:
                acc.update(expr_free_vars(a))
        case Imp(a, b) | And(a, b):
            _fan(a, acc)
            _fan(b, acc)
        case Brace(e, b):
            acc.update(expr_free_vars(e))
            _fan(b, acc)
        case All1(x, body) | Ex1(x, body) | All2(x, _, body) | Ex2(x, _, body):
            acc.add(x)
            _fan(body, acc)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def subst_expr1(f, x: str, e: ArithExpr):
    """First-order substitution f{x:=e}, capture-avoiding."""
    return _subst1(f, {x: e}, expr_free_vars(e) | {x})


def _subst1(f, env: dict[str, ArithExpr], avoid: frozenset[str]):
    """Simultaneous first-order substitution; avoid holds the names of env
    and the free variables of its values, which binders must not capture."""
    se = lambda ex: expr_subst(ex, env)
    match f:
        case Null(e) | Nat(e):
            return type(f)(se(e))
        case PredVar(name, args):
            return PredVar(name, tuple(se(a) for a in args))
        case Imp(a, b) | And(a, b):
            return type(f)(_subst1(a, env, avoid), _subst1(b, env, avoid))
        case Brace(e, b):
            return Brace(se(e), _subst1(b, env, avoid))
        case All1(x, _) | Ex1(x, _):
            if x in env:
                env = {k: v for k, v in env.items() if k != x}
                if not env:
                    return f
            if x in avoid:
                f = _rebind(f, avoid)
            return type(f)(f.x, _subst1(f.body, env, avoid))
        case All2(x, arity, body) | Ex2(x, arity, body):
            # second-order binders cannot capture first-order variables
            return type(f)(x, arity, _subst1(body, env, avoid))
    raise TypeError(f"not a formula: {f!r}")


def subst_pred(f, x: str, params: tuple[str, ...], b):
    """Second-order substitution f{x(params):=b}, capture-avoiding."""
    fv_b = formula_free_vars(b)
    return _subst2(f, x, params, b, fv_b)


def _subst2(f, x: str, params: tuple[str, ...], b, fv_b: frozenset[str]):
    match f:
        case Null(_) | Nat(_):
            return f
        case PredVar(name, args):
            if name != x:
                return f
            if len(args) != len(params):
                raise FormulaError(
                    f"predicate variable {x!r} used with arity {len(args)}, "
                    f"substituted at arity {len(params)}"
                )
            avoid = frozenset(params).union(*map(expr_free_vars, args))
            return _subst1(b, dict(zip(params, args)), avoid)
        case Imp(a, c) | And(a, c):
            return type(f)(_subst2(a, x, params, b, fv_b), _subst2(c, x, params, b, fv_b))
        case Brace(e, c):
            return Brace(e, _subst2(c, x, params, b, fv_b))
        case All1(y, _) | Ex1(y, _):
            if y in fv_b - frozenset(params):
                f = _rebind(f, fv_b | {x})
            return type(f)(f.x, _subst2(f.body, x, params, b, fv_b))
        case All2(y, arity, _) | Ex2(y, arity, _):
            if y == x:
                return f
            if y in fv_b:
                f = _rebind(f, fv_b | {x})
            return type(f)(f.x, arity, _subst2(f.body, x, params, b, fv_b))
    raise TypeError(f"not a formula: {f!r}")


def _rebind(q, avoid: frozenset[str]):
    """The quantifier q with its bound variable renamed to a name that is
    neither in avoid nor anywhere in q's body."""
    x2 = fresh_name(q.x, avoid | formula_all_names(q.body))
    if isinstance(q, (All1, Ex1)):
        return type(q)(x2, _subst1(q.body, {q.x: EVar(x2)}, frozenset({x2})))
    return type(q)(x2, q.arity, _rename_pred(q.body, q.x, x2))


def _rename_pred(f, old: str, new: str):
    """Rename a free predicate variable (no clash checking)."""
    match f:
        case PredVar(name, args):
            return PredVar(new if name == old else name, args)
        case Null(_) | Nat(_):
            return f
        case Imp(a, b) | And(a, b):
            return type(f)(_rename_pred(a, old, new), _rename_pred(b, old, new))
        case Brace(e, b):
            return Brace(e, _rename_pred(b, old, new))
        case All1(x, body) | Ex1(x, body):
            return type(f)(x, _rename_pred(body, old, new))
        case All2(x, arity, body) | Ex2(x, arity, body):
            if x == old:
                return f
            return type(f)(x, arity, _rename_pred(body, old, new))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# abbreviations (second-order encodings)


def f_bot() -> Formula:
    return All2("Z", 0, PredVar("Z"))


def f_top() -> Formula:
    return Null(ZERO)


def f_not(a: Formula) -> Formula:
    return Imp(a, f_bot())


def f_and(a: Formula, b: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | formula_free_vars(b))
    return All2(z, 0, Imp(Imp(a, Imp(b, PredVar(z))), PredVar(z)))


def f_or(a: Formula, b: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | formula_free_vars(b))
    return All2(z, 0, Imp(Imp(a, PredVar(z)), Imp(Imp(b, PredVar(z)), PredVar(z))))


def f_exists1(x: str, a: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | {x})
    return All2(z, 0, Imp(All1(x, Imp(a, PredVar(z))), PredVar(z)))


def f_exists2(x: str, arity: int, a: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | {x})
    return All2(z, 0, Imp(All2(x, arity, Imp(a, PredVar(z))), PredVar(z)))


def f_eq(e1: ArithExpr, e2: ArithExpr) -> Formula:
    z = pick_name("Z", expr_free_vars(e1) | expr_free_vars(e2))
    return All2(z, 1, Imp(PredVar(z, (e1,)), PredVar(z, (e2,))))


def f_nat(e: ArithExpr) -> Formula:
    avoid = expr_free_vars(e)
    z = pick_name("Z", avoid)
    y = pick_name("y", avoid)
    step = All1(y, Imp(PredVar(z, (EVar(y),)), PredVar(z, (EApp("s", (EVar(y),)),))))
    return All2(z, 1, Imp(PredVar(z, (ZERO,)), Imp(step, PredVar(z, (e,)))))


def f_natp(e: ArithExpr) -> Formula:
    """nat'(e): the lazy-numeral relativization predicate."""
    z = pick_name("Z", expr_free_vars(e))
    return All2(z, 0, Imp(Brace(e, PredVar(z)), PredVar(z)))


def f_forallN(x: str, a: Formula) -> Formula:
    return All1(x, Brace(EVar(x), a))


def f_existsN(x: str, a: Formula) -> Formula:
    z = pick_name("Z", formula_free_vars(a) | {x})
    return All2(z, 0, Imp(All1(x, Brace(EVar(x), Imp(a, PredVar(z)))), PredVar(z)))


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


def h_top() -> Formula:
    return Ex2("Z", 0, PredVar("Z"))


# ---------------------------------------------------------------------------
# normalization


def normalize_formula_pa2(f: Formula, sig: PrimRecSignature) -> Formula:
    """Normal form under expression rewriting plus null(s(e)) -> bot."""
    return _normalize(f, sig, f_top())


def normalize_formula_ha2(f: Formula, sig: PrimRecSignature) -> Formula:
    """Normal form under expression rewriting, null(0) -> top,
    null(s(e)) -> bot, and the commutation (exists v A) -> B = forall v (A -> B)."""
    return _normalize(f, sig, h_top())


def _normalize(f, sig: PrimRecSignature, top: Formula):
    # top is the dialect's truth: in PA2+ it is null(0) itself, and PA2+
    # formulas have no existential to commute
    match f:
        case Null(e):
            ne = normalize_expr(e, sig)
            if ne == ZERO:
                return top
            if isinstance(ne, ENat) or isinstance(ne, EApp) and ne.symbol == "s":
                return f_bot()
            return Null(ne)
        case Nat(e):
            return Nat(normalize_expr(e, sig))
        case PredVar(name, args):
            return PredVar(name, tuple(normalize_expr(a, sig) for a in args))
        case And(a, b):
            return And(_normalize(a, sig, top), _normalize(b, sig, top))
        case Brace(e, b):
            return Brace(normalize_expr(e, sig), _normalize(b, sig, top))
        case All1(x, body) | Ex1(x, body):
            return type(f)(x, _normalize(body, sig, top))
        case All2(x, arity, body) | Ex2(x, arity, body):
            return type(f)(x, arity, _normalize(body, sig, top))
        case Imp(a, b):
            na = _normalize(a, sig, top)
            nb = _normalize(b, sig, top)
            if not isinstance(na, (Ex1, Ex2)):
                return Imp(na, nb)
            fv = formula_free_vars(nb)
            if na.x in fv:
                na = _rebind(na, fv)
            if isinstance(na, Ex1):
                return _normalize(All1(na.x, Imp(na.body, nb)), sig, top)
            return _normalize(All2(na.x, na.arity, Imp(na.body, nb)), sig, top)
    raise TypeError(f"not a formula: {f!r}")


def formula_congruent_pa2(a: Formula, b: Formula, sig: PrimRecSignature) -> bool:
    return normalize_formula_pa2(a, sig) == normalize_formula_pa2(b, sig)


# ---------------------------------------------------------------------------
# nat-relativization


def relativize_nat(f: Formula) -> Formula:
    """Relativize all first-order quantifications with the nat predicate."""
    match f:
        case Null(_) | PredVar(_, _):
            return f
        case Imp(a, b):
            return Imp(relativize_nat(a), relativize_nat(b))
        case All1(x, body):
            return All1(x, Imp(f_nat(EVar(x)), relativize_nat(body)))
        case All2(x, arity, body):
            return All2(x, arity, relativize_nat(body))
        case Brace(_, _):
            raise FormulaError("relativize_nat expects a plain PA2 formula (no {e} -> B)")
    raise TypeError(f"not a PA2 formula: {f!r}")


def is_fully_relativized(f: Formula) -> bool:
    """True when every first-order quantifier is nat-guarded (shape check)."""
    match f:
        case Null(_) | PredVar(_, _):
            return True
        case Imp(a, b):
            return is_fully_relativized(a) and is_fully_relativized(b)
        case Brace(_, b):
            return is_fully_relativized(b)
        case All1(x, Imp(guard, body)):
            return guard == f_nat(EVar(x)) and is_fully_relativized(body)
        case All1(_, _):
            return False
        case All2(_, _, body):
            return is_fully_relativized(body)
    raise TypeError(f"not a PA2 formula: {f!r}")


# ---------------------------------------------------------------------------
# parsing (one grammar; the dialect selects sugar or primitive where the
# two languages differ: exists, /\, nat, top, and the PA2+-only \/, natp
# and {e} -> B)


def parse_formula(text: str, sig: PrimRecSignature) -> Formula:
    """Parse a PA2+ formula; sugar expands to second-order encodings."""
    ts = _TokenStream(_lex(text))
    return ts.finish(_formula(ts, sig, "pa2"))


def parse_hformula(text: str, sig: PrimRecSignature) -> Formula:
    """Parse an HA2 formula (primitive /\\, exists, nat)."""
    ts = _TokenStream(_lex(text))
    return ts.finish(_formula(ts, sig, "ha2"))


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
                body = All2(b, arity, body) if second else All1(b, body)
            elif dialect == "pa2":
                body = f_exists2(b, arity, body) if second else f_exists1(b, body)
            else:
                body = Ex2(b, arity, body) if second else Ex1(b, body)
        return body
    if tok.text == "{":
        ts.next()
        e = _parse_expr(ts, sig)
        ts.expect("}")
        ts.expect("->")
        b = _formula(ts, sig, dialect)
        if dialect == "ha2":
            raise ts.error("{e} -> B is a PA2+ construct")
        return Brace(e, b)
    a = _disjunction(ts, sig, dialect)
    if ts.peek().text == "->":
        ts.next()
        return Imp(a, _formula(ts, sig, dialect))
    return a


def _pred_arity(f, name: str) -> int:
    """Arity of a predicate variable from its first free occurrence."""
    found: list[int] = []

    def walk(g, bound):
        if found:
            return
        match g:
            case PredVar(n, args):
                if n == name and n not in bound:
                    found.append(len(args))
            case Imp(a, b) | And(a, b):
                walk(a, bound)
                walk(b, bound)
            case Brace(_, body) | All1(_, body) | Ex1(_, body):
                walk(body, bound)
            case All2(x, _, body) | Ex2(x, _, body):
                walk(body, bound | {x})

    walk(f, frozenset())
    return found[0] if found else 0


def _disjunction(ts, sig, dialect):
    a = _conjunction(ts, sig, dialect)
    while ts.peek().text == "\\/":
        if dialect == "ha2":
            raise ts.error("HA2 has no disjunction")
        ts.next()
        a = f_or(a, _conjunction(ts, sig, dialect))
    return a


def _conjunction(ts, sig, dialect):
    # right-associative, like ->, so that a printed a /\ b /\ c reads back
    a = _unary(ts, sig, dialect)
    if ts.peek().text != "/\\":
        return a
    ts.next()
    b = _conjunction(ts, sig, dialect)
    return f_and(a, b) if dialect == "pa2" else And(a, b)


def _unary(ts, sig, dialect):
    tok = ts.peek()
    if tok.kind == "ident" and tok.text == "not":
        ts.next()
        return f_not(_unary(ts, sig, dialect))
    return _atom_formula(ts, sig, dialect)


def _atom_formula(ts, sig, dialect):
    tok = ts.peek()
    if tok.text == "(":
        ts.next()
        f = _formula(ts, sig, dialect)
        ts.expect(")")
        return f
    pa2 = dialect == "pa2"
    if tok.kind == "ident":
        word = tok.text
        if word in ("null", "nat") or (word == "natp" and pa2):
            ts.next()
            ts.expect("(")
            e = _parse_expr(ts, sig)
            ts.expect(")")
            if word == "null":
                return Null(e)
            if word == "natp":
                return f_natp(e)
            return f_nat(e) if pa2 else Nat(e)
        if word == "top":
            ts.next()
            return f_top() if pa2 else h_top()
        if word == "bot":
            ts.next()
            return f_bot()
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
            return PredVar(word, args)
    # equality between arithmetic expressions
    e1 = _parse_expr(ts, sig)
    ts.expect("=")
    e2 = _parse_expr(ts, sig)
    return f_eq(e1, e2)


# ---------------------------------------------------------------------------
# printing


def print_formula(f: Formula) -> str:
    """Print a formula of either language; the text parses back to f in
    the formula's own dialect."""
    return _print(f, 0)


# precedence levels: 0 = top (quantifiers, ->), 1 = /\ operand, 2 = atom
def _print(f, level: int) -> str:
    match f:
        case Null(e):
            return f"null({print_expr(e)})"
        case Nat(e):
            return f"nat({print_expr(e)})"
        case PredVar(name, ()):
            return name
        case PredVar(name, args):
            return name + "(" + ", ".join(print_expr(a) for a in args) + ")"
        case Imp(a, b):
            s = f"{_print(a, 1)} -> {_print(b, 0)}"
            return s if level == 0 else "(" + s + ")"
        case Brace(e, b):
            s = f"{{{print_expr(e)}}} -> {_print(b, 0)}"
            return s if level == 0 else "(" + s + ")"
        case And(a, b):
            s = f"{_print(a, 2)} /\\ {_print(b, 1)}"
            return s if level <= 1 else "(" + s + ")"
        case All1(_, _) | All2(_, _, _) | Ex1(_, _) | Ex2(_, _, _):
            forall = isinstance(f, (All1, All2))
            group = (All1, All2) if forall else (Ex1, Ex2)
            binders = []
            body = f
            while isinstance(body, group):
                binders.append(body.x)
                body = body.body
            s = ("forall " if forall else "exists ") + " ".join(binders) + ". " + _print(body, 0)
            return s if level == 0 else "(" + s + ")"
    raise TypeError(f"not a formula: {f!r}")
