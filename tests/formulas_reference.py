"""The recursive formula walks: the reference of lamc.formulas.

Each rebuilding walk (substitution, renaming, the normal form and
relativization) writes its own arm for every node shape, and the
alpha key is a nested tuple with binders as de Bruijn levels, built by
recursion.  ``lamc.formulas`` passes the shapes a walk only rebuilds
through one child copy and keys a formula with one flat preorder tuple;
on every formula the two print the same bytes and decide the same
equalities.  Only the reference's own renaming helper ``_rebind`` is
copied here, so that the reference calls no rebuilding walk of ``lamc``.
``is_fully_relativized``, the recursive-descent parser (``parse_formula``,
``parse_hformula``, over the recursive expression parser) and
``print_formula`` are the plain recursive forms of the walks on the
trampoline.
"""

from __future__ import annotations

from arith_reference import _parse_expr, expr_subst, print_expr
from lamc.arith import ENat, EApp, EVar, ZERO, expr_free_vars, normalize_expr
from lamc.formulas import (
    All1,
    All2,
    And,
    Brace,
    Ex1,
    Ex2,
    FormulaError,
    Imp,
    Nat,
    Null,
    PredVar,
    f_and,
    f_bot,
    f_eq,
    f_exists1,
    f_exists2,
    f_nat,
    f_natp,
    f_not,
    f_or,
    f_top,
    formula_all_names,
    formula_free_vars,
    h_top,
)
from lamc.syntax import _TokenStream, _lex, fresh_name


def key(f):
    """The alpha key of f: equal keys, alpha-equivalent formulas."""
    return _fkey(f, {}, 0)


def _expr_key(e, env: dict):
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


def subst_expr1(f, x: str, e):
    return _subst1(f, {x: e}, expr_free_vars(e) | {x})


def _subst1(f, env: dict, avoid: frozenset[str]):
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
            return type(f)(x, arity, _subst1(body, env, avoid))
    raise TypeError(f"not a formula: {f!r}")


def subst_pred(f, x: str, params: tuple[str, ...], b):
    return _subst2(f, x, params, b, formula_free_vars(b))


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
    x2 = fresh_name(q.x, avoid | formula_all_names(q.body))
    if isinstance(q, (All1, Ex1)):
        return type(q)(x2, _subst1(q.body, {q.x: EVar(x2)}, frozenset({x2})))
    return type(q)(x2, q.arity, _rename_pred(q.body, q.x, x2))


def _rename_pred(f, old: str, new: str):
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


def _map(f, walk):
    """f rebuilt with the same shape from walk(g) for each immediate
    subformula g: the recursive child map."""
    match f:
        case Null() | Nat() | PredVar():
            return f
        case Imp(a, b) | And(a, b):
            return type(f)(walk(a), walk(b))
        case Brace(e, b):
            return Brace(e, walk(b))
        case All1(x, body) | Ex1(x, body):
            return type(f)(x, walk(body))
        case All2(x, arity, body) | Ex2(x, arity, body):
            return type(f)(x, arity, walk(body))
    raise TypeError(f"not a formula: {f!r}")


def normalize_formula_pa2(f, sig):
    return _normalize(f, sig, f_top())


def normalize_formula_ha2(f, sig):
    return _normalize(f, sig, h_top())


def _normalize(f, sig, top):
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


def relativize_nat(f):
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


def is_fully_relativized(f) -> bool:
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


def parse_formula(text: str, sig):
    ts = _TokenStream(_lex(text))
    return _single_arities(ts.finish(_formula(ts, sig, "pa2")))


def parse_hformula(text: str, sig):
    ts = _TokenStream(_lex(text))
    return _single_arities(ts.finish(_formula(ts, sig, "ha2")))


def _single_arities(f):
    for name in sorted({name for name, _ in _free_preds(f, frozenset())}):
        _pred_arity(f, name)
    return f


def _free_preds(f, bound):
    """The free predicate variable occurrences of f, left to right, as
    (name, arity) pairs."""
    match f:
        case PredVar(name, args):
            return [] if name in bound else [(name, len(args))]
        case Imp(a, b) | And(a, b):
            return _free_preds(a, bound) + _free_preds(b, bound)
        case Brace(_, b):
            return _free_preds(b, bound)
        case All1(x, body) | Ex1(x, body) | All2(x, _, body) | Ex2(x, _, body):
            return _free_preds(body, bound | {x})
    return []


def _pred_arity(f, name):
    """The one arity of the free occurrences of name in f (0 when none)."""
    arities = [a for n, a in _free_preds(f, frozenset()) if n == name]
    for a in arities:
        if a != arities[0]:
            raise FormulaError(f"predicate variable {name!r} used at arities {arities[0]} and {a}")
    return arities[0] if arities else 0


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
    e1 = _parse_expr(ts, sig)
    ts.expect("=")
    e2 = _parse_expr(ts, sig)
    return f_eq(e1, e2)


def print_formula(f) -> str:
    return _print(f, 0)


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
