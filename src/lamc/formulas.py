"""Second-order formula languages: classical PA2+ and intuitionistic HA2.

PA2+ has null(e), predicate variables, implication, the data-implication
{e} -> B and universal quantifiers; everything else (truth, falsity,
negation, conjunction, disjunction, existentials, equality, nat) is a
second-order encoding.  HA2 adds primitive nat(e), conjunction and
existentials.  Both languages are built from one set of node classes, so
every walk (alpha key, free variables, substitution, normal form, parser
and printer) is written once.  The recursive walks run on
``syntax.trampoline``, so they work at any depth.  Those that rebuild a
formula (substitution, renaming, the normal form, relativization) treat
only their own cases and pass every other node through one child copy,
``_copy``.  Each node keeps its free names in ``fv``.  The read-only
walks (names, arity, and the nameless preorder key behind ``==`` and
``hash``) share one explicit-stack generator, ``_subformulas``.
Congruence on both sides is decided by normal forms.

Convention: first-order variables start lowercase, second-order variables
start uppercase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    _subexprs,
)
from .syntax import LamcError, _TokenStream, _lex, fresh_name, pick_name, trampoline


class FormulaError(LamcError):
    pass


# ---------------------------------------------------------------------------
# node classes: Null, PredVar, Imp, All1 and All2 belong to both languages,
# Brace to PA2+ only, Nat, And, Ex1 and Ex2 to HA2 only


class Formula:
    """A formula node.  ``fv``, its free first- and second-order names, is
    kept at construction, as ``Term.fv`` is."""

    __slots__ = ()

    def __post_init__(self) -> None:
        cls = type(self)
        if cls is Imp or cls is And:
            fv = self.a.fv | self.b.fv
        elif cls is PredVar:
            fv = frozenset((self.name,)).union(*map(expr_free_vars, self.args))
        elif cls is Null or cls is Nat:
            fv = expr_free_vars(self.e)
        elif cls is Brace:
            fv = expr_free_vars(self.e) | self.b.fv
        else:  # a quantifier
            fv = self.body.fv - {self.x}
        object.__setattr__(self, "fv", fv)

    def __eq__(self, other):
        # alpha-equivalent formulas have the same top constructor and free names
        if self is other:
            return True
        return type(other) is type(self) and other.fv == self.fv and _fkey(self) == _fkey(other)

    def __hash__(self):
        return hash(_fkey(self))

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True, eq=False, slots=True)
class Null(Formula):
    e: ArithExpr
    fv: frozenset = field(init=False, repr=False)


@dataclass(frozen=True, eq=False, slots=True)
class Nat(Formula):
    e: ArithExpr
    fv: frozenset = field(init=False, repr=False)


@dataclass(frozen=True, eq=False, slots=True)
class PredVar(Formula):
    name: str
    args: tuple[ArithExpr, ...] = ()
    fv: frozenset = field(init=False, repr=False)


@dataclass(frozen=True, eq=False, slots=True)
class Imp(Formula):
    a: Formula
    b: Formula
    fv: frozenset = field(init=False, repr=False)


@dataclass(frozen=True, eq=False, slots=True)
class And(Formula):
    a: Formula
    b: Formula
    fv: frozenset = field(init=False, repr=False)


@dataclass(frozen=True, eq=False, slots=True)
class Brace(Formula):
    """The data implication {e} -> B of PA2+."""

    e: ArithExpr
    b: Formula
    fv: frozenset = field(init=False, repr=False)


@dataclass(frozen=True, eq=False, slots=True)
class All1(Formula):
    x: str
    body: Formula
    fv: frozenset = field(init=False, repr=False)


@dataclass(frozen=True, eq=False, slots=True)
class Ex1(Formula):
    x: str
    body: Formula
    fv: frozenset = field(init=False, repr=False)


@dataclass(frozen=True, eq=False, slots=True)
class All2(Formula):
    x: str
    arity: int
    body: Formula
    fv: frozenset = field(init=False, repr=False)


@dataclass(frozen=True, eq=False, slots=True)
class Ex2(Formula):
    x: str
    arity: int
    body: Formula
    fv: frozenset = field(init=False, repr=False)


# ---------------------------------------------------------------------------
# the shared walks: the subformula generator, the alpha key and the child map


def _subformulas(f):
    """Every subformula of f in preorder, left to right, each with the names
    bound around it: one dict, name -> the depths of its binders, innermost
    last, that changes when the walk resumes (explicit stack: formulas can
    be deep)."""
    bound: dict[str, list[int]] = {}
    todo: list = [f]  # a formula, or the name of a binder whose scope ends
    depth = 0
    while todo:
        g = todo.pop()
        if type(g) is str:  # the scope ends: back to the binder's own depth
            depth = bound[g].pop()
            if not bound[g]:
                del bound[g]
            continue
        yield g, bound
        match g:
            case Imp(a, b) | And(a, b):
                todo += (b, a)
            case Brace(_, b):
                todo.append(b)
            case All1(x, body) | Ex1(x, body) | All2(x, _, body) | Ex2(x, _, body):
                bound.setdefault(x, []).append(depth)
                depth += 1
                todo += (x, body)
            case Null() | Nat() | PredVar():
                pass
            case _:
                raise TypeError(f"not a formula: {g!r}")


def _exprs(g) -> tuple[ArithExpr, ...]:
    """The expressions written at the node g itself."""
    match g:
        case Null(e) | Nat(e) | Brace(e, _):
            return (e,)
        case PredVar(_, args):
            return args
    return ()


def _fkey(f) -> tuple:
    """The alpha key of f: one token per subformula in preorder, with each
    bound name written as the depth of its binder (a de Bruijn level), so
    alpha-equivalent formulas, and only they, get equal keys.  A token is,
    or starts with, its node's class, which fixes the number of children."""
    key: list = []
    for g, bound in _subformulas(f):
        match g:
            case Imp() | And() | All1() | Ex1():
                key.append(type(g))
            case All2(_, arity) | Ex2(_, arity):
                key.append((type(g), arity))
            case PredVar(name, args):
                head = (bound[name][-1],) if name in bound else name
                key.append((PredVar, head, *(_ekey(a, bound) for a in args)))
            case Null(e) | Nat(e) | Brace(e):
                key.append((type(g), _ekey(e, bound)))
    return tuple(key)


def _ekey(e: ArithExpr, bound: dict[str, list[int]]) -> tuple:
    """The key of e: one token per subexpression, an application's with its arity."""
    return tuple(
        (c.symbol, len(c.args)) if isinstance(c, EApp)
        else c.n if isinstance(c, ENat)
        else (bound[c.name][-1],) if c.name in bound
        else c.name
        for c in _subexprs(e)
    )


def _copy(f, walk, args=(), fe=None):
    """The part of a walk for a node that it passes on unchanged: f rebuilt
    in its shape from ``walk(g, *args)`` of each immediate subformula g, a
    call, and, when fe is given, fe of each expression written at f.  A
    walk delegates to it with ``yield from``."""
    match f:
        case Null(e) | Nat(e):
            return f if fe is None else type(f)(fe(e))
        case PredVar(name, es):
            return f if fe is None else PredVar(name, tuple(map(fe, es)))
        case Imp(a, b) | And(a, b):
            return type(f)((yield walk(a, *args)), (yield walk(b, *args)))
        case Brace(e, b):
            return Brace(e if fe is None else fe(e), (yield walk(b, *args)))
        case All1(x, body) | Ex1(x, body):
            return type(f)(x, (yield walk(body, *args)))
        case All2(x, arity, body) | Ex2(x, arity, body):
            return type(f)(x, arity, (yield walk(body, *args)))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# free variables and substitution


def formula_free_vars(f) -> frozenset[str]:
    """Free first- and second-order variable names."""
    return f.fv


def formula_all_names(f) -> frozenset[str]:
    """Every variable name occurring in f, free or bound (for freshness)."""
    acc: set[str] = set()
    for g, _ in _subformulas(f):
        match g:
            case PredVar(name) | All1(name) | Ex1(name) | All2(name) | Ex2(name):
                acc.add(name)
        for e in _exprs(g):
            acc.update(expr_free_vars(e))
    return frozenset(acc)


def subst_expr1(f, x: str, e: ArithExpr):
    """First-order substitution f{x:=e}, capture-avoiding."""
    return trampoline(_subst1(f, {x: e}, expr_free_vars(e) | {x}))


def _subst1(f, env: dict[str, ArithExpr], avoid: frozenset[str]):
    """The walk of simultaneous first-order substitution; avoid holds the
    names of env and the free variables of its values, which binders must
    not capture.  Second-order binders cannot capture first-order
    variables."""
    if isinstance(f, (All1, Ex1)):
        if f.x in env:
            env = {k: v for k, v in env.items() if k != f.x}
            if not env:
                return f
        if f.x in avoid:
            f = yield _rebound(f, avoid)
    return (yield from _copy(f, _subst1, (env, avoid), lambda e: expr_subst(e, env)))


def subst_pred(f, x: str, params: tuple[str, ...], b):
    """Second-order substitution f{x(params):=b}, capture-avoiding."""
    return trampoline(_subst2(f, x, params, b, formula_free_vars(b)))


def _subst2(f, x: str, params: tuple[str, ...], b, fv_b: frozenset[str]):
    match f:
        case PredVar(name, args) if name == x:
            if len(args) != len(params):
                raise FormulaError(
                    f"predicate variable {x!r} used with arity {len(args)}, "
                    f"substituted at arity {len(params)}"
                )
            avoid = frozenset(params).union(*map(expr_free_vars, args))
            return (yield _subst1(b, dict(zip(params, args)), avoid))
        case All1(y) | Ex1(y) if y in fv_b - frozenset(params):
            f = yield _rebound(f, fv_b | {x})
        case All2(y) | Ex2(y) if y == x:
            return f
        case All2(y) | Ex2(y) if y in fv_b:
            f = yield _rebound(f, fv_b | {x})
    return (yield from _copy(f, _subst2, (x, params, b, fv_b)))


def _rebind(q, avoid: frozenset[str]):
    """The quantifier q with its bound variable renamed to a name that is
    neither in avoid nor anywhere in q's body."""
    return trampoline(_rebound(q, avoid))


def _rebound(q, avoid: frozenset[str]):
    """The walk of ``_rebind``."""
    x2 = fresh_name(q.x, avoid | formula_all_names(q.body))
    if isinstance(q, (All1, Ex1)):
        return type(q)(x2, (yield _subst1(q.body, {q.x: EVar(x2)}, frozenset({x2}))))
    return type(q)(x2, q.arity, (yield _rename_pred(q.body, q.x, x2)))


def _rename_pred(f, old: str, new: str):
    """Rename a free predicate variable (no clash checking)."""
    match f:
        case PredVar(name, args) if name == old:
            return PredVar(new, args)
        case All2(x) | Ex2(x) if x == old:
            return f
    return (yield from _copy(f, _rename_pred, (old, new)))


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
    return trampoline(_normalize(f, sig, f_top()))


def normalize_formula_ha2(f: Formula, sig: PrimRecSignature) -> Formula:
    """Normal form under expression rewriting, null(0) -> top,
    null(s(e)) -> bot, and the commutation (exists v A) -> B = forall v (A -> B)."""
    return trampoline(_normalize(f, sig, h_top()))


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
        case Imp(a, b):
            na = yield _normalize(a, sig, top)
            nb = yield _normalize(b, sig, top)
            # (exists v A) -> B = forall v (A -> B), until the antecedent is
            # no existential; the parts are normal already
            quantifiers = []
            while isinstance(na, (Ex1, Ex2)):
                if na.x in nb.fv:
                    na = yield _rebound(na, nb.fv)
                quantifiers.append(na)
                na = na.body
            f = Imp(na, nb)
            for q in reversed(quantifiers):
                f = All1(q.x, f) if isinstance(q, Ex1) else All2(q.x, q.arity, f)
            return f
    return (yield from _copy(f, _normalize, (sig, top), lambda e: normalize_expr(e, sig)))


def formula_congruent_pa2(a: Formula, b: Formula, sig: PrimRecSignature) -> bool:
    return normalize_formula_pa2(a, sig) == normalize_formula_pa2(b, sig)


# ---------------------------------------------------------------------------
# nat-relativization


def relativize_nat(f: Formula) -> Formula:
    """Relativize all first-order quantifications with the nat predicate."""
    return trampoline(_relativize(f))


def _relativize(f):
    match f:
        case All1(x, body):
            return All1(x, Imp(f_nat(EVar(x)), (yield _relativize(body))))
        case Brace(_, _):
            raise FormulaError("relativize_nat expects a plain PA2 formula (no {e} -> B)")
        case Null() | PredVar() | Imp() | All2():
            return (yield from _copy(f, _relativize))
    raise TypeError(f"not a PA2 formula: {f!r}")


def is_fully_relativized(f: Formula) -> bool:
    """True when every first-order quantifier is nat-guarded (shape check)."""
    return trampoline(_relativized(f))


def _relativized(f):
    match f:
        case Null(_) | PredVar(_, _):
            return True
        case Imp(a, b):
            return (yield _relativized(a)) and (yield _relativized(b))
        case Brace(_, b) | All2(_, _, b):
            return (yield _relativized(b))
        case All1(x, Imp(guard, body)):
            return guard == f_nat(EVar(x)) and (yield _relativized(body))
        case All1(_, _):
            return False
    raise TypeError(f"not a PA2 formula: {f!r}")


# ---------------------------------------------------------------------------
# parsing (one grammar; the dialect selects sugar or primitive where the
# two languages differ: exists, /\, nat, top, and the PA2+-only \/, natp
# and {e} -> B)


def parse_formula(text: str, sig: PrimRecSignature) -> Formula:
    """Parse a PA2+ formula; sugar expands to second-order encodings."""
    ts = _TokenStream(_lex(text))
    return _single_arities(ts.finish(trampoline(_formula(ts, sig, True))))


def parse_hformula(text: str, sig: PrimRecSignature) -> Formula:
    """Parse an HA2 formula (primitive /\\, exists, nat)."""
    ts = _TokenStream(_lex(text))
    return _single_arities(ts.finish(trampoline(_formula(ts, sig, False))))


def _single_arities(f):
    """f, once each free predicate variable has one arity in it; a bound
    one has one arity in its binder's scope (``_quantified``)."""
    for name in sorted(f.fv):
        if name[0].isupper():
            _pred_arity(f, name)
    return f


def _formula(ts, sig, pa2: bool):
    """The walk of the recursive-descent parser: a formula of the dialect.
    Quantifiers and {e} -> extend as far right as they can, -> and /\\
    associate to the right and \\/ to the left, so that a printed formula
    reads back; not binds tightest.  What nests is a call: the body of a
    quantifier or of {e} ->, the right side of ->, and a parenthesized
    formula; a run of \\/, /\\ or not is a loop."""
    tok = ts.peek()
    if tok.kind == "ident" and tok.text in ("forall", "exists"):
        ts.next()
        binders = []
        while ts.peek().kind == "ident":
            binders.append(ts.next().text)
        if not binders:
            raise ts.error(f"expected binders after {tok.text!r}")
        ts.expect(".")
        return _quantified(tok.text, binders, (yield _formula(ts, sig, pa2)), pa2)
    if tok.text == "{":
        ts.next()
        e = _parse_expr(ts, sig)
        ts.expect("}")
        ts.expect("->")
        b = yield _formula(ts, sig, pa2)
        if not pa2:
            raise ts.error("{e} -> B is a PA2+ construct")
        return Brace(e, b)
    a = None
    while True:  # the disjuncts
        conjuncts = []
        while True:
            nots = 0
            while ts.peek().kind == "ident" and ts.peek().text == "not":
                ts.next()
                nots += 1
            if ts.peek().text == "(":
                ts.next()
                c = yield _formula(ts, sig, pa2)
                ts.expect(")")
            else:
                c = _atom_formula(ts, sig, pa2)
            for _ in range(nots):
                c = f_not(c)
            conjuncts.append(c)
            if ts.peek().text != "/\\":
                break
            ts.next()
        c = conjuncts.pop()
        while conjuncts:
            c = f_and(conjuncts.pop(), c) if pa2 else And(conjuncts.pop(), c)
        a = c if a is None else f_or(a, c)
        if ts.peek().text != "\\/":
            break
        if not pa2:
            raise ts.error("HA2 has no disjunction")
        ts.next()
    if ts.peek().text == "->":
        ts.next()
        return Imp(a, (yield _formula(ts, sig, pa2)))
    return a


def _quantified(quantifier: str, binders: list[str], body, pa2: bool):
    """forall or exists over the binders (second-order when capitalized)."""
    for b in reversed(binders):
        second = b[0].isupper()
        arity = _pred_arity(body, b) if second else 0
        if quantifier == "forall":
            body = All2(b, arity, body) if second else All1(b, body)
        elif pa2:
            body = f_exists2(b, arity, body) if second else f_exists1(b, body)
        else:
            body = Ex2(b, arity, body) if second else Ex1(b, body)
    return body


def _pred_arity(f, name: str) -> int:
    """Arity of a predicate variable at its free occurrences in f, which
    must agree (0 when it has none)."""
    arity = None
    if name in f.fv:
        for g, bound in _subformulas(f):
            if isinstance(g, PredVar) and g.name == name and name not in bound:
                if arity is not None and len(g.args) != arity:
                    raise FormulaError(
                        f"predicate variable {name!r} used at arities {arity} and {len(g.args)}"
                    )
                arity = len(g.args)
    return arity or 0


def _atom_formula(ts, sig, pa2: bool):
    """An atomic formula, or the abbreviation of one, that is not in parentheses."""
    tok = ts.peek()
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
    out: list[str] = []
    trampoline(_formula_text(f, 0, out))
    return "".join(out)


def _formula_text(f, level: int, out: list[str]):
    """The walk of ``print_formula``: f's text appended to out, in
    parentheses where level needs them: 0 = top (quantifiers, ->), 1 = /\\
    operand, 2 = atom."""
    wrap = level != 0
    match f:
        case Null(e) | Nat(e):
            parts, wrap = [("null(" if type(f) is Null else "nat(") + print_expr(e) + ")"], False
        case PredVar(name, ()):
            parts, wrap = [name], False
        case PredVar(name, args):
            parts, wrap = [name + "(" + ", ".join(print_expr(a) for a in args) + ")"], False
        case Imp(a, b):
            parts = [(a, 1), " -> ", (b, 0)]
        case Brace(e, b):
            parts = ["{" + print_expr(e) + "} -> ", (b, 0)]
        case And(a, b):
            parts, wrap = [(a, 2), " /\\ ", (b, 1)], level > 1
        case All1(_, _) | All2(_, _, _) | Ex1(_, _) | Ex2(_, _, _):
            forall = isinstance(f, (All1, All2))
            group = (All1, All2) if forall else (Ex1, Ex2)
            binders = []
            while isinstance(f, group):
                binders.append(f.x)
                f = f.body
            parts = [("forall " if forall else "exists ") + " ".join(binders) + ". ", (f, 0)]
        case _:
            raise TypeError(f"not a formula: {f!r}")
    out.append("(" if wrap else "")
    for part in parts:
        if type(part) is str:
            out.append(part)
        else:
            yield _formula_text(*part, out)
    out.append(")" if wrap else "")
