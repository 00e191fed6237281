"""Arithmetic expressions over a signature of primitive recursive symbols.

Each symbol comes with oriented defining equations over the constructor
patterns 0 and s(x).  Equation sets must be exhaustive, non-overlapping and
structurally decreasing (lexicographically), which makes both evaluation and
normalization total.

Numerals are arbitrary-precision naturals held in one constant-size leaf,
``ENat``.  Every way of building a numeral gives that leaf: the parser,
``expr_of_nat``, substitution, normalization, and the constructors
themselves, since ``EApp("0")`` is ``ENat(0)`` and ``EApp("s", (ENat(n),))``
is ``ENat(n + 1)``.  So each value has exactly one representation, and no
walk (parsing, validation, printing, normalization, compilation to terms)
ever meets a unary chain.

``eval_expr`` computes over Python ints.  The symbols 0 s + * pred neg minus
run natively when their definitions equal the default signature's (a
signature may define ``+`` differently, so names alone never decide);
every other symbol runs its own equations, compiled once per signature to
postfix code, with calls kept on an explicit stack so that deep recursion
needs no Python stack.  The test suite keeps the unary equational
evaluator as the reference these must agree with.  Substitution,
normalization, the parser and the printer are recursive walks on
``syntax.trampoline``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from types import GeneratorType, MappingProxyType
from typing import Mapping

from .syntax import LamcError, ParseError, _TokenStream, _lex, _nat_value, trampoline


class SignatureError(LamcError):
    pass


class EvalError(LamcError):
    pass


# ---------------------------------------------------------------------------
# expressions


class ArithExpr:
    __slots__ = ()

    def __str__(self) -> str:
        return print_expr(self)


@dataclass(frozen=True)
class EVar(ArithExpr):
    name: str


@dataclass(frozen=True)
class ENat(ArithExpr):
    """The numeral n, one leaf whatever its size."""

    n: int


ZERO = ENat(0)


@dataclass(frozen=True, eq=False)
class EApp(ArithExpr):
    """An application; equal applications have equal flat keys (``_key``)."""

    symbol: str
    args: tuple[ArithExpr, ...] = ()

    def __new__(cls, symbol: str | None = None, args: tuple = ()):
        # constructor numerals are the numeral leaf: one representation per value
        if symbol == "0" and not args:
            return ZERO
        if symbol == "s" and len(args) == 1 and type(args[0]) is ENat:
            return ENat(args[0].n + 1)
        return super().__new__(cls)

    def __eq__(self, other: object) -> bool:
        if type(other) is not EApp:
            return NotImplemented
        return self is other or _key(self) == _key(other)

    def __hash__(self) -> int:
        return hash(_key(self))


Valuation = Mapping[str, int]


def expr_of_nat(n: int) -> ArithExpr:
    """The numeral for n."""
    if n < 0:
        raise ValueError("naturals only")
    return ENat(n)


def nat_of_expr(e: ArithExpr) -> int | None:
    """The value of a numeral; None when e is not one."""
    return e.n if type(e) is ENat else None


def _subexprs(e: ArithExpr):
    """Every subexpression of e in preorder, the last argument first
    (explicit stack: expressions can be deep)."""
    todo = [e]
    while todo:
        cur = todo.pop()
        yield cur
        if isinstance(cur, EApp):
            todo.extend(cur.args)


def _key(e: ArithExpr) -> tuple:
    """The flat preorder key of e: a leaf as itself, an application as its
    symbol and arity."""
    return tuple((c.symbol, len(c.args)) if type(c) is EApp else c for c in _subexprs(e))


def expr_free_vars(e: ArithExpr) -> frozenset[str]:
    return frozenset(cur.name for cur in _subexprs(e) if isinstance(cur, EVar))


def expr_is_ground(e: ArithExpr) -> bool:
    return not any(isinstance(cur, EVar) for cur in _subexprs(e))


def expr_symbols(e: ArithExpr):
    """The function symbols applied in e, with repetitions."""
    return (cur.symbol for cur in _subexprs(e) if isinstance(cur, EApp))


def expr_subst(e: ArithExpr, env: Mapping[str, ArithExpr]) -> ArithExpr:
    """e with each variable named in env replaced by its value.  A node
    with no replaced variable below it is kept as it is."""
    if type(e) is EApp:
        return trampoline(_subst(e, env))
    return env.get(e.name, e) if type(e) is EVar else e


def _subst(e: EApp, env: Mapping[str, ArithExpr]):
    args = []
    for a in e.args:
        if type(a) is EApp:
            a = yield _subst(a, env)
        elif type(a) is EVar:
            a = env.get(a.name, a)
        args.append(a)
    return e if all(map(operator.is_, args, e.args)) else EApp(e.symbol, tuple(args))


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Pattern:
    """An argument pattern: a variable, the constant 0, or s(variable)."""

    kind: str  # "var" | "zero" | "succ"
    var: str | None = None

    def as_expr(self) -> ArithExpr:
        if self.kind == "var":
            return EVar(self.var)
        if self.kind == "zero":
            return ZERO
        return EApp("s", (EVar(self.var),))


@dataclass(frozen=True)
class Equation:
    patterns: tuple[Pattern, ...]
    rhs: ArithExpr


@dataclass(frozen=True)
class SymbolDef:
    name: str
    arity: int
    equations: tuple[Equation, ...]  # empty for the constructors 0 and s


class PrimRecSignature:
    """Immutable symbol table.  ``define`` returns an extended signature."""

    def __init__(self, symbols: dict[str, SymbolDef] | None = None):
        if symbols is None:
            symbols = {}
            for name, arity in (("0", 0), ("s", 1)):
                symbols[name] = SymbolDef(name, arity, ())
        self.symbols: Mapping[str, SymbolDef] = MappingProxyType(symbols)
        self._code: dict | None = None  # what eval_expr runs, built on first use

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def arity(self, name: str) -> int:
        try:
            return self.symbols[name].arity
        except KeyError:
            raise SignatureError(f"unknown function symbol {name!r}") from None

    def define(self, name: str, arity: int, equations: list[Equation]) -> "PrimRecSignature":
        if name in self.symbols:
            raise SignatureError(f"symbol {name!r} is already defined")
        sym = SymbolDef(name, arity, tuple(equations))
        _validate_symbol(sym, self)
        table = dict(self.symbols)
        table[name] = sym
        return PrimRecSignature(table)


def _validate_symbol(sym: SymbolDef, sig: PrimRecSignature) -> None:
    if not sym.equations:
        raise SignatureError(f"{sym.name}: at least one defining equation required")
    for eq in sym.equations:
        if len(eq.patterns) != sym.arity:
            raise SignatureError(f"{sym.name}: pattern arity mismatch")
        seen: set[str] = set()
        for p in eq.patterns:
            if p.kind in ("var", "succ"):
                if p.var in seen:
                    raise SignatureError(f"{sym.name}: non-linear pattern variable {p.var!r}")
                seen.add(p.var)
        _validate_rhs(sym, eq, seen, sig)
    _check_cases(sym)
    _check_decrease(sym)


def _validate_rhs(sym: SymbolDef, eq: Equation, bound: set[str], sig: PrimRecSignature) -> None:
    for e in _subexprs(eq.rhs):
        if isinstance(e, EVar):
            if e.name not in bound:
                raise SignatureError(f"{sym.name}: unbound variable {e.name!r} in equation")
        elif isinstance(e, EApp):
            if e.symbol != sym.name and e.symbol not in sig:
                raise SignatureError(f"{sym.name}: unknown symbol {e.symbol!r} in equation")
            arity = sym.arity if e.symbol == sym.name else sig.arity(e.symbol)
            if len(e.args) != arity:
                raise SignatureError(f"{sym.name}: {e.symbol!r} applied to {len(e.args)} arguments")


def _check_cases(sym: SymbolDef) -> None:
    """Equations must be exhaustive and non-overlapping on constructor cases."""
    constrained = [
        i
        for i in range(sym.arity)
        if any(eq.patterns[i].kind != "var" for eq in sym.equations)
    ]
    for mask in range(1 << len(constrained)):
        values = [ZERO] * sym.arity
        for bit, pos in enumerate(constrained):
            values[pos] = ENat(mask >> bit & 1)
        matching = [eq for eq in sym.equations if _match_equation(eq, values) is not None]
        if len(matching) != 1:
            shape = ", ".join(
                ("s _" if values[i].n else "0") if i in constrained else "_"
                for i in range(sym.arity)
            )
            what = "overlapping" if len(matching) > 1 else "missing"
            raise SignatureError(f"{sym.name}: {what} case ({shape})")


def _check_decrease(sym: SymbolDef) -> None:
    """Every self-call must decrease lexicographically under the patterns."""
    for eq in sym.equations:
        for call in _self_calls(eq.rhs, sym.name):
            if not _lex_smaller(call, eq.patterns):
                raise SignatureError(
                    f"{sym.name}: recursive call {print_expr(EApp(sym.name, call))} "
                    f"does not structurally decrease"
                )


def _self_calls(e: ArithExpr, name: str):
    return (cur.args for cur in _subexprs(e) if isinstance(cur, EApp) and cur.symbol == name)


def _lex_smaller(args: tuple[ArithExpr, ...], patterns: tuple[Pattern, ...]) -> bool:
    for arg, pat in zip(args, patterns):
        if pat.kind == "succ" and arg in (EVar(pat.var), ZERO):
            return True
        if arg != pat.as_expr():
            return False
    return False


@cache
def default_signature() -> PrimRecSignature:
    """Constructors plus the standard symbols +, *, pred, neg, minus.

    Built once and shared, with what ``eval_expr`` compiles for it:
    signatures are immutable."""
    v = lambda n: Pattern("var", n)
    z = Pattern("zero")
    sc = lambda n: Pattern("succ", n)
    x, y = EVar("x"), EVar("y")
    plus = lambda a, b: EApp("+", (a, b))
    times = lambda a, b: EApp("*", (a, b))
    succ = lambda a: EApp("s", (a,))

    sig = PrimRecSignature()
    sig = sig.define("+", 2, [
        Equation((z, v("y")), y),
        Equation((sc("x"), v("y")), succ(plus(x, y))),
    ])
    sig = sig.define("*", 2, [
        Equation((z, v("y")), ZERO),
        Equation((sc("x"), v("y")), plus(times(x, y), y)),
    ])
    sig = sig.define("pred", 1, [
        Equation((z,), ZERO),
        Equation((sc("x"),), x),
    ])
    sig = sig.define("neg", 1, [
        Equation((z,), succ(ZERO)),
        Equation((sc("x"),), ZERO),
    ])
    sig = sig.define("minus", 2, [
        Equation((v("x"), z), x),
        Equation((z, sc("y")), ZERO),
        Equation((sc("x"), sc("y")), EApp("minus", (x, y))),
    ])
    return sig


# ---------------------------------------------------------------------------
# evaluation over Python ints

# the default signature's symbols, as Python functions
_NATIVE = {
    "0": lambda: 0,
    "s": lambda a: a + 1,
    "+": operator.add,
    "*": operator.mul,
    "pred": lambda a: a - 1 if a else 0,
    "neg": lambda a: 0 if a else 1,
    "minus": lambda a, b: a - b if a > b else 0,
}

# postfix instructions: (_CONST, n) and (_VAR, name) push a value,
# (_CALL, symbol, argc) replaces the top argc values by the symbol's value
_CONST, _VAR, _CALL = range(3)


def _signature_code(sig: PrimRecSignature) -> dict:
    """Per symbol, its native function, or its equations as (patterns,
    postfix code) pairs.  Cached on the signature, so it lives exactly as
    long; nothing in it refers back to the signature or to itself."""
    if sig._code is None:
        defaults = default_signature().symbols
        code: dict = {}
        for name, sym in sig.symbols.items():
            # native only if the callees are native too: a signature may
            # define + its own way and * with the default equations
            if (
                name in _NATIVE
                and sym == defaults[name]
                and all(
                    c == name or code.get(c) is _NATIVE[c]
                    for eq in sym.equations
                    for c in expr_symbols(eq.rhs)
                )
            ):
                code[name] = _NATIVE[name]
            else:
                code[name] = tuple(
                    (eq.patterns, _compile(eq.rhs, sig)) for eq in sym.equations
                )
        sig._code = code
    return sig._code


def _compile(e: ArithExpr, sig: PrimRecSignature, bound: Valuation | None = None) -> tuple:
    """The postfix code of e.  With bound, a variable outside it is an
    error.  Errors are raised in the order of a right-to-left pre-order
    walk, the order the equational reference evaluator meets them in
    (define rules them out in equations)."""
    code: list = []
    todo = [e]
    while todo:
        cur = todo.pop()
        if type(cur) is ENat:
            code.append((_CONST, cur.n))
        elif type(cur) is EVar:
            if bound is not None and cur.name not in bound:
                raise EvalError(f"unbound variable {cur.name!r}")
            code.append((_VAR, cur.name))
        else:
            sym = sig.symbols.get(cur.symbol)
            if sym is None:
                raise EvalError(f"unknown function symbol {cur.symbol!r}")
            if len(cur.args) != sym.arity:
                raise EvalError(
                    f"{cur.symbol!r} applied to {len(cur.args)} arguments, expects {sym.arity}"
                )
            code.append((_CALL, cur.symbol, sym.arity))
            todo.extend(cur.args)
    code.reverse()  # right-to-left pre-order, reversed: left-to-right post-order
    return tuple(code)


def eval_expr(e: ArithExpr, rho: Valuation, sig: PrimRecSignature) -> int:
    """The standard value of e under rho."""
    if type(e) is ENat:
        return e.n
    if type(e) is EVar:
        try:
            return rho[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    return _run(_compile(e, sig, rho), rho, _signature_code(sig))


def _run(code: tuple, env: Valuation, table: dict) -> int:
    """Run postfix code.  A call of a native symbol is one Python call; a
    call of a symbol with equations runs the matching equation's code in a
    new frame on an explicit stack (a call in tail position reuses the
    frame), so recursion depth costs list entries, not Python frames."""
    values: list[int] = []
    frames: list = []
    pc = 0
    while True:
        if pc == len(code):
            if not frames:
                return values[-1]
            code, env, pc = frames.pop()
            continue
        op = code[pc]
        pc += 1
        kind = op[0]
        if kind == _CONST:
            values.append(op[1])
            continue
        if kind == _VAR:
            values.append(env[op[1]])
            continue
        _, name, argc = op
        cut = len(values) - argc
        args = values[cut:]
        del values[cut:]
        entry = table[name]
        if type(entry) is not tuple:
            values.append(entry(*args))
            continue
        if pc < len(code):
            frames.append((code, env, pc))
        code, env = _match(name, entry, args)
        pc = 0


def _match(name: str, equations: tuple, args: list[int]) -> tuple[tuple, dict[str, int]]:
    for patterns, body in equations:
        env: dict[str, int] = {}
        for p, v in zip(patterns, args):
            if p.kind == "var":
                env[p.var] = v
            elif (p.kind == "zero") != (v == 0):
                break
            elif p.kind == "succ":
                env[p.var] = v - 1
        else:
            return body, env
    raise EvalError(f"{name}: no equation matches {args}")  # unreachable once validated


# ---------------------------------------------------------------------------
# normalization and congruence


def normalize_expr(e: ArithExpr, sig: PrimRecSignature) -> ArithExpr:
    """The unique normal form of e under the oriented defining equations.

    A maximal ground subexpression of e normalizes to a numeral, so it is
    evaluated whole; the rest rewrites until a variable blocks."""
    return trampoline(_normalize(e, sig, _open_nodes(e), {}, None))


def _open_nodes(e: ArithExpr) -> set[int]:
    """The ids of e's subexpressions that contain a variable (one pass,
    each node after its arguments)."""
    opened: set[int] = set()
    for cur in reversed(list(_subexprs(e))):
        if type(cur) is EVar or type(cur) is EApp and any(id(a) in opened for a in cur.args):
            opened.add(id(cur))
    return opened


def _normalize(e: ArithExpr, sig: PrimRecSignature, opened: set, stuck: dict, env: dict | None):
    """The walk of ``normalize_expr``: the normal form of e, a subexpression
    of the input (opened tells the ground ones) when env is None, else a
    right-hand side whose pattern variables env binds to normal forms.  A
    rewrite is the next round of the loop, a tail call, so bound values are
    not walked again.  Only a normal form with a ground call left in it (a
    call of the wrong arity) would not normalize to itself: stuck keeps
    those, and a rewrite that binds one substitutes, as the reference does."""
    while True:
        if type(e) is EVar:
            return env.get(e.name, e) if env else e
        if type(e) is ENat:
            return e
        if env is None and id(e) not in opened:
            return ENat(eval_expr(e, {}, sig))
        args = []
        for a in e.args:
            args.append((yield _normalize(a, sig, opened, stuck, env)))
        args = tuple(args)
        numerals = all(type(a) is ENat for a in args)
        if env is not None and numerals:
            return ENat(eval_expr(EApp(e.symbol, args), {}, sig))
        if e.symbol not in sig:
            raise EvalError(f"unknown function symbol {e.symbol!r}")
        m = _match_structural(sig.symbols[e.symbol], args)
        if m is None:
            e = EApp(e.symbol, args)
            if type(e) is EApp and (numerals or any(id(a) in stuck for a in args)):
                stuck[id(e)] = e
            return e
        e, env = m[0].rhs, m[1]
        if any(id(v) in stuck for v in env.values()):
            e = expr_subst(e, env)
            return (yield _normalize(e, sig, _open_nodes(e), stuck, None))


def _match_structural(
    sym: SymbolDef, args: tuple[ArithExpr, ...]
) -> tuple[Equation, dict[str, ArithExpr]] | None:
    """The first of sym's equations whose patterns match args, with its
    bindings; None when none does."""
    for eq in sym.equations:
        env = _match_equation(eq, args)
        if env is not None:
            return eq, env
    return None


def _match_equation(eq: Equation, args) -> dict[str, ArithExpr] | None:
    """The bindings of eq's pattern variables that make its patterns args;
    None when they do not match."""
    env: dict[str, ArithExpr] = {}
    for p, a in zip(eq.patterns, args):
        if p.kind == "var":
            env[p.var] = a
        elif p.kind == "zero":
            if a != ZERO:
                return None
        elif type(a) is ENat and a.n > 0:
            env[p.var] = ENat(a.n - 1)
        elif type(a) is EApp and a.symbol == "s":
            env[p.var] = a.args[0]
        else:
            return None
    return env


def expr_congruent(e1: ArithExpr, e2: ArithExpr, sig: PrimRecSignature) -> bool:
    return normalize_expr(e1, sig) == normalize_expr(e2, sig)


# ---------------------------------------------------------------------------
# surface syntax: infix + and *, call syntax f(e1,...,ek), decimal literals


def parse_expr(text: str, sig: PrimRecSignature) -> ArithExpr:
    ts = _TokenStream(_lex(text))
    return ts.finish(_parse_expr(ts, sig))


def _parse_expr(ts: _TokenStream, sig: PrimRecSignature) -> ArithExpr:
    return trampoline(_expression(ts, sig))


def _expression(ts: _TokenStream, sig: PrimRecSignature):
    """The walk of the expression parser: a sum of products of factors,
    both left-associative."""
    e = None
    while True:
        product = None
        while True:
            factor = _factor(ts, sig)
            if type(factor) is GeneratorType:
                factor = yield factor
            product = factor if product is None else EApp("*", (product, factor))
            if ts.peek().text != "*" or ts.peek().kind != "punct":
                break
            ts.next()
        e = product if e is None else EApp("+", (e, product))
        if ts.peek().text != "+":
            return e
        ts.next()


def _factor(ts: _TokenStream, sig: PrimRecSignature):
    """The factor that starts here: the expression itself when it is one
    token, or the walk that reads it when it nests (parentheses, a call)."""
    tok = ts.peek()
    if tok.kind == "nat":
        ts.next()
        return ENat(_nat_value(tok))
    if tok.kind == "ident":
        ts.next()
        if ts.peek().text == "(":
            return _call(ts, sig, tok)
        if tok.text in sig and sig.arity(tok.text) == 0:
            return EApp(tok.text)
        return EVar(tok.text)
    if tok.text == "(":
        return _parenthesized(ts, sig)
    raise ParseError(f"expected an arithmetic expression, found {tok.text!r}", tok.line, tok.col)


def _parenthesized(ts: _TokenStream, sig: PrimRecSignature):
    ts.next()
    e = yield _expression(ts, sig)
    ts.expect(")")
    return e


def _call(ts: _TokenStream, sig: PrimRecSignature, tok):
    """The call of the symbol at tok, from its opening parenthesis on."""
    ts.next()
    args = []
    if ts.peek().text != ")":
        args.append((yield _expression(ts, sig)))
        while ts.peek().text == ",":
            ts.next()
            args.append((yield _expression(ts, sig)))
    ts.expect(")")
    if tok.text not in sig:
        raise ParseError(f"unknown function symbol {tok.text!r}", tok.line, tok.col)
    if sig.arity(tok.text) != len(args):
        raise ParseError(f"{tok.text!r} expects {sig.arity(tok.text)} arguments", tok.line, tok.col)
    return EApp(tok.text, tuple(args))


def print_expr(e: ArithExpr) -> str:
    """The text of e, with the parentheses that + and * need to read back."""
    out: list[str] = []
    trampoline(_expr_text(e, out))
    return "".join(out)


def _expr_text(e: ArithExpr, out: list[str], groups: tuple[str, ...] = ()):
    """The walk of ``print_expr``: e's text appended to out, in parentheses
    when e applies one of groups."""
    if type(e) is ENat:
        out.append(str(e.n))
    elif type(e) is EVar:
        out.append(e.name)
    elif type(e) is not EApp:
        raise TypeError(f"not an expression: {e!r}")
    else:
        wrap = e.symbol in groups
        if wrap:
            out.append("(")
        if e.symbol in ("+", "*") and len(e.args) == 2:
            # a + b groups a right operand that is a sum, a * b any operand that is an operation
            a, b = e.args
            times = e.symbol == "*"
            yield _expr_text(a, out, ("+", "*") if times else ())
            out.append(f" {e.symbol} ")
            yield _expr_text(b, out, ("+", "*") if times else ("+",))
        elif e.args:
            out.append(e.symbol + "(")
            for i, a in enumerate(e.args):
                if i:
                    out.append(", ")
                yield _expr_text(a, out)
            out.append(")")
        else:
            out.append(e.symbol)
        if wrap:
            out.append(")")
