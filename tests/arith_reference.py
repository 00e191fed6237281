"""The equational evaluator: the reference semantics of lamc.arith.eval_expr,
and the recursive walks: the references of lamc.arith.expr_subst,
normalize_expr, the expression parser and print_expr.

Every symbol except the constructors 0 and s is evaluated by rewriting
with its defining equations, in unary: ``+`` recurses on its first
argument, ``*`` is repeated addition.  It is slow on purpose and serves
only as the oracle the native evaluator is compared with.  A numeral
leaf is a constructor numeral, so its value is read off directly.
"""

from __future__ import annotations

from lamc.arith import (
    EApp,
    ENat,
    EVar,
    EvalError,
    PrimRecSignature,
    SymbolDef,
    Valuation,
    _match_structural,
    eval_expr,
    expr_is_ground,
)
from lamc.syntax import ParseError, _TokenStream, _lex, _nat_value


def eval_equational(e, rho: Valuation, sig: PrimRecSignature) -> int:
    """The standard value of e under rho, computed through the equations
    (explicit stack: recursion can be deep)."""
    values: list[int] = []
    # tasks: ("eval", expr, env) or ("apply", expr)
    tasks: list[tuple] = [("eval", e, rho)]
    while tasks:
        task = tasks.pop()
        if task[0] == "eval":
            _, cur, env = task
            if isinstance(cur, ENat):
                values.append(cur.n)
                continue
            if isinstance(cur, EVar):
                try:
                    values.append(env[cur.name])
                except KeyError:
                    raise EvalError(f"unbound variable {cur.name!r}") from None
                continue
            if cur.symbol not in sig:
                raise EvalError(f"unknown function symbol {cur.symbol!r}")
            arity = sig.arity(cur.symbol)
            if len(cur.args) != arity:
                raise EvalError(
                    f"{cur.symbol!r} applied to {len(cur.args)} arguments, expects {arity}"
                )
            tasks.append(("apply", cur))
            for a in cur.args:
                tasks.append(("eval", a, env))
        else:
            _, cur = task
            argc = len(cur.args)
            args = values[len(values) - argc :] if argc else []
            del values[len(values) - argc :]
            args.reverse()
            sym = sig.symbols[cur.symbol]
            if sym.name == "0":
                values.append(0)
            elif sym.name == "s":
                values.append(args[0] + 1)
            else:
                rhs, env = _match_values(sym, args)
                tasks.append(("eval", rhs, env))
    assert len(values) == 1
    return values.pop()


def _match_values(sym: SymbolDef, args: list[int]):
    for eq in sym.equations:
        env: dict[str, int] = {}
        for p, v in zip(eq.patterns, args):
            if p.kind == "var":
                env[p.var] = v
            elif p.kind == "zero":
                if v != 0:
                    break
            else:
                if v == 0:
                    break
                env[p.var] = v - 1
        else:
            return eq.rhs, env
    raise EvalError(f"{sym.name}: no equation matches {args}")


def expr_subst(e, env):
    """e with each variable named in env replaced by its value; a ground
    subexpression is returned as it is."""
    if not env or expr_is_ground(e):
        return e
    match e:
        case EVar(name):
            return env.get(name, e)
        case EApp(symbol, args):
            return EApp(symbol, tuple(expr_subst(a, env) for a in args))
    raise TypeError(f"not an expression: {e!r}")


def normalize_expr(e, sig: PrimRecSignature):
    """The recursive normalizer: one Python frame per pending call, and per
    unit of a successor run."""
    if expr_is_ground(e):
        return ENat(eval_expr(e, {}, sig))
    match e:
        case EVar(_):
            return e
        case EApp(symbol, args):
            nargs = tuple(normalize_expr(a, sig) for a in args)
            if symbol not in sig:
                raise EvalError(f"unknown function symbol {symbol!r}")
            sym = sig.symbols[symbol]
            if not sym.equations:
                return EApp(symbol, nargs)
            m = _match_structural(sym, nargs)
            if m is None:
                return EApp(symbol, nargs)
            eq, env = m
            return normalize_expr(expr_subst(eq.rhs, env), sig)
    raise TypeError(f"not an expression: {e!r}")


def parse_expr(text: str, sig):
    ts = _TokenStream(_lex(text))
    return ts.finish(_parse_expr(ts, sig))


def _parse_expr(ts, sig):
    e = _parse_addend(ts, sig)
    while ts.peek().text == "+":
        ts.next()
        e = EApp("+", (e, _parse_addend(ts, sig)))
    return e


def _parse_addend(ts, sig):
    e = _parse_factor(ts, sig)
    while ts.peek().text == "*" and ts.peek().kind == "punct":
        ts.next()
        e = EApp("*", (e, _parse_factor(ts, sig)))
    return e


def _parse_factor(ts, sig):
    tok = ts.peek()
    if tok.kind == "nat":
        ts.next()
        return ENat(_nat_value(tok))
    if tok.kind == "ident":
        ts.next()
        if ts.peek().text == "(":
            ts.next()
            args = []
            if ts.peek().text != ")":
                args.append(_parse_expr(ts, sig))
                while ts.peek().text == ",":
                    ts.next()
                    args.append(_parse_expr(ts, sig))
            ts.expect(")")
            if tok.text not in sig:
                raise ParseError(f"unknown function symbol {tok.text!r}", tok.line, tok.col)
            if sig.arity(tok.text) != len(args):
                raise ParseError(f"{tok.text!r} expects {sig.arity(tok.text)} arguments", tok.line, tok.col)
            return EApp(tok.text, tuple(args))
        if tok.text in sig and sig.arity(tok.text) == 0:
            return EApp(tok.text)
        return EVar(tok.text)
    if tok.text == "(":
        ts.next()
        e = _parse_expr(ts, sig)
        ts.expect(")")
        return e
    raise ParseError(f"expected an arithmetic expression, found {tok.text!r}", tok.line, tok.col)


def print_expr(e) -> str:
    match e:
        case ENat(n):
            return str(n)
        case EVar(name):
            return name
        case EApp("+", (a, b)):
            return f"{print_expr(a)} + {_grouped(b, ('+',))}"
        case EApp("*", (a, b)):
            return f"{_grouped(a, ('+', '*'))} * {_grouped(b, ('+', '*'))}"
        case EApp(symbol, ()):
            return symbol
        case EApp(symbol, args):
            return symbol + "(" + ", ".join(print_expr(a) for a in args) + ")"
    raise TypeError(f"not an expression: {e!r}")


def _grouped(e, symbols) -> str:
    if isinstance(e, EApp) and e.symbol in symbols:
        return "(" + print_expr(e) + ")"
    return print_expr(e)
