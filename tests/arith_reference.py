"""The equational evaluator: the reference semantics of lamc.arith.eval_expr,
and the recursive substitution: the reference of lamc.arith.expr_subst.

Every symbol except the constructors 0 and s is evaluated by rewriting
with its defining equations, in unary: ``+`` recurses on its first
argument, ``*`` is repeated addition.  It is slow on purpose and serves
only as the oracle the native evaluator is compared with.  A numeral
leaf is a constructor numeral, so its value is read off directly.
"""

from __future__ import annotations

from lamc.arith import EApp, ENat, EVar, EvalError, PrimRecSignature, SymbolDef, Valuation, expr_is_ground


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
