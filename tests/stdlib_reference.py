"""The recursive primitive-recursive compiler: the reference of
``lamc.stdlib.compile_primrec``, whose right-hand sides are one walk on
the trampoline.

``compile_rhs`` and ``seq`` call each other once per level of the
right-hand side.  Symbols other than the one compiled are compiled by this
reference too, so that it calls no compiler of ``lamc``.
"""

from __future__ import annotations

from lamc.arith import EVar, _self_calls, nat_of_expr
from lamc.machine import RuleError
from lamc.stdlib import _PrimRecCompiler, turing_fixpoint
from lamc.syntax import App, Inst, Lam, Numeral, Var, app, lam


def compile_primrec(name: str, sig, cache: dict | None = None):
    """As ``lamc.stdlib.compile_primrec``, with the recursive compiler."""
    if cache is None:
        cache = {}
    if name in cache:
        return cache[name]
    if name not in sig:
        raise RuleError(f"unknown function symbol {name!r}")
    sym = sig.symbols[name]
    if name == "0":
        cache[name] = Lam("u", App(Var("u"), Numeral(0)))
        return cache[name]
    if name == "s":
        cache[name] = Inst("s")
        return cache[name]
    compiler = RecursiveCompiler(name, sym, sig, cache)
    tree = compiler.build([None] * sym.arity)
    body = lam(" ".join(compiler.arg_names + ["u"]), tree)
    recursive = any(True for eq in sym.equations for _ in _self_calls(eq.rhs, name))
    cache[name] = App(turing_fixpoint(), Lam("self", body)) if recursive else body
    return cache[name]


class RecursiveCompiler(_PrimRecCompiler):
    def compile_rhs(self, e, env, k):
        lit = nat_of_expr(e)
        if lit is not None:
            return App(k, Numeral(lit))
        if isinstance(e, EVar):
            return App(k, env[e.name])
        if e.symbol == "s":
            v = self.fresh("v")
            return self.compile_rhs(e.args[0], env, Lam(v, app(Inst("s"), Var(v), k)))
        fn = Var("self") if e.symbol == self.name else compile_primrec(e.symbol, self.sig, self.cache)
        return self.seq(fn, list(e.args), [], env, k)

    def seq(self, fn, args, values, env, k):
        if not args:
            return App(app(fn, *values), k)
        head, *rest = args
        if isinstance(head, EVar):
            return self.seq(fn, rest, values + [env[head.name]], env, k)
        lit = nat_of_expr(head)
        if lit is not None:
            return self.seq(fn, rest, values + [Numeral(lit)], env, k)
        v = self.fresh("v")
        return self.compile_rhs(head, env, Lam(v, self.seq(fn, rest, values + [Var(v)], env, k)))
