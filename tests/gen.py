"""Random generators shared by the property suites.

Seeded random.Random instances keep the acceptance runs reproducible;
the hypothesis strategies wrap the same builders.
"""

from __future__ import annotations

import random

from lamc.ha2 import FST, PAIR_C, REC, SC, SND, Z0, hnumeral, hpair
from lamc.syntax import App, BOTTOM, HConst, Inst, Lam, Numeral, Process, Push, Stack, Term, Var, app, lam

VARS = ("a", "b", "c", "d", "e")


def random_term(
    rng: random.Random,
    depth: int,
    bound: tuple[str, ...] = (),
    closed: bool = True,
    max_numeral: int = 5,
    instructions: tuple[str, ...] = ("cc", "s", "rec", "stop"),
) -> Term:
    """A random lambda-c term over the closed instruction set."""
    leaves = ["numeral", "inst"]
    if bound:
        leaves.append("var")
        leaves.append("var")
    if not closed:
        leaves.append("freevar")
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        kind = rng.choice(leaves + ["lam", "lam", "app", "app", "app"])
    if kind == "var":
        return Var(rng.choice(bound))
    if kind == "freevar":
        return Var(rng.choice(VARS))
    if kind == "numeral":
        return Numeral(rng.randint(0, max_numeral))
    if kind == "inst":
        return Inst(rng.choice(instructions))
    if kind == "lam":
        binder = rng.choice(VARS + ("x", "y", "z"))
        return Lam(binder, random_term(rng, depth - 1, bound + (binder,), closed, max_numeral, instructions))
    return App(
        random_term(rng, depth - 1, bound, closed, max_numeral, instructions),
        random_term(rng, depth - 1, bound, closed, max_numeral, instructions),
    )


def random_closed_term(rng: random.Random, depth: int = 5, **kw) -> Term:
    return random_term(rng, depth, closed=True, **kw)


def random_stack(rng: random.Random, depth: int = 4, max_len: int = 3, **kw) -> Stack:
    stack: Stack = BOTTOM
    for _ in range(rng.randint(0, max_len)):
        stack = Push(random_closed_term(rng, rng.randint(1, depth), **kw), stack)
    return stack


def random_process(rng: random.Random, depth: int = 6, **kw) -> Process:
    return Process(random_closed_term(rng, depth, **kw), random_stack(rng, min(depth, 4), **kw))


HCONSTS = (PAIR_C, FST, SND, Z0, SC, REC)


def random_hterm(
    rng: random.Random,
    depth: int,
    bound: tuple[str, ...] = (),
    closed: bool = False,
) -> Term:
    leaves = ["const", "const"]
    if bound:
        leaves += ["var", "var"]
    if not closed:
        leaves.append("freevar")
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        kind = rng.choice(leaves + ["lam", "lam", "app", "app", "app", "pair"])
    if kind == "var":
        return Var(rng.choice(bound))
    if kind == "freevar":
        return Var(rng.choice(VARS))
    if kind == "const":
        return HConst(rng.choice(HCONSTS).kind)
    if kind == "lam":
        binder = rng.choice(VARS + ("x", "y"))
        return Lam(binder, random_hterm(rng, depth - 1, bound + (binder,), closed))
    if kind == "pair":
        return App(
            App(PAIR_C, random_hterm(rng, depth - 1, bound, closed)),
            random_hterm(rng, depth - 1, bound, closed),
        )
    return App(
        random_hterm(rng, depth - 1, bound, closed),
        random_hterm(rng, depth - 1, bound, closed),
    )


def numeral_program(rng, depth):
    """A closed term that computes a numeral through rec, projections and
    beta redexes."""
    if depth <= 0:
        return hnumeral(rng.randint(0, 3))
    kind = rng.choice(("plus", "times", "pred", "fst", "snd", "beta", "sc"))
    a = numeral_program(rng, depth - 1)
    b = numeral_program(rng, depth - 1)
    if kind == "plus":
        return app(REC, a, lam("x y", App(SC, Var("y"))), b)
    if kind == "times":
        plus_a = lam("y", app(REC, Var("y"), lam("x z", App(SC, Var("z"))), a))
        return app(REC, Z0, lam("x y", App(plus_a, Var("y"))), b)
    if kind == "pred":
        return app(REC, Z0, lam("x y", Var("x")), a)
    if kind == "fst":
        return App(FST, hpair(a, b))
    if kind == "snd":
        return App(SND, app(FST, hpair(hpair(b, a), b)))
    if kind == "beta":
        return App(Lam("v", App(Lam("w", Var("v")), b)), a)
    return App(SC, a)


def projection_program(rng, depth):
    """Nested pairs taken apart by fst/snd chains, under beta redexes."""
    if depth <= 0:
        return rng.choice((Z0, hnumeral(2), lam("x", Var("x"))))
    kind = rng.choice(("pair", "fst", "snd", "beta", "swap"))
    a = projection_program(rng, depth - 1)
    b = projection_program(rng, depth - 1)
    if kind == "pair":
        return hpair(a, b)
    if kind == "fst":
        return App(FST, hpair(a, b))
    if kind == "snd":
        return App(SND, hpair(a, b))
    if kind == "beta":
        return App(Lam("p", App(FST, Var("p"))), hpair(a, b))
    swap = lam("p", hpair(App(SND, Var("p")), App(FST, Var("p"))))
    return App(FST, App(swap, hpair(a, b)))


# ---------------------------------------------------------------------------
# random formulas


from lamc.arith import EApp, EVar, expr_of_nat  # noqa: E402
from lamc.formulas import All1, All2, And, Brace, Ex1, Ex2, Imp, Nat, Null, PredVar  # noqa: E402

EXPR_VARS = ("x", "y")
PRED_VARS = ("X", "Y")
# arities are fixed per name: well-formed formulas use each second-order
# variable at a single arity
PRED_ARITIES = {"X": 1, "Y": 0}


def random_expr(rng: random.Random, depth: int, vars=EXPR_VARS):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return EVar(rng.choice(vars))
        return expr_of_nat(rng.randint(0, 3))
    name = rng.choice(["+", "*", "pred", "neg", "minus", "s"])
    arity = {"+": 2, "*": 2, "pred": 1, "neg": 1, "minus": 2, "s": 1}[name]
    return EApp(name, tuple(random_expr(rng, depth - 1, vars) for _ in range(arity)))


def random_pa2_formula(rng: random.Random, depth: int, quantifiers=True, brace=True):
    kinds = ["null", "pred", "pred"]
    if depth > 0:
        kinds += ["imp", "imp"]
        if brace:
            kinds.append("brace")
        if quantifiers:
            kinds += ["all1", "all2"]
    kind = rng.choice(kinds)
    if kind == "null":
        return Null(random_expr(rng, min(depth, 2)))
    if kind == "pred":
        name = rng.choice(PRED_VARS)
        args = tuple(random_expr(rng, 1) for _ in range(PRED_ARITIES[name]))
        return PredVar(name, args)
    if kind == "imp":
        return Imp(
            random_pa2_formula(rng, depth - 1, quantifiers, brace),
            random_pa2_formula(rng, depth - 1, quantifiers, brace),
        )
    if kind == "brace":
        return Brace(random_expr(rng, 1), random_pa2_formula(rng, depth - 1, quantifiers, brace))
    if kind == "all1":
        return All1(rng.choice(EXPR_VARS), random_pa2_formula(rng, depth - 1, quantifiers, brace))
    body = random_pa2_formula(rng, depth - 1, quantifiers, brace)
    name = rng.choice(PRED_VARS)
    from lamc.formulas import _pred_arity

    return All2(name, _pred_arity(body, name), body)


def random_hformula(rng: random.Random, depth: int):
    kinds = ["null", "nat", "pred", "pred"]
    if depth > 0:
        kinds += ["imp", "imp", "and", "all1", "ex1", "all2", "ex2"]
    kind = rng.choice(kinds)
    if kind == "null":
        return Null(random_expr(rng, min(depth, 2)))
    if kind == "nat":
        return Nat(random_expr(rng, min(depth, 2)))
    if kind == "pred":
        name = rng.choice(PRED_VARS)
        args = tuple(random_expr(rng, 1) for _ in range(PRED_ARITIES[name]))
        return PredVar(name, args)
    if kind == "imp":
        return Imp(random_hformula(rng, depth - 1), random_hformula(rng, depth - 1))
    if kind == "and":
        return And(random_hformula(rng, depth - 1), random_hformula(rng, depth - 1))
    if kind in ("all1", "ex1"):
        cls = All1 if kind == "all1" else Ex1
        return cls(rng.choice(EXPR_VARS), random_hformula(rng, depth - 1))
    cls = All2 if kind == "all2" else Ex2
    body = random_hformula(rng, depth - 1)
    name = rng.choice(PRED_VARS)
    from lamc.formulas import _pred_arity

    return cls(name, _pred_arity(body, name), body)


# congruence moves for ConvSound-style tests


def random_congruent_expr(rng: random.Random, e, moves: int = 3):
    """Apply random congruence-preserving rewrites/expansions to e."""
    from lamc.arith import default_signature, _match_structural, expr_subst

    sig = default_signature()

    def positions(cur, path=()):
        yield path, cur
        if isinstance(cur, EApp):
            for i, a in enumerate(cur.args):
                yield from positions(a, path + (i,))

    def replace(cur, path, new):
        if not path:
            return new
        args = list(cur.args)
        args[path[0]] = replace(args[path[0]], path[1:], new)
        return EApp(cur.symbol, tuple(args))

    s = lambda a: EApp("s", (a,))
    for _ in range(moves):
        pos = list(positions(e))
        path, sub = rng.choice(pos)
        choice = rng.random()
        if choice < 0.4 and isinstance(sub, EApp):
            sym = sig.symbols.get(sub.symbol)
            if sym is not None and sym.equations:
                m = _match_structural(sym, sub.args)
                if m is not None:
                    eq, env = m
                    e = replace(e, path, expr_subst(eq.rhs, env))
                    continue
        # expansions (right-to-left uses of the defining equations)
        expansion = rng.choice(
            [
                lambda t: EApp("+", (EApp("0", ()), t)),            # t = 0 + t
                lambda t: EApp("pred", (s(t),)),                    # t = pred(s(t))
                lambda t: EApp("minus", (t, EApp("0", ()))),        # t = minus(t, 0)
                lambda t: EApp("minus", (s(t), expr_of_nat(1))),  # t = minus(s t, s 0)
            ]
        )
        e = replace(e, path, expansion(sub))
    return e
