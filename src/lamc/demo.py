"""The minimum-principle demo family.

For a parameter c, take f(x) = |x - c| and g(x) = 2x + 1.  The hand-built
realizer of the minimum principle yields a realizer of the statement that
f(x) <= f(g(x)) for some x, and extraction iterates g from 0 until the
inequality holds.  Two builds are provided: an instruction build (script;
every component is a named instruction, so call statistics are readable)
and a closed-term build over the closed instruction set, fit for the CPS
translation.
"""

from __future__ import annotations

from .arith import Equation, Pattern, PrimRecSignature, default_signature, parse_expr
from .machine import MachineConfig
from .script import definitions_config, parse_script
from .stdlib import compile_primrec, make_pair, min_principle_realizers, test_le_term
from .syntax import App, Lam, Term, Var


def oracle_guesses(c: int) -> tuple[int, list[int]]:
    """Brute force: iterate g from 0 until f(x) <= f(g(x))."""
    f = lambda x: abs(x - c)
    g = lambda x: 2 * x + 1
    guesses = []
    x = 0
    while True:
        guesses.append(x)
        if f(x) <= f(g(x)):
            return x, guesses
        x = g(x)


def demo_signature(c: int) -> PrimRecSignature:
    """The default signature extended with f, g and the verification
    predicate fleq(x) = minus(f(x), f(g(x))) (zero iff f(x) <= f(g(x)))."""
    sig = default_signature()
    sig = sig.define(
        "f", 1, [Equation((Pattern("var", "x"),), parse_expr(f"minus(x, {c}) + minus({c}, x)", sig))]
    )
    sig = sig.define("g", 1, [Equation((Pattern("var", "x"),), parse_expr("2 * x + 1", sig))])
    sig = sig.define(
        "fleq", 1, [Equation((Pattern("var", "x"),), parse_expr("minus(f(x), f(g(x)))", sig))]
    )
    return sig


def build_script(c: int) -> str:
    """The demo script, whose Eval prints each guess (the print variant
    of the breakpoint wrapper)."""
    return f"""\
-- Minimum-principle witness extraction: f(x) = |x - {c}|, g(x) = 2*x + 1.
-- The realizer proposes the iterates of g starting at 0 and backtracks
-- through a saved continuation until f(x) <= f(g(x)).
Prim f(x) {{ f(x) = minus(x, {c}) + minus({c}, x); }}
Prim g(x) {{ g(x) = 2 * x + 1; }}
Prim fleq(x) {{ fleq(x) = minus(f(x), f(g(x))); }}
Define f {{ [x] u -> u * #(f(x)) . ...; }}
Define g {{ [x] u -> u * #(g(x)) . ...; }}
Define pair = \\x y z. z x y;
Define I = \\x. x;
Define test_le {{
  [n] [m] u v when n <= m -> u * ...;
  [n] [m] u v -> v * ...;
}}
Define min_aux {{ fn k [n] [m] -> pair n (min_snd fn k n m) * ...; }}
and min_snd {{ fn k [n] [m] [n2] -> fn n2 (\\m2. test_le m m2 I (k (min_aux fn k n2 m2))) * ...; }}
Define min_princ = \\fn. fn #0 (\\m. callcc (\\k. min_aux fn k #0 m));
Define realizer = min_princ f (\\n h. pair n (g n h));
Eval realizer * (\\x y. print x y (stop x)) . $;
"""


def instruction_config(c: int) -> MachineConfig:
    """The machine configuration after running the demo script definitions:
    instructions f, g, pair, I, test_le, min_aux, min_snd, min_princ,
    realizer over the demo signature."""
    return definitions_config(parse_script(build_script(c)))


def closed_realizer(c: int) -> tuple[Term, PrimRecSignature]:
    """The demo realizer as a closed term over the closed instruction set
    (cc, s, rec, numerals): fit for the CPS translation."""
    sig = demo_signature(c)
    cache: dict[str, Term] = {}
    fhat = compile_primrec("f", sig, cache)
    ghat = compile_primrec("g", sig, cache)
    minp = min_principle_realizers(test_le_term(sig))
    framing = Lam("n", Lam("h", make_pair(Var("n"), App(App(ghat, Var("n")), Var("h")))))
    return App(App(minp["min_princ"], fhat), framing), sig
