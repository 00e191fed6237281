"""Small helpers that only the tests use: reading back an HA2 numeral,
running a term on numerals, and the guarded-rule build of ``test_le``."""

from __future__ import annotations

from lamc.arith import EVar
from lamc.machine import BindNumeral, BindTerm, Guard, InstructionRule, MachineConfig, run
from lamc.syntax import App, HConst, Inst, Numeral, Process, Term, Var, stack_of


def hnumeral_value(t: Term) -> int | None:
    """Inverse of hnumeral on exact spines."""
    n = 0
    while True:
        match t:
            case App(HConst("sc"), inner):
                n += 1
                t = inner
            case HConst("z0"):
                return n
            case _:
                return None


def computes_value(
    t: Term, args: tuple[int, ...], cfg: MachineConfig | None = None, fuel: int = 200_000
) -> int | None:
    """Run t * args... . stop . bottom; the computed value, or None."""
    cfg = cfg if cfg is not None else MachineConfig(fuel=fuel)
    stack = stack_of(*[Numeral(n) for n in args], Inst("stop"))
    out = run(Process(t, stack), cfg)
    if out.halt.kind == "final-stop":
        return out.halt.value
    return None


def test_le_rules() -> list[InstructionRule]:
    """The builtin-instruction build of the comparison (guarded rules)."""
    pats = (BindNumeral("n"), BindNumeral("m"), BindTerm("u"), BindTerm("v"))
    return [
        InstructionRule("test_le", pats, Var("u"), (), Guard("<=", EVar("n"), EVar("m"))),
        InstructionRule("test_le", pats, Var("v"), ()),
    ]
