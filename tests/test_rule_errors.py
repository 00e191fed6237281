"""Every error that rule registration raises, pinned by type and full
message, one fault per case."""

import pytest

from lamc.arith import EApp, EVar
from lamc.machine import (
    BindNumeral,
    BindTerm,
    Guard,
    InstructionRule,
    LitNumeral,
    MachineConfig,
    RuleError,
    TExpr,
    macro_rule,
    register_batch,
    register_instruction,
)
from lamc.syntax import BOTTOM, App, HConst, Inst, Kont, Lam, Numeral, Push, Var

U, N = BindTerm("u"), BindNumeral("n")


def rule(*patterns, rhs=Var("u"), stack=(), guard=None, head="f"):
    return InstructionRule(head, tuple(patterns), rhs, tuple(stack), guard)


def with_idle():
    return register_instruction(MachineConfig(), "idle", [macro_rule("idle", Lam("x", Var("x")))])


# (id, configuration, instruction name, rules, exception type, message)
CASES = [
    ("reserved", MachineConfig(), "cc", [macro_rule("cc", Inst("stop"))],
     RuleError, "'cc' is a reserved instruction name"),
    ("reserved-alias", MachineConfig(), "callcc", [macro_rule("callcc", Inst("stop"))],
     RuleError, "'callcc' is a reserved instruction name"),
    ("already-defined", with_idle(), "idle", [macro_rule("idle", Lam("x", Var("x")))],
     RuleError, "instruction 'idle' is already defined"),
    ("no-rules", MachineConfig(), "f", [],
     RuleError, "instruction 'f' needs at least one rule"),
    ("head-mismatch", MachineConfig(), "f", [macro_rule("g", Inst("stop"))],
     RuleError, "rule head 'g' does not match instruction 'f'"),
    ("duplicate-term-variable", MachineConfig(), "f", [rule(U, BindTerm("u"))],
     RuleError, "f: duplicate pattern variable 'u'"),
    ("duplicate-numeral-variable", MachineConfig(), "f", [rule(N, BindNumeral("n"), rhs=Var("n"))],
     RuleError, "f: duplicate pattern variable 'n'"),
    ("numeral-after-term-variable", MachineConfig(), "f", [rule(U, BindNumeral("u"))],
     RuleError, "f: duplicate pattern variable 'u'"),
    ("negative-literal", MachineConfig(), "f", [rule(LitNumeral(-1), U)],
     RuleError, "f: negative numeral literal"),
    ("guard-over-term-variable", MachineConfig(), "f",
     [rule(U, N, guard=Guard("<=", EVar("n"), EVar("u")))],
     RuleError, "f: guard mentions non-numeral variables ['u']"),
    ("template-over-term-variable", MachineConfig(), "f",
     [rule(U, N, stack=(TExpr(EApp("+", (EVar("n"), EVar("u")))),))],
     RuleError, "f: template expression mentions non-numeral variables ['u']"),
    ("unknown-symbol", MachineConfig(), "f",
     [rule(U, N, rhs=App(Var("u"), TExpr(EApp("nosuch", (EVar("n"),)))))],
     RuleError, "f: unknown function symbol 'nosuch' in template"),
    ("unbound-variable", MachineConfig(), "f", [rule(U, rhs=App(Var("u"), Var("w")))],
     RuleError, "f: unbound variable 'w' in rule right-hand side"),
    ("unbound-under-binder", MachineConfig(), "f", [rule(U, stack=(Lam("x", Var("y")),))],
     RuleError, "f: unbound variable 'y' in rule right-hand side"),
    ("unknown-instruction", MachineConfig(), "f", [rule(U, rhs=App(Inst("ghost"), Var("u")))],
     RuleError, "f: unknown instruction 'ghost' in rule right-hand side"),
    ("continuation", MachineConfig(), "f", [rule(U, stack=(Kont(Push(Numeral(1), BOTTOM)),))],
     RuleError, "f: continuation constants are not allowed in rules"),
    ("shadowed", MachineConfig(), "f", [rule(U), rule(N, rhs=Var("n"))],
     RuleError, "f: rule 2 is shadowed by an earlier unconditional rule"),
    ("shadowed-literal", MachineConfig(), "f",
     [rule(N, rhs=Var("n")), rule(LitNumeral(3), rhs=Inst("stop"))],
     RuleError, "f: rule 2 is shadowed by an earlier unconditional rule"),
    ("not-a-template", MachineConfig(), "f", [rule(U, rhs=App(HConst("pair"), Var("u")))],
     TypeError, "not a template term: HConst(kind='pair')"),
]


@pytest.mark.parametrize(
    "cfg, name, rules, kind, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_register_instruction_error(cfg, name, rules, kind, message):
    with pytest.raises(Exception) as raised:
        register_instruction(cfg, name, rules)
    assert type(raised.value) is kind
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "cfg, name, rules, kind, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_register_batch_error(cfg, name, rules, kind, message):
    # the faulty instruction comes second in a batch whose first one is sound
    good = {"ok": [macro_rule("ok", Lam("x", Var("x")))]}
    with pytest.raises(Exception) as raised:
        register_batch(cfg, {**good, name: rules})
    assert type(raised.value) is kind
    assert str(raised.value) == message


def test_batch_names_are_known_instructions():
    ping = rule(U, rhs=App(Inst("pong"), Var("u")), head="ping")
    pong = rule(U, head="pong")
    cfg = register_batch(MachineConfig(), {"ping": [ping], "pong": [pong]})
    assert set(cfg.rules) == {"ping", "pong"}
    with pytest.raises(RuleError) as raised:
        register_instruction(MachineConfig(), "ping", [ping])
    assert str(raised.value) == "ping: unknown instruction 'pong' in rule right-hand side"


def test_guard_symbols_are_checked_only_when_evaluated():
    guarded = rule(N, rhs=Inst("stop"), guard=Guard("=", EApp("nosuch", (EVar("n"),)), EVar("n")))
    cfg = register_instruction(MachineConfig(), "f", [guarded])
    assert cfg.rules["f"] == (guarded,)
