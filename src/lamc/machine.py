"""The Krivine abstract machine for the lambda-c calculus.

Deterministic small-step evaluation of processes under the base rules
(Push, Grab, Call/cc, Resume), the primitive-numeral rules (Succ, Rec-0,
Rec-S, Print) and user-registered instruction rules.  A run owns its
counters and print sink; configurations are immutable and may be shared.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Union

from .arith import (
    ArithExpr,
    PrimRecSignature,
    default_signature,
    eval_expr,
    expr_free_vars,
    expr_symbols,
)
from .syntax import (
    App,
    Inst,
    Kont,
    Lam,
    LamcError,
    Numeral,
    Process,
    Push,
    Stack,
    Term,
    Var,
    free_vars,
    print_process,
    substitute,
)


RESERVED_INSTRUCTIONS = frozenset({"cc", "s", "rec", "print", "stop", "callcc"})

DEFAULT_FUEL = 10_000_000


class MachineError(LamcError):
    pass


class RuleError(LamcError):
    pass


class StopRun(Exception):
    """May be raised by a print sink to abort the run early."""


# ---------------------------------------------------------------------------
# instruction rules


@dataclass(frozen=True)
class BindTerm:
    var: str


@dataclass(frozen=True)
class BindNumeral:
    var: str


@dataclass(frozen=True)
class LitNumeral:
    n: int


SlotPattern = Union[BindTerm, BindNumeral, LitNumeral]


@dataclass(frozen=True)
class Guard:
    """Arithmetic side condition over numeral-bound variables."""

    op: str  # "=", "<=", "<"
    left: ArithExpr
    right: ArithExpr

    def holds(self, env: dict[str, int], sig: PrimRecSignature) -> bool:
        a = eval_expr(self.left, env, sig)
        b = eval_expr(self.right, env, sig)
        if self.op == "=":
            return a == b
        if self.op == "<=":
            return a <= b
        if self.op == "<":
            return a < b
        raise RuleError(f"unknown guard operator {self.op!r}")


@dataclass(frozen=True, eq=False, slots=True)
class TExpr(Term):
    """Template-only node: a numeral computed from an arithmetic expression
    over the rule's numeral-bound variables.  Never appears in run states."""

    expr: ArithExpr
    fv: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fv", frozenset())

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"#({self.expr})"


@dataclass(frozen=True)
class InstructionRule:
    """head * slot1 . ... . slotk . tail  >  rhs_term * rhs_stack... . tail

    The rule consumes exactly len(patterns) stack slots; the right-hand side
    may only mention pattern-bound variables (plus the implicit tail) and
    instruction names.  Rules for one instruction fire in declaration order.
    """

    head: str
    patterns: tuple[SlotPattern, ...]
    rhs_term: Term
    rhs_stack: tuple[Term, ...] = ()
    guard: Guard | None = None


def macro_rule(name: str, term: Term) -> InstructionRule:
    """A definitional rule: name * pi  >  term * pi."""
    return InstructionRule(name, (), term, ())


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class MachineConfig:
    rules: dict[str, tuple[InstructionRule, ...]] = field(default_factory=dict)
    sig: PrimRecSignature = field(default_factory=default_signature)
    fuel: int | None = DEFAULT_FUEL
    trace: bool = False
    sink: Callable[[int], None] | None = None

    @property
    def instructions(self) -> frozenset[str]:
        return frozenset(self.rules) | RESERVED_INSTRUCTIONS


def register_instruction(
    cfg: MachineConfig,
    name: str,
    rules: Iterable[InstructionRule],
    batch: Iterable[str] = (),
) -> MachineConfig:
    """Extend a configuration with one instruction.  ``batch`` names
    instructions being registered together (mutual recursion)."""
    rules = tuple(rules)
    if name in RESERVED_INSTRUCTIONS:
        raise RuleError(f"{name!r} is a reserved instruction name")
    if name in cfg.rules:
        raise RuleError(f"instruction {name!r} is already defined")
    if not rules:
        raise RuleError(f"instruction {name!r} needs at least one rule")
    known = cfg.instructions | set(batch) | {name}
    for rule in rules:
        _validate_rule(rule, name, known, cfg.sig)
    _check_shadowing(name, rules)
    table = dict(cfg.rules)
    table[name] = rules
    return replace(cfg, rules=table)


def register_batch(
    cfg: MachineConfig, definitions: dict[str, list[InstructionRule]]
) -> MachineConfig:
    """Register several mutually recursive instructions at once."""
    batch = set(definitions)
    for name, rules in definitions.items():
        cfg = register_instruction(cfg, name, rules, batch=batch)
    return cfg


def _validate_rule(
    rule: InstructionRule, name: str, known: set[str] | frozenset[str], sig: PrimRecSignature
) -> None:
    if rule.head != name:
        raise RuleError(f"rule head {rule.head!r} does not match instruction {name!r}")
    term_vars: set[str] = set()
    num_vars: set[str] = set()
    for p in rule.patterns:
        match p:
            case BindTerm(v):
                if v in term_vars | num_vars:
                    raise RuleError(f"{name}: duplicate pattern variable {v!r}")
                term_vars.add(v)
            case BindNumeral(v):
                if v in term_vars | num_vars:
                    raise RuleError(f"{name}: duplicate pattern variable {v!r}")
                num_vars.add(v)
            case LitNumeral(n):
                if n < 0:
                    raise RuleError(f"{name}: negative numeral literal")
    if rule.guard is not None:
        for e in (rule.guard.left, rule.guard.right):
            loose = expr_free_vars(e) - num_vars
            if loose:
                raise RuleError(
                    f"{name}: guard mentions non-numeral variables {sorted(loose)}"
                )
    for tmpl in (rule.rhs_term, *rule.rhs_stack):
        _validate_template(tmpl, name, term_vars | num_vars, num_vars, known, sig)


def _validate_template(
    t: Term,
    name: str,
    bound: set[str],
    num_vars: set[str],
    known: set[str] | frozenset[str],
    sig: PrimRecSignature,
    lam_bound: frozenset[str] = frozenset(),
) -> None:
    match t:
        case Var(v):
            if v not in bound and v not in lam_bound:
                raise RuleError(f"{name}: unbound variable {v!r} in rule right-hand side")
        case TExpr(e):
            loose = expr_free_vars(e) - num_vars
            if loose:
                raise RuleError(
                    f"{name}: template expression mentions non-numeral variables {sorted(loose)}"
                )
            for sym in expr_symbols(e):
                if sym not in sig:
                    raise RuleError(f"{name}: unknown function symbol {sym!r} in template")
        case Lam(b, body):
            _validate_template(body, name, bound, num_vars, known, sig, lam_bound | {b})
        case App(fn, arg):
            _validate_template(fn, name, bound, num_vars, known, sig, lam_bound)
            _validate_template(arg, name, bound, num_vars, known, sig, lam_bound)
        case Inst(iname):
            if iname not in known:
                raise RuleError(f"{name}: unknown instruction {iname!r} in rule right-hand side")
        case Kont(_):
            raise RuleError(f"{name}: continuation constants are not allowed in rules")
        case Numeral(_):
            pass
        case _:
            raise TypeError(f"not a template term: {t!r}")


def _check_shadowing(name: str, rules: tuple[InstructionRule, ...]) -> None:
    """Reject rules that can never fire (exhaustive prefix-overlap analysis)."""
    for i, later in enumerate(rules):
        for earlier in rules[:i]:
            if earlier.guard is None and _subsumes(earlier, later):
                raise RuleError(
                    f"{name}: rule {i + 1} is shadowed by an earlier unconditional rule"
                )


def _subsumes(a: InstructionRule, b: InstructionRule) -> bool:
    if len(a.patterns) > len(b.patterns):
        return False
    for pa, pb in zip(a.patterns, b.patterns):
        match pa, pb:
            case (BindTerm(_), _):
                continue
            case (BindNumeral(_), (BindNumeral(_) | LitNumeral(_))):
                continue
            case (LitNumeral(n), LitNumeral(m)) if n == m:
                continue
            case _:
                return False
    return True


# ---------------------------------------------------------------------------
# stepping


@dataclass(frozen=True)
class Halt:
    kind: str  # "final-stop" | "stuck" | "fuel" | "aborted"
    value: int | None = None


@dataclass(frozen=True)
class Next:
    process: Process
    rule: str


StepResult = Union[Next, Halt]


def step(p: Process, cfg: MachineConfig) -> StepResult:
    """One machine step; Halt(stuck) is a value, not an error."""
    head, stack = p.head, p.stack
    match head:
        case App(fn, arg):
            return Next(Process(fn, Push(arg, stack)), "Push")
        case Lam(binder, body):
            if isinstance(stack, Push):
                return Next(Process(substitute(body, binder, stack.top), stack.rest), "Grab")
            return Halt("stuck")
        case Kont(saved):
            if isinstance(stack, Push):
                return Next(Process(stack.top, saved), "Resume")
            return Halt("stuck")
        case Numeral(_):
            return Halt("stuck")
        case Var(name):
            raise MachineError(f"ill-formed process: free variable {name!r} in head position")
        case Inst(name):
            return _step_inst(name, stack, cfg)
    raise TypeError(f"not a term: {head!r}")


def _step_inst(name: str, stack: Stack, cfg: MachineConfig) -> StepResult:
    if name == "cc":
        if isinstance(stack, Push):
            return Next(Process(stack.top, Push(Kont(stack.rest), stack.rest)), "cc")
        return Halt("stuck")
    if name == "s":
        match stack:
            case Push(Numeral(n), Push(u, rest)):
                return Next(Process(u, Push(Numeral(n + 1), rest)), "s")
        return Halt("stuck")
    if name == "rec":
        match stack:
            case Push(u0, Push(u1, Push(Numeral(n), rest))):
                if n == 0:
                    return Next(Process(u0, rest), "rec-0")
                below = Numeral(n - 1)
                again = App(App(App(Inst("rec"), u0), u1), below)
                return Next(Process(u1, Push(below, Push(again, rest))), "rec-s")
        return Halt("stuck")
    if name == "print":
        match stack:
            case Push(Numeral(n), Push(u, rest)):
                if cfg.sink is not None:
                    cfg.sink(n)
                return Next(Process(u, rest), "print")
        return Halt("stuck")
    if name == "stop":
        match stack:
            case Push(Numeral(n), _):
                return Halt("final-stop", n)
        return Halt("stuck")
    for rule in cfg.rules.get(name, ()):
        result = _try_rule(rule, stack, cfg)
        if result is not None:
            return result
    return Halt("stuck")


def _try_rule(rule: InstructionRule, stack: Stack, cfg: MachineConfig) -> Next | None:
    binds: dict[str, Term] = {}
    nums: dict[str, int] = {}
    s = stack
    for pat in rule.patterns:
        if not isinstance(s, Push):
            return None
        top = s.top
        match pat:
            case BindTerm(v):
                binds[v] = top
            case BindNumeral(v):
                if not isinstance(top, Numeral):
                    return None
                binds[v] = top
                nums[v] = top.n
            case LitNumeral(n):
                if not (isinstance(top, Numeral) and top.n == n):
                    return None
        s = s.rest
    if rule.guard is not None and not rule.guard.holds(nums, cfg.sig):
        return None
    new_head = _instantiate(rule.rhs_term, binds, nums, cfg.sig)
    tail = s
    for tmpl in reversed(rule.rhs_stack):
        tail = Push(_instantiate(tmpl, binds, nums, cfg.sig), tail)
    return Next(Process(new_head, tail), rule.head)


def _instantiate(
    t: Term, binds: dict[str, Term], nums: dict[str, int], sig: PrimRecSignature
) -> Term:
    match t:
        case Var(v):
            return binds.get(v, t)
        case TExpr(e):
            return Numeral(eval_expr(e, nums, sig))
        case Lam(b, body):
            if b in binds:
                # template binder shadows the pattern variable
                inner = {k: v for k, v in binds.items() if k != b}
                return Lam(b, _instantiate(body, inner, nums, sig))
            return Lam(b, _instantiate(body, binds, nums, sig))
        case App(fn, arg):
            return App(_instantiate(fn, binds, nums, sig), _instantiate(arg, binds, nums, sig))
        case _:
            return t


# ---------------------------------------------------------------------------
# running


@dataclass(frozen=True)
class RunOutcome:
    final: Process
    halt: Halt
    steps: int
    stats: dict[str, int]
    printed: tuple[int, ...]
    fired: tuple[str, ...] = ()  # rule log, populated when cfg.trace is set
    trace: tuple[str, ...] = ()

    def instruction_calls(self) -> dict[str, int]:
        """Rule firings plus the final halting instruction, if any.

        This is the Fig.-5-style 'instruction calls' view: an instruction
        with no rule (stop, or a stuck instruction) still counts as called
        once when the machine halts on it.
        """
        table = dict(self.stats)
        if self.halt.kind in ("final-stop", "stuck") and isinstance(self.final.head, Inst):
            name = self.final.head.name
            table[name] = table.get(name, 0) + 1
        return table


def run(p: Process, cfg: MachineConfig) -> RunOutcome:
    """Iterate ``step`` until halt or fuel exhaustion.

    Identical inputs give identical outcomes, statistics included.  The
    sink may raise StopRun to abort (halt kind "aborted").
    """
    if free_vars(p.head):
        raise MachineError("ill-formed process: head is not closed")
    stats: Counter[str] = Counter()
    printed: list[int] = []
    fired: list[str] = []
    trace: list[str] = []
    sink_list = printed.append
    user_sink = cfg.sink

    def sink(n: int) -> None:
        sink_list(n)
        if user_sink is not None:
            user_sink(n)

    running = replace(cfg, sink=sink)
    steps = 0
    halt = None
    while True:
        if cfg.fuel is not None and steps >= cfg.fuel:
            halt = Halt("fuel")
            break
        try:
            result = step(p, running)
        except StopRun:
            halt = Halt("aborted")
            break
        if isinstance(result, Halt):
            halt = result
            break
        steps += 1
        stats[result.rule] += 1
        p = result.process
        if cfg.trace:
            fired.append(result.rule)
            trace.append(f"step {steps}: {result.rule} | {print_process(p)}")
    return RunOutcome(
        final=p,
        halt=halt,
        steps=steps,
        stats=dict(stats),
        printed=tuple(printed),
        fired=tuple(fired),
        trace=tuple(trace),
    )

