"""The Krivine abstract machine for the lambda-c calculus.

Deterministic small-step evaluation of processes under the base rules
(Push, Grab, Call/cc, Resume), the primitive-numeral rules (Succ, Rec-0,
Rec-S, Print) and user-registered instruction rules.  There are two
machines:

- ``step`` is the reference semantics: one step on processes, where Grab
  substitutes the stack top into the body.  The simulation checker needs
  a ``Process`` after every step and uses it.
- ``run`` is the environment machine that ``step`` specifies (Krivine,
  "A call-by-name lambda-calculus machine", 2007).  It compiles the
  process and the rules it fires into nameless code once per run, and
  Grab pushes the stack top onto an environment of closures instead of
  rebuilding the body.  Closures are read back into terms only for the
  final process, trace lines and continuations; the outcome, statistics
  and trace are those of iterating ``step``.

A run owns its counters and print sink; configurations are immutable and
may be shared.
"""

from __future__ import annotations

import math
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
    BOTTOM,
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


# ---------------------------------------------------------------------------
# the environment machine behind ``run``
#
# A term is compiled once per run into nameless code: tuples
#     (tag, a, b, need, src)     and, for an application, a sixth field
# where ``need`` is one more than the largest environment index the node
# reaches outside itself (0 when the node is closed) and ``src`` is the
# source term, which readback returns for every node that reaches no
# environment entry (None for numerals and continuations built at run
# time).  Per tag, ``a`` and ``b`` are:
#     _APP    function code, argument code; field 5 is the argument's
#             closure when the argument is closed, else None
#     _LAM    body code
#     _VAR    environment index (0 is the innermost binder)
#     _NUM    the numeral
#     _KONT   the saved stack
#     _CC, _SUCC, _REC, _PRINT, _STOP, _USER    the instruction's name
# A closure is a pair (code, env).  Environments and stacks are linked
# lists (closure, rest) that end in None.  No stack or environment entry
# is a variable closure: Push stores the closure a variable points to.

_APP, _LAM, _VAR, _NUM, _KONT, _CC, _SUCC, _REC, _PRINT, _STOP, _USER = range(11)

_INST_TAGS = {"cc": _CC, "s": _SUCC, "rec": _REC, "print": _PRINT, "stop": _STOP}

_BUILTIN_RULES = ("Push", "Grab", "Resume", "cc", "s", "rec-0", "rec-s", "print")

_STUCK = Halt("stuck")


def _compile(t: Term, scope: tuple, memo: dict) -> tuple:
    """The code of ``t`` with the names in ``scope`` (outermost first) as its
    environment.  A scope entry is a variable name, or ``id(e)`` for a
    template's ``TExpr`` e.  ``memo`` maps ``id`` of closed terms to their
    code, so a closed term shared in the input is compiled once; the terms
    must outlive ``memo``.  Explicit-stack walk: terms may be deep."""
    levels: dict = {}  # name -> depths of its binders, innermost last
    for depth, key in enumerate(scope):
        levels.setdefault(key, []).append(depth)
    depth = len(scope)
    out: list[tuple] = []
    todo: list = [(t, True)]
    while todo:
        t, entering = todo.pop()
        if entering:
            node = memo.get(id(t))
            if node is not None:
                out.append(node)
            elif isinstance(t, App):
                todo += ((t, False), (t.arg, True), (t.fn, True))
            elif isinstance(t, Lam):
                levels.setdefault(t.binder, []).append(depth)
                depth += 1
                todo += ((t, False), (t.body, True))
            elif isinstance(t, (Var, TExpr)):
                bound = levels.get(t.name if isinstance(t, Var) else id(t))
                if not bound:
                    if isinstance(t, Var):
                        raise RuleError(f"unbound variable {t.name!r} in rule right-hand side")
                    raise TypeError(f"not a term: {t!r}")
                i = depth - 1 - bound[-1]
                out.append((_VAR, i, None, i + 1, t))
            elif isinstance(t, Inst):
                out.append((_INST_TAGS.get(t.name, _USER), t.name, None, 0, t))
            elif isinstance(t, Numeral):
                out.append((_NUM, t.n, None, 0, t))
            elif isinstance(t, Kont):
                saved = list(t.saved)
                if any(u.fv for u in saved):
                    raise MachineError("ill-formed process: stack is not closed")
                todo.append((t, False))
                todo += ((u, True) for u in reversed(saved))
            else:
                raise TypeError(f"not a term: {t!r}")
            continue
        if isinstance(t, App):
            arg = out.pop()
            fn = out.pop()
            node = (_APP, fn, arg, max(fn[3], arg[3]), t, None if arg[3] else (arg, None))
        elif isinstance(t, Lam):
            body = out.pop()
            levels[t.binder].pop()
            depth -= 1
            node = (_LAM, body, None, max(body[3] - 1, 0), t)
        else:  # Kont
            saved = None
            for _ in t.saved:
                saved = ((out.pop(), None), saved)
            node = (_KONT, saved, None, 0, t)
        if not node[3]:
            memo[id(t)] = node
        out.append(node)
    return out[0]


# rec u0 u1 #(n-1), over the environment #(n-1) . u1 . u0
_REC_AGAIN = _compile(
    App(App(App(Inst("rec"), Var("u0")), Var("u1")), Var("n")), ("u0", "u1", "n"), {}
)

_BIND_TERM, _BIND_NUMERAL, _LIT_NUMERAL = range(3)


def _compile_rule(rule: InstructionRule, memo: dict) -> tuple:
    """(instruction name, patterns, guard, template expressions, right-hand
    side code, right-hand stack codes in push order).  The templates' environment holds the pattern
    variables in order, then one numeral per ``TExpr``, in the order in
    which ``_instantiate`` evaluates them."""
    patterns = []
    scope = []
    for pat in rule.patterns:
        match pat:
            case BindTerm(v):
                patterns.append((_BIND_TERM, v))
                scope.append(v)
            case BindNumeral(v):
                patterns.append((_BIND_NUMERAL, v))
                scope.append(v)
            case LitNumeral(n):
                patterns.append((_LIT_NUMERAL, n))
    templates = (rule.rhs_term, *reversed(rule.rhs_stack))
    exprs = []
    todo = list(reversed(templates))
    while todo:
        t = todo.pop()
        if isinstance(t, TExpr):
            exprs.append(t)
            scope.append(id(t))
        elif isinstance(t, Lam):
            todo.append(t.body)
        elif isinstance(t, App):
            todo += (t.arg, t.fn)
    head, *tail = (_compile(t, tuple(scope), memo) for t in templates)
    return (rule.head, tuple(patterns), rule.guard, tuple(e.expr for e in exprs), head, tuple(tail))


def _fire(compiled: tuple, stack, sig: PrimRecSignature) -> tuple | None:
    """(code, env, stack) after the compiled rule, or None if it does not
    match."""
    _, patterns, guard, exprs, head, tail = compiled
    env = None
    nums: dict[str, int] = {}
    for kind, x in patterns:
        if stack is None:
            return None
        top, stack = stack
        if kind == _BIND_TERM:
            env = (top, env)
            continue
        code = top[0]
        if code[0] != _NUM:
            return None
        if kind == _BIND_NUMERAL:
            env = (top, env)
            nums[x] = code[1]
        elif code[1] != x:
            return None
    if guard is not None and not guard.holds(nums, sig):
        return None
    for expr in exprs:
        env = (((_NUM, eval_expr(expr, nums, sig), None, 0, None), None), env)
    for code in tail:
        if code[0] == _VAR:
            e, i = env, code[1]
            while i:
                e, i = e[1], i - 1
            stack = (e[0], stack)
        else:
            stack = ((code, env if code[3] else None), stack)
    return head, env if head[3] else None, stack


_RB_CODE, _RB_CLOSURE, _RB_STACK, _RB_MEMO, _RB_LAM, _RB_APP, _RB_PUSH, _RB_KONT = range(8)


def _read_back(code: tuple, env, stack) -> Process:
    """The process a machine state stands for: each environment entry
    substituted into its code.  Entries are closed, so no binder needs
    renaming and the result is the process ``step`` reaches.  Each closure
    and stack cell is read back once, so shared parts stay shared.
    Explicit-stack walk."""
    memo: dict[int, object] = {}  # id of a closure or stack cell -> its readback
    out: list = []
    todo: list = [(_RB_STACK, stack), (_RB_CODE, code, env, 0)]
    while todo:
        item = todo.pop()
        op = item[0]
        if op == _RB_CODE:
            _, code, env, depth = item
            if code[3] <= depth:  # reaches no environment entry
                if code[4] is not None:
                    out.append(code[4])
                elif code[0] == _NUM:
                    out.append(Numeral(code[1]))
                else:
                    todo += ((_RB_KONT,), (_RB_STACK, code[1]))
            elif code[0] == _VAR:
                e, i = env, code[1] - depth
                while i:
                    e, i = e[1], i - 1
                todo.append((_RB_CLOSURE, e[0]))
            elif code[0] == _LAM:
                todo += ((_RB_LAM, code[4].binder), (_RB_CODE, code[1], env, depth + 1))
            else:
                todo += ((_RB_APP,), (_RB_CODE, code[2], env, depth), (_RB_CODE, code[1], env, depth))
        elif op == _RB_CLOSURE or op == _RB_STACK:
            cell = item[1]
            done = memo.get(id(cell))
            if done is not None:
                out.append(done)
            elif cell is None:
                out.append(BOTTOM)
            elif op == _RB_CLOSURE:
                todo += ((_RB_MEMO, cell), (_RB_CODE, cell[0], cell[1], 0))
            else:
                todo += ((_RB_MEMO, cell), (_RB_PUSH,), (_RB_STACK, cell[1]), (_RB_CLOSURE, cell[0]))
        elif op == _RB_MEMO:
            memo[id(item[1])] = out[-1]
        elif op == _RB_LAM:
            out[-1] = Lam(item[1], out[-1])
        elif op == _RB_APP:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif op == _RB_PUSH:
            rest = out.pop()
            out[-1] = Push(out[-1], rest)
        else:  # _RB_KONT
            out[-1] = Kont(out[-1])
    return Process(out[0], out[1])


def run(p: Process, cfg: MachineConfig) -> RunOutcome:
    """Run the machine until halt or fuel exhaustion.

    The rules are those of ``step``, executed on closures: the outcome,
    statistics and trace lines are those of iterating ``step``.  Identical
    inputs give identical outcomes.  The sink may raise StopRun to abort
    (halt kind "aborted").
    """
    if free_vars(p.head):
        raise MachineError("ill-formed process: head is not closed")
    terms = list(p.stack)
    if any(t.fv for t in terms):
        raise MachineError("ill-formed process: stack is not closed")
    memo: dict[int, tuple] = {}
    code, env = _compile(p.head, (), memo), None
    stack = None
    for t in reversed(terms):
        stack = ((_compile(t, (), memo), None), stack)
    rules = cfg.rules
    compiled_rules: dict[str, tuple] = {}
    sig, user_sink, tracing = cfg.sig, cfg.sink, cfg.trace
    limit = cfg.fuel if cfg.fuel is not None else math.inf
    stats = dict.fromkeys(_BUILTIN_RULES, 0)
    printed: list[int] = []
    fired: list[str] = []
    trace: list[str] = []
    # the tags as locals, for the loop below: it is the machine's hot path
    APP, LAM, VAR, NUM, KONT, CC, SUCC, REC, PRINT, STOP, USER = (
        _APP, _LAM, _VAR, _NUM, _KONT, _CC, _SUCC, _REC, _PRINT, _STOP, _USER
    )
    steps = 0
    while True:
        if steps >= limit:
            halt = Halt("fuel")
            break
        tag = code[0]
        if tag == APP:
            arg = code[5]
            if arg is None:
                arg = code[2]
                if arg[0] == VAR:
                    e, i = env, arg[1]
                    while i:
                        e, i = e[1], i - 1
                    arg = e[0]
                else:
                    arg = (arg, env)
            stack = (arg, stack)
            code = code[1]
            rule = "Push"
        elif tag == LAM:
            if stack is None:
                halt = _STUCK
                break
            env = (stack[0], env)
            stack = stack[1]
            code = code[1]
            rule = "Grab"
        elif tag == VAR:
            # looking a variable up is no step: the substitution machine
            # has the value in place already
            e, i = env, code[1]
            while i:
                e, i = e[1], i - 1
            code, env = e[0]
            continue
        elif tag == USER:
            name = code[1]
            compiled = compiled_rules.get(name)
            if compiled is None:
                compiled = compiled_rules[name] = tuple(
                    _compile_rule(r, memo) for r in rules.get(name, ())
                )
                for c in compiled:
                    stats.setdefault(c[0], 0)
            for c in compiled:
                state = _fire(c, stack, sig)
                if state is not None:
                    break
            else:
                halt = _STUCK
                break
            code, env, stack = state
            rule = c[0]
        elif tag == REC:
            if stack is None or stack[1] is None or stack[1][1] is None:
                halt = _STUCK
                break
            u0, (u1, (num, rest)) = stack
            if num[0][0] != NUM:
                halt = _STUCK
                break
            n = num[0][1]
            if n == 0:
                code, env = u0
                stack = rest
                rule = "rec-0"
            else:
                below = ((NUM, n - 1, None, 0, None), None)
                again = (_REC_AGAIN, (below, (u1, (u0, None))))
                code, env = u1
                stack = (below, (again, rest))
                rule = "rec-s"
        elif tag == SUCC:
            if stack is None or stack[0][0][0] != NUM or stack[1] is None:
                halt = _STUCK
                break
            num, (u, rest) = stack
            code, env = u
            stack = (((NUM, num[0][1] + 1, None, 0, None), None), rest)
            rule = "s"
        elif tag == KONT:
            if stack is None:
                halt = _STUCK
                break
            saved = code[1]
            code, env = stack[0]
            stack = saved
            rule = "Resume"
        elif tag == CC:
            if stack is None:
                halt = _STUCK
                break
            (code, env), rest = stack
            stack = (((KONT, rest, None, 0, None), None), rest)
            rule = "cc"
        elif tag == STOP:
            if stack is None or stack[0][0][0] != NUM:
                halt = _STUCK
            else:
                halt = Halt("final-stop", stack[0][0][1])
            break
        elif tag == PRINT:
            if stack is None or stack[0][0][0] != NUM or stack[1] is None:
                halt = _STUCK
                break
            n = stack[0][0][1]
            printed.append(n)
            if user_sink is not None:
                try:
                    user_sink(n)
                except StopRun:
                    halt = Halt("aborted")
                    break
            code, env = stack[1][0]
            stack = stack[1][1]
            rule = "print"
        else:  # a numeral in head position
            halt = _STUCK
            break
        steps += 1
        stats[rule] += 1
        if tracing:
            fired.append(rule)
            trace.append(f"step {steps}: {rule} | {print_process(_read_back(code, env, stack))}")
    return RunOutcome(
        final=_read_back(code, env, stack),
        halt=halt,
        steps=steps,
        stats={k: v for k, v in stats.items() if v},
        printed=tuple(printed),
        fired=tuple(fired),
        trace=tuple(trace),
    )
