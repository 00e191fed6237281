"""The Krivine abstract machine for the lambda-c calculus.

Deterministic small-step evaluation of processes under the base rules
(Push, Grab, Call/cc, Resume), the primitive-numeral rules (Succ, Rec-0,
Rec-S, Print) and user-registered instruction rules.

- ``run`` is the environment machine (Krivine, "A call-by-name
  lambda-calculus machine", 2007).  It compiles the process into nameless
  code once per run and each rule once, when it is registered
  (``InstructionRule.code``).  Grab pushes the stack top onto an
  environment of closures instead of rebuilding the body.  Closures are
  read back into terms only for the final process and continuations.
  User rules are matched and instantiated here alone, by ``_fire`` on the
  rule's compiled code.
- ``step`` is one stateless step on a process, for the simulation checker
  and trace lines (``iter_steps``), which need a ``Process`` after every
  step.  It applies the closed rule set by substitution, rebuilding only
  the path to the changed subterms, and hands a user instruction to
  ``run`` for one step.

A run owns its counters and print sink; configurations are immutable and
may be shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Union

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
    BUILTIN_INSTRUCTIONS,
    INSTRUCTION_ALIASES,
    App,
    HConst,
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
    fresh_name,
    substitute,
    trampoline,
)


RESERVED_INSTRUCTIONS = BUILTIN_INSTRUCTIONS | frozenset(INSTRUCTION_ALIASES)

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


class TExpr(Term):
    """Template-only node: a numeral computed from an arithmetic expression
    over the rule's numeral-bound variables.  Never appears in run states."""

    __slots__ = __match_args__ = ("expr",)

    def __init__(self, expr: ArithExpr) -> None:
        _texpr_expr(self, expr)
        _texpr_fv(self, frozenset())


_texpr_expr, _texpr_fv = TExpr.expr.__set__, TExpr.fv.__set__


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

    @cached_property
    def code(self) -> tuple:
        """The rule checked and compiled, on first use: ``_compile_rule``."""
        return _compile_rule(self)


def macro_rule(name: str, term: Term) -> InstructionRule:
    """A definitional rule: name * pi  >  term * pi."""
    return InstructionRule(name, (), term, ())


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class MachineConfig:
    rules: dict[str, tuple[InstructionRule, ...]] = field(default_factory=dict)
    sig: PrimRecSignature = field(default_factory=default_signature)
    fuel: int = DEFAULT_FUEL
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
    instructions being registered together (mutual recursion).  Each rule
    is checked and compiled here, once (``InstructionRule.code``)."""
    rules = tuple(rules)
    if name in RESERVED_INSTRUCTIONS:
        raise RuleError(f"{name!r} is a reserved instruction name")
    if name in cfg.rules:
        raise RuleError(f"instruction {name!r} is already defined")
    if not rules:
        raise RuleError(f"instruction {name!r} needs at least one rule")
    known = cfg.instructions | set(batch) | {name}
    for rule in rules:
        if rule.head != name:
            raise RuleError(f"rule head {rule.head!r} does not match instruction {name!r}")
        *_, exprs, insts = rule.code
        for iname in insts:
            if iname not in known:
                raise RuleError(f"{name}: unknown instruction {iname!r} in rule right-hand side")
        for e in exprs:
            for sym in expr_symbols(e):
                if sym not in cfg.sig:
                    raise RuleError(f"{name}: unknown function symbol {sym!r} in template")
    _check_shadowing(name, rules)
    return replace(cfg, rules={**cfg.rules, name: rules})


def register_batch(
    cfg: MachineConfig, definitions: dict[str, list[InstructionRule]]
) -> MachineConfig:
    """Register several mutually recursive instructions at once."""
    batch = set(definitions)
    for name, rules in definitions.items():
        cfg = register_instruction(cfg, name, rules, batch=batch)
    return cfg


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
    """One machine step; Halt(stuck) is a value, not an error.

    A user instruction in head position takes one step of ``run``, so its
    stack must be closed, as ``run`` requires: an open one raises
    ``MachineError``."""
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
    # a user instruction: one step of the environment machine, which fires
    # the compiled rule (``_fire``)
    outcome = run(Process(Inst(name), stack), replace(cfg, fuel=1))
    return Next(outcome.final, name) if outcome.steps else outcome.halt


def iter_steps(p: Process, cfg: MachineConfig) -> Iterator[Next]:
    """Each step's ``Next`` from ``p``, lazily, until ``step`` halts or
    after ``cfg.fuel`` steps: the steps that ``run`` takes."""
    k = 0
    while k < cfg.fuel:
        result = step(p, cfg)
        if isinstance(result, Halt):
            return
        yield result
        p, k = result.process, k + 1


# ---------------------------------------------------------------------------
# running


@dataclass(frozen=True)
class RunOutcome:
    final: Process
    halt: Halt
    steps: int
    stats: dict[str, int]
    printed: tuple[int, ...]

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
# A term is compiled into nameless code: tuples
#     (tag, a, b, need, src)     and, for an application, a sixth field
# where ``need`` is one more than the largest environment index the node
# reaches outside itself (0 when the node is closed) and ``src`` is the
# source term, which readback returns for every node that reaches no
# environment entry (None for numerals and continuations built at run
# time).  Per tag, ``a`` and ``b`` are:
#     _APP    function code, argument code; field 5 is the argument's
#             closure when the argument is closed, its environment index
#             when it is a variable, else None
#     _LAM    body code
#     _VAR    environment index (0 is the innermost binder)
#     _NUM    the numeral
#     _KONT   the saved stack
#     _CC, _SUCC, _REC, _PRINT, _STOP, _USER    the instruction's name
#     _PAIR, _FST, _SND, _Z0, _SC, _HREC        the HA2 constant's name
#     _FREE   the name of a free variable of an open HA2 term
#             (``HeadMachine`` binds each one to such a closure, so it is
#             never compiled)
# A closure is a pair (code, env).  Environments and stacks are linked
# lists (closure, rest) that end in None.  No stack or environment entry
# is a variable closure: Push stores the closure a variable points to.

(_APP, _LAM, _VAR, _NUM, _KONT, _CC, _SUCC, _REC, _PRINT, _STOP, _USER,
 _PAIR, _FST, _SND, _Z0, _SC, _HREC, _FREE) = range(18)

_INST_TAGS = {"cc": _CC, "s": _SUCC, "rec": _REC, "print": _PRINT, "stop": _STOP}

_HCONST_TAGS = {"pair": _PAIR, "fst": _FST, "snd": _SND, "z0": _Z0, "sc": _SC, "rec": _HREC}

_BUILTIN_RULES = ("Push", "Grab", "Resume", "cc", "s", "rec-0", "rec-s", "print")

_STUCK = Halt("stuck")


def _compile(t: Term, scope: tuple, memo: dict) -> tuple:
    """The code of ``t`` with the names in ``scope`` (outermost first) as its
    environment.  A scope entry is a variable name, or ``id(e)`` for a
    template's ``TExpr`` e.  ``memo`` maps ``id`` of closed terms to their
    code, so a closed term shared in the input is compiled once; the terms
    must outlive ``memo``.  Explicit-stack walk, one dispatch on the type
    per node: an App, Lam or Kont is left when the tag pushed above it is
    popped."""
    levels: dict = {}  # name -> depths of its binders, innermost last
    for depth, key in enumerate(scope):
        levels.setdefault(key, []).append(depth)
    depth = len(scope)
    out: list[tuple] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is int and todo:  # leave the App, Lam or Kont pushed under this tag
            tag, t = t, todo.pop()
            if tag == _APP:
                arg = out.pop()
                fn = out.pop()
                kind = arg[1] if arg[0] == _VAR else None if arg[3] else (arg, None)
                node = (_APP, fn, arg, max(fn[3], arg[3]), t, kind)
            elif tag == _LAM:
                body = out.pop()
                levels[t.binder].pop()
                depth -= 1
                node = (_LAM, body, None, max(body[3] - 1, 0), t)
            else:
                saved = None
                for _ in t.saved:
                    saved = ((out.pop(), None), saved)
                node = (_KONT, saved, None, 0, t)
            if not node[3]:
                memo[id(t)] = node
            out.append(node)
        elif (cls is App or cls is Lam or cls is Kont) and not t.fv and id(t) in memo:
            out.append(memo[id(t)])
        elif cls is App:
            todo += (t, _APP, t.arg, t.fn)
        elif cls is Var or cls is TExpr:
            bound = levels.get(t.name if cls is Var else id(t))
            if not bound:
                if cls is Var:
                    raise RuleError(f"unbound variable {t.name!r} in rule right-hand side")
                raise TypeError(f"not a term: {t!r}")
            i = depth - 1 - bound[-1]
            out.append((_VAR, i, None, i + 1, t))
        elif cls is Lam:
            levels.setdefault(t.binder, []).append(depth)
            depth += 1
            todo += (t, _LAM, t.body)
        elif cls is HConst:
            out.append((_HCONST_TAGS[t.kind], t.kind, None, 0, t))
        elif cls is Inst:
            out.append((_INST_TAGS.get(t.name, _USER), t.name, None, 0, t))
        elif cls is Numeral:
            out.append((_NUM, t.n, None, 0, t))
        elif cls is Kont:  # its saved stack is closed (``Kont``)
            todo += (t, _KONT, *reversed(list(t.saved)))
        else:
            raise TypeError(f"not a term: {t!r}")
    return out[0]


# rec u0 u1 #(n-1), over the environment #(n-1) . u1 . u0
_REC_AGAIN = _compile(
    App(App(App(Inst("rec"), Var("u0")), Var("u1")), Var("n")), ("u0", "u1", "n"), {}
)

_BIND_TERM, _BIND_NUMERAL, _LIT_NUMERAL = range(3)


def _compile_rule(rule: InstructionRule) -> tuple:
    """The checked rule's code: (patterns, guard, right-hand side code,
    right-hand stack codes in push order, template expressions, instruction
    names).  One scan over the templates checks their leaves and collects
    the expressions and names; ``_compile`` then rejects unbound variables.
    The templates' environment holds the pattern variables in order, then
    one numeral per ``TExpr``, in preorder over the head template and then
    the stack templates, last first.  What depends on the configuration
    (the instruction names, the expressions' function symbols) is checked
    by ``register_instruction``; guard symbols when the guard is
    evaluated."""
    name = rule.head
    patterns = []
    scope: list = []
    for pat in rule.patterns:
        if isinstance(pat, LitNumeral):
            if pat.n < 0:
                raise RuleError(f"{name}: negative numeral literal")
            patterns.append((_LIT_NUMERAL, pat.n))
        elif pat.var in scope:
            raise RuleError(f"{name}: duplicate pattern variable {pat.var!r}")
        else:
            scope.append(pat.var)
            patterns.append((_BIND_NUMERAL if isinstance(pat, BindNumeral) else _BIND_TERM, pat.var))
    num_vars = {pat.var for pat in rule.patterns if isinstance(pat, BindNumeral)}
    if rule.guard is not None:
        for e in (rule.guard.left, rule.guard.right):
            _check_numeral_only(e, num_vars, f"{name}: guard")
    templates = (rule.rhs_term, *reversed(rule.rhs_stack))
    exprs, insts = [], []
    todo = list(reversed(templates))
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo += (t.arg, t.fn)
        elif isinstance(t, Lam):
            todo.append(t.body)
        elif isinstance(t, TExpr):
            _check_numeral_only(t.expr, num_vars, f"{name}: template expression")
            exprs.append(t.expr)
            scope.append(id(t))
        elif isinstance(t, Inst):
            insts.append(t.name)
        elif isinstance(t, Kont):
            raise RuleError(f"{name}: continuation constants are not allowed in rules")
        elif not isinstance(t, (Var, Numeral)):
            raise TypeError(f"not a template term: {t!r}")
    memo: dict = {}
    try:
        head, *tail = (_compile(t, tuple(scope), memo) for t in templates)
    except RuleError as err:  # an unbound variable
        raise RuleError(f"{name}: {err}") from None
    return tuple(patterns), rule.guard, head, tuple(tail), tuple(exprs), tuple(insts)


def _check_numeral_only(e: ArithExpr, num_vars: set[str], what: str) -> None:
    loose = expr_free_vars(e) - num_vars
    if loose:
        raise RuleError(f"{what} mentions non-numeral variables {sorted(loose)}")


def _fire(compiled: tuple, stack, sig: PrimRecSignature) -> tuple | None:
    """(code, env, stack) after the compiled rule, or None if it does not
    match."""
    patterns, guard, head, tail, exprs, _ = compiled
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


def _read_back(code: tuple, env, stack) -> Process:
    """The process a machine state stands for."""
    reader = _Reader()
    return Process(trampoline(reader.code(code, env, 0, None)), trampoline(reader.stack(stack)))


class _Reader:
    """Read-back: terms from closures and stacks from stack cells.  Each
    environment entry is substituted into its code.  Each closure and
    stack cell is read back once per reader, so shared parts stay shared.

    With ``rename`` None the entries are closed, so no binder needs
    renaming, and code that reaches no entry reads back as its source
    term.  Open entries (an open HA2 term) need ``rename``: it maps each
    binder name that is free in some entry to a name free in none and
    bound nowhere in the input.  Then bound variables are read back by
    name, and only closed code as its source term.  The methods are
    walks for ``trampoline``."""

    __slots__ = ("rename", "memo")

    def __init__(self, rename: dict | None = None) -> None:
        self.rename = rename
        self.memo: dict[int, object] = {}  # id of a closure or stack cell -> its readback

    def code(self, code: tuple, env, depth: int, names):
        """The term of code under env, below depth binders read back
        already, whose names (open entries only) are a linked list."""
        tag, need = code[0], code[3]
        if need <= depth and (self.rename is None or not need):  # reaches no entry
            if code[4] is not None:
                return code[4]
            if tag == _NUM:
                return Numeral(code[1])
            return Kont((yield self.stack(code[1])))
        if tag == _VAR:
            i = code[1]
            if i < depth:  # bound by a binder read back above, open entries only
                while i:
                    names, i = names[1], i - 1
                return Var(names[0])
            e, i = env, i - depth
            while i:
                e, i = e[1], i - 1
            return (yield self.closure(e[0]))
        if tag == _LAM:
            binder = code[4].binder
            if self.rename is not None:
                binder = self.rename.get(binder, binder)
                names = (binder, names)
            return Lam(binder, (yield self.code(code[1], env, depth + 1, names)))
        return App((yield self.code(code[1], env, depth, names)), (yield self.code(code[2], env, depth, names)))

    def closure(self, closure: tuple):
        done = self.memo.get(id(closure))
        if done is None:
            done = self.memo[id(closure)] = yield self.code(closure[0], closure[1], 0, None)
        return done

    def stack(self, cell):
        """The stack from cell down to the first cell read back already."""
        cells = []
        while cell is not None and id(cell) not in self.memo:
            cells.append(cell)
            cell = cell[1]
        rest = BOTTOM if cell is None else self.memo[id(cell)]
        tops = []
        for c in cells:
            tops.append((yield self.closure(c[0])))
        for c, top in zip(reversed(cells), reversed(tops)):
            rest = self.memo[id(c)] = Push(top, rest)
        return rest


def run(p: Process, cfg: MachineConfig) -> RunOutcome:
    """Run the machine until halt or fuel exhaustion.

    The rules are those of ``step``, executed on closures: the outcome
    and statistics are those of iterating it (``iter_steps``).  Identical
    inputs give identical outcomes.  The sink may raise StopRun to abort
    (halt kind "aborted").

    Push and Grab finish their own steps and skip the statistics dict:
    Grab is counted in a local, Push as the steps no other rule took.
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
    sig, user_sink, limit = cfg.sig, cfg.sink, cfg.fuel
    stats = dict.fromkeys(_BUILTIN_RULES, 0)
    printed: list[int] = []
    # the tags as locals, for the loop below: it is the machine's hot path
    APP, LAM, VAR, NUM, KONT, CC, SUCC, REC, PRINT, STOP, USER = (
        _APP, _LAM, _VAR, _NUM, _KONT, _CC, _SUCC, _REC, _PRINT, _STOP, _USER
    )
    steps = grab = 0
    while True:
        if steps >= limit:
            halt = Halt("fuel")
            break
        tag = code[0]
        if tag == APP:
            arg = code[5]
            if arg is None:
                arg = (code[2], env)
            elif type(arg) is int:
                e = env
                while arg:
                    e, arg = e[1], arg - 1
                arg = e[0]
            stack = (arg, stack)
            code = code[1]
            steps += 1
            continue
        elif tag == LAM:
            if stack is None:
                halt = _STUCK
                break
            env = (stack[0], env)
            stack = stack[1]
            code = code[1]
            steps += 1
            grab += 1
            continue
        elif tag == VAR:
            # looking a variable up is no step: the substitution machine
            # has the value in place already
            e, i = env, code[1]
            while i:
                e, i = e[1], i - 1
            code, env = e[0]
            continue
        elif tag == USER:
            for r in rules.get(code[1], ()):
                state = _fire(r.code, stack, sig)
                if state is not None:
                    break
            else:
                halt = _STUCK
                break
            code, env, stack = state
            rule = r.head
            if rule not in stats:
                stats[rule] = 0
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
        elif tag == NUM:
            halt = _STUCK
            break
        else:  # an HA2 constant, which ``step`` does not take either
            raise TypeError(f"not a term: {code[4]!r}")
        steps += 1
        stats[rule] += 1
    stats["Grab"] += grab
    stats["Push"] += steps - sum(stats.values())
    return RunOutcome(
        final=_read_back(code, env, stack),
        halt=halt,
        steps=steps,
        stats={k: v for k, v in stats.items() if v},
        printed=tuple(printed),
    )


# ---------------------------------------------------------------------------
# weak-head reduction of HA2 terms on the same code, for ``ha2``
#
# An HA2 term is compiled once, with each free variable of an open term
# bound to a _FREE closure.  The state is the closure (code, env) in focus
# and a list of frames, innermost last:
#     an argument frame is the argument's closure (code, env);
#     _FST_FRAME and _SND_FRAME wait for a pair to project;
#     (None, u0, u1) waits for the numeral that rec u0 u1 recurses on.
# Only an argument frame has a first field that is not None, and only a
# recursor frame has three fields.  A variable argument is pushed as the
# closure it points to.
#
# Three chains of the loop are fused into one transition each.  Each
# leaves, at every fuel, the focus, environment, frames, HeadStop and step
# counts that the chain it replaces leaves:
#     APP over LAM binds the argument's closure, which is never pushed;
#     APP over fst or snd pushes the projection frame and focuses on the
#     argument's closure, then projects a literal pair as fst/snd does;
#     fst or snd whose argument is a literal pair ``pair a b`` (nested ones
#     too, as in ``fst (snd <a; <b; c>>)``) pops the projection frame and
#     focuses on the component's closure, for APP, APP, PAIR; PAIR still
#     projects a pair reached any other way.

HEAD_RULES = ("beta", "proj", "rec-0", "rec-s")

_FST_FRAME = (None, "fst")
_SND_FRAME = (None, "snd")

_H_REC, _H_FST, _H_SND = HConst("rec"), HConst("fst"), HConst("snd")

# u1 w (rec u0 u1 w), over the environment w . u1 . u0
_HREC_AGAIN = _compile(
    App(App(Var("u1"), Var("w")), App(App(App(_H_REC, Var("u0")), Var("u1")), Var("w"))),
    ("u0", "u1", "w"),
    {},
)


class HeadStop:
    """Where a head run stopped.  ``head`` is the kind of the HA2 constant
    in head position, None for anything else (an abstraction, a free
    variable).  ``args`` are the closures of the arguments it is applied
    to, first argument first, or None when it sits under a projection or a
    recursor instead."""

    __slots__ = ("code", "env", "frames", "steps", "blocked")

    def __init__(self, code: tuple, env, frames: list, steps: int, blocked: bool):
        self.code, self.env, self.frames = code, env, frames
        self.steps, self.blocked = steps, blocked

    @property
    def head(self) -> str | None:
        return self.code[1] if _PAIR <= self.code[0] <= _HREC else None

    @property
    def args(self) -> tuple | None:
        if any(frame[0] is None for frame in self.frames):
            return None
        return tuple(reversed(self.frames))


class HeadMachine:
    """Head weak reduction of one HA2 term on closures (Krivine's machine
    with the pair, projection and recursor rules).

    ``start`` is the term's closure.  ``run`` reduces a closure, ``start``
    or an argument closure of an earlier stop, and ``counts`` adds up the
    head steps per rule (HEAD_RULES) over every run.  ``read_back`` and
    ``term`` turn closures and stops back into terms; an open term is read
    back capture-avoiding, a binder that would capture one of its free
    variables renamed."""

    def __init__(self, t: Term):
        free = sorted(t.fv)
        env = None
        for name in free:
            env = (((_FREE, name, None, 0, Var(name)), None), env)
        self.start = (_compile(t, tuple(free), {}), env)
        self.counts = [0] * len(HEAD_RULES)
        self._rename = _capture_renaming(t) if free else None

    def head_steps(self) -> dict[str, int]:
        return dict(zip(HEAD_RULES, self.counts))

    def run(self, closure: tuple, fuel: int) -> HeadStop:
        """Head weak steps from ``closure``: the leftmost-outermost redex
        while one is in head position, descending into the strict argument
        of fst/snd/rec on demand, until head-blocked or after ``fuel``
        steps.  A beta step on an application, fst or snd on an
        application and a projection of a literal pair are one transition
        each (see the comment above ``HEAD_RULES``)."""
        APP, LAM, VAR, PAIR, FST, SND, Z0, SC, HREC = _APP, _LAM, _VAR, _PAIR, _FST, _SND, _Z0, _SC, _HREC
        code, env = closure
        frames: list = []
        steps = proj = rec0 = recs = 0
        while steps < fuel:
            tag = code[0]
            if tag == APP:
                arg = code[5]
                if arg is None:
                    arg = (code[2], env)
                elif type(arg) is int:
                    e = env
                    while arg:
                        e, arg = e[1], arg - 1
                    arg = e[0]
                fn = code[1]
                tag = fn[0]
                if tag == LAM:  # beta, with no argument frame
                    env = (arg, env)
                    code = fn[1]
                    steps += 1
                    continue
                code = fn
                if tag != FST and tag != SND:
                    frames.append(arg)
                    continue  # else fst or snd takes ``arg`` below
            elif tag == FST or tag == SND:
                if not frames or frames[-1][0] is None:
                    break
                arg = frames.pop()
            else:
                if tag == VAR:
                    e, i = env, code[1]
                    while i:
                        e, i = e[1], i - 1
                    code, env = e[0]
                elif tag == LAM:
                    if not frames or frames[-1][0] is None:
                        break
                    env = (frames.pop(), env)
                    code = code[1]
                    steps += 1
                elif tag == PAIR:
                    if (
                        len(frames) < 3
                        or frames[-1][0] is None
                        or frames[-2][0] is None
                        or (frames[-3] is not _FST_FRAME and frames[-3] is not _SND_FRAME)
                    ):
                        break
                    a = frames.pop()
                    b = frames.pop()
                    code, env = a if frames.pop() is _FST_FRAME else b
                    steps += 1
                    proj += 1
                elif tag == HREC:
                    if (
                        len(frames) < 3
                        or frames[-1][0] is None
                        or frames[-2][0] is None
                        or frames[-3][0] is None
                    ):
                        break
                    u0 = frames.pop()
                    u1 = frames.pop()
                    code, env = frames.pop()
                    frames.append((None, u0, u1))
                elif tag == Z0:
                    if not frames or len(frames[-1]) != 3:
                        break
                    code, env = frames.pop()[1]
                    steps += 1
                    rec0 += 1
                elif tag == SC:
                    if len(frames) < 2 or frames[-1][0] is None or len(frames[-2]) != 3:
                        break
                    w = frames.pop()
                    _, u0, u1 = frames.pop()
                    code, env = _HREC_AGAIN, (w, (u1, (u0, None)))
                    steps += 1
                    recs += 1
                else:  # a free variable, or a leaf that is not an HA2 term
                    break
                continue
            # fst or snd applied to ``arg``
            frames.append(_FST_FRAME if tag == FST else _SND_FRAME)
            code, env = arg
            while (  # a literal pair: APP, APP, PAIR in one pass
                code[0] == APP
                and code[1][0] == APP
                and code[1][1][0] == PAIR
                and frames
                and (frames[-1] is _FST_FRAME or frames[-1] is _SND_FRAME)
                and steps < fuel
            ):
                part = code[1] if frames.pop() is _FST_FRAME else code
                arg = part[5]
                if arg is None:
                    arg = (part[2], env)
                elif type(arg) is int:
                    e = env
                    while arg:
                        e, arg = e[1], arg - 1
                    arg = e[0]
                code, env = arg
                steps += 1
                proj += 1
        counts = self.counts
        counts[0] += steps - proj - rec0 - recs
        counts[1] += proj
        counts[2] += rec0
        counts[3] += recs
        return HeadStop(code, env, frames, steps, steps < fuel)

    def read_back(self, closure: tuple) -> Term:
        return trampoline(_Reader(self._rename).closure(closure))

    def term(self, stop: HeadStop) -> Term:
        """The term ``stop`` stands for: its head applied to, projected by
        or recursed on by its frames."""
        reader = _Reader(self._rename)
        head = trampoline(reader.code(stop.code, stop.env, 0, None))
        for frame in reversed(stop.frames):
            if frame[0] is not None:
                head = App(head, trampoline(reader.closure(frame)))
            elif len(frame) == 3:
                u0 = trampoline(reader.closure(frame[1]))
                head = App(App(App(_H_REC, u0), trampoline(reader.closure(frame[2]))), head)
            else:
                head = App(_H_FST if frame is _FST_FRAME else _H_SND, head)
        return head


def _capture_renaming(t: Term) -> dict[str, str]:
    """A name for each binder name that is free in ``t``, free nowhere and
    bound nowhere in ``t``: the rename map of ``_Reader``."""
    binders: set[str] = set()
    seen: set[int] = set()
    todo = [t]
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if isinstance(u, Lam):
            binders.add(u.binder)
            todo.append(u.body)
        elif isinstance(u, App):
            todo += (u.fn, u.arg)
    avoid = binders | t.fv
    rename = {}
    for name in sorted(t.fv & binders):
        rename[name] = fresh_name(name, avoid)
        avoid.add(rename[name])
    return rename
