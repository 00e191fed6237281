"""The substitution machine: the reference semantics of lamc.machine.run.

``step`` fires user instruction rules by substitution, matching the
patterns and instantiating the templates on terms, and defers to
``lamc.machine.step`` for the closed rule set.  ``run_by_steps`` iterates
it and records what ``run`` reports, and traced, the rule log and the
trace lines of ``lamc run --trace``.  None of the rule firing here is code
that ``lamc`` ships, which fires rules on compiled code (``_fire``).  It is
slow on purpose and serves only as the oracle the environment machine is
compared with.

``compile`` is the compile walk ``lamc.machine._compile`` replaced: an
``isinstance`` chain that looks every node up in the memo and leaves an
App, Lam or Kont through a ``(t, False)`` entry.  The new walk must give
the same code tuples and share the same closed code.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, replace

from lamc import machine
from lamc.arith import PrimRecSignature, eval_expr
from lamc.machine import (
    BindNumeral,
    BindTerm,
    Halt,
    InstructionRule,
    LitNumeral,
    MachineConfig,
    Next,
    RunOutcome,
    StepResult,
    StopRun,
    TExpr,
)
from lamc.machine import (
    _APP,
    _HCONST_TAGS,
    _INST_TAGS,
    _KONT,
    _LAM,
    _NUM,
    _USER,
    _VAR,
    RuleError,
)
from lamc.syntax import (
    App,
    HConst,
    Inst,
    Kont,
    Lam,
    Numeral,
    Process,
    Push,
    Stack,
    Term,
    Var,
    print_process,
)

_COMPARE = {"=": operator.eq, "<=": operator.le, "<": operator.lt}


def step(p: Process, cfg: MachineConfig) -> StepResult:
    """One machine step: a user instruction's rules fire here, in
    declaration order; every other step is ``lamc.machine.step``."""
    if isinstance(p.head, Inst) and p.head.name in cfg.rules:
        for rule in cfg.rules[p.head.name]:
            result = _try_rule(rule, p.stack, cfg)
            if result is not None:
                return result
        return Halt("stuck")
    return machine.step(p, cfg)


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
    guard = rule.guard
    if guard is not None:
        a = eval_expr(guard.left, nums, cfg.sig)
        b = eval_expr(guard.right, nums, cfg.sig)
        if not _COMPARE[guard.op](a, b):
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


@dataclass(frozen=True)
class ReferenceOutcome(RunOutcome):
    fired: tuple[str, ...] = ()  # rule log, populated when traced
    trace: tuple[str, ...] = ()


def run_by_steps(p: Process, cfg: MachineConfig, trace: bool = False) -> ReferenceOutcome:
    """Iterate ``step`` until halt or fuel exhaustion."""
    stats: Counter[str] = Counter()
    printed: list[int] = []
    fired: list[str] = []
    lines: list[str] = []
    user_sink = cfg.sink

    def sink(n: int) -> None:
        printed.append(n)
        if user_sink is not None:
            user_sink(n)

    running = replace(cfg, sink=sink)
    steps = 0
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
        if trace:
            fired.append(result.rule)
            lines.append(f"step {steps}: {result.rule} | {print_process(p)}")
    return ReferenceOutcome(
        final=p,
        halt=halt,
        steps=steps,
        stats=dict(stats),
        printed=tuple(printed),
        fired=tuple(fired),
        trace=tuple(lines),
    )


def compile(t: Term, scope: tuple, memo: dict) -> tuple:
    """The code of ``t`` with the names in ``scope`` (outermost first) as its
    environment, as ``lamc.machine._compile`` gives it.  A scope entry is
    a variable name, or ``id(e)`` for a template's ``TExpr`` e.  ``memo``
    maps ``id`` of closed terms to their code."""
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
            elif isinstance(t, HConst):
                out.append((_HCONST_TAGS[t.kind], t.kind, None, 0, t))
            elif isinstance(t, Kont):  # its saved stack is closed (``Kont``)
                todo.append((t, False))
                todo += ((u, True) for u in reversed(list(t.saved)))
            else:
                raise TypeError(f"not a term: {t!r}")
            continue
        if isinstance(t, App):
            arg = out.pop()
            fn = out.pop()
            if arg[0] == _VAR:
                kind = arg[1]
            elif arg[3]:
                kind = None
            else:
                kind = (arg, None)
            node = (_APP, fn, arg, max(fn[3], arg[3]), t, kind)
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
