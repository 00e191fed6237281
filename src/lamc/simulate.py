"""Machine-checking the simulation of evaluation by weak reduction.

For every machine step t1 * pi1  >  t2 * pi2 under the closed rule set,
the CPS image t1-star applied to pi1-star weak-reduces (in one or more
steps) to t2-star applied to some u inner-equal to pi2-star; for every
rule except Rec-S the residual u is even syntactically pi2-star.  The
verifier exhibits such a reduction sequence: a guided deterministic chain
(projection-friendly) first, then a bounded breadth-first fallback.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .ha2 import (
    EqResult,
    _find_proj,
    _replace_at_deep,
    enumerate_weak_redexes,
    hterm_key,
    inner_equal,
    weak_step,
)
from .machine import Halt, MachineConfig, Next, step
from .negtrans import cps_process, cps_stack, cps_term
from .syntax import App, LamcError, Process, Term


class SimulationError(LamcError):
    pass


GUIDED_STEPS = 400
BFS_NODE_CAP = 20_000


@dataclass(frozen=True)
class OneStepReport:
    rule: str
    verified: bool | None  # None = inconclusive (fuel)
    weak_steps: int
    syntactic: bool
    inner: EqResult | None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.verified is True


@dataclass(frozen=True)
class RunSimulationReport:
    machine_steps: int
    reports: tuple[OneStepReport, ...]
    halt_kind: str

    @property
    def verified(self) -> int:
        return sum(1 for r in self.reports if r.verified is True)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reports if r.verified is False)

    @property
    def inconclusive(self) -> int:
        return sum(1 for r in self.reports if r.verified is None)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def closed_config(fuel: int | None = None) -> MachineConfig:
    """The closed-world configuration: builtin rules only."""
    return MachineConfig() if fuel is None else MachineConfig(fuel=fuel)


def _proj_first_step(t: Term) -> Term | None:
    """One weak step, contracting pair projections before anything else."""
    proj = _find_proj(t, (), deep=False)
    if proj is not None:
        return _replace_at_deep(t, *proj)
    nxt = weak_step(t)
    return nxt[0] if nxt is not None else None


def simulate_one_step(
    p: Process,
    cfg: MachineConfig | None = None,
    inner_fuel: int = 10_000,
    guided_steps: int = GUIDED_STEPS,
    bfs_cap: int = BFS_NODE_CAP,
    result: Next | Halt | None = None,
) -> OneStepReport:
    """Verify the one-step simulation for the machine step out of p;
    result is that step when the caller has already taken it."""
    cfg = cfg if cfg is not None else closed_config()
    if result is None:
        result = step(p, cfg)
    if isinstance(result, Halt):
        raise SimulationError(f"process does not step (halt: {result.kind})")
    assert isinstance(result, Next)
    rule = result.rule
    p2 = result.process
    start = cps_process(p)
    target_fn_key = hterm_key(cps_term(p2.head))
    target_stack = cps_stack(p2.stack)
    target_stack_key = hterm_key(target_stack)

    def classify(t: Term):
        """The residual u when t is (t2-star u), else None."""
        if isinstance(t, App) and hterm_key(t.fn) == target_fn_key:
            return t.arg
        return None

    # guided deterministic chain
    current = start
    for k in range(1, guided_steps + 1):
        nxt = _proj_first_step(current)
        if nxt is None:
            break
        current = nxt
        residual = classify(current)
        if residual is None:
            continue
        if hterm_key(residual) == target_stack_key:
            return OneStepReport(rule, True, k, True, None)
        verdict = inner_equal(residual, target_stack, inner_fuel)
        if verdict is EqResult.EQUAL:
            return OneStepReport(rule, True, k, False, verdict)
        if verdict is EqResult.UNKNOWN:
            return OneStepReport(rule, None, k, False, verdict, "inner equality ran out of fuel")
        # NOT_EQUAL: a shape hit with the wrong residual; keep reducing

    # breadth-first fallback over all weak reducts
    seen = {hterm_key(start)}
    frontier: deque[tuple[Term, int]] = deque([(start, 0)])
    expanded = 0
    saw_unknown = False
    while frontier and expanded < bfs_cap:
        t, depth = frontier.popleft()
        expanded += 1
        for _, reduct in enumerate_weak_redexes(t):
            key = hterm_key(reduct)
            if key in seen:
                continue
            seen.add(key)
            residual = classify(reduct)
            if residual is not None:
                if hterm_key(residual) == target_stack_key:
                    return OneStepReport(rule, True, depth + 1, True, None)
                verdict = inner_equal(residual, target_stack, inner_fuel)
                if verdict is EqResult.EQUAL:
                    return OneStepReport(rule, True, depth + 1, False, verdict)
                if verdict is EqResult.UNKNOWN:
                    saw_unknown = True
            frontier.append((reduct, depth + 1))
    if frontier or saw_unknown:
        return OneStepReport(
            rule, None, 0, False, EqResult.UNKNOWN, "search budget exhausted"
        )
    return OneStepReport(
        rule, False, 0, False, None, "no weak reduction reaches the translated target"
    )


def simulate_run(
    p: Process,
    fuel: int = 40,
    cfg: MachineConfig | None = None,
    inner_fuel: int = 10_000,
) -> RunSimulationReport:
    """Chain one-step simulation along a machine run of at most fuel steps."""
    cfg = cfg if cfg is not None else closed_config()
    reports: list[OneStepReport] = []
    machine_steps = 0
    halt_kind = "fuel"
    while machine_steps < fuel:
        result = step(p, cfg)
        if isinstance(result, Halt):
            halt_kind = result.kind
            break
        reports.append(simulate_one_step(p, cfg, inner_fuel=inner_fuel, result=result))
        p = result.process
        machine_steps += 1
    return RunSimulationReport(machine_steps, tuple(reports), halt_kind)
