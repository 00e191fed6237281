"""Machine-checking the simulation of evaluation by weak reduction.

For every machine step t1 * pi1  >  t2 * pi2 under the closed rule set,
the CPS image t1-star applied to pi1-star weak-reduces (in one or more
steps) to t2-star applied to some u inner-equal to pi2-star; for every
rule except Rec-S the residual u is even syntactically pi2-star.  The
verifier exhibits such a reduction sequence: a guided deterministic chain
(projection-friendly) first, then a bounded breadth-first fallback.

A check memoises for its own duration only: one ``KeyCache`` keys every
term it compares (the chain, the seen-set, inner equality), so a term that
shares closed subterms with one keyed before costs only its new nodes, and
one ``CpsMemo`` translates the source and target processes, which share
most of their cells.  Along a run, each check's memo reads through to the
one before, so each process is translated once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .ha2 import (
    EqResult,
    contract_projection,
    enumerate_weak_redexes,
    first_redex,
    inner_equal,
    plug,
    weak_step,
)
from .machine import Halt, MachineConfig, Next, step
from .negtrans import CpsMemo, cps_process, cps_stack, cps_term
from .syntax import App, KeyCache, LamcError, Process, Term

# the cached key under the name through which perfbench traces it:
# hterm_key(keys, t) is keys.key(t)
hterm_key = KeyCache.key


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


def _proj_first_step(t: Term) -> Term | None:
    """One weak step, contracting pair projections before anything else."""
    found = first_redex(t, False, contract_projection)
    if found is not None:
        return plug(*found)
    nxt = weak_step(t)
    return nxt[0] if nxt is not None else None


def simulate_one_step(
    p: Process,
    cfg: MachineConfig | None = None,
    inner_fuel: int = 10_000,
    guided_steps: int = GUIDED_STEPS,
    bfs_cap: int = BFS_NODE_CAP,
    result: Next | Halt | None = None,
    memo: CpsMemo | None = None,
) -> OneStepReport:
    """Verify the one-step simulation for the machine step out of p;
    result is that step when the caller has already taken it, and memo
    the CPS memo of this check when the caller hands one on."""
    cfg = cfg if cfg is not None else MachineConfig()
    if result is None:
        result = step(p, cfg)
    if isinstance(result, Halt):
        raise SimulationError(f"process does not step (halt: {result.kind})")
    assert isinstance(result, Next)
    rule = result.rule
    p2 = result.process
    memo = memo if memo is not None else CpsMemo()
    keys = KeyCache()
    start = cps_process(p, memo)
    target_fn_key = hterm_key(keys, cps_term(p2.head, memo))
    target_stack = cps_stack(p2.stack, memo)
    target_stack_key = hterm_key(keys, target_stack)
    out_of_fuel = f"inner equality ran out of fuel (inner_fuel {inner_fuel})"

    def check(t: Term, k: int) -> OneStepReport | None:
        """The report when t, reached in k weak steps, is t2-star applied to
        a residual that is pi2-star or not known to differ from it; None
        when t is not (t2-star u) or u is not inner-equal to pi2-star."""
        if not (isinstance(t, App) and hterm_key(keys, t.fn) == target_fn_key):
            return None
        if hterm_key(keys, t.arg) == target_stack_key:
            return OneStepReport(rule, True, k, True, None)
        verdict = inner_equal(t.arg, target_stack, inner_fuel, keys)
        if verdict is EqResult.EQUAL:
            return OneStepReport(rule, True, k, False, verdict)
        if verdict is EqResult.UNKNOWN:
            return OneStepReport(rule, None, k, False, verdict, out_of_fuel)
        return None

    # guided deterministic chain; a shape hit with the wrong residual
    # keeps reducing
    current = start
    for k in range(1, guided_steps + 1):
        current = _proj_first_step(current)
        if current is None:
            break
        report = check(current, k)
        if report is not None:
            return report

    # breadth-first fallback over all weak reducts
    seen = {hterm_key(keys, start)}
    frontier: deque[tuple[Term, int]] = deque([(start, 0)])
    expanded = 0
    saw_unknown = False
    while frontier and expanded < bfs_cap:
        t, depth = frontier.popleft()
        expanded += 1
        for _, reduct in enumerate_weak_redexes(t):
            key = hterm_key(keys, reduct)
            if key in seen:
                continue
            seen.add(key)
            report = check(reduct, depth + 1)
            if report is not None:
                if report.verified:
                    return report
                saw_unknown = True
            frontier.append((reduct, depth + 1))
    if frontier or saw_unknown:
        spent = []
        if frontier:
            spent.append(
                f"search budget exhausted (guided_steps {guided_steps}, bfs_cap {bfs_cap})"
            )
        if saw_unknown:
            spent.append(out_of_fuel)
        return OneStepReport(rule, None, 0, False, EqResult.UNKNOWN, "; ".join(spent))
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
    cfg = cfg if cfg is not None else MachineConfig()
    reports: list[OneStepReport] = []
    machine_steps = 0
    halt_kind = "fuel"
    memo = None
    while machine_steps < fuel:
        result = step(p, cfg)
        if isinstance(result, Halt):
            halt_kind = result.kind
            break
        # this step's source is the previous step's target
        memo = CpsMemo(memo)
        reports.append(
            simulate_one_step(p, cfg, inner_fuel=inner_fuel, result=result, memo=memo)
        )
        p = result.process
        machine_steps += 1
    return RunSimulationReport(machine_steps, tuple(reports), halt_kind)
