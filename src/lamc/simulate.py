"""Machine-checking the simulation of evaluation by weak reduction.

For every machine step t1 * pi1  >  t2 * pi2 under the closed rule set,
the CPS image t1-star applied to pi1-star weak-reduces (in one or more
steps) to t2-star applied to some u inner-equal to pi2-star; for every
rule except Rec-S the residual u is even syntactically pi2-star.  The
verifier exhibits such a reduction sequence: a guided deterministic chain
(projection-friendly) first, then a bounded breadth-first fallback.

A candidate is compared with the translated target by ``==``, one walk
over both that takes the same closed object on both sides as equal at
once: the source and target images share most of their closed cells, so
a match costs little more than its new nodes.  A check memoises for its
own duration only: one ``KeyCache`` keys the breadth-first seen-set, so
a term that shares closed subterms with one keyed before costs only its
new nodes, and one ``CpsMemo`` translates the source and target
processes.  Along a run, each check's memo reads through to the one
before, so each process is translated once.

The search budgets are the module constants ``INNER_FUEL`` (imported from
``ha2``), ``GUIDED_STEPS`` and ``BFS_NODE_CAP``, read when a check runs;
a report that runs out of one names it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .ha2 import (
    INNER_FUEL,
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


GUIDED_STEPS = 400  # steps of the guided chain
SIMULATE_FUEL = 40  # machine steps a simulation run checks by default
BFS_NODE_CAP = 20_000  # terms the breadth-first fallback expands

# every check steps under the closed rule set
_CLOSED = MachineConfig()


@dataclass(frozen=True)
class OneStepReport:
    rule: str
    verified: bool | None  # None = inconclusive (fuel)
    weak_steps: int
    syntactic: bool
    inner: EqResult | None
    message: str = ""


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
    return plug(*found) if found is not None else weak_step(t)


def simulate_one_step(
    p: Process, result: Next | Halt | None = None, memo: CpsMemo | None = None
) -> OneStepReport:
    """Verify the one-step simulation for the machine step out of p under
    the closed rule set; result is that step when the caller has already
    taken it, and memo the CPS memo of this check when the caller hands
    one on."""
    if result is None:
        result = step(p, _CLOSED)
    if isinstance(result, Halt):
        raise SimulationError(f"process does not step (halt: {result.kind})")
    assert isinstance(result, Next)
    rule = result.rule
    p2 = result.process
    memo = memo if memo is not None else CpsMemo()
    start = cps_process(p, memo)
    target_fn = cps_term(p2.head, memo)
    target_stack = cps_stack(p2.stack, memo)
    out_of_fuel = f"inner equality ran out of fuel (inner_fuel {INNER_FUEL})"

    def check(t: Term, k: int) -> OneStepReport | None:
        """The report when t, reached in k weak steps, is t2-star applied to
        a residual that is pi2-star or not known to differ from it; None
        when t is not (t2-star u) or u is not inner-equal to pi2-star."""
        if not (isinstance(t, App) and t.fn == target_fn):
            return None
        if t.arg == target_stack:
            return OneStepReport(rule, True, k, True, None)
        verdict = inner_equal(t.arg, target_stack, INNER_FUEL)
        if verdict is EqResult.EQUAL:
            return OneStepReport(rule, True, k, False, verdict)
        if verdict is EqResult.UNKNOWN:
            return OneStepReport(rule, None, k, False, verdict, out_of_fuel)
        return None

    # guided deterministic chain; a shape hit with the wrong residual
    # keeps reducing
    current = start
    for k in range(1, GUIDED_STEPS + 1):
        current = _proj_first_step(current)
        if current is None:
            break
        report = check(current, k)
        if report is not None:
            return report

    # breadth-first fallback over all weak reducts
    keys = KeyCache()
    seen = {hterm_key(keys, start)}
    frontier: deque[tuple[Term, int]] = deque([(start, 0)])
    expanded = 0
    saw_unknown = False
    while frontier and expanded < BFS_NODE_CAP:
        t, depth = frontier.popleft()
        expanded += 1
        for reduct in enumerate_weak_redexes(t):
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
                f"search budget exhausted (guided_steps {GUIDED_STEPS}, bfs_cap {BFS_NODE_CAP})"
            )
        if saw_unknown:
            spent.append(out_of_fuel)
        return OneStepReport(rule, None, 0, False, EqResult.UNKNOWN, "; ".join(spent))
    return OneStepReport(
        rule, False, 0, False, None, "no weak reduction reaches the translated target"
    )


def simulate_run(p: Process, fuel: int = SIMULATE_FUEL) -> RunSimulationReport:
    """Chain one-step simulation along a machine run of at most fuel steps."""
    reports: list[OneStepReport] = []
    machine_steps = 0
    halt_kind = "fuel"
    memo = None
    while machine_steps < fuel:
        result = step(p, _CLOSED)
        if isinstance(result, Halt):
            halt_kind = result.kind
            break
        # this step's source is the previous step's target
        memo = CpsMemo(memo)
        reports.append(simulate_one_step(p, result, memo))
        p = result.process
        machine_steps += 1
    return RunSimulationReport(machine_steps, tuple(reports), halt_kind)
