"""The substitution machine run: the reference semantics of lamc.machine.run.

It iterates ``step``, which substitutes into the body at every Grab, and
records what ``run`` reports.  It is slow on purpose and serves only as the
oracle the environment machine is compared with.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from lamc.machine import Halt, MachineConfig, RunOutcome, StopRun, step
from lamc.syntax import Process, print_process


def run_by_steps(p: Process, cfg: MachineConfig) -> RunOutcome:
    """Iterate ``step`` until halt or fuel exhaustion."""
    stats: Counter[str] = Counter()
    printed: list[int] = []
    fired: list[str] = []
    trace: list[str] = []
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
