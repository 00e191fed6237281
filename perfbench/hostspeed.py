"""Host-speed correction for the benchmark's timings.

On a shared host the same Python code can run 30-100% slower for stretches
of seconds to minutes while other tenants load the machine; process CPU
time slows just as much as wall time.  Medians cannot remove a slowdown
that lasts a whole run, so every timed interval is paired with a probe: a
fixed kernel timed right before and right after it.  The interval is
scaled by REFERENCE_S / probe, which reports it in *reference-host
seconds*: the time it would have taken on a host where the kernel takes
REFERENCE_S.

The kernel is the benchmark's own and shares no code with lamc, so a
change to lamc cannot move it; it has lamc's instruction mix (frozen
slotted dataclasses, structural pattern matching, recursive substitution,
a Krivine-style loop), so it slows down with lamc when the host does.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

# A round figure inside the kernel's range on the two-vCPU Xeon host the
# benchmark was built on (0.30 ms lightly loaded, 0.58 ms under load).  It
# only fixes the unit: a value in reference-host seconds equals the
# measured one when the probe reads this.
REFERENCE_S = 0.00040


@dataclass(frozen=True, slots=True)
class _Var:
    name: str


@dataclass(frozen=True, slots=True)
class _Lam:
    binder: str
    body: object


@dataclass(frozen=True, slots=True)
class _App:
    fn: object
    arg: object


def _subst(t, x: str, u):
    match t:
        case _Var(name):
            return u if name == x else t
        case _Lam(y, body):
            return t if y == x else _Lam(y, _subst(body, x, u))
        case _App(fn, arg):
            return _App(_subst(fn, x, u), _subst(arg, x, u))


def _church(n: int):
    body = _Var("z")
    for _ in range(n):
        body = _App(_Var("s"), body)
    return _Lam("s", _Lam("z", body))


_MUL = _Lam("m", _Lam("n", _Lam("s", _App(_Var("m"), _App(_Var("n"), _Var("s"))))))


def kernel() -> int:
    """Head-reduce (6 * 7) I I with Church numerals; 118 steps."""
    t = _App(_App(_App(_App(_MUL, _church(6)), _church(7)), _Lam("q", _Var("q"))), _Lam("w", _Var("w")))
    stack, steps = [], 0
    while True:
        match t:
            case _App(fn, arg):
                stack.append(arg)
                t = fn
            case _Lam(x, body) if stack:
                t = _subst(body, x, stack.pop())
            case _:
                return steps
        steps += 1


def probe() -> float:
    """The kernel's time now: the faster of two runs, in seconds."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Times intervals in reference-host seconds; keeps the raw times too."""

    def __init__(self):
        self.last_probe = probe()
        self.raw_total = 0.0
        self.corrected_total = 0.0

    def time(self, fn):
        """Run fn(); return (its result, raw seconds, corrected seconds)."""
        before = self.last_probe
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0
        self.last_probe = probe()
        corrected = raw * REFERENCE_S / ((before + self.last_probe) / 2)
        self.raw_total += raw
        self.corrected_total += corrected
        return result, raw, corrected
