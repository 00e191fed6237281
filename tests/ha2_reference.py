"""Substitution head reduction: the reference semantics of the head engine
in lamc.ha2.

It contracts the head redex by substituting into the term at every step,
and it reports what ``weak_head_reduce`` and ``read_witness`` report,
with the head steps counted per rule.  It is slow on purpose and serves
only as the oracle the environment machine is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass

from lamc.ha2 import HEAD_RULES, REC, Ha2Error
from lamc.syntax import App, HConst, Lam, Term, app, substitute


@dataclass(frozen=True)
class HeadState:
    focus: Term
    frames: tuple
    steps: int
    blocked: bool
    counts: dict


def head_run(t: Term, fuel: int) -> HeadState:
    """Iterate head weak steps (the leftmost-outermost redex while one
    exists in head position), descending into strict argument positions of
    fst/snd/rec on demand.  Stops when head-blocked or out of fuel."""
    focus = t
    frames: list = []
    counts = dict.fromkeys(HEAD_RULES, 0)
    steps = 0
    while steps < fuel:
        rule = None
        match focus:
            case App(fn, arg):
                frames.append(("arg", arg))
                focus = fn
            case Lam(x, body) if frames and frames[-1][0] == "arg":
                _, u = frames.pop()
                focus = substitute(body, x, u)
                rule = "beta"
            case HConst("fst" | "snd") if frames and frames[-1][0] == "arg":
                kind = focus.kind
                _, u = frames.pop()
                frames.append((kind,))
                focus = u
            case HConst("pair") if (
                len(frames) >= 3
                and frames[-1][0] == "arg"
                and frames[-2][0] == "arg"
                and frames[-3][0] in ("fst", "snd")
            ):
                _, a = frames.pop()
                _, b = frames.pop()
                which = frames.pop()[0]
                focus = a if which == "fst" else b
                rule = "proj"
            case HConst("rec") if (
                len(frames) >= 3
                and frames[-1][0] == "arg"
                and frames[-2][0] == "arg"
                and frames[-3][0] == "arg"
            ):
                _, u0 = frames.pop()
                _, u1 = frames.pop()
                _, v = frames.pop()
                frames.append(("recarg", u0, u1))
                focus = v
            case HConst("z0") if frames and frames[-1][0] == "recarg":
                _, u0, _ = frames.pop()
                focus = u0
                rule = "rec-0"
            case HConst("sc") if (
                len(frames) >= 2 and frames[-1][0] == "arg" and frames[-2][0] == "recarg"
            ):
                _, w = frames.pop()
                _, u0, u1 = frames.pop()
                focus = app(u1, w, app(REC, u0, u1, w))
                rule = "rec-s"
            case _:
                break
        if rule is not None:
            steps += 1
            counts[rule] += 1
    return HeadState(focus, tuple(frames), steps, steps < fuel, counts)


def rebuild(state: HeadState) -> Term:
    t = state.focus
    for frame in reversed(state.frames):
        if frame[0] == "arg":
            t = App(t, frame[1])
        elif frame[0] in ("fst", "snd"):
            t = App(HConst(frame[0]), t)
        else:
            _, u0, u1 = frame
            t = app(REC, u0, u1, t)
    return t


def weak_head_reduce(t: Term, fuel: int = 1_000_000) -> tuple[Term, int]:
    state = head_run(t, fuel)
    if not state.blocked:
        raise Ha2Error(f"weak head reduction: fuel exhausted after {fuel} steps")
    return rebuild(state), state.steps


def read_witness(t: Term, fuel: int = 2_000_000) -> tuple[int, Term, dict] | None:
    """(n, payload, head steps per rule) for a pair <s^n z0; u>, else None."""
    state = head_run(t, fuel)
    if not state.blocked:
        raise Ha2Error(f"read_witness: fuel exhausted after {fuel} steps")
    counts = dict(state.counts)
    frames = state.frames
    if not (
        isinstance(state.focus, HConst)
        and state.focus.kind == "pair"
        and len(frames) == 2
        and frames[0][0] == "arg"
        and frames[1][0] == "arg"
    ):
        return None
    first, payload = frames[1][1], frames[0][1]
    budget = fuel - state.steps
    n = 0
    while True:
        st = head_run(first, budget)
        if not st.blocked:
            raise Ha2Error("read_witness: fuel exhausted while reading the numeral")
        budget -= st.steps
        for rule, k in st.counts.items():
            counts[rule] += k
        if isinstance(st.focus, HConst) and st.focus.kind == "z0" and not st.frames:
            return n, payload, counts
        if (
            isinstance(st.focus, HConst)
            and st.focus.kind == "sc"
            and len(st.frames) == 1
            and st.frames[0][0] == "arg"
        ):
            n += 1
            first = st.frames[0][1]
            continue
        return None
