"""Reference semantics for lamc.ha2, slow on purpose: the oracles the
fast code is compared with.

Substitution head reduction is the reference of the head engine.  It
contracts the head redex by substituting into the term at every step, and
it reports what ``weak_head_reduce`` and ``read_witness`` report, with the
head steps counted per rule.

The recursive redex searches are the reference of the one walk of
``lamc.ha2``: each strategy has its own search, each extends the position
at every node, and ``_replace_at_deep`` rebuilds the term path by path.
Their ``contract_redex`` takes terms apart with ``split_pair`` and ``==``
where ``lamc.ha2`` matches shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from lamc.ha2 import HEAD_RULES, REC, Z0, Ha2Error
from lamc.syntax import App, HConst, Lam, Term, app, split_pair, substitute


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


# ---------------------------------------------------------------------------
# recursive redex searches

Pos = tuple[int, ...]


def contract_redex(t: Term) -> Term | None:
    match t:
        case App(Lam(x, body), u):
            return substitute(body, x, u)
        case App(HConst("fst"), p):
            ab = split_pair(p)
            return ab[0] if ab else None
        case App(HConst("snd"), p):
            ab = split_pair(p)
            return ab[1] if ab else None
        case App(App(App(HConst("rec"), u0), u1), v):
            if v == Z0:
                return u0
            match v:
                case App(HConst("sc"), w):
                    return app(u1, w, app(REC, u0, u1, w))
            return None
    return None


def _replace_at_deep(t: Term, pos: Pos, new: Term) -> Term:
    """Replace the subterm at pos: 0 and 1 step into the function and the
    argument of an application, 2 into the body of an abstraction."""
    if not pos:
        return new
    head, rest = pos[0], pos[1:]
    if head == 2:
        assert isinstance(t, Lam)
        return Lam(t.binder, _replace_at_deep(t.body, rest, new))
    assert isinstance(t, App)
    if head == 0:
        return App(_replace_at_deep(t.fn, rest, new), t.arg)
    return App(t.fn, _replace_at_deep(t.arg, rest, new))


def weak_step(t: Term) -> tuple[Term, Pos] | None:
    found = _lo_weak(t, ())
    if found is None:
        return None
    pos, reduct = found
    return _replace_at_deep(t, pos, reduct), pos


def _lo_weak(t: Term, pos: Pos) -> tuple[Pos, Term] | None:
    r = contract_redex(t)
    if r is not None:
        return pos, r
    if isinstance(t, App):
        left = _lo_weak(t.fn, pos + (0,))
        if left is not None:
            return left
        return _lo_weak(t.arg, pos + (1,))
    return None


def enumerate_weak_redexes(t: Term) -> list[tuple[Pos, Term]]:
    out: list[tuple[Pos, Term]] = []

    def go(u: Term, pos: Pos) -> None:
        r = contract_redex(u)
        if r is not None:
            out.append((pos, _replace_at_deep(t, pos, r)))
        if isinstance(u, App):
            go(u.fn, pos + (0,))
            go(u.arg, pos + (1,))

    go(t, ())
    return out


def enumerate_inner_successors(t: Term) -> list[Term]:
    out: list[Term] = []

    def go(u: Term, pos: Pos, under: bool) -> None:
        if under:
            r = contract_redex(u)
            if r is not None:
                out.append(_replace_at_deep(t, pos, r))
        match u:
            case Lam(_, body):
                go(body, pos + (2,), True)
            case App(fn, arg):
                go(fn, pos + (0,), under)
                go(arg, pos + (1,), under)

    go(t, (), False)
    return out


def full_step(t: Term) -> Term | None:
    proj = _find_proj(t, (), deep=True)
    if proj is not None:
        return _replace_at_deep(t, *proj)
    found = _lo_full(t, ())
    if found is None:
        return None
    return _replace_at_deep(t, *found)


def _find_proj(t: Term, pos: Pos, deep: bool) -> tuple[Pos, Term] | None:
    match t:
        case App(HConst("fst" | "snd"), p) if split_pair(p) is not None:
            return pos, contract_redex(t)
        case App(fn, arg):
            left = _find_proj(fn, pos + (0,), deep)
            if left is not None:
                return left
            return _find_proj(arg, pos + (1,), deep)
        case Lam(_, body) if deep:
            return _find_proj(body, pos + (2,), deep)
    return None


def _lo_full(t: Term, pos: Pos) -> tuple[Pos, Term] | None:
    r = contract_redex(t)
    if r is not None:
        return pos, r
    match t:
        case App(fn, arg):
            left = _lo_full(fn, pos + (0,))
            if left is not None:
                return left
            return _lo_full(arg, pos + (1,))
        case Lam(_, body):
            inner = _lo_full(body, pos + (2,))
            if inner is not None:
                return inner
    return None


def proj_first_step(t: Term) -> Term | None:
    """The simulator's guided step: one weak step, contracting pair
    projections before anything else."""
    proj = _find_proj(t, (), deep=False)
    if proj is not None:
        return _replace_at_deep(t, *proj)
    nxt = weak_step(t)
    return nxt[0] if nxt is not None else None
