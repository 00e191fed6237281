"""The intuitionistic term language and its reduction theory.

Terms are pure lambda-terms enriched with the constants pair, fst, snd,
z0 (zero), sc (successor) and rec.  Weak reduction contracts beta, rec and
projection redexes anywhere except under an abstraction; inner reduction
is weak reduction under at least one abstraction.  The bounded equality
check for the inner-equivalence relation and the witness reader live here.
"""

from __future__ import annotations

from enum import Enum

from .machine import HEAD_RULES, HeadMachine
from .syntax import (
    HA2_CONSTANTS,
    App,
    HConst,
    Lam,
    LamcError,
    Term,
    Var,
    _TermParser,
    _TokenStream,
    _lex,
    alpha_key,
    app,
    free_vars,
    fresh_name,
    print_term,
    split_pair,
    substitute,
)


class Ha2Error(LamcError):
    pass


# The HA2 term language is the lambda-c term classes plus the HConst leaf;
# these are its historical names.
HTerm = Term
HVar = Var
HLam = Lam
HApp = App
hterm_key = alpha_key
hterm_free_vars = free_vars
hsubstitute = substitute
print_hterm = print_term

PAIR_C = HConst("pair")
FST = HConst("fst")
SND = HConst("snd")
Z0 = HConst("z0")
SC = HConst("sc")
REC = HConst("rec")


def hpair(a: Term, b: Term) -> Term:
    return app(PAIR_C, a, b)


def hnumeral(n: int) -> Term:
    """The numeral spine sc (sc (... z0)) as genuine nested applications."""
    t: Term = Z0
    for _ in range(n):
        t = App(SC, t)
    return t


def hnumeral_value(t: Term) -> int | None:
    """Inverse of hnumeral on exact spines."""
    n = 0
    while True:
        match t:
            case App(HConst("sc"), inner):
                n += 1
                t = inner
            case HConst("z0"):
                return n
            case _:
                return None


# ---------------------------------------------------------------------------
# weak reduction


def contract_redex(t: Term) -> Term | None:
    """Contract t when t itself is a beta, projection or rec redex."""
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


Pos = tuple[int, ...]


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
    """Contract the leftmost-outermost weak redex; None when weak-normal.

    Weak reduction never goes below an abstraction.
    """
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
    """All one-step weak reducts (full nondeterministic relation)."""
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


def weak_reduce(t: Term, fuel: int = 10_000) -> tuple[Term, int]:
    """Iterate leftmost-outermost weak steps to weak-normal form or fuel."""
    steps = 0
    while steps < fuel:
        nxt = weak_step(t)
        if nxt is None:
            return t, steps
        t = nxt[0]
        steps += 1
    raise Ha2Error(f"weak_reduce: fuel exhausted after {fuel} steps")


# ---------------------------------------------------------------------------
# inner reduction (weak steps under at least one lambda)


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
            case _:
                pass

    go(t, (), False)
    return out


def full_step(t: Term) -> Term | None:
    """One full (weak-or-inner) reduction step, projection-friendly order.

    Projection redexes whose argument is already a pair are contracted
    first (they are needed and never duplicate work); otherwise the
    leftmost-outermost redex, descending into abstraction bodies.
    """
    proj = _find_proj(t, (), deep=True)
    if proj is not None:
        pos, r = proj
        return _replace_at_deep(t, pos, r)
    found = _lo_full(t, ())
    if found is None:
        return None
    pos, r = found
    return _replace_at_deep(t, pos, r)


def _find_proj(t: Term, pos: Pos, deep: bool) -> tuple[Pos, Term] | None:
    """The leftmost-outermost projection redex whose argument is already a
    pair, with its reduct; below abstractions only when deep."""
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


# ---------------------------------------------------------------------------
# bounded inner equality


class EqResult(Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not-equal"
    UNKNOWN = "unknown"


def inner_equal(t: Term, u: Term, fuel: int = 10_000) -> EqResult:
    """Bounded check of the inner-equivalence relation.

    Inner reduction never changes the top constructor of a term, so the
    relation decomposes: applications are compared componentwise, while
    abstraction bodies are related by full conversion, decided here by a
    bounded joinability search (projection-friendly normal order).  EQUAL
    verdicts always come from an exhibited join; UNKNOWN is first-class.
    """
    budget = [fuel]
    return _ieq(t, u, budget)


def _ieq(t: Term, u: Term, budget: list[int]) -> EqResult:
    if alpha_key(t) == alpha_key(u):
        return EqResult.EQUAL
    if budget[0] <= 0:
        return EqResult.UNKNOWN
    match t, u:
        case (App(f1, a1), App(f2, a2)):
            left = _ieq(f1, f2, budget)
            if left is EqResult.NOT_EQUAL:
                return left
            right = _ieq(a1, a2, budget)
            if right is EqResult.NOT_EQUAL:
                return right
            if left is EqResult.EQUAL and right is EqResult.EQUAL:
                return EqResult.EQUAL
            return EqResult.UNKNOWN
        case (Lam(x1, b1), Lam(x2, b2)):
            z = fresh_name("v", free_vars(b1) | free_vars(b2) | {x1, x2})
            b1 = substitute(b1, x1, Var(z))
            b2 = substitute(b2, x2, Var(z))
            return _join_full(b1, b2, budget)
        case _:
            # inner reduction never changes the top constructor, so terms
            # with different shapes (or different constants/variables) are
            # definitely not related
            return EqResult.NOT_EQUAL


def _join_full(a: Term, b: Term, budget: list[int]) -> EqResult:
    """Joinability under full reduction via two normalizing chains."""
    seen_a = {alpha_key(a)}
    seen_b = {alpha_key(b)}
    cur_a, cur_b = a, b
    done_a = done_b = False
    while budget[0] > 0:
        if alpha_key(cur_a) in seen_b or alpha_key(cur_b) in seen_a:
            return EqResult.EQUAL
        if done_a and done_b:
            return (
                EqResult.EQUAL
                if alpha_key(cur_a) == alpha_key(cur_b)
                else EqResult.NOT_EQUAL
            )
        if not done_a:
            budget[0] -= 1
            nxt = full_step(cur_a)
            if nxt is None:
                done_a = True
            else:
                cur_a = nxt
                seen_a.add(alpha_key(cur_a))
        if not done_b:
            budget[0] -= 1
            nxt = full_step(cur_b)
            if nxt is None:
                done_b = True
            else:
                cur_b = nxt
                seen_b.add(alpha_key(cur_b))
    return EqResult.UNKNOWN


# ---------------------------------------------------------------------------
# weak-head evaluation, on the environment machine of ``machine``


def weak_head_reduce(t: Term, fuel: int = 1_000_000) -> tuple[Term, int]:
    """Reduce to head-blocked form (head steps are leftmost-outermost)."""
    machine = HeadMachine(t)
    stop = machine.run(machine.start, fuel)
    if not stop.blocked:
        raise Ha2Error(f"weak head reduction: fuel exhausted after {fuel} steps")
    return machine.term(stop), stop.steps


class Witness:
    """The pair <s^n z0; u> that ``read_witness`` found.  It unpacks,
    indexes and compares as the tuple (n, payload).  ``head_steps`` counts
    the head steps per rule (HEAD_RULES) over the whole read.  The payload
    is read back from its closure on first access, then kept; comparing or
    hashing a Witness reads it back too."""

    __slots__ = ("n", "head_steps", "_payload", "_closure", "_machine")

    def __init__(self, n: int, head_steps: dict[str, int], closure: tuple, machine: HeadMachine):
        self.n = n
        self.head_steps = head_steps
        self._payload: Term | None = None
        self._closure: tuple | None = closure
        self._machine: HeadMachine | None = machine

    @property
    def payload(self) -> Term:
        if self._closure is not None:
            self._payload = self._machine.read_back(self._closure)
            self._closure = self._machine = None
        return self._payload

    def __len__(self) -> int:
        return 2

    def __getitem__(self, i):
        if i == 0 or i == -2:
            return self.n
        return (self.n, self.payload)[i]

    def __iter__(self):
        yield self.n
        yield self.payload

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Witness, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Witness(n={self.n}, head_steps={self.head_steps})"


def read_witness(t: Term, fuel: int = 2_000_000) -> Witness | None:
    """Head-reduce ``t`` toward a pair <s^n z0; u>: its Witness on
    success, None when the head-normal form is not such a pair.

    Reduction stops as soon as the pair shape appears, so junk in the
    payload is never normalized, and the payload is read back only when
    it is asked for.  An open ``t`` is read back capture-avoiding: a
    binder that would capture a free variable of ``t`` is renamed.  The
    fuel bounds the head steps of the whole read, the numeral's included.
    """
    machine = HeadMachine(t)
    stop = machine.run(machine.start, fuel)
    if not stop.blocked:
        raise Ha2Error(f"read_witness: fuel exhausted after {fuel} steps")
    args = stop.args
    if stop.head != "pair" or args is None or len(args) != 2:
        return None
    first, payload = args
    budget = fuel - stop.steps
    n = 0
    while True:
        stop = machine.run(first, budget)
        if not stop.blocked:
            raise Ha2Error("read_witness: fuel exhausted while reading the numeral")
        budget -= stop.steps
        args = stop.args
        if stop.head == "z0" and args == ():
            return Witness(n, machine.head_steps(), payload, machine)
        if stop.head == "sc" and args is not None and len(args) == 1:
            n += 1
            (first,) = args
            continue
        return None


# ---------------------------------------------------------------------------
# surface syntax: the lambda-c term grammar without numerals and
# continuations, plus the constants and the pair sugar <t; u>


class _HTermParser(_TermParser):
    def atom(self, bound: frozenset[str], optional: bool = False) -> Term | None:
        tok = self.ts.peek()
        if tok.kind == "ident":
            self.ts.next()
            if tok.text in HA2_CONSTANTS and tok.text not in bound:
                return HConst(tok.text)
            return Var(tok.text)
        if tok.text == "<":
            self.ts.next()
            a = self.term(bound)
            self.ts.expect(";")
            b = self.term(bound)
            self.ts.expect(">")
            return hpair(a, b)
        if tok.kind == "numlit":
            if optional:
                return None
            raise self.ts.error("expected a term")
        return super().atom(bound, optional)


def parse_hterm(text: str) -> Term:
    p = _HTermParser(_TokenStream(_lex(text)), frozenset(), strict=False)
    return p.ts.finish(p.term(frozenset()))
