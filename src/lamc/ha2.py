"""The intuitionistic term language and its reduction theory.

Terms are pure lambda-terms enriched with the constants pair, fst, snd,
z0 (zero), sc (successor) and rec.  Weak reduction contracts beta, rec and
projection redexes anywhere except under an abstraction; inner reduction
is weak reduction under at least one abstraction.  The bounded equality
check for the inner-equivalence relation and the witness reader live here.

Every redex search is one explicit-stack walk in leftmost-outermost
order that yields each subterm with its context, a zipper (Huet, JFP
1997), in which ``plug`` puts the reduct back; the strategies differ only
in going below abstractions or not and in what they contract.
"""

from __future__ import annotations

from enum import Enum

from .machine import HEAD_RULES, HeadMachine
from .syntax import (
    HA2_CONSTANTS,
    App,
    HConst,
    KeyCache,
    Lam,
    LamcError,
    Term,
    Var,
    _TermParser,
    _TokenStream,
    _lex,
    app,
    free_vars,
    fresh_name,
    substitute,
)


class Ha2Error(LamcError):
    pass


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
        case App(HConst("fst"), App(App(HConst("pair"), a), _)):
            return a
        case App(HConst("snd"), App(App(HConst("pair"), _), b)):
            return b
        case App(App(App(HConst("rec"), u0), u1), v):
            match v:
                case HConst("z0"):
                    return u0
                case App(HConst("sc"), w):
                    return app(u1, w, app(REC, u0, u1, w))
    return None


Pos = tuple[int, ...]


def _walk(t: Term, deep: bool):
    """Every subterm of t in leftmost-outermost preorder (function before
    argument), below abstractions only when deep, as (subterm, context,
    under a lambda).  A context is None at the root, else the zipper frame
    (i, parent, context of parent): the subterm is the function (i = 0),
    the argument (1) or the abstraction body (2) of parent.  Explicit
    stack, so the depth of t is bounded by memory only."""
    todo = [(t, None, False)]
    while todo:
        u, ctx, under = todo.pop()
        yield u, ctx, under
        if isinstance(u, App):
            todo.append((u.arg, (1, u, ctx), under))
            todo.append((u.fn, (0, u, ctx), under))
        elif deep and isinstance(u, Lam):
            todo.append((u.body, (2, u, ctx), True))


def plug(ctx, t: Term) -> Term:
    """The whole term with t in the hole of the context ctx."""
    while ctx is not None:
        i, parent, ctx = ctx
        if i == 0:
            t = App(t, parent.arg)
        elif i == 1:
            t = App(parent.fn, t)
        else:
            t = Lam(parent.binder, t)
    return t


def _pos(ctx) -> Pos:
    path = []
    while ctx is not None:
        path.append(ctx[0])
        ctx = ctx[2]
    return tuple(reversed(path))


def first_redex(t: Term, deep: bool, contract):
    """(context, reduct) of the first subterm in walk order that contract
    reduces; None when there is none."""
    for u, ctx, _ in _walk(t, deep):
        r = contract(u)
        if r is not None:
            return ctx, r
    return None


def contract_projection(t: Term) -> Term | None:
    """Contract t when t is a projection whose argument is already a pair."""
    match t:
        case App(HConst("fst" | "snd"), _):
            return contract_redex(t)
    return None


def weak_step(t: Term) -> tuple[Term, Pos] | None:
    """Contract the leftmost-outermost weak redex; None when weak-normal.

    Weak reduction never goes below an abstraction.
    """
    found = first_redex(t, False, contract_redex)
    if found is None:
        return None
    ctx, r = found
    return plug(ctx, r), _pos(ctx)


def enumerate_weak_redexes(t: Term) -> list[tuple[Pos, Term]]:
    """All one-step weak reducts (full nondeterministic relation)."""
    return [
        (_pos(ctx), plug(ctx, r))
        for u, ctx, _ in _walk(t, False)
        if (r := contract_redex(u)) is not None
    ]


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
    return [
        plug(ctx, r)
        for u, ctx, under in _walk(t, True)
        if under and (r := contract_redex(u)) is not None
    ]


def full_step(t: Term) -> Term | None:
    """One full (weak-or-inner) reduction step, projection-friendly order.

    Projection redexes whose argument is already a pair are contracted
    first (they are needed and never duplicate work); otherwise the
    leftmost-outermost redex, descending into abstraction bodies.
    """
    found = first_redex(t, True, contract_projection) or first_redex(t, True, contract_redex)
    return None if found is None else plug(*found)


# ---------------------------------------------------------------------------
# bounded inner equality


class EqResult(Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not-equal"
    UNKNOWN = "unknown"


def inner_equal(
    t: Term, u: Term, fuel: int = 10_000, keys: KeyCache | None = None
) -> EqResult:
    """Bounded check of the inner-equivalence relation.

    Inner reduction never changes the top constructor of a term, so the
    relation decomposes: applications are compared componentwise, while
    abstraction bodies are related by full conversion, decided here by a
    bounded joinability search (projection-friendly normal order).  EQUAL
    verdicts always come from an exhibited join; UNKNOWN is first-class.
    Terms are compared through ``keys``, a fresh cache when none is given.
    """
    budget = [fuel]
    return _ieq(t, u, budget, keys if keys is not None else KeyCache())


def _ieq(t: Term, u: Term, budget: list[int], keys: KeyCache) -> EqResult:
    if keys.key(t) == keys.key(u):
        return EqResult.EQUAL
    if budget[0] <= 0:
        return EqResult.UNKNOWN
    match t, u:
        case (App(f1, a1), App(f2, a2)):
            left = _ieq(f1, f2, budget, keys)
            if left is EqResult.NOT_EQUAL:
                return left
            right = _ieq(a1, a2, budget, keys)
            if right is EqResult.NOT_EQUAL:
                return right
            if left is EqResult.EQUAL and right is EqResult.EQUAL:
                return EqResult.EQUAL
            return EqResult.UNKNOWN
        case (Lam(x1, b1), Lam(x2, b2)):
            z = fresh_name("v", free_vars(b1) | free_vars(b2) | {x1, x2})
            b1 = substitute(b1, x1, Var(z))
            b2 = substitute(b2, x2, Var(z))
            return _join_full(b1, b2, budget, keys)
        case _:
            # inner reduction never changes the top constructor, so terms
            # with different shapes (or different constants/variables) are
            # definitely not related
            return EqResult.NOT_EQUAL


def _join_full(a: Term, b: Term, budget: list[int], keys: KeyCache) -> EqResult:
    """Joinability under full reduction via two normalizing chains."""
    cur_a, cur_b = a, b
    key_a, key_b = keys.key(a), keys.key(b)
    seen_a, seen_b = {key_a}, {key_b}
    done_a = done_b = False
    while budget[0] > 0:
        if key_a in seen_b or key_b in seen_a:
            return EqResult.EQUAL
        if done_a and done_b:
            # key_b is in seen_b, so equal keys were caught just above
            return EqResult.NOT_EQUAL
        if not done_a:
            budget[0] -= 1
            nxt = full_step(cur_a)
            if nxt is None:
                done_a = True
            else:
                cur_a, key_a = nxt, keys.key(nxt)
                seen_a.add(key_a)
        if not done_b:
            budget[0] -= 1
            nxt = full_step(cur_b)
            if nxt is None:
                done_b = True
            else:
                cur_b, key_b = nxt, keys.key(nxt)
                seen_b.add(key_b)
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
