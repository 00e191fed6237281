"""The one redex walk of lamc.ha2 against the recursive searches it
replaced (tests/ha2_reference.py): the same reducts, node for node with
the same binder names (compared by ``repr``), at the same positions and
in the same order, for weak steps, their enumeration, inner successors,
full steps and the simulator's projection-first step.  Then every walk on
terms 10^5 deep at Python's default recursion limit."""

import random

import pytest

import lamc.simulate
from lamc.ha2 import (
    FST,
    Z0,
    enumerate_inner_successors,
    enumerate_weak_redexes,
    full_step,
    hpair,
    weak_step,
)
from lamc.syntax import App, HConst, Lam, Var

import ha2_reference as ref
from gen import numeral_program, projection_program, random_hterm


def same_steps(t):
    """Every walk and its reference agree on t; returns t's weak and full
    successors to continue from."""
    got, want = weak_step(t), ref.weak_step(t)
    assert repr(got) == repr(want)
    assert repr(enumerate_weak_redexes(t)) == repr(ref.enumerate_weak_redexes(t))
    assert repr(enumerate_inner_successors(t)) == repr(ref.enumerate_inner_successors(t))
    full = full_step(t)
    assert repr(full) == repr(ref.full_step(t))
    assert repr(lamc.simulate._proj_first_step(t)) == repr(ref.proj_first_step(t))
    return (got[0] if got else None), full


def same_along(t, steps):
    """same_steps on t and along its first weak and full reduction steps."""
    weak = full = t
    for _ in range(steps):
        if weak is not None:
            weak, _ = same_steps(weak)
        if full is not None:
            _, full = same_steps(full)


def test_random_hterms():
    rng = random.Random(707)
    for i in range(600):
        same_along(random_hterm(rng, rng.randint(1, 6), closed=i % 2 == 0), 3)


def test_rec_heavy_terms():
    rng = random.Random(708)
    for _ in range(40):
        first = numeral_program(rng, rng.randint(1, 3))
        same_along(hpair(first, Lam("x", first)), 4)


def test_projection_heavy_terms():
    rng = random.Random(709)
    for _ in range(40):
        t = projection_program(rng, rng.randint(1, 4))
        same_along(App(Lam("q", t), t), 4)


# ---------------------------------------------------------------------------
# deep input at Python's default recursion limit: results are checked by
# position length and node count, since ``==`` and printing recurse

DEEP = 100_000


def nodes(t) -> int:
    n, todo = 0, [t]
    while todo:
        u = todo.pop()
        n += 1
        if isinstance(u, App):
            todo += (u.fn, u.arg)
        elif isinstance(u, Lam):
            todo.append(u.body)
    return n


def spine(bottom):
    """bottom applied to DEEP arguments: a left application spine."""
    t = bottom
    for _ in range(DEEP):
        t = App(t, Var("a"))
    return t


def chain(inner):
    """inner under DEEP abstractions."""
    t = inner
    for _ in range(DEEP):
        t = Lam("x", t)
    return t


def bottom_of(t, step):
    for _ in range(DEEP):
        t = step(t)
    return t


BETA = App(Lam("y", Var("y")), Var("x"))  # contracts to x
PROJ = App(FST, hpair(Var("x"), Z0))  # contracts to x, before any other redex


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepInput:
    @pytest.mark.parametrize("redex", [BETA, PROJ], ids=["beta", "proj"])
    def test_weak_walks_on_a_spine(self, redex):
        t = spine(redex)
        size = nodes(t) - (nodes(redex) - 1)  # of the reduct
        reduct, pos = weak_step(t)
        assert pos == (0,) * DEEP and nodes(reduct) == size
        assert isinstance(bottom_of(reduct, lambda u: u.fn), Var)
        ((pos, reduct),) = enumerate_weak_redexes(t)
        assert len(pos) == DEEP and nodes(reduct) == size
        reduct = lamc.simulate._proj_first_step(t)
        assert nodes(reduct) == size
        assert isinstance(bottom_of(reduct, lambda u: u.fn), Var)

    @pytest.mark.parametrize("redex", [BETA, PROJ], ids=["beta", "proj"])
    def test_full_walks_in_a_lambda_chain(self, redex):
        # an outer beta redex around the inner redex: leftmost-outermost
        # takes the outer one first, projection-first the projection
        t = chain(App(Lam("y", App(redex, Var("y"))), HConst("z0")))
        size = nodes(t)
        outer, inner = enumerate_inner_successors(t)
        assert nodes(outer) == size - 3
        assert nodes(inner) == size - (nodes(redex) - 1)
        assert isinstance(bottom_of(outer, lambda u: u.body), App)
        reduct = full_step(t)
        assert nodes(reduct) == size - (nodes(redex) - 1 if redex is PROJ else 3)
        assert isinstance(bottom_of(reduct, lambda u: u.body), App)
        assert weak_step(t) is None
