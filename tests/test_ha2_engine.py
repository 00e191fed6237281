"""The head engine of lamc.ha2, an environment machine, against the
substitution head reducer (tests/ha2_reference.py): the same witness,
head steps per rule, blocked-or-fuel verdict and payload, and the same
``weak_head_reduce`` result.

Payloads of the closed realizer are DAGs with tens of thousands of shared
nodes, far more as trees, so they are compared with a walk that visits a
pair of shared nodes once, and never printed or compared with ``==``."""

import random

import pytest

from lamc import BOTTOM, Process, Push, cps_process
from lamc.demo import closed_realizer
from lamc.extract import sigma01_wrapper
from lamc.ha2 import (
    FST,
    SND,
    Z0,
    HEAD_RULES,
    Ha2Error,
    hnumeral,
    hpair,
    parse_hterm,
    read_witness,
    weak_head_reduce,
)
from lamc.machine import HeadMachine
from lamc.syntax import App, HConst, Lam, Var, app, lam

import ha2_reference as ref
from gen import numeral_program, projection_program, random_hterm


def same_term(a, b, alpha: bool = False) -> bool:
    """a and b node for node, with the same binder names, or with ``alpha``
    up to the names of binders.  A pair of nodes is compared once (with
    ``alpha``, a pair of closed nodes), so shared subterms cost nothing
    more.  Explicit-stack walk."""
    seen: set = set()
    todo = [(a, b, None, None)]
    while todo:
        x, y, bx, by = todo.pop()
        if not alpha or not (x.fv or y.fv):
            if x is y:
                continue
            if (id(x), id(y)) in seen:
                continue
            seen.add((id(x), id(y)))
        if type(x) is not type(y):
            return False
        if isinstance(x, Lam):
            if not alpha and x.binder != y.binder:
                return False
            todo.append((x.body, y.body, (x.binder, bx), (y.binder, by)))
        elif isinstance(x, App):
            todo += ((x.fn, y.fn, bx, by), (x.arg, y.arg, bx, by))
        elif isinstance(x, Var):
            if not alpha:
                if x.name != y.name:
                    return False
                continue
            # the de Bruijn index of each occurrence, or its name when free
            ix = iy = 0
            while bx is not None and bx[0] != x.name:
                bx, ix = bx[1], ix + 1
            while by is not None and by[0] != y.name:
                by, iy = by[1], iy + 1
            if (ix if bx is not None else x.name) != (iy if by is not None else y.name):
                return False
        elif isinstance(x, HConst):
            if x.kind != y.kind:
                return False
        else:
            raise TypeError(f"not an HA2 term: {x!r}")
    return True


def outcome(fn, *args):
    """fn(*args), or the Ha2Error it raises, as a comparable value."""
    try:
        return "ok", fn(*args)
    except Ha2Error as exc:
        return "error", str(exc)


def assert_same_witness(t, fuel):
    """read_witness agrees with the reference on t: verdict, witness, head
    steps per rule and payload."""
    kind, got = outcome(read_witness, t, fuel)
    kind_ref, want = outcome(ref.read_witness, t, fuel)
    assert kind == kind_ref
    if kind == "error" or want is None:
        assert got == want
        return
    n, payload, counts = want
    assert got is not None
    assert got.n == n and got.head_steps == counts
    assert same_term(got.payload, payload, alpha=bool(t.fv))


def assert_same_head_form(t, fuel):
    kind, got = outcome(weak_head_reduce, t, fuel)
    kind_ref, want = outcome(ref.weak_head_reduce, t, fuel)
    assert kind == kind_ref
    if kind == "error":
        assert got == want
        return
    assert got[1] == want[1]
    assert same_term(got[0], want[0], alpha=bool(t.fv))


def ht(src):
    return parse_hterm(src)


# ---------------------------------------------------------------------------
# the closed realizer of the minimum-principle demo


@pytest.mark.parametrize("c", range(2, 13))
def test_closed_realizer_sigma01(c):
    t, _ = closed_realizer(c)
    image = cps_process(Process(t, Push(sigma01_wrapper(), BOTTOM)))
    found = read_witness(image)
    n, payload, counts = ref.read_witness(image)
    assert found.n == n and found.head_steps == counts
    assert same_term(found.payload, payload)


def test_closed_realizer_fuel_verdict_at_the_boundary():
    t, _ = closed_realizer(2)
    image = cps_process(Process(t, Push(sigma01_wrapper(), BOTTOM)))
    total = sum(read_witness(image).head_steps.values())
    # the numeral's steps come out of the same fuel: one step short fails
    for fuel in (total, total + 1, 50, 3000):
        kind, got = outcome(read_witness, image, fuel)
        kind_ref, want = outcome(ref.read_witness, image, fuel)
        assert kind == kind_ref
        if kind == "error":
            assert got == want
        else:
            assert got.n == want[0]
    assert outcome(read_witness, image, total)[0] == "error"
    assert read_witness(image, total + 1).n == 1


# ---------------------------------------------------------------------------
# random, rec-heavy and projection-heavy terms


def test_random_hterms():
    rng = random.Random(606)
    for i in range(600):
        t = random_hterm(rng, rng.randint(2, 6), closed=i % 2 == 0)
        fuel = rng.choice((3, 20, 300))
        assert_same_head_form(t, fuel)
        assert_same_witness(t, fuel)
        assert_same_witness(hpair(t, t), fuel)
        assert_same_witness(App(Lam("v", hpair(Var("v"), t)), t), fuel)


def test_rec_heavy_terms():
    rng = random.Random(607)
    for _ in range(150):
        first = numeral_program(rng, rng.randint(1, 4))
        junk = numeral_program(rng, 2)
        for fuel in (10, 200, 100_000):
            assert_same_witness(hpair(first, junk), fuel)
            assert_same_witness(app(lam("q", Var("q")), hpair(first, junk)), fuel)
            assert_same_head_form(first, fuel)


def test_projection_heavy_terms():
    rng = random.Random(608)
    for _ in range(150):
        t = projection_program(rng, rng.randint(1, 5))
        for fuel in (5, 100, 100_000):
            assert_same_head_form(t, fuel)
            assert_same_witness(hpair(App(FST, hpair(hnumeral(1), t)), t), fuel)
            assert_same_witness(App(SND, hpair(t, hpair(hnumeral(2), t))), fuel)


def test_rec_on_stuck_arguments():
    for src in (
        r"rec z0 (\x y. y) (\z. z)",
        r"rec z0 (\x y. y) (sc)",
        r"rec z0 (\x y. y) w",
        r"rec z0 (\x y. y) (fst <sc; z0>) z0",
        r"fst (\x. x)",
        r"snd (rec z0 z0 z0)",
        r"pair z0",
        r"sc z0 z0",
    ):
        assert_same_head_form(ht(src), 100)
        assert_same_witness(ht(src), 100)


# ---------------------------------------------------------------------------
# open terms: capture-avoiding readback


@pytest.mark.parametrize(
    "src, free",
    [
        (r"(\x. \w. x) w", {"w"}),
        (r"(\x. \w. \w'. x w w') w", {"w"}),
        (r"(\x. \w. \w'. x w w') (w w')", {"w", "w'"}),
        (r"(\x y. \w. \w'. x y w w') w' w", {"w", "w'"}),
        (r"(\x. \x. x) x", set()),
        (r"(\y. \x. y x) x", {"x"}),
        (r"(\y. \x. \y. y x) x", set()),
        (r"(\x. <z0; \w. x w>) w", {"w"}),
    ],
)
def test_open_terms_force_capture(src, free):
    t = ht(src)
    assert_same_head_form(t, 100)
    result, _ = weak_head_reduce(t)
    assert result.fv == free
    assert_same_witness(t, 100)


def test_open_payload_is_read_back_capture_avoiding():
    found = read_witness(ht(r"(\x. <sc z0; \w. x w>) w"))
    assert found.n == 1
    payload = found.payload
    assert payload.fv == {"w"}
    assert same_term(payload, ht(r"\v. w v"), alpha=True)


# ---------------------------------------------------------------------------
# the Witness value


def test_witness_unpacks_and_indexes_as_a_pair():
    found = read_witness(hpair(hnumeral(2), ht(r"\x. x")))
    n, payload = found
    assert (n, payload) == (2, ht(r"\x. x"))
    assert found[0] == found[-2] == 2 and found[1] == found[-1] == payload
    assert len(found) == 2 and tuple(found) == (2, payload)
    with pytest.raises(IndexError):
        found[2]
    assert found.head_steps == dict.fromkeys(HEAD_RULES, 0)


def test_witness_compares_and_hashes_as_the_pair():
    found = read_witness(ht(r"(\y. <sc z0; \x. y x>) (\z. z)"))
    pair = (1, ht(r"\x. (\z. z) x"))
    assert found == pair and pair == found and found != (2, pair[1])
    assert found == read_witness(hpair(hnumeral(1), pair[1]))
    assert {pair: "found"}[found] == "found" and hash(found) == hash(pair)
    assert found != [1, pair[1]]


def test_payload_is_read_back_once_and_only_on_demand(monkeypatch):
    calls = []
    real = HeadMachine.read_back

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(HeadMachine, "read_back", counting)
    found = read_witness(ht(r"(\y. <sc z0; \x. y x>) (\z. z)"))
    assert found[0] == 1 and found.n == 1 and not calls
    payload = found.payload
    assert found[1] is payload and found.payload is payload and len(calls) == 1


# ---------------------------------------------------------------------------
# deep input at Python's default recursion limit

DEEP = 100_000


def _lambda_depth(t):
    depth = 0
    while isinstance(t, Lam):
        t, depth = t.body, depth + 1
    return depth, t


class TestDeepInput:
    def test_weak_head_reduce_nested_identities(self, default_recursion_limit):
        identity = lam("x", Var("x"))
        t = Z0
        for _ in range(DEEP):
            t = App(identity, t)
        result, steps = weak_head_reduce(t)
        assert result == Z0 and steps == DEEP

    def test_read_witness_deep_numeral(self, default_recursion_limit):
        found = read_witness(hpair(hnumeral(DEEP), Var("u")))
        assert found.n == DEEP and found.payload == Var("u")
        assert sum(found.head_steps.values()) == 0

    def test_deep_payload_is_read_back(self, default_recursion_limit):
        # the innermost y reaches the environment, so every binder is read back
        body = Var("y")
        for _ in range(DEEP):
            body = Lam("x", body)
        found = read_witness(App(Lam("y", hpair(Z0, body)), hnumeral(2)))
        assert found.n == 0
        depth, inner = _lambda_depth(found.payload)
        assert depth == DEEP and inner == hnumeral(2)

    def test_deep_open_payload_is_read_back(self, default_recursion_limit):
        body = Var("y")
        for _ in range(DEEP):
            body = Lam("w", body)
        found = read_witness(App(Lam("y", hpair(Z0, body)), Var("w")))
        depth, inner = _lambda_depth(found.payload)
        assert depth == DEEP and inner == Var("w")
        assert found.payload.fv == {"w"}
