import random

import pytest

from lamc.ha2 import (
    EqResult,
    Ha2Error,
    enumerate_inner_successors,
    enumerate_weak_redexes,
    hnumeral,
    hpair,
    inner_equal,
    parse_hterm,
    read_witness,
    weak_head_reduce,
    weak_reduce,
    weak_step,
)
from lamc.syntax import App, Var, alpha_key, print_term, substitute

from gen import random_hterm


def ht(src):
    return parse_hterm(src)


class TestWeakStep:
    def test_beta(self):
        t, _ = weak_step(ht(r"(\x. x) z0"))
        assert t == ht("z0")

    def test_fst(self):
        t, _ = weak_step(ht("fst <a; b>"))
        assert t == ht("a")

    def test_snd(self):
        t, _ = weak_step(ht("snd <a; b>"))
        assert t == ht("b")

    def test_rec_zero(self):
        t, _ = weak_step(ht("rec u0 u1 z0"))
        assert t == ht("u0")

    def test_rec_succ(self):
        t, _ = weak_step(ht("rec u0 u1 (sc z0)"))
        assert t == ht("u1 z0 (rec u0 u1 z0)")

    def test_no_reduction_below_lambda(self):
        assert weak_step(ht(r"\x. (\y. y) x")) is None

    def test_reduction_in_argument_position(self):
        t, pos = weak_step(ht(r"a ((\y. y) b)"))
        assert t == ht("a b") and pos == (1,)

    def test_leftmost_outermost_priority(self):
        # the outer projection is contracted before the inner redex
        t, pos = weak_step(ht(r"snd <a; (\x. x) b>"))
        assert t == ht(r"(\x. x) b") and pos == ()


class TestWeakReduce:
    def test_identity_application(self):
        nf, steps = weak_reduce(ht(r"(\x. x) (\y. y)"))
        assert nf == ht(r"\y. y") and steps == 1

    def test_rec_base(self):
        nf, steps = weak_reduce(ht("rec a b z0"))
        assert nf == ht("a") and steps == 1

    def test_snd_with_inner_work(self):
        nf, steps = weak_reduce(ht(r"snd <a; (\x. x) b>"))
        assert nf == ht("b") and steps == 2

    def test_fuel(self):
        omega = ht(r"(\x. x x) (\x. x x)")
        with pytest.raises(Ha2Error):
            weak_reduce(omega, fuel=50)

    def test_weak_head_agrees_on_head_normal(self):
        t = ht(r"(\x. x) (\y. y) ((\z. z) a)")
        full, _ = weak_reduce(t)
        head, _ = weak_head_reduce(t)
        # head reduction stops earlier but the full reduct is reachable
        again, _ = weak_reduce(head)
        assert again == full


class TestInnerEqual:
    def test_inner_beta_under_lambda(self):
        assert inner_equal(ht(r"\x. (\y. y) x"), ht(r"\x. x")) is EqResult.EQUAL

    def test_reflexive(self):
        t = ht(r"\x. x (fst <a; b>)")
        assert inner_equal(t, t) is EqResult.EQUAL

    def test_distinct_normal_forms(self):
        assert inner_equal(ht(r"\x. x"), ht(r"\x. sc x")) is EqResult.NOT_EQUAL

    def test_top_level_redex_is_not_inner(self):
        # (\x.x) a = a needs a top-level weak step, not an inner one
        assert inner_equal(ht(r"(\x. x) a"), ht("a")) is EqResult.NOT_EQUAL

    def test_componentwise_application(self):
        t = App(ht(r"\x. (\y. y) x"), ht("z0"))
        u = App(ht(r"\x. x"), ht("z0"))
        assert inner_equal(t, u) is EqResult.EQUAL

    def test_unknown_on_divergent_bodies(self):
        omega = r"(\x. x x) (\x. x x)"
        a = ht(rf"\k. ({omega}) a")
        b = ht(rf"\k. ({omega}) b")
        assert inner_equal(a, b, fuel=300) is EqResult.UNKNOWN

    def test_eta_like_inner_join(self):
        # the Rec-S residual relates an application spine to its wrapped
        # form by inner steps only
        lhs = ht(r"\k1. rec u0 u1 (sc z0) k1")
        rhs = ht(r"\k. (\k2. rec u0 u1 (sc z0) k2) k")
        assert inner_equal(lhs, rhs) is EqResult.EQUAL

    def test_simulation_residual_pairs(self):
        # pairs differing in one lambda component that inner-reduces across
        lhs = hpair(hnumeral(1), hpair(ht(r"\k1. rec u0 u1 (sc z0) k1"), ht("z0")))
        rhs = hpair(hnumeral(1), hpair(ht(r"\k. (\w. rec u0 u1 (sc z0) w) k"), ht("z0")))
        assert inner_equal(lhs, rhs) is EqResult.EQUAL


class TestReadWitness:
    def test_literal_pair(self):
        n, payload = read_witness(hpair(hnumeral(2), Var("w")))
        assert n == 2 and payload == Var("w")

    def test_one_weak_step_first(self):
        t = App(ht(r"\x. x"), hpair(hnumeral(1), Var("w")))
        assert read_witness(t)[0] == 1

    def test_non_pair_returns_none(self):
        assert read_witness(ht(r"\x. x")) is None

    def test_divergent_payload_is_not_normalized(self):
        omega = ht(r"(\x. x x) (\x. x x)")
        n, payload = read_witness(hpair(hnumeral(3), omega))
        assert n == 3 and payload == omega

    def test_witness_inside_computation(self):
        t = ht(r"(\p. p) <rec z0 (\a b. sc b) (sc (sc z0)); junk>")
        assert read_witness(t)[0] == 2

    def test_fuel_exhaustion(self):
        omega = ht(r"(\x. x x) (\x. x x)")
        with pytest.raises(Ha2Error):
            read_witness(omega, fuel=30)


class TestPrinting:
    def test_pair_sugar(self):
        assert print_term(hpair(Var("a"), Var("b"))) == "<a; b>"

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            t = random_hterm(rng, 5)
            assert parse_hterm(print_term(t)) == t

    def test_constants(self):
        assert print_term(ht("rec z0 sc")) == "rec z0 sc"


# ---------------------------------------------------------------------------
# reduction-theory properties


def test_substitutivity_of_weak_reduction():
    # Lemma: t >w t' implies t{x:=u} >w t'{x:=u}
    rng = random.Random(21)
    checked = 0
    for _ in range(500):
        t = random_hterm(rng, 4)
        u = random_hterm(rng, 3, closed=True)
        redexes = enumerate_weak_redexes(t)
        if not redexes:
            continue
        _, t2 = rng.choice(redexes)
        checked += 1
        lhs = substitute(t, "a", u)
        rhs = substitute(t2, "a", u)
        reducts = {alpha_key(r) for _, r in enumerate_weak_redexes(lhs)}
        assert alpha_key(rhs) in reducts
    assert checked > 100


def _postponement_witness(t, target, weak_cap=8, inner_cap=8, width_cap=4000):
    """Search for a weak* then inner* path from t to target."""
    target_key = alpha_key(target)
    weak_layer = {alpha_key(t): t}
    seen_weak = set(weak_layer)
    for _ in range(weak_cap + 1):
        # inner closure from every weak-reachable point
        for start in weak_layer.values():
            frontier = [start]
            seen_inner = {alpha_key(start)}
            while frontier and len(seen_inner) < width_cap:
                cur = frontier.pop()
                if alpha_key(cur) == target_key:
                    return True
                for nxt in enumerate_inner_successors(cur):
                    k = alpha_key(nxt)
                    if k not in seen_inner:
                        seen_inner.add(k)
                        frontier.append(nxt)
            if target_key in seen_inner:
                return True
        nxt_layer = {}
        for cur in weak_layer.values():
            for _, r in enumerate_weak_redexes(cur):
                k = alpha_key(r)
                if k not in seen_weak:
                    seen_weak.add(k)
                    nxt_layer[k] = r
        if not nxt_layer:
            break
        weak_layer = nxt_layer
    return False


def test_postponement_of_inner_reductions():
    # Corollary: t >* u implies t >w* u0 >i* u for some u0
    rng = random.Random(22)
    checked = unknown = 0
    for _ in range(700):
        t = random_hterm(rng, 4)
        cur = t
        for _ in range(rng.randint(1, 3)):
            succs = [r for _, r in enumerate_weak_redexes(cur)]
            succs += enumerate_inner_successors(cur)
            if not succs:
                break
            cur = rng.choice(succs)
        if cur == t:
            continue
        checked += 1
        if not _postponement_witness(t, cur):
            unknown += 1
    assert checked > 120
    # the bounded search may miss long reorderings but must not miss many
    assert unknown <= checked * 0.05, f"{unknown}/{checked} searches inconclusive"


def test_confluence_of_weak_modulo_inner():
    rng = random.Random(23)
    checked = unknown = 0
    for _ in range(300):
        t = random_hterm(rng, 4)
        endpoints = []
        for _ in range(2):
            cur = t
            for _ in range(6):
                redexes = enumerate_weak_redexes(cur)
                if not redexes:
                    break
                _, cur = rng.choice(redexes)
            # continue to a weak normal form if cheap
            try:
                cur, _ = weak_reduce(cur, fuel=200)
            except Ha2Error:
                cur = None
            endpoints.append(cur)
        a, b = endpoints
        if a is None or b is None:
            unknown += 1
            continue
        checked += 1
        verdict = inner_equal(a, b, fuel=3000)
        if verdict is EqResult.UNKNOWN:
            unknown += 1
        else:
            assert verdict is EqResult.EQUAL, f"{print_term(a)} vs {print_term(b)}"
    assert checked > 150


def test_read_witness_agrees_with_full_weak_normalization():
    # the early-exit head strategy and full leftmost-outermost reduction
    # read the same witness whenever the latter terminates on a pair
    rng = random.Random(55)
    from lamc.ha2 import SC, hnumeral, hnumeral_value, hpair
    from lamc.syntax import Lam, split_pair

    def constructed(rng):
        # a pair whose first component computes a numeral through redexes
        n, j = rng.randint(0, 4), rng.randint(0, 3)
        first = App(Lam("v", Var("v")), hnumeral(n))
        for _ in range(j):
            first = App(SC, first)
        junk = random_hterm(rng, 3, closed=True)
        return App(Lam("w", hpair(first, junk)), hnumeral(0))

    checked = 0
    for i in range(400):
        t = constructed(rng) if i % 4 == 0 else random_hterm(rng, 5, closed=True)
        try:
            nf, _ = weak_reduce(t, fuel=300)
        except Ha2Error:
            continue
        ab = split_pair(nf)
        expected = None
        if ab is not None:
            first, _ = weak_reduce(ab[0], fuel=300)
            n = hnumeral_value(first)
            if n is not None:
                expected = n
        found = read_witness(t, fuel=5000)
        if expected is None:
            if found is not None:
                # the head strategy may succeed where the shape check was
                # too strict; accept only consistent answers
                assert ab is not None
            continue
        checked += 1
        assert found is not None and found[0] == expected
    assert checked > 80
