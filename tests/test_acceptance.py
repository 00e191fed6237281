"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; plain pytest shows them only on failure.
"""

import pathlib
import random
import time

import pytest

from lamc.arith import EApp, Equation, Pattern, default_signature, eval_expr, expr_of_nat
from lamc.demo import build_script, closed_realizer, instruction_config, oracle_guesses
from lamc.extract import (
    check_independence,
    extract_kamikaze,
    extract_sigma01,
    sigma01_refuter,
    sigma01_wrapper,
)
from lamc.formulas import (
    All1,
    PredVar,
    normalize_formula_ha2,
    subst_expr1,
    subst_pred,
)
from lamc.ha2 import (
    EqResult,
    enumerate_inner_successors,
    enumerate_weak_redexes,
    inner_equal,
    read_witness,
    weak_reduce,
    Ha2Error,
)
from lamc.machine import MachineConfig, run
from lamc.negtrans import ReturnFormula, cps_process, formula_bot, formula_nn
from lamc.script import run_script
from lamc.simulate import simulate_run
from lamc.stdlib import compile_primrec, computes_value
from lamc.syntax import (
    Inst,
    Numeral,
    Process,
    Push,
    alpha_key,
    parse_stack,
    parse_term,
    stack_of,
    substitute,
)

from gen import (
    random_expr,
    random_hterm,
    random_pa2_formula,
    random_process,
)
from test_ha2 import _postponement_witness
from test_negtrans import _mutate_exprs

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMO_SCRIPT = REPO / "demos" / "min_principle.lc"

PAPER_GUESSES = [0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023]

# Fig. 5 counters gated by criterion 2 (left) and reported-but-ungated ones
GATED_CALLS = {
    "callcc": 1,
    "Resume": 10,
    "print": 11,
    "test_le": 11,
    "min_aux": 11,
    "f": 12,
    "g": 11,
    "stop": 1,
    "min_princ": 1,
}
UNGATED_FIG5_CALLS = {"pair": 22, "min_snd": 11, "I": 1, "realizer": 1}


def note(line: str) -> None:
    print(line)


@pytest.fixture(scope="module")
def demo_run():
    started = time.time()
    result = run_script(str(DEMO_SCRIPT))
    return result, time.time() - started


def test_criterion_01_min_principle_demo(demo_run):
    result, elapsed = demo_run
    printed = [int(line.split()[1]) for line in result.text.splitlines() if line.startswith("print:")]
    assert printed == PAPER_GUESSES
    assert "final: stop * #1023 . $" in result.text
    assert result.doc["statements"][0]["halt"] == {"kind": "final-stop", "value": 1023}
    assert elapsed < 1.0, f"demo took {elapsed:.2f}s"
    assert DEMO_SCRIPT.read_text() == build_script(1000)
    note(f"criterion 1: PASS - 11 paper guesses, final stop * #1023 . $ in {elapsed*1000:.0f}ms")


def test_criterion_02_control_statistics(demo_run):
    result, _ = demo_run
    calls = result.doc["statements"][0]["calls"]
    for name, count in GATED_CALLS.items():
        assert calls.get(name) == count, f"{name}: {calls.get(name)} != {count}"
    # ungated counters are reported; ours match Fig. 5 too
    for name, count in UNGATED_FIG5_CALLS.items():
        assert calls.get(name) == count
    assert "Push" in calls and "Grab" in calls
    note(
        "criterion 2: PASS - callcc 1, resumes 10, print 11, test_le 11, "
        "min_aux 11, f 12, g 11, stop 1, min_princ 1 (Push/Grab reported, ungated)"
    )


def test_criterion_03_witness_independence():
    cfg = instruction_config(1000)
    insts = cfg.instructions
    stacks = [
        parse_stack(r"(\x. x) . $", instructions=insts),
        parse_stack(r"#9 . (\x. x) . $", instructions=insts),
        parse_stack(r"stop . cc . #0 . $", instructions=insts),
    ]
    report = check_independence(Inst("realizer"), stacks, cfg)
    assert report.independent
    assert all(w == 1023 for _, w in report.witnesses)
    note("criterion 3: PASS - witness 1023 against the empty and 3 non-empty stacks")


def test_criterion_04_scaled_sigma01_family():
    for c in (5, 10, 50):
        started = time.time()
        cfg = instruction_config(c)
        report = extract_sigma01(Inst("realizer"), "fleq", cfg, trace_guesses=True)
        witness, guesses = oracle_guesses(c)
        assert report.witness == witness
        assert report.verified is True
        assert list(report.guesses) == guesses
        elapsed = time.time() - started
        assert elapsed < 1.0, f"c={c} took {elapsed:.2f}s"
    note("criterion 4: PASS - witnesses and guess lists match the brute-force oracle for c in {5, 10, 50}")


def test_criterion_05_primrec_compiler_oracle_equivalence():
    sig = default_signature()
    cache = {}
    # named operations, exhaustive on arguments <= 12
    for name in ("pred", "neg"):
        t = compile_primrec(name, sig, cache)
        for n in range(13):
            assert computes_value(t, (n,)) == eval_expr(EApp(name, (expr_of_nat(n),)), {}, sig)
    for name in ("+", "*", "minus"):
        t = compile_primrec(name, sig, cache)
        for a in range(13):
            for b in range(13):
                expected = eval_expr(EApp(name, (expr_of_nat(a), expr_of_nat(b))), {}, sig)
                assert computes_value(t, (a, b), fuel=2_000_000) == expected
    # 200 random composite definitions
    rng = random.Random(2024)
    for i in range(200):
        body = random_expr(rng, rng.randint(1, 3))
        sig2 = sig.define(f"h{i}", 2, [Equation((Pattern("var", "x"), Pattern("var", "y")), body)])
        t = compile_primrec(f"h{i}", sig2, dict(cache))
        args = (rng.randint(0, 12), rng.randint(0, 12))
        rho = {"x": args[0], "y": args[1]}
        assert computes_value(t, args, fuel=5_000_000) == eval_expr(body, rho, sig2)
    note("criterion 5: PASS - compiled terms agree with eval_expr (exhaustive ops + 200 random composites)")


def test_criterion_06_one_step_simulation_suite():
    started = time.time()
    rng = random.Random(4242)
    verified = failed = inconclusive = 0
    processes = [random_process(rng, depth=6, max_numeral=5) for _ in range(180)]
    # make sure the numeral rules are exercised too
    for _ in range(20):
        n = rng.randint(0, 5)
        processes.append(
            Process(
                parse_term(r"rec (\z. z) (\p r. r)"),
                stack_of(Numeral(n), random_process(rng, depth=3).head),
            )
        )
    assert len(processes) == 200
    for p in processes:
        report = simulate_run(p, fuel=40)
        verified += report.verified
        failed += report.failed
        inconclusive += report.inconclusive
    elapsed = time.time() - started
    assert failed == 0
    total = verified + inconclusive
    assert total > 0
    assert inconclusive < total * 0.05, f"{inconclusive}/{total} inconclusive"
    assert elapsed < 60.0, f"simulation suite took {elapsed:.1f}s"
    note(
        f"criterion 6: PASS - {verified} one-step simulations verified, {failed} failed, "
        f"{inconclusive} inconclusive ({elapsed:.1f}s)"
    )


def test_criterion_07_end_to_end_negative_interpretation():
    started = time.time()
    # The invariant under check: the witness read off the weak-reduced CPS
    # image equals the machine-extracted witness equals the brute-force
    # oracle.  For c=10 the iteration stops at 7 (f(7)=3 <= f(15)=5); the
    # c=13 instance is the one whose final pair is <s^15 z0; _>.
    for c, expected in ((5, 3), (10, 7), (13, 15)):
        witness, _ = oracle_guesses(c)
        assert witness == expected
        t0, _sig = closed_realizer(c)
        p0 = Process(t0, Push(sigma01_wrapper(), stack_of()))
        kam = run(p0, MachineConfig())
        assert kam.halt.kind == "final-stop" and kam.halt.value == witness
        found = read_witness(cps_process(p0), fuel=20_000_000)
        assert found is not None and found[0] == witness
    elapsed = time.time() - started
    assert elapsed < 120.0, f"negative interpretation took {elapsed:.1f}s"
    note(
        f"criterion 7: PASS - cps_process(p0) weak-reduces to <s^w z0; _> with w = KAM "
        f"witness = oracle for c in {{5, 10, 13}} (w = 3, 7, 15) ({elapsed:.1f}s)"
    )


def test_criterion_08_reduction_theory_properties():
    sig = default_signature()
    # substitutivity of weak reduction
    rng = random.Random(81)
    checked = 0
    while checked < 500:
        t = random_hterm(rng, 4)
        u = random_hterm(rng, 3, closed=True)
        redexes = enumerate_weak_redexes(t)
        if not redexes:
            continue
        _, t2 = rng.choice(redexes)
        checked += 1
        reducts = {alpha_key(r) for _, r in enumerate_weak_redexes(substitute(t, "a", u))}
        assert alpha_key(substitute(t2, "a", u)) in reducts
    # postponement
    rng = random.Random(82)
    post_checked = post_unknown = 0
    while post_checked < 500:
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
        post_checked += 1
        if not _postponement_witness(t, cur):
            post_unknown += 1
    assert post_unknown <= post_checked * 0.05
    # confluence of weak reduction modulo inner equality
    rng = random.Random(83)
    conf_checked = conf_unknown = 0
    while conf_checked + conf_unknown < 500:
        t = random_hterm(rng, 4)
        endpoints = []
        for _ in range(2):
            cur = t
            for _ in range(6):
                redexes = enumerate_weak_redexes(cur)
                if not redexes:
                    break
                _, cur = rng.choice(redexes)
            try:
                cur, _ = weak_reduce(cur, fuel=200)
            except Ha2Error:
                cur = None
            endpoints.append(cur)
        a, b = endpoints
        if a is None or b is None:
            conf_unknown += 1
            continue
        verdict = inner_equal(a, b, fuel=3000)
        if verdict is EqResult.UNKNOWN:
            conf_unknown += 1
            continue
        conf_checked += 1
        assert verdict is EqResult.EQUAL
    note(
        f"criterion 8: PASS - 500 substitutivity, {post_checked} postponement "
        f"({post_unknown} unknown), {conf_checked} confluence-modulo cases "
        f"({conf_unknown} unknown); zero counterexamples"
    )


def test_criterion_09_translation_algebra():
    sig = default_signature()
    R = ReturnFormula(PredVar("R"))
    rng = random.Random(91)
    for _ in range(300):
        a = random_pa2_formula(rng, 3)
        e = random_expr(rng, 2)
        assert formula_bot(subst_expr1(a, "x", e), R) == subst_expr1(formula_bot(a, R), "x", e)
        b = random_pa2_formula(rng, 2, quantifiers=False, brace=False)
        lhs = formula_bot(subst_pred(a, "X", ("x",), b), R)
        rhs = subst_pred(formula_bot(a, R), "X", ("x",), formula_bot(b, R))
        assert lhs == rhs
    rng = random.Random(92)
    for _ in range(300):
        a = random_pa2_formula(rng, 3)
        a2 = _mutate_exprs(rng, a)
        assert normalize_formula_ha2(formula_bot(a, R), sig) == normalize_formula_ha2(
            formula_bot(a2, R), sig
        )
    rng = random.Random(93)
    for _ in range(300):
        a = random_pa2_formula(rng, 3)
        lhs = normalize_formula_ha2(formula_nn(All1("x", a), R), sig)
        rhs = normalize_formula_ha2(All1("x", formula_nn(a, R)), sig)
        assert lhs == rhs
    note("criterion 9: PASS - 300-case substitutivity (1st and 2nd order), congruence preservation and the forall-commutation identity")


def test_criterion_10_kamikaze_agreement():
    for c in (5, 10):
        cfg = instruction_config(c)
        report = extract_kamikaze(Inst("realizer"), sigma01_refuter(), cfg)
        _, guesses = oracle_guesses(c)
        sig01 = extract_sigma01(Inst("realizer"), "fleq", cfg, trace_guesses=True)
        assert list(report.guesses) == guesses == list(sig01.guesses)
    note("criterion 10: PASS - kamikaze printed sequences equal the sigma01 guess lists for c in {5, 10}")
