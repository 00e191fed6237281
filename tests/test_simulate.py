import gc
import random
import sys
from collections import deque

import pytest

from lamc.ha2 import EqResult
from lamc.machine import MachineConfig, Next, step
from lamc.negtrans import TranslationError
from lamc.simulate import SimulationError, simulate_one_step, simulate_run
from lamc.syntax import (
    Inst,
    Kont,
    Lam,
    Numeral,
    Process,
    Var,
    parse_process,
    stack_of,
)

from gen import random_process


class TestOneStep:
    def check(self, src_or_proc, rule, syntactic=True):
        p = parse_process(src_or_proc) if isinstance(src_or_proc, str) else src_or_proc
        report = simulate_one_step(p)
        assert report.verified is True, report
        assert report.rule == rule
        assert report.syntactic is syntactic
        assert report.weak_steps >= 1
        return report

    def test_push(self):
        self.check(r"(\x. x) (\y. y) * $", "Push")

    def test_grab(self):
        self.check(r"\x. x x * (\y. y) . $", "Grab")

    def test_grab_discarding_argument(self):
        self.check(r"\x. stop * (\y. y) . #1 . $", "Grab")

    def test_callcc(self):
        self.check(r"cc * (\x. x) . #2 . $", "cc")

    def test_resume(self):
        p = Process(Kont(stack_of(Inst("stop"))), stack_of(Lam("x", Var("x")), Numeral(1)))
        self.check(p, "Resume")

    def test_succ(self):
        self.check(r"s * #3 . (\u. u) . $", "s")

    def test_rec_zero(self):
        self.check(r"rec * (\z. z) . (\a b. b) . #0 . $", "rec-0")

    def test_rec_succ_needs_inner_equality(self):
        report = self.check(r"rec * (\z. z) . (\a b. b) . #3 . $", "rec-s", syntactic=False)
        assert report.inner is EqResult.EQUAL

    def test_halted_process_rejected(self):
        with pytest.raises(SimulationError):
            simulate_one_step(parse_process("stop * #1 . $"))

    def test_print_process_untranslatable(self):
        with pytest.raises(TranslationError):
            simulate_one_step(parse_process("print * #1 . stop . $"))


class TestRunSimulation:
    def test_zero_step_run(self):
        report = simulate_run(parse_process("stop * #1 . $"), fuel=10)
        assert report.machine_steps == 0 and report.ok
        assert report.halt_kind == "final-stop"

    def test_short_run_all_verified(self):
        report = simulate_run(parse_process(r"(\x. x) (\y. y) (\z. z) * $"), fuel=20)
        assert report.ok and report.failed == 0
        assert report.verified == report.machine_steps > 0

    def test_mixed_run(self):
        src = r"(\n f. rec (f n) (\p r. r) #2) #4 (\m u. cc (\k. k (s m u))) * (\z. z) . $"
        report = simulate_run(parse_process(src), fuel=40)
        assert report.failed == 0 and report.inconclusive == 0
        assert report.verified == report.machine_steps

    def test_random_processes(self):
        # a smaller version of the acceptance suite's random-process run
        rng = random.Random(99)
        cfg = MachineConfig()
        total = inconclusive = 0
        for _ in range(40):
            p = random_process(rng, depth=5)
            report = simulate_run(p, fuel=25)
            assert report.failed == 0, report
            total += len(report.reports)
            inconclusive += report.inconclusive
        assert total > 80
        assert inconclusive <= total * 0.05

    def test_machine_stepped_once_per_step(self, monkeypatch):
        import lamc.simulate as simulate_mod

        calls = []
        real_step = simulate_mod.step
        monkeypatch.setattr(simulate_mod, "step", lambda p, cfg: calls.append(p) or real_step(p, cfg))
        report = simulate_run(parse_process(r"(\x. x) (\y. y) * $"), fuel=10)
        # two machine steps, then the halting check
        assert report.machine_steps == 2 and report.ok
        assert len(calls) == 3

    def test_binder_named_like_a_fresh_name(self):
        # the CPS translation once captured a user binder named k<n>
        report = simulate_run(parse_process(r"(\k2. k2 k2) (\x. x) * #3 . $"), fuel=10)
        assert report.failed == 0 and report.inconclusive == 0
        assert report.verified == report.machine_steps == 5

    def test_inner_equality_only_on_rec_s(self):
        rng = random.Random(100)
        for _ in range(30):
            p = random_process(rng, depth=5)
            report = simulate_run(p, fuel=25)
            for r in report.reports:
                if r.verified and not r.syntactic:
                    assert r.rule == "rec-s"


class TestSearchFallbacks:
    def test_bfs_fallback_finds_the_target(self):
        # disabling the guided chain forces the breadth-first search
        report = simulate_one_step(parse_process(r"(\x. x) (\y. y) * $"), guided_steps=0)
        assert report.verified is True and report.rule == "Push"
        report = simulate_one_step(parse_process(r"\x. x x * (\y. y) . $"), guided_steps=0)
        assert report.verified is True and report.rule == "Grab"

    def test_exhausted_search_budget_is_inconclusive(self):
        report = simulate_one_step(
            parse_process(r"\x. x x * (\y. y) . $"), guided_steps=0, bfs_cap=2
        )
        assert report.verified is None
        assert "budget" in report.message
        assert "guided_steps 0" in report.message and "bfs_cap 2" in report.message

    def test_exhausted_inner_fuel_is_named(self):
        p = parse_process(r"rec * (\z. z) . (\a b. b) . #3 . $")
        report = simulate_one_step(p, inner_fuel=3)
        assert report.verified is None and report.inner is EqResult.UNKNOWN
        assert report.message == "inner equality ran out of fuel (inner_fuel 3)"
        # the breadth-first search meets the same residual
        report = simulate_one_step(p, inner_fuel=3, guided_steps=0, bfs_cap=2000)
        assert report.verified is None
        assert "inner equality ran out of fuel (inner_fuel 3)" in report.message

    def test_bfs_alone_verifies_what_the_chain_verifies(self):
        rng = random.Random(101)
        cfg = MachineConfig()
        checked = 0
        for _ in range(80):
            p = random_process(rng, depth=5)
            for _ in range(12):
                result = step(p, cfg)
                if not isinstance(result, Next):
                    break
                if simulate_one_step(p, cfg, result=result).verified:
                    bfs = simulate_one_step(p, cfg, guided_steps=0, result=result)
                    assert bfs.verified is True, (p, bfs)
                    checked += 1
                p = result.process
        assert checked > 150


def _module_containers():
    """(module, name) -> size of every container held by a lamc module."""
    sizes = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "lamc" and not mod_name.startswith("lamc."):
            continue
        for name, value in vars(mod).items():
            if isinstance(value, (dict, list, set, deque)):
                sizes[mod_name, name] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[mod_name, name] = value.cache_info().currsize
    return sizes


class TestNoLeaks:
    PROCESSES = (
        r"rec * (\z. z) . (\a b. b) . #3 . $",
        r"(\n f. rec (f n) (\p r. r) #2) #4 (\m u. cc (\k. k (s m u))) * (\z. z) . $",
    )

    def test_no_reference_cycles(self):
        # everything a check builds is freed by reference counting alone
        gc.collect()
        gc.disable()
        try:
            for src in self.PROCESSES:
                assert simulate_one_step(parse_process(src)).verified is True
                assert gc.collect() == 0
                assert simulate_run(parse_process(src), fuel=40).ok
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_module_level_table_grows(self):
        for src in self.PROCESSES:
            simulate_run(parse_process(src), fuel=40)
        before = _module_containers()
        rng = random.Random(102)
        for _ in range(10):
            simulate_run(random_process(rng, depth=5), fuel=25)
        for src in self.PROCESSES:
            simulate_run(parse_process(src), fuel=40)
        assert _module_containers() == before
