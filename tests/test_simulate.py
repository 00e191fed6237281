import random

import pytest

from lamc.ha2 import EqResult
from lamc.machine import MachineConfig
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
