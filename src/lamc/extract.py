"""Classical witness extraction drivers.

Four ways to interrogate a universal realizer of an existential statement:
the naive first-projection (documented failure mode), the reliable
Sigma-0-1 wrapper, the decidable-predicate wrapper built from a decision
function and a conditional refuter, and the kamikaze method that blindly
prints every guess.  A separate checker reruns extraction against several
stacks and verifies that the witness does not depend on the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .arith import EApp, EVar, PrimRecSignature, eval_expr
from .machine import MachineConfig, RunOutcome, StopRun, run
from .stdlib import IDENTITY, compile_primrec
from .syntax import (
    App,
    BOTTOM,
    Inst,
    Lam,
    LamcError,
    Numeral,
    Process,
    Push,
    Stack,
    Term,
    Var,
    app,
    is_proof_like,
    lam,
)


class ExtractionError(LamcError):
    pass


@dataclass(frozen=True)
class ExtractionReport:
    mode: str  # "naive" | "sigma01" | "decidable" | "kamikaze"
    witness: int | None
    verified: bool | None
    guesses: tuple[int, ...]
    outcome: RunOutcome

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "witness": self.witness,
            "verified": self.verified,
            "guesses": list(self.guesses),
            "halt": {"kind": self.outcome.halt.kind, "value": self.outcome.halt.value},
            "steps": self.outcome.steps,
            "stats": dict(sorted(self.outcome.stats.items())),
        }


def naive_wrapper() -> Term:
    return lam("x y", App(Inst("stop"), Var("x")))


def sigma01_wrapper(trace_guesses: bool = False) -> Term:
    if trace_guesses:
        return lam("x y", app(Inst("print"), Var("x"), Var("y"), App(Inst("stop"), Var("x"))))
    return lam("x y", App(Var("y"), App(Inst("stop"), Var("x"))))


def decidable_wrapper(d: Term, r: Term) -> Term:
    return lam(
        "x y",
        app(d, Var("x"), App(Inst("stop"), Var("x")), app(r, Var("x"), Var("y"))),
    )


def kamikaze_wrapper(r: Term) -> Term:
    return lam("x y", app(Inst("print"), Var("x"), app(r, Var("x"), Var("y"))))


def sigma01_refuter() -> Term:
    """The conditional refuter for Sigma-0-1 predicates: \\_. \\z. z I."""
    return lam("w z", App(Var("z"), IDENTITY))


def _run_wrapper(t0: Term, wrapper: Term, cfg: MachineConfig, stack: Stack) -> RunOutcome:
    return run(Process(t0, Push(wrapper, stack)), cfg)


def _witness(outcome: RunOutcome) -> int | None:
    return outcome.halt.value if outcome.halt.kind == "final-stop" else None


def sigma01_oracle(f: str, sig: PrimRecSignature) -> Callable[[int], bool]:
    """The predicate n -> f(n) = 0; ExtractionError unless f is unary."""
    arity = sig.arity(f)
    if arity != 1:
        raise ExtractionError(f"extraction needs a unary predicate symbol; {f!r} has arity {arity}")
    return lambda n: eval_expr(EApp(f, (EVar("x"),)), {"x": n}, sig) == 0


def extract_naive(
    t0: Term,
    cfg: MachineConfig | None = None,
    stack: Stack = BOTTOM,
    oracle: Callable[[int], bool] | None = None,
) -> ExtractionReport:
    """First-projection extraction; the returned number carries no warranty.

    The report's verified field is filled from the oracle when one is
    supplied, and is often False: this driver documents the failure mode.
    """
    cfg = cfg if cfg is not None else MachineConfig()
    outcome = _run_wrapper(t0, naive_wrapper(), cfg, stack)
    w = _witness(outcome)
    verified = oracle(w) if (oracle is not None and w is not None) else None
    return ExtractionReport("naive", w, verified, (), outcome)


def extract_sigma01(
    t0: Term,
    f: str,
    cfg: MachineConfig | None = None,
    stack: Stack = BOTTOM,
    trace_guesses: bool = False,
) -> ExtractionReport:
    """Reliable extraction for realizers of 'exists x with f(x) = 0'.

    Runs t0 against the breakpoint wrapper; on a final stop state the
    witness is checked by evaluating f.  With trace_guesses the print
    variant of the wrapper is used and intermediate guesses are recorded.
    """
    cfg = cfg if cfg is not None else MachineConfig()
    holds = sigma01_oracle(f, cfg.sig)
    outcome = _run_wrapper(t0, sigma01_wrapper(trace_guesses), cfg, stack)
    w = _witness(outcome)
    verified = holds(w) if w is not None else None
    return ExtractionReport("sigma01", w, verified, outcome.printed, outcome)


def extract_decidable(
    t0: Term,
    d: Term,
    r: Term,
    oracle: Callable[[int], bool],
    cfg: MachineConfig | None = None,
    stack: Stack = BOTTOM,
) -> ExtractionReport:
    """Extraction through a decision function d and a conditional refuter r.

    On a final stop the witness is checked against the oracle; a False
    verdict signals that d violated its decision contract.
    """
    cfg = cfg if cfg is not None else MachineConfig()
    outcome = _run_wrapper(t0, decidable_wrapper(d, r), cfg, stack)
    w = _witness(outcome)
    verified = oracle(w) if w is not None else None
    return ExtractionReport("decidable", w, verified, outcome.printed, outcome)


def extract_kamikaze(
    t0: Term,
    r: Term,
    cfg: MachineConfig | None = None,
    stack: Stack = BOTTOM,
    oracle: Callable[[int], bool] | None = None,
) -> ExtractionReport:
    """Blind extraction: print each guess, then attempt a refutation-driven
    backtrack.  Correct up to the first true guess; after that the run may
    crash or loop, so it is bounded by fuel and can stop early when an
    oracle recognizes a printed witness.  The candidate is the last printed
    guess."""
    cfg = cfg if cfg is not None else MachineConfig()
    if oracle is not None:
        def sink(n: int) -> None:
            if oracle(n):
                raise StopRun
        cfg = replace(cfg, sink=sink)
    outcome = _run_wrapper(t0, kamikaze_wrapper(r), cfg, stack)
    candidate = outcome.printed[-1] if outcome.printed else None
    verified = oracle(candidate) if (oracle is not None and candidate is not None) else None
    return ExtractionReport("kamikaze", candidate, verified, outcome.printed, outcome)


# ---------------------------------------------------------------------------
# deciders and refuter checks


def make_decider_sigma01(f: str, cfg: MachineConfig) -> Term:
    """A closed term d with d * n . u . v . pi  >*  u * pi  iff f(n) = 0,
    else v * pi; built from the compiled function and a zero test."""
    sigma01_oracle(f, cfg.sig)  # f must be unary
    fhat = compile_primrec(f, cfg.sig)
    dispatch = app(Inst("rec"), Var("u"), lam("p w", Var("v")), Var("m"))
    return lam("n u v", app(fhat, Var("n"), Lam("m", dispatch)))


def check_decider_samples(
    d: Term,
    oracle: Callable[[int], bool],
    samples: list[int],
    cfg: MachineConfig | None = None,
    fuel: int = 200_000,
) -> bool:
    """Operational spot check of the decision contract on sampled inputs:
    d * n . u . v . pi must select u exactly when the predicate holds."""
    cfg = cfg if cfg is not None else MachineConfig()
    cfg = replace(cfg, fuel=fuel)
    for n in samples:
        stack = Push(Numeral(n), Push(App(Inst("stop"), Numeral(1)), Push(App(Inst("stop"), Numeral(0)), BOTTOM)))
        out = run(Process(d, stack), cfg)
        expected = 1 if oracle(n) else 0
        if out.halt.kind != "final-stop" or out.halt.value != expected:
            return False
    return True


def check_refuter_samples(
    r: Term,
    oracle: Callable[[int], bool],
    samples: list[int],
    cfg: MachineConfig | None = None,
    fuel: int = 50_000,
) -> bool:
    """Heuristic operational check of the conditional-refutation contract:
    for sampled n with the predicate false, r * n . canary . bottom must
    not reach a final stop state.  Sampling is not a proof."""
    cfg = cfg if cfg is not None else MachineConfig()
    cfg = replace(cfg, fuel=fuel)
    canary = IDENTITY
    for n in samples:
        if oracle(n):
            continue
        out = run(Process(r, Push(Numeral(n), Push(canary, BOTTOM))), cfg)
        if out.halt.kind == "final-stop":
            return False
    return True


# ---------------------------------------------------------------------------
# witness independence


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    witnesses: tuple[tuple[str, int | None], ...]


def check_independence(
    t0: Term,
    stacks: list[Stack],
    cfg: MachineConfig | None = None,
) -> IndependenceReport:
    """Rerun Sigma-0-1 extraction against the empty stack and each supplied
    stack; independent iff every run reaches a final stop with the same
    witness.  Requires a proof-like realizer."""
    cfg = cfg if cfg is not None else MachineConfig()
    if not is_proof_like(t0):
        raise ExtractionError("witness independence requires a proof-like realizer")
    results: list[tuple[str, int | None]] = []
    witnesses = set()
    for pi in [BOTTOM, *stacks]:
        outcome = _run_wrapper(t0, sigma01_wrapper(), cfg, pi)
        w = _witness(outcome)
        results.append((str(pi), w))
        witnesses.add(w)
    independent = len(witnesses) == 1 and None not in witnesses
    return IndependenceReport(independent, tuple(results))
