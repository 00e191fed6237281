"""Tracing for the per-layer metrics: spans recorded by wrappers that the
benchmark installs around the functions each lamc module calls.

Wrappers go on the caller-module bindings (``lamc.machine.substitute``,
``lamc.simulate.hterm_key``, ...), never on the defining module's own
global, so a layer's recursive calls into itself are not counted again.
Wrappers exist only in a traced run; timed runs call lamc untouched.

Each span has a name, start, end, parent span and job id.  Spans are kept
in memory and written out when the run ends.  Spans of the layers called
once per machine or reduction step (``HOT``) are not kept one by one: their
count and time are added to the per-name totals and to the enclosing
span's child time, which is all that self times need, and it keeps a
traced run's memory small.
"""

from __future__ import annotations

import json
from time import perf_counter

HOT = frozenset({"machine.substitute", "arith.eval", "ha2.hterm_key", "ha2.weak_step", "ha2.enum_redexes"})

# Rules of the machine itself; every other rule name in RunOutcome.stats is
# a user-defined instruction rule.
BUILTIN_RULES = frozenset({"Push", "Grab", "Resume", "cc", "s", "rec-0", "rec-s", "print"})


def term_nodes(t) -> int:
    """Node count of a lambda-c or HA2 term (explicit stack: terms are deep)."""
    n, todo = 0, [t]
    while todo:
        u = todo.pop()
        n += 1
        for attr in ("fn", "arg", "body"):
            child = getattr(u, attr, None)
            if child is not None:
                todo.append(child)
    return n


class Tracer:
    def __init__(self):
        self.records: list[tuple] = []  # (name, start, end, parent record index, job)
        self.open: list[list] = []  # [name, start, child_time, record index, child names]
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.job: int | None = None
        self._installed: list[tuple] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin(self, name: str) -> None:
        index = None
        if name not in HOT:
            index = len(self.records)
            parent = self.open[-1][3] if self.open else None
            self.records.append((name, None, None, parent, self.job))
        self.open.append([name, perf_counter(), 0.0, index, set()])

    def end(self) -> set:
        end = perf_counter()
        name, start, child_time, index, children = self.open.pop()
        duration = end - start
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_time
        if index is not None:
            rec = self.records[index]
            self.records[index] = (rec[0], start, end, rec[3], rec[4])
        if self.open:
            self.open[-1][2] += duration
            self.open[-1][4].add(name)
        return children

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                children = tracer.end()
            if on_result is not None:
                on_result(tracer, result, children)
            return result

        return traced

    def install(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, on_result))
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path, extra: dict) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.records,
            "totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(self.totals.items())},
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


# ---------------------------------------------------------------------------
# result hooks: counts taken at the same boundaries as the spans


def _on_run(tracer: Tracer, out, _children) -> None:
    tracer.count("machine.steps", out.steps)
    tracer.count("machine.grab_steps", out.stats.get("Grab", 0))
    tracer.count("machine.user_rule_steps", sum(v for k, v in out.stats.items() if k not in BUILTIN_RULES))


def _on_compile(tracer: Tracer, term, _children) -> None:
    tracer.count("stdlib.term_nodes", term_nodes(term))


def _on_cps(tracer: Tracer, image, _children) -> None:
    tracer.count("negtrans.image_nodes", term_nodes(image))


def _on_inner_equal(tracer: Tracer, verdict, _children) -> None:
    tracer.count("ha2.inner_unknown", verdict.name == "UNKNOWN")


def _on_one_step(tracer: Tracer, rep, children) -> None:
    tracer.count("simulate.weak_steps", rep.weak_steps)
    tracer.count("simulate.verified", rep.verified is True)
    tracer.count("simulate.syntactic", rep.verified is True and rep.syntactic)
    tracer.count("simulate.bfs", "ha2.enum_redexes" in children)


def install_layers(tracer: Tracer, lamc) -> None:
    """Wrap the bindings through which each layer is reached.  Package-level
    names (``lamc.run``, ...) are the bindings the benchmark's own jobs call."""
    for owner in (lamc, lamc.extract, lamc.script):
        tracer.install(owner, "run", "machine.run", _on_run)
    tracer.install(lamc.machine, "substitute", "machine.substitute")
    for owner in (lamc.machine, lamc.extract):
        tracer.install(owner, "eval_expr", "arith.eval")
    tracer.install(lamc, "parse_script", "script.parse")
    tracer.install(lamc.script.ScriptRunner, "execute", "script.execute")
    tracer.install(lamc.script, "extract_sigma01", "extract.sigma01")
    tracer.install(lamc, "compile_primrec", "stdlib.compile", _on_compile)
    tracer.install(lamc.demo, "compile_primrec", "stdlib.compile", _on_compile)
    tracer.install(lamc, "cps_process", "negtrans.cps", _on_cps)
    for attr in ("cps_process", "cps_term", "cps_stack"):
        tracer.install(lamc.simulate, attr, "negtrans.cps", _on_cps)
    tracer.install(lamc, "read_witness", "ha2.read_witness")
    tracer.install(lamc.simulate, "hterm_key", "ha2.hterm_key")
    tracer.install(lamc.simulate, "weak_step", "ha2.weak_step")
    tracer.install(lamc.simulate, "enumerate_weak_redexes", "ha2.enum_redexes")
    tracer.install(lamc.simulate, "inner_equal", "ha2.inner_equal", _on_inner_equal)
    for owner in (lamc, lamc.simulate):
        tracer.install(owner, "simulate_one_step", "simulate.one_step", _on_one_step)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics (values only) from the spans and counts."""
    t, c = tracer.totals, tracer.counts

    def calls(name):
        return t.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return t.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return t.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    one_steps = calls("simulate.one_step")
    return {
        "script.parse_s": total("script.parse"),
        "script.execute_s": total("script.execute"),
        "script.execute_self_s": self_time("script.execute"),
        "arith.eval_calls": calls("arith.eval"),
        "arith.eval_s": total("arith.eval"),
        "extract.sigma01_calls": calls("extract.sigma01"),
        "extract.sigma01_s": total("extract.sigma01"),
        "machine.run_calls": calls("machine.run"),
        "machine.run_s": total("machine.run"),
        "machine.run_self_s": self_time("machine.run"),
        "machine.steps": c.get("machine.steps", 0),
        "machine.grab_steps": c.get("machine.grab_steps", 0),
        "machine.user_rule_steps": c.get("machine.user_rule_steps", 0),
        "machine.substitute_calls": calls("machine.substitute"),
        "machine.substitute_s": total("machine.substitute"),
        "stdlib.compile_calls": calls("stdlib.compile"),
        "stdlib.compile_s": total("stdlib.compile"),
        "stdlib.term_nodes": c.get("stdlib.term_nodes", 0),
        "negtrans.cps_calls": calls("negtrans.cps"),
        "negtrans.cps_s": total("negtrans.cps"),
        "negtrans.image_nodes": c.get("negtrans.image_nodes", 0),
        "ha2.read_witness_calls": calls("ha2.read_witness"),
        "ha2.read_witness_s": total("ha2.read_witness"),
        "ha2.hterm_key_calls": calls("ha2.hterm_key"),
        "ha2.hterm_key_s": total("ha2.hterm_key"),
        "ha2.weak_step_calls": calls("ha2.weak_step"),
        "ha2.weak_step_s": total("ha2.weak_step"),
        "ha2.enum_redexes_calls": calls("ha2.enum_redexes"),
        "ha2.enum_redexes_s": total("ha2.enum_redexes"),
        "ha2.inner_equal_calls": calls("ha2.inner_equal"),
        "ha2.inner_equal_s": total("ha2.inner_equal"),
        "ha2.inner_unknown_ratio": ratio(c.get("ha2.inner_unknown", 0), calls("ha2.inner_equal")),
        "simulate.one_step_calls": one_steps,
        "simulate.one_step_s": total("simulate.one_step"),
        "simulate.self_s": self_time("simulate.one_step"),
        "simulate.weak_steps": c.get("simulate.weak_steps", 0),
        "simulate.decided_ratio": ratio(c.get("simulate.verified", 0), one_steps),
        "simulate.syntactic_ratio": ratio(c.get("simulate.syntactic", 0), c.get("simulate.verified", 0)),
        "simulate.bfs_fallback_ratio": ratio(c.get("simulate.bfs", 0), one_steps),
        "job.self_s": self_time("job"),
    }
