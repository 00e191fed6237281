import json

import pytest

from lamc.cli import main
from lamc.demo import build_script, oracle_guesses
from lamc.script import (
    DefineStmt,
    EvalStmt,
    EXIT_FUEL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNVERIFIED,
    ExtractStmt,
    PrimStmt,
    ScriptError,
    SimulateStmt,
    TranslateStmt,
    UseStmt,
    parse_script,
    run_script_text,
)
from lamc.ha2 import read_witness
from lamc.negtrans import cps_process
from lamc.syntax import ParseError, parse_process


class TestParsing:
    def test_statement_kinds(self):
        script = parse_script(
            r"""
            Prim double(x) { double(0) = 0; double(s x) = s(s(double(x))); }
            Define I = \x. x;
            use pair;
            Eval stop * #5 . $;
            Extract sigma01 (\u. u #0 I) with pred;
            Translate term \x. x;
            Simulate (\x. x) (\y. y) * $ fuel 12;
            """
        )
        kinds = [type(s) for s in script.statements]
        assert kinds == [
            PrimStmt,
            DefineStmt,
            UseStmt,
            EvalStmt,
            ExtractStmt,
            TranslateStmt,
            SimulateStmt,
        ]

    def test_names_defined_before_use(self):
        with pytest.raises(ParseError, match="unbound"):
            parse_script("Define a = b;")

    def test_mutual_recursion_in_one_batch(self):
        script = parse_script(
            """
            Define ping { u -> pong u * ...; }
            and pong { u -> u * ...; }
            """
        )
        (stmt,) = script.statements
        assert [item.name for item in stmt.items] == ["ping", "pong"]

    def test_reserved_name_rejected(self):
        with pytest.raises(ParseError, match="cannot define"):
            parse_script(r"Define cc = \x. x;")

    def test_rule_tail_is_mandatory(self):
        with pytest.raises(ParseError):
            parse_script("Define f { u -> u * $; }")

    def test_unknown_catalog_name(self):
        with pytest.raises(ParseError, match="unknown catalog term"):
            parse_script("use warp;")

    def test_continuation_literals_rejected_at_run_time(self):
        result = parse_script("Eval k[$] * $;")
        with pytest.raises(ScriptError, match="continuation"):
            run_script_text("Eval k[$] * $;")

    def test_comments_and_whitespace(self):
        script = parse_script("-- nothing\n\n  Eval stop * #1 . $;  -- done\n")
        assert len(script.statements) == 1


class TestRunning:
    def test_eval_stop(self):
        result = run_script_text("Eval stop * #5 . $;")
        assert result.exit_code == EXIT_OK
        assert "final: stop * #5 . $" in result.text
        assert "halt: final-stop 5" in result.text
        # stop fires no rule: zero rule firings, one instruction call
        doc = result.doc["statements"][0]
        assert doc["steps"] == 0
        assert doc["calls"] == {"stop": 1}

    def test_guarded_instruction(self):
        result = run_script_text(
            """
            Define test_le {
              [n] [m] u v when n <= m -> u * ...;
              [n] [m] u v -> v * ...;
            }
            Eval test_le #2 #5 (stop #1) (stop #0) * $;
            Eval test_le #5 #2 (stop #1) (stop #0) * $;
            """
        )
        evals = [s for s in result.doc["statements"] if s["kind"] == "eval"]
        assert evals[0]["halt"]["value"] == 1
        assert evals[1]["halt"]["value"] == 0

    def test_computed_numeral_push(self):
        result = run_script_text(
            """
            Define triple { [x] u -> u * #(x + x + x) . ...; }
            Eval triple #7 stop * $;
            """
        )
        assert result.doc["statements"][0]["halt"]["value"] == 21

    def test_use_catalog(self):
        result = run_script_text("use I;\nEval I * (stop #3) . $;")
        assert result.doc["statements"][0]["halt"]["value"] == 3

    def test_extract_exit_codes(self):
        ok = run_script_text(r"Extract sigma01 (\u. u #0 (\z. z)) with pred;")
        assert ok.exit_code == EXIT_OK
        bad = run_script_text(r"Extract sigma01 (\u. u #3 (\z. z)) with pred;")
        assert bad.exit_code == EXIT_UNVERIFIED
        assert "verified false" in bad.text

    def test_fuel_exit_code(self):
        spin = run_script_text(r"Eval (\x. x x) (\x. x x) * $;", fuel=50)
        assert spin.exit_code == EXIT_FUEL
        assert "halt: fuel" in spin.text

    def test_simulate_statement(self):
        result = run_script_text(r"Simulate (\x. x) (\y. y) * $ fuel 10;")
        assert result.exit_code == EXIT_OK
        assert "simulate: machine-steps" in result.text

    def test_translate_statements(self):
        result = run_script_text(
            r"""
            Translate term \x. x;
            Translate process stop * #2 . $;
            Translate formula forall x. X(x);
            """
        )
        text = result.text
        assert "translate term:" in text
        assert "translate process:" in text
        assert "translate formula bot: exists x. X(x)" in text
        assert "translate formula nn: (exists x. X(x)) -> R" in text

    def test_determinism_byte_identical(self):
        text = build_script(10)
        assert run_script_text(text).text == run_script_text(text).text

    def test_demo_output_shape(self):
        result = run_script_text(build_script(10))
        witness, guesses = oracle_guesses(10)
        assert f"final: stop * #{witness} . $" in result.text
        assert [int(line.split()[1]) for line in result.text.splitlines() if line.startswith("print:")] == guesses
        assert result.exit_code == EXIT_OK


class TestCli:
    def demo_path(self, tmp_path, c=10):
        path = tmp_path / "demo.lc"
        path.write_text(build_script(c))
        return str(path)

    def test_run(self, tmp_path, capsys):
        code = main(["run", self.demo_path(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        witness, _ = oracle_guesses(10)
        assert f"halt: final-stop {witness}" in out

    def test_run_json_like(self, tmp_path, capsys):
        code = main(["run", self.demo_path(tmp_path), "--json-like"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["statements"][0]["kind"] == "eval"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.lc"
        path.write_text("Eval ((( * $;")
        assert main(["run", str(path)]) == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    def test_extract_subcommand(self, tmp_path, capsys):
        script = self.demo_path(tmp_path)
        realizer = tmp_path / "realizer.lc"
        realizer.write_text("realizer\n")
        code = main(
            [
                "extract",
                "--mode",
                "sigma01",
                "--realizer",
                str(realizer),
                "--f",
                "fleq",
                "--script",
                script,
                "--trace-guesses",
            ]
        )
        out = capsys.readouterr().out
        witness, guesses = oracle_guesses(10)
        assert code == EXIT_OK
        assert f"witness {witness} verified true" in out
        assert "guesses: " + " ".join(map(str, guesses)) in out

    def test_extract_with_custom_stack(self, tmp_path, capsys):
        script = self.demo_path(tmp_path)
        realizer = tmp_path / "realizer.lc"
        realizer.write_text("realizer")
        code = main(
            ["extract", "--mode", "sigma01", "--realizer", str(realizer),
             "--f", "fleq", "--script", script, "--stack", "#9 . stop . $"]
        )
        out = capsys.readouterr().out
        witness, _ = oracle_guesses(10)
        assert code == EXIT_OK and f"witness {witness}" in out

    def test_translate_process_read_witness(self, capsys):
        code = main(
            ["translate", "--process", r"(\u. u #4 (\z. z)) * (\x y. y (stop x)) . $",
             "--read-witness"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "witness: 4" in out

    def test_translate_read_witness_out_of_fuel(self, capsys):
        argv = ["translate", "--process", r"(\u. u #4 (\z. z)) * (\x y. y (stop x)) . $",
                "--read-witness", "--fuel", "5"]
        code = main(argv)
        out = capsys.readouterr()
        assert code == EXIT_FUEL and out.err == ""
        lines = out.out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("translate process: ")
        assert lines[1] == "witness: unknown fuel"
        assert main(argv + ["--json-like"]) == EXIT_FUEL
        doc = json.loads(capsys.readouterr().out)
        assert doc["witness"] is None and doc["head_steps"] is None and doc["halt"] == "fuel"

    def test_translate_formula(self, capsys):
        code = main(["translate", "--formula", "forall x. null(pred(x))"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "bot: exists x. null(neg(pred(x)))" in out

    def test_simulate_subcommand(self, capsys):
        code = main(["simulate", "--process", r"(\x. x) (\y. y) * $", "--fuel", "10"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "failed 0" in out

    def test_stats_compare(self, tmp_path, capsys):
        a = self.demo_path(tmp_path, 10)
        b = tmp_path / "b.lc"
        b.write_text(build_script(10, wrapper="plain"))
        code = main(["stats", a, str(b)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "diff:" in out
        assert "print" in out  # the plain build never fires print


class TestRobustness:
    def test_arity_zero_prim_symbol(self):
        result = run_script_text(
            """
            Prim five() { five() = 5; }
            Define f { [x] u -> u * #(x + five()) . ...; }
            Eval f #4 stop * $;
            """
        )
        assert result.doc["statements"][0]["halt"]["value"] == 9

    def test_mutilated_scripts_fail_cleanly(self):
        # every truncation of the demo raises a package error, never an
        # arbitrary exception
        import lamc.script as script_mod
        from lamc.syntax import LamcError

        text = build_script(10)
        tokens = text.split(" ")
        for cut in range(1, len(tokens), 7):
            mutated = " ".join(tokens[:cut])
            try:
                script_mod.run_script_text(mutated, fuel=10_000)
            except LamcError:
                pass

    def test_deleted_token_scripts_fail_cleanly(self):
        import random as rnd

        from lamc.syntax import LamcError

        rng = rnd.Random(7)
        text = build_script(5)
        pieces = text.split()
        for _ in range(60):
            drop = rng.randrange(len(pieces))
            mutated = " ".join(pieces[:drop] + pieces[drop + 1 :])
            try:
                run_script_text(mutated, fuel=10_000)
            except LamcError:
                pass


def test_shipped_demo_script(capsys):
    import pathlib

    demo = pathlib.Path(__file__).resolve().parent.parent / "demos" / "min_principle.lc"
    code = main(["run", str(demo)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "final: stop * #1023 . $" in out
    assert "callcc       1" in out


class TestCliScriptAgreement:
    """`lamc extract`/`lamc simulate`/`lamc translate` print the output of the matching
    script statement: the same lines, the same document, the same exit code."""

    DEFS = "Prim h(x, y) { h(x, y) = minus(x, y); }\nuse Y;\n"

    def _files(self, tmp_path, realizer):
        defs = tmp_path / "defs.lc"
        defs.write_text(self.DEFS)
        term = tmp_path / "realizer.lc"
        term.write_text(realizer)
        return str(defs), str(term)

    @pytest.mark.parametrize("mode", ["naive", "sigma01", "decidable", "kamikaze"])
    @pytest.mark.parametrize(
        "realizer, symbol, trace, fuel",
        [
            (r"\u. u #0 (\z. z)", "pred", False, None),
            (r"\u. u #3 (\z. z)", "pred", True, None),
            (r"Y (\r u. r u)", "pred", False, 200),
        ],
    )
    def test_extract(self, tmp_path, capsys, mode, realizer, symbol, trace, fuel):
        stmt = f"Extract {mode}{' trace' if trace else ''} {realizer} with {symbol};"
        script = run_script_text(self.DEFS + stmt, fuel=fuel)
        defs, term = self._files(tmp_path, realizer)
        argv = ["extract", "--mode", mode, "--realizer", term, "--f", symbol, "--script", defs]
        argv += ["--trace-guesses"] if trace else []
        argv += ["--fuel", str(fuel)] if fuel is not None else []
        code = main(argv)
        text = capsys.readouterr().out
        assert main(argv + ["--json-like"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert text == script.text
        assert doc == script.doc["statements"][0]
        assert code == script.exit_code

    @pytest.mark.parametrize("mode", ["naive", "sigma01", "decidable", "kamikaze"])
    def test_extract_rejects_a_binary_symbol(self, tmp_path, capsys, mode):
        message = "extraction needs a unary predicate symbol; 'h' has arity 2"
        with pytest.raises(ScriptError) as exc:
            run_script_text(self.DEFS + rf"Extract {mode} (\u. u #0 (\z. z)) with h;")
        assert str(exc.value) == message
        defs, term = self._files(tmp_path, r"\u. u #0 (\z. z)")
        code = main(["extract", "--mode", mode, "--realizer", term, "--f", "h", "--script", defs])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_simulate(self, capsys):
        process = r"cc * (\k. k #3) . stop . $"
        script = run_script_text(f"Simulate {process} fuel 10;")
        code = main(["simulate", "--process", process, "--fuel", "10"])
        text = capsys.readouterr().out
        assert main(["simulate", "--process", process, "--fuel", "10", "--json-like"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert (text, doc, code) == (script.text, script.doc["statements"][0], script.exit_code)

    @pytest.mark.parametrize(
        "kind, subject",
        [
            ("term", r"\x. cc (\k. k x)"),
            ("process", r"(\u. u #4 (\z. z)) * (\x y. y (stop x)) . $"),
            ("formula", "forall x. {x} -> exists y. x = y /\\ Y -> forall X. X(y)"),
        ],
    )
    def test_translate(self, capsys, kind, subject):
        script = run_script_text(f"Translate {kind} {subject};")
        expected = (script.text, script.doc["statements"][0], script.exit_code)
        argv = ["translate", f"--{kind}", subject]
        code = main(argv)
        text = capsys.readouterr().out
        assert main(argv + ["--json-like"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert (text, doc, code) == expected
        # --read-witness adds the witness line and keys to a process's output
        # and leaves the others as they are
        argv.append("--read-witness")
        code = main(argv)
        text = capsys.readouterr().out
        assert main(argv + ["--json-like"]) == code
        doc = json.loads(capsys.readouterr().out)
        if kind == "process":
            found = read_witness(cps_process(parse_process(subject)))
            steps = found.head_steps
            assert found.n == 4 and list(steps) == ["beta", "proj", "rec-0", "rec-s"]
            text_, doc_, code_ = expected
            expected = (
                text_ + f"witness: 4 head-steps {sum(steps.values())}\n",
                {**doc_, "witness": 4, "head_steps": steps},
                code_,
            )
        assert (text, doc, code) == expected


def test_main_restores_the_recursion_limit():
    import sys

    before = sys.getrecursionlimit()
    sys.setrecursionlimit(30_000)
    try:
        main(["translate", "--term", r"\x. x"])
        assert sys.getrecursionlimit() == 30_000
    finally:
        sys.setrecursionlimit(before)


def test_deep_input_exits_without_traceback(capsys):
    depth = 100_000
    code = main(["translate", "--process", "(" * depth + "stop" + ")" * depth + " * $"])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_large_numeral_translates_at_the_default_recursion_limit(capsys):
    import sys

    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code = main(["translate", "--process", "stop * #30000 . $"])
    finally:
        sys.setrecursionlimit(before)
    out = capsys.readouterr()
    assert code == EXIT_OK and out.err == ""
    assert out.out.startswith("translate process: ") and out.out.count("sc") == 30000


def test_script_jobs_share_the_default_signature():
    # built once per process: the parser's arities, the runner's and a
    # default configuration's signature are one instance, with one compiled
    # evaluator
    from lamc.machine import MachineConfig
    from lamc.script import ScriptParser, ScriptRunner

    parser = ScriptParser("Eval stop * #1 . $;")
    assert parser.base_sig is MachineConfig().sig is ScriptRunner().cfg.sig
    with pytest.raises(TypeError):
        parser.base_sig.symbols["+"] = None
