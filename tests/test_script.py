import json
import pathlib
import random

import pytest

from lamc.cli import main
from lamc.demo import build_script, oracle_guesses
from lamc.extract import ExtractionError
from lamc.script import (
    DefineItem,
    DefineStmt,
    EvalStmt,
    EXIT_FUEL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNVERIFIED,
    ExtractStmt,
    PrimStmt,
    Script,
    ScriptError,
    ScriptRunner,
    SimulateStmt,
    TranslateStmt,
    parse_script,
    run_script_text,
)
from lamc.ha2 import read_witness
from lamc.negtrans import cps_process
from lamc.machine import RuleError, macro_rule
from lamc.stdlib import catalog
from lamc.syntax import Lam, ParseError, Var, parse_process, print_process


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
            DefineStmt,
            EvalStmt,
            ExtractStmt,
            TranslateStmt,
            SimulateStmt,
        ]

    def test_use_and_term_items_parse_into_macro_rules(self):
        script = parse_script("use pair; Define I = \\x. x;")
        assert [type(s) for s in script.statements] == [DefineStmt, DefineStmt]
        [use_item], [term_item] = (s.items for s in script.statements)
        assert use_item.rules == (macro_rule("pair", catalog()["pair"].term),)
        assert term_item.rules == (macro_rule("I", Lam("x", Var("x"))),)

    def test_open_macro_is_refused_at_registration(self):
        # the parser reads every unbound name in a Define as an instruction,
        # so only a hand-built item can be open
        stmt = DefineStmt((DefineItem("f", (macro_rule("f", Var("y")),)),))
        with pytest.raises(RuleError, match="f: unbound variable 'y' in rule right-hand side"):
            ScriptRunner().execute(Script((stmt,)))

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

    @pytest.mark.parametrize(
        "text, halt",
        [
            (
                "Define f { [x] u -> g #(x + 1) u * ...; } and g { [x] u -> u * #(x + x) . ...; };\n"
                "Eval f #3 stop * $;",
                "halt: final-stop 8",
            ),
            (
                "Define g { [x] u -> u * #(x + x) . ...; } and f { [x] u -> g #(x + 1) u * ...; }"
                " and h = \\u. f #1 u;\nEval h stop * $;",
                "halt: final-stop 4",
            ),
            (
                "Define f { [x] u -> u * #(x + 1) . ...; } and g = \\u. u #7;\nEval g stop * $;",
                "halt: final-stop 7",
            ),
        ],
        ids=["forward-after-computed-numeral", "three-items", "item-after-computed-numeral"],
    )
    def test_items_after_a_computed_numeral(self, text, halt):
        result = run_script_text(text)
        assert result.exit_code == EXIT_OK
        assert halt in result.text.splitlines()

    @pytest.mark.parametrize(
        "text, col",
        [
            (r"Define f = \u. g u and h = \u. g u;", 16),
            ("Define f { [x] u -> u * #(x + 1) . ...; } and h { u -> g u * ...; };", 56),
            (r"Define f = \u. g u; Define g = \u. u;", 16),
        ],
        ids=["no-item-defines-it", "after-a-computed-numeral", "defined-by-a-later-statement"],
    )
    def test_undefined_forward_name_at_its_first_use(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_script(text)
        assert (err.value.message, err.value.line, err.value.col) == ("unbound name 'g'", 1, col)

    def test_syntax_error_before_undefined_forward_name(self):
        with pytest.raises(ParseError) as err:
            parse_script(r"Define f = \u. g u and h = ;")
        assert (err.value.message, err.value.col) == ("expected a term", 28)

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
        for text in ("Eval k[$] * $;", "Translate term k[$];", "Translate process k[$] * $;"):
            with pytest.raises(ScriptError, match="continuation"):
                run_script_text(text)

    def test_comments_and_whitespace(self):
        script = parse_script("-- nothing\n\n  Eval stop * #1 . $;  -- done\n")
        assert len(script.statements) == 1

    @pytest.mark.parametrize(
        "text, message, col",
        [
            ("Prim f(x) { f(x, y) = 0; }", "'f' has arity 1", 13),
            (r"Extract bogus (\u. u #0 (\z. z)) with pred;", "unknown extraction mode 'bogus'", 9),
            (r"Extract sigma01 (\u. u #0 (\z. z)) with nosuch;", "unknown function symbol 'nosuch'", 41),
            ("Simulate stop * $ fuel many;", "fuel expects a number", 24),
            ("Prim f(x) { f(0) = 7; f(s(0)) = 5; }", "expected a variable, found '0'", 27),
            ("Prim f(x) { f(0) = 7; f(s 0) = 5; }", "expected a variable, found '0'", 27),
            ("Prim f(0) { f(x) = x; }", "expected a variable, found '0'", 8),
            ("Prim f(x, y) { f(x, s) = x; }", "expected a variable, found ')'", 22),
            (r"Define t { [1] u -> u * ...; } Eval t #4 (\x. stop x) * $;", "expected a variable, found '1'", 13),
        ],
        ids=[
            "equation-arity", "extraction-mode", "with-symbol", "fuel",
            "nested-pattern", "nested-pattern-bare", "numeral-parameter", "bare-s-pattern",
            "numeral-in-brackets",
        ],
    )
    def test_statement_errors(self, text, message, col):
        with pytest.raises(ParseError) as err:
            parse_script(text)
        assert (err.value.message, err.value.line, err.value.col) == (message, 1, col)


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

    def test_numeral_literal_slot_and_equality_guard(self):
        result = run_script_text(
            """
            Prim half(x) { half(0) = 0; half(s(x)) = x; }
            Define pick { #3 u v -> u * ...; [n] u v -> v * ...; }
            Define same { [n] [m] u v when n = half(m) -> u * ...; [n] [m] u v -> v * ...; }
            Eval pick #3 (stop #1) (stop #0) * $;
            Eval pick #4 (stop #1) (stop #0) * $;
            Eval same #2 #3 (stop #1) (stop #0) * $;
            Eval same #2 #4 (stop #1) (stop #0) * $;
            """
        )
        evals = [s for s in result.doc["statements"] if s["kind"] == "eval"]
        assert [e["halt"]["value"] for e in evals] == [1, 0, 1, 0]
        assert [e["steps"] for e in evals] == [5, 5, 6, 6]

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--process", r"(\x. x) * #1 . $", "--fuel", "-3"],
             "lamc simulate: argument --fuel: expected a non-negative integer, got '-3'"),
            (["simulate", "--process", r"(\x. x) * #1 . $", "--fuel", "abc"],
             "lamc simulate: argument --fuel: expected a non-negative integer, got 'abc'"),
            (["run", "demo.lc", "--fuel", "-1"],
             "lamc run: argument --fuel: expected a non-negative integer, got '-1'"),
            (["extract", "--mode", "sigma01", "--realizer", "r.lc", "--f", "h", "--fuel", "-2"],
             "lamc extract: argument --fuel: expected a non-negative integer, got '-2'"),
            (["translate", "--term", r"\x. x", "--fuel", "-4"],
             "lamc translate: argument --fuel: expected a non-negative integer, got '-4'"),
            (["stats", "demo.lc", "--fuel", "-5"],
             "lamc stats: argument --fuel: expected a non-negative integer, got '-5'"),
            (["run"], "lamc run: the following arguments are required: script"),
            ([], "lamc: the following arguments are required: command"),
            (["frob"], "lamc: argument command: invalid choice: 'frob'"),
            (["translate", "--term", "x", "--bogus"], "lamc: unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_error_is_one_line_exit_1(self, argv, message, capsys):
        assert main(argv) == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {message}")
        assert out.err.count("\n") == 1 and out.err.endswith("\n")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["run", "-h"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lamc run ")

    def test_zero_fuel_is_a_budget(self, capsys):
        code = main(["simulate", "--process", r"(\x. x) * #1 . $", "--fuel", "0"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("simulate: machine-steps 0 ")

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

    def test_translate_read_witness_none(self, capsys):
        argv = ["translate", "--process", r"(\x. x) * $", "--read-witness"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "translate process: (\\k1. (\\x k2. x k2) (fst k1) (snd k1)) z0",
            "witness: none head-steps 3",
        ]
        assert main(argv + ["--json-like"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["witness"] is None and "halt" not in doc
        assert doc["head_steps"] == {"beta": 3, "proj": 0, "rec-0": 0, "rec-s": 0}

    def test_translate_formula(self, capsys):
        code = main(["translate", "--formula", "forall x. null(pred(x))"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "bot: exists x. null(neg(pred(x)))" in out

    def test_predicate_variable_at_two_arities_is_one_error_line(self, tmp_path, capsys):
        error = "error: predicate variable 'X' used at arities 2 and 1\n"
        assert main(["translate", "--formula", "forall X. X(0, 1) -> X(1)"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", error)
        path = tmp_path / "arity.lc"
        path.write_text("Translate formula forall X. X(0, 1) -> X(1);")
        assert main(["run", str(path)]) == EXIT_PARSE
        assert capsys.readouterr() == ("", error)

    def test_simulate_subcommand(self, capsys):
        code = main(["simulate", "--process", r"(\x. x) (\y. y) * $", "--fuel", "10"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "failed 0" in out

    def test_stats_compare(self, tmp_path, capsys):
        a = self.demo_path(tmp_path, 10)
        b = tmp_path / "b.lc"
        b.write_text(build_script(10).replace(r"(\x y. print x y (stop x))", r"(\x y. y (stop x))"))
        code = main(["stats", a, str(b)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "diff:" in out
        assert "print" in out  # the plain build never fires print

    @pytest.mark.parametrize(
        "text, name",
        [
            (r"Define a = \u. u #1 and a = \u. u #2; Eval a stop * $;", "a"),
            (r"Define a { u -> u #1 * ...; } and a { u -> u #2 * ...; }; Eval a stop * $;", "a"),
            ("use I; use I;", "I"),
            (r"use I; Define I = \x. x;", "I"),
        ],
        ids=["term-items", "rule-items", "use-use", "use-define"],
    )
    def test_repeated_item_is_already_defined(self, tmp_path, capsys, text, name):
        path = tmp_path / "repeated.lc"
        path.write_text(text)
        assert main(["run", str(path)]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: instruction {name!r} is already defined\n")

    def test_stats_out_of_fuel(self, tmp_path, capsys):
        omega = tmp_path / "omega.lc"
        omega.write_text("Eval (\\x. x x) (\\x. x x) * $;\n")
        code = main(["stats", str(omega), "--fuel", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_FUEL
        assert out == f"script: {omega}\n  Push         2\n  Grab         1\n"
        # fuel exhaustion in one script of two decides the status
        assert main(["stats", self.demo_path(tmp_path, 10), str(omega), "--fuel", "1000"]) == EXIT_FUEL
        capsys.readouterr()


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


LONG_DIGITS = "9" * 10_000


@pytest.mark.parametrize(
    "argv, script, error",
    [
        (["translate", "--term", "#²"], None, "1:1: expected digits after '#'"),
        (["translate", "--term", "stop #٣"], None, "1:6: expected digits after '#'"),
        (["translate", "--formula", "x = 5²"], None, "1:6: unexpected character '²'"),
        (["run"], "Eval stop * #²;", "1:13: expected digits after '#'"),
        (["run"], "Prim f(x) {\n  f(x) = x + 5²; }", "2:15: unexpected character '²'"),
        (["run"], "Eval stop * #٣ . $;", "1:13: expected digits after '#'"),
        (["translate", "--term", "stop #" + LONG_DIGITS], None,
         "1:6: numeral literal too long (10000 digits)"),
        (["run"], "Prim f(x) { f(x) = x + " + LONG_DIGITS + "; }",
         "1:24: numeral literal too long (10000 digits)"),
        (["run"], "Simulate cc * $ fuel " + LONG_DIGITS + ";",
         "1:22: numeral literal too long (10000 digits)"),
    ],
    ids=["term-superscript", "term-arabic-indic", "formula-superscript", "eval-superscript",
         "prim-superscript", "eval-arabic-indic", "long-term", "long-prim", "long-fuel"],
)
def test_bad_literal_is_one_error_line(argv, script, error, tmp_path, capsys):
    if script is not None:
        path = tmp_path / "bad.lc"
        path.write_text(script, encoding="utf-8")
        argv = argv + [str(path)]
    assert main(argv) == EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {error}\n"


def _squared(k: str) -> str:
    """sq #10 (\\y. sq y (... sq y k)): k receives 10 squared 13 times, a
    numeral of 8,193 digits, past the interpreter's int-string limit."""
    for _ in range(12):
        k = f"(\\y. sq y {k})"
    return f"sq #10 {k}"


@pytest.mark.parametrize("json_like", [False, True], ids=["text", "json-like"])
@pytest.mark.parametrize(
    "statement",
    [
        "Eval " + _squared("stop") + " * $;",
        "Eval " + _squared("(\\y. print y (stop #0))") + " * $;",
        "Extract sigma01 (\\u. " + _squared("(\\y. u y (\\z. z))") + ") with pred;",
        "Extract sigma01 trace (\\u. " + _squared("(\\y. u y (\\w. u #1 (\\z. z)))") + ") with pred;",
    ],
    ids=["final", "print", "witness", "guesses"],
)
def test_numeral_too_large_to_print_is_one_error_line(statement, json_like, tmp_path, capsys):
    path = tmp_path / "big.lc"
    path.write_text("Define sq { [x] u -> u * #(x * x) . ...; };\n" + statement + "\n")
    argv = ["run", str(path)] + (["--json-like"] if json_like else [])
    assert main(argv) == EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: numeral too large to print (27214 bits)\n"


class TestCliFuzz:
    """Seeded character-level mutants of a script with every statement kind
    go through ``lamc run``: each ends in a documented exit code, no
    exception escapes, and a failure prints exactly one ``error:`` line."""

    SCRIPT = build_script(5) + (
        "Extract sigma01 (\\u. u #0 (\\z. z)) with pred;\n"
        "Translate term \\x y. x (y #2);\n"
        "Translate formula forall X. X(0) -> exists y. X(y);\n"
        "Translate process cc * (\\k. k #3) . stop . $;\n"
        "Simulate cc * (\\k. k #3) . stop . $ fuel 10;\n"
    )
    INSERTS = list("\\.*$()[]{};,=<>|+#-/'_ \n") + [
        "²", "٣", "#²", "#٣", "--", "#(", "->", "...", "k[", "12345678901234567890",
        "9" * 5000, "#" + "9" * 5000,
    ]

    def _mutant(self, rng: random.Random) -> str:
        text = self.SCRIPT
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text))
            op = rng.randrange(3)
            if op == 0:  # delete a few characters
                text = text[:i] + text[i + rng.randint(1, 3):]
            elif op == 1:  # insert
                text = text[:i] + rng.choice(self.INSERTS) + text[i:]
            else:  # replace one character
                text = text[:i] + rng.choice(self.INSERTS) + text[i + 1:]
        return text

    def test_mutants_exit_cleanly(self, tmp_path, capsys):
        rng = random.Random(2026)
        path = tmp_path / "mutant.lc"
        codes = set()
        for _ in range(300):
            text = self._mutant(rng)
            path.write_text(text, encoding="utf-8")
            code = main(["run", str(path), "--fuel", "20000"])
            out = capsys.readouterr()
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_UNVERIFIED, EXIT_FUEL), text
            if code == EXIT_PARSE:
                assert out.err.startswith("error: ") and out.err.count("\n") == 1, text
            codes.add(code)
        assert {EXIT_OK, EXIT_PARSE} <= codes


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
        defs, term = self._files(tmp_path, realizer)
        argv = ["extract", "--mode", mode, "--realizer", term, "--f", symbol, "--script", defs]
        argv += ["--trace-guesses"] if trace else []
        argv += ["--fuel", str(fuel)] if fuel is not None else []
        if trace and mode != "sigma01":
            # only the sigma01 driver records guesses; both forms refuse the switch
            message = f"trace is for sigma01 extraction only, not {mode}"
            with pytest.raises(ScriptError) as exc:
                run_script_text(self.DEFS + stmt, fuel=fuel)
            assert str(exc.value) == message
            assert main(argv) == EXIT_PARSE
            assert capsys.readouterr() == ("", f"error: {message}\n")
            return
        script = run_script_text(self.DEFS + stmt, fuel=fuel)
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
        with pytest.raises(ExtractionError) as exc:
            run_script_text(self.DEFS + rf"Extract {mode} (\u. u #0 (\z. z)) with h;")
        assert str(exc.value) == message
        defs, term = self._files(tmp_path, r"\u. u #0 (\z. z)")
        code = main(["extract", "--mode", mode, "--realizer", term, "--f", "h", "--script", defs])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("mode, calls", [("naive", 1), ("sigma01", 1), ("decidable", 2), ("kamikaze", 1)])
    def test_extract_builds_the_oracle_once(self, tmp_path, capsys, monkeypatch, mode, calls):
        """One ``sigma01_oracle`` per extraction; the decidable mode's
        decider checks the symbol's arity with a second."""
        import lamc.extract
        import lamc.script

        seen = []
        real = lamc.extract.sigma01_oracle
        for module in (lamc.script, lamc.extract):
            monkeypatch.setattr(module, "sigma01_oracle", lambda f, sig: seen.append(f) or real(f, sig))
        realizer = tmp_path / "realizer.lc"
        realizer.write_text("realizer")
        script = pathlib.Path(__file__).resolve().parent.parent / "demos" / "min_principle_c10.lc"
        argv = ["extract", "--mode", mode, "--realizer", str(realizer), "--f", "fleq", "--script", str(script)]
        assert main(argv) == (EXIT_UNVERIFIED if mode == "naive" else EXIT_OK)
        assert capsys.readouterr().out.startswith(f"extract {mode}: ")
        assert seen == ["fleq"] * calls

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["translate", "--term", r"\x. x"],
            ["extract", "--mode", "sigma01", "--f", "pred"],
        ],
        ids=["translate", "extract"],
    )
    def test_script_option_runs_only_definitions(self, tmp_path, capsys, argv):
        # a continuation constant is rejected when an Eval runs; the option
        # runs none, so its output is that of the definitions alone
        if argv[0] == "extract":
            _, term = self._files(tmp_path, r"\u. u #1 (\z. z)")
            argv = argv + ["--realizer", term]
        defs = tmp_path / "defs-only.lc"
        defs.write_text(self.DEFS)
        assert main(argv + ["--script", str(defs)]) == EXIT_OK
        expected = capsys.readouterr()
        script = tmp_path / "with-eval.lc"
        script.write_text(self.DEFS + "Eval k[$] * $;\n")
        assert main(argv + ["--script", str(script)]) == EXIT_OK
        assert capsys.readouterr() == expected

    def test_script_option_runs_no_job(self, tmp_path, capsys, monkeypatch):
        from lamc.script import ScriptRunner

        def refuse(self, stmt):
            raise AssertionError(f"ran {type(stmt).__name__}")

        for job in ("eval", "extract", "translate", "simulate"):
            monkeypatch.setattr(ScriptRunner, f"_run_{job}", refuse)
        script = tmp_path / "jobs.lc"
        script.write_text(
            self.DEFS
            + "Eval (\\x. x x) (\\x. x x) * $;\nExtract sigma01 (\\u. u #0 (\\z. z)) with pred;\n"
            + "Translate term \\x. x;\nSimulate (\\x. x) * #1 . $;\n"
        )
        assert main(["translate", "--term", r"\x. x", "--script", str(script)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("translate term: ")


class TestUntranslatableSimulate:
    """A process outside the CPS translation is an error for Simulate as
    for Translate, also when the machine halts on it at once."""

    @pytest.mark.parametrize("process", ["print * $", r"stop * (\x. print) . $"])
    def test_cli(self, capsys, process):
        assert main(["translate", "--process", process]) == EXIT_PARSE
        expected = capsys.readouterr()
        assert expected.err.startswith("error: instruction 'print' has no CPS translation")
        assert main(["simulate", "--process", process]) == EXIT_PARSE
        assert capsys.readouterr() == expected
        assert expected.out == "" and expected.err.count("\n") == 1

    def test_script(self, tmp_path, capsys):
        path = tmp_path / "i.lc"
        outputs = []
        for job in ("Simulate", "Translate process"):
            path.write_text(f"Define I = \\x. x; {job} I * $;\n")
            assert main(["run", str(path)]) == EXIT_PARSE
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        out = outputs[0]
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("error: instruction 'I' has no CPS translation")


class TestRunTrace:
    """`lamc run --trace` steps the Eval runs, whose lines it prints, and
    nothing else: not an extraction, and nothing under --json-like."""

    SCRIPT = build_script(10) + "Extract sigma01 realizer with fleq;\n"

    def traces(self, monkeypatch):
        """The processes that the script runner steps for trace lines."""
        import lamc.script

        seen = []
        real = lamc.script.iter_steps
        monkeypatch.setattr(lamc.script, "iter_steps", lambda p, cfg: seen.append(print_process(p)) or real(p, cfg))
        return seen

    def test_extraction_runs_untraced(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "demo.lc"
        path.write_text(self.SCRIPT)
        assert main(["run", str(path)]) == EXIT_OK
        plain = capsys.readouterr().out
        stepped = self.traces(monkeypatch)
        assert main(["run", str(path), "--trace"]) == EXIT_OK
        traced = capsys.readouterr().out
        assert stepped == [r"realizer * (\x y. print x y (stop x)) . $"]
        steps = [line for line in traced.splitlines(keepends=True) if line.startswith("step ")]
        assert len(steps) == int(plain.split("steps: ")[1].split()[0])
        assert "".join(line for line in traced.splitlines(keepends=True) if line not in steps) == plain

    def test_json_like_runs_untraced(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "demo.lc"
        path.write_text(self.SCRIPT)
        assert main(["run", str(path), "--json-like"]) == EXIT_OK
        plain = capsys.readouterr().out
        stepped = self.traces(monkeypatch)
        assert main(["run", str(path), "--json-like", "--trace"]) == EXIT_OK
        assert capsys.readouterr().out == plain
        assert stepped == []

    def test_fuel_bounds_the_trace(self, tmp_path, capsys):
        path = tmp_path / "omega.lc"
        path.write_text("Eval (\\x. x x) (\\x. x x) * $;\n")
        assert main(["run", str(path), "--fuel", "5", "--trace"]) == EXIT_FUEL
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("step ")] == [f"step {k}" for k in range(1, 6)]
        assert "steps: 5" in lines


def test_open_saved_stack_exits_with_one_line(capsys):
    code = main(["translate", "--term", r"\x. k[x . $]"])
    out = capsys.readouterr()
    assert code == EXIT_PARSE and out.out == ""
    assert out.err == "error: 1:7: unbound name 'x'\n"


def test_deep_input_exits_without_traceback(capsys):
    depth = 100_000
    code = main(["translate", "--process", "(" * depth + "stop" + ")" * depth + " * $"])
    out = capsys.readouterr()
    assert code == EXIT_OK and out.err == ""
    assert main(["translate", "--process", "stop * $"]) == EXIT_OK
    assert out.out == capsys.readouterr().out


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


def test_numeral_above_the_cps_bound_is_one_error_line(capsys):
    assert main(["translate", "--term", "#99999999999999999999"]) == EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: numeral too large to translate (more than 10000000)\n"


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
