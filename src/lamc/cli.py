"""Command-line front end: run scripts, extract witnesses, translate,
check simulations and compare run statistics."""

from __future__ import annotations

import argparse
import json
import sys

from .formulas import parse_formula, parse_hformula
from .ha2 import WITNESS_FUEL
from .negtrans import ReturnFormula
from .script import (
    EXIT_PARSE,
    EXTRACTION_MODES,
    Script,
    StatementOutput,
    combined_exit,
    definitions_config,
    extract_statement,
    parse_script,
    run_script,
    simulate_statement,
    translate_statement,
)
from .simulate import SIMULATE_FUEL
from .syntax import LamcError, _decimal, parse_process, parse_stack, parse_term


class UsageError(LamcError):
    """A command line that does not parse: a validation error (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``UsageError``, which ``main`` prints as one
    ``error:`` line with exit status 1.  (argparse would print a usage
    block and exit 2, the status of an unverified witness.)  The
    subcommand parsers are of this class too."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _budget(text: str) -> int:
    """A ``--fuel`` value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lamc",
        description="Krivine machine, witness extraction and CPS translation "
        "for the lambda-c calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a .lc script")
    p_run.add_argument("script")
    p_run.add_argument("--fuel", type=_budget, default=None)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--json-like", action="store_true")

    p_ext = sub.add_parser("extract", help="run a witness extraction driver")
    p_ext.add_argument("--mode", required=True, choices=EXTRACTION_MODES)
    p_ext.add_argument("--realizer", required=True, help="file containing a lambda-c term")
    p_ext.add_argument("--f", required=True, help="unary predicate symbol (f(x) = 0)")
    p_ext.add_argument("--script", help="script whose definitions set up the environment")
    p_ext.add_argument("--trace-guesses", action="store_true")
    p_ext.add_argument("--fuel", type=_budget, default=None)
    p_ext.add_argument("--stack", default="$", help="initial stack literal")
    p_ext.add_argument("--json-like", action="store_true")

    p_tr = sub.add_parser("translate", help="negative/CPS translation")
    group = p_tr.add_mutually_exclusive_group(required=True)
    group.add_argument("--term")
    group.add_argument("--formula")
    group.add_argument("--process")
    p_tr.add_argument("--R", help="return formula (HA2 syntax)")
    p_tr.add_argument("--script", help="script whose definitions set up the environment")
    p_tr.add_argument("--read-witness", action="store_true",
                      help="with --process: weak-reduce the image and read the witness pair")
    p_tr.add_argument("--fuel", type=_budget, default=WITNESS_FUEL)
    p_tr.add_argument("--json-like", action="store_true")

    p_sim = sub.add_parser("simulate", help="check machine steps against weak reduction")
    p_sim.add_argument("--process", required=True)
    p_sim.add_argument("--fuel", type=_budget, default=SIMULATE_FUEL)
    p_sim.add_argument("--json-like", action="store_true")

    p_st = sub.add_parser("stats", help="instruction-call statistics of script runs")
    p_st.add_argument("scripts", nargs="+")
    p_st.add_argument("--fuel", type=_budget, default=None)

    return parser


def _environment(script_path: str | None, fuel: int | None):
    """The configuration that the definitions of a script set up."""
    script = Script(())
    if script_path:
        with open(script_path, "r", encoding="utf-8") as handle:
            script = parse_script(handle.read())
    return definitions_config(script, fuel)


def _cmd_run(args) -> int:
    # the document carries no trace lines
    result = run_script(args.script, fuel=args.fuel, trace=args.trace and not args.json_like)
    if args.json_like:
        print(json.dumps(result.doc, indent=2))
    else:
        sys.stdout.write(result.text)
    return result.exit_code


def _emit(output: StatementOutput, json_like: bool) -> int:
    lines, doc, code = output
    print(json.dumps(doc, indent=2) if json_like else "\n".join(lines))
    return code


def _cmd_extract(args) -> int:
    cfg = _environment(args.script, args.fuel)
    with open(args.realizer, "r", encoding="utf-8") as handle:
        realizer = parse_term(handle.read(), instructions=cfg.instructions, strict=True)
    stack = parse_stack(args.stack, instructions=cfg.instructions, strict=True)
    output = extract_statement(args.mode, realizer, args.f, cfg, stack, args.trace_guesses)
    return _emit(output, args.json_like)


def _cmd_translate(args) -> int:
    cfg = _environment(args.script, None)
    if args.formula is not None:
        subject = parse_formula(args.formula, cfg.sig)
    elif args.term is not None:
        subject = parse_term(args.term, instructions=cfg.instructions, strict=True)
    else:
        subject = parse_process(args.process, instructions=cfg.instructions, strict=True)
    R = ReturnFormula(parse_hformula(args.R or "R", cfg.sig))
    output = translate_statement(subject, R, args.fuel if args.read_witness else None)
    return _emit(output, args.json_like)


def _cmd_simulate(args) -> int:
    process = parse_process(args.process, strict=True)
    return _emit(simulate_statement(process, args.fuel), args.json_like)


def _cmd_stats(args) -> int:
    tables = []
    codes = set()
    for path in args.scripts:
        result = run_script(path, fuel=args.fuel)
        codes.add(result.exit_code)
        calls = {}
        printed: list[int] = []
        for stmt in result.doc["statements"]:
            if stmt["kind"] == "eval":
                for name, count in stmt["calls"].items():
                    calls[name] = calls.get(name, 0) + count
                printed.extend(stmt["printed"])
        tables.append((path, calls, printed))
    for path, calls, printed in tables:
        print(f"script: {path}")
        if printed:
            print("printed: " + " ".join(map(_decimal, printed)))
        for name, count in sorted(calls.items(), key=lambda rc: (-rc[1], rc[0])):
            print(f"  {name:<12} {count}")
    if len(tables) == 2:
        (_, a, pa), (_, b, pb) = tables
        print("diff:")
        print(f"  printed {'identical' if pa == pb else 'DIFFER'}")
        for name in sorted(set(a) | set(b)):
            if a.get(name, 0) != b.get(name, 0):
                print(f"  {name:<12} {a.get(name, 0)} vs {b.get(name, 0)}")
    return combined_exit(codes)


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "run": _cmd_run,
        "extract": _cmd_extract,
        "translate": _cmd_translate,
        "simulate": _cmd_simulate,
        "stats": _cmd_stats,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (LamcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too deep or too large ({type(exc).__name__})", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
