"""The .lc script language: parser and runner.

A script is an ordered list of statements, terminated by semicolons, with
comments running from -- to end of line:

    Prim f(x) { f(x) = minus(x, 1000) + minus(1000, x); }
    Define pair = \\x y z. z x y;
    Define test_le { [n] [m] u v when n <= m -> u * ...; [n] [m] u v -> v * ...; };
    Define min_aux { ... } and min_snd { ... };
    use min_princ;
    Eval realizer * (\\x y. print x y (stop x)) . $;
    Extract sigma01 realizer with fleq;
    Translate term \\x. x;
    Simulate (\\x. x) (\\y. y) * $ fuel 40;

Names defined by Define/use are instructions, lambda-bound names are
variables.  Rule right-hand sides may push computed numerals #(expr) and
must end in the implicit stack tail '...'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .arith import EApp, EVar, Equation, Pattern, _parse_expr, default_signature, eval_expr
from .extract import (
    extract_decidable,
    extract_kamikaze,
    extract_naive,
    extract_sigma01,
    make_decider_sigma01,
    sigma01_refuter,
)
from .formulas import Formula, PredVar, print_formula
from .ha2 import Ha2Error, read_witness
from .machine import (
    BindNumeral,
    BindTerm,
    Guard,
    InstructionRule,
    LitNumeral,
    MachineConfig,
    RESERVED_INSTRUCTIONS,
    RunOutcome,
    TExpr,
    macro_rule,
    register_batch,
    run,
)
from .negtrans import ReturnFormula, cps_process, cps_term, formula_bot, formula_nn
from .simulate import simulate_run
from .stdlib import catalog as stdlib_catalog
from .syntax import (
    BOTTOM,
    LamcError,
    ParseError,
    Process,
    Stack,
    Term,
    _lex,
    _TermParser,
    _TokenStream,
    free_vars,
    is_proof_like,
    print_process,
    print_term,
)


class ScriptError(LamcError):
    pass


STATEMENT_KEYWORDS = frozenset(
    {"Prim", "Define", "use", "Eval", "Extract", "Translate", "Simulate"}
)
STOP_WORDS = frozenset({"and", "when", "with", "fuel", "trace"})

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNVERIFIED = 2
EXIT_FUEL = 3

EXTRACTION_MODES = ("naive", "sigma01", "decidable", "kamikaze")

# display alias for the statistics table: the machine counts the Call/cc
# rule under the instruction name cc, the table prints it as callcc
STAT_LABELS = {"cc": "callcc"}


# ---------------------------------------------------------------------------
# statements


@dataclass(frozen=True)
class PrimStmt:
    name: str
    arity: int
    equations: tuple[Equation, ...]


@dataclass(frozen=True)
class DefineItem:
    name: str
    term: Term | None = None
    rules: tuple[InstructionRule, ...] = ()


@dataclass(frozen=True)
class DefineStmt:
    items: tuple[DefineItem, ...]


@dataclass(frozen=True)
class UseStmt:
    name: str


@dataclass(frozen=True)
class EvalStmt:
    process: Process


@dataclass(frozen=True)
class ExtractStmt:
    mode: str
    realizer: Term
    symbol: str
    trace: bool = False


@dataclass(frozen=True)
class TranslateStmt:
    kind: str  # "term" | "formula" | "process"
    term: Term | None = None
    process: Process | None = None
    formula: Formula | None = None


@dataclass(frozen=True)
class SimulateStmt:
    process: Process
    fuel: int = 40


Statement = PrimStmt | DefineStmt | UseStmt | EvalStmt | ExtractStmt | TranslateStmt | SimulateStmt


@dataclass(frozen=True)
class Script:
    statements: tuple[Statement, ...]


# ---------------------------------------------------------------------------
# parsing


class _SigView:
    """Signature facade during parsing: declared arities, not yet defined."""

    def __init__(self, arities: dict[str, int]):
        self.arities = arities

    def __contains__(self, name: str) -> bool:
        return name in self.arities

    def arity(self, name: str) -> int:
        return self.arities[name]


class _TemplateParser(_TermParser):
    """Term parser extended with #(expr) atoms for rule right-hand sides."""

    def __init__(self, ts, instructions, sig_view):
        super().__init__(ts, instructions, strict=True, stop_words=STOP_WORDS)
        self.sig_view = sig_view

    def atom(self, bound, optional=False):
        if self.ts.peek().text == "#(":
            self.ts.next()
            e = _parse_expr(self.ts, self.sig_view)
            self.ts.expect(")")
            return TExpr(e)
        return super().atom(bound, optional)


class ScriptParser:
    def __init__(self, text: str):
        self.ts = _TokenStream(_lex(text))
        self.inst_names: set[str] = set(RESERVED_INSTRUCTIONS)
        self.base_sig = default_signature()  # the signature scripts start from
        self.sym_arities: dict[str, int] = {
            name: d.arity for name, d in self.base_sig.symbols.items()
        }
        self.catalog = stdlib_catalog()

    # -- helpers

    def sig_view(self) -> _SigView:
        return _SigView(self.sym_arities)

    def term_parser(self, stop: frozenset[str] = STOP_WORDS) -> _TermParser:
        return _TermParser(self.ts, frozenset(self.inst_names), strict=True, stop_words=stop)

    def parse(self) -> Script:
        statements: list[Statement] = []
        while True:
            tok = self.ts.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "ident" or tok.text not in STATEMENT_KEYWORDS:
                raise ParseError(
                    f"expected a statement keyword, found {tok.text!r}", tok.line, tok.col
                )
            statements.append(getattr(self, "_stmt_" + tok.text.lower())())
        return Script(tuple(statements))

    def _semi(self) -> None:
        self.ts.expect(";")

    def _semi_after_block(self) -> None:
        """Statement terminator; optional right after a closing brace."""
        if self.ts.peek().text == ";":
            self.ts.next()
            return
        prev = self.ts.tokens[self.ts.pos - 1]
        if prev.text != "}":
            raise self.ts.error("expected ';'")

    # -- statements

    def _stmt_prim(self) -> PrimStmt:
        self.ts.expect("Prim")
        name_tok = self.ts.next()
        if name_tok.kind != "ident":
            raise ParseError("expected a symbol name after Prim", name_tok.line, name_tok.col)
        name = name_tok.text
        self.ts.expect("(")
        params: list[str] = []
        if self.ts.peek().text != ")":
            params.append(self.ts.next().text)
            while self.ts.peek().text == ",":
                self.ts.next()
                params.append(self.ts.next().text)
        self.ts.expect(")")
        arity = len(params)
        view = _SigView(dict(self.sym_arities, **{name: arity}))
        self.ts.expect("{")
        equations: list[Equation] = []
        while self.ts.peek().text != "}":
            equations.append(self._equation(name, arity, view))
        self.ts.expect("}")
        self._semi_after_block()
        self.sym_arities[name] = arity
        return PrimStmt(name, arity, tuple(equations))

    def _equation(self, name: str, arity: int, view: _SigView) -> Equation:
        head = self.ts.next()
        if head.text != name:
            raise ParseError(f"equation must define {name!r}", head.line, head.col)
        self.ts.expect("(")
        patterns: list[Pattern] = []
        if self.ts.peek().text != ")":
            while True:
                patterns.append(self._pattern())
                if self.ts.peek().text != ",":
                    break
                self.ts.next()
        self.ts.expect(")")
        if len(patterns) != arity:
            raise ParseError(f"{name!r} has arity {arity}", head.line, head.col)
        self.ts.expect("=")
        rhs = _parse_expr(self.ts, view)
        self._semi()
        return Equation(tuple(patterns), rhs)

    def _pattern(self) -> Pattern:
        tok = self.ts.next()
        if tok.kind == "nat" and tok.text == "0":
            return Pattern("zero")
        if tok.kind == "ident" and tok.text == "s":
            if self.ts.peek().text == "(":
                self.ts.next()
                v = self.ts.next().text
                self.ts.expect(")")
            else:
                v = self.ts.next().text
            return Pattern("succ", v)
        if tok.kind == "ident":
            return Pattern("var", tok.text)
        raise ParseError(
            "expected a pattern: a variable, 0, or s applied to a variable", tok.line, tok.col
        )

    def _stmt_define(self) -> DefineStmt:
        self.ts.expect("Define")
        names = self._prescan_define_names()
        self.inst_names.update(names)
        items: list[DefineItem] = []
        while True:
            name_tok = self.ts.next()
            name = name_tok.text
            if name_tok.kind != "ident" or name in RESERVED_INSTRUCTIONS:
                raise ParseError(f"cannot define {name!r}", name_tok.line, name_tok.col)
            if self.ts.peek().text == "=":
                self.ts.next()
                term = self.term_parser().term(frozenset())
                items.append(DefineItem(name, term=term))
            elif self.ts.peek().text == "{":
                self.ts.next()
                rules: list[InstructionRule] = []
                while self.ts.peek().text != "}":
                    rules.append(self._rule(name))
                self.ts.expect("}")
                items.append(DefineItem(name, rules=tuple(rules)))
            else:
                raise self.ts.error("expected '=' or '{' in Define")
            if self.ts.peek().text == "and":
                self.ts.next()
                continue
            break
        self._semi_after_block()
        return DefineStmt(tuple(items))

    def _prescan_define_names(self) -> list[str]:
        """Item names of the current Define statement (for mutual recursion)."""
        names: list[str] = []
        depth = 0
        expect_name = True
        i = self.ts.pos
        toks = self.ts.tokens
        while i < len(toks):
            tok = toks[i]
            if tok.kind == "eof":
                break
            if tok.text in "({[":
                depth += 1
            elif tok.text in ")}]":
                depth -= 1
                if depth == 0 and tok.text == "}" and toks[i + 1].text != "and":
                    break
            elif depth == 0:
                if tok.text == ";":
                    break
                if expect_name and tok.kind == "ident":
                    names.append(tok.text)
                    expect_name = False
                elif tok.text == "and":
                    expect_name = True
            i += 1
        return names

    def _rule(self, name: str) -> InstructionRule:
        patterns: list = []
        while True:
            tok = self.ts.peek()
            if tok.text == "[":
                self.ts.next()
                v = self.ts.next().text
                self.ts.expect("]")
                patterns.append(BindNumeral(v))
            elif tok.kind == "numlit":
                self.ts.next()
                patterns.append(LitNumeral(int(tok.text)))
            elif tok.kind == "ident" and tok.text not in ("when",):
                self.ts.next()
                patterns.append(BindTerm(tok.text))
            else:
                break
        guard = None
        num_vars = {p.var for p in patterns if isinstance(p, BindNumeral)}
        view = self.sig_view()
        if self.ts.peek().text == "when":
            self.ts.next()
            left = _parse_expr(self.ts, view)
            op_tok = self.ts.next()
            if op_tok.text not in ("=", "<=", "<"):
                raise ParseError("guard operator must be =, <= or <", op_tok.line, op_tok.col)
            right = _parse_expr(self.ts, view)
            guard = Guard(op_tok.text, left, right)
        self.ts.expect("->")
        bound = frozenset(p.var for p in patterns if isinstance(p, (BindTerm, BindNumeral)))
        tparser = _TemplateParser(self.ts, frozenset(self.inst_names), view)
        rhs_term = tparser.term(bound)
        self.ts.expect("*")
        rhs_stack: list[Term] = []
        while self.ts.peek().text != "...":
            atom = tparser.atom(bound)
            rhs_stack.append(atom)
            self.ts.expect(".")
        self.ts.expect("...")
        self._semi()
        return InstructionRule(name, tuple(patterns), rhs_term, tuple(rhs_stack), guard)

    def _stmt_use(self) -> UseStmt:
        self.ts.expect("use")
        tok = self.ts.next()
        if tok.kind != "ident" or tok.text not in self.catalog:
            raise ParseError(f"unknown catalog term {tok.text!r}", tok.line, tok.col)
        self._semi()
        self.inst_names.add(tok.text)
        return UseStmt(tok.text)

    def _stmt_eval(self) -> EvalStmt:
        self.ts.expect("Eval")
        parser = self.term_parser()
        process = parser.process(frozenset())
        self._semi()
        return EvalStmt(process)

    def _stmt_extract(self) -> ExtractStmt:
        self.ts.expect("Extract")
        mode_tok = self.ts.next()
        if mode_tok.text not in EXTRACTION_MODES:
            raise ParseError(f"unknown extraction mode {mode_tok.text!r}", mode_tok.line, mode_tok.col)
        trace = False
        if self.ts.peek().text == "trace":
            self.ts.next()
            trace = True
        realizer = self.term_parser().term(frozenset())
        self.ts.expect("with")
        sym_tok = self.ts.next()
        if sym_tok.text not in self.sym_arities:
            raise ParseError(f"unknown function symbol {sym_tok.text!r}", sym_tok.line, sym_tok.col)
        self._semi()
        return ExtractStmt(mode_tok.text, realizer, sym_tok.text, trace)

    def _stmt_translate(self) -> TranslateStmt:
        self.ts.expect("Translate")
        kind_tok = self.ts.next()
        kind = kind_tok.text
        if kind == "term":
            t = self.term_parser().term(frozenset())
            self._semi()
            return TranslateStmt("term", term=t)
        if kind == "process":
            p = self.term_parser().process(frozenset())
            self._semi()
            return TranslateStmt("process", process=p)
        if kind == "formula":
            # formulas run to the terminating semicolon
            f = self._parse_formula_until_semi()
            return TranslateStmt("formula", formula=f)
        raise ParseError("Translate expects term, formula or process", kind_tok.line, kind_tok.col)

    def _parse_formula_until_semi(self) -> Formula:
        from .formulas import _formula

        f = _formula(self.ts, self.sig_view(), "pa2")
        self._semi()
        return f

    def _stmt_simulate(self) -> SimulateStmt:
        self.ts.expect("Simulate")
        process = self.term_parser().process(frozenset())
        fuel = 40
        if self.ts.peek().text == "fuel":
            self.ts.next()
            tok = self.ts.next()
            if tok.kind != "nat":
                raise ParseError("fuel expects a number", tok.line, tok.col)
            fuel = int(tok.text)
        self._semi()
        return SimulateStmt(process, fuel)


def parse_script(text: str) -> Script:
    return ScriptParser(text).parse()


# ---------------------------------------------------------------------------
# running


@dataclass(frozen=True)
class ScriptResult:
    exit_code: int
    text: str
    doc: dict

    def __str__(self) -> str:
        return self.text


def _calls_table(outcome: RunOutcome) -> list[tuple[str, int]]:
    calls = outcome.instruction_calls()
    rows = [(STAT_LABELS.get(name, name), count) for name, count in calls.items()]
    rows.sort(key=lambda rc: (-rc[1], rc[0]))
    return rows


def _halt_line(outcome: RunOutcome) -> str:
    halt = outcome.halt
    return f"halt: {halt.kind}" + (f" {halt.value}" if halt.value is not None else "")


def _format_outcome(outcome: RunOutcome, lines: list[str]) -> None:
    for n in outcome.printed:
        lines.append(f"print: {n}")
    lines.append(f"final: {print_process(outcome.final)}")
    lines.append(_halt_line(outcome))
    lines.append(f"steps: {outcome.steps}")
    lines.append("instruction calls:")
    for label, count in _calls_table(outcome):
        lines.append(f"  {label:<12} {count}")


def _halt_doc(outcome: RunOutcome) -> dict:
    return {"kind": outcome.halt.kind, "value": outcome.halt.value}


# A statement's output: its text lines, its document and its exit code.
StatementOutput = tuple[list[str], dict, int]


def extract_statement(
    mode: str,
    realizer: Term,
    symbol: str,
    cfg: MachineConfig,
    stack: Stack = BOTTOM,
    trace: bool = False,
) -> StatementOutput:
    """Run one extraction mode for 'exists x with symbol(x) = 0'; the
    naive, decidable and kamikaze verdicts come from evaluating the symbol."""
    arity = cfg.sig.arity(symbol)
    if arity != 1:
        raise ScriptError(
            f"extraction needs a unary predicate symbol; {symbol!r} has arity {arity}"
        )

    def oracle(n: int) -> bool:
        return eval_expr(EApp(symbol, (EVar("x"),)), {"x": n}, cfg.sig) == 0

    if mode == "sigma01":
        report = extract_sigma01(realizer, symbol, cfg, stack, trace)
    elif mode == "naive":
        report = extract_naive(realizer, cfg, stack, oracle)
    elif mode == "decidable":
        d = make_decider_sigma01(symbol, cfg)
        report = extract_decidable(realizer, d, sigma01_refuter(), oracle, cfg, stack)
    else:
        report = extract_kamikaze(realizer, sigma01_refuter(), cfg, stack, oracle)
    verified = {True: "true", False: "false", None: "unknown"}[report.verified]
    witness = "none" if report.witness is None else str(report.witness)
    lines = [f"extract {report.mode}: witness {witness} verified {verified}"]
    if report.guesses:
        lines.append("guesses: " + " ".join(str(n) for n in report.guesses))
    lines.append(_halt_line(report.outcome))
    lines.append(f"steps: {report.outcome.steps}")
    if report.verified is not True:
        code = EXIT_UNVERIFIED
    elif report.outcome.halt.kind == "fuel":
        code = EXIT_FUEL
    else:
        code = EXIT_OK
    return lines, {"kind": "extract", **report.to_dict()}, code


def simulate_statement(process: Process, fuel: int) -> StatementOutput:
    """Check the simulation along a closed-world run of at most fuel steps."""
    report = simulate_run(process, fuel=fuel)
    line = (
        f"simulate: machine-steps {report.machine_steps} verified {report.verified} "
        f"failed {report.failed} inconclusive {report.inconclusive} halt {report.halt_kind}"
    )
    doc = {
        "kind": "simulate",
        "machine_steps": report.machine_steps,
        "verified": report.verified,
        "failed": report.failed,
        "inconclusive": report.inconclusive,
        "halt": report.halt_kind,
    }
    return [line], doc, EXIT_UNVERIFIED if report.failed else EXIT_OK


def translate_statement(
    subject: Term | Process | Formula,
    R: ReturnFormula = ReturnFormula(PredVar("R")),
    witness_fuel: int | None = None,
) -> StatementOutput:
    """Translate a term, a process or a PA2+ formula (against the return
    formula R); with witness_fuel, also weak-reduce a process image and
    read its witness."""
    if isinstance(subject, Formula):
        bot = print_formula(formula_bot(subject, R))
        nn = print_formula(formula_nn(subject, R))
        lines = [f"translate formula bot: {bot}", f"translate formula nn: {nn}"]
        return lines, {"kind": "translate", "subject": "formula", "bot": bot, "nn": nn}, EXIT_OK
    kind = "process" if isinstance(subject, Process) else "term"
    image = cps_process(subject) if kind == "process" else cps_term(subject)
    out = print_term(image)
    lines = [f"translate {kind}: {out}"]
    doc = {"kind": "translate", "subject": kind, "output": out}
    if witness_fuel is not None and kind == "process":
        try:
            found = read_witness(image, fuel=witness_fuel)
        except Ha2Error:
            # the only error read_witness raises: its fuel ran out
            doc["witness"] = doc["head_steps"] = None
            doc["halt"] = "fuel"
            lines.append("witness: unknown fuel")
            return lines, doc, EXIT_FUEL
        if found is None:
            doc["witness"] = doc["head_steps"] = None
            lines.append("witness: none")
        else:
            doc["witness"] = found.n
            doc["head_steps"] = found.head_steps
            lines.append(f"witness: {found.n} head-steps {sum(found.head_steps.values())}")
    return lines, doc, EXIT_OK


class ScriptRunner:
    """Executes statements in order against a growing configuration."""

    def __init__(self, fuel: int | None = None, trace: bool = False):
        cfg = MachineConfig(trace=trace)
        if fuel is not None:
            cfg = replace(cfg, fuel=fuel)
        self.cfg = cfg
        self.catalog = stdlib_catalog()
        self.lines: list[str] = []
        self.doc: list[dict] = []
        self.codes: set[int] = set()

    # -- statement execution

    def execute(self, script: Script) -> ScriptResult:
        for stmt in script.statements:
            handler = "_run_" + type(stmt).__name__.removesuffix("Stmt").lower()
            getattr(self, handler)(stmt)
        # an unverified result (2) takes precedence over fuel exhaustion (3)
        code = next((c for c in (EXIT_UNVERIFIED, EXIT_FUEL) if c in self.codes), EXIT_OK)
        return ScriptResult(code, "\n".join(self.lines) + ("\n" if self.lines else ""), {"statements": self.doc})

    def _emit(self, output: StatementOutput) -> None:
        lines, doc, code = output
        self.lines.extend(lines)
        self.doc.append(doc)
        self.codes.add(code)

    def _run_prim(self, stmt: PrimStmt) -> None:
        sig = self.cfg.sig.define(stmt.name, stmt.arity, list(stmt.equations))
        self.cfg = replace(self.cfg, sig=sig)

    def _run_define(self, stmt: DefineStmt) -> None:
        definitions: dict[str, list[InstructionRule]] = {}
        for item in stmt.items:
            if item.term is not None:
                if free_vars(item.term):
                    raise ScriptError(f"Define {item.name}: term is not closed")
                definitions[item.name] = [macro_rule(item.name, item.term)]
            else:
                definitions[item.name] = list(item.rules)
        self.cfg = register_batch(self.cfg, definitions)

    def _run_use(self, stmt: UseStmt) -> None:
        named = self.catalog[stmt.name]
        self.cfg = register_batch(self.cfg, {stmt.name: [macro_rule(stmt.name, named.term)]})

    def _check_no_kont(self, subject, what: str) -> None:
        if not is_proof_like(subject):
            raise ScriptError(f"{what}: continuation constants cannot be written in scripts")

    def _run_eval(self, stmt: EvalStmt) -> None:
        self._check_no_kont(stmt.process, "Eval")
        outcome = run(stmt.process, self.cfg)
        lines = [f"eval: {print_process(stmt.process)}"]
        if self.cfg.trace:
            lines.extend(outcome.trace)
        _format_outcome(outcome, lines)
        doc = {
            "kind": "eval",
            "process": print_process(stmt.process),
            "final": print_process(outcome.final),
            "halt": _halt_doc(outcome),
            "steps": outcome.steps,
            "printed": list(outcome.printed),
            "calls": dict(_calls_table(outcome)),
        }
        self._emit((lines, doc, EXIT_FUEL if outcome.halt.kind == "fuel" else EXIT_OK))

    def _run_extract(self, stmt: ExtractStmt) -> None:
        self._check_no_kont(stmt.realizer, "Extract")
        self._emit(
            extract_statement(stmt.mode, stmt.realizer, stmt.symbol, self.cfg, trace=stmt.trace)
        )

    def _run_translate(self, stmt: TranslateStmt) -> None:
        if stmt.kind == "process":
            self._check_no_kont(stmt.process, "Translate")
        subject = {"term": stmt.term, "process": stmt.process, "formula": stmt.formula}[stmt.kind]
        self._emit(translate_statement(subject))

    def _run_simulate(self, stmt: SimulateStmt) -> None:
        self._check_no_kont(stmt.process, "Simulate")
        self._emit(simulate_statement(stmt.process, stmt.fuel))


def run_script_text(text: str, fuel: int | None = None, trace: bool = False) -> ScriptResult:
    script = parse_script(text)
    return ScriptRunner(fuel=fuel, trace=trace).execute(script)


def run_script(path: str, fuel: int | None = None, trace: bool = False) -> ScriptResult:
    with open(path, "r", encoding="utf-8") as handle:
        return run_script_text(handle.read(), fuel=fuel, trace=trace)
