"""Abstract syntax for the lambda-c calculus and the HA2 term language.

Terms are pure lambda-terms enriched with named instructions, primitive
numerals and continuation constants.  Stacks are lists of closed terms over
a single bottom marker, and a process pairs a closed term with a stack.
HA2 terms (the image of the CPS translation) are the same lambda-terms with
the constants of ``HConst`` as their only other leaf.  Term equality is
alpha-equivalence, decided by one nameless-key walk (``KeyCache``, whose
uncached entry is ``alpha_key``) that ``==``, ``hash`` and the reducers'
seen-sets all use; printing keeps the user's binder names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union


BUILTIN_INSTRUCTIONS = frozenset({"cc", "s", "rec", "stop", "print"})

HA2_CONSTANTS = ("pair", "fst", "snd", "z0", "sc", "rec")

# accepted spellings in source text for builtin instructions
INSTRUCTION_ALIASES = {"callcc": "cc"}


class LamcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LamcError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# terms, stacks, processes


class Term:
    """Base class; equality and hashing are up to alpha-equivalence."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        # alpha-equivalent terms have the same top constructor and free variables
        if type(other) is not type(self) or other.fv != self.fv:
            return False
        keys = KeyCache()
        return keys.key(self) == keys.key(other)

    def __hash__(self) -> int:
        return hash(alpha_key(self))

    def __str__(self) -> str:
        return print_term(self)


_EMPTY_FV = frozenset()


@dataclass(frozen=True, eq=False, repr=True, slots=True)
class Var(Term):
    name: str
    fv: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fv", frozenset((self.name,)))


@dataclass(frozen=True, eq=False, repr=True, slots=True)
class Lam(Term):
    binder: str
    body: Term
    fv: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fv", self.body.fv - {self.binder})


@dataclass(frozen=True, eq=False, repr=True, slots=True)
class App(Term):
    fn: Term
    arg: Term
    fv: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fv", self.fn.fv | self.arg.fv)


@dataclass(frozen=True, eq=False, repr=True, slots=True)
class Inst(Term):
    """A named instruction (cc, s, rec, stop, print, or user-defined)."""

    name: str
    fv: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fv", _EMPTY_FV)


@dataclass(frozen=True, eq=False, repr=True, slots=True)
class Numeral(Term):
    """The primitive numeral constant; pure data, no evaluation rule."""

    n: int
    fv: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("numerals are naturals")
        object.__setattr__(self, "fv", _EMPTY_FV)


@dataclass(frozen=True, eq=False, repr=True, slots=True)
class Kont(Term):
    """Continuation constant capturing a whole stack; runtime-only."""

    saved: "Stack"
    fv: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fv", _EMPTY_FV)


@dataclass(frozen=True, eq=False, repr=True, slots=True)
class HConst(Term):
    """A constant of the HA2 term language (pair, fst, snd, z0, sc, rec)."""

    kind: str
    fv: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in HA2_CONSTANTS:
            raise ValueError(f"unknown constant {self.kind!r}")
        object.__setattr__(self, "fv", _EMPTY_FV)


def app(*terms: Term) -> Term:
    """The left-nested application t1 t2 ... tn."""
    t = terms[0]
    for u in terms[1:]:
        t = App(t, u)
    return t


def lam(binders: str, body: Term) -> Term:
    """The abstraction over the space-separated binders, outermost first."""
    for b in reversed(binders.split()):
        body = Lam(b, body)
    return body


def split_pair(t: Term) -> tuple[Term, Term] | None:
    """(a, b) when t is the HA2 pair ``pair a b``, else None."""
    match t:
        case App(App(HConst("pair"), a), b):
            return a, b
    return None


class Stack:
    __slots__ = ()

    def __str__(self) -> str:
        return print_stack(self)

    def __iter__(self) -> Iterator[Term]:
        s = self
        while isinstance(s, Push):
            yield s.top
            s = s.rest

    def __len__(self) -> int:
        return sum(1 for _ in self)


@dataclass(frozen=True)
class Bottom(Stack):
    __slots__ = ()


@dataclass(frozen=True)
class Push(Stack):
    top: Term
    rest: Stack


BOTTOM = Bottom()


def stack_of(*terms: Term, tail: Stack = BOTTOM) -> Stack:
    """Build the stack t1 . t2 . ... . tail."""
    s = tail
    for t in reversed(terms):
        s = Push(t, s)
    return s


@dataclass(frozen=True)
class Process:
    head: Term
    stack: Stack

    def __str__(self) -> str:
        return print_process(self)


Subject = Union[Term, Stack, Process]


# ---------------------------------------------------------------------------
# alpha-equivalence


_DONE = object()  # KeyCache.key's marker: the node below it has its children keyed


class KeyCache:
    """Interned nameless keys: ``key(t)`` is an int, equal for two terms
    keyed through one cache iff they are alpha-equivalent.

    Each distinct nameless node gets one id, the index of its token in
    ``tokens``: ``("a", fn id, arg id)`` for an application, ``("l", body
    id)`` for an abstraction, the de Bruijn index of its binder for a bound
    variable, ``("f", name)`` for a free variable, one tagged pair per
    constant, and ``("k", ids of the saved terms)`` for a continuation,
    whose saved terms are keyed in a fresh scope.  A token holds only ids
    made before it.  De Bruijn indices make the key of a closed node the
    same wherever it occurs, so closed nodes are also remembered by
    identity (and kept alive while the cache is): keying a term that
    shares closed subterms with one keyed before walks only its new
    nodes.  Explicit-stack walk: terms may be deep; it recurses only into
    nested continuations."""

    __slots__ = ("tokens", "_ids", "_closed", "_alive")

    def __init__(self) -> None:
        self.tokens: list = []  # id -> token
        self._ids: dict = {}  # token -> id
        self._closed: dict[int, int] = {}  # id() of a closed node -> its key id
        self._alive: list[Term] = []  # the nodes of _closed, so their id() stays theirs

    def key(self, t: Term) -> int:
        closed, ids, tokens, alive = self._closed, self._ids, self.tokens, self._alive
        levels: dict[str, list[int]] = {}  # name -> depths of its binders, innermost last
        depth = 0
        out: list[int] = []  # ids of the finished children
        todo: list = [t]  # a node to key, or _DONE above the node to finish
        while todo:
            t = todo.pop()
            if t is _DONE:
                t = todo.pop()
                if type(t) is App:
                    a = out.pop()
                    token = ("a", out.pop(), a)
                else:  # leaving the scope of this abstraction
                    levels[t.binder].pop()
                    depth -= 1
                    token = ("l", out.pop())
            else:
                if not t.fv:
                    i = closed.get(id(t))
                    if i is not None:
                        out.append(i)
                        continue
                cls = type(t)
                if cls is App:
                    todo += (t, _DONE, t.arg, t.fn)
                    continue
                if cls is Lam:
                    levels.setdefault(t.binder, []).append(depth)
                    depth += 1
                    todo += (t, _DONE, t.body)
                    continue
                if cls is Var:
                    bound = levels.get(t.name)
                    token = depth - 1 - bound[-1] if bound else ("f", t.name)
                elif cls is HConst:
                    token = ("c", t.kind)
                elif cls is Inst:
                    token = ("i", t.name)
                elif cls is Numeral:
                    token = ("n", t.n)
                elif cls is Kont:
                    token = ("k", tuple(self.key(e) for e in t.saved))
                else:
                    raise TypeError(f"not a term: {t!r}")
            i = ids.get(token)
            if i is None:
                i = ids[token] = len(tokens)
                tokens.append(token)
            if not t.fv:
                closed[id(t)] = i
                alive.append(t)
            out.append(i)
        return out[0]


def alpha_key(t: Term) -> tuple:
    """The nameless image of ``t``: equal keys iff alpha-equivalent.  It is
    the token table of a fresh ``KeyCache`` after keying ``t``, so each
    distinct subterm appears once, children before parents and ``t`` last,
    and the key decodes back to one term."""
    keys = KeyCache()
    keys.key(t)
    return tuple(keys.tokens)


# ---------------------------------------------------------------------------
# free variables and classification


def free_vars(t: Term) -> frozenset[str]:
    """The set FV(t).  Stacks contain closed terms, so Kont contributes none."""
    return t.fv


def is_closed(t: Term) -> bool:
    return not t.fv


def is_proof_like(subject: Subject) -> bool:
    """True when the subject contains no continuation constant."""
    match subject:
        case Process(head, stack):
            return is_proof_like(head) and is_proof_like(stack)
        case Push(top, rest):
            return is_proof_like(top) and is_proof_like(rest)
        case Bottom():
            return True
        case Kont(_):
            return False
        case Lam(_, body):
            return is_proof_like(body)
        case App(fn, arg):
            return is_proof_like(fn) and is_proof_like(arg)
        case _:
            return True


# ---------------------------------------------------------------------------
# substitution


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """A name different from ``base`` and everything in ``avoid``."""
    avoid = set(avoid)
    candidate = base + "'"
    while candidate in avoid:
        candidate += "'"
    return candidate


def pick_name(base: str, avoid: Iterable[str]) -> str:
    """``base`` itself when unused, otherwise a primed variant."""
    avoid = set(avoid)
    return base if base not in avoid else fresh_name(base, avoid)


def substitute(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding substitution t{x:=u}."""
    if x not in t.fv:
        return t
    match t:
        case Var(_):
            return u
        case Lam(binder, body):
            if binder in u.fv:
                renamed = fresh_name(binder, u.fv | body.fv | {x})
                body = substitute(body, binder, Var(renamed))
                return Lam(renamed, substitute(body, x, u))
            return Lam(binder, substitute(body, x, u))
        case App(fn, arg):
            return App(substitute(fn, x, u), substitute(arg, x, u))
        case _:
            # Inst, Numeral, Kont, HConst: no free variables inside
            return t


# ---------------------------------------------------------------------------
# stack extension t{<bottom>:=pi0}


def extend_stack_bottom(subject: Subject, pi0: Stack) -> Subject:
    """Replace every stack bottom by pi0, including inside continuations."""
    match subject:
        case Process(head, stack):
            return Process(
                extend_stack_bottom(head, pi0), extend_stack_bottom(stack, pi0)
            )
        case Bottom():
            return pi0
        case Push(top, rest):
            return Push(extend_stack_bottom(top, pi0), extend_stack_bottom(rest, pi0))
        case Kont(saved):
            return Kont(extend_stack_bottom(saved, pi0))
        case Lam(binder, body):
            return Lam(binder, extend_stack_bottom(body, pi0))
        case App(fn, arg):
            return App(extend_stack_bottom(fn, pi0), extend_stack_bottom(arg, pi0))
        case _:
            return subject


# ---------------------------------------------------------------------------
# lexer


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789'")


@dataclass(frozen=True)
class _Token:
    kind: str  # ident, numlit, punct, eof
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "-" and text[i : i + 2] == "--":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == "#":
            j = i + 1
            if j < n and text[j] == "(":
                tokens.append(_Token("punct", "#(", start_line, start_col))
                i = j + 1
                col += 2
                continue
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after '#'", line, col)
            tokens.append(_Token("numlit", text[i + 1 : j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(_Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("nat", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if text[i : i + 3] == "...":
            tokens.append(_Token("punct", "...", start_line, start_col))
            i += 3
            col += 3
            continue
        two = text[i : i + 2]
        if two in ("->", "<=", "==", "/\\", "\\/"):
            tokens.append(_Token("punct", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in "\\.*$()[]{};,=<>|":
            tokens.append(_Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        if c == "+":
            tokens.append(_Token("punct", "+", start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def finish(self, value):
        """value, once the input is used up; trailing input is an error."""
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return value


# ---------------------------------------------------------------------------
# term parser


class _TermParser:
    """Recursive-descent parser for the term/stack/process grammar.

    Name resolution: lambda-bound names are variables, known instruction
    names are instructions, anything else is a free variable (an error in
    strict mode).
    """

    def __init__(
        self,
        ts: _TokenStream,
        instructions: frozenset[str],
        strict: bool,
        stop_words: frozenset[str] = frozenset(),
    ):
        self.ts = ts
        self.instructions = instructions
        self.strict = strict
        self.stop_words = stop_words

    def term(self, bound: frozenset[str]) -> Term:
        tok = self.ts.peek()
        if tok.text == "\\":
            self.ts.next()
            binders: list[str] = []
            while self.ts.peek().kind == "ident":
                binders.append(self.ts.next().text)
            if not binders:
                raise self.ts.error("expected at least one binder after '\\'")
            self.ts.expect(".")
            body = self.term(bound | frozenset(binders))
            for b in reversed(binders):
                body = Lam(b, body)
            return body
        return self.app(bound)

    def app(self, bound: frozenset[str]) -> Term:
        t = self.atom(bound)
        if t is None:
            raise self.ts.error("expected a term")
        while True:
            u = self.atom(bound, optional=True)
            if u is None:
                return t
            t = App(t, u)

    def atom(self, bound: frozenset[str], optional: bool = False) -> Term | None:
        tok = self.ts.peek()
        if tok.kind == "ident" and tok.text in self.stop_words:
            if optional:
                return None
            raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
        if tok.kind == "numlit":
            self.ts.next()
            return Numeral(int(tok.text))
        if tok.kind == "ident":
            if tok.text == "k" and self.ts.peek(1).text == "[":
                self.ts.next()
                self.ts.expect("[")
                saved = self.stack(bound)
                self.ts.expect("]")
                return Kont(saved)
            self.ts.next()
            return self.resolve(tok, bound)
        if tok.text == "(":
            self.ts.next()
            t = self.term(bound)
            self.ts.expect(")")
            return t
        if tok.text == "\\":
            return self.term(bound)
        if optional:
            return None
        raise self.ts.error("expected a term")

    def resolve(self, tok: _Token, bound: frozenset[str]) -> Term:
        name = tok.text
        if name in bound:
            return Var(name)
        canonical = INSTRUCTION_ALIASES.get(name, name)
        if canonical in self.instructions:
            return Inst(canonical)
        if self.strict:
            raise ParseError(f"unbound name {name!r}", tok.line, tok.col)
        return Var(name)

    def stack(self, bound: frozenset[str]) -> Stack:
        tok = self.ts.peek()
        if tok.text == "$":
            self.ts.next()
            return BOTTOM
        top = self.atom(bound)
        if top is None:
            raise self.ts.error("expected a stack element or '$'")
        self.ts.expect(".")
        return Push(top, self.stack(bound))

    def process(self, bound: frozenset[str]) -> Process:
        head = self.term(bound)
        self.ts.expect("*")
        return Process(head, self.stack(bound))


def _parser_for(text: str, instructions: Iterable[str] | None, strict: bool) -> _TermParser:
    insts = frozenset(instructions) if instructions is not None else BUILTIN_INSTRUCTIONS
    return _TermParser(_TokenStream(_lex(text)), insts, strict)


def parse_term(
    text: str,
    instructions: Iterable[str] | None = None,
    strict: bool = False,
) -> Term:
    """Parse a term.  ``instructions`` extends the builtin instruction set;
    in strict mode unbound names are rejected."""
    p = _parser_for(text, instructions, strict)
    return p.ts.finish(p.term(frozenset()))


def parse_stack(
    text: str,
    instructions: Iterable[str] | None = None,
    strict: bool = False,
) -> Stack:
    p = _parser_for(text, instructions, strict)
    return p.ts.finish(p.stack(frozenset()))


def parse_process(
    text: str,
    instructions: Iterable[str] | None = None,
    strict: bool = False,
) -> Process:
    p = _parser_for(text, instructions, strict)
    return p.ts.finish(p.process(frozenset()))


# ---------------------------------------------------------------------------
# printer


def print_term(t: Term) -> str:
    """Render a term; application is left-associative, abstraction bodies
    extend maximally to the right, and the HA2 pair ``pair a b`` prints as
    ``<a; b>``.

    Free variables whose names collide with instruction names re-parse as
    instructions; parsed terms never contain such variables.
    """
    return _print(t, top=True)


def _print(t: Term, top: bool) -> str:
    # explicit stack of pending work, popped last first: a string is
    # emitted as is, a (term, top) pair is rendered
    out: list[str] = []
    todo: list = [(t, top)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, top = item
        close = [] if top else [")"]
        pair = split_pair(t)
        if pair is not None:
            todo += [">", (pair[1], True), "; ", (pair[0], True)]
            out.append("<")
        elif isinstance(t, Lam):
            binders = []
            while isinstance(t, Lam):
                binders.append(t.binder)
                t = t.body
            todo += close + [(t, True)]
            out.append(("\\" if top else "(\\") + " ".join(binders) + ". ")
        elif isinstance(t, App):
            parts = []
            while isinstance(t, App) and split_pair(t) is None:
                parts.append((t.arg, False))
                parts.append(" ")
                t = t.fn
            todo += close + parts + [(t, False)]
            if not top:
                out.append("(")
        else:
            out.append(_print_atom(t))
    return "".join(out)


def _print_atom(t: Term) -> str:
    match t:
        case Var(name):
            return name
        case Inst(name):
            return name
        case HConst(kind):
            return kind
        case Numeral(n):
            return f"#{n}"
        case Kont(saved):
            return "k[" + print_stack(saved) + "]"
    raise TypeError(f"not a term: {t!r}")


def print_stack(s: Stack) -> str:
    parts = []
    while isinstance(s, Push):
        t = s.top
        if isinstance(t, (Var, Inst, Numeral, Kont)):
            parts.append(_print_atom(t))
        else:
            parts.append("(" + _print(t, top=True) + ")")
        s = s.rest
    parts.append("$")
    return " . ".join(parts)


def print_process(p: Process) -> str:
    return _print(p.head, top=True) + " * " + print_stack(p.stack)
