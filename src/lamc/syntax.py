"""Abstract syntax for the lambda-c calculus and the HA2 term language.

Terms are pure lambda-terms enriched with named instructions, primitive
numerals and continuation constants.  Stacks are lists of closed terms over
a single bottom marker, and a process pairs a closed term with a stack.
HA2 terms (the image of the CPS translation) are the same lambda-terms with
the constants of ``HConst`` as their only other leaf.  Term equality is
alpha-equivalence, decided by one nameless-key walk (``KeyCache``, whose
uncached entry is ``alpha_key``) that ``==``, ``hash`` and the reducers'
seen-sets all use; printing keeps the user's binder names.  ``rebuild``
is the one post-order driver on an explicit stack that every walk
rebuilding a tree runs on, here and in the other modules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Union


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
    """Continuation constant capturing a whole stack; runtime-only.  The
    saved stack is closed, so the constant is closed too."""

    saved: "Stack"
    fv: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for t in self.saved:
            if t.fv:
                raise ValueError(f"saved stacks are closed: free variable {min(t.fv)!r}")
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
# the rebuild driver


_BUILD = object()  # rebuild's marker: the node below it waits for its children's values


def rebuild(node, ctx, visit):
    """The value of node under a post-order walk kept on one explicit work
    stack, so that no walk is bounded by Python's recursion limit: the
    defunctionalized form of a recursive walk (Danvy & Nielsen,
    "Defunctionalization at work", PPDP 2001).

    ``visit(node, ctx)`` returns either the node's finished value, which is
    never a plain tuple, or a triple ``(build, ctx2, children)``: the
    children are visited in order under ``ctx2``, each subtree before the
    next child, and the node's value is ``build`` applied to their values."""
    out = visit(node, ctx)
    if type(out) is not tuple:
        return out
    values: list = []
    builds: list = []  # (build, number of children) of the nodes below _BUILD on todo
    todo: list = []
    while True:
        # out is a node's split: its build waits under its children
        build, ctx, children = out
        n = len(children)
        builds.append((build, n))
        todo.append(_BUILD)
        # one and two children, the common cases, without the general path
        if n == 1:
            todo.append((children[0], ctx))
        elif n == 2:
            todo += ((children[1], ctx), (children[0], ctx))
        else:
            todo += zip(reversed(children), repeat(ctx))
        while True:  # finish nodes until a visit splits one
            item = todo.pop()
            if item is _BUILD:
                build, n = builds.pop()
                if n == 1:
                    values[-1] = build(values[-1])
                elif n == 2:
                    last = values.pop()
                    values[-1] = build(values[-1], last)
                else:
                    cut = len(values) - n
                    args = values[cut:]
                    del values[cut:]
                    values.append(build(*args))
                if not todo:
                    return values[0]
                continue
            out = visit(item[0], item[1])
            if type(out) is tuple:
                break
            values.append(out)


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
    nodes.  Explicit-stack walk: terms may be deep, and nested
    continuations are keyed on the rebuild driver."""

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
                    token = rebuild(t, True, self._kont)
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

    def _kont(self, k: Kont, outermost: bool):
        """The rebuild step behind a continuation's token, ``("k", ids of
        its saved terms)``: the continuations not yet keyed in those terms
        are its children, so each is keyed, innermost first, before
        ``key`` meets it in ``_closed``."""
        inner = [u for u in _konts(k.saved) if id(u) not in self._closed]
        if outermost:
            return lambda *_: ("k", tuple(map(self.key, k.saved))), False, inner
        return lambda *_: self.key(k), False, inner


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
    return next(_konts(subject), None) is None


def _konts(subject: Subject) -> Iterator[Kont]:
    """The continuation constants in subject outside any other one, left
    to right (explicit stack: subjects can be deep)."""
    todo = [subject]
    while todo:
        s = todo.pop()
        if type(s) is Kont:
            yield s
        elif type(s) is App:
            todo += (s.arg, s.fn)
        elif type(s) is Lam:
            todo.append(s.body)
        elif type(s) is Process:
            todo += (s.stack, s.head)
        elif type(s) is Push:
            todo += (s.rest, s.top)


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
    """Capture-avoiding substitution t{x:=u}, on the rebuild driver."""
    return rebuild(t, (x, u), _substitute)


def _substitute(t: Term, ctx: tuple[str, Term]):
    x, u = ctx
    if x not in t.fv:  # every Inst, Numeral, Kont and HConst
        return t
    cls = type(t)
    if cls is App:
        return App, ctx, (t.fn, t.arg)
    if cls is Var:
        return u
    binder, body = t.binder, t.body
    if binder in u.fv:
        renamed = fresh_name(binder, u.fv | body.fv | {x})
        body = substitute(body, binder, Var(renamed))
        binder = renamed
    return partial(Lam, binder), ctx, (body,)


# ---------------------------------------------------------------------------
# stack extension t{<bottom>:=pi0}


def extend_stack_bottom(subject: Subject, pi0: Stack) -> Subject:
    """Replace every stack bottom by pi0, including inside continuations."""
    return rebuild(subject, pi0, _extend)


def _extend(s: Subject, pi0: Stack):
    cls = type(s)
    if cls is App:
        return App, pi0, (s.fn, s.arg)
    if cls is Lam:
        return partial(Lam, s.binder), pi0, (s.body,)
    if cls is Kont:
        return Kont, pi0, (s.saved,)
    if cls is Process:
        return Process, pi0, (s.head, s.stack)
    if isinstance(s, Stack):
        return partial(stack_of, tail=pi0), pi0, tuple(s)
    return s


# ---------------------------------------------------------------------------
# lexer


# one named group per token kind, then layout, then any other character (an error)
_TOKEN_RE = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<nat>[0-9]+)|#(?P<numlit>[0-9]+)"
    r"|(?P<punct>#\(|\.\.\.|->|<=|==|/\\|\\/|[\\.*$()\[\]{};,=<>|+])"
    r"|[ \t\r]+|--[^\n]*|(?P<newline>\n)|(?P<bad>.)"
)


# kind is ident, nat, numlit, punct or eof; line and col count from 1
_Token = NamedTuple("_Token", [("kind", str), ("text", str), ("line", int), ("col", int)])


def _lex(text: str) -> list[_Token]:
    """The tokens of ``text``, then an eof token at the end of the text."""
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            message = "expected digits after '#'" if m[0] == "#" else f"unexpected character {m[0]!r}"
            raise ParseError(message, line, m.start() - line_start + 1)
        elif kind is not None:
            tokens.append(_Token(kind, m[kind], line, m.start() - line_start + 1))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _TokenStream:
    """A cursor over ``_lex`` output; ``next`` never moves past the eof token."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def finish(self, value):
        """value, once the input is used up; trailing input is an error."""
        if self.peek().kind != "eof":
            raise self.error(f"unexpected trailing input {self.peek().text!r}")
        return value


def _nat_value(tok: _Token) -> int:
    """The value of a ``nat`` or ``numlit`` token.  A literal longer than the
    interpreter's int-string limit is a ParseError at the literal."""
    digits = tok.text
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"numeral literal too long ({len(digits)} digits)", tok.line, tok.col) from None


# ---------------------------------------------------------------------------
# term parser


# what the term parser reads next, and the kinds of its open constructs
_TERM, _ATOM, _MORE, _STACK = "term", "atom", "more", "stack"
_LAM, _APP, _PAREN, _KONT, _PAIR, _PAIR2 = "lam", "app", "paren", "kont", "pair", "pair2"


class _TermParser:
    """Parser for the term/stack/process grammar.  Open constructs (an
    abstraction, an application, parentheses, a stack, a saved stack
    ``k[...]``, the HA2 pair ``<a; b>``) are kept on an explicit stack, so
    nesting depth is bounded by memory, not by Python's recursion limit.

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
        return self._parse(_TERM, bound)

    def atom(self, bound: frozenset[str]) -> Term:
        return self._parse(_ATOM, bound)

    def stack(self, bound: frozenset[str]) -> Stack:
        return self._parse(_STACK, bound)

    def process(self, bound: frozenset[str]) -> Process:
        head = self.term(bound)
        self.ts.expect("*")
        return Process(head, self.stack(bound))

    def atom_head(self, bound: frozenset[str], optional: bool):
        """The start of an atom: the atom itself when it is one token (or
        one literal), the opener ``"("``, ``"\\"`` or ``"k["`` of a
        construct that ``_parse`` reads on, or None, when ``optional``,
        if no atom starts here.  Subclasses add atoms here."""
        tok = self.ts.tokens[self.ts.pos]
        if tok.kind == "ident" and tok.text in self.stop_words:
            if optional:
                return None
            raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
        if tok.kind == "numlit":
            self.ts.next()
            return Numeral(_nat_value(tok))
        if tok.kind == "ident":
            if tok.text == "k" and self.ts.tokens[self.ts.pos + 1].text == "[":
                self.ts.next()
                self.ts.expect("[")
                return "k["
            self.ts.next()
            return self.resolve(tok, bound)
        if tok.text == "(":
            self.ts.next()
            return "("
        if tok.text == "\\":
            return "\\"
        if optional:
            return None
        raise self.ts.error("expected a term")

    def _parse(self, goal: str, bound: frozenset[str]):
        ts = self.ts
        frames: list = [None]  # the open constructs, innermost last, over the goal
        want = goal
        if goal is _STACK:
            frames.append((_STACK, bound, []))
        while True:
            # read on until a value is complete
            if want is _TERM:
                if ts.peek().text == "\\":
                    ts.next()
                    binders: list[str] = []
                    while ts.peek().kind == "ident":
                        binders.append(ts.next().text)
                    if not binders:
                        raise ts.error("expected at least one binder after '\\'")
                    ts.expect(".")
                    frames.append((_LAM, binders))
                    bound = bound | frozenset(binders)
                    continue
                frames.append([_APP, bound, None])
                value = self.atom_head(bound, False)
            elif want is _STACK and ts.peek().text == "$":
                ts.next()
                value = stack_of(*frames.pop()[2])
            else:
                value = self.atom_head(bound, want is _MORE)
            if value is None:  # the application is complete
                value = frames.pop()[2]
            elif type(value) is str:
                if value == "(":
                    frames.append((_PAREN,))
                elif value == "k[":  # a saved stack is closed; k is two tokens back
                    frames += ((_KONT, ts.tokens[ts.pos - 2]), (_STACK, _EMPTY_FV, []))
                    bound, want = _EMPTY_FV, _STACK
                    continue
                elif value == "<":
                    frames.append((_PAIR, bound))
                want = _TERM
                continue
            elif want is _MORE:  # the next argument of the open application
                frame = frames[-1]
                frame[2] = App(frame[2], value)
                continue
            elif want is _TERM:  # the head of the application just opened
                frames[-1][2] = value
                want = _MORE
                continue
            # hand the value out to the open constructs until one reads on
            while True:
                frame = frames[-1]
                if frame is None:
                    return value
                kind = frame[0]
                if kind is _APP:
                    t = frame[2]
                    frame[2] = value if t is None else App(t, value)
                    bound, want = frame[1], _MORE
                    break
                if kind is _STACK:
                    ts.expect(".")
                    frame[2].append(value)
                    bound, want = frame[1], _STACK
                    break
                frames.pop()
                if kind is _LAM:
                    for b in reversed(frame[1]):
                        value = Lam(b, value)
                elif kind is _PAREN:
                    ts.expect(")")
                elif kind is _KONT:
                    ts.expect("]")
                    try:
                        value = Kont(value)
                    except ValueError as err:  # a free name, outside strict mode
                        raise ParseError(str(err), frame[1].line, frame[1].col) from None
                elif kind is _PAIR:
                    ts.expect(";")
                    frames.append((_PAIR2, value))
                    bound, want = frame[1], _TERM
                    break
                else:  # _PAIR2
                    ts.expect(">")
                    value = App(App(HConst("pair"), frame[1]), value)

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


def _print(t: Subject, top: bool) -> str:
    # explicit stack of pending work, popped last first: a string is
    # emitted as is, a (term or stack, top) pair is rendered; the saved
    # stacks of continuations go on the same stack
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
        elif isinstance(t, Stack):
            parts = ["$"]
            for e in reversed(tuple(t)):
                parts.append(" . ")
                if isinstance(e, (Var, Inst, Numeral, Kont)):
                    parts.append((e, True))
                else:
                    parts += (")", (e, True), "(")
            todo += parts
        elif isinstance(t, Kont):
            todo += ("]", (t.saved, True))
            out.append("k[")
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
            return "#" + _decimal(n)
    raise TypeError(f"not a term: {t!r}")


def _decimal(n: int) -> str:
    """The decimal digits of the machine numeral n.  A numeral past the
    interpreter's int-string limit is an error that names its size."""
    try:
        return str(n)
    except ValueError:
        raise LamcError(f"numeral too large to print ({n.bit_length()} bits)") from None


def print_stack(s: Stack) -> str:
    return _print(s, top=True)


def print_process(p: Process) -> str:
    return _print(p.head, top=True) + " * " + print_stack(p.stack)
