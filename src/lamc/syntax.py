"""Abstract syntax for the lambda-c calculus and the HA2 term language.

Terms are pure lambda-terms enriched with named instructions, primitive
numerals and continuation constants.  Stacks are lists of closed terms over
a single bottom marker, and a process pairs a closed term with a stack.
HA2 terms (the image of the CPS translation) are the same lambda-terms with
the constants of ``HConst`` as their only other leaf.  Term equality is
alpha-equivalence: ``==`` walks both terms at once, and ``hash`` and the
reducers' seen-sets use one nameless key (``KeyCache``, whose uncached
entry is ``alpha_key``); printing keeps the user's binder names.  Every
recursive walk, here and in the other modules, is a generator written as
the recursive function and run by one driver, ``trampoline``, so no walk
depends on Python's recursion limit.  Term and stack nodes are slot
classes, not dataclasses: each ``__init__`` stores its fields through the
slots' setters, bound once at module level, and the shared base ``_Node``
makes every later assignment or deletion raise ``FrozenInstanceError``
and rebuilds a node from its ``__match_args__`` for ``repr``, pickle and
copy.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from types import GeneratorType
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


class _Node:
    """The base of terms and stacks: slots that nothing assigns or deletes
    after ``__init__``, and ``__match_args__``, the fields that ``repr``,
    ``match``, pickle and copy read."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        return _repr(self)


class Term(_Node):
    """Base class; equality and hashing are up to alpha-equivalence.
    ``==`` is one walk over both terms, on an explicit stack, that stops at
    the first difference and takes a closed subterm met as the same object
    on both sides as equal without walking it; ``hash`` keys the term.
    A term is built only by its class's ``__init__``, which stores its
    fields and ``fv``, its free variables computed from its children's,
    in slots; nothing can assign or delete them afterwards."""

    __slots__ = ("fv",)

    def __eq__(self, other: object) -> bool:
        # alpha-equivalent terms have the same top constructor and free variables
        if type(other) is not type(self) or other.fv != self.fv:
            return False
        # name -> depths of its binders, innermost last, per side, as in KeyCache.key
        left: dict[str, list[int]] = {}
        right: dict[str, list[int]] = {}
        depth = 0
        todo: list = [self, other]  # pairs to compare, or two binders to leave
        while todo:
            b = todo.pop()
            a = todo.pop()
            cls = type(a)
            if cls is str:  # leaving the scopes of binders a and b
                left[a].pop()
                right[b].pop()
                depth -= 1
            elif a is b and not a.fv:
                pass  # the same closed object
            elif cls is not type(b):
                return False
            elif cls is App:
                todo += (a.arg, b.arg, a.fn, b.fn)
            elif cls is Lam:
                left.setdefault(a.binder, []).append(depth)
                right.setdefault(b.binder, []).append(depth)
                depth += 1
                todo += (a.binder, b.binder, a.body, b.body)
            elif cls is Var:
                x, y = left.get(a.name), right.get(b.name)
                if not (x[-1] == y[-1] if x and y else not (x or y) and a.name == b.name):
                    return False
            elif cls is Kont:  # saved terms are closed: any scope will do
                if len(a.saved) != len(b.saved):
                    return False
                for pair in zip(a.saved, b.saved):
                    todo += pair
            elif a.n != b.n if cls is Numeral else a.kind != b.kind if cls is HConst else a.name != b.name:
                return False
        return True

    def __hash__(self) -> int:
        return hash(alpha_key(self))

    def __str__(self) -> str:
        return print_term(self)


_EMPTY_FV = frozenset()


class Var(Term):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _var_name(self, name)
        _set_fv(self, frozenset((name,)))


class Lam(Term):
    __slots__ = __match_args__ = ("binder", "body")

    def __init__(self, binder: str, body: Term) -> None:
        _lam_binder(self, binder)
        _lam_body(self, body)
        fv = body.fv  # shared with the body when the binder is not free in it
        if binder in fv:
            fv = fv - {binder} if len(fv) > 1 else _EMPTY_FV
        _set_fv(self, fv)


class App(Term):
    __slots__ = __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term) -> None:
        _app_fn(self, fn)
        _app_arg(self, arg)
        a, b = fn.fv, arg.fv  # shared with a child that has them all
        _set_fv(self, a if b <= a else b if a <= b else a | b)


class Inst(Term):
    """A named instruction (cc, s, rec, stop, print, or user-defined)."""

    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _inst_name(self, name)
        _set_fv(self, _EMPTY_FV)


class Numeral(Term):
    """The primitive numeral constant; pure data, no evaluation rule."""

    __slots__ = __match_args__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("numerals are naturals")
        _numeral_n(self, n)
        _set_fv(self, _EMPTY_FV)


class Kont(Term):
    """Continuation constant capturing a whole stack; runtime-only.  The
    saved stack is closed, so the constant is closed too."""

    __slots__ = __match_args__ = ("saved",)

    def __init__(self, saved: Stack) -> None:
        for t in saved:
            if t.fv:
                raise ValueError(f"saved stacks are closed: free variable {min(t.fv)!r}")
        _kont_saved(self, saved)
        _set_fv(self, _EMPTY_FV)


class HConst(Term):
    """A constant of the HA2 term language (pair, fst, snd, z0, sc, rec)."""

    __slots__ = __match_args__ = ("kind",)

    def __init__(self, kind: str) -> None:
        if kind not in HA2_CONSTANTS:
            raise ValueError(f"unknown constant {kind!r}")
        _hconst_kind(self, kind)
        _set_fv(self, _EMPTY_FV)


# the slots' setters, through which each __init__ above stores its fields
_set_fv, _var_name, _inst_name = Term.fv.__set__, Var.name.__set__, Inst.name.__set__
_lam_binder, _lam_body = Lam.binder.__set__, Lam.body.__set__
_app_fn, _app_arg = App.fn.__set__, App.arg.__set__
_numeral_n, _kont_saved, _hconst_kind = Numeral.n.__set__, Kont.saved.__set__, HConst.kind.__set__


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


class Stack(_Node):
    """Equal stacks have equal tuples of tops."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stack):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __str__(self) -> str:
        return print_stack(self)

    def __iter__(self) -> Iterator[Term]:
        s = self
        while isinstance(s, Push):
            yield s.top
            s = s.rest

    def __len__(self) -> int:
        return sum(1 for _ in self)


class Bottom(Stack):
    __slots__ = ()


class Push(Stack):
    __slots__ = __match_args__ = ("top", "rest")

    def __init__(self, top: Term, rest: Stack) -> None:
        _push_top(self, top)
        _push_rest(self, rest)


_push_top, _push_rest = Push.top.__set__, Push.rest.__set__


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


def _repr(node: _Node) -> str:
    """The constructor text of a term or stack, on the trampoline."""
    out: list[str] = []
    trampoline(_repr_parts(node, out))
    return "".join(out)


def _repr_parts(node: _Node, out: list[str]):
    out.append(type(node).__qualname__ + "(")
    for i, name in enumerate(node.__match_args__):
        out.append(f"{', ' if i else ''}{name}=")
        value = getattr(node, name)
        if isinstance(value, _Node):
            yield _repr_parts(value, out)
        else:
            out.append(repr(value))
    out.append(")")


# ---------------------------------------------------------------------------
# the trampoline


def trampoline(walk):
    """The value of ``walk``, a generator written as the recursive function
    it stands for: ``value = yield sub_walk`` is a recursive call, which
    the driver runs before it sends the value back.  Pending calls wait on
    one list, not on Python's stack, so no walk is bounded by the
    recursion limit (trampolined style: Ganz, Friedman & Wand, ICFP 1999).
    An exception raised in a walk ends the whole run, so no walk catches
    what its calls raise."""
    try:
        call = walk.send(None)
    except StopIteration as done:  # a walk that makes no call
        return done.value
    pending = [walk]
    push, pop = pending.append, pending.pop
    walk, value = call, None
    while True:
        try:
            call = walk.send(value)
        except StopIteration as done:
            value = done.value
            if not pending:
                return value
            walk = pop()
        else:
            push(walk)
            walk, value = call, None


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
    constant, and ``("k", ids of the saved terms)`` for a continuation.
    A token holds only ids made before it.  De Bruijn indices make the key
    of a closed node the same wherever it occurs, so closed nodes are also
    remembered by identity (and kept alive while the cache is): keying a
    term that shares closed subterms with one keyed before walks only its
    new nodes.  A continuation's saved terms are closed, so they are keyed
    in the same walk, whatever the scope.  Explicit-stack walk: terms and
    nested continuations may be deep."""

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
                cls = type(t)
                if cls is App:
                    a = out.pop()
                    token = ("a", out.pop(), a)
                elif cls is Lam:  # leaving the scope of this abstraction
                    levels[t.binder].pop()
                    depth -= 1
                    token = ("l", out.pop())
                else:  # a continuation, its saved terms' ids on top
                    n = len(out) - len(t.saved)
                    token = ("k", tuple(out[n:]))
                    del out[n:]
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
                    todo += (t, _DONE, *reversed(list(t.saved)))
                    continue
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
    """True when the subject contains no continuation constant (explicit
    stack: subjects can be deep)."""
    todo = [subject]
    while todo:
        s = todo.pop()
        if type(s) is Kont:
            return False
        elif type(s) is App:
            todo += (s.arg, s.fn)
        elif type(s) is Lam:
            todo.append(s.body)
        elif type(s) is Process:
            todo += (s.stack, s.head)
        elif type(s) is Push:
            todo += (s.rest, s.top)
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
    if x not in t.fv:  # every Inst, Numeral, Kont and HConst
        return t
    return trampoline(_substitute(t, x, u))


def _substitute(t: Term, x: str, u: Term):
    """The walk of ``substitute`` on a t in which x is free; a subterm
    without x is kept, and a variable is replaced, without a call."""
    if type(t) is App:
        fn, arg = t.fn, t.arg
        if x in fn.fv:
            fn = u if type(fn) is Var else (yield _substitute(fn, x, u))
        if x in arg.fv:
            arg = u if type(arg) is Var else (yield _substitute(arg, x, u))
        return App(fn, arg)
    if type(t) is Var:
        return u
    binder, body = t.binder, t.body
    if binder in u.fv:
        renamed = fresh_name(binder, u.fv | body.fv | {x})
        if binder in body.fv:
            body = yield _substitute(body, binder, Var(renamed))
        binder = renamed
    return Lam(binder, u if type(body) is Var else (yield _substitute(body, x, u)))


# ---------------------------------------------------------------------------
# stack extension t{<bottom>:=pi0}


def extend_stack_bottom(subject: Subject, pi0: Stack) -> Subject:
    """Replace every stack bottom by pi0, including inside continuations."""
    return trampoline(_extend(subject, pi0))


def _extend(s: Subject, pi0: Stack):
    cls = type(s)
    if cls is App:
        return App((yield _extend(s.fn, pi0)), (yield _extend(s.arg, pi0)))
    if cls is Lam:
        return Lam(s.binder, (yield _extend(s.body, pi0)))
    if cls is Kont:
        return Kont((yield _extend(s.saved, pi0)))
    if cls is Process:
        return Process((yield _extend(s.head, pi0)), (yield _extend(s.stack, pi0)))
    if isinstance(s, Stack):
        tops = []
        for t in s:
            tops.append((yield _extend(t, pi0)))
        return stack_of(*tops, tail=pi0)
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


class _TermParser:
    """Parser for the term/stack/process grammar: recursive descent, whose
    walks run on the trampoline, so nesting depth is bounded by memory,
    not by Python's recursion limit.

    Name resolution: lambda-bound names are variables, known instruction
    names are instructions, anything else is a free variable (an error in
    strict mode).  Given a ``forward`` list, strict mode instead reads
    such a name as an instruction defined later and appends its token, for
    the caller to check once the names are known.
    """

    def __init__(
        self,
        ts: _TokenStream,
        instructions: frozenset[str],
        strict: bool,
        stop_words: frozenset[str] = frozenset(),
        forward: list[_Token] | None = None,
    ):
        self.ts = ts
        self.instructions = instructions
        self.strict = strict
        self.stop_words = stop_words
        self.forward = forward

    def term(self, bound: frozenset[str]) -> Term:
        return trampoline(self._term(bound))

    def atom(self, bound: frozenset[str]) -> Term:
        t = self._atom(bound, False)
        return trampoline(t) if type(t) is GeneratorType else t

    def stack(self, bound: frozenset[str]) -> Stack:
        return trampoline(self._stack(bound))

    def process(self, bound: frozenset[str]) -> Process:
        head = self.term(bound)
        self.ts.expect("*")
        return Process(head, self.stack(bound))

    def _term(self, bound: frozenset[str], close: str | None = None):
        """A term, then the token close when one is given."""
        ts = self.ts
        if ts.tokens[ts.pos].text == "\\":
            ts.next()
            binders: list[str] = []
            while ts.peek().kind == "ident":
                binders.append(ts.next().text)
            if not binders:
                raise ts.error("expected at least one binder after '\\'")
            ts.expect(".")
            t = yield self._term(bound | frozenset(binders))
            for b in reversed(binders):
                t = Lam(b, t)
        else:
            t = None
            while True:
                u = self._atom(bound, t is not None)
                if u is None:
                    break
                if type(u) is GeneratorType:
                    u = yield u
                t = u if t is None else App(t, u)
        if close is not None:
            ts.expect(close)
        return t

    def _atom(self, bound: frozenset[str], optional: bool):
        """The atom that starts here: the term itself when it is one token
        (or one literal), the walk that reads it when it nests (an
        abstraction, parentheses, a saved stack ``k[...]``), or None, when
        optional, if no atom starts here.  Subclasses add atoms here."""
        ts = self.ts
        tok = ts.tokens[ts.pos]
        if tok.kind == "ident":
            if tok.text in self.stop_words:
                if optional:
                    return None
                raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
            if tok.text == "k" and ts.tokens[ts.pos + 1].text == "[":
                return self._continuation(tok)
            ts.pos += 1
            return self.resolve(tok, bound)
        if tok.kind == "numlit":
            ts.pos += 1
            return Numeral(_nat_value(tok))
        if tok.text == "(":
            ts.pos += 1
            return self._term(bound, ")")
        if tok.text == "\\":
            return self._term(bound)
        if optional:
            return None
        raise ts.error("expected a term")

    def _continuation(self, k: _Token):
        """k[stack]: the saved stack is closed."""
        self.ts.next()
        self.ts.expect("[")
        saved = yield self._stack(_EMPTY_FV)
        self.ts.expect("]")
        try:
            return Kont(saved)
        except ValueError as err:  # a free name, outside strict mode
            raise ParseError(str(err), k.line, k.col) from None

    def _stack(self, bound: frozenset[str]):
        ts = self.ts
        tops: list[Term] = []
        while ts.peek().text != "$":
            top = self._atom(bound, False)
            if type(top) is GeneratorType:
                top = yield top
            ts.expect(".")
            tops.append(top)
        ts.next()
        return stack_of(*tops)

    def resolve(self, tok: _Token, bound: frozenset[str]) -> Term:
        name = tok.text
        if name in bound:
            return Var(name)
        canonical = INSTRUCTION_ALIASES.get(name, name)
        if canonical in self.instructions:
            return Inst(canonical)
        if self.strict:
            if self.forward is None:
                raise ParseError(f"unbound name {name!r}", tok.line, tok.col)
            self.forward.append(tok)
            return Inst(canonical)
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
