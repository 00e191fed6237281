"""Reference implementations for lamc.syntax, slow on purpose: the oracles
the one nameless key, the table-driven lexer, the explicit-stack printer
and the walks and parser on the trampoline are compared with.

``alpha_eq`` walks both terms at once with a name -> depth map per side,
copied at every binder; ``alpha_key`` builds a nested tuple the same way.
Both recurse on term depth.  ``lex`` is the character-by-character scanner
that the lexer replaced.  ``substitute``, ``extend_stack_bottom`` and
``is_proof_like`` are the recursive walks, ``TermParser`` (with
``HTermParser`` for the HA2 pair) the recursive-descent parser, and
``print_term``/``print_stack`` the printer that recursed into saved stacks.
``free_vars`` recomputes the free variables that each node caches in
``fv``.
"""

from __future__ import annotations

from typing import Iterator

from lamc.syntax import (
    BOTTOM,
    HA2_CONSTANTS,
    INSTRUCTION_ALIASES,
    App,
    Bottom,
    HConst,
    Inst,
    Kont,
    Lam,
    Numeral,
    ParseError,
    Process,
    Push,
    Stack,
    Term,
    Var,
    _decimal,
    _nat_value,
    fresh_name,
    split_pair,
)


def alpha_eq(t: Term, u: Term) -> bool:
    return _alpha_eq(t, u, {}, {}, 0)


def _alpha_eq(t: Term, u: Term, env_t: dict, env_u: dict, depth: int) -> bool:
    if type(t) is not type(u):
        return False
    if isinstance(t, Var):
        return env_t.get(t.name, t.name) == env_u.get(u.name, u.name)
    if isinstance(t, Lam):
        et = dict(env_t)
        eu = dict(env_u)
        et[t.binder] = depth
        eu[u.binder] = depth
        return _alpha_eq(t.body, u.body, et, eu, depth + 1)
    if isinstance(t, App):
        return _alpha_eq(t.fn, u.fn, env_t, env_u, depth) and _alpha_eq(
            t.arg, u.arg, env_t, env_u, depth
        )
    if isinstance(t, HConst):
        return t.kind == u.kind
    if isinstance(t, Inst):
        return t.name == u.name
    if isinstance(t, Numeral):
        return t.n == u.n
    if isinstance(t, Kont):
        return _stack_alpha_eq(t.saved, u.saved)
    raise TypeError(f"not a term: {t!r}")


def _stack_alpha_eq(p: Stack, q: Stack) -> bool:
    while isinstance(p, Push) and isinstance(q, Push):
        if not alpha_eq(p.top, q.top):
            return False
        p, q = p.rest, q.rest
    return isinstance(p, Bottom) and isinstance(q, Bottom)


def alpha_key(t: Term, env: dict | None = None, depth: int = 0):
    """A hashable nameless image of ``t``; equal keys iff alpha-equivalent."""
    env = env or {}
    match t:
        case Var(name):
            b = env.get(name)
            return ("b", b) if b is not None else ("f", name)
        case Lam(binder, body):
            env2 = dict(env)
            env2[binder] = depth
            return ("l", alpha_key(body, env2, depth + 1))
        case App(fn, arg):
            return ("a", alpha_key(fn, env, depth), alpha_key(arg, env, depth))
        case HConst(kind):
            return ("c", kind)
        case Inst(name):
            return ("i", name)
        case Numeral(n):
            return ("n", n)
        case Kont(saved):
            return ("k", tuple(alpha_key(e) for e in saved))
    raise TypeError(f"not a term: {t!r}")


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789'")


def lex(text: str) -> Iterator[tuple[str, str, int, int]]:
    """The tokens of ``text`` as (kind, text, line, col), then an eof token;
    a ParseError once the tokens before it are out.  Two known differences
    from ``lamc.syntax._lex``: digits here are every character with
    ``str.isdigit`` (so ``#²`` is a numeral literal), and the end of input
    after a comment has the column where the comment starts."""
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
                yield ("punct", "#(", start_line, start_col)
                i = j + 1
                col += 2
                continue
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after '#'", line, col)
            yield ("numlit", text[i + 1 : j], start_line, start_col)
            col += j - i
            i = j
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            yield ("ident", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("nat", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if text[i : i + 3] == "...":
            yield ("punct", "...", start_line, start_col)
            i += 3
            col += 3
            continue
        two = text[i : i + 2]
        if two in ("->", "<=", "==", "/\\", "\\/"):
            yield ("punct", two, start_line, start_col)
            i += 2
            col += 2
            continue
        if c in "\\.*$()[]{};,=<>|":
            yield ("punct", c, start_line, start_col)
            i += 1
            col += 1
            continue
        if c == "+":
            yield ("punct", "+", start_line, start_col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    yield ("eof", "", line, col)


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.binder}
    if isinstance(t, App):
        return free_vars(t.fn) | free_vars(t.arg)
    return frozenset()  # a constant; a Kont's saved stack is closed


def substitute(t: Term, x: str, u: Term) -> Term:
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
            return t


def extend_stack_bottom(subject, pi0: Stack):
    match subject:
        case Process(head, stack):
            return Process(extend_stack_bottom(head, pi0), extend_stack_bottom(stack, pi0))
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


def is_proof_like(subject) -> bool:
    match subject:
        case Process(head, stack):
            return is_proof_like(head) and is_proof_like(stack)
        case Push(top, rest):
            return is_proof_like(top) and is_proof_like(rest)
        case Kont(_):
            return False
        case Lam(_, body):
            return is_proof_like(body)
        case App(fn, arg):
            return is_proof_like(fn) and is_proof_like(arg)
    return True


class TermParser:
    """The recursive-descent parser of the term/stack/process grammar, over
    a ``lamc.syntax._TokenStream``."""

    def __init__(self, ts, instructions, strict, stop_words=frozenset()):
        self.ts = ts
        self.instructions = instructions
        self.strict = strict
        self.stop_words = stop_words

    def term(self, bound):
        if self.ts.peek().text == "\\":
            self.ts.next()
            binders = []
            while self.ts.peek().kind == "ident":
                binders.append(self.ts.next().text)
            if not binders:
                raise self.ts.error("expected at least one binder after '\\'")
            self.ts.expect(".")
            body = self.term(bound | frozenset(binders))
            for b in reversed(binders):
                body = Lam(b, body)
            return body
        t = self.atom(bound)
        while True:
            u = self.atom(bound, optional=True)
            if u is None:
                return t
            t = App(t, u)

    def atom(self, bound, optional=False):
        tok = self.ts.peek()
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
                saved = self.stack(frozenset())
                self.ts.expect("]")
                try:
                    return Kont(saved)
                except ValueError as err:
                    raise ParseError(str(err), tok.line, tok.col) from None
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

    def resolve(self, tok, bound):
        name = tok.text
        if name in bound:
            return Var(name)
        canonical = INSTRUCTION_ALIASES.get(name, name)
        if canonical in self.instructions:
            return Inst(canonical)
        if self.strict:
            raise ParseError(f"unbound name {name!r}", tok.line, tok.col)
        return Var(name)

    def stack(self, bound):
        if self.ts.peek().text == "$":
            self.ts.next()
            return BOTTOM
        top = self.atom(bound)
        self.ts.expect(".")
        return Push(top, self.stack(bound))

    def process(self, bound):
        head = self.term(bound)
        self.ts.expect("*")
        return Process(head, self.stack(bound))


class HTermParser(TermParser):
    def atom(self, bound, optional=False):
        tok = self.ts.peek()
        if tok.kind == "ident":
            self.ts.next()
            if tok.text in HA2_CONSTANTS and tok.text not in bound:
                return HConst(tok.text)
            return Var(tok.text)
        if tok.text == "<":
            self.ts.next()
            a = self.term(bound)
            self.ts.expect(";")
            b = self.term(bound)
            self.ts.expect(">")
            return App(App(HConst("pair"), a), b)
        if tok.kind == "numlit":
            if optional:
                return None
            raise self.ts.error("expected a term")
        return super().atom(bound, optional)


def print_term(t: Term) -> str:
    return _print(t, True)


def _print(t: Term, top: bool) -> str:
    # the explicit-stack term printer, which recursed only into saved stacks
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
        case Var(name) | Inst(name) | HConst(name):
            return name
        case Numeral(n):
            return "#" + _decimal(n)
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
            parts.append("(" + _print(t, True) + ")")
        s = s.rest
    parts.append("$")
    return " . ".join(parts)
