"""Reference implementations for lamc.syntax, slow on purpose: the oracles
the one nameless key and the table-driven lexer are compared with.

``alpha_eq`` walks both terms at once with a name -> depth map per side,
copied at every binder; ``alpha_key`` builds a nested tuple the same way.
Both recurse on term depth.  ``lex`` is the character-by-character scanner
that the lexer replaced.
"""

from __future__ import annotations

from typing import Iterator

from lamc.syntax import (
    App,
    Bottom,
    HConst,
    Inst,
    Kont,
    Lam,
    Numeral,
    ParseError,
    Push,
    Stack,
    Term,
    Var,
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
