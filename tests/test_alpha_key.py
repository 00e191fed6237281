"""The one nameless key of lamc.syntax against the two recursive walks it
replaced (tests/syntax_reference.py): ``alpha_key``, ``==``, ``hash`` and
the interned ids of one ``KeyCache`` agree with the reference ``alpha_eq``
and ``alpha_key`` on seeded terms of both languages and on continuation
constants from machine runs, and ``alpha_key`` decodes back to its term.
Then the key, ``==`` and ``hash`` on terms 10^5 deep at Python's default
recursion limit."""

import random

import pytest

from lamc.machine import MachineConfig, run
from lamc.syntax import (
    App,
    HConst,
    Inst,
    KeyCache,
    Kont,
    Lam,
    Numeral,
    Var,
    alpha_key,
    is_proof_like,
    stack_of,
)

import syntax_reference as ref
from gen import VARS, random_hterm, random_process, random_term


def renamed(t, env=None, counter=None):
    """t with every binder renamed to a fresh name, inside continuations
    too."""
    env = env or {}
    counter = counter if counter is not None else [0]
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Lam):
        counter[0] += 1
        fresh = f"r{counter[0]}"
        return Lam(fresh, renamed(t.body, {**env, t.binder: fresh}, counter))
    if isinstance(t, App):
        return App(renamed(t.fn, env, counter), renamed(t.arg, env, counter))
    if isinstance(t, Kont):
        return Kont(stack_of(*(renamed(u, {}, counter) for u in t.saved)))
    return t


def leaves(t, scope=()):
    """(leaf, binders in scope) in preorder; a continuation is one leaf."""
    if isinstance(t, Lam):
        yield from leaves(t.body, scope + (t.binder,))
    elif isinstance(t, App):
        yield from leaves(t.fn, scope)
        yield from leaves(t.arg, scope)
    else:
        yield t, scope


def _replace(t, left, new):
    if isinstance(t, Lam):
        return Lam(t.binder, _replace(t.body, left, new))
    if isinstance(t, App):
        return App(_replace(t.fn, left, new), _replace(t.arg, left, new))
    left[0] -= 1
    return new if left[0] == -1 else t


def one_leaf_change(rng, t):
    """t with one leaf replaced by a free variable, a variable in scope,
    a constant or another numeral; now and then that is the same leaf."""
    found = list(leaves(t))
    i = rng.randrange(len(found))
    leaf, scope = found[i]
    options = [Var("q"), Inst("stop"), HConst("z0"), Numeral(7)]
    if isinstance(leaf, Numeral):
        options.append(Numeral(leaf.n + 1))
    if scope:
        options.append(Var(rng.choice(scope)))
    return _replace(t, [i], rng.choice(options))


def kont_terms(rng, count):
    """Terms holding a continuation constant: parts of the finals of short
    runs, some put under a binder next to a variable."""
    out = []
    while len(out) < count:
        final = run(random_process(rng), MachineConfig(fuel=60)).final
        for t in (final.head, *final.stack):
            if not is_proof_like(t):
                out.append(t)
                out.append(Lam("x", App(App(Var("x"), t), random_term(rng, 2, ("x",)))))
    return out[:count]


def decode(table):
    """The term whose ``alpha_key`` is table: its last token, whose
    children are earlier ids; bound variable i is the i-th binder out."""
    terms = []
    for token in table:
        if isinstance(token, int):
            terms.append(lambda names, i=token: Var(names[-1 - i]))
        elif token[0] == "a":
            fn, arg = terms[token[1]], terms[token[2]]
            terms.append(lambda names, fn=fn, arg=arg: App(fn(names), arg(names)))
        elif token[0] == "l":
            body = terms[token[1]]
            terms.append(lambda names, body=body: Lam(f"%{len(names)}", body(names + (f"%{len(names)}",))))
        elif token[0] == "k":
            saved = [terms[i] for i in token[1]]
            terms.append(lambda names, saved=saved: Kont(stack_of(*(e(()) for e in saved))))
        else:
            leaf = {"f": Var, "c": HConst, "i": Inst, "n": Numeral}[token[0]](token[1])
            terms.append(lambda names, leaf=leaf: leaf)
    return terms[-1](())


def subterms(t):
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        todo += [getattr(u, a) for a in ("fn", "arg", "body") if hasattr(u, a)]


def shared_corpus(seed):
    """Terms that hold one of their subterms, as the same object, once more
    under a binder of one of its free variables and once at the top,
    against their copies without the sharing and against a one-leaf
    change: the key of an open node depends on where it is met."""
    rng = random.Random(seed)
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 6), closed=False)
        s = rng.choice(list(subterms(t)))
        x = rng.choice(sorted(s.fv) or VARS)
        both = App(Lam(x, App(s, t)), s)
        yield both, renamed(both)
        yield both, one_leaf_change(rng, both)


def corpus(seed):
    rng = random.Random(seed)
    terms = (
        [random_term(rng, rng.randint(0, 6), closed=False) for _ in range(125)]
        + [random_term(rng, rng.randint(0, 6)) for _ in range(125)]
        + [random_hterm(rng, rng.randint(0, 6)) for _ in range(150)]
        + kont_terms(rng, 100)
    )
    for t in terms:
        yield t, t
        yield t, renamed(t)
        yield t, rng.choice(terms)
        yield t, one_leaf_change(rng, t)


class TestDifferential:
    def test_key_eq_and_hash_agree_with_the_reference(self):
        verdicts = {True: 0, False: 0}
        for t, u in corpus(808):
            want = ref.alpha_eq(t, u)
            assert (ref.alpha_key(t) == ref.alpha_key(u)) is want, (t, u)
            assert (alpha_key(t) == alpha_key(u)) is want, (t, u)
            assert (t == u) is want and (t != u) is not want, (t, u)
            if want:
                assert hash(t) == hash(u), (t, u)
            verdicts[want] += 1
        assert sum(verdicts.values()) == 2000
        assert min(verdicts.values()) > 500

    def test_one_cache_agrees_with_the_reference(self):
        # one cache for the whole corpus, so later pairs meet closed
        # subterms that earlier ones keyed, by identity and by token
        keys = KeyCache()
        for t, u in corpus(808):
            assert (keys.key(t) == keys.key(u)) is ref.alpha_eq(t, u), (t, u)
        assert len(set(keys.tokens)) == len(keys.tokens)

    def test_one_cache_on_subterms_met_in_other_scopes(self):
        keys = KeyCache()
        verdicts = {True: 0, False: 0}
        for t, u in shared_corpus(810):
            want = ref.alpha_eq(t, u)
            assert (keys.key(t) == keys.key(u)) is want, (t, u)
            assert (alpha_key(t) == alpha_key(u)) is want and (t == u) is want, (t, u)
            verdicts[want] += 1
        assert min(verdicts.values()) > 100

    def test_key_decodes_back_to_the_term(self):
        for t, _ in corpus(809):
            assert ref.alpha_eq(decode(alpha_key(t)), t), t

    def test_continuation_contents_are_keyed_in_a_fresh_scope(self):
        # the x under k[...] is free, whichever binder is outside
        t = Lam("x", Kont(stack_of(Var("x"))))
        assert t == Lam("y", Kont(stack_of(Var("x"))))
        assert t != Lam("y", Kont(stack_of(Var("y"))))
        assert ref.alpha_eq(t, Lam("y", Kont(stack_of(Var("x")))))

    def test_constants_keep_distinct_tokens(self):
        assert HConst("rec") != Inst("rec")
        assert Numeral(1) != Numeral(2)
        assert Var("a") != Inst("a")
        assert Lam("x", Var("x")) != Lam("x", Var("y"))


DEEP = 100_000


def app_spine(binder, leaf):
    """\\binder. ((binder binder) ... binder) leaf, DEEP applications."""
    t = Var(binder)
    for _ in range(DEEP - 1):
        t = App(t, Var(binder))
    return Lam(binder, App(t, leaf))


def lam_chain(names, body):
    for name in reversed(names):
        body = Lam(name, body)
    return body


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepInput:
    def check(self, t, same, changed):
        assert t == same
        assert hash(t) == hash(same)
        assert alpha_key(t) == alpha_key(same)
        assert t != changed

    def test_application_spine_under_a_binder(self):
        self.check(app_spine("x", Var("x")), app_spine("y", Var("y")), app_spine("y", Var("x")))

    def test_lambda_chain(self):
        t_names = [f"v{i}" for i in range(DEEP)]
        u_names = [VARS[i % len(VARS)] + str(i) for i in range(DEEP)]

        def body(names, outer):
            return App(Var(names[outer]), Var(names[-1]))

        self.check(
            lam_chain(t_names, body(t_names, 0)),
            lam_chain(u_names, body(u_names, 0)),
            lam_chain(u_names, body(u_names, 1)),
        )
