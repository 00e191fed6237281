import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from lamc.arith import EVar
from lamc.demo import closed_realizer
from lamc.extract import sigma01_wrapper
from lamc.ha2 import hnumeral
from lamc.machine import Halt, MachineError, TExpr, step
from lamc.negtrans import cps_process
from lamc.syntax import (
    App,
    BOTTOM,
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
    extend_stack_bottom,
    free_vars,
    is_closed,
    is_proof_like,
    parse_process,
    parse_stack,
    parse_term,
    print_process,
    print_stack,
    print_term,
    stack_of,
    substitute,
)

import syntax_reference as ref
from gen import random_closed_term, random_term


def t(src, **kw):
    return parse_term(src, **kw)


class TestParse:
    def test_identity(self):
        assert t(r"\x.x") == Lam("x", Var("x"))

    def test_cc_is_an_instruction(self):
        assert t("cc") == Inst("cc")

    def test_callcc_alias(self):
        assert t("callcc") == Inst("cc")

    def test_numeral_literal(self):
        assert t("#7") == Numeral(7)

    def test_application_left_assoc(self):
        assert t("s #3 stop") == App(App(Inst("s"), Numeral(3)), Inst("stop"))

    def test_multi_binder_sugar(self):
        assert t(r"\x y.t' x y") == t(r"\x.\y.t' x y")

    def test_lambda_body_extends_right(self):
        assert t(r"\x. x x") == Lam("x", App(Var("x"), Var("x")))

    def test_continuation_literal(self):
        assert t("k[stop . $]") == Kont(Push(Inst("stop"), BOTTOM))

    def test_saved_stack_is_closed(self):
        # names inside k[...] do not see the enclosing binders
        with pytest.raises(ParseError) as err:
            parse_term(r"\x. k[x . $]", strict=True)
        assert str(err.value) == "1:7: unbound name 'x'"
        # outside strict mode too: a free name there is a one-line error
        with pytest.raises(ParseError) as err:
            parse_term(r"\x. k[x . $]")
        assert str(err.value) == "1:5: saved stacks are closed: free variable 'x'"
        with pytest.raises(ValueError, match="^saved stacks are closed: free variable 'x'$"):
            Kont(Push(Var("x"), BOTTOM))
        # a binder named like an instruction does not reach the saved stack
        assert t(r"\s. k[s . $]") == Lam("y", Kont(Push(Inst("s"), BOTTOM)))

    def test_plain_k_is_a_name(self):
        assert t("k") == Var("k")

    def test_stack(self):
        assert parse_stack("#1 . (\\x. x) . $") == stack_of(Numeral(1), Lam("x", Var("x")))

    def test_process(self):
        p = parse_process("stop * #5 . $")
        assert p == Process(Inst("stop"), Push(Numeral(5), BOTTOM))

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("\\x.")
        assert err.value.line == 1

    def test_strict_rejects_unbound(self):
        with pytest.raises(ParseError, match="unbound"):
            parse_term("y", strict=True)
        assert parse_term("y") == Var("y")

    def test_user_instructions(self):
        assert t("pair", instructions={"cc", "pair"}) == Inst("pair")

    def test_comments(self):
        assert t("-- hello\ncc -- trailing\n") == Inst("cc")


class TestPrint:
    def test_identity(self):
        assert print_term(Lam("x", Var("x"))) == r"\x. x"

    def test_left_assoc_application(self):
        assert print_term(t("s #3 stop")) == "s #3 stop"

    def test_continuation(self):
        assert print_term(Kont(Push(Inst("stop"), BOTTOM))) == "k[stop . $]"

    def test_parenthesized_argument(self):
        assert print_term(t("f (g x)")) == "f (g x)"

    def test_stack_with_compound_element(self):
        s = stack_of(Lam("x", Var("x")), Numeral(2))
        assert print_stack(s) == r"(\x. x) . #2 . $"

    def test_process(self):
        assert print_process(parse_process("stop * #1023 . $")) == "stop * #1023 . $"


class TestAlpha:
    def test_binder_names_irrelevant(self):
        assert t(r"\x.x") == t(r"\y.y")
        assert hash(t(r"\x.x")) == hash(t(r"\y.y"))

    def test_free_names_matter(self):
        assert t("x") != t("y")

    def test_nested(self):
        assert t(r"\x y. x") == t(r"\y x. y")
        assert t(r"\x y. x") != t(r"\x y. y")

    def test_konts_compare_elementwise(self):
        assert Kont(stack_of(t(r"\x.x"))) == Kont(stack_of(t(r"\y.y")))


class TestSubstitute:
    def test_variable(self):
        assert substitute(Var("x"), "x", Numeral(2)) == Numeral(2)

    def test_shadowing(self):
        assert substitute(Lam("x", Var("x")), "x", Inst("cc")) == Lam("x", Var("x"))

    def test_capture_avoidance_renames(self):
        out = substitute(Lam("y", App(Var("x"), Var("y"))), "x", Var("y"))
        assert out == Lam("w", App(Var("y"), Var("w")))  # alpha-irrelevant binder

    def test_no_op_without_occurrence(self):
        body = t(r"\x. x")
        assert substitute(body, "z", Numeral(0)) is body


class TestFreeVars:
    def test_basic(self):
        assert free_vars(t(r"\x. x y")) == {"y"}

    def test_instruction_closed_proof_like(self):
        assert free_vars(Inst("rec")) == frozenset()
        assert is_proof_like(Inst("rec"))

    def test_kont_not_proof_like(self):
        assert free_vars(Kont(BOTTOM)) == frozenset()
        assert not is_proof_like(Kont(BOTTOM))
        assert not is_proof_like(Lam("x", Kont(BOTTOM)))

    def test_is_closed(self):
        assert is_closed(t(r"\x.x"))
        assert not is_closed(Var("x"))

    def test_cached_sets_match_the_reference(self):
        rng = random.Random(41)
        for i in range(500):
            term = random_term(rng, rng.randint(1, 7), bound=("a", "x")[: i % 3], closed=i % 2 == 0)
            todo = [term]
            while todo:  # every node's cached set
                u = todo.pop()
                assert u.fv == ref.free_vars(u)
                todo += (u.body,) if isinstance(u, Lam) else (u.fn, u.arg) if isinstance(u, App) else ()

    def test_nodes_share_an_unchanged_set(self):
        # a node whose set equals a child's takes the child's set object
        t = hnumeral(1000)
        sets = set()
        while isinstance(t, App):
            sets |= {id(t.fv), id(t.fn.fv)}
            t = t.arg
        assert sets == {id(t.fv)} and not t.fv
        body = App(App(Var("f"), Var("x")), Var("f"))
        assert body.fv is body.fn.fv and Lam("y", body).fv is body.fv
        assert Lam("f", Lam("x", body)).fv is t.fv


class TestExtendStackBottom:
    def test_bottom_becomes_pi0(self):
        pi0 = stack_of(Numeral(1))
        assert extend_stack_bottom(BOTTOM, pi0) == pi0

    def test_instruction_unchanged(self):
        assert extend_stack_bottom(Inst("cc"), stack_of(Numeral(1))) == Inst("cc")

    def test_kont_extended_inside(self):
        pi0 = stack_of(Numeral(1))
        assert extend_stack_bottom(Kont(BOTTOM), pi0) == Kont(pi0)

    def test_identity_on_proof_like(self):
        rng = random.Random(7)
        pi0 = stack_of(Inst("stop"))
        for _ in range(100):
            term = random_closed_term(rng, depth=5)
            assert extend_stack_bottom(term, pi0) == term

    def test_distributes_over_app_and_push(self):
        rng = random.Random(8)
        pi0 = stack_of(Numeral(9))
        for _ in range(100):
            a = random_closed_term(rng, 3)
            b = random_closed_term(rng, 3)
            assert extend_stack_bottom(App(a, b), pi0) == App(
                extend_stack_bottom(a, pi0), extend_stack_bottom(b, pi0)
            )
            rest = stack_of(b)
            assert extend_stack_bottom(Push(a, rest), pi0) == Push(
                extend_stack_bottom(a, pi0), extend_stack_bottom(rest, pi0)
            )

    def test_process_extension(self):
        p = parse_process("cc * k[$] . $")
        pi0 = stack_of(Numeral(3))
        out = extend_stack_bottom(p, pi0)
        assert out == Process(Inst("cc"), Push(Kont(pi0), pi0))


# hypothesis-driven properties


def _terms(closed=False):
    rng_seed = st.integers(min_value=0, max_value=10_000)
    depth = st.integers(min_value=1, max_value=6)
    return st.builds(
        lambda seed, d: random_term(random.Random(seed), d, closed=closed),
        rng_seed,
        depth,
    )


@settings(max_examples=200, deadline=None)
@given(_terms())
def test_print_parse_round_trip(term):
    assert parse_term(print_term(term)) == term


@settings(max_examples=200, deadline=None)
@given(_terms(closed=True), st.integers(min_value=0, max_value=10_000))
def test_round_trip_processes(head, seed):
    rng = random.Random(seed)
    from gen import random_stack

    p = Process(head, random_stack(rng))
    assert parse_process(print_process(p)) == p


@settings(max_examples=200, deadline=None)
@given(
    _terms(),
    _terms(),
    _terms(closed=True),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["d", "e"]),
)
def test_substitution_lemma(term, u, v, x, y):
    # t{x:=u}{y:=v} = t{y:=v}{x:=u{y:=v}} when x != y and x not in FV(v)
    assert x != y and x not in free_vars(v)
    lhs = substitute(substitute(term, x, u), y, v)
    rhs = substitute(substitute(term, y, v), x, substitute(u, y, v))
    assert lhs == rhs


class TestCorners:
    def test_arbitrary_precision_numerals(self):
        big = 10**30
        assert parse_term(f"#{big}") == Numeral(big)
        assert print_term(Numeral(big)) == f"#{big}"

    def test_binder_may_shadow_an_instruction_name(self):
        term = parse_term(r"\cc. cc")
        assert term == Lam("w", Var("w"))
        assert parse_term(print_term(term)) == term

    def test_numeral_rejects_negatives(self):
        with pytest.raises(ValueError):
            Numeral(-1)


def _nodes():
    """One node of each class, with the text ``repr`` gives it."""
    two = Push(Numeral(1), Push(Inst("stop"), BOTTOM))
    return [
        (Var("x"), "Var(name='x')"),
        (Lam("x", Var("x")), "Lam(binder='x', body=Var(name='x'))"),
        (App(Var("f"), Inst("s")), "App(fn=Var(name='f'), arg=Inst(name='s'))"),
        (Inst("cc"), "Inst(name='cc')"),
        (Numeral(7), "Numeral(n=7)"),
        (Kont(two), "Kont(saved=Push(top=Numeral(n=1), rest=Push(top=Inst(name='stop'), rest=Bottom())))"),
        (HConst("pair"), "HConst(kind='pair')"),
        (TExpr(EVar("n")), "TExpr(expr=EVar(name='n'))"),
        (Push(Numeral(1), BOTTOM), "Push(top=Numeral(n=1), rest=Bottom())"),
        (Bottom(), "Bottom()"),
    ]


def _lamc_subclasses(base):
    found, todo = set(), [base]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("lamc."):
                found.add(cls)
                todo.append(cls)
    return found


class TestNodeClasses:
    """Terms and stacks are slot classes, built one way and immutable; they
    keep the repr, match, pickle and copy behaviour of frozen dataclasses."""

    def test_repr_table(self):
        for node, text in _nodes():
            assert repr(node) == text

    def test_fields_are_frozen(self):
        for node, _ in _nodes():
            names = node.__match_args__ + (("fv",) if isinstance(node, Term) else ())
            for name in names:
                before = getattr(node, name)
                with pytest.raises(dataclasses.FrozenInstanceError) as err:
                    setattr(node, name, Var("y"))
                assert str(err.value) == f"cannot assign to field {name!r}"
                with pytest.raises(dataclasses.FrozenInstanceError) as err:
                    delattr(node, name)
                assert str(err.value) == f"cannot delete field {name!r}"
                assert getattr(node, name) is before
            with pytest.raises(AttributeError):
                node.extra = 1

    def test_one_way_to_build_a_node(self):
        terms, stacks = _lamc_subclasses(Term), _lamc_subclasses(Stack)
        assert terms == {Var, Lam, App, Inst, Numeral, Kont, HConst, TExpr}
        assert stacks == {Bottom, Push}
        assert not any(dataclasses.is_dataclass(cls) for cls in terms | stacks)

    def test_pickle_and_copy_round_trip(self):
        realizer = closed_realizer(2)[0]
        process = Process(realizer, Push(sigma01_wrapper(), BOTTOM))
        subjects = [realizer, process, cps_process(process), stack_of(Numeral(3), realizer, Inst("stop")),
                    Kont(Push(Numeral(1), Push(realizer, BOTTOM)))]
        for dup in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            for x in subjects:
                y = dup(x)
                assert y == x
                assert repr(y) == repr(x)
                top = (lambda s: s.head) if isinstance(x, Process) else (lambda s: s)
                assert getattr(top(y), "fv", None) == getattr(top(x), "fv", None)

    def test_match_patterns_bind(self, cfg):
        match stack_of(Numeral(3), Inst("stop"), Numeral(0)):
            case Push(Numeral(n), Push(u, rest)):
                assert (n, u, rest) == (3, Inst("stop"), Push(Numeral(0), BOTTOM))
            case _:
                pytest.fail("Push(Numeral(n), Push(u, rest)) did not bind")
        tail = Push(Inst("stop"), BOTTOM)
        for head, stack, rule, after in [
            (App(Inst("s"), Numeral(3)), tail, "Push", Process(Inst("s"), Push(Numeral(3), tail))),
            (Lam("x", Var("x")), Push(Numeral(1), BOTTOM), "Grab", Process(Numeral(1), BOTTOM)),
            (Kont(tail), Push(Numeral(1), BOTTOM), "Resume", Process(Numeral(1), tail)),
            (Inst("s"), Push(Numeral(3), tail), "s", Process(Inst("stop"), Push(Numeral(4), BOTTOM))),
            (Inst("rec"), stack_of(Var("a"), Var("b"), Numeral(0)), "rec-0", Process(Var("a"), BOTTOM)),
            (Inst("print"), Push(Numeral(5), tail), "print", Process(Inst("stop"), BOTTOM)),
        ]:
            result = step(Process(head, stack), cfg)
            assert (result.rule, result.process) == (rule, after)
        result = step(Process(Inst("rec"), stack_of(Var("a"), Var("b"), Numeral(2))), cfg)
        again = App(App(App(Inst("rec"), Var("a")), Var("b")), Numeral(1))
        assert (result.rule, result.process) == ("rec-s", Process(Var("b"), stack_of(Numeral(1), again)))
        assert step(Process(Inst("stop"), Push(Numeral(9), BOTTOM)), cfg) == Halt("final-stop", 9)
        assert step(Process(Numeral(2), tail), cfg) == Halt("stuck")
        with pytest.raises(MachineError, match="free variable 'y' in head position"):
            step(Process(Var("y"), tail), cfg)

    def test_construction_errors(self):
        for build, message in [
            (lambda: Numeral(-1), "numerals are naturals"),
            (lambda: HConst("foo"), "unknown constant 'foo'"),
            (lambda: Kont(Push(Numeral(1), Push(Var("x"), BOTTOM))), "saved stacks are closed: free variable 'x'"),
        ]:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message


class TestSharedFrontEnd:
    """lambda-c and HA2 terms share the node classes, lexer, grammar and
    printer; each language keeps its own leaves."""

    def test_hterm_rejects_numerals(self):
        from lamc.ha2 import parse_hterm

        with pytest.raises(ParseError) as exc:
            parse_hterm("#3")
        assert str(exc.value) == "1:1: expected a term"

    def test_hterm_has_no_continuations(self):
        from lamc.ha2 import parse_hterm

        with pytest.raises(ParseError) as exc:
            parse_hterm("k[$]")
        assert str(exc.value) == "1:2: unexpected trailing input '['"

    def test_lambda_c_rejects_pair_sugar(self):
        with pytest.raises(ParseError) as exc:
            parse_term("<a; b>")
        assert str(exc.value) == "1:1: expected a term"

    def test_print_parse_round_trips_both_languages(self):
        from gen import random_hterm, random_process
        from lamc.ha2 import parse_hterm

        rng = random.Random(12)
        for _ in range(300):
            p = random_process(rng)
            assert parse_process(print_process(p)) == p
            t = random_hterm(rng, rng.randint(1, 6), closed=bool(rng.getrandbits(1)))
            assert parse_hterm(print_term(t)) == t
