"""The table-driven lexer against the character-by-character scanner it
replaced (``syntax_reference.lex``).

Tokens and errors agree on every input except in two documented ways:

- digits are ASCII ``0-9``: the reference reads any ``str.isdigit``
  character (``²``, ``٣``) as a digit, the lexer rejects it where it stands;
- the end-of-input token after a comment that ends the text sits at the end
  of the text, where the reference leaves it at the start of the comment.
"""

import pathlib
import random

import pytest

import syntax_reference
from lamc.arith import default_signature, parse_expr
from lamc.demo import build_script
from lamc.syntax import Numeral, ParseError, _lex, parse_process, parse_term

ROOT = pathlib.Path(__file__).resolve().parent.parent

ASCII_DIGITS = frozenset("0123456789")

# every punctuation mark, layout and comments, then (drawn rarely, so that
# most texts get past them) characters outside the token set: non-ASCII
# digits and letters, a non-ASCII blank, stray ASCII
PIECES = (
    list("\\.*$()[]{};,=<>|+#-/")
    + ["...", "->", "<=", "==", "/\\", "\\/", "#(", "--", "-- c\n"]
    + [" ", " ", "\t", "\r", "\n", "\n"]
    + ["x", "k[", "stop", "s", "y'", "_a1", "Eval", "0", "7", "42", "#3", "#12"]
)
ODD = ["²", "٣", "#²", "#٣", "5²", "λ", "é", "\u00a0", "~", "@", "!", "'"]


def _run_reference(text):
    tokens = []
    try:
        for tok in syntax_reference.lex(text):
            tokens.append(tok)
    except ParseError as err:
        return tokens, (err.line, err.col, err.message)
    return tokens, None


def _expected_digit_error(tok):
    """The error the lexer gives on the reference's first token that holds a
    non-ASCII digit: at that digit, or at the '#' that it follows."""
    kind, text, line, col = tok
    i = next(i for i, c in enumerate(text) if c not in ASCII_DIGITS)
    if kind == "numlit" and i == 0:
        return line, col, "expected digits after '#'"
    return line, col + i + (kind == "numlit"), f"unexpected character {text[i]!r}"


def assert_matches_reference(text):
    tokens, error = _run_reference(text)
    for tok in tokens:
        if tok[0] in ("nat", "numlit") and not ASCII_DIGITS.issuperset(tok[1]):
            error = _expected_digit_error(tok)
            break
    else:
        if error is None:
            got = [tuple(tok) for tok in _lex(text)]
            last_line = text[text.rfind("\n") + 1 :]
            assert got[-1] == ("eof", "", tokens[-1][2], len(last_line) + 1)
            if got[-1] != tokens[-1]:
                assert "--" in last_line  # the second documented difference
            assert got[:-1] == tokens[:-1]
            return
    with pytest.raises(ParseError) as exc:
        _lex(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == error


def _shipped_scripts():
    for path in sorted((ROOT / "demos").glob("*.lc")):
        yield path.name, path.read_text(encoding="utf-8")
    for c in (1, 5, 100, 10**4):
        text = build_script(c)
        yield f"build_script({c}, 'print')", text
        yield f"build_script({c}, 'plain')", text.replace(r"(\x y. print x y (stop x))", r"(\x y. y (stop x))")


SCRIPTS = list(_shipped_scripts())


@pytest.mark.parametrize("text", [text for _, text in SCRIPTS], ids=[n for n, _ in SCRIPTS])
def test_shipped_scripts_match_the_reference(text):
    assert_matches_reference(text)


def test_random_text_matches_the_reference():
    rng = random.Random(13)
    for _ in range(4000):
        n = rng.randrange(0, 30)
        pieces = (rng.choice(ODD if rng.random() < 0.03 else PIECES) for _ in range(n))
        assert_matches_reference("".join(pieces))


@pytest.mark.parametrize(
    "text, error",
    [
        ("#²", "1:1: expected digits after '#'"),
        ("#٣", "1:1: expected digits after '#'"),
        ("#1²", "1:3: unexpected character '²'"),
        ("x\n  ٣", "2:3: unexpected character '٣'"),
    ],
)
def test_non_ascii_digits_are_rejected(text, error):
    with pytest.raises(ParseError) as exc:
        _lex(text)
    assert str(exc.value) == error


def test_end_of_input_after_a_trailing_comment_is_the_end_of_the_text():
    # the reference scanner put it at the comment's start, 1:13
    assert _lex("stop * #1 . -- c")[-1] == ("eof", "", 1, 17)
    with pytest.raises(ParseError) as exc:
        parse_process("stop * #1 . -- c")
    assert str(exc.value).startswith("1:17: ")


class TestLongLiterals:
    DIGITS = "9" * 10_000

    def test_in_a_term(self):
        with pytest.raises(ParseError) as exc:
            parse_term(f"stop #{self.DIGITS}")
        assert str(exc.value) == "1:6: numeral literal too long (10000 digits)"

    def test_in_an_expression(self):
        with pytest.raises(ParseError) as exc:
            parse_expr(f"x + {self.DIGITS}", default_signature())
        assert str(exc.value) == "1:5: numeral literal too long (10000 digits)"

    def test_a_literal_under_the_limit_reads_back(self):
        assert parse_term("#" + "9" * 4000) == Numeral(10**4000 - 1)
