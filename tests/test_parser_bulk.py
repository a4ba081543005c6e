"""The bulk relation loop against the token path: with the loop on and
off, every input parses to the same problem or fails with the same error
class, message and span.  Also: the order of errors and the spans the
offset scanner reports."""

from pathlib import Path

import numpy as np
import pytest

from randgen import random_sentence, random_structure
from sli.errors import ParseError, SliError, SourceSpan
from sli.logic import Vocabulary
from sli.parser import Parser, Problem, parse_problem, print_problem, tokenize

DATA = Path(__file__).parent / "data"


def _outcome(text: str):
    """What parsing text gives, in a form that compares by value
    (Structure compares by identity)."""
    try:
        p = parse_problem(text, "in.sli")
    except SliError as e:
        return type(e), str(e), getattr(e, "span", None)
    s = p.structure
    tables = {name: t.entries for name, t in s.functions.items()}
    return p.voc, p.sentences, s.domains, s.relations, tables


def _both(monkeypatch, text: str):
    """(outcome with the bulk loop, outcome without it, number of relation
    literals where the loop took tuples)."""
    bulk, took = Parser._bulk_tuples, []

    def counted(parser, arg_types, tuples):
        took.append(bulk(parser, arg_types, tuples))
        return took[-1]

    def off(parser, arg_types, tuples):
        return False

    outcomes = []
    for replacement in (counted, off):
        with monkeypatch.context() as m:
            m.setattr(Parser, "_bulk_tuples", replacement)
            outcomes.append(_outcome(text))
    return outcomes[0], outcomes[1], sum(took)


def _same(monkeypatch, text: str) -> int:
    bulk, tokens, took = _both(monkeypatch, text)
    assert bulk == tokens, text
    return took


HEAD = """vocabulary {
  type T := {a, b, c}.
  type U := {u, w}.
  type N := Int[1..3].
  pred e(T, T).
  pred t(T, U, T).
  pred q(T).
  pred n(N).
  pred m(T, N).
}
structure {
"""

# (relation literals, whether the bulk loop takes tuples, the error or None)
HAND = {
    "trailing_comma": ("e := {(a, a), }.", True, "bare value only allowed for unary symbols"),
    "duplicate": ("e := {(a, b), (b, c), (a, b), (c, c)}.", True, "duplicate tuple in relation"),
    "unknown_element": ("e := {(a, b), (b, zz), (c, c)}.", True, "unknown element: zz"),
    "wrong_type": ("e := {(a, b), (b, u)}.", True, "element u has type U, expected T"),
    "wrong_type_ternary": ("t := {(a, u, b), (a, b, b)}.", True, "element b has type T, expected U"),
    "too_long": ("e := {(a, b), (a, b, c), (c, c)}.", True, "tuple longer than declared arity"),
    "too_short": ("e := {(a, b), (a), (c, c)}.", True, "tuple of 1 values for arity 2"),
    "keyword_name": ("e := {(a, b), (true, a)}.", True, "expected element name, found 'true'"),
    "keyword_name_in": ("q := {a, in, b}.", True, "expected element name, found 'in'"),
    "comment": ("e := {(a, b), // note\n (b, c), (c, a)}.", True, None),
    "comment_in_tuple": ("e := {(a, b), (b, // c\n c), (c, a)}.", True, None),
    "missing_comma": ("e := {(a, b), (b, c) (c, a)}.", True, "expected '}', found '('"),
    "missing_comma_first": ("e := {(a, b) (b, c)}.", False, "expected '}', found '('"),
    "integers": ("n := {1, 2, 3}. m := {(a, 1), (b, 3)}.", False, None),
    "integer_out_of_range": ("n := {1, 4}.", False, "value 4 outside Int[1..3]"),
    "name_for_integer": ("n := {a, 2}.", False, "element a has type T, expected N"),
    "empty": ("e := {}. q := {}.", False, None),
    "bare_and_parenthesised": ("q := {a, (b), c}.", True, None),
    "same_bare_and_parenthesised": ("q := {a, (b), (a), c}.", True, "duplicate tuple in relation"),
    "bare_for_binary": ("e := {(a, b), c, (c, c)}.", True, "bare value only allowed for unary symbols"),
    "spaces_and_newlines": ("e := {\n (a,b) ,(b ,\tc),\n\n(c, a)\n}.", True, None),
    "two_relations": ("e := {(a, b), (b, c)}. q := {c, b, a}.", True, None),
    "interpreted_twice": ("e := {(a, b), (b, c)}. e := {(c, c), (a, a)}.", True, "e interpreted twice"),
    "pair_for_unary": ("q := {a, (b, c), c}.", True, "tuple longer than declared arity"),
    "unopened_paren": ("q := {a, b), c}.", True, "expected '}', found ')'"),
    "unclosed_paren": ("q := {a, (b, c}.", True, "tuple longer than declared arity"),
    "unary_trailing_comma": ("q := {a, b, }.", True, "expected element name, found '}'"),
}


@pytest.mark.parametrize("case", sorted(HAND))
def test_hand_case_matches_the_token_path(monkeypatch, case):
    body, takes, error = HAND[case]
    text = HEAD + "  " + body + "\n}\n"
    bulk, tokens, took = _both(monkeypatch, text)
    assert bulk == tokens
    assert bool(took) == takes
    if error is None:
        assert isinstance(bulk[0], Vocabulary), bulk
    else:
        assert issubclass(bulk[0], ParseError) and bulk[1].endswith(error), bulk


def test_trailing_comma_fails_at_the_closing_brace(monkeypatch):
    text = HEAD + "  e := {(a, a), }.\n}\n"
    assert _both(monkeypatch, text)[0][2] == SourceSpan("in.sli", 12, 17, 18)


def _random_problem(rng) -> Problem:
    s = random_structure(rng, max_size=5, n_preds=(1, 4), n_funcs=(0, 2))
    sentences = tuple(random_sentence(rng, s, 2) for _ in range(2))
    return Problem(s.voc, sentences, s)


def test_round_trips_of_random_problems(monkeypatch):
    rng = np.random.default_rng(7)
    took = 0
    for _ in range(150):
        took += _same(monkeypatch, print_problem(_random_problem(rng)))
    assert took > 100  # the bulk loop ran on most of them


# Single-token edits of structure blocks: delete a token, or put one of
# these lexemes in place of it or before it.
LEXEMES = ["(", ")", ",", "{", "}", ".", "->", ":=", "true", "in", "0", "7", "-",
           "// c\n", "USA", "Canada", "Mexico", "red", "zz", "border", "colour"]


def _structure_mutants(text: str):
    head, sep, block = text.partition("structure {")
    tokens = [t.text for t in tokenize(block, "in.sli")[:-1]]
    for i in range(len(tokens) + 1):
        if i < len(tokens):
            yield tokens[:i] + tokens[i + 1 :]
        for lexeme in LEXEMES:
            if i < len(tokens):
                yield tokens[:i] + [lexeme] + tokens[i + 1 :]
            yield tokens[:i] + [lexeme] + tokens[i:]


def _mutant_texts():
    bases = [p.read_text() for p in sorted(DATA.glob("*.sli"))]
    # one more base whose relation has enough tuples for runs to matter
    bases.append(
        bases[0].replace(
            "{(USA, Canada), (USA, Mexico)}",
            "{(USA, Canada), (USA, Mexico), (Canada, Mexico), (Mexico, USA)}",
        )
    )
    for base in bases:
        head = base.partition("structure {")[0] + "structure {"
        for tokens in _structure_mutants(base):
            yield head + " ".join(tokens)


def test_token_mutants_of_structure_blocks(monkeypatch):
    took = sum(_same(monkeypatch, text) for text in _mutant_texts())
    assert took > 500


# -- the offset scanner: error order and spans --------------------------------

# (input, the error today's tokenize-first parser reports)
SPANS = {
    "syntax_error_then_dollar": (
        "vocabulary { type T := } theory { $ }",
        "in.sli:1:35-36: unexpected character '$'",
    ),
    "syntax_error_then_slash": (
        "vocabulary {\n  pred p( }\n structure { a / b }\n",
        "in.sli:3:16-17: unexpected character '/'",
    ),
    "bad_characters_in_a_comment": (
        "vocabulary { type T := {a}. } // $ / fine\n\t~ ^",
        "in.sli:2:4-5: unexpected character '^'",
    ),
    "bad_character_after_tabs_and_crlf": (
        "vocabulary {\r\n\t\ttype T := {a, b}. \t@\r\n}",
        "in.sli:2:22-23: unexpected character '@'",
    ),
    "unknown_element_after_tabs": (
        "vocabulary {\n\ttype T := {a, b}.\n\tpred e(T, T).\n}\n"
        "structure {\n\te := {(a, b),\t(b, zz)}.\n}\n",
        "in.sli:6:20-22: unknown element: zz",
    ),
    "duplicate_after_crlf": (
        "vocabulary {\r\n  type T := {a, b}.\r\n  pred e(T, T).\r\n}\r\n"
        "structure {\r\n  e := {(a, b), (b, a), (a, b)}.\r\n}\r\n",
        "in.sli:6:31-32: duplicate tuple in relation",
    ),
    "end_of_input_after_crlf": (
        "vocabulary {\r\n\ttype T := {a, b}.\r\n",
        "in.sli:3:1-2: expected type, pred, or func declaration",
    ),
}


@pytest.mark.parametrize("case", sorted(SPANS))
def test_errors_and_spans_are_unchanged(monkeypatch, case):
    text, want = SPANS[case]
    bulk, tokens, _ = _both(monkeypatch, text)
    assert bulk == tokens
    assert bulk[1] == want


def test_tokenize_reports_the_first_bad_character():
    with pytest.raises(ParseError, match=r"in.sli:2:3-4: unexpected character '#'"):
        tokenize("a ( // #\n  # $", "in.sli")
    tokens = tokenize("p := {(a, b)}. // done\n", "in.sli")
    assert [t.kind for t in tokens] == ["ident", "op", "op", "op", "ident", "op",
                                        "ident", "op", "op", "op", "eof"]
    assert [t.pos for t in tokens[:3]] == [0, 2, 5] and tokens[-1].pos == 23
