"""The bulk readers of relation literals and enumerated types against
the token path: with the readers on and off, every input parses to the
same problem or fails with the same error class, message and span.  Also:
the order of errors and the spans the offset scanner reports."""

import json
import os
import subprocess
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from randgen import random_sentence, random_structure
from sli import parser
from sli.errors import DuplicateDefinition, ParseError, SliError, SourceSpan
from sli.parser import Parser, Problem, parse_problem, print_problem, tokenize

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def _outcome(text: str):
    """The problem parsed from text, or its error's class, message and span."""
    try:
        return parse_problem(text, "in.sli")
    except SliError as e:
        return type(e), str(e), getattr(e, "span", None)


READERS = ("_bulk_tuples", "_bulk_elements")


def _counted(name: str, took: Counter):
    reader = getattr(Parser, name)

    def counted(self, *args):
        took[name] += (ok := reader(self, *args))
        return ok

    return counted


def _both(monkeypatch, text: str):
    """(outcome with the bulk readers, outcome without them, the number of
    literals or element lists each reader took items from, by its name)."""
    took = Counter()
    with monkeypatch.context() as m:
        for name in READERS:
            m.setattr(Parser, name, _counted(name, took))
        bulk = _outcome(text)
    with monkeypatch.context() as m:
        for name in READERS:
            m.setattr(Parser, name, lambda self, *args: False)
        tokens = _outcome(text)
    return bulk, tokens, took


def _same(monkeypatch, text: str) -> Counter:
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
    assert bool(took["_bulk_tuples"]) == takes
    if error is None:
        assert isinstance(bulk, Problem), bulk
    else:
        assert issubclass(bulk[0], ParseError) and bulk[1].endswith(error), bulk


def test_trailing_comma_fails_at_the_closing_brace(monkeypatch):
    text = HEAD + "  e := {(a, a), }.\n}\n"
    assert _both(monkeypatch, text)[0][2] == SourceSpan("in.sli", 12, 17, 18)


# -- piece boundaries: cases run with pieces of P items -----------------------

P = 3
PIECE_HEAD = """vocabulary {
  type W := {w0, w1}.
  type D := {d0, d1, d2, d3, d4, d5, d6, d7, d8, d9}.
  pred r(D, D).
  pred s(D).
}
structure {
"""
# a tuple that is not simple: (the tuple, the error the token path raises)
BAD_TUPLES = {
    "unknown": ("(d0, zz)", "unknown element: zz"),
    "wrong_type": ("(d0, w0)", "element w0 has type W, expected D"),
    "duplicate": ("(d0, d1)", "duplicate tuple in relation"),  # the first tuple
    "keyword": ("(d0, true)", "expected element name, found 'true'"),
}


def _pieces_outcome(monkeypatch, text: str):
    """The outcome with pieces of P items, checked against the token path,
    and the number of literals or lists each reader took items from."""
    monkeypatch.setattr(parser, "_PIECE", P)
    bulk, tokens, took = _both(monkeypatch, text)
    assert bulk == tokens
    return bulk, took


@pytest.mark.parametrize("bad", [None, *sorted(BAD_TUPLES)])
@pytest.mark.parametrize("n", [P - 1, P, P + 1, 2 * P])
def test_relation_pieces_of_every_length(monkeypatch, n, bad):
    """n simple tuples, each with its comma, then a bad tuple or none, and
    one last tuple: the bad one is the first item of the second piece when
    n is P."""
    items = [f"(d{i}, d{i + 1})" for i in range(n)]
    items += [BAD_TUPLES[bad][0]] if bad else []
    text = PIECE_HEAD + f"  r := {{{', '.join(items + ['(d9, d0)'])}}}.\n}}\n"
    outcome, took = _pieces_outcome(monkeypatch, text)
    assert took["_bulk_tuples"] == 1
    if bad is None:
        assert len(outcome.structure.relations["r"]) == n + 1
    else:
        assert issubclass(outcome[0], ParseError) and outcome[1].endswith(BAD_TUPLES[bad][1])


# (relation literals or type declarations, the error or None)
PIECE_CASES = {
    "comment_in_first_piece": ("r := {(d0, d1), // note\n (d1, d2), (d2, d3), (d3, d4), (d4, d5)}.", None),
    "comment_after_a_bad_piece": ("r := {(d0, d1), (d1, d2), (d0, d1), // note\n (d3, d4)}.",
                                  "duplicate tuple in relation"),
    "unary_mixed": ("s := {d0, (d1), d2, ( d3 ), d4, (d5), d6}.", None),
    "unary_mixed_duplicate": ("s := {d0, (d1), d2, (d1), d4}.", "duplicate tuple in relation"),
    "unary_mixed_unknown": ("s := {d0, (d1), d2, (zz), d4}.", "unknown element: zz"),
    "unary_mixed_wrong_type": ("s := {d0, (d1), d2, w1, d4}.", "element w1 has type W, expected D"),
    "enum_pieces": ("type E := {e0, e1, e2, e3, e4, e5, e6}.", None),
    "enum_repeated_in_first_piece": ("type E := {e0, e1, e0, e3}.", "name e0 already declared"),
    "enum_repeated_in_second_piece": ("type E := {e0, e1, e2, e0, e4}.", "name e0 already declared"),
    "enum_repeated_across_pieces": ("type E := {e0, e1, e2, e3, e4, e5, e3, e7}.", "name e3 already declared"),
    "enum_keyword": ("type E := {e0, e1, e2, in, e4}.", "expected element name, found 'in'"),
    "enum_earlier_element": ("type E := {e0, e1, e2, d4, e4}.", "name d4 already declared"),
    "enum_earlier_type": ("type E := {e0, e1, e2, W, e4}.", "name W already declared"),
    "enum_own_name": ("type E := {e0, e1, e2, E, e4}.", "name E already declared"),
    "enum_trailing_comma": ("type E := {e0, e1, e2, }.", "expected element name, found '}'"),
    "enum_comment": ("type E := {e0, e1, // note\n e2, e3, e4}.", None),
    "enum_comment_after_a_bad_piece": ("type E := {e0, e1, e0, // note\n e3}.", "name e0 already declared"),
    "enum_empty": ("type E := {}.", None),
}


@pytest.mark.parametrize("case", sorted(PIECE_CASES))
def test_piece_case_matches_the_token_path(monkeypatch, case):
    body, error = PIECE_CASES[case]
    if body.startswith("type"):
        text = PIECE_HEAD.replace("  pred r", f"  {body}\n  pred r") + "}\n"
    else:
        text = PIECE_HEAD + "  " + body + "\n}\n"
    outcome, took = _pieces_outcome(monkeypatch, text)
    if error is None:
        assert isinstance(outcome, Problem), outcome
    else:
        assert issubclass(outcome[0], ParseError) and outcome[1].endswith(error), outcome
    if error and error.startswith("name"):
        assert outcome[0] is DuplicateDefinition


def test_problems_compare_by_value():
    text = (DATA / "mapcolour3.sli").read_text()
    assert parse_problem(text) == parse_problem(text)
    # one relation tuple differs
    moved = text.replace("(USA, Mexico)}", "(Mexico, USA)}")
    assert moved != text and parse_problem(moved) != parse_problem(text)
    # one function table entry differs
    table = "}.\n  colour := {USA -> red, Canada -> green, Mexico -> %s}.\n}"
    red, blue = (text.replace("}.\n}", table % c) for c in ("red", "blue"))
    assert parse_problem(red) == parse_problem(red)
    assert parse_problem(red) != parse_problem(blue)


def _random_problem(rng) -> Problem:
    s = random_structure(rng, max_size=5, n_preds=(1, 4), n_funcs=(0, 2))
    sentences = tuple(random_sentence(rng, s, 2) for _ in range(2))
    return Problem(s.voc, sentences, s)


def test_round_trips_of_random_problems(monkeypatch):
    rng = np.random.default_rng(7)
    took = Counter()
    for _ in range(150):
        took += _same(monkeypatch, print_problem(_random_problem(rng)))
    # the bulk readers ran on most of them
    assert took["_bulk_tuples"] > 100 and took["_bulk_elements"] > 100


# Single-token edits of one block: delete a token, or put one of these
# lexemes in place of it or before it.
LEXEMES = ["(", ")", ",", "{", "}", ".", "->", ":=", "true", "in", "0", "7", "-",
           "// c\n", "USA", "Canada", "Mexico", "red", "zz", "border", "colour"]
VOCABULARY_LEXEMES = LEXEMES + ["type", "pred", "func", "Int", "[", "]", "..", "V", "C",
                                "Cuba"]


def _block_mutants(text: str, block: str, lexemes: list[str]):
    """text with one token edit in the named block, for each edit."""
    head, sep, rest = text.partition(block + " {")
    end = rest.find("\ntheory {")
    body, tail = (rest, "") if end < 0 else (rest[:end], rest[end:])
    tokens = [t.text for t in tokenize(body, "in.sli")[:-1]]
    for i in range(len(tokens) + 1):
        edits = [tokens[:i] + tokens[i + 1 :]] if i < len(tokens) else []
        for lexeme in lexemes:
            if i < len(tokens):
                edits.append(tokens[:i] + [lexeme] + tokens[i + 1 :])
            edits.append(tokens[:i] + [lexeme] + tokens[i:])
        for edit in edits:
            yield head + sep + " ".join(edit) + tail


def _bases() -> list[str]:
    bases = [p.read_text() for p in sorted(DATA.glob("*.sli"))]
    # one more base whose relation and type have enough items for pieces
    # to matter
    bases.append(
        bases[0]
        .replace(
            "{(USA, Canada), (USA, Mexico)}",
            "{(USA, Canada), (USA, Mexico), (Canada, Mexico), (Mexico, USA)}",
        )
        .replace("{USA, Canada, Mexico}", "{USA, Canada, Mexico, Cuba, Haiti, Belize}")
    )
    return bases


def test_token_mutants_of_structure_blocks(monkeypatch):
    took = Counter()
    for base in _bases():
        for text in _block_mutants(base, "structure", LEXEMES):
            took += _same(monkeypatch, text)
    assert took["_bulk_tuples"] > 500


@pytest.mark.parametrize("piece", [3, parser._PIECE])
def test_token_mutants_of_vocabulary_blocks(monkeypatch, piece):
    monkeypatch.setattr(parser, "_PIECE", piece)
    took = Counter()
    for base in _bases():
        for text in _block_mutants(base, "vocabulary", VOCABULARY_LEXEMES):
            took += _same(monkeypatch, text)
    assert took["_bulk_elements"] > 5000


# -- the oldest Python the package declares ----------------------------------

# Prints the problems of the files named on the command line, as JSON.  It
# imports sli.parser alone, under a stub package: this interpreter may lack
# numpy, which sli/__init__.py pulls in through the other modules.
_PRINT_PROBLEMS = """
import json, sys, types
sli = types.ModuleType("sli")
sli.__path__ = [sys.argv[1]]
sys.modules["sli"] = sli
from sli.parser import parse_problem, print_problem
print(json.dumps([print_problem(parse_problem(open(p).read(), p)) for p in sys.argv[2:]]))
"""


def _python_3_10():
    """A Python 3.10 interpreter that starts, or None."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    for exe in sorted(root.glob("versions/3.10.*/bin/python")):
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.version_info[:2] == (3, 10))"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.stdout.strip() == "True":
            return exe
    return None


def test_problems_parse_the_same_under_python_3_10(tmp_path):
    exe = _python_3_10()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter starts")
    # colour-like: a type of 5000 elements and a relation of 9000 pairs,
    # so both bulk readers take more than one piece
    rng = np.random.default_rng(5)
    pairs = sorted({(int(a), int(b)) for a, b in rng.integers(0, 5000, (9500, 2)) if a != b})
    assert len(pairs) > 2 * parser._PIECE
    colour = tmp_path / "colour.sli"
    colour.write_text(
        (DATA / "mapcolour3.sli").read_text()
        .replace("{USA, Canada, Mexico}", "{" + ", ".join(f"v{i}" for i in range(5000)) + "}")
        .replace("{(USA, Canada), (USA, Mexico)}",
                 "{" + ", ".join(f"(v{a}, v{b})" for a, b in pairs) + "}")
    )
    files = [str(p) for p in sorted(DATA.glob("*.sli"))] + [str(colour)]
    run = subprocess.run(
        [exe, "-c", _PRINT_PROBLEMS, str(SRC / "sli"), *files],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    want = [print_problem(parse_problem(Path(f).read_text(), f)) for f in files]
    assert json.loads(run.stdout) == want
    assert len(parse_problem(colour.read_text()).structure.relations["border"]) == len(pairs)


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


def test_the_character_check_agrees_with_its_regex_on_every_ascii_character():
    for c in map(chr, range(128)):
        text = f"a {c} b"
        clean = parser._CLEAN_RE.match(text).end() == len(text)
        try:
            parser._check_characters(text, "in.sli")
        except ParseError:
            assert not clean, repr(c)
        else:
            assert clean, repr(c)


class _CountingRegex:
    """Stands in for parser._CLEAN_RE and counts its matches."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def match(self, text):
        self.calls += 1
        return self.pattern.match(text)


# (text, offset of its first bad character or None, regex matches made)
CHARACTER_CASES = [
    ("a // café ✓ $\nb", None, 0),
    ("a // first\nb // second\r\n// third\n  c", None, 0),
    ("a // a comment at the end, with no newline", None, 0),
    ("a /// three slashes start a comment / too\nb", None, 0),
    ("a\u00a0b // non-ASCII whitespace is whitespace to the regex", None, 1),
    ("a $ // x\nb // y\nc", 2, 1),
    ("a // x\nb $ // y\nc", 9, 1),
    ("a // x\nb // y\nc é", 16, 1),
    ("a / b", 2, 1),
    ("a /", 2, 1),
    ("/", 0, 1),
    ("a // x\n/ b", 7, 1),
]


@pytest.mark.parametrize("text, bad, matches", CHARACTER_CASES)
def test_the_character_check_skips_comments_without_the_regex(monkeypatch, text, bad, matches):
    """Comments are skipped by find, so clean text, with comments or with
    non-ASCII characters inside them, never reaches the regex; a bad
    character outside them is located by the regex, with the message and
    span the whole-text regex gives."""
    regex = _CountingRegex(parser._CLEAN_RE)
    assert (regex.pattern.match(text).end() == len(text)) == (bad is None)
    monkeypatch.setattr(parser, "_CLEAN_RE", regex)
    if bad is None:
        parser._check_characters(text, "in.sli")
    else:
        span = parser._span(text, "in.sli", bad, 1)
        with pytest.raises(ParseError) as err:
            parser._check_characters(text, "in.sli")
        assert str(err.value) == f"{span}: unexpected character {text[bad]!r}"
    assert regex.calls == matches


def test_a_parsed_colour_literal_holds_its_tuples_as_int64():
    """50000 border pairs over 5000 vertices: the parsed problem keeps
    them as one int64 buffer of 0.76 MiB, not as a set of tuples (about
    5 MiB), and builds no set of them while it is not asked for one."""
    rng = np.random.default_rng(11)
    pairs = set()
    while len(pairs) < 50000:
        a, b = (int(i) for i in rng.integers(0, 5000, 2))
        if a != b:
            pairs.add((a, b))
    text = (
        "vocabulary {\n  type V := {" + ", ".join(f"v{i}" for i in range(5000)) + "}.\n"
        "  type C := {c0, c1, c2, c3}.\n  pred border(V, V).\n  func colour(V) -> C.\n}\n"
        "theory {\n  !x, y in V: x ~= y & border(x, y) => colour(x) ~= colour(y).\n}\n"
        "structure {\n  border := {" + ", ".join(f"(v{a}, v{b})" for a, b in sorted(pairs))
        + "}.\n}\n"
    )
    parse_problem(text)  # compile the regexes and warm any caches first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        problem = parse_problem(text)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    border = problem.structure.relations["border"]
    assert len(border) == 50000 and border.buffer is not None
    assert held <= 1.5 * 2**20, held
    assert border == pairs
