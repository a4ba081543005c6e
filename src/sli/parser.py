"""Parser and printer for the .sli problem format.

A problem file has up to three blocks, in order:

    vocabulary {
      type T := {a, b, c}.          // enumerated type
      type N := Int[1..8].          // integer-interval type
      pred p(T, T).
      func f(T) -> Int[0..10].
    }
    theory {
      !x in T: p(x, x) | ?y in T: q(y).
    }
    structure {
      p := {(a, b), (b, c)}.        // predicate: set of tuples
      f := {a -> 3, b -> 0, c -> 7} // function: total map
    }

Formulas: ~ & | => <=> with precedence ~ > & > | > => > <=> and a
right-associative =>; quantifiers `!x in T:` (universal) and `?x in T:`
(existential) bind to the end of the sentence or enclosing parenthesis.
Comparisons: = ~= < =< > >=.  Comments run from // to end of line.
Formulas and terms may nest at most MAX_NESTING_DEPTH levels (each ~,
parenthesis, quantifier, argument list and binary operator is a level);
deeper input is a ParseError rather than a stack overflow.
Implies/Equiv are desugared at parse time; parsed sentences are closed,
type-checked, and contain only the negation/and/or core.

The parser pulls its tokens on demand from one regex scanner over the
text.  A token records only its offset; an error turns that into a line
and a column.  One pass over the whole text first finds any character no
token can start with, so that character is reported before any syntax
error, wherever it stands.

Relation literals and the element lists of enumerated types are most of
a large input, so each one starts with a bulk reader that takes the
leading run of simple items straight from the text, each with its comma,
a piece of up to _PIECE items at a time.  One bounded regex match finds
a piece; its names come from one split, and each argument position is
resolved through one dict from name to index per type.  A tuple is
simple when it is `(name, ..., name)` or, for a unary symbol, a bare
name, with only whitespace between, each name an element of its declared
type and the tuple not seen before; an element is simple when it is a
name, not a keyword and not declared before.  A piece of simple, distinct
items is taken whole.  Of any other piece, the tuple reader takes the
tuples before its first one that is not simple, and the element reader
takes none.  The reader then stops and re-seats the scanner; the token
path parses the rest of the list and raises every error, with the
message and span it has without the reader.  Function tables and integer
values always take the token path.  Both paths append a literal's tuples,
in text order, to one int64 buffer that becomes its Relation.  The
duplicate check keeps the keys of the tuples seen, and they end with the
literal.  When every argument type is enumerated, a tuple's key is its
mixed-radix index (_radix_keys), an int that both paths compute, so no
tuple object is kept; otherwise it is the tuple itself, which the
Relation of a literal holding an index of 2^63 or more is built from.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DuplicateDefinition,
    ParseError,
    SourceSpan,
    TypeCheckError,
    UnknownElement,
)
from .logic import (
    COMPARE_OPS,
    FALSE,
    TRUE,
    And,
    Arith,
    Atom,
    Compare,
    DomainConstant,
    EnumType,
    Equiv,
    Exists,
    ForAll,
    Formula,
    FuncSig,
    FunctionApp,
    FunctionTable,
    Implies,
    IntConstant,
    Interval,
    IntervalType,
    Not,
    Or,
    Relation,
    Structure,
    Term,
    TrueFormula,
    FalseFormula,
    Variable,
    Vocabulary,
    check_sentence,
    desugar,
)

# Every later stage (type checking, desugaring, grounding, emission) recurses
# over the formula tree, a few Python frames per level, so this stays well
# inside the interpreter's default recursion limit of 1000 frames.
MAX_NESTING_DEPTH = 100

KEYWORDS = {
    "vocabulary",
    "theory",
    "structure",
    "type",
    "pred",
    "func",
    "in",
    "Int",
    "true",
    "false",
}

_OPS = (
    "<=>",
    ":=",
    "->",
    "=>",
    "~=",
    "=<",
    ">=",
    "..",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ",",
    ".",
    ":",
    "!",
    "?",
    "~",
    "&",
    "|",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# A token is one of these, after any whitespace and comments; the eof
# group matches only at the end of the text
_TOKEN_RE = re.compile(
    r"\s*(?://[^\n]*\s*)*"
    rf"(?:(?P<int>\d+)|(?P<ident>{_IDENT})"
    r"|(?P<op>" + "|".join(re.escape(o) for o in _OPS) + r")|(?P<eof>\Z))"
)
# The longest prefix made of characters some token starts with (a "/"
# only as the start of a comment); what follows it is a bad character
_CLEAN_RE = re.compile(
    r"(?:[\s\dA-Za-z_" + re.escape("".join(sorted({o[0] for o in _OPS}))) + r"]+|//[^\n]*)*"
)


class Token(NamedTuple):
    kind: str  # 'int', 'ident', 'keyword', 'op', 'eof'
    text: str
    pos: int  # offset of its first character in the source text


def _span(text: str, filename: str, pos: int, width: int) -> SourceSpan:
    """The span of width characters at offset pos: lines count newlines,
    columns count characters after the last one, from 1."""
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return SourceSpan(filename, line, col, col + width)


# The ASCII characters _CLEAN_RE takes outside a comment; "/" is not one
_CLEAN_ASCII = bytes(c for c in range(128) if _CLEAN_RE.fullmatch(chr(c)))


def _check_characters(text: str, filename: str) -> None:
    """Raise on the first character outside a comment that no token can
    start with, before any token is parsed.  Comments are skipped with
    str.find of their first "/" (a one-character find is a memchr), and
    the text between them passes without the regex when it is ASCII made
    of those characters alone; only text that does not pass, or a "/"
    that starts no comment, is matched by _CLEAN_RE, which locates the
    bad character."""
    start = 0
    while start >= 0:
        comment = text.find("/", start)
        part = text[start:comment] if comment >= 0 else text[start:]
        if (
            not part.isascii()
            or part.encode().translate(None, _CLEAN_ASCII)
            or (comment >= 0 and not text.startswith("//", comment))
        ):
            pos = _CLEAN_RE.match(text).end()
            if pos < len(text):
                raise ParseError(
                    f"unexpected character {text[pos]!r}", _span(text, filename, pos, 1)
                )
            return
        start = text.find("\n", comment) if comment >= 0 else -1


def _scan(text: str, pos: int = 0) -> Iterator[Token]:
    """The tokens of text from offset pos on, ending with one eof token.
    The text must have passed _check_characters."""
    for m in _TOKEN_RE.finditer(text, pos):
        kind = m.lastgroup
        lexeme = m[kind]
        yield Token(
            "keyword" if kind == "ident" and lexeme in KEYWORDS else kind,
            lexeme,
            m.start(kind),
        )
        if kind == "eof":
            return


def tokenize(text: str, filename: str) -> list[Token]:
    """All tokens of text, ending with an eof token."""
    _check_characters(text, filename)
    return list(_scan(text))


# The most items one bulk piece takes, so each piece's lists stay small
_PIECE = 4096
# blanks the punctuation of simple items, so that split() yields the names
_UNPUNCT = str.maketrans("(),", "   ")


def _tuple_item(arity: int) -> str:
    """The pattern of one tuple of a relation literal in its simple form,
    with the comma after it: a parenthesised list of arity names and, for
    a unary symbol, also a bare name, with whitespace only between them."""
    item = r"\(\s*" + r"\s*,\s*".join([_IDENT] * arity) + r"\s*\)"
    if arity == 1:
        item = f"(?:{item}|{_IDENT})"
    return item + r"\s*,\s*"


def _radix_keys(flat: Sequence[int], sizes: list[int]) -> Iterable[int]:
    """The mixed-radix index over sizes of each tuple in flat, whose tuples
    of len(sizes) indices lie end to end: the keys are formed a position
    at a time with map, so no tuple is built."""
    k = len(sizes)
    keys: Iterable[int] = flat[0::k]
    for j in range(1, k):
        keys = map(add, map(mul, keys, repeat(sizes[j])), flat[j::k])
    return keys


def _piece(item: str):
    """The anchored match of up to _PIECE items in a row.  A greedy bounded
    repeat: Python 3.10 has no possessive quantifier or atomic group."""
    return re.compile(f"(?:{item}){{0,{_PIECE}}}").match


@dataclass
class Problem:
    """A parsed model-expansion problem: vocabulary, sentences, structure."""

    voc: Vocabulary
    sentences: tuple[Formula, ...]
    structure: Structure
    filename: str = "<string>"


@dataclass
class _Scope:
    vars: dict[str, Variable] = field(default_factory=dict)


class Parser:
    """Recursive descent over the one token in hand, self.tok, pulled on
    demand from a scanner over self.text.  parse_relation first lets
    _bulk_tuples, and an enumerated type first lets _bulk_elements, take
    the leading run of simple items from the text a piece at a time and
    re-seat the scanner after it; the token path parses the rest and
    raises every error (see the module docstring)."""

    def __init__(self, text: str, filename: str = "<string>"):
        _check_characters(text, filename)
        self.text = text
        self.filename = filename
        self._seat(0)
        self.depth = 0  # nesting of the formula or term being parsed
        self.voc = Vocabulary()
        self.domains: dict[str, tuple[str, ...]] = {}
        self.elements: dict[str, tuple[str, int]] = {}  # name -> (type, index)
        self.indices: dict[str, dict[str, int]] = {}  # enum type -> name -> index
        self.names: set[str] = set()  # all declared names, for uniqueness

    # -- token plumbing ------------------------------------------------------

    def _seat(self, pos: int) -> None:
        """Scan on from offset pos, which starts a token or whitespace."""
        self._tokens = _scan(self.text, pos)
        self.tok = next(self._tokens)

    def next(self) -> Token:
        t = self.tok
        if t.kind != "eof":
            self.tok = next(self._tokens)
        return t

    def span(self, tok: Token) -> SourceSpan:
        return _span(self.text, self.filename, tok.pos, max(1, len(tok.text)))

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        return ParseError(message, self.span(self.tok if tok is None else tok))

    def expect(self, text: str) -> Token:
        t = self.tok
        if t.text != text or t.kind == "eof":
            raise self.error(f"expected {text!r}, found {t.text!r}")
        return self.next()

    def accept(self, text: str) -> bool:
        if self.tok.text == text and self.tok.kind != "eof":
            self.next()
            return True
        return False

    def ident(self, what: str) -> Token:
        t = self.tok
        if t.kind != "ident":
            raise self.error(f"expected {what}, found {t.text!r}")
        return self.next()

    def _deeper(self) -> int:
        """Enter one more level of nesting; returns the depth before it.
        Callers restore it when their construct ends (a ParseError ends the
        whole parse, so it needs no restoring)."""
        if self.depth == MAX_NESTING_DEPTH:
            raise self.error(f"nesting deeper than {MAX_NESTING_DEPTH} levels")
        self.depth += 1
        return self.depth - 1

    def _declare(self, tok: Token) -> str:
        if tok.text in self.names:
            raise DuplicateDefinition(f"name {tok.text} already declared", self.span(tok))
        self.names.add(tok.text)
        return tok.text

    # -- top level -----------------------------------------------------------

    def parse_problem(self) -> Problem:
        self.expect("vocabulary")
        self.expect("{")
        while not self.accept("}"):
            self.parse_vocab_decl()
        sentences: list[Formula] = []
        if self.accept("theory"):
            self.expect("{")
            while not self.accept("}"):
                f = self.parse_formula(_Scope())
                self.expect(".")
                try:
                    check_sentence(f, self.voc)
                except TypeCheckError as exc:
                    raise self.error(str(exc)) from exc
                sentences.append(desugar(f))
        relations: dict[str, Relation] = {}
        functions: dict[str, FunctionTable] = {}
        if self.accept("structure"):
            self.expect("{")
            while not self.accept("}"):
                self.parse_interpretation(relations, functions)
        t = self.tok
        if t.kind != "eof":
            raise self.error(f"unexpected {t.text!r} after structure block")
        structure = Structure(self.voc, self.domains, relations, functions)
        return Problem(self.voc, tuple(sentences), structure, self.filename)

    # -- vocabulary ----------------------------------------------------------

    def parse_vocab_decl(self) -> None:
        t = self.next()
        if t.text == "type":
            name_tok = self.ident("type name")
            name = self._declare(name_tok)
            self.expect(":=")
            if self.accept("{"):
                elems: list[str] = []
                # after a bulk run the next token must be an element, even a "}"
                if self._bulk_elements(elems) or not self.accept("}"):
                    while True:
                        elems.append(self._declare(self.ident("element name")))
                        if not self.accept(","):
                            break
                    self.expect("}")
                self.voc.types[name] = EnumType(name)
                self.domains[name] = tuple(elems)
                self.indices[name] = index = dict(zip(elems, range(len(elems))))
                self.elements.update((e, (name, i)) for e, i in index.items())
            else:
                lo, hi = self.parse_interval_literal()
                self.voc.types[name] = IntervalType(name, lo, hi)
        elif t.text == "pred":
            name = self._declare(self.ident("predicate name"))
            self.voc.predicates[name] = self.parse_param_list()
        elif t.text == "func":
            name = self._declare(self.ident("function name"))
            params = self.parse_param_list()
            self.expect("->")
            cod: str | Interval
            if self.tok.text == "Int":
                lo, hi = self.parse_interval_literal()
                cod = Interval(lo, hi)
            else:
                cod = self.type_ref()
            self.voc.functions[name] = FuncSig(params, cod)
        else:
            raise self.error("expected type, pred, or func declaration", t)
        self.expect(".")

    def parse_interval_literal(self) -> tuple[int, int]:
        self.expect("Int")
        self.expect("[")
        lo = self.parse_int_literal()
        self.expect("..")
        hi = self.parse_int_literal()
        self.expect("]")
        if hi < lo:
            raise self.error(f"empty interval Int[{lo}..{hi}]")
        if lo < -(2**63) or hi >= 2**63:
            raise self.error(f"interval Int[{lo}..{hi}] exceeds 64 bits")
        return lo, hi

    def parse_int_literal(self) -> int:
        neg = self.accept("-")
        t = self.tok
        if t.kind != "int":
            raise self.error(f"expected integer, found {t.text!r}")
        self.next()
        return -int(t.text) if neg else int(t.text)

    def type_ref(self) -> str:
        t = self.ident("type name")
        if t.text not in self.voc.types:
            raise self.error(f"unknown type {t.text}", t)
        return t.text

    def parse_param_list(self) -> tuple[str, ...]:
        self.expect("(")
        params: list[str] = []
        if not self.accept(")"):
            while True:
                params.append(self.type_ref())
                if not self.accept(","):
                    break
            self.expect(")")
        return tuple(params)

    # -- formulas --------------------------------------------------------------

    def parse_formula(self, scope: _Scope) -> Formula:
        depth = self.depth
        f = self.parse_implication(scope)
        while self.accept("<=>"):
            self._deeper()
            f = Equiv(f, self.parse_implication(scope))
        self.depth = depth
        return f

    def parse_implication(self, scope: _Scope) -> Formula:
        f = self.parse_disjunction(scope)
        if self.accept("=>"):
            depth = self._deeper()
            f = Implies(f, self.parse_implication(scope))
            self.depth = depth
        return f

    def parse_disjunction(self, scope: _Scope) -> Formula:
        parts = [self.parse_conjunction(scope)]
        while self.accept("|"):
            parts.append(self.parse_conjunction(scope))
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_conjunction(self, scope: _Scope) -> Formula:
        parts = [self.parse_unary(scope)]
        while self.accept("&"):
            parts.append(self.parse_unary(scope))
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self, scope: _Scope) -> Formula:
        depth = self._deeper()
        f = self._parse_unary(scope)
        self.depth = depth
        return f

    def _parse_unary(self, scope: _Scope) -> Formula:
        t = self.tok
        if t.text == "~":
            self.next()
            return Not(self.parse_unary(scope))
        if t.text in ("!", "?"):
            return self.parse_quantified(scope)
        if t.text == "(":
            self.next()
            f = self.parse_formula(scope)
            self.expect(")")
            return f
        if t.text == "true" and t.kind == "keyword":
            self.next()
            return TRUE
        if t.text == "false" and t.kind == "keyword":
            self.next()
            return FALSE
        return self.parse_atomic(scope)

    def parse_quantified(self, scope: _Scope) -> Formula:
        kind = self.next().text  # '!' or '?'
        groups: list[Variable] = []
        while True:
            names = [self.ident("variable name")]
            while self.accept(","):
                names.append(self.ident("variable name"))
            self.expect("in")
            type_name = self.type_ref()
            for tok in names:
                if tok.text in scope.vars:
                    raise self.error(f"variable {tok.text} rebound in nested scope", tok)
                var = Variable(tok.text, type_name)
                scope.vars[tok.text] = var
                groups.append(var)
            if not self.accept(","):
                break
        self.expect(":")
        body = self.parse_formula(scope)
        for var in reversed(groups):
            del scope.vars[var.name]
            body = ForAll(var, body) if kind == "!" else Exists(var, body)
        return body

    def parse_atomic(self, scope: _Scope) -> Formula:
        t = self.tok
        if t.kind == "ident" and t.text in self.voc.predicates:
            self.next()
            args: tuple[Term, ...] = ()
            if self.accept("("):
                parts: list[Term] = []
                if not self.accept(")"):
                    while True:
                        parts.append(self.parse_term(scope))
                        if not self.accept(","):
                            break
                    self.expect(")")
                args = tuple(parts)
            nxt = self.tok
            if nxt.kind == "op" and nxt.text in COMPARE_OPS:
                raise self.error(f"predicate {t.text} used as a term", nxt)
            return Atom(t.text, args)
        left = self.parse_term(scope)
        op = self.tok
        if op.kind == "op" and op.text in COMPARE_OPS:
            self.next()
            right = self.parse_term(scope)
            return Compare(op.text, left, right)
        raise self.error("expected a comparison or predicate application", op)

    # -- terms -----------------------------------------------------------------

    def parse_term(self, scope: _Scope) -> Term:
        depth = self.depth
        t = self.parse_mul(scope)
        while self.tok.text in ("+", "-") and self.tok.kind == "op":
            op = self.next().text
            self._deeper()
            t = Arith(op, t, self.parse_mul(scope))
        self.depth = depth
        return t

    def parse_mul(self, scope: _Scope) -> Term:
        depth = self.depth
        t = self.parse_prim(scope)
        while self.tok.text == "*" and self.tok.kind == "op":
            self.next()
            self._deeper()
            t = Arith("*", t, self.parse_prim(scope))
        self.depth = depth
        return t

    def parse_prim(self, scope: _Scope) -> Term:
        depth = self._deeper()
        t = self._parse_prim(scope)
        self.depth = depth
        return t

    def _parse_prim(self, scope: _Scope) -> Term:
        t = self.tok
        if t.kind == "int":
            self.next()
            return IntConstant(int(t.text))
        if t.text == "-":
            self.next()
            tok = self.tok
            if tok.kind != "int":
                raise self.error("expected integer after unary -")
            self.next()
            return IntConstant(-int(tok.text))
        if t.text == "(":
            self.next()
            inner = self.parse_term(scope)
            self.expect(")")
            return inner
        if t.kind == "ident":
            self.next()
            if t.text in scope.vars:
                return scope.vars[t.text]
            if t.text in self.elements:
                type_name, index = self.elements[t.text]
                return DomainConstant(t.text, type_name, index)
            if t.text in self.voc.functions:
                self.expect("(")
                args: list[Term] = []
                if not self.accept(")"):
                    while True:
                        args.append(self.parse_term(scope))
                        if not self.accept(","):
                            break
                    self.expect(")")
                return FunctionApp(t.text, tuple(args))
            if t.text in self.voc.predicates:
                raise self.error(f"predicate {t.text} used as a term", t)
            raise UnknownElement(
                f"unknown variable or element: {t.text}", self.span(t)
            )
        raise self.error(f"expected a term, found {t.text!r}")

    # -- structure ---------------------------------------------------------------

    def parse_interpretation(self, relations: dict, functions: dict) -> None:
        name_tok = self.ident("symbol name")
        name = name_tok.text
        self.expect(":=")
        if name in self.voc.predicates:
            if name in relations:
                raise DuplicateDefinition(
                    f"{name} interpreted twice", self.span(name_tok)
                )
            relations[name] = self.parse_relation(self.voc.predicates[name])
        elif name in self.voc.functions:
            if name in functions:
                raise DuplicateDefinition(
                    f"{name} interpreted twice", self.span(name_tok)
                )
            functions[name] = self.parse_function(self.voc.functions[name])
        else:
            raise self.error(f"unknown predicate or function: {name}", name_tok)
        self.expect(".")

    def parse_value(self, type_name: str) -> int:
        """One element/integer, normalized to index space of type_name."""
        t = self.tok
        if t.kind == "int" or t.text == "-":
            value = self.parse_int_literal()
            decl = self.voc.types[type_name]
            if not isinstance(decl, IntervalType):
                raise self.error(f"integer value for non-interval type {type_name}", t)
            if not decl.lo <= value <= decl.hi:
                raise self.error(
                    f"value {value} outside Int[{decl.lo}..{decl.hi}]", t
                )
            return value - decl.lo
        return self._element(type_name)

    def _element(self, type_name: str) -> int:
        """The index of one element name of type type_name."""
        tok = self.ident("element name")
        info = self.elements.get(tok.text)
        if info is None:
            raise UnknownElement(f"unknown element: {tok.text}", self.span(tok))
        etype, index = info
        if etype != type_name:
            raise self.error(
                f"element {tok.text} has type {etype}, expected {type_name}", tok
            )
        return index

    def parse_tuple(self, arg_types: tuple[str, ...]) -> tuple[int, ...]:
        if self.tok.text == "(":
            self.next()
            vals: list[int] = []
            if not self.accept(")"):
                i = 0
                while True:
                    if i >= len(arg_types):
                        raise self.error("tuple longer than declared arity")
                    vals.append(self.parse_value(arg_types[i]))
                    i += 1
                    if not self.accept(","):
                        break
                self.expect(")")
            if len(vals) != len(arg_types):
                raise self.error(
                    f"tuple of {len(vals)} values for arity {len(arg_types)}"
                )
            return tuple(vals)
        if len(arg_types) != 1:
            raise self.error("bare value only allowed for unary symbols")
        return (self.parse_value(arg_types[0]),)

    def parse_relation(self, arg_types: tuple[str, ...]) -> Relation:
        t = self.tok
        if t.kind == "keyword" and t.text in ("true", "false"):
            if arg_types:
                raise self.error("true/false shorthand only for 0-ary predicates", t)
            self.next()
            return Relation({()} if t.text == "true" else ())
        self.expect("{")
        # the keys of the tuples seen, for the duplicate check, and their
        # buffer in text order, which an index of 2^63 or more drops
        sizes = self._enum_sizes(arg_types)
        seen: set = set()
        rows: array | None = array("q")
        # after a bulk run the next token must start a tuple, even a "}"
        if self._bulk_tuples(arg_types, sizes, seen, rows) or not self.accept("}"):
            while True:
                tup = self.parse_tuple(arg_types)
                (key,) = _radix_keys(tup, sizes) if sizes else (tup,)
                if key in seen:
                    raise self.error(f"duplicate tuple in relation")
                seen.add(key)
                if rows is not None:
                    try:
                        rows.extend(tup)
                    except OverflowError:
                        rows = None
                if not self.accept(","):
                    break
            self.expect("}")
        if rows is None:
            return Relation(seen)
        return Relation.from_buffer(rows, len(arg_types), len(seen))

    def _enum_sizes(self, arg_types: tuple[str, ...]) -> list[int] | None:
        """The domain sizes of arg_types, if there are any and every one is
        an enumerated type; else None."""
        if not arg_types or not all(t in self.indices for t in arg_types):
            return None
        return [len(self.indices[t]) for t in arg_types]

    def _bulk_tuples(
        self, arg_types: tuple[str, ...], sizes: list[int] | None, seen: set, rows: array
    ) -> bool:
        """Add the leading run of simple tuples of a relation literal whose
        argument types are enumerated, of those sizes, each with its comma,
        read straight from the text from the current token on a piece of at
        most _PIECE tuples at a time: their keys (_radix_keys) to seen and
        the tuples, in text order, to rows.  Re-seat the scanner after the
        run and return whether it took any.  A tuple is simple when it
        matches _tuple_item, each name is an element of its declared type,
        and its key is not in seen yet.  A piece of simple, distinct tuples
        is taken whole; any other is taken up to its first tuple that is
        not simple, where the run stops, so the token path parses that one
        and raises any error it holds."""
        if sizes is None:
            return False
        indices = [self.indices[t] for t in arg_types]
        k, item = len(arg_types), _tuple_item(len(arg_types))
        piece, one = _piece(item), re.compile(item).match
        text = self.text
        start = pos = self.tok.pos
        while (end := piece(text, pos).end()) > pos:
            names = text[pos:end].translate(_UNPUNCT).split()
            flat = names[:]
            for j, ix in enumerate(indices):
                flat[j::k] = map(ix.get, names[j::k])
            if None not in flat:
                fresh = set(_radix_keys(flat, sizes))
                if len(fresh) * k == len(flat) and fresh.isdisjoint(seen):
                    seen |= fresh
                    rows.fromlist(flat)
                    pos = end
                    continue
            for row in zip(*[iter(flat)] * k):
                if None in row:
                    break
                (key,) = _radix_keys(row, sizes)
                if key in seen:
                    break
                seen.add(key)
                rows.extend(row)
                pos = one(text, pos).end()
            break
        if pos == start:
            return False
        self._seat(pos)
        return True

    def _bulk_elements(self, elems: list[str]) -> bool:
        """Declare the leading run of an enumerated type's elements, each
        with its comma, read straight from the text from the current token
        on a piece of at most _PIECE names at a time, appending them to
        elems; re-seat the scanner after the run and return whether it took
        any.  A piece is taken whole when its names are distinct, not
        keywords and not declared yet; the run stops before any other, so
        the token path declares it and raises the error it holds."""
        piece = _piece(_IDENT + r"\s*,\s*")
        text, declared = self.text, self.names
        start = pos = self.tok.pos
        while (end := piece(text, pos).end()) > pos:
            names = text[pos:end].translate(_UNPUNCT).split()
            fresh = set(names)
            if (
                len(fresh) < len(names)
                or not fresh.isdisjoint(declared)
                or not fresh.isdisjoint(KEYWORDS)
            ):
                break
            declared.update(fresh)
            elems += names
            pos = end
        if pos == start:
            return False
        self._seat(pos)
        return True

    def _codomain_value(self, cod) -> int:
        """Parse a function value (index for enum codomain, value otherwise)."""
        decl = cod if isinstance(cod, Interval) else self.voc.types[cod]
        if isinstance(decl, (Interval, IntervalType)):
            lo, hi, t = decl.lo, decl.hi, self.tok
            value = self.parse_int_literal()
            if not lo <= value <= hi:
                raise self.error(f"value {value} outside Int[{lo}..{hi}]", t)
            return value
        return self._element(cod)

    def parse_function(self, sig: FuncSig) -> FunctionTable:
        arg_sizes = tuple(self._type_size(t) for t in sig.args)
        if self.tok.text != "{":
            # 0-ary shorthand: f := value.
            if sig.args:
                raise self.error("bare value only allowed for 0-ary functions")
            value = self._codomain_value(sig.codomain)
            return FunctionTable((), {(): value})
        self.expect("{")
        entries: dict[tuple[int, ...], int] = {}
        if not self.accept("}"):
            while True:
                key = self.parse_tuple(sig.args)
                if key in entries:
                    raise self.error("duplicate entry in function table")
                self.expect("->")
                entries[key] = self._codomain_value(sig.codomain)
                if not self.accept(","):
                    break
            self.expect("}")
        try:
            return FunctionTable(arg_sizes, entries)
        except TypeCheckError as exc:
            raise self.error(str(exc)) from exc

    def _type_size(self, name: str) -> int:
        decl = self.voc.types[name]
        if isinstance(decl, IntervalType):
            return decl.hi - decl.lo + 1
        return len(self.domains[name])


def parse_problem(text: str, filename: str = "<string>") -> Problem:
    """Parse, resolve, type-check, and desugar a .sli problem."""
    return Parser(text, filename).parse_problem()


# ---------------------------------------------------------------------------
# Printing

_PREC = {
    Equiv: 2,
    Implies: 3,
    Or: 4,
    And: 5,
    Not: 6,
}


def _prec(f: Formula) -> int:
    if isinstance(f, (ForAll, Exists)):
        return 1
    return _PREC.get(type(f), 7)


def print_term(t: Term, parent: int = 0) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, DomainConstant):
        return t.name
    if isinstance(t, IntConstant):
        return str(t.value)
    if isinstance(t, FunctionApp):
        return f"{t.name}({', '.join(print_term(a) for a in t.args)})"
    if isinstance(t, Arith):
        mine = 2 if t.op == "*" else 1
        s = f"{print_term(t.left, mine)} {t.op} {print_term(t.right, mine + 1)}"
        return f"({s})" if mine < parent else s
    raise TypeError(f"not a term: {t!r}")


def print_formula(f: Formula, parent: int = 0) -> str:
    """Concrete syntax for f; parse_problem round-trips it (mod desugaring)."""
    mine = _prec(f)
    if isinstance(f, TrueFormula):
        s = "true"
    elif isinstance(f, FalseFormula):
        s = "false"
    elif isinstance(f, Atom):
        s = f"{f.pred}({', '.join(print_term(a) for a in f.args)})"
    elif isinstance(f, Compare):
        s = f"{print_term(f.left)} {f.op} {print_term(f.right)}"
    elif isinstance(f, Not):
        s = f"~{print_formula(f.child, 6)}"
    elif isinstance(f, And):
        s = " & ".join(print_formula(c, 6) for c in f.children)
    elif isinstance(f, Or):
        s = " | ".join(print_formula(c, 5) for c in f.children)
    elif isinstance(f, Implies):
        s = f"{print_formula(f.left, 4)} => {print_formula(f.right, 3)}"
    elif isinstance(f, Equiv):
        s = f"{print_formula(f.left, 3)} <=> {print_formula(f.right, 3)}"
    elif isinstance(f, (ForAll, Exists)):
        kind = "!" if isinstance(f, ForAll) else "?"
        names = [f.var.name]
        body = f.body
        while isinstance(body, type(f)) and body.var.type == f.var.type:
            names.append(body.var.name)
            body = body.body
        s = f"{kind}{', '.join(names)} in {f.var.type}: {print_formula(body, 1)}"
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if mine < parent else s


def _print_value(s: Structure, type_name: str, index: int) -> str:
    return s.element_name(type_name, index)


def _print_codomain_value(s: Structure, cod, value: int) -> str:
    if isinstance(cod, Interval):
        return str(value)
    decl = s.voc.types[cod]
    if isinstance(decl, IntervalType):
        return str(value)
    return s.domains[cod][value]


def print_problem(p: Problem) -> str:
    """Deterministic .sli text for a problem (used for byte-level checks)."""
    out: list[str] = ["vocabulary {"]
    for name, decl in p.voc.types.items():
        if isinstance(decl, IntervalType):
            out.append(f"  type {name} := Int[{decl.lo}..{decl.hi}].")
        else:
            elems = ", ".join(p.structure.domains[name])
            out.append(f"  type {name} := {{{elems}}}.")
    for name, args in p.voc.predicates.items():
        out.append(f"  pred {name}({', '.join(args)}).")
    for name, sig in p.voc.functions.items():
        cod = (
            f"Int[{sig.codomain.lo}..{sig.codomain.hi}]"
            if isinstance(sig.codomain, Interval)
            else sig.codomain
        )
        out.append(f"  func {name}({', '.join(sig.args)}) -> {cod}.")
    out.append("}")
    out.append("theory {")
    for f in p.sentences:
        out.append(f"  {print_formula(f)}.")
    out.append("}")
    out.append("structure {")
    s = p.structure
    for name, rel in s.relations.items():
        args = p.voc.predicates[name]
        if not args:
            out.append(f"  {name} := {'true' if () in rel else 'false'}.")
            continue
        parts = []
        for tup in sorted(rel):
            vals = [_print_value(s, t, i) for t, i in zip(args, tup)]
            parts.append(vals[0] if len(tup) == 1 else f"({', '.join(vals)})")
        out.append(f"  {name} := {{{', '.join(parts)}}}.")
    for name, table in s.functions.items():
        sig = p.voc.functions[name]
        if not sig.args:
            val = _print_codomain_value(s, sig.codomain, table.lookup(()))
            out.append(f"  {name} := {val}.")
            continue
        parts = []
        for key in sorted(table.entries):
            vals = [_print_value(s, t, i) for t, i in zip(sig.args, key)]
            lhs = vals[0] if len(key) == 1 else f"({', '.join(vals)})"
            parts.append(f"{lhs} -> {_print_codomain_value(s, sig.codomain, table.entries[key])}")
        out.append(f"  {name} := {{{', '.join(parts)}}}.")
    out.append("}")
    return "\n".join(out) + "\n"
