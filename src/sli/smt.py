"""Serialization of ground theories to SMT-LIB 2 text.

Reduced theories declare one Bool constant per ground atom (``p!a!b``) and
one value constant per ground application of an uninterpreted function
(``queen!1``); enumerated types become finite sorts via declare-datatypes.
Unfolded theories keep every symbol applied, so predicates and functions
are declared with declare-fun instead.  Output is byte-deterministic.
"""

from __future__ import annotations

import re
import string

import numpy as np

from .grounder import GroundTheory, Segment, VERDICT_OPEN, VERDICT_SAT
from .logic import (
    FALSE,
    TRUE,
    And,
    Arith,
    Atom,
    Compare,
    DomainConstant,
    EnumType,
    Formula,
    FunctionApp,
    IntConstant,
    Interval,
    Not,
    Or,
    Term,
    Vocabulary,
    frozen,
)

_SYMBOL_CHARS = frozenset(string.ascii_letters + string.digits + "~!@$%^&*_-+=<>.?/")
# a name that _sanitize leaves as it is: symbol characters, no leading digit
_SIMPLE_SYMBOL = re.compile(f"(?![0-9])[{re.escape(''.join(sorted(_SYMBOL_CHARS)))}]+")

# term-namespace words that must never be produced as constant names
_RESERVED = frozenset(
    "true false not and or xor ite let distinct as is "
    "assert check-sat Int Bool".split()
)

_COMPARE_OPS = {"=": "=", "~=": "distinct", "<": "<", "=<": "<=", ">": ">", ">=": ">="}


def _int(n: int) -> str:
    """SMT-LIB numerals are unsigned; negatives are unary-minus terms."""
    return str(n) if n >= 0 else f"(- {-n})"


def _sanitize(name: str) -> str:
    if _SIMPLE_SYMBOL.fullmatch(name):
        return name
    out = "".join(c if c in _SYMBOL_CHARS else "_" for c in name)
    if not out:
        out = "_"
    if out[0].isdigit():
        out = "_" + out
    return out


class _Names:
    """One namespace of simple symbols: a base is sanitized, and a name
    already in use gets the first free numeric suffix, in first-use order."""

    def __init__(self, taken: frozenset[str] = frozenset()):
        self.used: set[str] = set(_RESERVED) | taken

    def fresh(self, base: str) -> str:
        name = _sanitize(base)
        if name in self.used:
            k = 2
            while f"{name}!{k}" in self.used:
                k += 1
            name = f"{name}!{k}"
        self.used.add(name)
        return name


@frozen
class SmtDocument:
    """An SMT-LIB 2 script in emission order."""

    logic: str
    sort_decls: tuple[str, ...]
    const_decls: tuple[str, ...]
    assertions: tuple[str, ...]
    footer: str = "(check-sat)"

    def text(self) -> str:
        lines = [f"(set-logic {self.logic})"]
        lines += self.sort_decls
        lines += self.const_decls
        lines += self.assertions
        # the empty last line ends the text with a newline, with no second
        # copy of the whole text to append it
        lines += (self.footer, "")
        return "\n".join(lines)


def _mangle(symbol: str, args: tuple[Term, ...]) -> str:
    parts = [symbol]
    for a in args:
        if isinstance(a, DomainConstant):
            parts.append(a.name)
        elif isinstance(a, IntConstant):
            parts.append(str(a.value))
        else:  # pragma: no cover - guarded by the grounder
            raise TypeError(f"non-constant argument in ground name: {a!r}")
    return "!".join(parts)


class _Emitter:
    """One walk over a ground theory's assertions.  It renders each one
    and declares the sorts, constants and functions it mentions on first
    use, so declarations come out in first-use order.

    In reduced mode each term and atom node is rendered once and its text
    is keyed by id(node): the column instantiator hands the same
    FunctionApp/Arith object to every tuple that shares it, and gt.parts
    keeps every node, so every id, alive for the walk: a formula's nodes,
    and a segment's side values.  A comparison or an arithmetic term looks
    its children up in the memo before it calls `term` on them; rendered
    text is never empty.  A segment is rendered from its columns
    (`segment`), and no comparison of it is built.
    Unfolded mode keeps no memo: the noreduce grounder shares few nodes,
    and a memo there was measured to slow emission down.

    Constructor names are assigned before constant names, so a constant
    never takes a constructor's plain name.  The walk names constants as it
    finds them, avoiding `taken`; `document` walks again, with every
    constructor name taken, in the rare case that one clashed."""

    def __init__(self, gt: GroundTheory, taken: frozenset[str]):
        s = gt.structure
        self.voc: Vocabulary = s.voc
        self.domains = s.domains
        self.interpreted = s.functions
        self.unfolded = gt.mode == "unfolded"
        self.sort_names = _Names()
        self.ctor_names = _Names()
        self.names = _Names(taken)
        self.sorts: dict[str, str] = {}  # type name -> sort name
        self.ctors: dict[tuple[str, str], str] = {}  # (type, element) -> name
        # reduced: ("atom"|"app", symbol, args) -> constant; unfolded: symbol -> fun
        self.symbols: dict[object, str] = {}
        self.bounded: dict[str, tuple[int, int]] = {}  # unfolded: fun -> range
        self.bound_apps: set[str] = set()  # unfolded: rendered bounded applications
        self.memo: dict[int, str] = {}
        self.ints_used = False
        self.sort_decls: list[str] = []
        self.const_decls: list[str] = []
        self.bounds: list[str] = []

    # -- declarations, on first use ------------------------------------

    def _sort(self, type_name: str) -> tuple[str, tuple[int, int] | None]:
        """The sort text of a declared type and, for an interval, its range.
        An enumerated type is declared, with its constructors, on first use."""
        decl = self.voc.type_decl(type_name)
        if not isinstance(decl, EnumType):
            self.ints_used = True
            return "Int", (decl.lo, decl.hi)
        name = self.sorts.get(type_name)
        if name is None:
            name = self.sorts[type_name] = self.sort_names.fresh(type_name)
            ctors = []
            for e in self.domains[type_name]:
                ctor = self.ctor_names.fresh(f"{type_name}!{e}")
                self.ctors[type_name, e] = ctor
                ctors.append(f"({ctor})")
            self.sort_decls.append(
                f"(declare-datatypes (({name} 0)) (({' '.join(ctors)})))"
            )
        return name, None

    def _codomain(self, fname: str) -> tuple[str, tuple[int, int] | None]:
        cod = self.voc.functions[fname].codomain
        if isinstance(cod, Interval):
            self.ints_used = True
            return "Int", (cod.lo, cod.hi)
        return self._sort(cod)

    def _constant(
        self, key: tuple, base: str, sort: str, bounds: tuple[int, int] | None
    ) -> str:
        """Reduced mode: declare the constant for a new ground atom or
        application, with its range if it is an integer."""
        name = self.symbols[key] = self.names.fresh(base)
        self.const_decls.append(f"(declare-const {name} {sort})")
        if bounds is not None:
            lo, hi = bounds
            self.bounds.append(f"(assert (<= {_int(lo)} {name}))")
            self.bounds.append(f"(assert (<= {name} {_int(hi)}))")
        return name

    def _fun(self, symbol: str) -> str:
        """Unfolded mode: the name of a predicate or function, declared on
        first use together with the sorts of its signature."""
        name = self.symbols.get(symbol)
        if name is not None:
            return name
        if symbol in self.voc.predicates:
            args = [self._sort(t)[0] for t in self.voc.predicates[symbol]]
            cod = "Bool"
        else:
            args = [self._sort(t)[0] for t in self.voc.functions[symbol].args]
            cod, bounds = self._codomain(symbol)
            if bounds is not None and symbol not in self.interpreted:
                self.bounded[symbol] = bounds
        name = self.symbols[symbol] = self.names.fresh(symbol)
        self.const_decls.append(f"(declare-fun {name} ({' '.join(args)}) {cod})")
        return name

    # -- the walk --------------------------------------------------------

    def formula(self, f: Formula) -> str:
        tf = type(f)
        if tf is Compare:
            memo = self.memo
            left = memo.get(id(f.left)) or self.term(f.left)
            return f"({_COMPARE_OPS[f.op]} {left} {memo.get(id(f.right)) or self.term(f.right)})"
        if tf is Atom:
            return self._atom(f)
        if tf is Or or tf is And:
            kids = f.children
            if len(kids) > 1:
                word = "and" if tf is And else "or"
                return f"({word} {' '.join([self.formula(c) for c in kids])})"
            if kids:
                return self.formula(kids[0])
            return "true" if tf is And else "false"
        if tf is Not:
            return f"(not {self.formula(f.child)})"
        if f is TRUE:
            return "true"
        if f is FALSE:
            return "false"
        raise TypeError(f"non-ground formula in emission: {f!r}")  # pragma: no cover

    def _atom(self, f: Atom) -> str:
        if self.unfolded:
            name = self._fun(f.pred)
            if not f.args:
                return name
            return f"({name} {' '.join([self.term(a) for a in f.args])})"
        name = self.memo.get(id(f))
        if name is None:
            key = ("atom", f.pred, f.args)
            name = self.symbols.get(key)
            if name is None:
                name = self._constant(key, _mangle(f.pred, f.args), "Bool", None)
            self.memo[id(f)] = name
        return name

    def term(self, t: Term) -> str:
        text = self.memo.get(id(t))  # the memo stays empty in unfolded mode
        if text is not None:
            return text
        tt = type(t)
        if tt is FunctionApp:
            text = self._app(t)
        elif tt is Arith:
            self.ints_used = True
            memo = self.memo
            left = memo.get(id(t.left)) or self.term(t.left)
            text = f"({t.op} {left} {memo.get(id(t.right)) or self.term(t.right)})"
        elif tt is IntConstant:
            self.ints_used = True
            text = _int(t.value)
        elif tt is DomainConstant:
            text = self.ctors.get((t.type, t.name))
            if text is None:
                self._sort(t.type)
                text = self.ctors[t.type, t.name]
        else:  # pragma: no cover - variables cannot reach the emitter
            raise TypeError(f"non-ground term in emission: {t!r}")
        if not self.unfolded:
            self.memo[id(t)] = text
        return text

    def _app(self, t: FunctionApp) -> str:
        if not self.unfolded:
            key = ("app", t.name, t.args)
            name = self.symbols.get(key)
            if name is None:
                base = _mangle(t.name, t.args)
                name = self._constant(key, base, *self._codomain(t.name))
            return name
        name = self._fun(t.name)
        if not t.args:
            text = name
        else:
            text = f"({name} {' '.join([self.term(a) for a in t.args])})"
        bounds = self.bounded.get(t.name)
        if bounds is not None:
            seen = len(self.bound_apps)
            self.bound_apps.add(text)
            if len(self.bound_apps) > seen:
                lo, hi = bounds
                self.bounds.append(f"(assert (<= {_int(lo)} {text}))")
                self.bounds.append(f"(assert (<= {text} {_int(hi)}))")
        return text

    def segment(self, seg: Segment) -> list[str]:
        """A segment's lines, rendered from its columns.  Each side's
        values are rendered once, in the order of the row that first uses
        them, the left side's before the right's within a row: the order in
        which rendering row by row would meet them, so declarations keep
        first-use order.  A line is then one gather of each side's text and
        one concatenation per row."""
        memo, term, index = self.memo, self.term, seg.index
        firsts = [
            np.unique(places, return_index=True)[1] * 2 + side
            for side, places in enumerate(index)
        ]
        uses = np.sort(np.concatenate(firsts))  # row * 2 + side
        sides = uses & 1
        nodes = (seg.left, seg.right)
        texts: tuple[list, list] = ([None] * len(seg.left), [None] * len(seg.right))
        for side, place in zip(sides.tolist(), index[sides, uses >> 1].tolist()):
            node = nodes[side][place]
            texts[side][place] = memo.get(id(node)) or term(node)
        op = _COMPARE_OPS[seg.op]
        heads = np.fromiter((f"(assert ({op} {t} " for t in texts[0]), object, len(texts[0]))
        tails = np.fromiter((f"{t}))" for t in texts[1]), object, len(texts[1]))
        return (heads[index[0]] + tails[index[1]]).tolist()


def _walk(gt: GroundTheory, taken: frozenset[str]) -> tuple[_Emitter, list[str]]:
    """The emitter after one walk, and the assertion lines it rendered.  A
    comparison, the usual assertion of a reduced theory, is rendered as
    formula would render it, in the one string of its line, and a segment
    from its columns."""
    em = _Emitter(gt, taken)
    memo, term, formula = em.memo, em.term, em.formula
    lines = []
    for a in gt.parts:
        if type(a) is Compare:
            left = memo.get(id(a.left)) or term(a.left)
            right = memo.get(id(a.right)) or term(a.right)
            lines.append(f"(assert ({_COMPARE_OPS[a.op]} {left} {right}))")
        elif type(a) is Segment:
            lines += em.segment(a)
        else:
            lines.append(f"(assert {formula(a)})")
    return em, lines


def document(gt: GroundTheory) -> SmtDocument:
    """Lay out a ground theory as an SMT-LIB 2 script."""
    em, body = _walk(gt, frozenset())
    ctor_names = em.ctor_names.used - _RESERVED
    if not ctor_names.isdisjoint(em.names.used):
        # a constant took a constructor's name: walk again with every
        # constructor name taken, as though the constructors came first
        em, body = _walk(gt, frozenset(ctor_names))
    if gt.verdict == VERDICT_OPEN:
        assertions = em.bounds + body
    else:
        assertions = ["(assert true)" if gt.verdict == VERDICT_SAT else "(assert false)"]
    logic = "QF_UFDTLIA" if em.ints_used else "QF_UFDT"
    return SmtDocument(
        logic, tuple(em.sort_decls), tuple(em.const_decls), tuple(assertions)
    )


def emit(gt: GroundTheory) -> str:
    """Render a ground theory as deterministic SMT-LIB 2 text."""
    return document(gt).text()
