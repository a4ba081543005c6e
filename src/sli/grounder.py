"""Reduction of model-expansion problems to ground theories.

Given a theory over vocabulary sigma and a structure interpreting only a
subset sigma0, each sentence is turned into a quantifier-free formula over
ground atoms of the remaining symbols.  One pipeline serves vec and naive:
per quantifier block, one walk collects the guards (maximal interpreted
subformulas whose variables the block binds) and where they occur, each of
the 2^m sign splits has one residual, built from those in one pass, and the
block's ground parts are folded into a conjunction or disjunction that
stops at the first deciding part.

- vec: compile each non-vacuous split's residual once and instantiate it
  only at the tuples of the split's satisfying set, computed on bit tensors
  by one evaluator shared by all sentences of a problem.  The evaluator
  cuts the set into slabs of rows of the block's first variable
  (SatSetEvaluator.slabs) and evaluates them one at a time, so the memory
  it holds is a slab, not the block's whole tensor (the one bit budget,
  bittensor.BIT_BUDGET, still applies to the whole).  A split whose
  residual decides the block stops at the first slab holding a one.
  Otherwise each slab's ones are taken in chunks
  (BitTensor.iter_ones_chunks), cut so that a chunk's rows times the
  residual's nodes, counted by the walk that compiles it, stay within
  _CHUNK_NODES; slabs in order and ones in order within each give the
  whole set's order.  A block with more guards than the cap is grounded
  as naive grounds it, and its sentence's row reports naive(fallback);
  the other blocks stay vectorized.
- naive: one nested loop over the block's tuples; the guards are decided
  per tuple by recursive evaluation, skipping tuples whose residual is
  vacuous and exiting early on a deciding tuple.  Each split's residual is
  compiled on its first tuple, and each kept tuple is a one-row chunk.
- noreduce: instantiate everything, fold nothing, and emit the interpreted
  symbols' tables as ground assertions alongside; a table of more entries
  than the same bit budget is a resource error.

naive and noreduce count a block's tuples up one at a time (_tuples),
checking the deadline at each.  Every walk checks the one deadline that
ground_problem enters (bittensor.deadline), so it spans every sentence.

vec and naive emit the same instantiations (each tuple realizes exactly one
sign vector), differing only in conjunct order and in how the interpreted
part is evaluated.  Both instantiate through one path, the column
instantiator of the split (_columns).  Called on a chunk of tuples, it
returns what substituting each row's constants and folding would, in row
order.  vec's chunk is an int64 array sliced from the satisfying set's
coordinates, one row of indices per block variable and one column per
tuple; naive's holds one tuple, as one one-element list per variable, and
is instantiated with no numpy call.

- a node that mentions only some of the block variables is folded once
  per value of those variables seen, on the first chunk holding that
  value, and gathered for the chunk per distinct value: each row is keyed
  by the mixed-radix index of the variables the node mentions, which stays
  below the block's bit count and so fits int64.  An array chunk's
  distinct keys, and each row's place among them, come from a dense
  table over every key when the keys span at most 4x the chunk's rows,
  and from one np.unique otherwise; the node is built only for the keys
  its table lacks, from one row of each, and its values are spread over
  the rows by that inverse.  A part over none of them is folded once,
  colouring's colour(x) once per x rather than once per (x, y).  Those
  shared parts are immutable and appear as one object in every
  instantiation that holds them.  A function application among them is
  folded through one table of the run, keyed by symbol and folded
  arguments, so colour(x) and colour(y) fold each vertex's colour once
  between them, into one object.
- only the nodes over all of them are built per row, each in one pass
  over the chunk; a block variable among them turns its column into
  Python ints with one tolist().
- each node records, when compiled, whether its folded value can ever be
  a constant.  Only two constants fold in a comparison or arithmetic, so
  one with a side that never folds (an uninterpreted symbol, or a
  variable bound deeper) is built with its constructor, with no test per
  row, and a residual that never folds makes parts that _draw keeps whole
  (_Parts.WHOLE).
- a junction stays lazy by row selection: its k-th part is built only for
  the rows that its earlier parts left undecided.
- a nested quantifier is compiled like any other node, a block variable
  it rebinds shadowed in its body; its block is ground when the row's part
  is drawn.

The block's parts are drawn a chunk at a time: the deadline is checked
once per chunk, the chunk's parts are counted, and drawing stops at the
first deciding one; a chunk that never folds has none, and no unit, so it
is counted and kept with no look at its parts.  A chunk's rows are cut to
at most _CHUNK_NODES node builds, so that bounds the work between two
checks.  A part holding a nested block is counted, checked and ground one
at a time, when it is drawn.  A chunk in which some row raises is
instantiated again one row at a time, so the error raised, or the
deciding part that leaves it unreached, is the one that instantiating
tuple by tuple gives.

Segments (vec, ground_problem only).  When a sentence folds to a universal
block, the block's parts are the theory's top-level assertions.  A kept
split of such a block whose residual is a comparison that never folds,
each side of which mentions some of the block variables but not all
(colouring's colour(x) ~= colour(y), queens' queen(x) + x ~= queen(y) +
y), has rows that differ only in their sides' values.  Those values are
built per value as above, and _columns, which sees that shape as it
compiles the residual, keeps the split as one Segment: the
operator, each side's distinct values, and one narrow unsigned array of
two rows that holds each row's places among them.  No comparison is
built.  GroundTheory.parts holds formulas and segments in assertion order,
GroundTheory.assertions builds a segment's comparisons when first read,
and assertion_count counts them without building any.  naive, noreduce,
ground_sentence, and every other split keep node lists.

One run object, _SentenceGrounder, serves a grounding call: it owns the
evaluator, the constant and fold tables, the relation tries, and the
SentenceStats row it fills in place.
"""

from __future__ import annotations

import enum
import gc
import itertools
import math
import operator
import sys
import sysconfig
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import bittensor
from .bittensor import check_deadline, deadline
from .errors import (
    ArithmeticOverflow,
    BitBudgetOverflow,
    GroundingTimeout,
    GuardCapExceeded,
    SliError,
    UnsupportedFormula,
)
from .logic import (
    FALSE,
    TRUE,
    And,
    Arith,
    Atom,
    Compare,
    DomainConstant,
    Exists,
    ForAll,
    Formula,
    FunctionApp,
    IntConstant,
    Interval,
    Not,
    Or,
    Structure,
    Term,
    Variable,
    desugar,
    eval_formula,
    eval_term,
    free_variables,
    frozen,
    substitute,
    symbols_of,
    _compare,
)
from .parser import Problem
from .satset import SatSetEvaluator

DEFAULT_GUARD_CAP = 8

# A chunk of a block's tuples: an int64 array of indices with one row per
# block variable and one column per tuple, as vec draws them; or, for one
# tuple, as naive draws them and a failing chunk is retried, one
# one-element list per block variable.
Columns = np.ndarray | list[list[int]]
# a compiled residual node: a chunk -> the node's folded value at each row
Instantiator = Callable[[Columns], list]
# vec cuts a chunk so that its rows times its residual's nodes stay within
# this, which bounds the work done, and the memory held, between two
# deadline checks.
_CHUNK_NODES = 2**17
# a free-threaded build's gc.freeze walks the heap, where the GIL build's
# splices two lists
_FREE_THREADED = bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


class _Parts(enum.Enum):
    """How _draw takes a chunk of a block's parts."""

    CONSTANT = "a constant that no instantiator made: not counted"
    FOLDED = "instantiations that may be constants: scanned for both"
    WHOLE = "instantiations that never are: counted and kept whole"
    NESTED = "instantiations holding a block: ground one at a time"
    SEGMENT = "a split's _SegmentBuilder and the rows it took: counted, kept as columns"

STRATEGIES = ("vec", "naive", "noreduce")

VERDICT_SAT = "sat-trivial"
VERDICT_UNSAT = "unsat-trivial"
VERDICT_OPEN = "open"


# ---------------------------------------------------------------------------
# Boolean simplification


def _simp_not(child: Formula) -> Formula:
    if child is TRUE:
        return FALSE
    if child is FALSE:
        return TRUE
    if isinstance(child, Not):
        return child.child
    return Not(child)


def _simp_junction(conj: bool, children: Iterable[Formula]) -> Formula:
    """A conjunction (conj) or disjunction of children, dropping its unit
    and stopping at its absorbing constant: no child after that one is
    drawn, so a lazy iterable skips the work that would produce them."""
    unit, absorbing = (TRUE, FALSE) if conj else (FALSE, TRUE)
    out: list[Formula] = []
    for c in children:
        if c is absorbing:
            return absorbing
        if c is not unit:
            out.append(c)
    return _junction(conj, out)


def _junction(conj: bool, out: list[Formula]) -> Formula:
    """A conjunction (conj) or disjunction of children that hold neither
    its unit nor its absorbing constant."""
    if not out:
        return TRUE if conj else FALSE
    if len(out) == 1:
        return out[0]
    return (And if conj else Or)(tuple(out))


def _simp_quant(forall: bool, var: Variable, body: Formula, s: Structure) -> Formula:
    if s.domain_size(var.type) == 0:
        return TRUE if forall else FALSE
    if body is TRUE or body is FALSE:
        return body
    return (ForAll if forall else Exists)(var, body)


def boolean_simplify(f: Formula, s: Structure) -> Formula:
    """Bottom-up constant propagation; leaves atoms and comparisons alone."""
    return _residual(f, {}, (), s)


# ---------------------------------------------------------------------------
# Guard identification


def _strip_negations(f: Formula) -> tuple[bool, Formula]:
    """Peel leading negations; returns (flipped, core)."""
    flipped = False
    while isinstance(f, Not):
        flipped = not flipped
        f = f.child
    return flipped, f


def maximal_interpreted_subformulas(
    f: Formula, sigma0: frozenset[str] | set[str]
) -> list[Formula]:
    """Subformulas whose symbols all lie in sigma0 and whose parent (if any)
    mentions a symbol outside it.  Ordered by position, structurally
    deduplicated.  Comparison operators count as interpreted.

    Leading negations are peeled off before deduplication, so a condition
    and its desugared negation collapse onto the same core formula."""
    return _collect_guards(f, sigma0, None)[0]


@frozen
class GuardSplit:
    """One branch of the 2^m sign analysis of a quantifier block."""

    guards: tuple[Formula, ...]
    sign_vector: tuple[bool, ...]
    guard_formula: Formula
    residual: Formula


def _block_of(f: Formula) -> tuple[bool, list[Variable], Formula]:
    """Leading run of same-kind quantifiers and the body under it."""
    forall = isinstance(f, ForAll)
    kind = ForAll if forall else Exists
    vars: list[Variable] = []
    while isinstance(f, kind):
        vars.append(f.var)
        f = f.body
    return forall, vars, f


def _liftable(n: Formula, sigma0, block: frozenset[Variable] | None) -> bool:
    """Interpreted, and (unless block is None) over block variables only."""
    if n is TRUE or n is FALSE:
        return False
    if not symbols_of(n) <= sigma0:
        return False
    return block is None or all(v in block for v in free_variables(n))


# id of a maximal guard node -> (its guard's index, whether its negations
# flip it), or the constant it stands for; the body keeps the ids valid
Occurrences = dict[int, "tuple[int, bool] | Formula"]


def _collect_guards(
    body: Formula, sigma0, block: frozenset[Variable] | None
) -> tuple[list[Formula], Occurrences]:
    """Negation-stripped, deduplicated guards of one block, in order of
    first appearance, and their occurrences in body; block None admits any
    variables.  Subformulas whose variables are bound deeper stay in the
    residual and are lifted when the inner block is ground.  The deadline
    is checked at every node visited."""
    guards: list[Formula] = []
    occurrences: Occurrences = {}
    _find_guards(body, sigma0, block, guards, occurrences)
    return guards, occurrences


def _find_guards(
    n: Formula,
    sigma0,
    block: frozenset[Variable] | None,
    guards: list[Formula],
    occurrences: Occurrences,
) -> None:
    """One node of `_collect_guards`: records the guard occurrences under
    n, appending to guards those it does not hold yet."""
    check_deadline()
    if _liftable(n, sigma0, block):
        flipped, core = _strip_negations(n)
        if core is TRUE or core is FALSE:
            occurrences[id(n)] = TRUE if (core is TRUE) != flipped else FALSE
            return
        if core not in guards:
            guards.append(core)
        occurrences[id(n)] = (guards.index(core), flipped)
        return
    if isinstance(n, Not):
        _find_guards(n.child, sigma0, block, guards, occurrences)
    elif isinstance(n, (And, Or)):
        for c in n.children:
            _find_guards(c, sigma0, block, guards, occurrences)
    elif isinstance(n, (ForAll, Exists)):
        # a block variable that the quantifier rebinds is not the block's in its body
        inner = block if block is None else block - {n.var}
        _find_guards(n.body, sigma0, inner, guards, occurrences)


def _residual(
    n: Formula, occurrences: Occurrences, signs: tuple[bool, ...], s: Structure
) -> Formula:
    """A block body under one sign vector, in one pass: each guard
    occurrence becomes its constant and every node is simplified bottom-up.
    The deadline is checked at every node visited."""
    check_deadline()
    occurrence = occurrences.get(id(n))
    if occurrence is not None:
        if isinstance(occurrence, tuple):
            i, flipped = occurrence
            return TRUE if signs[i] != flipped else FALSE
        return occurrence
    if isinstance(n, Not):
        return _simp_not(_residual(n.child, occurrences, signs, s))
    if isinstance(n, (And, Or)):
        return _simp_junction(
            isinstance(n, And),
            (_residual(c, occurrences, signs, s) for c in n.children),
        )
    if isinstance(n, (ForAll, Exists)):
        return _simp_quant(
            isinstance(n, ForAll), n.var, _residual(n.body, occurrences, signs, s), s
        )
    return n


def _splits(forall: bool, body: Formula, m: int, occurrences: Occurrences, s: Structure):
    """(signs, residual) of every split of m guards whose residual is not
    vacuous (TRUE under a forall block, FALSE under an exists block), lazily."""
    vacuous = TRUE if forall else FALSE
    for signs in itertools.product((True, False), repeat=m):
        residual = _residual(body, occurrences, signs, s)
        if residual is not vacuous:
            yield signs, residual


def _guard_formula(guards: list[Formula], signs: tuple[bool, ...]) -> Formula:
    return _simp_junction(
        True, (g if sign else Not(g) for g, sign in zip(guards, signs))
    )


def guard_split(
    f: Formula, structure: Structure, cap: int = DEFAULT_GUARD_CAP
) -> list[GuardSplit]:
    """All non-vacuous sign splits of the leading quantifier block of f,
    under the caller's deadline (bittensor.deadline), if any."""
    if not isinstance(f, (ForAll, Exists)):
        raise UnsupportedFormula("guard_split expects a quantified formula")
    forall, vars, body = _block_of(f)
    guards, occurrences = _collect_guards(body, structure.interpreted_symbols, frozenset(vars))
    if len(guards) > cap:
        raise GuardCapExceeded(
            f"{len(guards)} guards exceed the split cap of {cap}"
        )
    return [
        GuardSplit(tuple(guards), signs, _guard_formula(guards, signs), residual)
        for signs, residual in _splits(forall, body, len(guards), occurrences, structure)
    ]


# ---------------------------------------------------------------------------
# Constant folding (vec / naive)


def _term_has_uninterpreted(t: Term, sigma0) -> bool:
    if isinstance(t, FunctionApp):
        if t.name not in sigma0:
            return True
        return any(_term_has_uninterpreted(a, sigma0) for a in t.args)
    if isinstance(t, Arith):
        return _term_has_uninterpreted(t.left, sigma0) or _term_has_uninterpreted(
            t.right, sigma0
        )
    return False


def _is_constant_term(t: Term) -> bool:
    return isinstance(t, (DomainConstant, IntConstant))


def _codomain_const(s: Structure, codomain, value: int) -> Term:
    if isinstance(codomain, Interval):
        return IntConstant(value)
    return s.constant_for(codomain, value)


def _ints(column) -> list[int]:
    """A column of a chunk as Python ints: an array's through tolist(), a
    one-row chunk's list as it is."""
    return column if isinstance(column, list) else column.tolist()


class _Values:
    """A node's values per key of the block variables it mentions, built
    once each.  Each row is keyed by the mixed-radix index of those
    variables, build runs once per key, on the first chunk holding it, and
    its value is kept in nodes, at the key's place: the table holds only
    the keys seen.  An array chunk is looked up per distinct key, found by
    a dense table over every key when the keys span at most 4x the chunk's
    rows, and by np.unique otherwise; build runs on one row of each key
    not in the table yet (any row will do: build reads only the variables
    it mentions).  A one-row chunk, as naive draws them, is looked up with
    no numpy.  Called on a chunk, it gives each row's value, shared by the
    rows of a key; `places` gives each row's place in nodes instead."""

    def __init__(self, mentions: frozenset[int], build: Instantiator, radix: dict[int, int]):
        self.ps = sorted(mentions)
        self.radix = radix
        self.span = math.prod(radix[p] for p in self.ps)
        self.build = build
        self.place: dict[int, int] = {}  # key -> its value's index in nodes
        self.nodes: list = []

    def _distinct(self, cols: Columns) -> tuple[list[int], np.ndarray | None]:
        """The places of the chunk's distinct keys, building the values of
        those not seen yet, and each row's index among them, or None when
        the whole chunk has one key."""
        ps, radix, place = self.ps, self.radix, self.place
        one_row = isinstance(cols, list)
        if one_row or not ps:
            key = 0
            for p in ps:
                key = key * radix[p] + cols[p][0]
            hit = place.get(key)
            if hit is None:
                self.nodes.append(self.build(cols if one_row else cols[:, :1])[0])
                hit = place[key] = len(self.nodes) - 1
            return [hit], None
        keys = cols[ps[0]]
        for p in ps[1:]:  # below the block's bit count, which the budget bounds
            keys = keys * radix[p] + cols[p]
        if self.span <= 4 * keys.size:
            seen = np.zeros(self.span, bool)
            seen[keys] = True
            distinct = np.flatnonzero(seen)
            inverse = (np.cumsum(seen) - 1)[keys]
        else:
            distinct, inverse = np.unique(keys, return_inverse=True)
        distinct = distinct.tolist()
        places = list(map(place.get, distinct))
        new = [i for i, v in enumerate(places) if v is None]
        if new:
            row = np.empty(len(distinct), np.intp)
            row[inverse] = np.arange(keys.size)  # one row of each key
            nodes = self.nodes
            for i, v in zip(new, self.build(cols[:, row[new]])):
                places[i] = place[distinct[i]] = len(nodes)
                nodes.append(v)
        return places, inverse

    def __call__(self, cols: Columns) -> list:
        places, inverse = self._distinct(cols)
        values = list(map(self.nodes.__getitem__, places))
        if inverse is None:
            return values * len(cols[0])
        return np.fromiter(values, object, len(values))[inverse].tolist()

    def places(self, cols: Columns, dtype: np.dtype) -> np.ndarray:
        """Each row's place in nodes, as dtype, which must hold span - 1."""
        places, inverse = self._distinct(cols)
        if inverse is None:
            return np.full(len(cols[0]), places[0], dtype)
        return np.array(places, dtype)[inverse]


def _per_value(
    mentions: frozenset[int], build: Instantiator, radix: dict[int, int]
) -> Instantiator:
    """build itself if it mentions every block variable, else its _Values."""
    return build if mentions == radix.keys() else _Values(mentions, build, radix)


class _SegmentBuilder:
    """The column instantiator of a kept split that becomes a Segment: a
    chunk's rows are kept as the places of their two sides' values, and no
    comparison is built.  Called on a chunk, it takes the chunk's rows and
    returns itself and their count, a _Parts.SEGMENT chunk for _draw; a
    chunk that raises takes none."""

    def __init__(self, op: str, left: _Values, right: _Values):
        self.op = op
        self.sides = (left, right)
        # a side has at most span distinct values
        self.dtype = np.min_scalar_type(max(left.span, right.span) - 1)
        self.pieces: list[np.ndarray] = []

    def __call__(self, cols: Columns) -> tuple[_SegmentBuilder, int]:
        # the left side first, as building the comparisons would
        left, right = (side.places(cols, self.dtype) for side in self.sides)
        self.pieces.append(np.stack((left, right)))
        return self, left.size

    def segment(self) -> Segment:
        """The split's rows so far, in one array."""
        pieces = self.pieces
        index = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
        left, right = self.sides
        return Segment(self.op, left.nodes, right.nodes, index)


def _junction_column(conj: bool, children: list[Instantiator]) -> Instantiator:
    """A conjunction (conj) or disjunction, lazy by row selection: child k
    is built only for the rows that children 0..k-1 left undecided."""
    absorbing = FALSE if conj else TRUE

    def build(cols: Columns) -> list[Formula]:
        parts: list = [[] for _ in range(len(cols[0]))]  # a decided row's is None
        rows, sub = range(len(parts)), cols
        for child in children:
            undecided = []
            for r, v in zip(rows, child(sub)):
                if v is absorbing:
                    parts[r] = None
                else:
                    undecided.append(r)
                    parts[r].append(v)
            if not undecided:
                break
            if len(undecided) < len(rows):  # only an array chunk has rows to drop
                rows, sub = undecided, cols[:, undecided]
        return [absorbing if p is None else _simp_junction(conj, p) for p in parts]

    return build


@dataclass(slots=True)
class _Binary:
    """The build of a comparison or arithmetic node: step(op, l, r) at
    each row, l and r its sides' values there.  step is the node's
    constructor when it never folds, its _fold_* step otherwise."""

    step: Callable
    op: str
    left: Instantiator
    right: Instantiator

    def __call__(self, cols: Columns) -> list:
        return list(map(self.step, itertools.repeat(self.op), self.left(cols), self.right(cols)))


def _tuples(sizes: list[int]) -> Iterator[tuple[int, ...]]:
    """Every index tuple over the given sizes, in lexicographic order,
    lazily: each is counted up from the last in mixed radix, so no range
    is built up front, and the deadline is checked before each."""
    if not all(sizes):
        return
    idx = [0] * len(sizes)
    while True:
        check_deadline()
        yield tuple(idx)
        k = len(sizes) - 1
        while k >= 0 and idx[k] == sizes[k] - 1:
            idx[k] = 0
            k -= 1
        if k < 0:
            return
        idx[k] += 1


class _SentenceGrounder:
    """The run object of one grounding call: strategy and guard cap, the
    evaluator (vec only; shared by all sentences), the constant and fold
    tables, the relation tries of interpreted-atom expansion, and the row
    of the sentence being ground."""

    def __init__(self, structure: Structure, strategy: str, cap: int = DEFAULT_GUARD_CAP):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy: {strategy}")
        self.s = structure
        self.sigma0 = structure.interpreted_symbols
        self.strategy = strategy
        self.cap = cap
        self.ev = SatSetEvaluator(structure) if strategy == "vec" else None
        # blocks whose parts are being drawn; 1 while an outermost block's are
        self._open_blocks = 0
        self._const_cache: dict[tuple[str, int], Term] = {}
        # symbol -> folded args -> the folded application, shared by every
        # per-value FunctionApp node of the run; keyed by the args tuple
        # itself, which an uninterpreted application holds anyway
        self._folded_apps: dict[str, dict[tuple[Term, ...], Term]] = {}
        # (predicate, constant positions) -> _relation_trie's trie
        self._tries: dict[tuple[str, tuple[int, ...]], dict | list] = {}

    def sentence(
        self, f: Formula, sentence_id: int = 0, into: list | None = None
    ) -> SentenceStats:
        """Ground one sentence into a fresh row; tensor_bits is the peak of
        this sentence alone.  The row's formula is the sentence's ground
        formula.  Given a list into, the sentence's top-level assertions
        are appended to it instead, and the row's formula is FALSE if the
        sentence is refuted and TRUE otherwise.  Under vec, a sentence
        that folds to a universal block then keeps each split that
        qualifies as a Segment (_columns)."""
        t0 = time.perf_counter()
        self.row = row = SentenceStats(sentence_id, self.strategy)
        f = desugar(f)
        if self.strategy == "noreduce":
            formula = self.ground_noreduce(f)
        elif self.ev is None:
            formula = self.ground(f)
        else:
            self.ev.peak_bits = 0
            folded = self.fold(f)
            if into is not None and isinstance(folded, ForAll):
                formula = self._ground_block(folded, into)
            else:
                formula = self._ground_folded(folded)
            row.tensor_bits = self.ev.peak_bits
        if into is not None and formula is not FALSE:
            if formula is not TRUE:
                into.extend(_split_assertions(formula))
            formula = TRUE
        row.formula = formula
        row.micros = int((time.perf_counter() - t0) * 1e6)
        return row

    # -- shared helpers ---------------------------------------------------

    def _const(self, type_name: str, index: int) -> Term:
        key = (type_name, index)
        hit = self._const_cache.get(key)
        if hit is None:
            hit = self.s.constant_for(type_name, self.s.index_to_value(type_name, index))
            self._const_cache[key] = hit
        return hit

    def _reject_nested(self, symbol: str, name: str, args: tuple[Term, ...]) -> None:
        for a in args:
            if _term_has_uninterpreted(a, self.sigma0):
                raise UnsupportedFormula(
                    f"{symbol} {name} applied to an argument containing an "
                    "uninterpreted symbol"
                )

    # -- folding ----------------------------------------------------------

    # Each _fold_* step folds one node whose children are already folded;
    # fold and the column instantiators share them.

    def _fold_app(self, name: str, args: tuple[Term, ...]) -> Term:
        interpreted = name in self.sigma0
        if interpreted and all(_is_constant_term(a) for a in args):
            value = eval_term(FunctionApp(name, args), self.s, {})
            codomain = self.s.voc.functions[name].codomain
            return _codomain_const(self.s, codomain, value)
        symbol = "interpreted function" if interpreted else "uninterpreted function"
        self._reject_nested(symbol, name, args)
        return FunctionApp(name, args)

    def _fold_app_shared(self, name: str, args: tuple[Term, ...]) -> Term:
        """_fold_app through the run's table: one fold, and one object, per
        distinct application, whichever node builds it."""
        table = self._folded_apps.setdefault(name, {})
        hit = table.get(args)
        if hit is None:
            hit = table[args] = self._fold_app(name, args)
        return hit

    @staticmethod
    def _fold_arith(op: str, left: Term, right: Term) -> Term:
        if isinstance(left, IntConstant) and isinstance(right, IntConstant):
            a, b = left.value, right.value
            return IntConstant(a + b if op == "+" else a - b if op == "-" else a * b)
        return Arith(op, left, right)

    def _fold_term(self, t: Term) -> Term:
        if isinstance(t, FunctionApp):
            return self._fold_app(t.name, tuple(self._fold_term(a) for a in t.args))
        if isinstance(t, Arith):
            return self._fold_arith(t.op, self._fold_term(t.left), self._fold_term(t.right))
        return t

    def _fold_atom(self, pred: str, args: tuple[Term, ...]) -> Formula:
        g = Atom(pred, args)
        if pred not in self.sigma0:
            self._reject_nested("uninterpreted predicate", pred, args)
            return g
        if all(_is_constant_term(a) for a in args):
            return TRUE if eval_formula(g, self.s, {}) else FALSE
        if not free_variables(g):
            return self._expand_interpreted_atom(g)
        return g

    @staticmethod
    def _fold_compare(op: str, left: Term, right: Term) -> Formula:
        if _is_constant_term(left) and _is_constant_term(right):
            lv = left.index if isinstance(left, DomainConstant) else left.value
            rv = right.index if isinstance(right, DomainConstant) else right.value
            return TRUE if _compare(op, lv, rv) else FALSE
        return Compare(op, left, right)

    def _expand_interpreted_atom(self, f: Atom) -> Formula:
        """An interpreted predicate over ground arguments that embed
        uninterpreted terms: unfold its relation into a disjunction, one
        disjunct per tuple, in sorted order, that agrees with the constant
        arguments.  Those are looked up in the relation's trie, each only
        while some tuple agrees with the ones before it, as testing tuple
        by tuple would; so the work, and the Compares built, grow with the
        tuples that agree, not the relation.  It checks the deadline."""
        check_deadline()
        sig = self.s.voc.predicates[f.pred]
        fixed = tuple(j for j, a in enumerate(f.args) if _is_constant_term(a))
        node = self._relation_trie(f.pred, fixed)
        for j in fixed:
            if not node:  # no tuple agrees with the constants before j
                break
            arg = f.args[j]
            have = (
                arg.index
                if isinstance(arg, DomainConstant)
                else self.s.value_to_index(sig[j], arg.value)
            )
            node = node.get(have, ())
        rest = [(j, a, sig[j]) for j, a in enumerate(f.args) if j not in fixed]
        const = self._const
        return _simp_junction(
            False,
            [
                _simp_junction(True, [Compare("=", a, const(want, t[j])) for j, a, want in rest])
                for t in node
            ],
        )

    def _relation_trie(self, pred: str, fixed: tuple[int, ...]) -> dict | list:
        """pred's tuples in sorted order, in nested dicts keyed by their
        indices at the positions fixed, one level per position, the tuples
        in lists at the last; with no positions, the sorted list itself.
        The relation is sorted once per run, and each trie built once."""
        trie = self._tries.get((pred, fixed))
        if trie is None:
            if not fixed:
                trie = sorted(self.s.relations[pred])
            else:
                trie = {}
                for t in self._relation_trie(pred, ()):
                    node = trie
                    for j in fixed[:-1]:
                        node = node.setdefault(t[j], {})
                    node.setdefault(t[fixed[-1]], []).append(t)
            self._tries[(pred, fixed)] = trie
        return trie

    def fold(self, f: Formula) -> Formula:
        """Evaluate ground interpreted leaves, fold interpreted terms, and
        propagate constants.  Quantified subformulas are never evaluated
        here; they are lifted as guards instead."""
        check_deadline()
        if f is TRUE or f is FALSE:
            return f
        if isinstance(f, Atom):
            return self._fold_atom(f.pred, tuple(self._fold_term(a) for a in f.args))
        if isinstance(f, Compare):
            return self._fold_compare(f.op, self._fold_term(f.left), self._fold_term(f.right))
        if isinstance(f, Not):
            return _simp_not(self.fold(f.child))
        if isinstance(f, (And, Or)):
            return _simp_junction(isinstance(f, And), (self.fold(c) for c in f.children))
        if isinstance(f, (ForAll, Exists)):
            return _simp_quant(
                isinstance(f, ForAll), f.var, self.fold(f.body), self.s
            )
        raise TypeError(f"not a formula: {f!r}")

    # -- grounding --------------------------------------------------------

    def ground(self, f: Formula) -> Formula:
        return self._ground_folded(self.fold(f))

    def _ground_folded(self, f: Formula) -> Formula:
        """Ground the quantifier blocks left in a folded formula.  Folding
        again would change nothing, so nothing is refolded, and a part with
        no block in it is returned as it is, still shared."""
        if isinstance(f, (ForAll, Exists)):
            return self._ground_block(f)
        if isinstance(f, Not):
            child = self._ground_folded(f.child)
            return f if child is f.child else _simp_not(child)
        if isinstance(f, (And, Or)):
            for i, c in enumerate(f.children):
                g = self._ground_folded(c)
                if g is not c:  # from the first part that changed on, lazily
                    rest = (self._ground_folded(d) for d in f.children[i + 1 :])
                    return _simp_junction(
                        isinstance(f, And), itertools.chain(f.children[:i], (g,), rest)
                    )
        return f  # a constant, a ground atom or comparison, or no block inside

    def _ground_block(self, f: Formula, into: list | None = None) -> Formula:
        """The ground conjunction (forall) or disjunction of a block.  With
        a list into, f is a whole sentence's universal block under vec,
        whose kept parts _draw appends to into, and a split that qualifies
        is kept as a segment (_columns)."""
        forall, vars, body = _block_of(f)
        guards, occurrences = _collect_guards(body, self.sigma0, frozenset(vars))
        if not self._open_blocks:  # an outermost block
            self.row.guards += len(guards)
        if self.ev is not None and len(guards) <= self.cap:
            parts = self._block_vec(forall, vars, body, guards, occurrences, into is not None)
        else:
            if self.ev is not None:
                self.row.strategy = "naive(fallback)"
            parts = self._block_naive(vars, body, guards, occurrences)
        self._open_blocks += 1
        try:
            return self._draw(forall, parts, into)
        finally:
            self._open_blocks -= 1

    def _draw(
        self, forall: bool, chunks: Iterable[tuple[list, _Parts]], into: list | None = None
    ) -> Formula:
        """The conjunction (forall) or disjunction of a block's parts,
        which chunks yields a chunk at a time as (parts, how) pairs, how
        one of _Parts.  Each chunk is checked against the deadline once and
        counted as a whole, unless it holds the first deciding part, where
        drawing stops and counting ends with that part; a chunk of parts
        that never fold is kept whole with no scan, and a segment chunk is
        counted with no part built.  A nested chunk's parts are counted,
        checked and ground one at a time instead.  With a list into, the
        parts kept are appended to it, a segment split's as one Segment,
        and the block's unit is returned, unless a part decides the block;
        a lone part that is a formula is returned instead."""
        unit, absorbing = (TRUE, FALSE) if forall else (FALSE, TRUE)
        row, out = self.row, []
        # bound once: looking up an Enum member costs about 0.1 us
        nested, folded, whole = _Parts.NESTED, _Parts.FOLDED, _Parts.WHOLE
        segment = _Parts.SEGMENT
        for parts, how in chunks:
            if how is nested:
                for part in parts:
                    row.instantiations += 1
                    check_deadline()
                    part = self._ground_folded(part)
                    if part is absorbing:
                        return absorbing
                    if part is not unit:
                        out.append(part)
                continue
            check_deadline()
            if how is whole:
                row.instantiations += len(parts)
                out.extend(parts)
                continue
            if how is segment:
                builder, rows = parts
                row.instantiations += rows
                if not out or out[-1] is not builder:
                    out.append(builder)
                continue
            if any(map(operator.is_, parts, itertools.repeat(absorbing))):
                if how is folded:
                    hits = list(map(operator.is_, parts, itertools.repeat(absorbing)))
                    row.instantiations += hits.index(True) + 1
                return absorbing
            if how is folded:
                row.instantiations += len(parts)
            if any(map(operator.is_, parts, itertools.repeat(unit))):
                kept = map(operator.is_not, parts, itertools.repeat(unit))
                parts = list(itertools.compress(parts, kept))
            out.extend(parts)
        if into is None or (len(out) == 1 and type(out[0]) is not _SegmentBuilder):
            return _junction(forall, out)
        into.extend(p.segment() if type(p) is _SegmentBuilder else p for p in out)
        return unit

    def _count_split(self) -> None:
        """A kept split of the block being drawn, if that block is outermost."""
        if self._open_blocks == 1:
            self.row.splits_kept += 1

    def _block_sizes(self, vars: list[Variable]) -> list[int]:
        """The domain sizes of a block whose tuples are enumerated one by
        one.  A type of more than sys.maxsize values is too many to
        enumerate: a resource error."""
        sizes = [self.s.domain_size(v.type) for v in vars]
        for v, n in zip(vars, sizes):
            if n > sys.maxsize:
                raise ArithmeticOverflow(f"type {v.type} has {n} values, too many to enumerate")
        return sizes

    def _bind(
        self, f: Formula, vars: list[Variable], idx_tuple: tuple[int, ...]
    ) -> Formula:
        """One noreduce instantiation: f with the block's variables set to a
        tuple."""
        self.row.instantiations += 1
        return substitute(f, {v: self._const(v.type, i) for v, i in zip(vars, idx_tuple)})

    def _columns(
        self, residual: Formula, vars: list[Variable], segments: bool = False
    ) -> tuple[Instantiator, _Parts, int]:
        """The column instantiator of one kept split, as the module
        docstring describes it: maps a chunk of the block variables' indices
        to fold(substitute(residual, constants)) at each row, in row order;
        how _draw takes those parts; and the residual's nodes, counted as a
        tree, by which vec sizes chunks.  A chunk raises if one of its rows
        would, and a one-row chunk raises what that row would.  Each node of
        the residual is compiled once, in one walk, a nested quantifier's
        body included; a node that mentions fewer block variables than its
        parent goes through _per_value.  A nested quantifier's block is left
        for _instances to ground.

        With segments, a residual that is a comparison that never folds,
        over every block variable, each of whose sides mentions fewer (so
        is built per value), gives a _SegmentBuilder over those sides
        instead: its rows differ only in their places among the sides'
        values, and become one Segment.

        The compiler is methods, not nested functions: a recursive nested
        function is a reference cycle, which would keep this grounder, and
        with it the evaluator's memo, alive until a cycle collection."""
        pos = {v: i for i, v in enumerate(vars)}  # a repeated name binds last
        radix = {p: self.s.domain_size(v.type) for v, p in pos.items()}
        mentions, build, folds, size, nested = self._column_node(residual, pos, radix)
        if (
            segments
            and mentions == radix.keys()
            and type(build) is _Binary
            and build.step is Compare
            and type(build.left) is type(build.right) is _Values
        ):
            return _SegmentBuilder(build.op, build.left, build.right), _Parts.SEGMENT, size
        how = _Parts.NESTED if nested else _Parts.FOLDED if folds else _Parts.WHOLE
        return _per_value(mentions, build, radix), how, size

    def _column_parts(
        self, nodes, pos, radix
    ) -> tuple[frozenset[int], list[Instantiator], list[bool], int, bool]:
        """The block-variable positions a node over these children mentions,
        the children's builds, per value where they mention fewer, whether
        each can fold to a constant, and the node's size and nesting, as
        _column_node gives them."""
        compiled = [self._column_node(n, pos, radix) for n in nodes]
        mentions = frozenset().union(*(c[0] for c in compiled))
        builds = [b if m == mentions else _per_value(m, b, radix) for m, b, *_ in compiled]
        size = 1 + sum(c[3] for c in compiled)
        return mentions, builds, [c[2] for c in compiled], size, any(c[4] for c in compiled)

    def _column_node(
        self, n, pos, radix
    ) -> tuple[frozenset[int], Instantiator, bool, int, bool]:
        """The block-variable positions node n mentions, its build, whether
        its folded value can ever be a constant, its formula and term nodes
        counted as a tree, and whether it holds a quantifier: radix maps
        each block position to its domain size.  A node that never folds is
        built with its constructor, not its _fold_* step."""
        if isinstance(n, (FunctionApp, Atom)):
            mentions, args, arg_folds, size, _ = self._column_parts(n.args, pos, radix)
            if isinstance(n, FunctionApp):
                # a node over every block variable differs on every row, so
                # only one that is folded per value consults the run's table
                name = n.name
                step = self._fold_app if mentions == radix.keys() else self._fold_app_shared
                folds = name in self.sigma0 and all(arg_folds)
            else:
                name, step, folds = n.pred, self._fold_atom, n.pred in self.sigma0
            if not args:
                return mentions, lambda cols: [step(name, ())] * len(cols[0]), folds, size, False
            return mentions, lambda cols: [
                step(name, row) for row in zip(*[a(cols) for a in args])
            ], folds, size, False
        if isinstance(n, (Arith, Compare)):
            mentions, (left, right), (lf, rf), size, _ = self._column_parts(
                (n.left, n.right), pos, radix
            )
            # only two constants fold, so a side that never folds leaves
            # every row as built
            folds = lf and rf
            if isinstance(n, Compare):
                step = self._fold_compare if folds else Compare
            else:
                step = self._fold_arith if folds else Arith
            return mentions, _Binary(step, n.op, left, right), folds, size, False
        if isinstance(n, Not):
            mentions, (child,), (folds,), size, nested = self._column_parts((n.child,), pos, radix)
            return mentions, lambda cols: list(map(_simp_not, child(cols))), folds, size, nested
        if isinstance(n, (And, Or)):
            mentions, children, folds, size, nested = self._column_parts(n.children, pos, radix)
            # a part that folds to the absorbing constant folds the junction,
            # and so do no parts
            folds = any(folds) or not folds
            return mentions, _junction_column(isinstance(n, And), children), folds, size, nested
        if isinstance(n, (ForAll, Exists)):
            # a block variable that the quantifier rebinds is shadowed in its body
            inner = {v: p for v, p in pos.items() if v != n.var}
            mentions, body, folds, size, _ = self._column_node(n.body, inner, radix)
            forall, var, s = isinstance(n, ForAll), n.var, self.s
            folds = folds or s.domain_size(var.type) == 0
            return mentions, lambda cols: [
                _simp_quant(forall, var, b, s) for b in body(cols)
            ], folds, size + 1, True
        if isinstance(n, Variable) and n in pos:
            p, type_name, const = pos[n], n.type, self._const
            return frozenset((p,)), lambda cols: [
                const(type_name, i) for i in _ints(cols[p])
            ], True, 1, False
        # a constant, or a variable not of the block
        return frozenset(), lambda cols: [n] * len(cols[0]), not isinstance(n, Variable), 1, False

    def _instances(self, form: Instantiator, cols: Columns, how: _Parts):
        """The folded parts of one chunk of a kept split, in row order, as
        one (parts, how) chunk for _draw.  If the chunk raises, it is
        instantiated again one row at a time, each row a one-row chunk, so
        that the rows before the failing one are drawn first and a deciding
        part among them ends the block with no error, as it would have
        tuple by tuple."""
        try:
            parts = form(cols)
        except GroundingTimeout:
            raise
        except SliError:
            if len(cols[0]) == 1:
                raise
            for r in range(cols.shape[1]):
                yield from self._instances(form, cols[:, r : r + 1].tolist(), how)
            return
        yield parts, how

    # The block generators yield the chunks of a block, constants included;
    # _draw stops drawing at the first deciding part, so no later tensor is
    # evaluated and no later chunk instantiated.

    def _block_vec(self, forall, vars, body, guards, occurrences, segments=False):
        """Each kept split's satisfying set, a slab of leading-variable
        rows at a time (SatSetEvaluator.slabs): a residual that decides
        the block is drawn at the first slab holding a one, and no later
        slab is evaluated; otherwise each slab's ones are instantiated in
        order, in chunks of at most _CHUNK_NODES node builds.  With
        segments, a split that qualifies is kept as a segment
        (_columns)."""
        for signs, residual in _splits(forall, body, len(guards), occurrences, self.s):
            self._count_split()
            slabs = self.ev.slabs(_guard_formula(guards, signs), tuple(vars))
            if residual is TRUE or residual is FALSE:  # decides the block
                if any(tensor.any() for _, tensor in slabs):
                    yield [residual], _Parts.CONSTANT
                continue
            form, how, size = self._columns(residual, vars, segments)
            rows = max(1, _CHUNK_NODES // size)
            for lo, tensor in slabs:
                for coords in tensor.iter_ones_chunks():
                    coords[0] += lo
                    for a in range(0, coords.shape[1], rows):
                        yield from self._instances(form, coords[:, a : a + rows], how)

    def _block_naive(self, vars, body, guards, occurrences):
        """Tuple by tuple: each kept tuple is a one-row chunk."""
        residuals: dict[tuple[bool, ...], Formula] = {}
        kept: dict[tuple[bool, ...], tuple[Instantiator, _Parts]] = {}
        closed = [g for g in guards if not free_variables(g)]
        closed_signs = {
            id(g): bool(eval_formula(g, self.s, {})) for g in closed
        }
        constant = _Parts.CONSTANT
        # _tuples checks the deadline per tuple: vacuous ones reach no instantiation
        for idx_tuple in _tuples(self._block_sizes(vars)):
            env = {
                v.name: self.s.index_to_value(v.type, i)
                for v, i in zip(vars, idx_tuple)
            }
            signs = tuple(
                closed_signs[id(g)]
                if id(g) in closed_signs
                else bool(eval_formula(g, self.s, env))
                for g in guards
            )
            residual = residuals.get(signs)
            if residual is None:
                residual = _residual(body, occurrences, signs, self.s)
                residuals[signs] = residual
            if residual is TRUE or residual is FALSE:
                yield [residual], constant
                continue
            compiled = kept.get(signs)
            if compiled is None:
                compiled = kept[signs] = self._columns(residual, vars)
                self._count_split()
            form, how, _ = compiled
            yield from self._instances(form, [[i] for i in idx_tuple], how)

    # -- the non-reducing strategy -----------------------------------------

    def ground_noreduce(self, f: Formula) -> Formula:
        check_deadline()
        if f is TRUE or f is FALSE:
            return f
        if isinstance(f, (ForAll, Exists)):
            forall, vars, body = _block_of(f)
            out = [
                self.ground_noreduce(self._bind(body, vars, idx_tuple))
                for idx_tuple in _tuples(self._block_sizes(vars))
            ]
            if not out:
                # a block over an empty domain unfolds to its neutral constant
                return TRUE if forall else FALSE
            return And(tuple(out)) if forall else Or(tuple(out))
        if isinstance(f, Not):
            return Not(self.ground_noreduce(f.child))
        if isinstance(f, (And, Or)):
            return type(f)(tuple(self.ground_noreduce(c) for c in f.children))
        return f


# ---------------------------------------------------------------------------
# Sentence and problem entry points


@dataclass(slots=True)
class SentenceStats:
    """One sentence's ground formula and --stats row.  guards and
    splits_kept count its outermost blocks, instantiations every block.
    In a row of ground_problem, whose theory holds the assertions, the
    formula is FALSE for a refuted sentence and TRUE otherwise."""

    sentence_id: int
    strategy: str
    guards: int = 0
    splits_kept: int = 0
    tensor_bits: int = 0
    instantiations: int = 0
    micros: int = 0
    formula: Formula = TRUE


def ground_sentence(
    f: Formula,
    structure: Structure,
    strategy: str,
    *,
    cap: int = DEFAULT_GUARD_CAP,
) -> SentenceStats:
    """Ground one sentence into its row, sentence_id 0, under the caller's
    deadline (bittensor.deadline), if any.  Under vec, a block past the
    guard cap is grounded the naive way."""
    return _SentenceGrounder(structure, strategy, cap).sentence(f)


STATS_HEADER = "sentence-id,strategy,guards,splits-kept,tensor-bits,instantiations,micros"


@frozen
class GroundingStats:
    rows: tuple[SentenceStats, ...]

    @property
    def peak_bits(self) -> int:
        return max((r.tensor_bits for r in self.rows), default=0)

    @property
    def total_instantiations(self) -> int:
        return sum(r.instantiations for r in self.rows)

    def to_csv(self) -> str:
        lines = [STATS_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.sentence_id},{r.strategy},{r.guards},{r.splits_kept},"
                f"{r.tensor_bits},{r.instantiations},{r.micros}"
            )
        return "\n".join(lines) + "\n"


class Segment:
    """The instances of one kept split whose residual is a comparison that
    never folds, held as columns: assertion r is
    Compare(op, left[index[0, r]], right[index[1, r]]).  left and right
    hold each side's distinct folded values, shared with the rest of the
    theory, and index is one unsigned array of two rows, as narrow as the
    sides allow.  materialise() builds the comparisons."""

    __slots__ = ("op", "left", "right", "index")

    def __init__(self, op: str, left: list[Term], right: list[Term], index: np.ndarray):
        self.op = op
        self.left = left
        self.right = right
        self.index = index

    def __len__(self) -> int:
        return self.index.shape[1]

    def materialise(self) -> list[Formula]:
        """The comparisons, in row order: new nodes over the shared sides."""
        left, right = (
            np.fromiter(nodes, object, len(nodes))[places].tolist()
            for nodes, places in zip((self.left, self.right), self.index)
        )
        return list(map(Compare, itertools.repeat(self.op), left, right))


class GroundTheory:
    """Quantifier-free assertions plus the input structure (the emitter
    needs domains and signatures).  mode is 'reduced' (assertions mention no
    interpreted symbol) or 'unfolded' (interpreted symbols appear and their
    tables are part of the assertions).

    parts holds the assertions in order, as formulas and Segments, each
    Segment standing for its rows.  assertions is every assertion as a
    formula: a segment's comparisons are built when it is first read, and
    kept; assertion_count counts them without building any."""

    def __init__(
        self,
        structure: Structure,
        assertions: Iterable[Formula | Segment],
        verdict: str,
        mode: str,
        stats: GroundingStats,
    ):
        parts = tuple(assertions)
        if verdict != VERDICT_OPEN and parts:
            raise ValueError("a decided theory carries no assertions")
        self.structure = structure
        self.parts = parts
        self.verdict = verdict
        self.mode = mode
        self.stats = stats
        self._assertions: tuple[Formula, ...] | None = None

    @property
    def assertions(self) -> tuple[Formula, ...]:
        if self._assertions is None:
            if any(type(p) is Segment for p in self.parts):
                out: list[Formula] = []
                for p in self.parts:
                    if type(p) is Segment:
                        out += p.materialise()
                    else:
                        out.append(p)
                self._assertions = tuple(out)
            else:
                self._assertions = self.parts
        return self._assertions

    @property
    def assertion_count(self) -> int:
        return sum(len(p) if type(p) is Segment else 1 for p in self.parts)

    def __repr__(self) -> str:
        return (
            f"GroundTheory(verdict={self.verdict!r}, "
            f"assertions={self.assertion_count}, mode={self.mode!r})"
        )


def _structure_facts(s: Structure, symbols: Iterable[str]) -> list[Formula]:
    """The interpreted symbols' tables as ground assertions.  A table of
    more entries than bittensor.BIT_BUDGET, read at the call, is a
    resource error, raised before any table is enumerated."""
    budget = bittensor.BIT_BUDGET
    tables = []
    for name in symbols:
        rel = s.relations.get(name)
        sig = s.voc.functions.get(name)
        arg_types = s.voc.predicates[name] if rel is not None else sig.args
        sizes = [s.domain_size(t) for t in arg_types]
        entries = math.prod(sizes)
        if entries > budget:
            raise BitBudgetOverflow(
                f"the table of {name} has {entries} entries, more than the budget of {budget}"
            )
        tables.append((name, rel, sig, arg_types, sizes))
    out: list[Formula] = []
    for name, rel, sig, arg_types, sizes in tables:
        for tup in _tuples(sizes):
            args = tuple(
                s.constant_for(t, s.index_to_value(t, i))
                for t, i in zip(arg_types, tup)
            )
            if rel is not None:
                atom = Atom(name, args)
                out.append(atom if tup in rel else Not(atom))
            else:
                value = s.functions[name].lookup(tup)
                const = _codomain_const(s, sig.codomain, value)
                out.append(Compare("=", FunctionApp(name, args), const))
    return out


def _split_assertions(g: Formula) -> list[Formula]:
    """One assertion per top-level conjunct."""
    if isinstance(g, And):
        return list(g.children)
    return [g]


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector disabled, enabling it
    again at the end only if it was enabled at the start.  Grounding makes
    no reference cycles, so a collection during it would only traverse the
    live ground theory as it grows.  When the body returns, every tracked
    object, the ground theory among them, is first moved to the oldest
    generation (gc.freeze, then gc.unfreeze: two list splices, which also
    zero gen 0's count), so that no young collection scans the theory the
    caller keeps.  The move is skipped if the collector was disabled at
    the start (the caller owns its state), if the body raised (its objects
    are garbage, not a result), if the caller has frozen objects (they
    stay frozen), and on a free-threaded build (where freezing walks the
    heap).  The collector is process-wide: while the body runs, no
    thread's cyclic garbage is collected."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
        if collecting and not _FREE_THREADED and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
    finally:
        if collecting:
            gc.enable()


def ground_problem(
    problem: Problem,
    strategy: str,
    *,
    cap: int = DEFAULT_GUARD_CAP,
    timeout: float | None = None,
) -> GroundTheory:
    """Ground every sentence, short-circuiting on a refuted one, within
    timeout seconds, with the cyclic garbage collector paused; a returned
    theory is handed to the collector's oldest generation
    (_collector_paused)."""
    with _collector_paused(), deadline(timeout):
        s = problem.structure
        g = _SentenceGrounder(s, strategy, cap)
        rows: list[SentenceStats] = []
        assertions: list[Formula | Segment] = []
        refuted = False
        for i, sentence in enumerate(problem.sentences):
            row = g.sentence(sentence, i, assertions)
            rows.append(row)
            if row.formula is FALSE:
                refuted = True
                break
        stats = GroundingStats(tuple(rows))
        mode = "unfolded" if strategy == "noreduce" else "reduced"
        if refuted:
            return GroundTheory(s, (), VERDICT_UNSAT, mode, stats)
        if strategy == "noreduce" and assertions:
            used = set()
            for sentence in problem.sentences:
                used |= symbols_of(sentence)
            fact_symbols = [
                n
                for n in itertools.chain(s.voc.predicates, s.voc.functions)
                if n in used and s.interprets(n)
            ]
            assertions = _structure_facts(s, fact_symbols) + assertions
        if not assertions:
            return GroundTheory(s, (), VERDICT_SAT, mode, stats)
        return GroundTheory(s, assertions, VERDICT_OPEN, mode, stats)
