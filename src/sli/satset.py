"""Satisfying sets of interpreted formulas as packed bit tensors.

[f :: (v1..vk)] is the set of index tuples for which the structure makes f
true.  The evaluator computes it compositionally: conjunction intersects,
disjunction unites, negation complements, adding a variable replicates an
axis, and quantifiers collapse an axis by AND/OR.  Children are evaluated
over exactly their own free variables and combined into one output at
each connective (`bittensor.junction`); results are memoized per
evaluator by formula identity, so re-used guards are computed once.

`eval_over`, the grounder's entry point, does not evaluate its formula
itself: the parts (the children of a top-level And/Or, or else the
formula) are evaluated and memoized, permuted into the requested
variable order, and one junction combines them over those variables,
optionally only a slab of rows of the first.  `slabs` cuts a block's
guard into such slabs and evaluates them one at a time, so the grounder
holds the guard's parts, each permuted once per block, and one slab,
never the block's whole tensor.  A slab slices the parts over the
leading variable (`BitTensor.slab`), and the junction replicates the
others over the slab's axes.  A slab holds at most bittensor._SLAB_BITS
bits (or a whole part, if one is larger), the same bound that caps the
bits one piece of `insert_axis` writes, so the junction writes each part
into a slab in a piece or two.  The bit budget, the one constant
bittensor.BIT_BUDGET that every kernel checks, is checked on the whole
shape all the same, and peak_bits counts the whole shape.  The caller's
deadline (bittensor.deadline), if any, is checked per node, slab and piece.

Terms are evaluated by broadcasting: a term's value is an int64 array
with one axis per variable of the shape, of size 1 along every variable
the term does not mention, so `x` over (x, y) holds n values, not n*n.
Arithmetic overflow and out-of-range function arguments are checked on
these broadcast values, which hold exactly the values of the full
tensor.  Only an atom's or comparison's final bits cover the whole
shape, and those are computed and packed a piece at a time.

Every symbol in a formula handed to this engine must be interpreted by
the structure; quantified model expansion over uninterpreted symbols is
the grounder's job, not this module's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bittensor import (
    _SLAB_BITS,
    COMPARISONS,
    BitTensor,
    Shape,
    check_budget,
    check_deadline,
    checked_arith,
    checked_gather,
    in_order,
    junction,
    pack_pointwise,
)
from .errors import ArithmeticOverflow, IndexOutOfRange, UninterpretedSymbol, UnknownVariable
from .logic import (
    And,
    Arith,
    Atom,
    Compare,
    DomainConstant,
    Exists,
    FalseFormula,
    ForAll,
    Formula,
    FunctionApp,
    IntConstant,
    IntervalType,
    Not,
    Or,
    Structure,
    Term,
    TrueFormula,
    Variable,
    free_variables,
)

_INT64 = np.iinfo(np.int64)


def parts_of(f: Formula) -> tuple[Formula, ...]:
    """The parts eval_over evaluates f through: the children of a
    top-level And/Or, or else f alone."""
    return f.children if isinstance(f, (And, Or)) else (f,)


@dataclass(frozen=True)
class SatSet:
    """A formula together with the packed tensor of its satisfying tuples."""

    formula: Formula
    tensor: BitTensor

    @property
    def vars(self) -> tuple[Variable, ...]:
        return self.tensor.shape.vars

    def tuples(self) -> set[tuple[int, ...]]:
        return set(self.tensor.iter_ones())


class SatSetEvaluator:
    """Evaluates satisfying sets against one fixed structure.

    Not thread-safe; one serves all sentences of a grounding task, and
    `peak_bits` may be reset between them.  It runs under the caller's
    deadline (bittensor.deadline), if any, and raises GroundingTimeout
    once that has passed.
    """

    def __init__(self, structure: Structure):
        self.s = structure
        self.memo: dict[Formula, BitTensor] = {}
        self._memo_peak: dict[Formula, int] = {}  # peak bits of computing each entry
        self.peak_bits = 0
        self._relations: dict[str, tuple[list[np.ndarray], np.ndarray]] = {}
        self._fun_flat: dict[str, np.ndarray] = {}
        # the last (formula, vars) eval_over was asked for, with its parts
        # in the order of vars: the slabs of one block share them
        self._ordered: tuple[tuple[Formula, tuple[Variable, ...]], list[BitTensor]] | None = None

    # -- shapes ---------------------------------------------------------------

    def extent(self, var: Variable) -> int:
        return self.s.domain_size(var.type)

    def shape_for(self, vars: tuple[Variable, ...]) -> Shape:
        """The shape over vars, checked against the budget before any term
        over it is built."""
        shape = Shape(tuple((v, self.extent(v)) for v in vars))
        check_budget(shape.nbits)
        return shape

    def _track(self, t: BitTensor) -> BitTensor:
        if t.shape.nbits > self.peak_bits:
            self.peak_bits = t.shape.nbits
        return t

    # -- public entry points ----------------------------------------------------

    def eval(self, f: Formula) -> BitTensor:
        """Tensor over free(f) in first-appearance order.  A memo hit
        raises peak_bits as computing f afresh would have."""
        hit = self.memo.get(f)
        if hit is not None:
            self.peak_bits = max(self.peak_bits, self._memo_peak[f])
            return hit
        check_deadline()
        outer, self.peak_bits = self.peak_bits, 0
        t = self._track(self._eval(f))
        self.memo[f] = t
        self._memo_peak[f] = self.peak_bits
        self.peak_bits = max(outer, self.peak_bits)
        return t

    def eval_over(
        self,
        f: Formula,
        vars: tuple[Variable, ...],
        rows: tuple[int, int] | None = None,
    ) -> BitTensor:
        """Tensor over the requested variable tuple (must cover free(f)),
        or with rows (lo, hi) only its slab of those rows of the leading
        variable.  f itself is not evaluated: its parts (parts_of) are,
        through eval, and permuted into the order of vars, once while the
        same f and vars are asked for; one junction combines them over
        vars, the parts over the leading variable cut to the slab's rows.
        peak_bits counts the whole tensor over vars, slab or not."""
        free = free_variables(f)
        missing = [v for v in free if v not in vars]
        if missing:
            raise UnknownVariable(
                f"free variable {missing[0].name} not among the requested tuple"
            )
        parts = [self.eval(p) for p in parts_of(f)]
        shape = self.shape_for(vars)
        if self._ordered is None or self._ordered[0] != (f, vars):
            index = {v: k for k, v in enumerate(vars)}
            self._ordered = ((f, vars), [in_order(t, index) for t in parts])
        parts, axes = self._ordered[1], shape.axes
        if rows is not None:
            lo, hi = rows
            if not (vars and 0 <= lo <= hi <= shape.extents[0]):
                raise IndexOutOfRange(f"rows {rows} outside the leading axis")
            parts = [t.slab(lo, hi) if vars[0] in t.shape.vars else t for t in parts]
            axes = ((vars[0], hi - lo),) + axes[1:]
        out = junction(parts, not isinstance(f, Or), axes)
        self.peak_bits = max(self.peak_bits, shape.nbits)
        return out

    def slabs(self, f: Formula, vars: tuple[Variable, ...]) -> Iterator[tuple[int, BitTensor]]:
        """(lo, tensor) of f's satisfying set over vars, one slab of rows
        lo.. of the first variable at a time (eval_over with rows),
        lazily, checking the deadline before each.  A slab holds at most _SLAB_BITS
        bits, or as many as f's largest part if that is more, and at least
        one row."""
        largest = max(math.prod(map(self.extent, free_variables(p))) for p in parts_of(f))
        first, row = self.extent(vars[0]), math.prod(map(self.extent, vars[1:]))
        step = max(1, max(_SLAB_BITS, largest) // row if row else first)
        for lo in range(0, first, step):
            check_deadline()
            yield lo, self.eval_over(f, vars, (lo, min(first, lo + step)))

    # -- core recursion -----------------------------------------------------------

    def _eval(self, f: Formula) -> BitTensor:
        if isinstance(f, TrueFormula):
            return BitTensor.full(Shape(()))
        if isinstance(f, FalseFormula):
            return BitTensor.empty(Shape(()))
        if isinstance(f, Atom):
            return self._atom(f)
        if isinstance(f, Compare):
            return self._compare(f)
        if isinstance(f, Not):
            return self.eval(f.child).bit_not()
        if isinstance(f, (And, Or)):
            children = [self.eval(c) for c in f.children]
            return junction(children, isinstance(f, And))
        if isinstance(f, (ForAll, Exists)):
            conj = isinstance(f, ForAll)
            body = self.eval(f.body)
            if f.var not in body.shape.vars:
                if self.extent(f.var) == 0:
                    blank = BitTensor.full if conj else BitTensor.empty
                    return blank(body.shape)
                return body
            reduce = body.reduce_all if conj else body.reduce_any
            return reduce(f.var)
        raise TypeError(f"satisfying sets need the desugared core, got {f!r}")

    # -- atoms and terms ---------------------------------------------------------------

    def _rows(self, pred: str, arity: int) -> np.ndarray:
        """A relation's tuples as a read-only int64 array of one tuple per
        row: a view of the Relation's buffer, in its order (text order,
        for a parsed literal), without a copy; neither from_ones nor
        _relation needs them sorted."""
        rel = self.s.relations[pred]
        if rel.buffer is None:  # a type of more than 2^63 values
            raise ArithmeticOverflow(f"an index of {pred} exceeds 64 bits")
        rows = np.frombuffer(rel.buffer, dtype=np.int64).reshape(len(rel), arity)
        rows.flags.writeable = False
        return rows

    def _relation(self, pred: str, arity: int) -> tuple[list[np.ndarray], np.ndarray]:
        """A relation's distinct indices at each argument position, sorted,
        and the sorted mixed-radix keys of its tuples over their ranks
        among those.  Keyed by rank, a tuple's key stays below the product
        of the distinct counts, however large the argument types are."""
        hit = self._relations.get(pred)
        if hit is None:
            tuples = self._rows(pred, arity)
            values = [np.unique(col) for col in tuples.T]
            if math.prod(len(v) for v in values) > _INT64.max:
                raise ArithmeticOverflow(f"the tuples of {pred} exceed 64-bit keys")
            keys = np.zeros(len(tuples), dtype=np.int64)
            for v, col in zip(values, tuples.T):
                keys = keys * len(v) + np.searchsorted(v, col)
            hit = self._relations[pred] = (values, np.sort(keys))
        return hit

    def _fun_table(self, name: str) -> np.ndarray:
        flat = self._fun_flat.get(name)
        if flat is None:
            flat = self.s.functions[name].flat()
            self._fun_flat[name] = flat
        return flat

    def _arg_space(self, type_name: str, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalize term values into the index space of a declared argument
        type; returns (indices, in_range mask)."""
        decl = self.s.voc.type_decl(type_name)
        size = self.s.domain_size(type_name)
        if isinstance(decl, IntervalType):
            idx = values - decl.lo
        else:
            idx = values
        ok = (idx >= 0) & (idx < size)
        return idx, ok

    def _atom(self, f: Atom) -> BitTensor:
        if not self.s.interprets(f.pred):
            raise UninterpretedSymbol(f"predicate {f.pred} has no interpretation")
        arg_types = self.s.voc.predicates[f.pred]
        vars = free_variables(f)
        shape = self.shape_for(vars)
        if not arg_types:
            rel = self.s.relations[f.pred]
            blank = BitTensor.full if () in rel else BitTensor.empty
            return blank(shape)
        # fast path: distinct variables in shape order with matching types;
        # the tuples are set as bits straight from the unsorted array
        if (
            tuple(f.args) == vars
            and all(
                isinstance(a, Variable) and a.type == t for a, t in zip(f.args, arg_types)
            )
        ):
            return BitTensor.from_ones(shape, self._rows(f.pred, len(arg_types)))
        # argument indices; one outside its type matches no tuple
        cols = [self._arg_space(t, self._term(a, shape))[0] for a, t in zip(f.args, arg_types)]
        values, keys = self._relation(f.pred, len(arg_types))

        def members(*parts: np.ndarray) -> np.ndarray:
            if not keys.size:
                return np.zeros((), dtype=bool)
            key, ok = 0, True
            for col, v in zip(parts, values):
                rank = np.minimum(np.searchsorted(v, col), v.size - 1)
                ok = ok & (v[rank] == col)
                key = key * v.size + rank
            pos = np.minimum(np.searchsorted(keys, key), keys.size - 1)
            return (keys[pos] == key) & ok

        return pack_pointwise(shape, members, cols)

    def _compare(self, f: Compare) -> BitTensor:
        shape = self.shape_for(free_variables(f))
        left = self._term(f.left, shape)
        right = self._term(f.right, shape)
        fn = COMPARISONS[f.op]
        return pack_pointwise(shape, fn, (left, right))

    @staticmethod
    def _unit(shape: Shape) -> tuple[int, ...]:
        """Array shape of a value no variable of the shape varies: size 1
        along every axis, except size 0 along the first empty axis when
        the shape has no tuples, so that no check sees values the full
        tensor does not hold."""
        extents = shape.extents
        if shape.nbits:
            return (1,) * len(extents)
        k = extents.index(0)
        return tuple(0 if i == k else 1 for i in range(len(extents)))

    def _term(self, t: Term, shape: Shape) -> np.ndarray:
        """Evaluate a term pointwise over the shape (indices for enum-typed
        terms, integers otherwise), as an int64 array that broadcasts
        against shape.extents and has size 1 along the axes of variables
        the term does not mention."""
        if isinstance(t, Variable):
            k = shape.axis_of(t)
            unit = self._unit(shape)
            if not shape.nbits:
                return np.zeros(unit, dtype=np.int64)
            decl = self.s.voc.type_decl(t.type)
            size = self.s.domain_size(t.type)
            base = (
                np.arange(decl.lo, decl.hi + 1, dtype=np.int64)
                if isinstance(decl, IntervalType)
                else np.arange(size, dtype=np.int64)
            )
            return base.reshape(unit[:k] + (size,) + unit[k + 1 :])
        if isinstance(t, DomainConstant):
            return np.full(self._unit(shape), t.index, dtype=np.int64)
        if isinstance(t, IntConstant):
            if not _INT64.min <= t.value <= _INT64.max:
                raise ArithmeticOverflow(f"integer literal {t.value} exceeds 64 bits")
            return np.full(self._unit(shape), t.value, dtype=np.int64)
        if isinstance(t, FunctionApp):
            if not self.s.interprets(t.name):
                raise UninterpretedSymbol(f"function {t.name} has no interpretation")
            sig = self.s.voc.functions[t.name]
            key = None
            for arg, want in zip(t.args, sig.args):
                idx, ok = self._arg_space(want, self._term(arg, shape))
                if not ok.all():
                    raise IndexOutOfRange(
                        f"argument of {t.name} outside the domain of {want}"
                    )
                size = self.s.domain_size(want)
                key = idx if key is None else key * size + idx
            if key is None:
                key = np.zeros(self._unit(shape), dtype=np.int64)
            return checked_gather(self._fun_table(t.name), key)
        if isinstance(t, Arith):
            return checked_arith(t.op, self._term(t.left, shape), self._term(t.right, shape))
        raise TypeError(f"not a term: {t!r}")


def eval_sat_set(f: Formula, vars: tuple[Variable, ...], structure: Structure) -> SatSet:
    """[f :: vars] for a fully interpreted formula (vars must cover free(f))."""
    ev = SatSetEvaluator(structure)
    return SatSet(f, ev.eval_over(f, vars))
