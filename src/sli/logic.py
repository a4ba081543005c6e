"""Typed first-order logic: vocabularies, terms, formulas, structures.

Terms and formulas are immutable trees.  Connectives And/Or are n-ary so
that very wide ground formulas stay shallow.  Implies/Equiv exist as nodes
for programmatic construction and printing, but `desugar` rewrites them
into the negation/and/or core that every downstream module consumes.

Element values: a term of an enumerated type evaluates to the element's
index in its domain; a term of integer-interval type evaluates to the
integer itself.  Relations and function tables are stored in index space
(interval arguments normalized by their lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    TypeCheckError,
    TypeMismatch,
    UninterpretedSymbol,
    UnknownSymbol,
)

# ---------------------------------------------------------------------------
# Vocabulary


@dataclass(frozen=True, slots=True)
class EnumType:
    """A declared type interpreted by an enumerated domain."""

    name: str


@dataclass(frozen=True, slots=True)
class IntervalType:
    """A declared type interpreted by an inclusive integer interval."""

    name: str
    lo: int
    hi: int


TypeDecl = Union[EnumType, IntervalType]


@dataclass(frozen=True, slots=True)
class Interval:
    """An anonymous integer interval, usable as a function codomain."""

    lo: int
    hi: int


@dataclass(frozen=True, slots=True)
class FuncSig:
    args: tuple[str, ...]
    codomain: Union[str, Interval]


@dataclass
class Vocabulary:
    types: dict[str, TypeDecl] = field(default_factory=dict)
    predicates: dict[str, tuple[str, ...]] = field(default_factory=dict)
    functions: dict[str, FuncSig] = field(default_factory=dict)

    def type_decl(self, name: str) -> TypeDecl:
        try:
            return self.types[name]
        except KeyError:
            raise UnknownSymbol(f"unknown type: {name}") from None


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, slots=True)
class Variable:
    name: str
    type: str


@dataclass(frozen=True, slots=True)
class DomainConstant:
    """An element of an enumerated type, resolved to its index."""

    name: str
    type: str
    index: int


@dataclass(frozen=True, slots=True)
class IntConstant:
    value: int


@dataclass(frozen=True, slots=True)
class FunctionApp:
    name: str
    args: tuple["Term", ...]


@dataclass(frozen=True, slots=True)
class Arith:
    op: str  # one of + - *
    left: "Term"
    right: "Term"


Term = Union[Variable, DomainConstant, IntConstant, FunctionApp, Arith]

# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True, slots=True)
class TrueFormula:
    pass


@dataclass(frozen=True, slots=True)
class FalseFormula:
    pass


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class Compare:
    op: str  # one of = ~= < =< > >=
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Not:
    child: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    children: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Or:
    children: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Equiv:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class ForAll:
    var: Variable
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: Variable
    body: "Formula"


Formula = Union[
    TrueFormula,
    FalseFormula,
    Atom,
    Compare,
    Not,
    And,
    Or,
    Implies,
    Equiv,
    ForAll,
    Exists,
]

TRUE = TrueFormula()
FALSE = FalseFormula()

COMPARE_OPS = ("=", "~=", "<", "=<", ">", ">=")
EQUALITY_OPS = ("=", "~=")


# ---------------------------------------------------------------------------
# Traversals


def term_variables(t: Term, out: list[Variable]) -> None:
    if isinstance(t, Variable):
        if t not in out:
            out.append(t)
    elif isinstance(t, FunctionApp):
        for a in t.args:
            term_variables(a, out)
    elif isinstance(t, Arith):
        term_variables(t.left, out)
        term_variables(t.right, out)


def free_variables(f: Formula) -> tuple[Variable, ...]:
    """Free variables of f, ordered by first appearance, left to right."""
    out: list[Variable] = []
    _free_variables(f, frozenset(), out)
    return tuple(out)


def _free_variables(g: Formula, bound: frozenset[Variable], out: list[Variable]) -> None:
    """One node of `free_variables`: appends to out, in order, the
    variables of g outside bound that it does not hold yet."""
    if isinstance(g, (TrueFormula, FalseFormula)):
        return
    if isinstance(g, Atom):
        found: list[Variable] = []
        for a in g.args:
            term_variables(a, found)
        for v in found:
            if v not in bound and v not in out:
                out.append(v)
    elif isinstance(g, Compare):
        found = []
        term_variables(g.left, found)
        term_variables(g.right, found)
        for v in found:
            if v not in bound and v not in out:
                out.append(v)
    elif isinstance(g, Not):
        _free_variables(g.child, bound, out)
    elif isinstance(g, (And, Or)):
        for c in g.children:
            _free_variables(c, bound, out)
    elif isinstance(g, (Implies, Equiv)):
        _free_variables(g.left, bound, out)
        _free_variables(g.right, bound, out)
    elif isinstance(g, (ForAll, Exists)):
        _free_variables(g.body, bound | {g.var}, out)
    else:
        raise TypeError(f"not a formula: {g!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """Pre-order traversal of all subformulas, f included."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.child)
    elif isinstance(f, (And, Or)):
        for c in f.children:
            yield from subformulas(c)
    elif isinstance(f, (Implies, Equiv)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (ForAll, Exists)):
        yield from subformulas(f.body)


def symbols_of(f: Formula) -> frozenset[str]:
    """Predicate and function names occurring in f."""
    out: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            out.add(g.pred)
            for a in g.args:
                _term_symbols(a, out)
        elif isinstance(g, Compare):
            _term_symbols(g.left, out)
            _term_symbols(g.right, out)
    return frozenset(out)


def _term_symbols(t: Term, out: set[str]) -> None:
    """Add the function names occurring in t to out."""
    if isinstance(t, FunctionApp):
        out.add(t.name)
        for a in t.args:
            _term_symbols(a, out)
    elif isinstance(t, Arith):
        _term_symbols(t.left, out)
        _term_symbols(t.right, out)


def desugar(f: Formula) -> Formula:
    """Rewrite Implies/Equiv into the negation/and/or core.  `a <=> b`
    holds each operand twice, so a chain of them is a DAG; each node is
    rewritten once per call and its result shared, which keeps the DAG a
    DAG instead of a tree that doubles with each link."""
    return _desugar(f, {})


def _desugar(g: Formula, done: dict[int, Formula]) -> Formula:
    """One node of `desugar`; done maps the id of an input node to its
    rewrite.  Like every recursive walk in this package, a module function
    and not a closure: a recursive closure is a reference cycle, left for
    the cycle collector on every call."""
    out = done.get(id(g))
    if out is not None:
        return out
    if isinstance(g, (TrueFormula, FalseFormula, Atom, Compare)):
        out = g
    elif isinstance(g, Not):
        out = Not(_desugar(g.child, done))
    elif isinstance(g, (And, Or)):
        out = type(g)(tuple(_desugar(c, done) for c in g.children))
    elif isinstance(g, Implies):
        out = Or((Not(_desugar(g.left, done)), _desugar(g.right, done)))
    elif isinstance(g, Equiv):
        a, b = _desugar(g.left, done), _desugar(g.right, done)
        out = And((Or((Not(a), b)), Or((Not(b), a))))
    elif isinstance(g, (ForAll, Exists)):
        out = type(g)(g.var, _desugar(g.body, done))
    else:
        raise TypeError(f"not a formula: {g!r}")
    done[id(g)] = out
    return out


def substitute_term(t: Term, mapping: Mapping[Variable, Term]) -> Term:
    if isinstance(t, Variable):
        return mapping.get(t, t)
    if isinstance(t, FunctionApp):
        return FunctionApp(t.name, tuple(substitute_term(a, mapping) for a in t.args))
    if isinstance(t, Arith):
        return Arith(t.op, substitute_term(t.left, mapping), substitute_term(t.right, mapping))
    return t


def substitute(f: Formula, mapping: Mapping[Variable, Term]) -> Formula:
    """Replace free variables by terms.  Quantified sentences never rebind
    a name in this package, so no capture handling is needed beyond
    dropping the bound variable from the mapping.  As in `desugar`, each
    node is rewritten once per call and its result shared, so a DAG stays
    a DAG."""
    if not mapping:
        return f
    # mappings keeps every mapping alive, so that its id stays its own
    return _substitute(f, mapping, {}, [mapping])


def _substitute(
    g: Formula,
    m: Mapping[Variable, Term],
    done: dict[tuple[int, int], Formula],
    mappings: list[Mapping[Variable, Term]],
) -> Formula:
    """One node of `substitute`; done maps (node id, mapping id) to the
    node's rewrite."""
    key = (id(g), id(m))
    out = done.get(key)
    if out is not None:
        return out
    if isinstance(g, (TrueFormula, FalseFormula)):
        out = g
    elif isinstance(g, Atom):
        out = Atom(g.pred, tuple(substitute_term(a, m) for a in g.args))
    elif isinstance(g, Compare):
        out = Compare(g.op, substitute_term(g.left, m), substitute_term(g.right, m))
    elif isinstance(g, Not):
        out = Not(_substitute(g.child, m, done, mappings))
    elif isinstance(g, (And, Or)):
        out = type(g)(tuple(_substitute(c, m, done, mappings) for c in g.children))
    elif isinstance(g, (Implies, Equiv)):
        out = type(g)(
            _substitute(g.left, m, done, mappings), _substitute(g.right, m, done, mappings)
        )
    elif isinstance(g, (ForAll, Exists)):
        inner = {k: v for k, v in m.items() if k != g.var}
        if inner:
            mappings.append(inner)
            out = type(g)(g.var, _substitute(g.body, inner, done, mappings))
        else:
            out = type(g)(g.var, g.body)
    else:
        raise TypeError(f"not a formula: {g!r}")
    done[key] = out
    return out


# ---------------------------------------------------------------------------
# Type checking

INT_KIND = ("int",)


def _kind_of_type(name: str, voc: Vocabulary) -> tuple:
    decl = voc.type_decl(name)
    if isinstance(decl, IntervalType):
        return INT_KIND
    return ("enum", name)


def _codomain_kind(cod: Union[str, Interval], voc: Vocabulary) -> tuple:
    if isinstance(cod, Interval):
        return INT_KIND
    return _kind_of_type(cod, voc)


def term_kind(t: Term, voc: Vocabulary) -> tuple:
    """Kind of a term: ('enum', typename) or ('int',)."""
    if isinstance(t, Variable):
        return _kind_of_type(t.type, voc)
    if isinstance(t, DomainConstant):
        decl = voc.type_decl(t.type)
        if not isinstance(decl, EnumType):
            raise TypeMismatch(f"{t.name} is not an element of an enumerated type")
        return ("enum", t.type)
    if isinstance(t, IntConstant):
        return INT_KIND
    if isinstance(t, FunctionApp):
        sig = voc.functions.get(t.name)
        if sig is None:
            raise UnknownSymbol(f"unknown function: {t.name}")
        if len(t.args) != len(sig.args):
            raise ArityMismatch(
                f"function {t.name} expects {len(sig.args)} arguments, got {len(t.args)}"
            )
        for a, want in zip(t.args, sig.args):
            _check_arg(a, want, voc, t.name)
        return _codomain_kind(sig.codomain, voc)
    if isinstance(t, Arith):
        for side in (t.left, t.right):
            if term_kind(side, voc) != INT_KIND:
                raise TypeMismatch(f"arithmetic over non-integer term: {side!r}")
        return INT_KIND
    raise TypeError(f"not a term: {t!r}")


def _check_arg(arg: Term, want: str, voc: Vocabulary, symbol: str) -> None:
    want_kind = _kind_of_type(want, voc)
    got = term_kind(arg, voc)
    # interval-typed parameters accept any integer term; membership decides
    if want_kind == INT_KIND and got == INT_KIND:
        return
    if got != want_kind:
        raise TypeMismatch(f"argument {arg!r} of {symbol} is not of type {want}")


def type_check(f: Formula, voc: Vocabulary, bound: frozenset[str] = frozenset()) -> None:
    """Raise UnknownSymbol/ArityMismatch/TypeMismatch on an ill-typed formula."""
    if isinstance(f, (TrueFormula, FalseFormula)):
        return
    if isinstance(f, Atom):
        sig = voc.predicates.get(f.pred)
        if sig is None:
            raise UnknownSymbol(f"unknown predicate: {f.pred}")
        if len(f.args) != len(sig):
            raise ArityMismatch(
                f"predicate {f.pred} expects {len(sig)} arguments, got {len(f.args)}"
            )
        for a, want in zip(f.args, sig):
            _check_arg(a, want, voc, f.pred)
        return
    if isinstance(f, Compare):
        lk = term_kind(f.left, voc)
        rk = term_kind(f.right, voc)
        if lk != rk:
            raise TypeMismatch(f"comparison between different kinds: {f!r}")
        if lk != INT_KIND and f.op not in EQUALITY_OPS:
            raise TypeMismatch(f"order comparison on non-integer type: {f!r}")
        return
    if isinstance(f, Not):
        type_check(f.child, voc, bound)
        return
    if isinstance(f, (And, Or)):
        for c in f.children:
            type_check(c, voc, bound)
        return
    if isinstance(f, (Implies, Equiv)):
        type_check(f.left, voc, bound)
        type_check(f.right, voc, bound)
        return
    if isinstance(f, (ForAll, Exists)):
        voc.type_decl(f.var.type)
        if f.var.name in bound:
            raise TypeMismatch(f"variable {f.var.name} rebound inside its own scope")
        type_check(f.body, voc, bound | {f.var.name})
        return
    raise TypeError(f"not a formula: {f!r}")


def check_sentence(f: Formula, voc: Vocabulary) -> None:
    type_check(f, voc)
    free = free_variables(f)
    if free:
        names = ", ".join(v.name for v in free)
        raise TypeCheckError(f"sentence has free variables: {names}")


# ---------------------------------------------------------------------------
# Structures


class FunctionTable:
    """Total map from argument-index tuples to values (index or integer)."""

    def __init__(self, arg_sizes: tuple[int, ...], entries: dict[tuple[int, ...], int]):
        expected = 1
        for s in arg_sizes:
            expected *= s
        if len(entries) != expected:
            raise TypeCheckError(
                f"function table has {len(entries)} entries, expected {expected}"
            )
        self.arg_sizes = arg_sizes
        self.entries = dict(entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return self.arg_sizes == other.arg_sizes and self.entries == other.entries

    def lookup(self, key: tuple[int, ...]) -> int:
        return self.entries[key]

    def flat(self):
        """Row-major dense table, last argument fastest."""
        import numpy as np

        out = np.empty(max(1, len(self.entries)), dtype=np.int64)
        order = sorted(self.entries)
        for i, k in enumerate(order):
            out[i] = self.entries[k]
        return out


class Structure:
    """A (partial) interpretation: domains plus tables for some symbols."""

    def __init__(
        self,
        voc: Vocabulary,
        domains: Mapping[str, tuple[str, ...]] | None = None,
        relations: Mapping[str, frozenset[tuple[int, ...]]] | None = None,
        functions: Mapping[str, FunctionTable] | None = None,
    ):
        self.voc = voc
        self.domains: dict[str, tuple[str, ...]] = dict(domains or {})
        self.relations: dict[str, frozenset[tuple[int, ...]]] = {
            k: frozenset(v) for k, v in (relations or {}).items()
        }
        self.functions: dict[str, FunctionTable] = dict(functions or {})

    def __eq__(self, other: object) -> bool:
        """Structures are equal when their vocabularies, domains and tables
        are; like the dicts they hold, they are not hashable."""
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self.voc == other.voc
            and self.domains == other.domains
            and self.relations == other.relations
            and self.functions == other.functions
        )

    @property
    def interpreted_symbols(self) -> frozenset[str]:
        return frozenset(self.relations) | frozenset(self.functions)

    def interprets(self, symbol: str) -> bool:
        return symbol in self.relations or symbol in self.functions

    def domain_size(self, type_name: str) -> int:
        decl = self.voc.type_decl(type_name)
        if isinstance(decl, IntervalType):
            return decl.hi - decl.lo + 1
        return len(self.domains[type_name])

    def domain_values(self, type_name: str) -> range:
        """Values a variable of this type ranges over (indices for enums,
        integers for intervals)."""
        decl = self.voc.type_decl(type_name)
        if isinstance(decl, IntervalType):
            return range(decl.lo, decl.hi + 1)
        return range(len(self.domains[type_name]))

    def value_to_index(self, type_name: str, value: int) -> int | None:
        """Normalize a term value into index space; None if out of range."""
        decl = self.voc.type_decl(type_name)
        if isinstance(decl, IntervalType):
            idx = value - decl.lo
            if 0 <= idx <= decl.hi - decl.lo:
                return idx
            return None
        if 0 <= value < len(self.domains[type_name]):
            return value
        return None

    def index_to_value(self, type_name: str, index: int) -> int:
        """Inverse of value_to_index for in-range indices."""
        decl = self.voc.type_decl(type_name)
        if isinstance(decl, IntervalType):
            return decl.lo + index
        return index

    def element_name(self, type_name: str, index: int) -> str:
        decl = self.voc.type_decl(type_name)
        if isinstance(decl, IntervalType):
            return str(decl.lo + index)
        return self.domains[type_name][index]

    def constant_for(self, type_name: str, value: int) -> Term:
        """Turn a variable value back into a constant term."""
        decl = self.voc.type_decl(type_name)
        if isinstance(decl, IntervalType):
            return IntConstant(value)
        return DomainConstant(self.domains[type_name][value], type_name, value)


# ---------------------------------------------------------------------------
# Evaluation (the brute-force oracle path)


def eval_term(t: Term, s: Structure, env: Mapping[str, int]) -> int:
    if isinstance(t, Variable):
        return env[t.name]
    if isinstance(t, DomainConstant):
        return t.index
    if isinstance(t, IntConstant):
        return t.value
    if isinstance(t, FunctionApp):
        table = s.functions.get(t.name)
        if table is None:
            raise UninterpretedSymbol(f"function {t.name} has no interpretation")
        sig = s.voc.functions[t.name]
        key = []
        for a, want in zip(t.args, sig.args):
            idx = s.value_to_index(want, eval_term(a, s, env))
            if idx is None:
                # relation membership of an out-of-range tuple is merely
                # false, but a function value outside its table is undefined
                raise IndexOutOfRange(
                    f"argument of {t.name} outside the domain of {want}"
                )
            key.append(idx)
        return table.lookup(tuple(key))
    if isinstance(t, Arith):
        a = eval_term(t.left, s, env)
        b = eval_term(t.right, s, env)
        if t.op == "+":
            return a + b
        if t.op == "-":
            return a - b
        return a * b
    raise TypeError(f"not a term: {t!r}")


def _compare(op: str, a: int, b: int) -> bool:
    if op == "=":
        return a == b
    if op == "~=":
        return a != b
    if op == "<":
        return a < b
    if op == "=<":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def eval_formula(f: Formula, s: Structure, env: Mapping[str, int]) -> bool:
    """Direct recursive evaluation against a structure.  Exponential in
    quantifier depth; this is the reference semantics, not the fast path."""
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, FalseFormula):
        return False
    if isinstance(f, Atom):
        rel = s.relations.get(f.pred)
        if rel is None:
            raise UninterpretedSymbol(f"predicate {f.pred} has no interpretation")
        sig = s.voc.predicates[f.pred]
        # evaluate every argument before the membership test: a later
        # argument may be undefined even when an earlier one already
        # falls outside the relation's index space
        values = [eval_term(a, s, env) for a in f.args]
        key = []
        for value, want in zip(values, sig):
            idx = s.value_to_index(want, value)
            if idx is None:
                return False
            key.append(idx)
        return tuple(key) in rel
    if isinstance(f, Compare):
        return _compare(f.op, eval_term(f.left, s, env), eval_term(f.right, s, env))
    if isinstance(f, Not):
        return not eval_formula(f.child, s, env)
    # connectives and quantifiers evaluate every operand: term evaluation is
    # partial (function domains), and lazy evaluation would make "does this
    # formula error" depend on operand order
    if isinstance(f, And):
        return all([eval_formula(c, s, env) for c in f.children])
    if isinstance(f, Or):
        return any([eval_formula(c, s, env) for c in f.children])
    if isinstance(f, Implies):
        left = eval_formula(f.left, s, env)
        right = eval_formula(f.right, s, env)
        return (not left) or right
    if isinstance(f, Equiv):
        return eval_formula(f.left, s, env) == eval_formula(f.right, s, env)
    if isinstance(f, (ForAll, Exists)):
        sub = dict(env)
        results = []
        for d in s.domain_values(f.var.type):
            sub[f.var.name] = d
            results.append(eval_formula(f.body, s, sub))
        return all(results) if isinstance(f, ForAll) else any(results)
    raise TypeError(f"not a formula: {f!r}")


def check_models(s: Structure, f: Formula) -> bool:
    """Does the (total, for the symbols of f) structure satisfy sentence f?"""
    return eval_formula(f, s, {})
