"""Logic core: traversals, desugaring, type checking, model checking."""

import dataclasses
import typing

import pytest

from sli import bench, bittensor, errors, grounder, logic, satset, smt
from sli.bench import BenchSpec, RunRecord
from sli.errors import (
    ArityMismatch,
    TypeCheckError,
    TypeMismatch,
    UninterpretedSymbol,
    UnknownSymbol,
)
from sli.logic import (
    FALSE,
    TRUE,
    And,
    Arith,
    Atom,
    Compare,
    DomainConstant,
    EnumType,
    Equiv,
    Formula,
    Exists,
    ForAll,
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
    Variable,
    Vocabulary,
    check_models,
    check_sentence,
    desugar,
    eval_formula,
    free_variables,
    substitute,
    symbols_of,
    type_check,
)
from sli.grounder import GroundingStats, GuardSplit
from sli.smt import SmtDocument


def two_pred_vocab():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["p"] = ("T", "T")
    voc.predicates["q"] = ("T", "T")
    return voc


def two_pred_structure():
    # domain {a, b}; p = {(a,a),(b,a)}; q = {(a,b),(a,a)}
    voc = two_pred_vocab()
    return Structure(
        voc,
        domains={"T": ("a", "b")},
        relations={"p": {(0, 0), (1, 0)}, "q": {(0, 1), (0, 0)}},
    )


X = Variable("x", "T")
Y = Variable("y", "T")


def test_free_variables_ordered_by_first_appearance():
    f = And((Atom("p", (Y, X)), Atom("q", (X, Y))))
    assert free_variables(f) == (Y, X)
    assert free_variables(ForAll(Y, f)) == (X,)
    assert free_variables(ForAll(X, ForAll(Y, f))) == ()


def test_desugar_implication_and_equivalence():
    a = Atom("p", (X, X))
    b = Atom("q", (X, X))
    assert desugar(Implies(a, b)) == Or((Not(a), b))
    assert desugar(Equiv(a, b)) == And((Or((Not(a), b)), Or((Not(b), a))))
    nested = ForAll(X, Implies(a, Implies(b, a)))
    assert desugar(nested) == ForAll(X, Or((Not(a), Or((Not(b), a)))))


def test_desugar_keeps_shared_subformulas_shared():
    # desugaring a desugared chain again must not unshare its operands
    f = Atom("p", (X, X))
    for _ in range(12):
        f = Equiv(f, Atom("q", (X, X)))
    g = desugar(desugar(f))
    for _ in range(12):
        left = g.children[0].children[0].child  # in ~a | q
        right = g.children[1].children[1]  # in ~q | a
        assert left is right
        g = left
    assert g == Atom("p", (X, X))


def test_substitute_keeps_shared_subformulas_shared():
    # 40 links: walked as a tree, the chain would have about 2^40 nodes
    c = DomainConstant("a", "T", 0)
    f = Atom("p", (X, X))
    for _ in range(40):
        f = Equiv(f, Exists(Y, Atom("q", (X, Y))))
    g = substitute(desugar(f), {X: c})
    for _ in range(40):
        left = g.children[0].children[0].child  # in ~a | q
        right = g.children[1].children[1]  # in ~q | a
        assert left is right
        assert g.children[0].children[1] == Exists(Y, Atom("q", (c, Y)))
        g = left
    assert g == Atom("p", (c, c))


def test_substitute_respects_binding():
    c = DomainConstant("a", "T", 0)
    f = And((Atom("p", (X, Y)), Exists(Y, Atom("q", (X, Y)))))
    g = substitute(f, {Y: c})
    assert g == And((Atom("p", (X, c)), Exists(Y, Atom("q", (X, Y)))))


def test_symbols_of_collects_nested_functions():
    voc = Vocabulary()
    f = Compare("=", FunctionApp("f", (FunctionApp("g", (X,)),)), IntConstant(3))
    assert symbols_of(f) == {"f", "g"}
    assert symbols_of(Atom("p", (X, X))) == {"p"}


def test_type_check_accepts_well_typed_sentence():
    voc = two_pred_vocab()
    f = ForAll(X, ForAll(Y, Implies(Atom("p", (X, Y)), Atom("q", (Y, X)))))
    check_sentence(f, voc)


def test_type_check_errors():
    voc = two_pred_vocab()
    with pytest.raises(UnknownSymbol):
        type_check(Atom("r", (X,)), voc)
    with pytest.raises(ArityMismatch):
        type_check(Atom("p", (X,)), voc)
    with pytest.raises(TypeMismatch):
        type_check(Compare("=", X, IntConstant(1)), voc)
    with pytest.raises(TypeMismatch):
        # order comparison needs integers
        type_check(Compare("<", X, Y), voc)
    with pytest.raises(TypeMismatch):
        type_check(ForAll(X, Exists(X, Atom("p", (X, X)))), voc)
    with pytest.raises(TypeCheckError):
        check_sentence(Atom("p", (X, Y)), voc)


def test_interval_types_compare_as_integers():
    voc = Vocabulary()
    voc.types["N"] = IntervalType("N", 1, 8)
    voc.functions["queen"] = FuncSig(("N",), "N")
    n1 = Variable("x", "N")
    n2 = Variable("y", "N")
    f = ForAll(
        n1,
        ForAll(
            n2,
            Implies(
                Compare("~=", n1, n2),
                Compare("~=", FunctionApp("queen", (n1,)), FunctionApp("queen", (n2,))),
            ),
        ),
    )
    check_sentence(f, voc)
    type_check(Compare("=<", Arith("+", n1, IntConstant(1)), n2), voc)


def test_eval_matches_worked_example():
    s = two_pred_structure()
    f = And((Atom("p", (X, Y)), Not(Atom("q", (X, Y)))))
    hits = [
        (dx, dy)
        for dx in range(2)
        for dy in range(2)
        if eval_formula(f, s, {"x": dx, "y": dy})
    ]
    assert hits == [(1, 0)]  # exactly (b, a)
    assert check_models(s, Exists(X, Exists(Y, f)))
    assert not check_models(s, ForAll(X, ForAll(Y, f)))


def test_eval_connectives_and_constants():
    s = two_pred_structure()
    assert eval_formula(TRUE, s, {})
    assert not eval_formula(FALSE, s, {})
    a = DomainConstant("a", "T", 0)
    b = DomainConstant("b", "T", 1)
    assert check_models(s, Atom("p", (a, a)))
    assert not check_models(s, Atom("p", (a, b)))
    assert check_models(s, Or((Atom("p", (a, b)), Atom("q", (a, b)))))
    assert check_models(s, Equiv(Atom("p", (a, b)), FALSE))
    assert check_models(s, Compare("~=", a, b))


def test_eval_functions_and_arithmetic():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.functions["f"] = FuncSig(("T",), Interval(0, 10))
    voc.functions["g"] = FuncSig(("T",), Interval(0, 10))
    s = Structure(
        voc,
        domains={"T": ("a", "b", "c")},
        functions={
            "f": FunctionTable((3,), {(0,): 2, (1,): 3, (2,): 5}),
            "g": FunctionTable((3,), {(0,): 3, (1,): 2, (2,): 1}),
        },
    )
    total = Compare("=", Arith("+", FunctionApp("f", (X,)), FunctionApp("g", (X,))), IntConstant(5))
    hits = [d for d in range(3) if eval_formula(total, s, {"x": d})]
    assert hits == [0, 1]
    assert check_models(s, Exists(X, total))
    assert not check_models(s, ForAll(X, total))


def test_uninterpreted_symbol_is_an_error_for_direct_eval():
    voc = two_pred_vocab()
    voc.predicates["r"] = ("T",)
    s = Structure(voc, domains={"T": ("a",)}, relations={"p": set(), "q": set()})
    with pytest.raises(UninterpretedSymbol):
        check_models(s, Atom("r", (DomainConstant("a", "T", 0),)))


def test_vacuous_quantification_over_empty_domain():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["p"] = ("T",)
    s = Structure(voc, domains={"T": ()}, relations={"p": set()})
    assert check_models(s, ForAll(X, FALSE))
    assert not check_models(s, Exists(X, TRUE))


def test_function_table_totality_enforced():
    with pytest.raises(TypeCheckError):
        FunctionTable((3,), {(0,): 1})


def test_interval_structure_values():
    voc = Vocabulary()
    voc.types["N"] = IntervalType("N", 3, 5)
    s = Structure(voc)
    assert list(s.domain_values("N")) == [3, 4, 5]
    assert s.domain_size("N") == 3
    assert s.value_to_index("N", 4) == 1
    assert s.value_to_index("N", 9) is None
    assert s.index_to_value("N", 2) == 5
    assert s.element_name("N", 0) == "3"
    assert s.constant_for("N", 4) == IntConstant(4)


# -- node construction ------------------------------------------------------------

_P = Atom("p", (X, Y))
_Q = Atom("q", (Y, X))
# two nodes of every term and formula class that has fields, differing
# in one field
NODE_PAIRS = [
    (X, Variable("x", "U")),
    (DomainConstant("a", "T", 0), DomainConstant("a", "T", 1)),
    (IntConstant(3), IntConstant(-3)),
    (FunctionApp("f", (X,)), FunctionApp("f", (X, Y))),
    (Arith("+", IntConstant(1), X), Arith("*", IntConstant(1), X)),
    (_P, Atom("p", (Y, X))),
    (Compare("=", X, Y), Compare("=<", X, Y)),
    (Not(_P), Not(_Q)),
    (And((_P, _Q)), And((_Q, _P))),
    (Or((_P, _Q)), Or((_P,))),
    (Implies(_P, _Q), Implies(_Q, _Q)),
    (Equiv(_P, _Q), Equiv(_P, _P)),
    (ForAll(X, _P), ForAll(Y, _P)),
    (Exists(X, _P), Exists(X, _Q)),
]


def _field_values(n):
    return tuple(getattr(n, f.name) for f in dataclasses.fields(n))


def test_node_pairs_cover_every_node_class():
    classes = typing.get_args(Term) + typing.get_args(Formula)
    with_fields = {c for c in classes if dataclasses.fields(c)}
    assert {type(a) for a, _ in NODE_PAIRS} == with_fields
    assert len(with_fields) == 14


@pytest.mark.parametrize("a, b", NODE_PAIRS, ids=lambda n: type(n).__name__)
def test_nodes_stay_frozen_dataclasses(a, b):
    cls, names = type(a), [f.name for f in dataclasses.fields(a)]
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__match_args__ == tuple(names)
    assert not hasattr(a, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
    # a name that is not a field is refused the same way
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.other = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.other
    assert _field_values(a) != _field_values(b)  # a failed assignment changed nothing
    # positional and keyword construction, and the arguments they refuse
    values = _field_values(a)
    assert cls(*values) == a and cls(**dict(zip(names, values))) == a
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    # replace builds a new node with the one field changed
    for name in names:
        r = dataclasses.replace(a, **{name: getattr(b, name)})
        assert type(r) is cls and r is not a
        assert _field_values(r) == tuple(
            getattr(b if n == name else a, n) for n in names
        )
    # equality and hashing are those of the field tuple, within a class
    for u, w in [(a, a), (a, cls(*values)), (a, b), (b, a)]:
        assert (u == w) == (_field_values(u) == _field_values(w))
        assert hash(u) == hash(_field_values(u))
    assert a != values and a != (cls, values)
    # repr as the dataclass writes it
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(a) == f"{cls.__qualname__}({shown})"


# One instance of each frozen slotted class that is not a node
FROZEN_RECORDS = [
    TRUE,
    FALSE,
    EnumType("T"),
    IntervalType("N", 1, 3),
    Interval(1, 3),
    FuncSig(("T",), "T"),
    GuardSplit((TRUE,), (True,), TRUE, FALSE),
    GroundingStats(()),
    BenchSpec("tg", 3),
    RunRecord("b", "i", "vec", 3, 0.0, 0, 1, 1, "sat", 0, 0, 0),
    SmtDocument("QF_UF", (), (), ()),
]


def test_frozen_records_cover_every_frozen_slotted_class():
    found = {
        c
        for m in (bench, bittensor, errors, grounder, logic, satset, smt)
        for c in vars(m).values()
        if dataclasses.is_dataclass(c) and isinstance(c, type)
        and c.__dataclass_params__.frozen and "__slots__" in vars(c)
    }
    nodes = {type(a) for a, _ in NODE_PAIRS}
    assert found == nodes | {type(r) for r in FROZEN_RECORDS}
    assert len(found - nodes) == 11


@pytest.mark.parametrize("record", FROZEN_RECORDS, ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_every_assignment(record):
    before = repr(record)
    for name in [f.name for f in dataclasses.fields(record)] + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert repr(record) == before and not hasattr(record, "__dict__")


# -- relations -------------------------------------------------------------------

RELATION_TEXT = """
vocabulary {{
  type T := {{a, b, c}}.
  pred e(T, T).
  pred on().
}}
structure {{
  e := {{{pairs}}}.
  on := {flag}.
}}
"""


def _parsed_relations(pairs: str, flag: str = "true"):
    from sli.parser import parse_problem

    return parse_problem(RELATION_TEXT.format(pairs=pairs, flag=flag)).structure


def test_a_relation_is_a_set_of_index_tuples():
    e = _parsed_relations("(c, a), (a, b), (b, b)").relations["e"]
    want = {(2, 0), (0, 1), (1, 1)}
    assert e == want and want == e
    assert e == frozenset(want) and frozenset(want) == e
    assert e != want - {(1, 1)} and want | {(0, 0)} != e
    assert e == Relation(want) and hash(e) == hash(frozenset(want))
    assert len(e) == 3 and (0, 1) in e and (1, 0) not in e and (0, 1, 2) not in e
    rows = list(e)
    assert rows == [(2, 0), (0, 1), (1, 1)]  # text order
    assert all(type(i) is int for row in rows for i in row)
    assert e.buffer.typecode == "q" and list(e.buffer) == [2, 0, 0, 1, 1, 1]
    assert e <= want | {(0, 0)} and e & {(0, 1), (2, 2)} == {(0, 1)}


def test_structures_compare_relations_by_value_in_any_order():
    one = _parsed_relations("(a, b), (b, c), (c, a)")
    other = _parsed_relations("(c, a), (a, b), (b, c)")
    assert list(one.relations["e"]) != list(other.relations["e"])
    assert one == other
    assert one != _parsed_relations("(a, b), (b, c)")
    given = Structure(one.voc, one.domains, {"e": {(0, 1), (1, 2), (2, 0)}, "on": {()}})
    assert given == one and isinstance(given.relations["e"], Relation)


@pytest.mark.parametrize("flag", ["true", "false", "{()}", "{}"])
def test_a_zero_ary_relation_is_a_count(flag):
    on = _parsed_relations("(a, b)", flag).relations["on"]
    holds = flag in ("true", "{()}")
    assert len(on) == int(holds) and (() in on) == holds
    assert list(on) == [()] * holds and on == ({()} if holds else set())
    assert on.arity == 0 and len(on.buffer) == 0


def test_a_relation_beyond_64_bit_indices_keeps_its_set():
    big = Relation({(2**63, 1), (0, 1)})
    assert big.buffer is None and big == {(0, 1), (2**63, 1)} and len(big) == 2
    assert sorted(big) == [(0, 1), (2**63, 1)]
    assert list(Relation({(2**63 - 1, 1)}).buffer) == [2**63 - 1, 1]
