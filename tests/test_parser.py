"""Parser/printer tests: concrete syntax, errors, round-trips."""

import numpy as np
import pytest

from sli.errors import DuplicateDefinition, ParseError, UnknownElement
from sli.logic import (
    And,
    Atom,
    Compare,
    DomainConstant,
    Exists,
    ForAll,
    Implies,
    IntConstant,
    IntervalType,
    Not,
    Or,
    Variable,
    desugar,
)
from sli.parser import parse_problem, print_formula, print_problem

COVER = """
vocabulary {
  type T := {a, b, c}.
  pred p(T).
  pred q(T).
}
theory {
  !x in T: p(x) | q(x).
}
structure {
  p := {a}.
  q := {b, c}.
}
"""


def test_parse_cover_problem():
    prob = parse_problem(COVER)
    assert set(prob.voc.predicates) == {"p", "q"}
    assert prob.structure.domains["T"] == ("a", "b", "c")
    assert prob.structure.relations["p"] == {(0,)}
    assert prob.structure.relations["q"] == {(1,), (2,)}
    x = Variable("x", "T")
    assert prob.sentences == (ForAll(x, Or((Atom("p", (x,)), Atom("q", (x,))))),)


def test_parse_interval_type_and_function():
    text = """
    vocabulary {
      type N := Int[1..3].
      func queen(N) -> N.
    }
    theory {
      !x, y in N: x ~= y => queen(x) ~= queen(y).
    }
    """
    prob = parse_problem(text)
    assert prob.voc.types["N"] == IntervalType("N", 1, 3)
    (f,) = prob.sentences
    x, y = Variable("x", "N"), Variable("y", "N")
    assert isinstance(f, ForAll) and f.var == x
    assert isinstance(f.body, ForAll) and f.body.var == y
    # => desugars to ~ |
    assert isinstance(f.body.body, Or)
    assert isinstance(f.body.body.children[0], Not)


def test_quantifier_body_extends_to_period():
    text = """
    vocabulary { type T := {a}. pred p(T). pred q(T). }
    theory { ?x in T: p(x) & q(x). }
    """
    (f,) = parse_problem(text).sentences
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)


def test_precedence_not_and_or_implies():
    text = """
    vocabulary { type T := {a}. pred p(T). pred q(T). pred r(T). }
    theory { !x in T: ~p(x) & q(x) | r(x) => q(x). }
    """
    (f,) = parse_problem(text).sentences
    x = Variable("x", "T")
    p, q, r = Atom("p", (x,)), Atom("q", (x,)), Atom("r", (x,))
    want = desugar(Implies(Or((And((Not(p), q)), r)), q))
    assert f == ForAll(x, want)


def test_implies_right_associative():
    text = """
    vocabulary { pred a(). pred b(). pred c(). }
    theory { a() => b() => c(). }
    """
    (f,) = parse_problem(text).sentences
    want = desugar(Implies(Atom("a", ()), Implies(Atom("b", ()), Atom("c", ()))))
    assert f == want


def test_mixed_type_quantifier_groups():
    text = """
    vocabulary { type T := {a}. type U := {u, w}. pred p(T, U). }
    theory { !x in T, y in U: p(x, y). }
    """
    (f,) = parse_problem(text).sentences
    assert f == ForAll(
        Variable("x", "T"), ForAll(Variable("y", "U"), Atom("p", (Variable("x", "T"), Variable("y", "U"))))
    )


def test_structure_tuples_functions_and_constants():
    text = """
    vocabulary {
      type T := {a, b}.
      pred edge(T, T).
      pred flag().
      func f(T) -> Int[0..9].
      func pick() -> T.
    }
    structure {
      edge := {(a, b), (b, a)}.
      flag := true.
      f := {a -> 3, b -> 0}.
      pick := b.
    }
    """
    s = parse_problem(text).structure
    assert s.relations["edge"] == {(0, 1), (1, 0)}
    assert s.relations["flag"] == {()}
    assert s.functions["f"].lookup((0,)) == 3
    assert s.functions["pick"].lookup(()) == 1
    assert s.interpreted_symbols == {"edge", "flag", "f", "pick"}


def test_interval_arguments_in_relations():
    text = """
    vocabulary { type N := Int[5..7]. pred p(N). }
    structure { p := {5, 7}. }
    """
    s = parse_problem(text).structure
    assert s.relations["p"] == {(0,), (2,)}


def test_comments_and_arith_terms():
    text = """
    vocabulary {
      type N := Int[1..4].   // one to four
      func f(N) -> Int[0..8].
    }
    theory {
      // every value stays under nine
      !x in N: f(x) + 1 =< 3 * 3.
    }
    structure { f := {1 -> 0, 2 -> 2, 3 -> 4, 4 -> 8}. }
    """
    prob = parse_problem(text)
    assert len(prob.sentences) == 1


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as err:
        parse_problem("vocabulary { type T := {a}. pred p(T) }")
    assert "line" not in str(err.value)  # span formats as file:line:col-col
    assert ":1:" in str(err.value)

    with pytest.raises(DuplicateDefinition):
        parse_problem("vocabulary { type T := {a}. type T := {b}. }")
    with pytest.raises(DuplicateDefinition):
        parse_problem("vocabulary { type T := {a}. pred a(T). }")
    with pytest.raises(UnknownElement):
        parse_problem("vocabulary { type T := {a}. pred p(T). } theory { p(zz). }")
    with pytest.raises(ParseError):
        # free variable: sentences must be closed
        parse_problem("vocabulary { type T := {a}. pred p(T). } theory { !x in T: p(y). }")
    with pytest.raises(ParseError):
        # rebinding in nested scope
        parse_problem(
            "vocabulary { type T := {a}. pred p(T). } theory { !x in T: ?x in T: p(x). }"
        )
    with pytest.raises(ParseError):
        # predicate in term position
        parse_problem(
            "vocabulary { type T := {a}. pred p(T). pred q(T). } theory { !x in T: p(x) = q(x). }"
        )
    with pytest.raises(ParseError):
        # non-total function table
        parse_problem(
            "vocabulary { type T := {a, b}. func f(T) -> Int[0..1]. } structure { f := {a -> 0}. }"
        )


@pytest.mark.parametrize(
    "interval, ok",
    [
        ("Int[-9223372036854775808..9223372036854775807]", True),
        ("Int[1..9223372036854775808]", False),
        ("Int[-9223372036854775809..1]", False),
    ],
)
def test_interval_bounds_fit_64_bits(interval, ok):
    for decl in (f"type N := {interval}.", f"type T := {{a}}. func f(T) -> {interval}."):
        src = f"vocabulary {{ {decl} }}"
        if ok:
            parse_problem(src)
        else:
            with pytest.raises(ParseError, match="exceeds 64 bits"):
                parse_problem(src)


def test_print_formula_example():
    x = Variable("x", "T")
    f = ForAll(x, Implies(Not(Atom("p", (x,))), Atom("q", (x,))))
    assert print_formula(f) == "!x in T: ~p(x) => q(x)"


def test_print_parse_round_trip_on_random_formulas():
    rng = np.random.default_rng(123)
    header = "vocabulary { type T := {a, b}. pred p(T). pred q(T, T). func f(T) -> Int[0..3]. }"
    x, y = Variable("x", "T"), Variable("y", "T")

    def gen(depth, vars_in_scope):
        pool = ["atom", "cmp"] if vars_in_scope else []
        if depth > 0:
            pool += ["not", "and", "or", "implies", "equiv", "forall", "exists"]
        if not pool:
            pool = ["tf"]
        kind = pool[int(rng.integers(0, len(pool)))]
        if kind == "tf":
            from sli.logic import FALSE, TRUE

            return TRUE if rng.random() < 0.5 else FALSE
        if kind == "atom":
            v = vars_in_scope[int(rng.integers(0, len(vars_in_scope)))]
            if rng.random() < 0.5:
                return Atom("p", (v,))
            w = vars_in_scope[int(rng.integers(0, len(vars_in_scope)))]
            return Atom("q", (v, w))
        if kind == "cmp":
            v = vars_in_scope[int(rng.integers(0, len(vars_in_scope)))]
            if rng.random() < 0.5:
                w = vars_in_scope[int(rng.integers(0, len(vars_in_scope)))]
                return Compare("~=" if rng.random() < 0.5 else "=", v, w)
            from sli.logic import Arith, FunctionApp

            return Compare("=<", FunctionApp("f", (v,)), IntConstant(int(rng.integers(0, 4))))
        if kind == "not":
            return Not(gen(depth - 1, vars_in_scope))
        if kind in ("and", "or"):
            n = int(rng.integers(2, 4))
            cls = And if kind == "and" else Or
            return cls(tuple(gen(depth - 1, vars_in_scope) for _ in range(n)))
        if kind == "implies":
            return Implies(gen(depth - 1, vars_in_scope), gen(depth - 1, vars_in_scope))
        if kind == "equiv":
            from sli.logic import Equiv

            return Equiv(gen(depth - 1, vars_in_scope), gen(depth - 1, vars_in_scope))
        var = x if x not in vars_in_scope else y
        if var in vars_in_scope:
            return Atom("p", (vars_in_scope[0],))
        cls = ForAll if kind == "forall" else Exists
        return cls(var, gen(depth - 1, vars_in_scope + [var]))

    for _ in range(300):
        f = gen(3, [])
        from sli.logic import free_variables

        if free_variables(f):
            continue
        text = header + " theory { " + print_formula(f) + ". }"
        prob = parse_problem(text)
        assert prob.sentences[0] == desugar(f), print_formula(f)


def test_print_problem_round_trip():
    prob = parse_problem(COVER)
    text = print_problem(prob)
    again = parse_problem(text)
    assert again.sentences == prob.sentences
    assert again.structure.relations == prob.structure.relations
    assert print_problem(again) == text
