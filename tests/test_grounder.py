"""Grounding strategies against brute-force model expansion.

The reference for every randomized case is exhaustive candidate
enumeration: a candidate interpretation of the open predicates satisfies
the theory under the full structure iff it satisfies the ground theory.
"""

import gc
import itertools
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sli.bittensor
import sli.grounder
import sli.satset

from randgen import (
    _quantifiable_types,
    candidate_structures,
    ground_theory_holds,
    random_formula,
    random_mx_problem,
    random_structure,
    theory_holds,
)
from sli.bittensor import check_deadline, deadline
from sli.errors import (
    ArithmeticOverflow,
    GroundingTimeout,
    GuardCapExceeded,
    IndexOutOfRange,
    SliError,
    UnsupportedFormula,
)
from sli.grounder import (
    GroundTheory,
    GroundingStats,
    Segment,
    SentenceStats,
    _Binary,
    _Parts,
    _Values,
    _SentenceGrounder,
    _collect_guards,
    _ints,
    _liftable,
    _per_value,
    _residual,
    _simp_junction,
    _simp_not,
    _simp_quant,
    _strip_negations,
    boolean_simplify,
    ground_problem,
    ground_sentence,
    guard_split,
    maximal_interpreted_subformulas,
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
    Exists,
    ForAll,
    FuncSig,
    FunctionApp,
    FunctionTable,
    IntConstant,
    Interval,
    IntervalType,
    Not,
    Or,
    Structure,
    Variable,
    Vocabulary,
    eval_formula,
    substitute,
)
from sli.bench import BenchSpec, generate
from sli.parser import Problem, parse_problem, print_formula
from sli.satset import SatSetEvaluator
from sli.smt import emit

STRATEGIES = ("vec", "naive", "noreduce")


def problem(src):
    return parse_problem(src)


COVER = """
vocabulary {
  type T := {a, b, c}.
  pred P(T).
  pred Q(T).
}
theory {
  !x in T: P(x) | Q(x).
}
structure {
  P := {a}.
}
"""


def test_maximal_interpreted_subformulas_examples():
    prob = problem(COVER)
    sigma0 = prob.structure.interpreted_symbols
    f = prob.sentences[0]
    guards = maximal_interpreted_subformulas(f, sigma0)
    assert [print_formula(g) for g in guards] == ["P(x)"]
    # a fully interpreted formula is its own single maximal subformula
    assert maximal_interpreted_subformulas(f, sigma0 | {"Q"}) == [f]


def test_maximal_subformula_conjunction_with_comparison():
    src = """
vocabulary {
  type V := {aa, bb, cc}.
  type C := {red, green}.
  pred border(V, V).
  func colour(V) -> C.
}
theory {
  !x, y in V: x ~= y & border(x, y) => colour(x) ~= colour(y).
}
structure {
  border := {(aa, bb), (bb, cc)}.
}
"""
    prob = problem(src)
    guards = maximal_interpreted_subformulas(
        prob.sentences[0], prob.structure.interpreted_symbols
    )
    assert [print_formula(g) for g in guards] == ["x ~= y & border(x, y)"]


def test_guard_split_keeps_negative_branch():
    prob = problem(COVER)
    splits = guard_split(prob.sentences[0], prob.structure)
    assert len(splits) == 1
    (sp,) = splits
    assert sp.sign_vector == (False,)
    assert print_formula(sp.guard_formula) == "~P(x)"
    assert print_formula(sp.residual) == "Q(x)"
    # the kept branch is the simplified form: forall x: ~P(x) => Q(x)
    gt = ground_problem(prob, "vec")
    assert gt.verdict == "open"
    assert [print_formula(a) for a in gt.assertions] == ["Q(b)", "Q(c)"]


def test_guard_split_no_guards_single_split():
    src = """
vocabulary {
  type T := {a, b}.
  pred u(T).
}
theory {
  !x in T: u(x).
}
structure {
}
"""
    prob = problem(src)
    splits = guard_split(prob.sentences[0], prob.structure)
    assert len(splits) == 1
    assert splits[0].guards == ()
    assert splits[0].guard_formula is TRUE
    gt = ground_problem(prob, "vec")
    assert [print_formula(a) for a in gt.assertions] == ["u(a)", "u(b)"]


def test_guard_split_reassembly_is_equivalent():
    rng = np.random.default_rng(11)
    from randgen import random_formula, random_structure

    checked = 0
    for _ in range(300):
        s = random_structure(
            rng,
            max_enum_types=1,
            max_size=3,
            n_preds=(1, 2),
            n_funcs=(0, 0),
            uninterpreted=1,
            max_pred_arity=1,
            allow_interval_type=False,
        )
        x = Variable("x", "T0")
        body = random_formula(rng, s, [x], 2, uninterpreted_ok=True, fresh_names=("y",))
        forall = rng.random() < 0.5
        f = (ForAll if forall else Exists)(x, body)
        try:
            splits = guard_split(f, s, cap=8)
        except GuardCapExceeded:
            continue
        # the split covers the whole leading run of same-kind quantifiers
        kind = ForAll if forall else Exists
        block, inner = [], f
        while isinstance(inner, kind):
            block.append(inner.var)
            inner = inner.body

        def requantify(g):
            for v in reversed(block):
                g = kind(v, g)
            return g

        pieces = [
            requantify(
                Or((Not(sp.guard_formula), sp.residual))
                if forall
                else And((sp.guard_formula, sp.residual))
            )
            for sp in splits
        ]
        reassembled = (
            And(tuple(pieces)) if forall else Or(tuple(pieces))
        ) if pieces else (TRUE if forall else FALSE)
        for full in candidate_structures(s):
            try:
                want = eval_formula(f, full, {})
            except IndexOutOfRange:
                break
            assert eval_formula(reassembled, full, {}) == want
            checked += 1
    assert checked > 200


def _substitute_guards(n, guards, signs, sigma0, block):
    """The two-pass residual's first pass: decide again at every node
    whether it is a guard, and look each one up by structure."""
    if _liftable(n, sigma0, block):
        flipped, core = _strip_negations(n)
        if core is TRUE or core is FALSE:
            value = core is TRUE
        else:
            value = signs[guards.index(core)]
        return TRUE if value != flipped else FALSE
    if isinstance(n, Not):
        return Not(_substitute_guards(n.child, guards, signs, sigma0, block))
    if isinstance(n, (And, Or)):
        return type(n)(
            tuple(_substitute_guards(c, guards, signs, sigma0, block) for c in n.children)
        )
    if isinstance(n, (ForAll, Exists)):
        return type(n)(n.var, _substitute_guards(n.body, guards, signs, sigma0, block))
    return n


def _simplify(f, s):
    """The two-pass residual's second pass: constant propagation."""
    if isinstance(f, Not):
        return _simp_not(_simplify(f.child, s))
    if isinstance(f, (And, Or)):
        return _simp_junction(isinstance(f, And), (_simplify(c, s) for c in f.children))
    if isinstance(f, (ForAll, Exists)):
        return _simp_quant(isinstance(f, ForAll), f.var, _simplify(f.body, s), s)
    return f


def test_one_pass_residuals_match_substitution_then_simplification():
    rng = np.random.default_rng(20261019)
    seen = Counter()
    for _ in range(300):
        s = random_structure(rng, max_size=3, n_preds=(1, 3), n_funcs=(0, 2), uninterpreted=2)
        types = _quantifiable_types(s)
        x, y = (Variable(n, types[int(rng.integers(len(types)))]) for n in "xy")
        b1, b2 = (
            random_formula(rng, s, [x, y], 3, uninterpreted_ok=True, fresh_names=("z",))
            for _ in range(2)
        )
        # b1's guards occur twice, in b1 and in a copy of it under two more
        # negations, next to a negated constant
        copy = substitute(b1, {x: x})
        body = Or((b1, And((Not(Not(copy)), b2, Not(TRUE)))))
        assert boolean_simplify(body, s) == _simplify(body, s)
        sigma0, block = s.interpreted_symbols, frozenset((x, y))
        guards, occurrences = _collect_guards(body, sigma0, block)
        if len(guards) > 6:
            continue
        for signs in itertools.product((True, False), repeat=len(guards)):
            want = _simplify(_substitute_guards(body, guards, signs, sigma0, block), s)
            assert _residual(body, occurrences, signs, s) == want
            seen["splits"] += 1
        found = [o for o in occurrences.values() if isinstance(o, tuple)]
        seen.update("negated" if flipped else "plain" for _, flipped in found)
        seen["constant"] += len(occurrences) - len(found)
        seen["repeated"] += len(found) > len(guards)
    assert seen["splits"] > 1000
    assert min(seen[k] for k in ("constant", "negated", "plain", "repeated")) > 20


QUEENS = """
vocabulary {{
  type N := Int[1..{n}].
  func queen(N) -> Int[1..{n}].
}}
theory {{
  !x, y in N: x ~= y => queen(x) ~= queen(y).
  !x, y in N: x ~= y => queen(x) + x ~= queen(y) + y.
  !x, y in N: x ~= y => queen(x) - x ~= queen(y) - y.
}}
structure {{
}}
"""


def test_queens_assertion_counts():
    gt3 = ground_problem(problem(QUEENS.format(n=3)), "vec")
    assert gt3.verdict == "open"
    assert len(gt3.assertions) == 18  # 3 sentences x 3*2 ordered pairs
    gt8 = ground_problem(problem(QUEENS.format(n=8)), "vec")
    assert len(gt8.assertions) == 168  # 3 x 8*7
    column = ground_sentence(
        problem(QUEENS.format(n=8)).sentences[0],
        problem(QUEENS.format(n=8)).structure,
        "vec",
    )
    assert isinstance(column.formula, And) and len(column.formula.children) == 56


def test_queens_3_has_no_model():
    prob = problem(QUEENS.format(n=3))
    gt = ground_problem(prob, "vec")
    voc = prob.voc
    n = 3
    satisfiable = False
    for values in itertools.product(range(1, n + 1), repeat=n):
        table = FunctionTable((n,), {(i,): v for i, v in enumerate(values)})
        full = Structure(
            voc, prob.structure.domains, prob.structure.relations, {"queen": table}
        )
        if theory_holds(prob.sentences, full):
            satisfiable = True
        assert ground_theory_holds(gt, full) == theory_holds(prob.sentences, full)
    assert not satisfiable


def test_strategies_agree_on_queens():
    prob = problem(QUEENS.format(n=4))
    vec = ground_problem(prob, "vec")
    naive = ground_problem(prob, "naive")
    assert sorted(map(print_formula, vec.assertions)) == sorted(
        map(print_formula, naive.assertions)
    )
    # full brute force: 4-queens has solutions, all strategies agree per candidate
    gts = [vec, naive, ground_problem(prob, "noreduce")]
    models = [0, 0, 0]
    for values in itertools.product(range(1, 5), repeat=4):
        table = FunctionTable((4,), {(i,): v for i, v in enumerate(values)})
        full = Structure(prob.voc, prob.structure.domains, {}, {"queen": table})
        want = theory_holds(prob.sentences, full)
        for k, gt in enumerate(gts):
            got = ground_theory_holds(gt, full)
            assert got == want
            models[k] += got
    assert models[0] == models[1] == models[2] == 2  # the two 4-queens solutions


CI = """
vocabulary {{
  type T := {elements}.
  pred p(T).
  pred q(T).
}}
theory {{
  ?x in T: p(x) & q(x).
}}
structure {{
  p := {p}.
  q := {q}.
}}
"""


def test_common_element_verdicts():
    elements = "{d1, d2, d3, d4}"
    sat = problem(CI.format(elements=elements, p="{d1, d2}", q="{d2, d3}"))
    unsat = problem(CI.format(elements=elements, p="{d1, d2}", q="{d3, d4}"))
    for strat in ("vec", "naive"):
        gt = ground_problem(sat, strat)
        assert gt.verdict == "sat-trivial" and gt.assertions == ()
        gt = ground_problem(unsat, strat)
        assert gt.verdict == "unsat-trivial" and gt.assertions == ()
    for prob in (sat, unsat):
        gt = ground_problem(prob, "noreduce")
        assert gt.verdict == "open" and len(gt.assertions) > 0


def test_cover_verdicts():
    src = """
vocabulary {{
  type T := {{d1, d2, d3}}.
  pred p(T).
  pred q(T).
}}
theory {{
  !x in T: p(x) | q(x).
}}
structure {{
  p := {p}.
  q := {q}.
}}
"""
    covered = problem(src.format(p="{d1, d2}", q="{d3}"))
    uncovered = problem(src.format(p="{d1}", q="{d3}"))
    for strat in ("vec", "naive"):
        assert ground_problem(covered, strat).verdict == "sat-trivial"
        assert ground_problem(uncovered, strat).verdict == "unsat-trivial"
    assert ground_problem(covered, "noreduce").verdict == "open"


def test_triangle_detection_matches_search():
    rng = np.random.default_rng(3)
    for n in (4, 7, 10):
        for _ in range(8):
            edges = set()
            while len(edges) < n // 3 * 2:
                a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
                if a != b:
                    edges.add((a, b))
            voc = Vocabulary()
            voc.types["V"] = EnumType("V")
            voc.predicates["edge"] = ("V", "V")
            s = Structure(
                voc,
                {"V": tuple(f"v{i}" for i in range(n))},
                {"edge": frozenset(edges)},
                {},
            )
            x, y, z = (Variable(v, "V") for v in "xyz")
            sentence = Exists(
                x,
                Exists(
                    y,
                    Exists(
                        z,
                        And(
                            (
                                Atom("edge", (x, y)),
                                Atom("edge", (y, z)),
                                Atom("edge", (z, x)),
                            )
                        ),
                    ),
                ),
            )
            prob = Problem(voc, (sentence,), s)
            has_triangle = any(
                (a, b) in edges and (b, c) in edges and (c, a) in edges
                for a in range(n)
                for b in range(n)
                for c in range(n)
            )
            for strat in ("vec", "naive"):
                gt = ground_problem(prob, strat)
                want = "sat-trivial" if has_triangle else "unsat-trivial"
                assert gt.verdict == want


def test_guard_cap_falls_back_to_naive():
    preds = "\n".join(f"  pred p{i}(T)." for i in range(9))
    rels = "\n".join(f"  p{i} := {{a}}." for i in range(9))
    body = " | ".join(f"p{i}(x)" for i in range(9))
    src = f"""
vocabulary {{
  type T := {{a, b}}.
{preds}
  pred u(T).
}}
theory {{
  !x in T: {body} | u(x).
}}
structure {{
{rels}
}}
"""
    prob = problem(src)
    with pytest.raises(GuardCapExceeded):
        guard_split(prob.sentences[0], prob.structure, cap=8)
    gt = ground_problem(prob, "vec")
    assert gt.stats.rows[0].strategy == "naive(fallback)"
    # only b lies outside every p_i, so a single instantiation remains
    assert [print_formula(a) for a in gt.assertions] == ["u(b)"]
    assert ground_problem(prob, "vec", cap=9).stats.rows[0].strategy == "vec"


def test_nested_alternating_quantifiers():
    src = """
vocabulary {
  type T := {a, b, c}.
  pred r(T, T).
  pred u(T, T).
}
theory {
  !x in T: ?y in T: r(x, y) & u(x, y).
}
structure {
  r := {(a, b), (a, c), (b, a), (c, c)}.
}
"""
    prob = problem(src)
    vec = ground_problem(prob, "vec")
    naive = ground_problem(prob, "naive")
    assert vec.verdict == "open"
    got = [print_formula(a) for a in vec.assertions]
    # per x, a disjunction over the r-related y only
    assert got == ["u(a, b) | u(a, c)", "u(b, a)", "u(c, c)"]
    assert sorted(map(print_formula, naive.assertions)) == sorted(got)


def test_interpreted_function_folding_in_residual():
    src = """
vocabulary {
  type T := {a, b}.
  func f(T) -> Int[0..9].
  pred u(T).
}
theory {
  !x in T: f(x) > 5 | u(x).
}
structure {
  f := {a -> 7, b -> 3}.
}
"""
    gt = ground_problem(problem(src), "vec")
    assert [print_formula(a) for a in gt.assertions] == ["u(b)"]


def test_interpreted_atom_over_uninterpreted_term_unfolds():
    src = """
vocabulary {
  type T := {a, b, c}.
  pred nice(T).
  func pick() -> T.
}
theory {
  nice(pick()).
}
structure {
  nice := {a, c}.
}
"""
    gt = ground_problem(problem(src), "vec")
    assert [print_formula(a) for a in gt.assertions] == ["pick() = a | pick() = c"]


def test_unsupported_nesting_rejected():
    src = """
vocabulary {
  type T := {a, b}.
  func u(T) -> T.
  pred w(T).
}
theory {
  !x in T: w(u(u(x))).
}
structure {
}
"""
    prob = problem(src)
    with pytest.raises(UnsupportedFormula):
        ground_problem(prob, "vec")
    # the non-reducing strategy ships nested applications symbolically
    gt = ground_problem(prob, "noreduce")
    assert gt.verdict == "open"
    assert len(gt.assertions) == 2


def test_empty_theory_and_empty_domains():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    s = Structure(voc, {"T": ("a",)}, {}, {})
    gt = ground_problem(Problem(voc, (), s), "vec")
    assert gt.verdict == "sat-trivial" and gt.assertions == ()
    voc2 = Vocabulary()
    voc2.types["E"] = EnumType("E")
    voc2.predicates["u"] = ("E",)
    s2 = Structure(voc2, {"E": ()}, {}, {})
    e = Variable("e", "E")
    for strat in STRATEGIES:
        gt = ground_problem(Problem(voc2, (Exists(e, Atom("u", (e,))),), s2), strat)
        assert gt.verdict == "unsat-trivial"
        gt = ground_problem(Problem(voc2, (ForAll(e, Atom("u", (e,))),), s2), strat)
        assert gt.verdict == "sat-trivial"


def test_noreduce_emits_tables_as_facts():
    src = """
vocabulary {
  type T := {a, b}.
  pred p(T).
  func f(T) -> Int[0..5].
  pred u(T).
}
theory {
  !x in T: p(x) | u(x).
  !x in T: f(x) < 5.
}
structure {
  p := {a}.
  f := {a -> 1, b -> 2}.
}
"""
    gt = ground_problem(problem(src), "noreduce")
    text = [print_formula(a) for a in gt.assertions]
    assert "p(a)" in text and "~p(b)" in text
    assert "f(a) = 1" in text and "f(b) = 2" in text
    assert "p(a) | u(a)" in text and "p(b) | u(b)" in text
    assert "f(a) < 5" in text and "f(b) < 5" in text
    facts = [t for t in text if t in ("p(a)", "~p(b)", "f(a) = 1", "f(b) = 2")]
    assert len(facts) == 4


def test_stats_csv_shape():
    gt = ground_problem(problem(QUEENS.format(n=3)), "vec")
    csv = gt.stats.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == (
        "sentence-id,strategy,guards,splits-kept,tensor-bits,instantiations,micros"
    )
    assert len(lines) == 4
    row = lines[1].split(",")
    assert row[0] == "0" and row[1] == "vec" and row[2] == "1" and row[3] == "1"
    assert int(row[5]) == 6
    assert gt.stats.peak_bits >= 9
    assert gt.stats.total_instantiations == 18


TWO_BLOCKS = """
vocabulary {
  type T := {a, b, c}.
  pred p(T).
  pred q(T).
  pred u(T).
}
theory {
  (!x in T: p(x) => u(x)) & (!y in T: q(y) => ~u(y)).
}
structure {
  p := {a}.
  q := {b, c}.
}
"""

NESTED_BLOCKS = """
vocabulary {
  type T := {a, b, c}.
  pred p(T).
  pred r(T, T).
  pred u(T, T).
}
theory {
  !x in T: p(x) => (!y in T: r(x, y) => u(x, y)).
}
structure {
  p := {a, b}.
  r := {(a, b), (b, a), (b, c)}.
}
"""


@pytest.mark.parametrize(
    "src, strategy, row",
    [
        # each block has one guard and one kept split; both count
        (TWO_BLOCKS, "vec", "0,vec,2,2,3,3"),
        (TWO_BLOCKS, "naive", "0,naive,2,2,0,3"),
        # the inner block's guard and split are not the sentence's own,
        # its instantiations are
        (NESTED_BLOCKS, "vec", "0,vec,1,1,3,5"),
        (NESTED_BLOCKS, "naive", "0,naive,1,1,0,5"),
    ],
    ids=["two-vec", "two-naive", "nested-vec", "nested-naive"],
)
def test_stats_count_the_outermost_blocks(src, strategy, row):
    gt = ground_problem(problem(src), strategy)
    line = gt.stats.to_csv().strip().split("\n")[1]
    assert line.rsplit(",", 1)[0] == row


def test_mx_preservation_randomized():
    rng = np.random.default_rng(20260815)
    done = 0
    attempts = 0
    while done < 120 and attempts < 600:
        attempts += 1
        s, sentences = random_mx_problem(rng)
        prob = Problem(s.voc, sentences, s)
        try:
            truth = [
                theory_holds(sentences, full) for full in candidate_structures(s)
            ]
        except IndexOutOfRange:
            continue
        try:
            gts = [ground_problem(prob, strat) for strat in STRATEGIES]
        except UnsupportedFormula:
            continue
        for gt in gts:
            got = [
                ground_theory_holds(gt, full) for full in candidate_structures(s)
            ]
            assert got == truth, f"{[print_formula(f) for f in sentences]}"
        done += 1
    assert done >= 120


def test_inner_block_past_cap_falls_back_alone():
    # an outer forall block with one guard over an inner exists block with
    # nine, each inner guard with its own uninterpreted conjunct
    preds = "\n".join(f"  pred p{i}(T)." for i in range(9))
    rels = "\n".join(f"  p{i} := {{{'abc'[i % 3]}}}." for i in range(9))
    inner = " | ".join(f"(p{i}(y) & u(x, y))" for i in range(9))
    prob = problem(
        f"""
vocabulary {{
  type T := {{a, b, c}}.
{preds}
  pred q(T).
  pred u(T, T).
}}
theory {{
  !x in T: q(x) => ?y in T: {inner}.
}}
structure {{
{rels}
  q := {{a, c}}.
}}
"""
    )
    vec = ground_problem(prob, "vec")
    naive = ground_problem(prob, "naive")
    (row,) = vec.stats.rows
    assert row.strategy == "naive(fallback)"
    # the outer block stayed vectorized: its guard was evaluated on tensors
    assert row.guards == 1 and row.tensor_bits == 3
    assert vec.verdict == naive.verdict == "open"
    checked = 0
    for full in candidate_structures(prob.structure):
        want = theory_holds(prob.sentences, full)
        assert ground_theory_holds(vec, full) == ground_theory_holds(naive, full) == want
        checked += 1
    assert checked == 2**9


def test_one_evaluator_per_problem(monkeypatch):
    created, computed = [], []
    init, evaluate = SatSetEvaluator.__init__, SatSetEvaluator._eval

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    def recording_eval(self, f):
        computed.append(f)
        return evaluate(self, f)

    monkeypatch.setattr(SatSetEvaluator, "__init__", counting_init)
    monkeypatch.setattr(SatSetEvaluator, "_eval", recording_eval)
    prob = problem(QUEENS.format(n=8))
    gt = ground_problem(prob, "vec")
    assert len(created) == 1
    x, y = (Variable(v, "N") for v in "xy")
    assert computed.count(Compare("~=", x, y)) == 1
    assert [r.tensor_bits for r in gt.stats.rows] == [64, 64, 64]
    assert [r.strategy for r in gt.stats.rows] == ["vec"] * 3


def test_refuting_tuple_stops_the_block(monkeypatch):
    src = """
vocabulary {
  type T := {a, b, c}.
  pred p(T).
  pred q(T).
  pred r(T, T).
  pred u(T).
  pred w(T).
}
theory {
  !x in T: (p(x) => !y in T: ~r(x, y) & w(y)) & (q(x) | u(x)).
}
structure {
  p := {a, b}.
  q := {a, b}.
  r := {(a, b), (b, c)}.
}
"""
    prob = problem(src)
    splits = guard_split(prob.sentences[0], prob.structure)
    assert [sp.sign_vector for sp in splits] == [
        (True, True),
        (True, False),
        (False, False),
    ]
    seen = []
    eval_over = SatSetEvaluator.eval_over

    def recording_eval_over(self, f, vars, rows=None):
        seen.append(f)
        return eval_over(self, f, vars, rows)

    monkeypatch.setattr(SatSetEvaluator, "eval_over", recording_eval_over)
    gt = ground_problem(prob, "vec")
    assert gt.verdict == "unsat-trivial"
    # the first split's first tuple, x = a, grounds to FALSE, since r(a, b)
    # refutes its inner block; the second tuple of that split (x = b) and
    # the later splits are never reached
    assert gt.stats.rows[0].instantiations == 1
    assert splits[0].guard_formula in seen
    assert not any(sp.guard_formula in seen for sp in splits[1:])


def test_shared_evaluator_keeps_per_sentence_peaks():
    # both sentences lift the guard ?z: r(x, z), whose r(x, z) tensor (16
    # bits) is larger than the guard's own (4 bits); the second sentence
    # finds the guard in the memo and must still report 16
    src = """
vocabulary {
  type T := {a, b, c, d}.
  pred r(T, T).
  pred u(T).
  pred w(T).
}
theory {
  !x in T: (?z in T: r(x, z)) | u(x).
  !x in T: (?z in T: r(x, z)) | w(x).
}
structure {
  r := {(a, b), (c, c)}.
}
"""
    prob = problem(src)
    gt = ground_problem(prob, "vec")
    alone = [
        ground_sentence(f, prob.structure, "vec").tensor_bits for f in prob.sentences
    ]
    assert [r.tensor_bits for r in gt.stats.rows] == alone == [16, 16]


# ---------------------------------------------------------------------------
# The column instantiator against substitute + fold

INSTANCE_ERRORS = (UnsupportedFormula, IndexOutOfRange, ArithmeticOverflow)


def _tree_size(n) -> int:
    """The formula and term nodes of n, counted as a tree."""
    if isinstance(n, (Atom, FunctionApp)):
        kids = n.args
    elif isinstance(n, (Arith, Compare)):
        kids = (n.left, n.right)
    elif isinstance(n, Not):
        kids = (n.child,)
    elif isinstance(n, (And, Or)):
        kids = n.children
    elif isinstance(n, (ForAll, Exists)):
        kids = (n.body,)
    else:
        return 1
    return 1 + sum(map(_tree_size, kids))


def _holds_block(f) -> bool:
    """Whether a formula holds a quantifier block."""
    if isinstance(f, (ForAll, Exists)):
        return True
    if isinstance(f, Not):
        return _holds_block(f.child)
    if isinstance(f, (And, Or)):
        return any(_holds_block(c) for c in f.children)
    return False


def _reference_columns(g, residual, vars, segments=False):
    """The per-tuple path the column instantiator replaces: substitute and
    fold row by row, raising the first failing row's error; its parts are
    taken as ones that may fold, unless they hold a block, and never as a
    segment; and the residual's tree size."""

    def form(cols):
        rows = cols.tolist() if isinstance(cols, np.ndarray) else cols
        return [
            g.fold(substitute(residual, {v: g._const(v.type, i) for v, i in zip(vars, idx)}))
            for idx in zip(*rows)
        ]

    how = _Parts.NESTED if _holds_block(residual) else _Parts.FOLDED
    return form, how, _tree_size(residual)


def _array_chunk(tuples):
    """Index tuples as one chunk the way vec draws them: an int64 array
    with a row per block variable and a column per tuple."""
    return np.array(tuples, dtype=np.int64).T


def _outcome(form, cols):
    try:
        return form(cols)
    except INSTANCE_ERRORS as e:
        return type(e)


def _grounding(prob, strategy, cap):
    """Verdict, assertions and --stats rows but micros, or the error class."""
    try:
        gt = ground_problem(prob, strategy, cap=cap)
    except INSTANCE_ERRORS as e:
        return type(e)
    rows = [
        (r.sentence_id, r.strategy, r.guards, r.splits_kept, r.tensor_bits, r.instantiations)
        for r in gt.stats.rows
    ]
    return gt.verdict, gt.assertions, rows


@pytest.mark.parametrize(
    "strategy, cap", [("vec", 8), ("vec", 1), ("vec", 0), ("naive", 8)]
)
def test_compiled_instantiation_matches_substitute_and_fold(monkeypatch, strategy, cap):
    columns = _SentenceGrounder._columns
    expand = _SentenceGrounder._expand_interpreted_atom
    seen = Counter()
    lengths = np.random.default_rng(1)

    def checking_columns(g, residual, vars, segments=False):
        # every tuple of the block as a one-row chunk of a fresh instantiator
        form = columns(g, residual, vars)[0]
        reference = _reference_columns(g, residual, vars)[0]
        sizes = [g.s.domain_size(v.type) for v in vars]
        tuples = list(itertools.product(*(range(n) for n in sizes)))
        for idx in tuples:
            one = [[i] for i in idx]
            got = _outcome(form, one)
            assert got == _outcome(reference, one), print_formula(residual)
            seen[got.__name__ if isinstance(got, type) else "formula"] += 1
        # the tuples again, in array chunks of random lengths, through
        # another fresh instantiator whose tables carry over between chunks:
        # a chunk equals its rows, or raises if one of them does
        form = columns(g, residual, vars)[0]
        at = 0
        while at < len(tuples):
            n = int(lengths.integers(2, 40))
            cols = _array_chunk(tuples[at : at + n])
            got, want = _outcome(form, cols), _outcome(reference, cols)
            if isinstance(want, type):
                assert got in INSTANCE_ERRORS, print_formula(residual)
            else:
                assert got == want, print_formula(residual)
                seen["chunk"] += 1
            at += n
        return columns(g, residual, vars, segments)

    def counting_expand(g, f):
        seen["expanded"] += 1
        return expand(g, f)

    def compare(prob):
        monkeypatch.setattr(_SentenceGrounder, "_columns", checking_columns)
        got = _grounding(prob, strategy, cap)
        monkeypatch.setattr(_SentenceGrounder, "_columns", _reference_columns)
        assert got == _grounding(prob, strategy, cap), print_formula(prob.sentences[0])

    monkeypatch.setattr(_SentenceGrounder, "_expand_interpreted_atom", counting_expand)
    rng = np.random.default_rng(20261018)
    for _ in range(400):
        s = random_structure(rng, max_size=4, n_preds=(1, 2), n_funcs=(1, 3), uninterpreted=2)
        types = _quantifiable_types(s)
        x, y = (Variable(n, types[int(rng.integers(len(types)))]) for n in "xy")
        body = random_formula(
            rng, s, [x, y], 3, uninterpreted_ok=True, fresh_names=("z",), term_depth=2
        )
        kind = ForAll if rng.random() < 0.5 else Exists
        sentence = kind(x, kind(y, body))
        # with the first function table dropped, its terms are uninterpreted:
        # interpreted atoms over them expand
        opened = Structure(s.voc, s.domains, s.relations, dict(list(s.functions.items())[1:]))
        for structure in (s, opened):
            compare(Problem(s.voc, (sentence,), structure))
    # the shapes of the colouring and queens workloads, over 70 values
    compare(_colour_like(70, 3))
    compare(problem(QUEENS.format(n=70)))
    # three block variables, a per-value node over x and z, and an Int
    # type whose indices are not its values
    compare(_three_variables())
    assert seen["formula"] > 1000 and seen["chunk"] > 100
    # UnsupportedFormula is raised by the sentence's own fold, before any
    # block is ground, so only IndexOutOfRange reaches an instantiator
    assert seen["IndexOutOfRange"] and seen["expanded"]


# Edge cases of chunked instantiation.  With _CHUNK_BITS at 64 a chunk holds
# the ones of one 64-bit word, so a block over 100 values spans two chunks.

OUT_OF_RANGE = """
vocabulary {{
  type N := Int[1..100].
  pred ok(N, N).
  func f(N) -> N.
  func pick(N) -> N.
  pred u(N).
  pred v(N).
}}
theory {{
  {sentence}
}}
structure {{
  ok := {{{ok}}}.
  f := {{{f}}}.
}}
"""


def _out_of_range(sentence, without):
    """f(x + 1) is out of range at x = 100; ok(x, pick(x)) folds to FALSE
    exactly at the x in without, which have no ok tuple."""
    ok = ", ".join(f"({x}, 1)" for x in range(1, 101) if x not in without)
    f = ", ".join(f"{x} -> {x}" for x in range(1, 101))
    return problem(OUT_OF_RANGE.format(sentence=sentence, ok=ok, f=f))


@pytest.mark.parametrize("strategy", ["vec", "naive"])
def test_a_deciding_row_hides_a_later_rows_error(monkeypatch, strategy):
    # x = 70 decides the block, in the second chunk; x = 100, in that chunk
    # too, would raise IndexOutOfRange, which only the one-row
    # re-instantiation of the chunk keeps from surfacing
    monkeypatch.setattr(sli.bittensor, "_CHUNK_BITS", 64)
    prob = _out_of_range("!x in N: ok(x, pick(x)) & u(f(x + 1)).", {70})
    gt = ground_problem(prob, strategy)
    assert gt.verdict == "unsat-trivial"
    assert gt.stats.rows[0].instantiations == 70
    # without the deciding row, the error is the one the first failing
    # row raises
    with pytest.raises(IndexOutOfRange):
        ground_problem(_out_of_range("!x in N: ok(x, pick(x)) & u(f(x + 1)).", set()), strategy)


@pytest.mark.parametrize("strategy", ["vec", "naive"])
def test_a_junction_skips_the_rows_it_decided(monkeypatch, strategy):
    # the conjunct u(f(x + 1)) would raise at x = 100 alone, where
    # ok(100, pick(100)) is FALSE and decides the conjunction first
    monkeypatch.setattr(sli.bittensor, "_CHUNK_BITS", 64)
    prob = _out_of_range("!x in N: v(x) | ok(x, pick(x)) & u(f(x + 1)).", {100})
    gt = ground_problem(prob, strategy)
    assert gt.verdict == "open" and gt.stats.rows[0].instantiations == 100
    assert print_formula(gt.assertions[-1]) == "v(100)"
    assert print_formula(gt.assertions[0]) == "v(1) | pick(1) = 1 & u(2)"
    # the whole block as one chunk builds without raising
    g = _SentenceGrounder(prob.structure, strategy)
    forall = prob.sentences[0]
    residual, vars = g.fold(forall.body), [forall.var]
    cols = _array_chunk([(i,) for i in range(100)])
    got = g._columns(residual, vars)[0](cols)
    assert got == _reference_columns(g, residual, vars)[0](cols)


THREE_VARIABLES = """
vocabulary {{
  type T := {{{t}}}.
  type N := Int[-5..4].
  pred r(T, N, T).
  pred w(T, T).
  pred u(N).
  func f(T, T) -> N.
  func g(T) -> N.
}}
theory {{
  !x in T: !y in N: !z in T: r(x, y, z) => w(x, z) | u(f(x, z)) | g(x) + y > 0.
}}
structure {{
  r := {{{r}}}.
  f := {{{f}}}.
}}
"""


def _three_variables():
    """A block over x, y and z whose w(x, z) and u(f(x, z)) mention the
    non-adjacent x and z; y ranges over Int[-5..4], whose indices 0..9 are
    not its values.  r holds 240 of the 360 tuples."""
    t = [f"t{i}" for i in range(6)]
    r = ", ".join(
        f"(t{x}, {y}, t{z})"
        for x in range(6)
        for y in range(-5, 5)
        for z in range(6)
        if (x + 2 * y + z) % 3
    )
    f = ", ".join(f"(t{x}, t{z}) -> {(3 * x + z) % 10 - 5}" for x in range(6) for z in range(6))
    return problem(THREE_VARIABLES.format(t=", ".join(t), r=r, f=f))


def test_three_variables_gather_by_non_adjacent_keys(monkeypatch):
    # with _CHUNK_BITS at 64 the 240 rows span several array chunks; the
    # per-value nodes over x and z key each row by x * 6 + z
    monkeypatch.setattr(sli.bittensor, "_CHUNK_BITS", 64)
    prob = _three_variables()
    columns, forms = _SentenceGrounder._columns, []

    def recording_columns(g, residual, vars, segments=False):
        forms.append(columns(g, residual, vars, segments))
        return forms[-1]

    monkeypatch.setattr(_SentenceGrounder, "_columns", recording_columns)
    chunks = _chunks(monkeypatch)
    vec = _grounding(prob, "vec", 8)
    assert len(chunks) > 2 and all(isinstance(c, np.ndarray) for c in chunks)
    assert sum(c.shape[1] for c in chunks) == vec[2][0][5] == 240
    # w(x, z) and u(f(x, z)) are folded once per (x, z) pair the rows
    # hold, g(x) + y > 0 once per (x, y); below them x, z, g(x) and y once
    # per value, and the constant 0 once
    assert _table_sizes(forms[0][0]) == [1, 6, 6, 6, 6, 6, 10, 36, 36, 60]
    # y's index 0 is its value -5, and f(t0, t0) is -5
    assert print_formula(vec[1][0]) == "w(t0, t0) | u(-5) | g(t0) + -5 > 0"
    monkeypatch.setattr(_SentenceGrounder, "_columns", _reference_columns)
    assert vec == _grounding(prob, "vec", 8)
    assert vec[:2] == _grounding(prob, "naive", 8)[:2]


def test_a_failing_array_chunk_is_retried_row_by_row(monkeypatch):
    # under vec the rows 65..100 are one array chunk, which raises at
    # x = 100; it is instantiated again as one-row chunks, the first five
    # drawn and the sixth, x = 70, deciding the block
    monkeypatch.setattr(sli.bittensor, "_CHUNK_BITS", 64)
    prob = _out_of_range("!x in N: ok(x, pick(x)) & u(f(x + 1)).", {70})
    chunks = _chunks(monkeypatch)
    gt = ground_problem(prob, "vec")
    assert gt.verdict == "unsat-trivial" and gt.stats.rows[0].instantiations == 70
    first, second, *rows = chunks
    assert isinstance(first, np.ndarray) and first.tolist() == [list(range(64))]
    assert isinstance(second, np.ndarray) and second.tolist() == [list(range(64, 100))]
    assert rows == [[[i]] for i in range(64, 70)]


def _chunks(monkeypatch) -> list:
    """Every chunk that _instances instantiates, recorded."""
    chunks, instances = [], _SentenceGrounder._instances

    def recording(g, form, cols, how):
        chunks.append(cols)
        return instances(g, form, cols, how)

    monkeypatch.setattr(_SentenceGrounder, "_instances", recording)
    return chunks


def test_a_deciding_row_midway_through_a_chunk_ends_the_count(monkeypatch):
    # ok(50, pick(50)) folds to FALSE, in the middle of vec's one chunk of
    # all 100 rows: counting ends with it, as under naive, which draws
    # nothing after it
    prob = _out_of_range("!x in N: ok(x, pick(x)).", {50})
    chunks = _chunks(monkeypatch)
    vec = ground_problem(prob, "vec")
    assert [len(c[0]) for c in chunks] == [100]
    naive = ground_problem(prob, "naive")
    assert len(chunks) == 1 + 50
    for gt in (vec, naive):
        assert gt.verdict == "unsat-trivial"
        assert gt.stats.rows[0].instantiations == 50


def test_unit_parts_are_counted_as_drawn_but_not_kept(monkeypatch):
    # ~ok(x, pick(x)) folds to TRUE, the unit of the forall block, at x in
    # 10, 20, 30, in vec's one chunk: those parts count as instantiations,
    # as under naive, and are dropped from the conjunction
    prob = _out_of_range("!x in N: ~ok(x, pick(x)).", {10, 20, 30})
    chunks = _chunks(monkeypatch)
    vec, naive = ground_problem(prob, "vec"), ground_problem(prob, "naive")
    assert len(chunks[0][0]) == 100
    for gt in (vec, naive):
        assert gt.stats.rows[0].instantiations == 100
        assert len(gt.assertions) == 97 and TRUE not in gt.assertions
    assert vec.assertions == naive.assertions


def test_draw_counts_instantiated_parts_up_to_the_deciding_one(monkeypatch):
    g = _SentenceGrounder(_out_of_range("!x in N: u(x).", set()).structure, "vec")
    a, b, c = (Atom("u", (IntConstant(i),)) for i in (1, 2, 3))
    # a constant that no instantiator made (nested None) is not counted; a
    # unit part is counted but not kept
    folded, constant = _Parts.FOLDED, _Parts.CONSTANT
    g.row = SentenceStats(0, "vec")
    assert g._draw(True, iter([([a, TRUE, b], folded), ([TRUE], constant), ([c], folded)])) == And(
        (a, b, c)
    )
    assert g.row.instantiations == 4
    # the count ends with the first deciding part, and no later chunk is drawn
    g.row = SentenceStats(0, "vec")
    later = iter([([c], folded)])
    chunks = itertools.chain([([a, TRUE], folded), ([b, FALSE, c, FALSE], folded)], later)
    assert g._draw(True, chunks) is FALSE
    assert g.row.instantiations == 2 + 2
    assert next(later) == ([c], folded)
    # a disjunction decides on TRUE, and a constant chunk decides uncounted
    g.row = SentenceStats(0, "vec")
    assert g._draw(False, iter([([a, FALSE], folded), ([TRUE], constant), ([b], folded)])) is TRUE
    assert g.row.instantiations == 2
    # a chunk of parts that never fold is counted whole after one deadline
    # check, and kept as it is
    checks = []
    monkeypatch.setattr(sli.grounder, "check_deadline", lambda: checks.append(g.row.instantiations))
    g.row = SentenceStats(0, "vec")
    assert g._draw(True, iter([([a, b, c], _Parts.WHOLE), ([b], folded)])) == And((a, b, c, b))
    assert g.row.instantiations == 4 and checks == [0, 3]


def test_a_comparison_that_can_fold_decides_and_drops_units():
    # guards lift every comparison of block variables, constants and
    # interpreted functions out of a block, so no grounding leaves one that
    # folds in a residual: this residual is compiled by hand.  f(x) = y
    # folds at every row, to the unit TRUE of a forall block where x = y
    # (f is the identity) and to FALSE elsewhere
    prob = _out_of_range("!x in N: u(x).", set())
    g = _SentenceGrounder(prob.structure, "vec")
    x, y = Variable("x", "N"), Variable("y", "N")
    equal = Compare("=", FunctionApp("f", (x,)), y)
    rows = _array_chunk([(i, j) for i in range(10) for j in (i, (i + 1) % 10)])
    # equal | u(x): a unit part where x = y, dropped but counted
    form, how, _ = g._columns(Or((equal, Atom("u", (x,)))), [x, y])
    assert how is _Parts.FOLDED
    g.row = SentenceStats(0, "vec")
    got = g._draw(True, g._instances(form, rows, how))
    assert got == And(tuple(Atom("u", (IntConstant(i + 1),)) for i in range(10)))
    assert g.row.instantiations == 20
    # equal alone: the second row, x = 1 and y = 2, decides the block
    form, how, _ = g._columns(equal, [x, y])
    assert how is _Parts.FOLDED
    g.row = SentenceStats(0, "vec")
    assert g._draw(True, g._instances(form, rows, how)) is FALSE
    assert g.row.instantiations == 2
    # the same comparison over an uninterpreted pick(x) never folds
    assert g._columns(Compare("=", FunctionApp("pick", (x,)), y), [x, y])[1] is _Parts.WHOLE


def _numpy_reads(monkeypatch) -> set[str]:
    """The names the grounder reads from numpy from now on, recorded."""
    names: set[str] = set()

    class Recording:
        def __getattr__(self, name):
            names.add(name)
            return getattr(np, name)

    monkeypatch.setattr(sli.grounder, "np", Recording())
    return names


@pytest.mark.parametrize("make", [lambda: _colour_like(30, 4), lambda: _queens(8)])
def test_naive_instantiates_without_numpy(monkeypatch, make):
    # naive draws one-row chunks, which are gathered with no numpy call
    used = _numpy_reads(monkeypatch)
    naive = ground_problem(make(), "naive")
    assert naive.stats.total_instantiations > 0 and used == set()
    want = sorted(map(str, naive.assertions))
    # vec gathers its array chunks with numpy: a chunk of every kept tuple
    # through the dense table, as its keys span at most 4x its rows ...
    vec = ground_problem(make(), "vec")
    assert "flatnonzero" in used and "unique" not in used
    assert sorted(map(str, vec.assertions)) == want
    # ... and one-row array chunks through np.unique
    used.clear()
    monkeypatch.setattr(sli.grounder, "_CHUNK_NODES", 1)
    vec = ground_problem(make(), "vec")
    assert "unique" in used and "flatnonzero" not in used
    assert sorted(map(str, vec.assertions)) == want


@pytest.mark.parametrize("ordered", [False, True], ids=["unsorted", "sorted"])
def test_per_value_gathers_each_row_by_its_key(monkeypatch, ordered):
    """A node over variables 0 and 2 of three, whose keys span 7 x 9 = 63:
    chunks of up to 15 rows are gathered through np.unique, chunks of 16
    rows or more through the dense table.  On random chunks on both sides
    of that switch, drawn in order or not, each row gets the value built
    for its key, and each key is built once, from a row holding it."""
    used = _numpy_reads(monkeypatch)
    rng = np.random.default_rng(3)
    radix = {0: 7, 1: 5, 2: 9}
    built = []

    def build(cols):
        rows = list(zip(cols[0].tolist(), cols[2].tolist()))
        built.extend(rows)
        return rows

    gather = _per_value(frozenset((0, 2)), build, radix)
    seen = set()
    for rows in [1, 2, 8, 15, 16, 17, 40, 200, 15, 16]:
        cols = np.stack([rng.integers(0, radix[p], rows) for p in range(3)])
        if ordered:
            cols = cols[:, np.lexsort(cols[::-1])]
        want = list(zip(cols[0].tolist(), cols[2].tolist()))
        assert gather(cols) == want
        seen.update(want)
        assert sorted(built) == sorted(seen)
    assert {"unique", "flatnonzero"} <= used


@pytest.mark.parametrize("x_values", [10, 100], ids=["dense", "unique"])
def test_a_failing_gather_raises_the_first_rows_error(x_values):
    """A per-value node that raises at x = 3 and x = 8: its array chunk,
    built in key order, fails at x = 3 first; _instances then retries the
    chunk one row at a time, draws the row before the failing one, and
    raises the error of the first failing row, x = 8."""

    def build(cols):
        xs = _ints(cols[0])
        bad = [x for x in xs if x in (3, 8)]
        if bad:
            raise IndexOutOfRange(f"x = {bad[0]}")
        return xs

    gather = _per_value(frozenset((0,)), build, {0: x_values, 1: 5})
    cols = np.array([[5, 8, 1, 3, 8], [0, 1, 2, 3, 4]])
    with pytest.raises(IndexOutOfRange, match="x = 3"):
        gather(cols)
    g = _SentenceGrounder(_colour_like(3, 1).structure, "naive")
    drawn = []
    with pytest.raises(IndexOutOfRange, match="x = 8"):
        for parts, how in g._instances(gather, cols, _Parts.FOLDED):
            drawn.append(parts)
    assert drawn == [[5]]


def test_per_value_tables_hold_only_the_values_seen(monkeypatch):
    # w(x, y) mentions two of the block's three variables: it is folded
    # once per (x, y) pair of the satisfying set, over several chunks, and
    # its table never grows to the 30 x 30 pairs of the extents
    monkeypatch.setattr(sli.bittensor, "_CHUNK_BITS", 64)
    pairs = [(i, (7 * i) % 30) for i in range(0, 30, 3)]
    triples = [(x, y, z) for x, y in pairs for z in range(30)]
    vertices = ", ".join(f"e{i}" for i in range(30))
    r = ", ".join(f"(e{x}, e{y}, e{z})" for x, y, z in triples)
    prob = problem(
        f"""
vocabulary {{
  type T := {{{vertices}}}.
  pred r(T, T, T).
  pred w(T, T).
  pred u(T).
}}
theory {{
  !x, y, z in T: r(x, y, z) => w(x, y) | u(z).
}}
structure {{
  r := {{{r}}}.
}}
"""
    )
    folded = Counter()
    fold_atom = _SentenceGrounder._fold_atom

    def counting_fold_atom(g, pred, args):
        if not any(isinstance(a, Variable) for a in args):  # an instantiation's
            folded[pred] += 1
        return fold_atom(g, pred, args)

    columns, forms = _SentenceGrounder._columns, []

    def recording_columns(g, residual, vars, segments=False):
        forms.append(columns(g, residual, vars, segments))
        return forms[-1]

    monkeypatch.setattr(_SentenceGrounder, "_fold_atom", counting_fold_atom)
    monkeypatch.setattr(_SentenceGrounder, "_columns", recording_columns)
    gt = ground_problem(prob, "vec")
    assert gt.stats.rows[0].instantiations == len(triples) == 300
    assert folded["w"] == len(pairs) == 10
    assert folded["u"] == 30  # u(z) is folded once per z too
    assert len({a.children[0] for a in gt.assertions}) == 10
    # the tables of w(x, y), x, y and u(z)
    assert _table_sizes(forms[0][0]) == [10, 10, 10, 30]


def _table_sizes(form):
    """The sizes of the per-value tables (_Values) a column instantiator
    reaches through its closures and its comparison and arithmetic nodes'
    sides (_Binary)."""

    def compiled(v):
        return hasattr(v, "__code__") or isinstance(v, (_Values, _Binary))

    sizes, todo = [], [form]
    while todo:
        f = todo.pop()
        if isinstance(f, _Values):
            sizes.append(len(f.place))
            todo.append(f.build)
            continue
        if isinstance(f, _Binary):
            todo += [f.left, f.right]
            continue
        for cell in f.__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, list):
                todo.extend(c for c in v if compiled(c))
            elif compiled(v):
                todo.append(v)
    return sorted(sizes)


NESTED_RESIDUAL = """
vocabulary {
  type T := {a, b, c}.
  pred p(T).
  pred q(T).
  pred u(T, T).
}
theory {
  !x in T: p(x) => ?y in T: q(y) & u(x, y).
}
structure {
  p := {a, b}.
  q := {b, c}.
}
"""


@pytest.mark.parametrize("strategy", ["vec", "naive"])
def test_nested_quantifier_in_a_residual(strategy):
    # the residual ?y in T: q(y) & u(x, y) is ground once per x in p, and
    # the inner block's q(y) guard keeps its y in {b, c}
    gt = ground_problem(problem(NESTED_RESIDUAL), strategy)
    assert [print_formula(a) for a in gt.assertions] == [
        "u(a, b) | u(a, c)",
        "u(b, b) | u(b, c)",
    ]
    (row,) = gt.stats.rows
    # the inner guard and split are not the sentence's own; its two
    # instantiations per x are
    assert (row.guards, row.splits_kept, row.instantiations) == (1, 1, 2 + 2 * 2)


SHADOWING = """
vocabulary {
  type T := {a, b, c}.
  pred p(T).
  pred q(T).
  pred u(T).
  pred w(T, T).
}
theory {
}
structure {
  p := {a, b}.
  q := {b, c}.
}
"""


def _shadowing():
    """!x, y in T: p(x) => u(x) | (?x in T: q(x) & w(x, y)), built in code,
    since the parser rejects a rebound name."""
    prob = problem(SHADOWING)
    x, y = Variable("x", "T"), Variable("y", "T")
    inner = Exists(x, And((Atom("q", (x,)), Atom("w", (x, y)))))
    body = Or((Not(Atom("p", (x,))), Atom("u", (x,)), inner))
    return Problem(prob.voc, (ForAll(x, ForAll(y, body)),), prob.structure)


@pytest.mark.parametrize("strategy", ["vec", "naive"])
def test_an_inner_quantifier_shadows_a_block_variable(monkeypatch, strategy):
    prob = _shadowing()
    got = _grounding(prob, strategy, 8)
    monkeypatch.setattr(_SentenceGrounder, "_columns", _reference_columns)
    assert got == _grounding(prob, strategy, 8)
    # the inner x ranges over q's b and c, whatever the outer x is: q(x)
    # is the inner block's guard, not the outer one's
    _, assertions, rows = got
    assert [print_formula(a) for a in assertions] == [
        f"u({x}) | (w(b, {y}) | w(c, {y}))" for x in "ab" for y in "abc"
    ]
    assert rows[0][2] == 1  # p(x)


def test_the_compile_walk_sizes_and_nests_as_the_oracles(monkeypatch):
    """The one walk that compiles a kept split's residual counts its nodes
    as _tree_size does, by which vec sizes chunks, and finds a nested
    block where _holds_block does: on the residuals of random blocks,
    under vec and naive, on nested and shadowing blocks, and on the
    workload shapes, whose comparisons become segments."""
    columns, seen = _SentenceGrounder._columns, Counter()

    def checking_columns(g, residual, vars, segments=False):
        compiled = columns(g, residual, vars, segments)
        assert compiled[2] == _tree_size(residual), print_formula(residual)
        assert (compiled[1] is _Parts.NESTED) == _holds_block(residual), print_formula(residual)
        seen[compiled[1]] += 1
        return compiled

    monkeypatch.setattr(_SentenceGrounder, "_columns", checking_columns)
    rng = np.random.default_rng(20261022)
    problems = [problem(NESTED_RESIDUAL), _shadowing(), _three_variables(), _queens(5)]
    for _ in range(400):
        s = random_structure(rng, max_size=3, n_preds=(1, 2), n_funcs=(1, 3), uninterpreted=2)
        types = _quantifiable_types(s)
        x, y = (Variable(n, types[int(rng.integers(len(types)))]) for n in "xy")
        body = random_formula(
            rng, s, [x, y], 3, uninterpreted_ok=True, fresh_names=("z",), term_depth=2
        )
        kind = ForAll if rng.random() < 0.5 else Exists
        # with the first function table dropped, interpreted atoms over its
        # terms can fold
        opened = Structure(s.voc, s.domains, s.relations, dict(list(s.functions.items())[1:]))
        problems += [Problem(s.voc, (kind(x, kind(y, body)),), t) for t in (s, opened)]
    for prob in problems:
        for strategy in ("vec", "naive"):
            _grounding(prob, strategy, 8)
    assert min(seen[how] for how in (_Parts.NESTED, _Parts.FOLDED, _Parts.WHOLE)) >= 10, seen
    assert seen[_Parts.SEGMENT]


@pytest.mark.parametrize(
    "strategy, whole", [("vec", True), ("vec", False), ("naive", True)],
    ids=["vec-segments", "vec-sentences", "naive"],
)
def test_each_kept_split_is_compiled_in_one_walk(monkeypatch, strategy, whole):
    """The root of each kept split's residual is compiled once, whether
    the split becomes a segment (vec, a whole problem), keeps node lists
    (vec, one sentence at a time) or is compiled on its first tuple
    (naive)."""
    columns, column_node = _SentenceGrounder._columns, _SentenceGrounder._column_node
    roots, root_walks = [], []

    def recording_columns(g, residual, vars, segments=False):
        roots.append(residual)
        return columns(g, residual, vars, segments)

    def counting_column_node(g, n, pos, radix):
        if roots and n is roots[-1]:
            root_walks.append(n)
        return column_node(g, n, pos, radix)

    monkeypatch.setattr(_SentenceGrounder, "_columns", recording_columns)
    monkeypatch.setattr(_SentenceGrounder, "_column_node", counting_column_node)
    kept = segments = 0
    for prob in (_colour_like(30, 4), _queens(6)):
        if whole:
            gt = ground_problem(prob, strategy)
            rows = gt.stats.rows
            segments += sum(type(p) is Segment for p in gt.parts)
        else:
            rows = [ground_sentence(f, prob.structure, strategy) for f in prob.sentences]
        kept += sum(r.splits_kept for r in rows)
    assert kept == len(roots) == len(root_walks) == 4
    assert segments == (4 if (strategy, whole) == ("vec", True) else 0)


WIDE_RELATION = """
vocabulary {{
  type N := Int[{n}].
  type M := Int[0..3].
  pred p({args}).
  pred q(M).
}}
theory {{
  !m in M: {atom} => q(m).
}}
structure {{
  p := {{{p}}}.
}}
"""


@pytest.mark.parametrize(
    "atom, p",
    [("p(1073741824, 0, m)", "(0, 0, 0)"), ("p(1, 0, m)", "(4294967295, 4294967295, 3)")],
)
def test_relation_membership_beyond_64_bit_keys(atom, p):
    # p's argument types span 2^66 tuples, so a key by index wraps:
    # (1073741824, 0, 0) would land on (0, 0, 0), and (4294967295,
    # 4294967295, 3) would not fit in 64 bits at all
    prob = problem(WIDE_RELATION.format(n="0..4294967295", args="N, N, M", atom=atom, p=p))
    want = _grounding(prob, "naive", 8)
    assert want[0] == "sat-trivial"
    assert _grounding(prob, "vec", 8)[:2] == want[:2]


def test_relations_beyond_64_bit_keys_are_a_resource_error():
    # 2^16 distinct values at each of four places: 2^64 keys even by rank
    text = WIDE_RELATION.format(n="0..65535", args="N, N, N, N", atom="p(0, 0, 0, m)", p="")
    prob = problem(text)
    wide = Structure(prob.voc, {}, {"p": {(i, i, i, i) for i in range(2**16)}})
    with pytest.raises(ArithmeticOverflow):
        ground_problem(Problem(prob.voc, prob.sentences, wide), "vec")
    # an index of 2^63, in a type of 2^64 values
    n = f"{-2**63}..{2**63 - 1}"
    prob = problem(WIDE_RELATION.format(n=n, args="N, M", atom="p(5, m)", p="(0, 3)"))
    assert _grounding(prob, "naive", 8)[0] == "sat-trivial"
    with pytest.raises(ArithmeticOverflow):
        ground_problem(prob, "vec")


EXPANDED_RESIDUAL = """
vocabulary {
  type T := {a, b, c}.
  pred r(T, T).
  pred nice(T).
  func pick(T) -> T.
  pred u(T, T).
}
theory {
  !x, y in T: r(x, y) => nice(pick(x)) | u(x, y).
}
structure {
  r := {(a, b), (a, c), (b, a)}.
  nice := {a, c}.
}
"""


@pytest.mark.parametrize("strategy", ["vec", "naive"])
def test_interpreted_atom_over_an_uninterpreted_term_in_a_residual(strategy):
    gt = ground_problem(problem(EXPANDED_RESIDUAL), strategy)
    got = [print_formula(a) for a in gt.assertions]
    assert got == [
        "(pick(a) = a | pick(a) = c) | u(a, b)",
        "(pick(a) = a | pick(a) = c) | u(a, c)",
        "(pick(b) = a | pick(b) = c) | u(b, a)",
    ]
    # nice(pick(x)) mentions x alone: it is expanded once per x and shared
    first, second, _ = gt.assertions
    assert first.children[0] is second.children[0]


def _colour_like(n, k, extra=""):
    """Colouring of a circulant graph: vertex i borders i+1 .. i+k mod n;
    extra is a further sentence."""
    vertices = ", ".join(f"v{i}" for i in range(n))
    border = ", ".join(
        f"(v{i}, v{(i + d) % n})" for i in range(n) for d in range(1, k + 1)
    )
    return problem(
        f"""
vocabulary {{
  type V := {{{vertices}}}.
  type C := {{c0, c1, c2}}.
  pred border(V, V).
  func colour(V) -> C.
}}
theory {{
  !x, y in V: x ~= y & border(x, y) => colour(x) ~= colour(y).
  {extra}
}}
structure {{
  border := {{{border}}}.
}}
"""
    )


@pytest.mark.parametrize("strategy", ["vec", "naive"])
def test_each_instantiation_checks_the_deadline(monkeypatch, strategy):
    """naive checks the deadline at every part it draws, vec at every chunk
    of parts: here chunks of 8 rows, as the residual colour(x) ~= colour(y)
    has 5 nodes, so the block's 120 parts span 15 chunks."""
    prob = _colour_like(30, 4)
    monkeypatch.setattr(sli.grounder, "_CHUNK_NODES", 8 * 5)
    g = _SentenceGrounder(prob.structure, strategy)
    check, drawn = sli.grounder.check_deadline, []

    def counting_check():
        row = getattr(g, "row", None)
        drawn.append(0 if row is None else row.instantiations)
        check()

    monkeypatch.setattr(sli.grounder, "check_deadline", counting_check)
    row = g.sentence(prob.sentences[0])
    assert row.instantiations == 30 * 4
    if strategy == "naive":
        assert len(drawn) >= row.instantiations
    # the parts counted between two checks, and after the last one
    between = [b - a for a, b in zip(drawn, drawn[1:] + [row.instantiations])]
    assert max(between) == (1 if strategy == "naive" else 8)


@pytest.mark.parametrize("strategy", ["vec", "naive"])
def test_timeout_stops_a_block_partway(monkeypatch, strategy):
    prob = _colour_like(100, 20)
    total = ground_problem(prob, strategy).stats.rows[0].instantiations
    assert total == 100 * 20
    # a clock that advances 1 ms per reading: the 0.1 s deadline passes at
    # the hundredth deadline check, whatever the machine's speed; vec
    # checks once per chunk, here of 4 rows of 5 nodes, so its block's
    # parts span 500 chunks
    ticks = itertools.count()
    fake_time = SimpleNamespace(monotonic=lambda: next(ticks) * 1e-3)
    monkeypatch.setattr(sli.bittensor, "time", fake_time)
    monkeypatch.setattr(sli.grounder, "_CHUNK_NODES", 4 * 5)
    g = _SentenceGrounder(prob.structure, strategy)
    with pytest.raises(GroundingTimeout), deadline(0.1):
        g.sentence(prob.sentences[0])
    assert 0 < g.row.instantiations < total


def test_a_large_residual_checks_the_deadline_within_a_chunk(monkeypatch):
    # 3000 kept (x, y) rows in one chunk of the satisfying set, each with a
    # part of 100 atoms over both variables: the chunk is cut so that no
    # more than _CHUNK_NODES node builds run past the last deadline check.
    # The deadline passes once the first cut is drawn.
    n = 300
    prob = problem(
        "vocabulary {\n"
        + f"  type V := {{{', '.join(f'v{i}' for i in range(n))}}}.\n"
        + "  pred border(V, V).\n"
        + "".join(f"  pred u{k}(V, V).\n" for k in range(100))
        + "}\ntheory {\n  !x, y in V: border(x, y) => "
        + " | ".join(f"u{k}(x, y)" for k in range(100))
        + ".\n}\nstructure {\n  border := {"
        + ", ".join(f"(v{i}, v{(i + d) % n})" for i in range(n) for d in range(1, 11))
        + "}.\n}\n"
    )
    folds = Counter()
    fold_atom = _SentenceGrounder._fold_atom

    def counting_fold_atom(g, pred, args):
        folds[not any(isinstance(a, Variable) for a in args)] += 1
        return fold_atom(g, pred, args)

    monkeypatch.setattr(_SentenceGrounder, "_fold_atom", counting_fold_atom)
    g = _SentenceGrounder(prob.structure, "vec")
    _clock_from_the_first_part(monkeypatch, g)
    with pytest.raises(GroundingTimeout), deadline(1.0):
        g.sentence(prob.sentences[0])
    drawn = g.row.instantiations
    assert 0 < drawn < 3000
    assert folds[True] - 100 * drawn <= sli.grounder._CHUNK_NODES


def _clock_from_the_first_part(monkeypatch, g: _SentenceGrounder) -> None:
    """Make the deadline's clock read 0 until g has counted a part, and
    2 seconds from then on."""

    def monotonic():
        row = getattr(g, "row", None)
        return 2.0 if row is not None and row.instantiations else 0.0

    monkeypatch.setattr(sli.bittensor, "time", SimpleNamespace(monotonic=monotonic))


def _queens(n):
    return problem(
        f"""
vocabulary {{
  type N := Int[1..{n}].
  func queen(N) -> Int[1..{n}].
}}
theory {{
  !x, y in N: x ~= y => queen(x) ~= queen(y).
  !x, y in N: x ~= y => queen(x) + x ~= queen(y) + y.
  !x, y in N: x ~= y => queen(x) - x ~= queen(y) - y.
}}
"""
    )


# three guards, p(x), q(y) and r(x, y): seven of their eight splits are kept
SPLITS = """
vocabulary {
  type T := {a, b, c, d}.
  pred p(T).
  pred q(T).
  pred r(T, T).
  pred u(T, T).
  pred v(T).
}
theory {
  !x, y in T: (p(x) => u(x, y)) & (q(y) => v(x)) & (r(x, y) | v(y)).
}
structure {
  p := {a, b}.
  q := {b, c}.
  r := {(a, b), (c, d)}.
}
"""


@pytest.mark.parametrize(
    "make",
    [
        lambda: _colour_like(40, 5),
        lambda: _queens(6),
        lambda: problem(NESTED_RESIDUAL),
        _shadowing,
        lambda: problem(SPLITS),
    ],
    ids=["colour", "queens", "nested", "shadowing", "splits"],
)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pipeline_leaves_no_cyclic_garbage(make, strategy):
    """Parsing, grounding and emitting free every object they make by
    reference counting alone: no walk leaves a reference cycle behind,
    with the collector disabled, or enabled, when a grounding that returns
    hands what it made to the oldest generation.  Under vec, colouring's
    and queens' theories hold segments, whose comparisons are built too."""
    for enabled in (False, True):
        run = lambda: _emit_and_read(ground_problem(make(), strategy))  # noqa: E731
        assert _cyclic_garbage(run, enabled) == 0


def _emit_and_read(gt):
    """Emit a theory, then read its assertions, which builds the
    comparisons of its segments."""
    emit(gt)
    return gt.assertions


def _cyclic_garbage(run, enabled: bool) -> int:
    """The objects the collector frees from the start of run(), called
    with the collector enabled or disabled, to a full collection after
    it: every collection in that window counts."""
    collected = []

    def probe(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.collect()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(probe)
    try:
        run()
        gc.collect()
    finally:
        gc.callbacks.remove(probe)
        gc.enable()
    return sum(collected)


def _fake_clock(monkeypatch) -> list[int]:
    """Make the deadline's clock advance one second per reading; the list
    holds the last reading, and may be reset."""
    now = [0]

    def monotonic():
        now[0] += 1
        return now[0]

    monkeypatch.setattr(sli.bittensor, "time", SimpleNamespace(monotonic=monotonic))
    return now


@pytest.mark.parametrize(
    "make",
    [
        lambda: _colour_like(40, 5),
        lambda: _queens(6),
        lambda: generate(BenchSpec("tg", 12, seed=13)),
    ],
    ids=["colour", "queens", "triangle"],
)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("timed_out", [False, True], ids=["timeout", "timed-out"])
def test_a_deadline_leaves_no_cyclic_garbage(monkeypatch, make, strategy, timed_out):
    """As above, under timeout=600, and unwound by a GroundingTimeout
    raised about halfway through the grounding on a fake clock: neither
    the deadline nor the walks it stops leave a reference cycle behind."""
    timeout = 600
    if timed_out:
        now = _fake_clock(monkeypatch)
        ground_problem(make(), strategy, timeout=10**6)
        readings, now[0] = now[0], 0
        assert readings > 4
        timeout = readings // 2

    def run():
        if timed_out:
            now[0] = 0
        try:
            _emit_and_read(ground_problem(make(), strategy, timeout=timeout))
        except GroundingTimeout:
            assert timed_out
        else:
            assert not timed_out

    for enabled in (False, True):
        assert _cyclic_garbage(run, enabled) == 0


def test_a_timeout_ends_with_its_grounding(monkeypatch):
    """After a grounding stops at its deadline on a fake clock, the next
    grounding in the same thread, with no timeout, grounds in full, and
    check_deadline outside a grounding never raises."""
    prob = _colour_like(30, 4)
    want = emit(ground_problem(prob, "vec"))
    now = _fake_clock(monkeypatch)
    ground_problem(prob, "vec", timeout=10**6)
    readings, now[0] = now[0], 0
    timeout = readings // 2
    with pytest.raises(GroundingTimeout):
        ground_problem(prob, "vec", timeout=timeout)
    assert timeout < now[0] < readings
    check_deadline()
    assert emit(ground_problem(prob, "vec")) == want
    check_deadline()


def test_a_deadline_holds_in_its_own_thread_only():
    """Two threads ground at once: the one inside an expired deadline
    times out, even asking for 600 s, since a nested deadline cannot
    extend it; the other, with none, grounds in full meanwhile."""
    prob = _colour_like(30, 4)
    want = emit(ground_problem(prob, "vec"))
    start, done, got = threading.Barrier(2), threading.Event(), {}

    def expired():
        with deadline(-1):
            start.wait(60)
            try:
                ground_problem(prob, "vec", timeout=600)
            except GroundingTimeout as e:
                got["expired"] = type(e)
            done.wait(60)  # the deadline stays set while the other grounds

    def free():
        start.wait(60)
        try:
            got["free"] = emit(ground_problem(prob, "vec"))
        finally:
            done.set()

    threads = [threading.Thread(target=expired), threading.Thread(target=free)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads)
    assert got == {"expired": GroundingTimeout, "free": want}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("ends", ["grounded", "timed-out", "input-error"])
def test_grounding_leaves_the_collector_as_it_found_it(monkeypatch, enabled, ends):
    """ground_problem pauses the cyclic collector while it runs, and leaves
    it enabled or disabled as it was, however the call ends.  It freezes
    the tracked objects, to promote them, only when it returns a theory
    with the collector enabled at the start."""
    check, paused = sli.grounder.check_deadline, []
    freezes = _freezes(monkeypatch)

    def recording_check():
        paused.append(not gc.isenabled())
        check()

    monkeypatch.setattr(sli.grounder, "check_deadline", recording_check)
    (gc.enable if enabled else gc.disable)()
    try:
        if ends == "grounded":
            assert ground_problem(_colour_like(30, 4), "vec").verdict == "open"
        elif ends == "timed-out":
            with pytest.raises(GroundingTimeout):
                ground_problem(_colour_like(30, 4), "vec", timeout=-1)
        else:
            prob = _out_of_range("!x in N: ok(x, pick(x)) & u(f(x + 1)).", set())
            with pytest.raises(IndexOutOfRange):
                ground_problem(prob, "vec")
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert paused and all(paused)
    assert len(freezes) == (enabled and ends == "grounded")


def _freezes(monkeypatch) -> list[None]:
    """One entry per gc.freeze call from now on; each still freezes."""
    calls, freeze = [], gc.freeze

    def recording_freeze():
        calls.append(None)
        freeze()

    monkeypatch.setattr(gc, "freeze", recording_freeze)
    return calls


def test_a_ground_theory_skips_the_young_generations():
    """A grounding that returns leaves none of the objects its theory holds
    in the two young generations, and gen 0's count at 0, so no young
    collection scans the theory: none starts inside ground_problem, and the
    emission that follows runs no collection of generation 1 or 2.  The
    theory holds formulas, from a residual that is a disjunction, and
    segments, from one that is a comparison; the comparisons a segment
    builds when .assertions is first read are new."""
    prob = _colour_like(600, 4, "!x, y in V: border(x, y) => colour(x) ~= colour(y) | colour(x) = c0.")
    starts = []

    def probe(phase, info):
        if phase == "start":
            starts.append((stage, info["generation"]))

    stage = "ground"
    gc.collect()
    gc.callbacks.append(probe)
    try:
        gt = ground_problem(prob, "vec")
        count = gc.get_count()[0]
        stage = "emit"
        emit(gt)
    finally:
        gc.callbacks.remove(probe)
    assert gt.assertion_count >= 2000 and count == 0
    assert not [s for s in starts if s[0] == "ground" or s[1] >= 1]
    segments = [p for p in gt.parts if type(p) is Segment]
    assert segments and len(segments) < len(gt.parts)
    held = list(gt.parts)
    for seg in segments:
        held += [seg.left, seg.right, *seg.left, *seg.right]
    ids = set(map(id, held))
    for generation in (0, 1):
        assert not any(id(o) in ids for o in gc.get_objects(generation=generation))


def test_a_callers_frozen_objects_stay_frozen(monkeypatch):
    """With objects frozen by the caller, ground_problem promotes nothing:
    it does not freeze, and the freeze count is unchanged."""
    prob = _colour_like(30, 4)
    freezes = _freezes(monkeypatch)
    gc.freeze()
    try:
        # the first grounding frees the context's old variable mapping,
        # which the freeze caught, as it sets the deadline
        assert ground_problem(prob, "vec").verdict == "open"
        frozen = gc.get_freeze_count()
        assert ground_problem(prob, "vec").verdict == "open"
        assert frozen > 0 and gc.get_freeze_count() == frozen and freezes == [None]
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_two_groundings_at_once_leave_the_collector_as_they_found_it(enabled):
    """The two threads of test_a_deadline_holds_in_its_own_thread_only, each
    grounding with the collector paused: they leave it as they found it."""
    (gc.enable if enabled else gc.disable)()
    try:
        test_a_deadline_holds_in_its_own_thread_only()
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Guards evaluated in slabs of leading-variable rows

DATA = Path(__file__).parent / "data"

# a kept split whose guard, e(x, y) & e(y, z), is cut into one slab per x
# at small slab sizes, and an existential block decided by a triangle
PATHS = """
vocabulary {
  type V := {v0, v1, v2, v3, v4, v5, v6, v7}.
  pred e(V, V).
  pred u(V, V).
}
theory {
  !x, y, z in V: e(x, y) & e(y, z) => u(x, z).
  ?x, y, z in V: e(x, y) & e(y, z) & e(z, x).
}
structure {
  e := {(v0, v1), (v1, v2), (v3, v4), (v4, v5), (v5, v3), (v6, v6), (v7, v0)}.
}
"""


def _vec_outcome(prob):
    """Verdict, SMT text and --stats rows but micros, or the error class."""
    try:
        gt = ground_problem(prob, "vec")
    except INSTANCE_ERRORS as e:
        return type(e)
    rows = [
        (r.sentence_id, r.strategy, r.guards, r.splits_kept, r.tensor_bits, r.instantiations)
        for r in gt.stats.rows
    ]
    return gt.verdict, emit(gt), rows


@pytest.mark.parametrize("slab_bits", [1, 64])
def test_slabs_leave_the_grounding_unchanged(monkeypatch, slab_bits):
    problems = [problem((DATA / name).read_text()) for name in ("queens3.sli", "mapcolour3.sli")]
    problems += [
        problem(PATHS),
        problem(SPLITS),
        problem(NESTED_RESIDUAL),
        _colour_like(40, 5),
        _queens(6),
        generate(BenchSpec("tg", 30, seed=13)),
        generate(BenchSpec("ci", 200, 0.1, 3, "sat")),
        generate(BenchSpec("cs", 200, 0.1, 3, "unsat")),
    ]
    rng = np.random.default_rng(11)
    for _ in range(80):
        s, sentences = random_mx_problem(rng)
        problems.append(Problem(s.voc, sentences, s))
    want = [_vec_outcome(p) for p in problems]
    monkeypatch.setattr(sli.satset, "_SLAB_BITS", slab_bits)
    cut = Counter()
    eval_over = SatSetEvaluator.eval_over

    def recording_eval_over(self, f, vars, rows=None):
        cut[rows[1] - rows[0] < self.extent(vars[0])] += 1
        return eval_over(self, f, vars, rows)

    monkeypatch.setattr(SatSetEvaluator, "eval_over", recording_eval_over)
    for k, (p, w) in enumerate(zip(problems, want)):
        assert _vec_outcome(p) == w, k
    assert cut[True] > 30


def _pairs(p_elem):
    """?x, y in T: p(x) & q(y) over 30 elements: at 64-bit slabs, 15 slabs
    of two x rows; p holds only p_elem, so the one slab holding a one is
    slab p_elem // 2."""
    elems = ", ".join(f"t{i}" for i in range(30))
    return problem(
        f"vocabulary {{\n  type T := {{{elems}}}.\n  pred p(T).\n  pred q(T).\n}}\n"
        "theory {\n  ?x, y in T: p(x) & q(y).\n}\n"
        f"structure {{\n  p := {{t{p_elem}}}.\n  q := {{t0}}.\n}}\n"
    )


def _counting_junction(monkeypatch):
    """[entries, exits] of the junctions satset runs."""
    counts = [0, 0]
    junction = sli.satset.junction

    def counting(*args, **kwargs):
        counts[0] += 1
        out = junction(*args, **kwargs)
        counts[1] += 1
        return out

    monkeypatch.setattr(sli.satset, "junction", counting)
    return counts


def test_a_deciding_slab_ends_the_block(monkeypatch):
    monkeypatch.setattr(sli.satset, "_SLAB_BITS", 64)
    counts = _counting_junction(monkeypatch)
    for p_elem, slabs in ((0, 1), (7, 4), (29, 15)):
        counts[:] = [0, 0]
        gt = ground_problem(_pairs(p_elem), "vec")
        assert gt.verdict == "sat-trivial"
        assert gt.stats.rows[0].tensor_bits == 900
        assert counts == [slabs, slabs], p_elem


def test_a_block_permutes_each_part_once(monkeypatch):
    """tg at n = 30 has no triangle, so all 30 one-row slabs of its guard
    edge(x, y) & edge(y, z) & edge(z, x) are evaluated; of its parts,
    only edge(z, x) is out of the block's order, and it is permuted into
    (x, z) once for the whole block, not once per slab."""
    monkeypatch.setattr(sli.satset, "_SLAB_BITS", 64)
    slabs, permuted = [], []
    permute_axes, eval_over = sli.bittensor.BitTensor.permute_axes, SatSetEvaluator.eval_over

    def recording_permute_axes(self, *args, **kwargs):
        permuted.append(tuple(v.name for v in self.shape.vars))
        return permute_axes(self, *args, **kwargs)

    def recording_eval_over(self, f, vars, rows=None):
        slabs.append(rows)
        return eval_over(self, f, vars, rows)

    monkeypatch.setattr(sli.bittensor.BitTensor, "permute_axes", recording_permute_axes)
    monkeypatch.setattr(SatSetEvaluator, "eval_over", recording_eval_over)
    gt = ground_problem(generate(BenchSpec("tg", 30, seed=13)), "vec")
    assert gt.verdict == "unsat-trivial"
    assert slabs == [(lo, lo + 1) for lo in range(30)]
    assert permuted == [("z", "x")]


def test_a_deadline_stops_the_guard_between_slabs(monkeypatch):
    """On a fake clock that advances one second per reading, a deadline
    that passes right after the fifth slab's junction stops the block at
    the sixth slab's deadline check, before its junction starts."""
    monkeypatch.setattr(sli.satset, "_SLAB_BITS", 64)
    now = _fake_clock(monkeypatch)
    exits = []
    junction = sli.satset.junction

    def recording_junction(*args, **kwargs):
        out = junction(*args, **kwargs)
        exits.append(now[0])
        return out

    monkeypatch.setattr(sli.satset, "junction", recording_junction)
    prob = _pairs(29)
    ground_problem(prob, "vec", timeout=10**6)
    assert len(exits) == 15
    last = exits[4]
    now[0] = 0
    exits.clear()
    with pytest.raises(GroundingTimeout):
        ground_problem(prob, "vec", timeout=last - 1)  # the deadline is reading 1 + timeout
    assert len(exits) == 5 and exits[-1] == last


def test_a_block_guard_holds_a_slab_not_the_block_tensor(monkeypatch):
    """tg at n = 240 has no triangle, so every slab of its 240^3-bit guard
    is evaluated; at 2^18-bit slabs, the grounding's peak stays below a
    quarter of that tensor packed, which one whole tensor would exceed."""
    monkeypatch.setattr(sli.satset, "_SLAB_BITS", 2**18)
    n = 240
    prob = generate(BenchSpec("tg", n, seed=13))
    tracemalloc.start()
    try:
        gt = ground_problem(prob, "vec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gt.verdict == "unsat-trivial"
    assert gt.stats.rows[0].tensor_bits == n**3
    assert peak < 0.25 * n**3 / 8, peak


def test_tuples_count_up_lazily_and_check_each(monkeypatch):
    calls = []
    monkeypatch.setattr(sli.grounder, "check_deadline", lambda: calls.append(1))
    for sizes in ([], [0], [3], [2, 0, 4], [2, 3, 1], [1, 4, 2]):
        calls.clear()
        got = list(sli.grounder._tuples(sizes))
        assert got == list(itertools.product(*map(range, sizes)))
        assert len(calls) == len(got)
    # no range is built: the first tuple of a 2^64-value type comes at once
    huge = sli.grounder._tuples([2**64, 2**64])
    assert next(huge) == (0, 0) and next(huge) == (0, 1)


COLOURING = """
vocabulary {{
  type V := {{{vertices}}}.
  type C := {{c0, c1, c2}}.
  pred border(V, V).
  func colour(V) -> C.
}}
theory {{
  !x, y in V: x ~= y & border(x, y) => colour(x) ~= colour(y).
}}
structure {{
  border := {{{border}}}.
}}
"""


def _apps(n, out):
    """Every FunctionApp node under n, with repeats, into out."""
    if isinstance(n, FunctionApp):
        out.append(n)
    for child in getattr(n, "args", ()) + getattr(n, "children", ()):
        _apps(child, out)
    for side in ("left", "right", "child"):
        if hasattr(n, side):
            _apps(getattr(n, side), out)
    return out


@pytest.mark.parametrize("strategy", ["vec", "naive"])
def test_colour_x_and_colour_y_share_one_fold(monkeypatch, strategy):
    """colour(x) and colour(y) are each folded per value of their own
    variable, through one table of the run: a vertex's colour is folded
    once, and both sides of the borders hold that one object."""
    monkeypatch.setattr(sli.bittensor, "_CHUNK_BITS", 64)  # several chunks
    edges = sorted({(i, (5 * i + 3) % 12) for i in range(12)} | {(2, 7), (7, 2), (9, 0)})
    prob = problem(
        COLOURING.format(
            vertices=", ".join(f"v{i}" for i in range(12)),
            border=", ".join(f"(v{a}, v{b})" for a, b in edges),
        )
    )
    folds = Counter()
    fold_app = _SentenceGrounder._fold_app

    def counting_fold_app(g, name, args):
        if not any(isinstance(a, Variable) for a in args):  # an instantiation's
            folds[(name, args)] += 1
        return fold_app(g, name, args)

    monkeypatch.setattr(_SentenceGrounder, "_fold_app", counting_fold_app)
    gt = ground_problem(prob, strategy)
    vertices = {f"v{i}" for e in edges for i in e}
    assert len(gt.assertions) == len(edges)
    assert sorted(folds.values()) == [1] * len(vertices)
    assert {args[0].name for _, args in folds} == vertices
    by_vertex: dict[str, set[int]] = {}
    for a in gt.assertions:
        left, right = _apps(a, [])
        assert left.args[0] != right.args[0]
        for app in (left, right):
            by_vertex.setdefault(app.args[0].name, set()).add(id(app))
    assert set(by_vertex) == vertices
    assert all(len(ids) == 1 for ids in by_vertex.values())


def _expansion_before_tries(g, f):
    """The interpreted-atom expansion as it was before the relation tries:
    every tuple of the freshly sorted relation is tested position by
    position, building the Compares of its non-constant arguments first."""
    check_deadline()
    sig = g.s.voc.predicates[f.pred]
    disjuncts = []
    for tup in sorted(g.s.relations[f.pred]):
        conj = []
        match = True
        for arg, want, idx in zip(f.args, sig, tup):
            if isinstance(arg, (DomainConstant, IntConstant)):
                have = (
                    arg.index
                    if isinstance(arg, DomainConstant)
                    else g.s.value_to_index(want, arg.value)
                )
                if have != idx:
                    match = False
                    break
            else:
                conj.append(Compare("=", arg, g._const(want, idx)))
        if match:
            disjuncts.append(_simp_junction(True, conj))
    return _simp_junction(False, disjuncts)


def _expansion_outcome(expand, g, atom):
    try:
        return expand(g, atom)
    except SliError as e:
        return type(e)


def test_interpreted_atom_expansion_matches_tuple_by_tuple():
    """On small random relations over an enumerated and an interval type,
    with constants in and out of range, of either kind at either type,
    and ground uninterpreted terms, the expansion gives the disjunction,
    and raises the error, that testing every tuple in turn gives."""
    rng = np.random.default_rng(14)
    voc = Vocabulary()
    voc.types["V"] = EnumType("V")
    voc.types["I"] = IntervalType("I", 2, 4)
    voc.functions["g"] = FuncSig(("V",), "V")
    voc.functions["h"] = FuncSig(("V",), "I")
    a = DomainConstant("a", "V", 0)
    args = {
        "V": [DomainConstant(n, "V", i) for i, n in enumerate("abc")]
        + [IntConstant(1), IntConstant(7), FunctionApp("g", (a,))],
        "I": [IntConstant(k) for k in range(0, 7)]
        + [DomainConstant("b", "V", 1), FunctionApp("h", (a,))],
    }
    for _ in range(60):
        sig = tuple(rng.choice(["V", "I"], int(rng.integers(1, 4))).tolist())
        voc.predicates["p"] = sig
        every = list(itertools.product(*[range(3)] * len(sig)))
        rel = {every[k] for k in rng.permutation(len(every))[: int(rng.integers(0, 9))]}
        s = Structure(voc, {"V": ("a", "b", "c")}, {"p": rel})
        g = _SentenceGrounder(s, "vec")
        for _ in range(12):
            atom = Atom("p", tuple(args[t][int(rng.integers(len(args[t])))] for t in sig))
            want = _expansion_outcome(_expansion_before_tries, g, atom)
            assert _expansion_outcome(_SentenceGrounder._expand_interpreted_atom, g, atom) == want


@pytest.mark.parametrize("strategy", ["vec", "naive"])
def test_expansion_builds_a_compare_per_matching_tuple_only(monkeypatch, strategy):
    """border(f(x), x) holds one constant: each row's expansion builds a
    Compare for each tuple ending in x only, not for every tuple."""
    n = 40
    rng = np.random.default_rng(3)
    edges = sorted({tuple(rng.integers(0, n, 2).tolist()) for _ in range(300)})
    prob = problem(
        f"""
vocabulary {{
  type V := {{{", ".join(f"v{i}" for i in range(n))}}}.
  pred border(V, V).
  func f(V) -> V.
}}
theory {{
  !x in V: border(f(x), x).
}}
structure {{
  border := {{{", ".join(f"(v{a}, v{b})" for a, b in edges)}}}.
}}
"""
    )
    built = []
    init = Compare.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(Compare, "__init__", counting_init)
    gt = ground_problem(prob, strategy)
    matching = len(edges)  # each tuple ends in one x
    assert 0 < len(built) <= matching
    ends = {b for _, b in edges}
    assert gt.verdict == ("unsat-trivial" if len(ends) < n else "open")
