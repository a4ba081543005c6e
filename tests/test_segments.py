"""Segments: a kept split whose residual is a comparison that never folds,
under a universal block that is its whole sentence, is held in the ground
theory as columns and rendered from them (vec)."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

import digests
import sli.grounder
import workloads
from randgen import random_mx_problem
from sli.cli import main
from sli.errors import IndexOutOfRange, SliError
from sli.grounder import (
    GroundTheory,
    Segment,
    _split_assertions,
    ground_problem,
    ground_sentence,
)
from sli.logic import FALSE, TRUE
from sli.parser import Problem, parse_problem
from sli.smt import emit


def _toy(name: str, seed: int = 3) -> Problem:
    return parse_problem(workloads.WORKLOADS[name](seed, **workloads.TOY_SIZES[name]).text)


def _segments(gt: GroundTheory) -> list[Segment]:
    return [p for p in gt.parts if type(p) is Segment]


def test_whole_comparison_splits_are_segments():
    """Each queens sentence keeps one segment, and colouring one; the
    places are as narrow as the sides' values allow, and the first read
    of .assertions builds the comparisons, over the segment's own side
    values, and keeps them."""
    queens = ground_problem(_toy("queens"), "vec")
    assert [len(s) for s in _segments(queens)] == [30, 30, 30] == [len(p) for p in queens.parts]
    assert all(s.index.dtype == np.uint8 and s.index.shape == (2, 30) for s in queens.parts)
    colour = ground_problem(_toy("colour"), "vec")
    (segment,) = colour.parts
    assert colour.assertion_count == len(segment) == 200
    assert colour.assertions is colour.assertions
    assert len(colour.assertions) == 200
    # colour(x) and colour(y) are one object per vertex, on both sides
    left = {id(a.left) for a in colour.assertions}
    assert left <= set(map(id, segment.left))
    assert {id(a.right) for a in colour.assertions} <= set(map(id, segment.right)) | left
    for strategy in ("naive", "noreduce"):
        assert not _segments(ground_problem(_toy("queens"), strategy))
    # triangle leaves no residual, so no segment
    assert not _segments(ground_problem(_toy("triangle"), "vec"))


@pytest.mark.parametrize("name", ["colour", "queens"])
def test_counting_builds_no_comparison(monkeypatch, tmp_path, capsys, name):
    """`sli ground` runs through its summary line, and a theory counts and
    prints itself, without building a segment's comparisons."""
    src = tmp_path / f"{name}.sli"
    src.write_text(workloads.WORKLOADS[name](3, **workloads.TOY_SIZES[name]).text)
    want = len(ground_problem(parse_problem(src.read_text()), "vec").assertions)

    def refuse(self):
        raise AssertionError("a segment was materialised")

    monkeypatch.setattr(Segment, "materialise", refuse)
    assert main(["ground", str(src), "--out", str(tmp_path / "out.smt2")]) == 0
    assert f"verdict open, {want} assertions (vec)" in capsys.readouterr().err
    gt = ground_problem(parse_problem(src.read_text()), "vec")
    assert _segments(gt) and gt.assertion_count == want
    assert f"assertions={want}," in repr(gt)
    with pytest.raises(AssertionError, match="materialised"):
        gt.assertions


def _outcome(run):
    try:
        return run()
    except SliError as e:
        return type(e), str(e)


def _sentence_by_sentence(prob: Problem):
    """The verdict and assertions of a problem, each sentence ground alone
    by ground_sentence, which keeps no segment."""
    out = []
    for f in prob.sentences:
        g = ground_sentence(f, prob.structure, "vec").formula
        if g is FALSE:
            return "unsat-trivial", ()
        if g is not TRUE:
            out += _split_assertions(g)
    return ("open" if out else "sat-trivial"), tuple(out)


# the terms a side over one variable V may be, by V's type and the side's
# sort; u, m, k and w are uninterpreted, i and j interpreted
SIDES = {
    ("T", "T"): ["u(V)", "u(i(V))", "i(V)", "e0", "i(u(V))"],
    ("N", "T"): ["m(V)", "m(j(V))", "m(V + 1)"],
    ("T", "N"): ["k(V)", "k(V) + 1", "k(i(V)) - 2", "k(V) * k(V)", "3"],
    ("N", "N"): ["w(V)", "w(V) - V", "w(j(V)) + V", "j(V) + w(V)", "j(V)", "w(V + 1)"],
}
GUARDS = ["~x = y", "p(x, y)", "~p(x, y) | x = y", "q(x) | q(y)", "true"]
# interpreted sides, which can fold: a comparison of two of them is a
# guard, unless no guard is lifted
FOLDING_SIDES = {
    ("T", "T"): ["i(V)", "V", "i(i(V))", "e0"],
    ("N", "T"): ["e0"],
    ("T", "N"): ["3"],
    ("N", "N"): ["j(V)", "j(V) + V", "j(V - 1)", "V * 2"],
}


def _comparison_problem(rng, shape: str = "sides") -> Problem:
    """A universal sentence over x and y whose residual is, under most
    guards, a comparison of a term over x with a term over y.  Other
    shapes: "both" makes one side s2(x, y), over both variables; "root"
    puts the comparison under a negation or a disjunction; "fold" makes
    both sides interpreted and drops the guard, so that the comparison is
    the residual only when no guard is lifted."""
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731
    size = int(rng.integers(1, 5))
    lo = pick([-2, 1, 2**63 - 4, -(2**63)])
    tx, ty, sort = pick("TN"), pick("TN"), pick("TN")
    ops = ["=", "~="] if sort == "T" else ["=", "~=", "<", "=<", ">", ">="]
    sides = FOLDING_SIDES if shape == "fold" else SIDES
    left = pick(sides[tx, sort]).replace("V", "x")
    right = pick(sides[ty, sort]).replace("V", "y")
    guard = pick(GUARDS if tx == ty else [g for g in GUARDS if "x = y" not in g])
    guard = guard.replace("p(", f"p{tx}{ty}(").replace("q(x)", f"q{tx}(x)")
    guard = guard.replace("q(y)", f"q{ty}(y)")
    elements = [f"e{i}" for i in range(size)]
    values = {"T": elements, "N": [str(lo + i) for i in range(size)]}

    def subset(*types):
        tuples = itertools.product(*(values[t] for t in types))
        return ", ".join(f"({', '.join(t)})" for t in tuples if rng.random() < 0.6)

    def table(t):
        return ", ".join(f"{v} -> {pick(values[t])}" for v in values[t])

    preds = "".join(f"  pred p{a}{b}({a}, {b}).\n" for a in "TN" for b in "TN")
    preds += "  pred qT(T).\n  pred qN(N).\n"
    preds += f"  func s2({tx}, {ty}) -> {sort}.\n  pred r2({tx}, {ty}).\n"
    rels = "".join(f"  p{a}{b} := {{{subset(a, b)}}}.\n" for a in "TN" for b in "TN")
    rels += f"  qT := {{{subset('T')}}}.\n  qN := {{{subset('N')}}}.\n"
    if shape == "both":
        left, right = ("s2(x, y)", right) if rng.random() < 0.5 else (left, "s2(x, y)")
    body = f"{left} {pick(ops)} {right}"
    if shape == "root":
        body = pick([f"~({body})", f"{body} | r2(x, y)"])
    sentence = body if shape == "fold" else f"{guard} => {body}"
    return parse_problem(
        f"""
vocabulary {{
  type T := {{{", ".join(elements)}}}.
  type N := Int[{lo}..{lo + size - 1}].
{preds}
  func u(T) -> T.  func m(N) -> T.  func k(T) -> N.  func w(N) -> N.
  func i(T) -> T.  func j(N) -> N.
}}
theory {{
  !x in {tx}: !y in {ty}: {sentence}.
}}
structure {{
{rels}  i := {{{table("T")}}}.
  j := {{{table("N")}}}.
}}
"""
    )


def _differential_problems():
    """The workloads at toy sizes, the corpus's name clash and edge
    cases, random model-expansion problems, and random sentences whose
    residual is a comparison of a term over x with a term over y."""
    for name in workloads.WORKLOADS:
        for seed in (1, 3):
            yield _toy(name, seed)
    for case in ("constructor-clash", "int-top-edge", "int-bottom-edge", "nested", "empty-type"):
        yield digests.cases()[f"{case}/vec"][0]()
    rng = np.random.default_rng(26)
    for _ in range(40):
        s, sentences = random_mx_problem(rng)
        yield Problem(s.voc, sentences, s)
    for _ in range(300):
        yield _comparison_problem(rng)


def _segmented(problems) -> int:
    """How many of the problems keep a segment, each checked on the way:
    a theory holding segments emits what the same theory with every
    comparison built emits, constructor-name retry included; its
    assertions equal those of its sentences ground one at a time with no
    segment, and so does a failing grounding's error."""
    segmented = 0
    for prob in problems:
        got = _outcome(lambda: ground_problem(prob, "vec"))
        want = _outcome(lambda: _sentence_by_sentence(prob))
        if isinstance(got, tuple):
            assert got == want
            continue
        assert (got.verdict, got.assertions) == want
        built = GroundTheory(got.structure, got.assertions, got.verdict, got.mode, got.stats)
        assert emit(got) == emit(built)
        segmented += bool(_segments(got))
    return segmented


def test_segments_ground_and_emit_as_their_comparisons():
    segmented = _segmented(_differential_problems())
    assert segmented >= 150, segmented


@pytest.mark.parametrize("shape", ["both", "root", "fold"])
def test_other_residuals_ground_and_emit_as_node_lists(monkeypatch, shape):
    """A comparison with a side over every block variable, a residual
    whose root is not a comparison, and a comparison whose sides both
    fold keep no segment, and ground and emit as the same sentences one
    at a time.  Guards lift every comparison of interpreted terms, so the
    folding one is a residual only with no guard lifted."""
    if shape == "fold":
        monkeypatch.setattr(sli.grounder, "_collect_guards", lambda body, sigma0, block: ([], {}))
    rng = np.random.default_rng(28)
    assert _segmented(_comparison_problem(rng, shape) for _ in range(100)) == 0


def test_a_segment_renders_a_constructor_clash_on_the_second_walk():
    text = emit(ground_problem(digests._clash(), "vec"))
    assert "(declare-datatypes ((g 0)) (((g!u) (g!w))))" in text
    assert "(declare-const g!u!2 g)" in text and "(assert (distinct g!u!2 g!w!2))" in text


FAILING_SIDES = """
vocabulary {{
  type N := Int[1..30].
  pred ok(N, N).
  func f(N) -> N.
  func g(N) -> N.
  func h(N) -> N.
}}
theory {{
  !x, y in N: ok(x, y) => h(f(x + 1)) ~= h(g(y - 1)).
}}
structure {{
  ok := {{{ok}}}.
  f := {{{table}}}.
  g := {{{table}}}.
}}
"""


@pytest.mark.parametrize("rows_per_chunk", [1000, 7])
@pytest.mark.parametrize("first", ["left", "right"])
def test_a_failing_side_raises_the_first_rows_error(monkeypatch, rows_per_chunk, first):
    """f(x + 1) fails at x = 30 and g(y - 1) at y = 1: the error is the
    one of the first row that fails, left side first, as ground_sentence,
    which keeps no segment, raises it, however the rows are chunked."""
    monkeypatch.setattr(sli.grounder, "_CHUNK_NODES", rows_per_chunk * 7)
    pairs = [(x, y) for x in range(1, 31) for y in range(1, 31) if x != y]
    if first == "left":
        pairs = [(x, y) for x, y in pairs if y > 1 or x == 30]
    table = ", ".join(f"{i} -> {i}" for i in range(1, 31))
    prob = parse_problem(
        FAILING_SIDES.format(ok=", ".join(f"({x}, {y})" for x, y in pairs), table=table)
    )
    with pytest.raises(IndexOutOfRange) as segmented:
        ground_problem(prob, "vec")
    with pytest.raises(IndexOutOfRange) as alone:
        ground_sentence(prob.sentences[0], prob.structure, "vec")
    assert str(segmented.value) == str(alone.value)
    assert f"argument of {'f' if first == 'left' else 'g'} " in str(segmented.value)


def _circulant_colouring(n: int, k: int) -> Problem:
    border = ", ".join(f"(v{i}, v{(i + d) % n})" for i in range(n) for d in range(1, k + 1))
    vertices = ", ".join(f"v{i}" for i in range(n))
    return parse_problem(
        f"vocabulary {{ type V := {{{vertices}}}. type C := {{c0, c1, c2, c3}}.\n"
        "  pred border(V, V). func colour(V) -> C. }\n"
        "theory { !x, y in V: x ~= y & border(x, y) => colour(x) ~= colour(y). }\n"
        f"structure {{ border := {{{border}}}. }}\n"
    )


def test_a_segmented_theory_holds_few_bytes_per_assertion():
    """Colouring n=20000, m=200000: everything the grounding leaves
    allocated, the theory and what it shares with the structure, is under
    32 bytes per assertion before .assertions is read."""
    prob = _circulant_colouring(20000, 10)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gt = ground_problem(prob, "vec")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert gt.assertion_count == 200000 and _segments(gt)
    assert held / gt.assertion_count < 32


LONE_CONJUNCTION = """
vocabulary {
  type T := {a, b, c}.
  pred p(T).
  pred u(T).
  pred v(T).
  func f(T) -> T.
}
theory {
  !x in T: p(x) => u(x) & v(x).
  !x, y in T: p(x) & x ~= y => f(x) ~= f(y) & u(y).
}
structure {
  p := {b}.
}
"""


def test_a_lone_conjunction_is_split_into_assertions():
    """A universal block that keeps one part, a conjunction, is that
    conjunction, whose conjuncts are the sentence's assertions, as
    ground_sentence's formula splits into them."""
    prob = parse_problem(LONE_CONJUNCTION)
    gt = ground_problem(prob, "vec")
    assert [str(a) for a in gt.assertions] == [str(a) for a in _sentence_by_sentence(prob)[1]]
    assert len(gt.assertions) == 4
