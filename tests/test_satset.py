"""Satisfying-set evaluation against a nested-loop reference.

Expected values for the worked examples were first computed by hand and
cross-checked with `enumerate_satset`, then frozen here.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from randgen import enumerate_satset, random_formula, random_structure
from sli import bittensor, grounder, satset
from sli.bench import BenchSpec, generate
from sli.bittensor import BitTensor, Shape
from sli.errors import (
    ArithmeticOverflow,
    BitBudgetOverflow,
    GroundingTimeout,
    IndexOutOfRange,
    UninterpretedSymbol,
    UnknownVariable,
)
from sli.logic import (
    And,
    Arith,
    Atom,
    Compare,
    EnumType,
    Exists,
    ForAll,
    FuncSig,
    FunctionApp,
    FunctionTable,
    IntConstant,
    Interval,
    Not,
    Or,
    Structure,
    Variable,
    Vocabulary,
    check_models,
    free_variables,
)
from sli.satset import SatSetEvaluator, eval_sat_set


def two_pred_structure():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["p"] = ("T", "T")
    voc.predicates["q"] = ("T", "T")
    return Structure(
        voc,
        {"T": ("a", "b")},
        {"p": frozenset({(0, 0), (1, 0)}), "q": frozenset({(0, 1), (0, 0)})},
        {},
    )


def cover_structure():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["p"] = ("T",)
    voc.predicates["q"] = ("T",)
    return Structure(
        voc,
        {"T": ("a", "b", "c")},
        {"p": frozenset({(1,)}), "q": frozenset({(1,), (2,)})},
        {},
    )


def test_two_pred_conjunction_example():
    s = two_pred_structure()
    x, y = Variable("x", "T"), Variable("y", "T")
    f = And((Atom("p", (x, y)), Not(Atom("q", (x, y)))))
    out = eval_sat_set(f, (x, y), s)
    assert out.tuples() == {(1, 0)}
    ev = SatSetEvaluator(s)
    assert ev.eval(Atom("p", (x, y))).dump() == "x:2 y:2\n10\n10"
    assert ev.eval(Not(Atom("q", (x, y)))).dump() == "x:2 y:2\n00\n11"
    assert out.tensor.dump() == "x:2 y:2\n00\n10"


def test_union_and_axis_insertion_example():
    s = cover_structure()
    x, y = Variable("x", "T"), Variable("y", "T")
    ev = SatSetEvaluator(s)
    union = ev.eval(Or((Atom("p", (x,)), Atom("q", (x,)))))
    assert union.dump() == "x:3\n011"
    # widening to (y, x) replicates along the new leading axis
    widened = ev.eval_over(Atom("q", (x,)), (y, x))
    assert widened.dump() == "y:3 x:3\n011\n011\n011"
    # same set presented over (x, y) instead: a transpose
    transposed = ev.eval_over(Atom("q", (x,)), (x, y))
    assert transposed.dump() == "x:3 y:3\n000\n111\n111"
    conj = ev.eval(And((Atom("p", (y,)), Atom("q", (x,)))))
    assert conj.shape.vars == (y, x)
    assert set(conj.iter_ones()) == {(1, 1), (1, 2)}


def test_quantifier_collapse_matches_reference():
    s = two_pred_structure()
    x, y = Variable("x", "T"), Variable("y", "T")
    body = Or((Atom("p", (x, y)), Atom("q", (x, y))))
    for quant in (ForAll, Exists):
        f = quant(y, body)
        got = eval_sat_set(f, (x,), s).tuples()
        assert got == enumerate_satset(f, (x,), s)
    sentence = Exists(x, Exists(y, And((Atom("p", (x, y)), Not(Atom("q", (x, y)))))))
    sent_set = eval_sat_set(sentence, (), s)
    assert sent_set.tuples() == {()}
    assert check_models(s, sentence)
    all_sent = ForAll(x, ForAll(y, Or((Atom("p", (x, y)), Atom("q", (x, y))))))
    assert eval_sat_set(all_sent, (), s).tuples() == set()
    assert not check_models(s, all_sent)


def test_function_arithmetic_comparison():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.functions["f"] = FuncSig(("T",), Interval(0, 9))
    voc.functions["g"] = FuncSig(("T",), Interval(0, 9))
    s = Structure(
        voc,
        {"T": ("a", "b", "c")},
        {},
        {
            "f": FunctionTable((3,), {(0,): 2, (1,): 3, (2,): 5}),
            "g": FunctionTable((3,), {(0,): 3, (1,): 2, (2,): 1}),
        },
    )
    x = Variable("x", "T")
    f = Compare(
        "=",
        Arith("+", FunctionApp("f", (x,)), FunctionApp("g", (x,))),
        IntConstant(5),
    )
    out = eval_sat_set(f, (x,), s)
    assert out.tensor.dump() == "x:3\n110"
    assert out.tuples() == enumerate_satset(f, (x,), s)


def test_interval_variables_and_nested_functions():
    from sli.logic import IntervalType

    voc = Vocabulary()
    voc.types["N"] = IntervalType("N", 3, 6)
    voc.types["T"] = EnumType("T")
    voc.predicates["lt"] = ("N", "N")
    voc.functions["h"] = FuncSig(("N",), Interval(0, 20))
    s = Structure(
        voc,
        {"T": ("a",)},
        {"lt": frozenset({(i, j) for i in range(4) for j in range(4) if i < j})},
        {"h": FunctionTable((4,), {(0,): 9, (1,): 3, (2,): 4, (3,): 9})},
    )
    n, m = Variable("n", "N"), Variable("m", "N")
    cases = [
        Atom("lt", (n, m)),
        Compare("<", n, m),
        Compare("=", FunctionApp("h", (n,)), IntConstant(9)),
        Compare(">=", Arith("*", n, IntConstant(2)), FunctionApp("h", (m,))),
        Compare("=", FunctionApp("h", (Variable("n", "N"),)), Arith("+", m, IntConstant(0))),
    ]
    for f in cases:
        vars = tuple(free_variables(f))
        assert eval_sat_set(f, vars, s).tuples() == enumerate_satset(f, vars, s)
    # atom over interval args uses index space: lt holds iff n < m as values
    got = eval_sat_set(Atom("lt", (n, m)), (n, m), s).tuples()
    assert (0, 1) in got and (1, 0) not in got


def test_atom_with_constant_and_repeated_args():
    s = two_pred_structure()
    from sli.logic import DomainConstant

    x = Variable("x", "T")
    a = DomainConstant("a", "T", 0)
    for f in (
        Atom("p", (x, a)),
        Atom("p", (a, x)),
        Atom("p", (x, x)),
        Atom("q", (a, a)),
        Compare("=", x, a),
        Compare("~=", x, x),
    ):
        vars = tuple(free_variables(f))
        assert eval_sat_set(f, vars, s).tuples() == enumerate_satset(f, vars, s)


def test_eval_over_requires_covering_vars():
    s = two_pred_structure()
    x, y = Variable("x", "T"), Variable("y", "T")
    ev = SatSetEvaluator(s)
    with pytest.raises(UnknownVariable):
        ev.eval_over(Atom("p", (x, y)), (x,))


def test_uninterpreted_atom_rejected():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["p"] = ("T",)
    s = Structure(voc, {"T": ("a",)}, {}, {})
    with pytest.raises(UninterpretedSymbol):
        eval_sat_set(Atom("p", (Variable("x", "T"),)), (Variable("x", "T"),), s)


def test_memoization_reuses_subformula_results():
    s = two_pred_structure()
    x, y = Variable("x", "T"), Variable("y", "T")
    atom = Atom("p", (x, y))
    f = And((atom, Or((atom, Not(atom)))))
    ev = SatSetEvaluator(s)
    ev.eval(f)
    assert atom in ev.memo
    assert ev.memo[atom] is ev.eval(atom)


def test_empty_domain_quantification():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.types["E"] = EnumType("E")
    voc.predicates["p"] = ("T",)
    s = Structure(voc, {"T": ("a",), "E": ()}, {"p": frozenset({(0,)})}, {})
    x, e = Variable("x", "T"), Variable("e", "E")
    from sli.logic import FALSE, TRUE

    assert eval_sat_set(ForAll(e, FALSE), (), s).tuples() == {()}
    assert eval_sat_set(Exists(e, TRUE), (), s).tuples() == set()
    f = ForAll(e, Atom("p", (x,)))
    assert eval_sat_set(f, (x,), s).tuples() == enumerate_satset(f, (x,), s) == {(0,)}


def _outcome(fn):
    """Result set, or the error class when term evaluation is undefined."""
    try:
        return fn()
    except IndexOutOfRange:
        return IndexOutOfRange


def test_randomized_against_reference():
    rng = np.random.default_rng(20260815)
    for case in range(400):
        s = random_structure(rng, max_enum_types=2, max_size=5, n_funcs=(0, 2))
        f = random_formula(rng, s, [], 3)
        vars = tuple(free_variables(f))
        got = _outcome(lambda: eval_sat_set(f, vars, s).tuples())
        want = _outcome(lambda: enumerate_satset(f, vars, s))
        assert got == want, f"case {case}: {f}"


def test_randomized_with_free_variable_scope():
    rng = np.random.default_rng(7)
    for case in range(200):
        s = random_structure(rng, max_enum_types=2, max_size=4)
        scope = []
        names = iter(("u", "v"))
        for t in list(s.voc.types)[:2]:
            if s.domain_size(t) > 0:
                scope.append(Variable(next(names), t))
        if not scope:
            continue
        f = random_formula(rng, s, scope, 2, fresh_names=("x", "y"))
        got = _outcome(lambda: eval_sat_set(f, tuple(scope), s).tuples())
        want = _outcome(lambda: enumerate_satset(f, tuple(scope), s))
        assert got == want, f"case {case}: {f}"


def test_peak_bits_tracking():
    s = cover_structure()
    x, y = Variable("x", "T"), Variable("y", "T")
    ev = SatSetEvaluator(s)
    ev.eval(And((Atom("p", (x,)), Atom("q", (y,)))))
    assert ev.peak_bits >= 9


def interval_function_structure():
    from sli.logic import IntervalType

    voc = Vocabulary()
    voc.types["N"] = IntervalType("N", 3, 6)
    voc.types["T"] = EnumType("T")
    voc.functions["h"] = FuncSig(("N",), Interval(0, 20))
    return Structure(
        voc,
        {"T": ("a", "b")},
        {},
        {"h": FunctionTable((4,), {(0,): 9, (1,): 3, (2,): 4, (3,): 9})},
    )


def test_broadcast_terms_still_check_overflow():
    # n varies along its own axis only; the product still overflows for
    # every m, and the checks see those broadcast values
    s = interval_function_structure()
    n, m = Variable("n", "N"), Variable("m", "N")
    big = Arith("*", n, IntConstant(2**61))
    with pytest.raises(ArithmeticOverflow):
        eval_sat_set(Compare("<", big, m), (n, m), s)
    with pytest.raises(ArithmeticOverflow):
        eval_sat_set(Compare("<", m, Arith("+", big, big)), (m, n), s)
    fits = Arith("*", n, IntConstant(2**59))
    got = eval_sat_set(Compare(">", fits, m), (n, m), s).tuples()
    assert got == {(i, j) for i in range(4) for j in range(4)}


def test_broadcast_terms_still_check_function_arguments():
    # h is declared over N = 3..6; n + 1 reaches 7 at n = 6, for every m
    s = interval_function_structure()
    n, m = Variable("n", "N"), Variable("m", "N")
    shifted = FunctionApp("h", (Arith("+", n, IntConstant(1)),))
    with pytest.raises(IndexOutOfRange):
        eval_sat_set(Compare("=", shifted, m), (m, n), s)
    inside = FunctionApp("h", (Arith("-", n, IntConstant(0)),))
    f = Compare("=", inside, Arith("+", m, IntConstant(6)))
    assert eval_sat_set(f, (m, n), s).tuples() == enumerate_satset(f, (m, n), s)


def test_empty_shape_skips_term_checks():
    # over an empty domain no tuple exists, so no value can overflow
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.types["E"] = EnumType("E")
    voc.functions["f"] = FuncSig(("T",), Interval(0, 9))
    s = Structure(voc, {"T": ("a",), "E": ()}, {}, {"f": FunctionTable((1,), {(0,): 9})})
    x, e = Variable("x", "T"), Variable("e", "E")
    big = Arith("*", FunctionApp("f", (x,)), IntConstant(2**62))
    with pytest.raises(ArithmeticOverflow):
        eval_sat_set(Compare("=", big, IntConstant(0)), (x,), s)
    assert eval_sat_set(Compare("=", big, e), (x, e), s).tuples() == set()


def test_evaluator_ticks_inside_long_kernels(monkeypatch):
    from sli import bittensor

    monkeypatch.setattr(bittensor, "_CHUNK_BITS", 64)
    s = cover_structure()
    x, y, z = Variable("x", "T"), Variable("y", "T"), Variable("z", "T")
    f = And((Atom("p", (x,)), Atom("q", (y,)), Atom("p", (z,))))
    calls = []

    def use(check):
        # the evaluator's own checks and its kernels' pieces
        for module in (satset, bittensor):
            monkeypatch.setattr(module, "check_deadline", check)

    use(lambda: calls.append(1))
    SatSetEvaluator(s).eval(f)
    nodes = 4
    assert len(calls) > nodes

    def check_deadline():
        calls.append(1)
        if len(calls) > nodes:
            raise GroundingTimeout("grounding exceeded its deadline")

    calls.clear()
    use(check_deadline)
    with pytest.raises(GroundingTimeout):
        SatSetEvaluator(s).eval(f)


# -- junctions ------------------------------------------------------------------------


class _PairwiseEvaluator(SatSetEvaluator):
    """Reference junctions: the accumulated tensor and the next child are
    both extended to their union and combined word by word, one pair at a
    time."""

    def _eval(self, f):
        if not isinstance(f, (And, Or)):
            return super()._eval(f)
        acc = self.eval(f.children[0])
        for c in f.children[1:]:
            b = self.eval(c)
            if acc.shape != b.shape:
                extra = tuple(v for v in b.shape.vars if v not in acc.shape.vars)
                target = acc.shape.vars + extra
                acc, b = self._extend(acc, target), self._extend(b, target)
            acc = self._track(acc.bit_and(b) if isinstance(f, And) else acc.bit_or(b))
        return acc

    def _extend(self, t, target):
        """t permuted and grown, one axis at a time, to exactly the target
        variable tuple."""
        have = t.shape.vars
        order = [have.index(v) for v in target if v in have]
        if order != sorted(order):
            t = self._track(t.permute_axes(tuple(order)))
        for pos, v in enumerate(target):
            if v not in t.shape.vars:
                t = self._track(t.insert_axis(pos, v, self.extent(v)))
        return t


def _random_junction(rng):
    """A random And/Or of 2-5 atoms, some negated, each over 1-4 of the
    variables x, y, z, w in random order, and a structure for it: each
    variable has a type of its own, of 0, 1 or an unaligned number of
    elements, and each atom a random relation."""
    extents = rng.choice((0, 1, 3, 5, 8, 9, 13), size=4, p=(0.04,) + (0.16,) * 6).tolist()
    voc = Vocabulary()
    domains = {}
    vars = []
    for name, e in zip("xyzw", extents):
        voc.types["T" + name] = EnumType("T" + name)
        domains["T" + name] = tuple(f"{name}{i}" for i in range(e))
        vars.append(Variable(name, "T" + name))
    same = rng.random() < 0.2  # every child over the same variables
    common = rng.permutation(4)[: rng.integers(1, 5)]
    relations, children = {}, []
    for i in range(int(rng.integers(2, 6))):
        picked = rng.permutation(common) if same else rng.permutation(4)[: rng.integers(1, 5)]
        args = tuple(vars[k] for k in picked)
        voc.predicates[f"p{i}"] = tuple(a.type for a in args)
        dims = tuple(extents[k] for k in picked)
        density = rng.choice((0.0, 0.3, 0.7, 1.0))
        relations[f"p{i}"] = frozenset(map(tuple, np.argwhere(rng.random(dims) < density).tolist()))
        atom = Atom(f"p{i}", args)
        children.append(Not(atom) if rng.random() < 0.3 else atom)
    junction = And if rng.random() < 0.5 else Or
    return Structure(voc, domains, relations, {}), junction(tuple(children))


@pytest.mark.parametrize("chunk_bits", [64, 4096, 2**20])
def test_junctions_match_the_pairwise_reference(monkeypatch, chunk_bits):
    """Same tensor, padding bits included, and the same peak bits, except
    over an empty union: the pairwise loop could build a nonempty union of
    the first children there, which the fused kernel never builds."""
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", chunk_bits)
    rng = np.random.default_rng(chunk_bits)
    for case in range(150):
        s, f = _random_junction(rng)
        fused, pairwise = SatSetEvaluator(s), _PairwiseEvaluator(s)
        got, want = fused.eval(f), pairwise.eval(f)
        assert got == want, f"case {case}: {f}"
        if got.shape.nbits:
            assert fused.peak_bits == pairwise.peak_bits, f"case {case}: {f}"
        else:
            assert fused.peak_bits <= pairwise.peak_bits, f"case {case}: {f}"


def test_a_junction_allocates_one_output():
    # edge(x,y) & edge(y,z) & edge(z,x) over 240 nodes: the children, at
    # n*n bits each, are evaluated first; the junction itself then holds
    # its n^3-bit output plus O(_CHUNK_BITS) scratch
    problem = generate(BenchSpec("tg", 240, seed=13))
    s, f = problem.structure, problem.sentences[0].body.body.body
    ev = SatSetEvaluator(s)
    for c in f.children:
        ev.eval(c)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ev.eval(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    packed = (out.shape.nbits + 63) // 64 * 8
    assert peak <= 1.5 * packed, (peak, packed)


def test_a_junction_over_the_budget_raises_before_allocating(monkeypatch):
    # each child fits the budget; their union is 2.16e8 bits, 27 MB packed
    monkeypatch.setattr(bittensor, "BIT_BUDGET", 10**6)
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["p"] = ("T",)
    s = Structure(voc, {"T": tuple(f"a{i}" for i in range(600))}, {"p": frozenset({(1,)})}, {})
    x, y, z = (Variable(n, "T") for n in "xyz")
    f = And((Atom("p", (x,)), Atom("p", (y,)), Not(Atom("p", (z,)))))
    ev = SatSetEvaluator(s)
    tracemalloc.start()
    try:
        with pytest.raises(BitBudgetOverflow):
            ev.eval(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def _over_budget_calls():
    """Every allocating entry point, each called to build a tensor over x
    and y of 2000 elements each, 4e6 bits, from inputs that fit 10^6."""
    x, y = Variable("x", "T"), Variable("y", "T")
    xy = Shape(((x, 2000), (y, 2000)))
    px, py = (BitTensor.full(Shape(((v, 2000),))) for v in (x, y))
    bools = np.ones(xy.nbits, dtype=bool)
    cols = (np.arange(2000).reshape(2000, 1), np.arange(2000).reshape(1, 2000))
    # p(x, y, z) over an empty z has 0 bits; !z: p(x, y, z) holds at all
    # 4e6 tuples of x and y
    voc = Vocabulary()
    voc.types["T"], voc.types["E"] = EnumType("T"), EnumType("E")
    voc.predicates["p"] = ("T", "T", "E")
    domains = {"T": tuple(f"a{i}" for i in range(2000)), "E": ()}
    s = Structure(voc, domains, {"p": frozenset()}, {})
    z = Variable("z", "E")
    return {
        "empty": lambda: BitTensor.empty(xy),
        "full": lambda: BitTensor.full(xy),
        "from_bools": lambda: BitTensor.from_bools(xy, bools),
        "from_ones": lambda: BitTensor.from_ones(xy, np.array([[0, 0], [1999, 3]])),
        "insert_axis": lambda: px.insert_axis(1, y, 2000),
        "junction": lambda: bittensor.junction((px, py), True),
        "pack_pointwise": lambda: bittensor.pack_pointwise(xy, np.less, cols),
        "reduce_over_an_empty_axis": lambda: SatSetEvaluator(s).eval(
            ForAll(z, Atom("p", (x, y, z)))
        ),
    }


@pytest.mark.parametrize(
    "entry",
    [
        "empty",
        "full",
        "from_bools",
        "from_ones",
        "insert_axis",
        "junction",
        "pack_pointwise",
        "reduce_over_an_empty_axis",
    ],
)
def test_every_allocating_entry_point_checks_the_one_budget(monkeypatch, entry):
    """With bittensor.BIT_BUDGET set to 10^6, each entry point refuses a
    4e6-bit tensor, naming the budget it read, before allocating any of
    its 500 kB of packed words."""
    call = _over_budget_calls()[entry]
    monkeypatch.setattr(bittensor, "BIT_BUDGET", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(BitBudgetOverflow) as err:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "tensor of 4000000 bits exceeds budget of 1000000"
    assert peak < 50_000, peak


def test_a_deadline_stops_a_junction_partway(monkeypatch):
    """On a fake clock that advances one second per reading, a deadline
    set to pass midway through the replication of the last child into the
    triangle junction's output stops that kernel there: it checks the
    deadline once per piece."""
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", 256)
    problem = generate(BenchSpec("tg", 30, seed=13))
    now = [0]

    def monotonic():
        now[0] += 1
        return now[0]

    monkeypatch.setattr(bittensor, "time", SimpleNamespace(monotonic=monotonic))
    fused = []  # [readings at entry, at exit] of each replication into an output
    original = BitTensor.insert_axis

    def insert_axis(self, *args, **kwargs):
        if "out" not in kwargs:
            return original(self, *args, **kwargs)
        fused.append([now[0], None])
        original(self, *args, **kwargs)
        fused[-1][1] = now[0]

    monkeypatch.setattr(BitTensor, "insert_axis", insert_axis)
    grounder.ground_problem(problem, "vec", timeout=10**6)
    start, end = fused[-1]
    assert end - start > 2
    now[0] = 0
    fused.clear()
    with pytest.raises(GroundingTimeout):
        grounder.ground_problem(problem, "vec", timeout=(start + end) // 2)
    assert fused[-1][1] is None


# -- slabs ------------------------------------------------------------------------------


@pytest.mark.parametrize("slab_bits", [64, 4096])
def test_slabs_put_together_equal_the_whole_tensor(monkeypatch, slab_bits):
    """A random junction over a random block order of all four variables,
    so some are mentioned by no child, evaluated slab by slab as the
    evaluator cuts it for vec: the slabs' rows, put together, are the
    one-slab tensor's, each slab's padding bits are zero, and peak_bits
    is the whole tensor's either way."""
    monkeypatch.setattr(satset, "_SLAB_BITS", slab_bits)
    rng = np.random.default_rng(slab_bits)
    cut = 0
    for case in range(150):
        s, f = _random_junction(rng)
        block = tuple(Variable(n, "T" + n) for n in rng.permutation(list("xyzw")))
        whole_ev = SatSetEvaluator(s)
        whole = whole_ev.eval_over(f, block)
        ev = SatSetEvaluator(s)
        slabs = list(ev.slabs(f, block))
        cut += len(slabs) > 1
        rows, at = [], 0
        for lo, slab in slabs:
            assert lo == at and slab.shape.axes[1:] == whole.shape.axes[1:], f"case {case}"
            padded = BitTensor.from_bools(slab.shape, slab.to_bools())
            assert slab == padded, f"case {case}: padding"
            rows.append(slab.to_bools())
            at += slab.shape.extents[0]
        assert at == whole.shape.extents[0], f"case {case}"
        if not slabs:  # an empty first variable has no rows to evaluate
            assert not whole.shape.nbits, f"case {case}"
            continue
        assert BitTensor.from_bools(whole.shape, np.concatenate(rows)) == whole, f"case {case}"
        assert ev.peak_bits == whole_ev.peak_bits, f"case {case}"
    assert cut >= 5, cut


def test_eval_over_returns_a_part_in_order_as_it_is():
    # queens' shared x ~= y: the memoized tensor itself, not a copy
    s = cover_structure()
    x, y = Variable("x", "T"), Variable("y", "T")
    f = Compare("~=", x, y)
    ev = SatSetEvaluator(s)
    assert ev.eval_over(f, (x, y)) is ev.eval(f)
    assert ev.eval_over(f, (y, x)) == ev.eval(Compare("~=", y, x))


def test_an_empty_junction_is_its_unit():
    s = cover_structure()
    x = Variable("x", "T")
    ev = SatSetEvaluator(s)
    assert ev.eval(And(())) == BitTensor.full(Shape(()))
    assert ev.eval(Or(())) == BitTensor.empty(Shape(()))
    assert ev.eval_over(And(()), (x,)).popcount() == ev.extent(x)
    assert not ev.eval_over(Or(()), (x,)).any()


def test_the_relation_fast_path_packs_the_tuples_unsorted():
    """An atom over distinct variables in shape order sets its relation's
    tuples as bits straight from their unsorted array, and builds no
    keyed relation: the tensor is the one from_ones gives on the sorted
    tuples, over 1 to 3 arguments and for an empty relation."""
    rng = np.random.default_rng(11)
    for arity in (1, 2, 3):
        for k in (0, 1, 7, 60):
            voc = Vocabulary()
            voc.types["T"] = EnumType("T")
            voc.predicates["r"] = ("T",) * arity
            rel = frozenset(tuple(rng.integers(0, 5, arity).tolist()) for _ in range(k))
            s = Structure(voc, {"T": ("a", "b", "c", "d", "e")}, {"r": rel}, {})
            vars = tuple(Variable(n, "T") for n in "xyz"[:arity])
            ev = SatSetEvaluator(s)
            got = ev.eval(Atom("r", vars))
            assert not ev._relations
            rows = np.array(sorted(rel), dtype=np.int64).reshape(len(rel), arity)
            assert got == BitTensor.from_ones(ev.shape_for(vars), rows)
            assert set(got.iter_ones()) == rel


def test_relation_rows_are_a_view_of_its_buffer():
    """_rows hands the kernels the relation's own int64 buffer, read-only
    and in its order, without building an array per call."""
    s = two_pred_structure()
    ev = SatSetEvaluator(s)
    rows = ev._rows("p", 2)
    p = s.relations["p"]
    assert rows.shape == (2, 2) and rows.dtype == np.int64
    assert rows.tolist() == [list(t) for t in p]
    assert np.shares_memory(rows, np.frombuffer(p.buffer, dtype=np.int64))
    assert not rows.flags.writeable
    empty = Structure(s.voc, s.domains, {"p": frozenset(), "q": frozenset()}, {})
    assert SatSetEvaluator(empty)._rows("q", 2).shape == (0, 2)
