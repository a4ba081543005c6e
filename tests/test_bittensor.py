"""Kernel tests for packed bit tensors against a tuple-set oracle.

The oracle stores an explicit {index tuple: bool} mapping and implements
every operation by plain iteration, sharing nothing with the packed
implementation.
"""

import collections
import functools
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sli import bittensor
from sli.bittensor import BIT_BUDGET, BitTensor, Shape, ValueTensor, check_deadline, deadline
from sli.errors import (
    ArithmeticOverflow,
    BitBudgetOverflow,
    DuplicateVariable,
    GroundingTimeout,
    IndexOutOfRange,
    InvalidPermutation,
    ShapeMismatch,
    UnknownVariable,
)
from sli.logic import Variable


def v(name):
    return Variable(name, "T")


def tuple_rows(ones, arity):
    """Index tuples as the int64 array of one tuple per row that
    BitTensor.from_ones takes."""
    return np.array(ones, dtype=np.int64).reshape(len(ones), arity)


class RefBits:
    """Reference tensor: explicit dict over the full index space."""

    def __init__(self, extents, mapping):
        self.extents = tuple(extents)
        self.mapping = dict(mapping)

    @staticmethod
    def of(tensor: BitTensor) -> "RefBits":
        extents = tensor.shape.extents
        mapping = {}
        for idx in itertools.product(*(range(e) for e in extents)):
            mapping[idx] = tensor.get(idx)
        return RefBits(extents, mapping)

    def tuples(self):
        return {k for k, b in self.mapping.items() if b}

    def bit_and(self, other):
        return RefBits(self.extents, {k: b and other.mapping[k] for k, b in self.mapping.items()})

    def bit_or(self, other):
        return RefBits(self.extents, {k: b or other.mapping[k] for k, b in self.mapping.items()})

    def bit_not(self):
        return RefBits(self.extents, {k: not b for k, b in self.mapping.items()})

    def insert_axis(self, pos, extent):
        extents = self.extents[:pos] + (extent,) + self.extents[pos:]
        mapping = {}
        for idx in itertools.product(*(range(e) for e in extents)):
            src = idx[:pos] + idx[pos + 1 :]
            mapping[idx] = self.mapping[src]
        return RefBits(extents, mapping)

    def permute(self, perm):
        extents = tuple(self.extents[p] for p in perm)
        mapping = {}
        for idx, b in self.mapping.items():
            mapping[tuple(idx[p] for p in perm)] = b
        return RefBits(extents, mapping)

    def reduce(self, k, conj):
        extents = self.extents[:k] + self.extents[k + 1 :]
        mapping = {}
        for idx in itertools.product(*(range(e) for e in extents)):
            runs = [
                self.mapping[idx[:k] + (i,) + idx[k:]] for i in range(self.extents[k])
            ]
            mapping[idx] = all(runs) if conj else any(runs)
        return RefBits(extents, mapping)

    def popcount(self):
        return sum(1 for b in self.mapping.values() if b)


def random_shape(rng, max_axes=3, max_extent=6, allow_zero=False):
    n = int(rng.integers(0, max_axes + 1))
    lo = 0 if allow_zero else 1
    names = ["x", "y", "z", "w"]
    return Shape(
        tuple((v(names[i]), int(rng.integers(lo, max_extent + 1))) for i in range(n))
    )


def random_tensor(rng, shape):
    bools = rng.random(shape.nbits) < 0.5
    return BitTensor.from_bools(shape, bools)


def same(t: BitTensor, r: RefBits):
    assert t.shape.extents == r.extents
    return RefBits.of(t).mapping == r.mapping


def test_scalar_tensors_hold_one_bit():
    s = Shape(())
    assert BitTensor.empty(s).shape.nbits == 1
    assert not BitTensor.empty(s).get(())
    assert BitTensor.full(s).get(())
    assert list(BitTensor.full(s).iter_ones()) == [()]
    assert list(BitTensor.empty(s).iter_ones()) == []


def test_padding_bits_stay_zero_after_not():
    s = Shape(((v("x"), 3),))
    t = BitTensor.empty(s).bit_not()
    assert t.words[0] == np.uint64(0b111)
    assert t.popcount() == 3


def test_any_sees_only_a_set_bit():
    """any() is false on empty tensors, on a zero-extent shape of no words
    and on a scalar without its bit, and true when only the last valid bit
    is set, in a word of its own or at the end of a partial one."""
    x, y = v("x"), v("y")
    assert not BitTensor.empty(Shape(())).any()
    assert BitTensor.full(Shape(())).any()
    for extents in [(0,), (5, 0), (0, 64)]:
        shape = Shape(tuple(zip((x, y), extents)))
        assert BitTensor.empty(shape).words.size == 0
        assert not BitTensor.empty(shape).any() and not BitTensor.full(shape).any()
    for extents in [(1,), (63,), (64,), (65,), (20, 900), (2**12, 2**12)]:
        shape = Shape(tuple(zip((x, y), extents)))
        assert not BitTensor.empty(shape).any()
        last = tuple(e - 1 for e in extents)
        t = BitTensor.from_ones(shape, tuple_rows([last], len(extents)))
        assert t.popcount() == 1 and t.any()


def test_connectives_and_structure_match_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        shape = random_shape(rng, allow_zero=True)
        a = random_tensor(rng, shape)
        b = random_tensor(rng, shape)
        ra, rb = RefBits.of(a), RefBits.of(b)
        assert same(a & b, ra.bit_and(rb))
        assert same(a | b, ra.bit_or(rb))
        assert same(~a, ra.bit_not())
        assert a.popcount() == ra.popcount()
        assert set(a.iter_ones()) == ra.tuples()

        m = len(shape.axes)
        pos = int(rng.integers(0, m + 1))
        ext = int(rng.integers(0, 5))
        grown = a.insert_axis(pos, v("n"), ext)
        assert same(grown, ra.insert_axis(pos, ext))

        if m:
            perm = tuple(rng.permutation(m).tolist())
            assert same(a.permute_axes(perm), ra.permute(perm))
            k = int(rng.integers(0, m))
            var = shape.axes[k][0]
            assert same(a.reduce_all(var), ra.reduce(k, True))
            assert same(a.reduce_any(var), ra.reduce(k, False))


def test_reduce_word_aligned_path_matches_oracle():
    rng = np.random.default_rng(7)
    shape = Shape(((v("x"), 3), (v("y"), 2), (v("z"), 64)))
    t = random_tensor(rng, shape)
    r = RefBits.of(t)
    # trailing block of 64 bits stays on packed words
    assert same(t.reduce_all(v("y")), r.reduce(1, True))
    assert same(t.reduce_any(v("y")), r.reduce(1, False))
    assert same(t.reduce_all(v("x")), r.reduce(0, True))


def test_de_morgan_and_reduce_duality():
    rng = np.random.default_rng(99)
    for _ in range(100):
        shape = random_shape(rng)
        a = random_tensor(rng, shape)
        b = random_tensor(rng, shape)
        assert ~(a & b) == (~a) | (~b)
        assert ~(a | b) == (~a) & (~b)
        for var in shape.vars:
            assert a.reduce_all(var) == (~((~a).reduce_any(var)))


def test_permutation_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        shape = random_shape(rng)
        m = len(shape.axes)
        if not m:
            continue
        a = random_tensor(rng, shape)
        perm = tuple(rng.permutation(m).tolist())
        inverse = tuple(int(x) for x in np.argsort(perm))
        assert a.permute_axes(perm).permute_axes(inverse) == a


def test_insert_axis_multiplies_popcount():
    rng = np.random.default_rng(5)
    for _ in range(100):
        shape = random_shape(rng)
        a = random_tensor(rng, shape)
        pos = int(rng.integers(0, len(shape.axes) + 1))
        ext = int(rng.integers(1, 5))
        assert a.insert_axis(pos, v("n"), ext).popcount() == a.popcount() * ext


def test_iter_ones_is_lexicographic():
    shape = Shape(((v("x"), 3), (v("y"), 2)))
    t = BitTensor.from_ones(shape, tuple_rows([(2, 1), (0, 0), (1, 0), (0, 1)], 2))
    assert list(t.iter_ones()) == [(0, 0), (0, 1), (1, 0), (2, 1)]


def test_reduce_collapse_example():
    # rows y=a..c over columns x=a..c: [111, 100, 110]; collapsing y by AND
    # keeps the columns set everywhere: [100]; by OR: [111]
    x, y = Variable("x", "T"), Variable("y", "T")
    shape = Shape(((y, 3), (x, 3)))
    t = BitTensor.from_bools(shape, np.array([1, 1, 1, 1, 0, 0, 1, 1, 0], dtype=bool))
    assert t.dump() == "y:3 x:3\n111\n100\n110"
    assert t.reduce_all(y).dump() == "x:3\n100"
    assert t.reduce_any(y).dump() == "x:3\n111"


def test_value_tensor_compare_example():
    # pointwise f(x)+g(x) = 5 over f=[2,3,5], g=[3,2,1] gives 110
    x = Variable("x", "T")
    shape = Shape(((x, 3),))
    f = ValueTensor(shape, np.array([2, 3, 5]))
    g = ValueTensor(shape, np.array([3, 2, 1]))
    total = f.val_map2("+", g)
    assert total.values.tolist() == [5, 5, 6]
    five = ValueTensor.constant(shape, 5)
    assert total.val_compare("=", five).dump() == "x:3\n110"


def test_value_tensor_overflow_checked():
    x = Variable("x", "T")
    shape = Shape(((x, 2),))
    big = ValueTensor(shape, np.array([2**62, 1]))
    with pytest.raises(ArithmeticOverflow):
        big.val_map2("*", ValueTensor.constant(shape, 4))
    with pytest.raises(ArithmeticOverflow):
        big.val_map2("+", big)
    ok = big.val_map2("-", big)
    assert ok.values.tolist() == [0, 0]


def test_gather_bounds_checked():
    x = Variable("x", "T")
    shape = Shape(((x, 3),))
    idx = ValueTensor(shape, np.array([0, 2, 1]))
    table = np.array([10, 20, 30], dtype=np.int64)
    assert idx.gather(table).values.tolist() == [10, 30, 20]
    with pytest.raises(IndexOutOfRange):
        ValueTensor(shape, np.array([0, 3, 1])).gather(table)


def test_axis_values_broadcast():
    x, y = Variable("x", "T"), Variable("y", "T")
    shape = Shape(((x, 2), (y, 3)))
    t = ValueTensor.axis_values(shape, y, np.arange(3))
    assert t.values.tolist() == [0, 1, 2, 0, 1, 2]
    t = ValueTensor.axis_values(shape, x, np.arange(2))
    assert t.values.tolist() == [0, 0, 0, 1, 1, 1]


def test_bit_budget_enforced():
    s = Shape(((v("x"), 2**30), (v("y"), 2**10)))
    with pytest.raises(BitBudgetOverflow):
        BitTensor.empty(s)
    assert s.nbits > BIT_BUDGET


def test_shape_and_kernel_errors():
    a = BitTensor.empty(Shape(((v("x"), 2),)))
    b = BitTensor.empty(Shape(((v("x"), 3),)))
    with pytest.raises(ShapeMismatch):
        a.bit_and(b)
    with pytest.raises(DuplicateVariable):
        Shape(((v("x"), 2), (v("x"), 3)))
    with pytest.raises(DuplicateVariable):
        a.insert_axis(0, v("x"), 2)
    with pytest.raises(InvalidPermutation):
        a.permute_axes((1,))
    with pytest.raises(UnknownVariable):
        a.reduce_all(v("q"))
    # a child whose extent differs from the output's, over every output
    # variable (one word each, which numpy would broadcast) or fewer
    wide = BitTensor.full(Shape(((v("x"), 100),)))
    y = BitTensor.full(Shape(((v("y"), 2),)))
    for children, axes in [
        ((wide, a), None),
        ((a, wide), wide.shape.axes),
        ((y, a), wide.shape.axes + y.shape.axes),
    ]:
        with pytest.raises(ShapeMismatch):
            bittensor.junction(children, False, axes)


# -- differential tests against whole-tensor bool-array references ----------
#
# The references below are the straightforward algorithms: unpack every bit
# to a bool, transform with numpy, pack again.  The kernels must agree with
# them bit for bit while working piecewise on the packed words.


def ref_insert(t, pos, extent):
    bools = t.to_bools()
    inner = int(np.prod(t.shape.extents[pos:], dtype=np.int64))
    if inner and bools.size:
        out = np.repeat(bools.reshape(-1, inner), extent, axis=0).ravel()
    else:
        out = np.zeros(0, dtype=bool)
    return BitTensor.from_bools(t.shape.insert(pos, v("n"), extent), out)


def check_insert(rng, t, pos, extent):
    """insert_axis into a fresh tensor, assigned over random words
    (padding bits included), and ANDed and ORed in place into a random
    tensor of the output shape, against ref_insert."""
    want = ref_insert(t, pos, extent)
    assert t.insert_axis(pos, v("n"), extent) == want
    out = rng.integers(0, 2**64, want.words.size, dtype=np.uint64)
    assert t.insert_axis(pos, v("n"), extent, out=out) is None
    assert np.array_equal(out, want.words)
    base = random_density_tensor(rng, want.shape)
    for op in (np.bitwise_and, np.bitwise_or):
        out = base.words.copy()
        assert t.insert_axis(pos, v("n"), extent, out=out, op=op) is None
        assert BitTensor(want.shape, out) == BitTensor(want.shape, op(base.words, want.words))


def ref_permute(t, perm):
    out = t.to_bools().reshape(t.shape.extents).transpose(perm)
    return BitTensor.from_bools(Shape(tuple(t.shape.axes[p] for p in perm)), out)


def ref_reduce(t, k, conj):
    arr = t.to_bools().reshape(t.shape.extents)
    out = arr.all(axis=k) if conj else arr.any(axis=k)
    return BitTensor.from_bools(t.shape.drop(k), out)


def ref_iter_ones(t):
    if not t.shape.axes:
        return [()] if t.get(()) else []
    flat = np.flatnonzero(t.to_bools())
    return list(zip(*(c.tolist() for c in np.unravel_index(flat, t.shape.extents))))


# extents that make the trailing block of a kernel word-aligned, byte-aligned
# or unaligned, plus empty and singleton axes
EXTENTS = (0, 1, 2, 3, 5, 7, 8, 13, 24, 64, 65, 100, 128)


def random_kernel_shape(rng, max_bits=40000):
    names = ["x", "y", "z", "w"]
    while True:
        m = int(rng.integers(0, 5))
        extents = [int(rng.choice(EXTENTS)) for _ in range(m)]
        if int(np.prod(extents, dtype=np.int64)) <= max_bits:
            return Shape(tuple((v(names[i]), e) for i, e in enumerate(extents)))


def random_density_tensor(rng, shape):
    density = float(rng.choice((0.0, 0.02, 0.5, 1.0)))
    return BitTensor.from_bools(shape, rng.random(shape.nbits) < density)


def piece_sizes(chunks, caps):
    """(_CHUNK_BITS, _SLAB_BITS) parameters: each chunk size at the default
    write cap, with its plain id, and at each small write cap, so that
    pieces cut outer rows, repetitions and long byte blocks."""
    return [pytest.param(c, bittensor._SLAB_BITS, id=str(c)) for c in chunks] + [
        pytest.param(c, cap, id=f"{c}-writes{cap}") for c in chunks for cap in caps
    ]


@pytest.mark.parametrize("chunk_bits, slab_bits", piece_sizes([64, 100, 4096, 2**20], [64, 1000]))
def test_kernels_match_bool_references(monkeypatch, chunk_bits, slab_bits):
    """Random shapes, with small chunk sizes and write caps so that
    multi-piece loops, piece boundaries inside rows and rows longer than
    a piece all run."""
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(bittensor, "_SLAB_BITS", slab_bits)
    rng = np.random.default_rng(chunk_bits)
    bases = np.random.default_rng(chunk_bits + 1)
    for _ in range(120):
        shape = random_kernel_shape(rng)
        t = random_density_tensor(rng, shape)
        m = len(shape.axes)
        pos = int(rng.integers(0, m + 1))
        extent = int(rng.choice((0, 1, 2, 3, 8, 9)))
        check_insert(bases, t, pos, extent)
        assert list(t.iter_ones()) == ref_iter_ones(t)
        assert BitTensor.from_ones(shape, tuple_rows(ref_iter_ones(t), m)) == t
        if m:
            perm = tuple(rng.permutation(m).tolist())
            assert t.permute_axes(perm) == ref_permute(t, perm)
            k = int(rng.integers(0, m))
            assert t.reduce_all(shape.axes[k][0]) == ref_reduce(t, k, True)
            assert t.reduce_any(shape.axes[k][0]) == ref_reduce(t, k, False)


@pytest.mark.parametrize("chunk_bits, slab_bits", piece_sizes([64, 2**20], [64, 1000]))
def test_kernel_paths_on_chosen_shapes(monkeypatch, chunk_bits, slab_bits):
    """Each aligned and unaligned path on a shape picked to reach it."""
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(bittensor, "_SLAB_BITS", slab_bits)
    rng = np.random.default_rng(11)
    bases = np.random.default_rng(12)
    cases = [
        ((3, 64), 0),  # word-aligned inner
        ((5, 24), 1),  # byte-aligned inner
        ((7, 13), 1),  # unaligned inner
        ((7, 13), 2),  # single-bit rows: byte patterns looked up
        ((11, 3), 1),
        ((2, 3, 5), 1),
        ((300,), 0),  # rows longer than a 64-bit piece
        ((3, 130), 1),
        ((130, 3), 2),
        ((0, 5), 1),
        ((), 0),
    ]
    for extents, pos in cases:
        shape = Shape(tuple((v(n), e) for n, e in zip("xyz", extents)))
        for density in (0.0, 0.3, 1.0):
            t = BitTensor.from_bools(shape, rng.random(shape.nbits) < density)
            for extent in (1, 3, 8, 70):
                check_insert(bases, t, pos, extent)
            for perm in itertools.permutations(range(len(extents))):
                assert t.permute_axes(perm) == ref_permute(t, perm)
            for k in range(len(extents)):
                for conj in (True, False):
                    assert t._reduce(shape.axes[k][0], conj) == ref_reduce(t, k, conj)
            assert list(t.iter_ones()) == ref_iter_ones(t)


def _chunked_ones(t):
    """iter_ones_chunks concatenated, each chunk checked for its bound."""
    out = []
    for coords in t.iter_ones_chunks():
        assert coords.shape[0] == len(t.shape.axes)
        assert 0 < coords.shape[1] <= max(64, bittensor._CHUNK_BITS // 64)
        out.extend(map(tuple, coords.T.tolist()))
    return out


@pytest.mark.parametrize("chunk_bits", [64, 4096, 2**20])
def test_ones_chunks_concatenate_to_the_ones(monkeypatch, chunk_bits):
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", chunk_bits)
    rng = np.random.default_rng(chunk_bits + 1)
    shapes = [random_kernel_shape(rng) for _ in range(60)]
    for extents in [(), (0,), (1,), (64,), (65,), (3, 64), (7, 13), (30, 1000), (2, 3, 5)]:
        shapes.append(Shape(tuple((v(n), e) for n, e in zip("xyz", extents))))
    for shape in shapes:
        for t in (random_density_tensor(rng, shape), BitTensor.full(shape)):
            assert _chunked_ones(t) == ref_iter_ones(t)
            assert list(t.iter_ones()) == ref_iter_ones(t)
    # runs of ones across the word and piece boundaries of small chunks:
    # bits 60..200 cross words 0..3, and 8 words make a piece at 64
    shape = Shape(((v("x"), 30), (v("y"), 100)))
    bools = np.zeros(shape.nbits, dtype=bool)
    bools[60:201] = True
    bools[8 * 64 - 5 : 8 * 64 + 70] = True
    t = BitTensor.from_bools(shape, bools)
    assert _chunked_ones(t) == ref_iter_ones(t)


def test_from_ones_sets_repeated_and_edge_bits():
    shape = Shape(((v("x"), 3), (v("y"), 43)))
    ones = [(2, 42), (0, 0), (2, 42), (1, 20), (0, 63 - 43)]
    want = np.zeros(shape.nbits, dtype=bool)
    for i, j in ones:
        want[i * 43 + j] = True
    assert BitTensor.from_ones(shape, tuple_rows(ones, 2)) == BitTensor.from_bools(shape, want)


@pytest.mark.parametrize("chunk_bits", [64, 448, 2**20])
def test_from_ones_takes_an_array_of_tuples(monkeypatch, chunk_bits):
    """An int64 array of one tuple per row, unsorted and with repeats,
    gives the tensor from_bools gives with the same tuples set, over 1 to
    3 axes and with no tuples; at 64 and 448 chunk bits the tuples are
    taken 1 and 7 rows at a time."""
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", chunk_bits)
    rng = np.random.default_rng(chunk_bits)
    for axes in (1, 2, 3):
        for k in (0, 1, 5, 40):
            shape = Shape(tuple((v("xyz"[i]), int(rng.integers(1, 9))) for i in range(axes)))
            ones = [tuple(int(rng.integers(0, e)) for e in shape.extents) for _ in range(k)]
            ones += ones[: k // 2]
            rng.shuffle(ones)
            bools = np.zeros(shape.extents, dtype=bool)
            for idx in ones:
                bools[idx] = True
            got = BitTensor.from_ones(shape, tuple_rows(ones, axes))
            assert got == BitTensor.from_bools(shape, bools)
            assert set(got.iter_ones()) == set(ones)


@pytest.mark.parametrize("chunk_bits", [64, 100, 4096, 2**20])
def test_slab_matches_the_rows_of_the_whole_tensor(monkeypatch, chunk_bits):
    """slab(lo, hi) holds exactly rows lo..hi-1 of the leading axis, its
    padding bits zero; rows outside the leading axis are refused."""
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", chunk_bits)
    rng = np.random.default_rng(chunk_bits)
    for _ in range(120):
        shape = random_kernel_shape(rng)
        if not shape.axes:
            continue
        t = random_density_tensor(rng, shape)
        e = shape.extents[0]
        lo = int(rng.integers(0, e + 1))
        hi = int(rng.integers(lo, e + 1))
        s = t.slab(lo, hi)
        assert s.shape.axes == ((shape.vars[0], hi - lo),) + shape.axes[1:]
        rows = t.to_bools().reshape(shape.extents)[lo:hi]
        assert np.array_equal(s.to_bools(), rows.ravel())
        nbits = s.shape.nbits
        if nbits % 64:
            assert not s.words[-1] >> np.uint64(nbits % 64), "padding"
    with pytest.raises(IndexOutOfRange):
        t.slab(0, e + 1)
    with pytest.raises(IndexOutOfRange):
        t.slab(1, 0)


@pytest.mark.parametrize("chunk_bits", [1, 8, 100, 4096])
def test_pack_pointwise_matches_numpy(monkeypatch, chunk_bits):
    """Pieces cut within a row, when one row is longer than a piece, put
    every bit where the whole array would."""
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", chunk_bits)
    rng = np.random.default_rng(chunk_bits)
    for _ in range(60):
        shape = random_kernel_shape(rng, max_bits=5000)
        arrays = [
            rng.integers(0, 3, size=[e if rng.random() < 0.6 else 1 for e in shape.extents])
            for _ in range(2)
        ]
        want = np.broadcast_to(np.less(*arrays), shape.extents)
        assert bittensor.pack_pointwise(shape, np.less, arrays) == BitTensor.from_bools(
            shape, want
        )


def test_pack_pointwise_holds_a_piece_of_a_long_row():
    """A comparison over (x: 1, y: 2**23) is one row of 2**23 bits: it is
    computed in pieces of _CHUNK_BITS bools, so the peak stays near the
    1 MiB packed output, not at the 8 MiB of a byte per bit."""
    n = 2**23
    shape = Shape(((v("x"), 1), (v("y"), n)))
    a = np.ones((1, 1), dtype=np.uint8)
    b = (np.arange(n) % 3).astype(np.uint8).reshape(1, n)
    out = []
    peak = _peak_bytes(lambda: out.append(bittensor.pack_pointwise(shape, np.less, (a, b))))
    assert out[0].popcount() == np.count_nonzero(b == 2)
    assert peak <= _packed(n) + 3 * bittensor._CHUNK_BITS, peak


# -- memory bound --------------------------------------------------------------


def _peak_bytes(fn):
    """Peak bytes traced while fn runs, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _packed(nbits):
    return (nbits + 63) // 64 * 8


def test_structural_kernels_allocate_packed_sizes(monkeypatch):
    """On a tensor of about 2**22 bits, no kernel's scratch exceeds a few
    times _CHUNK_BITS bytes: unpacking the tensor to one byte per bit
    would cost 4 MiB, several times the bound."""
    chunk = 2**16
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", chunk)
    scratch = 4 * chunk
    rng = np.random.default_rng(5)
    x, y, z = v("x"), v("y"), v("z")
    odd = BitTensor.from_bools(Shape(((x, 2048), (y, 2049))), rng.random(2048 * 2049) < 0.5)
    even = BitTensor.from_bools(Shape(((x, 2048), (y, 2048))), rng.random(2048 * 2048) < 0.5)
    cube = BitTensor.from_bools(
        Shape(((x, 128), (y, 128), (z, 256))), rng.random(2**22) < 0.5
    )
    sparse = BitTensor.from_bools(odd.shape, rng.random(odd.shape.nbits) < 0.05)
    kernels = [
        (odd, lambda: odd.insert_axis(0, z, 3)),  # one row longer than a piece
        (odd, lambda: odd.insert_axis(1, z, 3)),  # unaligned rows in pieces
        (odd, lambda: odd.insert_axis(2, z, 3)),  # single-bit rows
        (even, lambda: even.insert_axis(1, z, 3)),  # byte-aligned rows
        (odd, lambda: odd.permute_axes((1, 0))),  # per-bit gather
        (cube, lambda: cube.permute_axes((1, 0, 2))),  # byte blocks
        (odd, lambda: odd.reduce_all(x)),  # slices longer than a piece
        (odd, lambda: odd.reduce_any(y)),  # short slices in pieces
        (cube, lambda: cube.reduce_all(y)),  # word-aligned
        (sparse, lambda: collections.deque(sparse.iter_ones(), maxlen=0)),
    ]
    for t, run in kernels:
        out = []
        peak = _peak_bytes(lambda: out.append(run()))
        result = out[0]
        out_bytes = _packed(result.shape.nbits) if isinstance(result, BitTensor) else 0
        assert peak <= _packed(t.shape.nbits) + out_bytes + scratch, (t, peak)
    rows = tuple_rows(list(sparse.iter_ones()), 2)
    peak = _peak_bytes(lambda: BitTensor.from_ones(sparse.shape, rows))
    assert peak <= _packed(sparse.shape.nbits) + scratch
    # a triangle slab's inserts into a given output: 20x900 replicated 900
    # times at axis 1 (byte-aligned pairs of rows) and at axis 2 (bytes
    # looked up), assigned over it and ANDed and ORed into it in place
    slab = BitTensor.from_bools(Shape(((x, 20), (y, 900))), rng.random(18000) < 0.5)
    for pos in (1, 2):
        want = ref_insert(slab, pos, 900)
        base = random_density_tensor(rng, want.shape).words
        for op in (None, np.bitwise_and, np.bitwise_or):
            out = base.copy()
            peak = _peak_bytes(lambda: slab.insert_axis(pos, v("n"), 900, out=out, op=op))
            assert peak <= _packed(slab.shape.nbits) + scratch, (pos, op, peak)
            expect = want.words if op is None else op(base, want.words)
            assert np.array_equal(out, expect), (pos, op)


@pytest.mark.parametrize("conj", [True, False])
@pytest.mark.parametrize("n", [3, 4])
def test_a_junction_of_children_over_its_variables_holds_one_output(conj, n):
    """n children over the same 2048x2048 variables are ANDed or ORed into
    one packed output in place: combining them pair by pair would hold two
    outputs at once."""
    rng = np.random.default_rng(n)
    shape = Shape(((v("x"), 2048), (v("y"), 2048)))
    children = [random_tensor(rng, shape) for _ in range(n)]
    out = []
    peak = _peak_bytes(lambda: out.append(bittensor.junction(children, conj)))
    op = np.bitwise_and if conj else np.bitwise_or
    assert np.array_equal(out[0].words, op.reduce([c.words for c in children]))
    assert peak <= 1.1 * _packed(shape.nbits), peak


@pytest.mark.parametrize("conj", [True, False])
def test_a_junction_mixes_whole_and_partial_children_in_any_order(conj):
    """Children over both output variables, in the output's order and
    reversed, and children over one of them, given in every order and
    any number from one up: the junction over (x, y) is the fold of their
    bool arrays broadcast over (x, y)."""
    rng = np.random.default_rng(conj)
    x, y = v("x"), v("y")
    axes = ((x, 13), (y, 7))
    shapes = [axes, axes, ((y, 7), (x, 13)), ((x, 13),), ((y, 7),)]
    children = [random_tensor(rng, Shape(s)) for s in shapes]
    arrays = [c.to_bools().reshape(c.shape.extents) for c in children]
    arrays = [arrays[0], arrays[1], arrays[2].T, arrays[3][:, None], arrays[4][None, :]]
    fold = np.logical_and if conj else np.logical_or
    for n in range(1, 6):
        for order in itertools.permutations(range(5), n):
            got = bittensor.junction([children[k] for k in order], conj, axes)
            want = np.broadcast_to(functools.reduce(fold, [arrays[k] for k in order]), (13, 7))
            assert got == BitTensor.from_bools(Shape(axes), want), order


# -- deadline inside a kernel ------------------------------------------------------


def test_tick_stops_a_multi_piece_insert_partway(monkeypatch):
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", 256)
    rng = np.random.default_rng(2)
    t = BitTensor.from_bools(Shape(((v("x"), 50), (v("y"), 7))), rng.random(350) < 0.5)
    pieces = []
    monkeypatch.setattr(bittensor, "check_deadline", lambda: pieces.append(1))
    t.insert_axis(1, v("z"), 9)
    assert len(pieces) > 3

    calls = []

    def check_deadline():
        calls.append(1)
        if len(calls) == 3:
            raise GroundingTimeout("grounding exceeded its deadline")

    monkeypatch.setattr(bittensor, "check_deadline", check_deadline)
    with pytest.raises(GroundingTimeout):
        t.insert_axis(1, v("z"), 9)
    assert len(calls) == 3


@pytest.mark.parametrize("rows", [20, 40])
def test_an_insert_checks_the_deadline_once_per_slab_it_writes(monkeypatch, rows):
    """Each insertion of the triangle junction into a slab of rows x 900 x
    900 bits (byte blocks at axis 1, looked-up bytes at axis 2, a whole
    900x900 row at axis 0) checks the deadline once per _SLAB_BITS bits it
    writes, rounded up: once for a slab of 20 rows, where pieces of
    _CHUNK_BITS took 16 to 40 checks, and twice for 40 rows, over the cap."""
    rng = np.random.default_rng(rows)
    x, y, z = v("x"), v("y"), v("z")
    xy = BitTensor.from_bools(Shape(((x, rows), (y, 900))), rng.random(rows * 900) < 0.5)
    yz = BitTensor.from_bools(Shape(((y, 900), (z, 900))), rng.random(900 * 900) < 0.5)
    checks = []
    monkeypatch.setattr(bittensor, "check_deadline", lambda: checks.append(1))
    written = rows * 900 * 900
    for t, pos, var, extent in ((xy, 1, z, 900), (xy, 2, z, 900), (yz, 0, x, rows)):
        checks.clear()
        t.insert_axis(pos, var, extent)
        assert len(checks) == -(-written // bittensor._SLAB_BITS) == rows // 20, (pos, checks)


def test_a_block_longer_than_the_write_cap_is_written_in_column_ranges(monkeypatch):
    """A 900x900 input replicated 3 times at axis 0 is three byte blocks
    of 810000 bits: at a write cap of 2^16 bits each is written in 13
    column ranges, the deadline checked before each."""
    monkeypatch.setattr(bittensor, "_SLAB_BITS", 2**16)
    rng = np.random.default_rng(3)
    t = BitTensor.from_bools(Shape(((v("y"), 900), (v("z"), 900))), rng.random(810000) < 0.5)
    checks = []
    monkeypatch.setattr(bittensor, "check_deadline", lambda: checks.append(1))
    assert t.insert_axis(0, v("n"), 3) == ref_insert(t, 0, 3)
    assert len(checks) == 3 * -(-810000 // 2**16) == 39


def _looping_kernel_calls():
    """Every kernel entry point that loops over pieces, each called on a
    40x30 tensor that takes it several pieces at _CHUNK_BITS = 256."""
    rng = np.random.default_rng(19)
    x, y, z = v("x"), v("y"), v("z")
    xy = Shape(((x, 40), (y, 30)))
    t = BitTensor.from_bools(xy, rng.random(xy.nbits) < 0.5)
    px = BitTensor.from_bools(Shape(((x, 40),)), rng.random(40) < 0.5)
    py = BitTensor.from_bools(Shape(((y, 30),)), rng.random(30) < 0.5)
    ones = tuple_rows(list(t.iter_ones()), 2)
    cols = (np.arange(40).reshape(40, 1), np.arange(30).reshape(1, 30))
    return {
        "insert_axis": lambda: t.insert_axis(1, z, 9),
        "permute_axes": lambda: t.permute_axes((1, 0)),
        "reduce_all": lambda: t.reduce_all(x),
        "reduce_any": lambda: t.reduce_any(y),
        "junction": lambda: bittensor.junction((px, py), True),
        "pack_pointwise": lambda: bittensor.pack_pointwise(xy, np.less, cols),
        "from_ones": lambda: BitTensor.from_ones(xy, ones),
        "iter_ones_chunks": lambda: list(t.iter_ones_chunks()),
    }


@pytest.mark.parametrize(
    "entry",
    [
        "insert_axis",
        "permute_axes",
        "reduce_all",
        "reduce_any",
        "junction",
        "pack_pointwise",
        "from_ones",
        "iter_ones_chunks",
    ],
)
def test_every_looping_kernel_stops_partway_at_the_deadline(monkeypatch, entry):
    """On a clock that advances one second per reading, a deadline two
    seconds after its entry reading passes at the kernel's third check:
    the kernel has read the clock more than once, and fewer times than it
    reads it to finish."""
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", 256)
    call = _looping_kernel_calls()[entry]
    now = [0]

    def monotonic():
        now[0] += 1
        return now[0]

    monkeypatch.setattr(bittensor, "time", SimpleNamespace(monotonic=monotonic))
    with deadline(10**6):
        call()
    finishing = now[0] - 1  # the readings after the deadline's own
    now[0] = 0
    with pytest.raises(GroundingTimeout), deadline(2):
        call()
    assert 1 < now[0] - 1 == 3 < finishing


def test_a_deadline_is_scoped_and_never_extended(monkeypatch):
    """check_deadline never raises outside a deadline, whatever the clock
    reads; a nested deadline, or None, keeps an enclosing one that passes
    first, a nearer one holds inside its body only, and leaving the
    outermost deadline drops it."""
    now = [0]
    monkeypatch.setattr(bittensor, "time", SimpleNamespace(monotonic=lambda: now[0]))
    check_deadline()
    with deadline(5):  # until 5
        for inner in (100, None, 5):
            with deadline(inner):
                now[0] = 5
                check_deadline()
                now[0] = 6
                with pytest.raises(GroundingTimeout):
                    check_deadline()
            now[0] = 0
        with deadline(1):  # until 1, nearer
            now[0] = 2
            with pytest.raises(GroundingTimeout):
                check_deadline()
        check_deadline()  # the enclosing deadline again
    now[0] = 10**9
    check_deadline()
    with pytest.raises(ValueError):
        with deadline(float("nan")):
            pass


def _words_of_every_density(rng, nbits):
    """Random words for a tensor of nbits bits: each word empty, with one
    bit, a few (at most 8), many, all 64 or bit 63 alone, and bits past
    nbits in the last, partial word cleared."""
    words = np.zeros((nbits + 63) // 64, dtype=np.uint64)
    for i in range(words.size):
        kind = int(rng.integers(0, 6))
        if kind == 5:
            words[i] = np.uint64(1 << 63)
            continue
        ones = (0, 1, int(rng.integers(2, 9)), int(rng.integers(9, 64)), 64)[kind]
        for b in rng.choice(64, ones, replace=False):
            words[i] |= np.uint64(1 << int(b))
    if nbits % 64:
        words[-1] &= np.uint64((1 << nbits % 64) - 1)
    return words


@pytest.mark.parametrize("bitwise_count", [True, False])
@pytest.mark.parametrize("chunk_bits", [64, 4096, 2**20])
def test_ones_chunks_decode_words_of_every_density(monkeypatch, chunk_bits, bitwise_count):
    """Chunks concatenate to np.nonzero of the bools, each holds at most
    max(64, _CHUNK_BITS // 256) ones, and popcount agrees, with and
    without numpy's bitwise_count."""
    monkeypatch.setattr(bittensor, "_CHUNK_BITS", chunk_bits)
    if not bitwise_count:
        monkeypatch.setattr(bittensor, "_HAVE_BITWISE_COUNT", False)
    rng = np.random.default_rng(chunk_bits + bitwise_count)
    bound = max(64, chunk_bits // 256)
    for m in (0, 1, 2, 3) * 6:
        extents = tuple(int(rng.integers(1, (3000, 400, 40)[m - 1])) for _ in range(m))
        shape = Shape(tuple((v(n), e) for n, e in zip("xyz", extents)))
        words = _words_of_every_density(rng, shape.nbits)
        t = BitTensor(shape, words)
        chunks = list(t.iter_ones_chunks())
        assert all(0 < c.shape[1] <= bound and c.shape[0] == m for c in chunks)
        want = sum(bin(int(w)).count("1") for w in words)
        assert t.popcount() == want
        if not m:
            assert [c.shape for c in chunks] == [(0, 1)] * want
            continue
        got = np.concatenate(chunks, axis=1) if chunks else np.zeros((m, 0), dtype=np.intp)
        assert np.array_equal(got, np.array(np.nonzero(t.to_bools().reshape(extents))))
