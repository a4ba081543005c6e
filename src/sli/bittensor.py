"""Packed bit tensors and integer value tensors.

A BitTensor stores one bit per tuple of a shape's index space, packed
into 64-bit words: linear index L(i0..im-1) is row-major with the LAST
axis fastest, bit L lives in word L//64 at bit position L%64.  Bits past
the last valid index in the final word are always zero; every kernel
preserves that invariant.

Every kernel works on the packed words and allocates little beyond its
packed input and output:

* The boolean connectives and popcount run word-at-a-time.
* `junction` ANDs or ORs any number of tensors into one output over the
  union of their axes, or over a given axis order that may hold more,
  allocated once: each input is replicated along its missing axes
  straight into it by `insert_axis`, which can combine into an existing
  output in place as well as fill a fresh one.
* `slab` copies a range of leading-axis rows, one bit range shifted
  down word by word.
* Axis insertion copies whole bytes when the replicated rows are
  byte-aligned, and reductions whose trailing block is word-aligned fold
  whole words.
* Insertion, unaligned reduction, permutation and building a tensor
  from a pointwise predicate work in pieces, each sized by its scratch:
  O(`_CHUNK_BITS`) bytes, whether unpacked bits (one byte each), packed
  blocks or looked-up bytes.  A piece writes at most `_SLAB_BITS` output
  bits, the size of a guard's slab, so byte-aligned insertion fills a
  slab in a piece or two; the other piecewise kernels unpack or compute
  about `_CHUNK_BITS` bits a piece, packed and shifted into place before
  the next begins.
* `from_ones` sets bits in the words directly, from an array of index
  tuples in any order, one per row, and `iter_ones_chunks` decodes only
  nonzero words, the sparse ones by lowest-set-bit extraction, into
  coordinate arrays of a bounded number of tuples; `iter_ones` is their
  flattening.

Every allocating kernel checks its output's size against one module
constant, `BIT_BUDGET`, before it allocates, so that budget bounds the
memory the kernels really use: each holds its packed inputs and output
plus O(_CHUNK_BITS), junctions included.  Likewise every piece loop
checks the one context-local deadline that `deadline` sets before each
piece (`check_deadline`), so a timeout also holds inside a long kernel:
at least once per `_SLAB_BITS` bits written.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    ArithmeticOverflow,
    BitBudgetOverflow,
    DuplicateVariable,
    GroundingTimeout,
    IndexOutOfRange,
    InvalidPermutation,
    ShapeMismatch,
    UnknownVariable,
)
from .logic import Variable

# Largest tensor, in bits, that one kernel may produce; check_budget reads
# it on every call, so one value holds for every layer.  Kernels, junction
# included, hold their packed inputs and output plus O(_CHUNK_BITS) bytes
# of scratch, so a tensor at the budget costs about budget/8 bytes, not a
# byte per bit.
BIT_BUDGET = 2**33

# check_deadline's monotonic end time, or None; context-local, so per thread
_DEADLINE: ContextVar[float | None] = ContextVar("deadline", default=None)

# Bits a piecewise kernel unpacks or computes at a time (one byte each).
_CHUNK_BITS = 2**20

# Most output bits one piece of insert_axis writes, so the deadline is
# checked at least once per this many written bits; satset.slabs cuts a
# guard into slabs of this many bits too, so a slab's junction writes
# each child in a piece or two.
_SLAB_BITS = 2**24

_WORD = np.uint64
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

# portable popcount fallback, one table lookup per byte
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
# iter_ones_chunks unpacks a word of more ones than this, and takes the
# ones of the others by lowest-set-bit extraction
_DENSE_WORD = 8

# how a kernel combines into an output: None assigns (insert_axis
# overwrites its whole output, _put_bits writes bits that are still zero);
# np.bitwise_and / np.bitwise_or combine in place
Op = np.ufunc | None

COMPARISONS = {
    "=": np.equal,
    "~=": np.not_equal,
    "<": np.less,
    "=<": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


@dataclass(frozen=True)
class Shape:
    """Ordered named axes: ((variable, extent), ...).  Variables distinct."""

    axes: tuple[tuple[Variable, int], ...]

    def __post_init__(self):
        seen = set()
        for v, e in self.axes:
            if v in seen:
                raise DuplicateVariable(f"variable {v.name} appears twice in shape")
            seen.add(v)
            if e < 0:
                raise ShapeMismatch(f"negative extent for {v.name}")

    @property
    def vars(self) -> tuple[Variable, ...]:
        return tuple(v for v, _ in self.axes)

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.axes)

    @property
    def nbits(self) -> int:
        return math.prod(self.extents)

    def axis_of(self, var: Variable) -> int:
        for i, (v, _) in enumerate(self.axes):
            if v == var:
                return i
        raise UnknownVariable(f"variable {var.name} not in shape")

    def drop(self, k: int) -> "Shape":
        return Shape(self.axes[:k] + self.axes[k + 1 :])

    def insert(self, k: int, var: Variable, extent: int) -> "Shape":
        return Shape(self.axes[:k] + ((var, extent),) + self.axes[k:])


def check_budget(nbits: int) -> None:
    if nbits > BIT_BUDGET:
        raise BitBudgetOverflow(f"tensor of {nbits} bits exceeds budget of {BIT_BUDGET}")


def check_deadline() -> None:
    """Raise GroundingTimeout once the current deadline has passed."""
    if (end := _DEADLINE.get()) is not None and time.monotonic() > end:
        raise GroundingTimeout("grounding exceeded its deadline")


@contextmanager
def deadline(timeout: float | None) -> Iterator[None]:
    """Run the body under a deadline timeout seconds from now, or under the
    enclosing deadline if that comes first; None keeps the enclosing one."""
    end = _DEADLINE.get()
    if timeout is not None:
        if math.isnan(timeout):
            raise ValueError("a timeout must be a number of seconds, not NaN")
        end = min(math.inf if end is None else end, time.monotonic() + timeout)
    token = _DEADLINE.set(end)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def _nwords(nbits: int) -> int:
    return (nbits + 63) // 64


def _last_mask(nbits: int) -> np.uint64:
    rem = nbits % 64
    if rem == 0:
        return _FULL_WORD
    return np.uint64((1 << rem) - 1)


def _pieces(n: int, step: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """[lo, hi) pieces of range(start, n), `step` long, checking the
    deadline before each."""
    for lo in range(start, n, step):
        check_deadline()
        yield lo, min(n, lo + step)


def _get_bits(words: np.ndarray, start: int, count: int) -> np.ndarray:
    """Bits [start, start+count) of a packed word array, one bool each."""
    lo, hi = start // 8, (start + count + 7) // 8
    bits = np.unpackbits(words.view(np.uint8)[lo:hi], bitorder="little").view(bool)
    off = start - 8 * lo
    return bits[off : off + count]


def _put_bits(out: np.ndarray, start: int, bits: np.ndarray, op: Op = None) -> None:
    """Combine the bools `bits` (row-major) into the word array `out` from
    bit `start` on: AND them in when op is np.bitwise_and, else OR them
    in (op None or np.bitwise_or; None writes into bits that must still
    be zero)."""
    n = bits.size
    if not n:
        return
    packed = np.packbits(bits, axis=None, bitorder="little")
    clear = op is np.bitwise_and
    if clear:
        # AND clears the bits where `bits` is 0: pack those as the ones
        np.invert(packed, out=packed)
        if n % 8:
            packed[-1] &= np.uint8((1 << n % 8) - 1)
    q, r = divmod(start, 64)
    if r % 8 == 0:
        lo = start // 8
        parts = [(out.view(np.uint8)[lo : lo + packed.size], packed)]
    else:
        words = np.zeros(_nwords(n), dtype=_WORD)
        words.view(np.uint8)[: packed.size] = packed
        m = words.size
        k = min(m, out.size - q - 1)
        parts = [
            (out[q : q + m], words << np.uint64(r)),
            (out[q + 1 : q + 1 + k], words[:k] >> np.uint64(64 - r)),
        ]
    for dst, src in parts:
        if clear:
            np.bitwise_and(dst, ~src, out=dst)
        else:
            np.bitwise_or(dst, src, out=dst)


def _get_runs(words: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """Bits [s, s+n) of a packed word array for every s in starts, as a
    (starts.size, n) bool array."""
    out = np.empty((starts.size, n), dtype=bool)
    b8 = words.view(np.uint8)
    if n < 8:
        # a short run lies within two bytes: shift it down to bit 0; a
        # few dozen bytes per run, so in batches of _CHUNK_BITS / 32 runs
        for lo, hi in _pieces(starts.size, max(1, _CHUNK_BITS // 32)):
            idx = starts[lo:hi] >> 3
            pair = b8[idx].astype(np.uint16)
            pair |= b8[np.minimum(idx + 1, b8.size - 1)].astype(np.uint16) << 8
            pair >>= (starts[lo:hi] & 7).astype(np.uint16)
            for k in range(n):
                out[lo:hi, k] = (pair >> np.uint16(k)) & np.uint16(1)
        return out
    # the bytes holding each run, plus one for runs that start mid-byte;
    # a fetch past the end repeats the last byte, whose bits go unused
    idx = (starts >> 3)[:, None] + np.arange((n + 7) // 8 + 1)
    np.minimum(idx, b8.size - 1, out=idx)
    bits = np.unpackbits(b8[idx], axis=1, bitorder="little").view(bool)
    offsets = starts & 7
    for r in range(8):
        rows = offsets == r
        if rows.any():
            out[rows] = bits[rows, r : r + n]
    return out


def _tile_bits(
    src: np.ndarray, s: int, n: int, out: np.ndarray, d: int, times: int, op: Op
) -> None:
    """Combine bits [s, s+n) of src, `times` times back to back, into out
    from bit d on through _put_bits, in pieces of about _CHUNK_BITS bits."""
    reps = max(1, _CHUNK_BITS // n)
    for off in range(0, n, _CHUNK_BITS):
        m = min(_CHUNK_BITS, n - off)
        block = np.tile(_get_bits(src, s + off, m), min(reps, times))
        for lo, hi in _pieces(times, reps):
            _put_bits(out, d + lo * n + off, block[: (hi - lo) * m], op)


def _set_ones(words: np.ndarray, idx: np.ndarray, extents: tuple[int, ...]) -> None:
    """Set the bits of the index tuples idx, one per row, in words."""
    idx = idx.reshape(len(idx), len(extents))
    linear = np.asarray(np.ravel_multi_index(tuple(idx.T), extents))
    bits = np.left_shift(np.uint64(1), (linear & 63).astype(_WORD))
    np.bitwise_or.at(words, linear >> 6, bits)


def _popcounts(words: np.ndarray) -> np.ndarray:
    """The number of ones of each word."""
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(words)
    return _POP8[words.view(np.uint8)].reshape(-1, 8).sum(axis=1, dtype=np.int64)


def _ones_of(at: np.ndarray, words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sorted linear indices of the ones of the nonzero words at word
    indices at, whose counts of ones are counts.  A word of more than
    _DENSE_WORD ones is unpacked.  The others lose their lowest set bit,
    w & (~w + 1), in vectorised rounds, one per one of the densest; its
    position is the float exponent of that power of two, exact to bit 63."""
    dense = counts > _DENSE_WORD
    found = []
    if dense.any():
        bits = np.unpackbits(words[dense].view(np.uint8), bitorder="little").reshape(-1, 64)
        w, b = np.nonzero(bits)
        found.append(at[dense][w] * 64 + b)
        at, words = at[~dense], words[~dense]
    base = at * 64
    while words.size:
        low = words & (~words + np.uint64(1))
        found.append(base + (np.frexp(low.astype(np.float64))[1] - 1))
        words = words ^ low
        left = words != 0
        base, words = base[left], words[left]
    if len(found) == 1:  # one round, or dense words alone: in order
        return found[0]
    linear = np.concatenate(found)
    linear.sort(kind="stable")  # a few sorted runs: one per round, one for dense words
    return linear


def _fresh(shape: Shape, words: np.ndarray) -> "BitTensor":
    """Wrap a word array a kernel has just allocated and hands over: no
    defensive copy, unlike the public constructor."""
    words.flags.writeable = False
    t = object.__new__(BitTensor)
    t.shape = shape
    t.words = words
    return t


class BitTensor:
    """Immutable packed bit tensor over a Shape."""

    __slots__ = ("shape", "words")

    def __init__(self, shape: Shape, words: np.ndarray):
        if words.dtype != _WORD or words.ndim != 1 or words.size != _nwords(shape.nbits):
            raise ShapeMismatch("word array does not match shape")
        if not words.flags.writeable:
            self.words = words
        else:
            w = words.copy()
            w.flags.writeable = False
            self.words = w
        self.shape = shape

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(shape: Shape) -> "BitTensor":
        check_budget(shape.nbits)
        return _fresh(shape, np.zeros(_nwords(shape.nbits), dtype=_WORD))

    @staticmethod
    def full(shape: Shape) -> "BitTensor":
        check_budget(shape.nbits)
        nbits = shape.nbits
        words = np.full(_nwords(nbits), _FULL_WORD, dtype=_WORD)
        if nbits and words.size:
            words[-1] &= _last_mask(nbits)
        return _fresh(shape, words)

    @staticmethod
    def from_bools(shape: Shape, bools: np.ndarray) -> "BitTensor":
        check_budget(shape.nbits)
        flat = np.asarray(bools, dtype=bool).ravel()
        if flat.size != shape.nbits:
            raise ShapeMismatch("boolean data does not match shape")
        words = np.zeros(_nwords(shape.nbits), dtype=_WORD)
        _put_bits(words, 0, flat)
        return _fresh(shape, words)

    @staticmethod
    def from_ones(shape: Shape, ones: np.ndarray) -> "BitTensor":
        """The tensor whose ones are the index tuples of the int64 array
        ones, one per row, in any order and repeats allowed.  A few int64
        per tuple: the tuples are taken _CHUNK_BITS // 64 at a time."""
        check_budget(shape.nbits)
        words = np.zeros(_nwords(shape.nbits), dtype=_WORD)
        for lo, hi in _pieces(len(ones), max(1, _CHUNK_BITS // 64)):
            _set_ones(words, ones[lo:hi], shape.extents)
        return _fresh(shape, words)

    # -- word-level connectives --------------------------------------------

    def bit_and(self, other: "BitTensor") -> "BitTensor":
        if self.shape != other.shape:
            raise ShapeMismatch("bit_and over different shapes")
        return _fresh(self.shape, np.bitwise_and(self.words, other.words))

    def bit_or(self, other: "BitTensor") -> "BitTensor":
        if self.shape != other.shape:
            raise ShapeMismatch("bit_or over different shapes")
        return _fresh(self.shape, np.bitwise_or(self.words, other.words))

    def bit_not(self) -> "BitTensor":
        words = np.bitwise_not(self.words)
        nbits = self.shape.nbits
        if nbits and words.size:
            words[-1] &= _last_mask(nbits)
        return _fresh(self.shape, words)

    __and__ = bit_and
    __or__ = bit_or
    __invert__ = bit_not

    def popcount(self) -> int:
        return int(_popcounts(self.words).sum())

    def any(self) -> bool:
        # the max of the words: 4-5x faster than words.any() on 2 MiB
        return bool(self.words.size) and bool(self.words.max())

    # -- structural kernels --------------------------------------------------

    def to_bools(self) -> np.ndarray:
        """Every bit as one bool: a full-size array, for callers outside
        the kernels (tests, `dump`)."""
        return _get_bits(self.words, 0, self.shape.nbits)

    def insert_axis(
        self, pos: int, var: Variable, extent: int, out: np.ndarray | None = None, op: Op = None
    ) -> "BitTensor | None":
        """Replicate along a new axis at position pos (Cartesian product):
        each input row of the axes from pos on is written extent times.

        Without `out` the result is a fresh tensor, and op is not used.
        With `out`, the writable word array of a tensor of the output
        shape, the replicated bits are combined into it in place and None
        is returned: assigned when op is None, overwriting every bit of
        out, else through op, np.bitwise_and or np.bitwise_or."""
        shape = self.shape.insert(pos, var, extent)
        check_budget(shape.nbits)
        fresh = out is None
        if fresh:
            out, op = np.empty(_nwords(shape.nbits), dtype=_WORD), None
        elif out.dtype != _WORD or out.shape != (_nwords(shape.nbits),):
            raise ShapeMismatch("output word array does not match shape")
        if shape.nbits:
            inner = math.prod(self.shape.extents[pos:])
            outer = self.shape.nbits // inner
            row = extent * inner
            k = 8 // math.gcd(inner, 8)
            g = 8 // math.gcd(row, 8)
            w = g * inner
            copies = extent % k == 0 and (k == 1 or k * inner <= _CHUNK_BITS)
            lookup = not copies and row <= _CHUNK_BITS and w <= 8 and (g * row << w) <= _CHUNK_BITS
            # the leading rows whose bytes the byte paths assign whole; an
            # assignment first zeroes the bytes after them, which _put_bits
            # ORs into
            first = outer if copies else outer // g * g if lookup else 0
            if op is None:
                out.view(np.uint8)[first * row // 8 :] = 0
            if copies:
                # k copies of an input row fill whole bytes, so each output
                # row is that k-copy block repeated extent/k times.  A piece
                # writes at most _SLAB_BITS bits: the blocks of `rows` input
                # rows `per` times each, or `cols` bytes of a longer block.
                # For k > 1 the blocks are packed as scratch, at most
                # _CHUNK_BITS bytes.
                nbytes, times = k * inner // 8, extent // k
                dst = out.view(np.uint8)[: outer * row // 8].reshape(outer, times, nbytes)
                per = max(1, _SLAB_BITS // (k * inner))
                cols = max(1, min(nbytes, _SLAB_BITS // 8))
                rows = max(1, per // times)
                if k > 1:
                    rows = min(rows, _CHUNK_BITS // (k * inner))
                for lo in range(0, outer, rows):
                    hi = min(outer, lo + rows)
                    if k == 1:
                        blocks = self.words.view(np.uint8)[lo * nbytes : hi * nbytes]
                    else:
                        bits = _get_bits(self.words, lo * inner, (hi - lo) * inner)
                        blocks = np.packbits(
                            np.tile(bits.reshape(-1, inner), k), axis=1, bitorder="little"
                        )
                    blocks = blocks.reshape(hi - lo, 1, nbytes)
                    for a in range(0, times, per):
                        for c, d in _pieces(nbytes, cols):
                            piece, src = dst[lo:hi, a : a + per, c:d], blocks[:, :, c:d]
                            if op is None:
                                piece[...] = src
                            else:
                                op(piece, src, out=piece)
            elif row <= _CHUNK_BITS:
                if lookup:
                    # g rows hold w <= 8 input bits and fill whole output
                    # bytes: look those bytes up by the w bits
                    patterns = np.arange(1 << w, dtype=np.uint8)[:, None]
                    rows = np.unpackbits(patterns, axis=1, count=w, bitorder="little")
                    rows = np.broadcast_to(rows.reshape(-1, g, 1, inner), (1 << w, g, extent, inner))
                    table = np.packbits(rows.reshape(1 << w, -1), axis=1, bitorder="little")
                    dst = out.view(np.uint8)[: first * row // 8].reshape(-1, table.shape[1])
                    # a group's scratch is its w bits, one byte each, and its
                    # looked-up bytes when op combines them; a piece takes
                    # _CHUNK_BITS bytes of that and writes at most _SLAB_BITS
                    scratch = w if op is None else w + g * row // 8
                    step = min(_CHUNK_BITS // scratch, _SLAB_BITS // (g * row))
                    for lo, hi in _pieces(first // g, max(1, step)):
                        bits = _get_bits(self.words, lo * w, (hi - lo) * w).reshape(-1, w)
                        # each group's w bits as a byte, one shifted column at
                        # a time: packbits along rows this short is ~8x slower
                        codes = bits[:, 0].view(np.uint8).copy()
                        for j in range(1, w):
                            codes |= bits[:, j].view(np.uint8) << np.uint8(j)
                        if op is None:
                            np.take(table, codes, axis=0, out=dst[lo:hi], mode="clip")
                        else:
                            op(dst[lo:hi], np.take(table, codes, axis=0), out=dst[lo:hi])
                for lo, hi in _pieces(outer, _CHUNK_BITS // row, first):
                    bits = _get_bits(self.words, lo * inner, (hi - lo) * inner)
                    _put_bits(out, lo * row, np.repeat(bits.reshape(-1, inner), extent, axis=0), op)
            else:
                for o in range(outer):
                    _tile_bits(self.words, o * inner, inner, out, o * row, extent, op)
        return _fresh(shape, out) if fresh else None

    def permute_axes(self, perm: tuple[int, ...]) -> "BitTensor":
        """Reorder the axes: output axis k is input axis perm[k].

        The output is built in pieces of consecutive output bits: output
        axes before j are fixed within a piece and axis j-1 is cut into
        ranges.  A piece's input bits lie in runs along the input's
        trailing axes; they are unpacked run by run, transposed as bools
        and packed into place.
        """
        m = len(self.shape.axes)
        if sorted(perm) != list(range(m)):
            raise InvalidPermutation(f"{perm} is not a permutation of 0..{m - 1}")
        shape = Shape(tuple(self.shape.axes[p] for p in perm))
        if perm == tuple(range(m)):
            return self
        out = np.zeros(_nwords(shape.nbits), dtype=_WORD)
        if not shape.nbits:
            return _fresh(shape, out)
        extents, out_ext = self.shape.extents, shape.extents
        strides = [math.prod(extents[k + 1 :]) for k in range(m)]
        # a piece costs about four bytes per bit
        target = max(1, _CHUNK_BITS // 4)
        j = 1
        while j < m and math.prod(out_ext[j:]) > target:
            j += 1
        row = math.prod(out_ext[j:])
        ranged = perm[j - 1]
        last = max(perm[:j])  # input axes after `last` are whole in every piece
        for prefix in np.ndindex(*out_ext[: j - 1]):
            base = first_row = 0
            for k, i in enumerate(prefix):
                base += i * strides[perm[k]]
                first_row = first_row * out_ext[k] + i
            for lo, hi in _pieces(out_ext[j - 1], max(1, target // row)):
                piece = list(extents)
                for k in perm[: j - 1]:
                    piece[k] = 1
                piece[ranged] = hi - lo
                # runs cover the axes after `last`, and the range too when it is `last`
                run = strides[last] * (hi - lo if ranged == last else 1)
                grid = [k for k in range(last + (ranged != last)) if piece[k] > 1]
                starts = np.full((1,) * len(grid), base + lo * strides[ranged], dtype=np.int64)
                for d, k in enumerate(grid):
                    axis = [1] * len(grid)
                    axis[d] = piece[k]
                    starts = starts + (np.arange(piece[k], dtype=np.int64) * strides[k]).reshape(axis)
                bits = _get_runs(self.words, starts.ravel(), run)
                moved = bits.reshape(piece).transpose(perm)
                _put_bits(out, (first_row * out_ext[j - 1] + lo) * row, moved)
        return _fresh(shape, out)

    def slab(self, lo: int, hi: int) -> "BitTensor":
        """Rows lo..hi-1 of the leading axis, which has extent hi - lo in
        the result: one bit range, copied shifted down to bit 0."""
        axes = self.shape.axes
        if not (axes and 0 <= lo <= hi <= axes[0][1]):
            raise IndexOutOfRange(f"rows {(lo, hi)} outside the leading axis")
        if (lo, hi) == (0, axes[0][1]):
            return self
        shape = Shape(((axes[0][0], hi - lo),) + axes[1:])
        q, r = divmod(lo * math.prod(self.shape.extents[1:]), 64)
        n = _nwords(shape.nbits)
        out = self.words[q : q + n].copy()
        if r:
            out >>= np.uint64(r)
            high = self.words[q + 1 : q + 1 + n]
            out[: high.size] |= high << np.uint64(64 - r)
        if n:
            out[-1] &= _last_mask(shape.nbits)
        return _fresh(shape, out)

    def _reduce(self, var: Variable, conj: bool) -> "BitTensor":
        k = self.shape.axis_of(var)
        extents = self.shape.extents
        shape = self.shape.drop(k)
        e = extents[k]
        if e == 0:
            # vacuous: every remaining tuple quantifies over nothing
            return BitTensor.full(shape) if conj else BitTensor.empty(shape)
        if len(extents) == 1:
            value = self.popcount() == e if conj else self.any()
            return BitTensor.full(shape) if value else BitTensor.empty(shape)
        inner = math.prod(extents[k + 1 :])
        if inner and inner % 64 == 0:
            groups = self.words.reshape(-1, e, inner // 64)
            op = np.bitwise_and if conj else np.bitwise_or
            return _fresh(shape, op.reduce(groups, axis=1).ravel())
        fold = np.logical_and if conj else np.logical_or
        out = np.zeros(_nwords(shape.nbits), dtype=_WORD)
        if shape.nbits:
            outer = shape.nbits // inner
            if e * inner <= _CHUNK_BITS:
                for lo, hi in _pieces(outer, _CHUNK_BITS // (e * inner)):
                    bits = _get_bits(self.words, lo * e * inner, (hi - lo) * e * inner)
                    _put_bits(out, lo * inner, fold.reduce(bits.reshape(-1, e, inner), axis=1))
            else:
                # one outer row at a time; a row longer than a piece is
                # folded in column ranges of _CHUNK_BITS bits
                slices = max(1, _CHUNK_BITS // inner)
                for o in range(outer):
                    for off in range(0, inner, _CHUNK_BITS):
                        n = min(_CHUNK_BITS, inner - off)
                        acc = None
                        for lo, hi in _pieces(e, slices):
                            start = (o * e + lo) * inner + off
                            bits = _get_bits(self.words, start, (hi - lo - 1) * inner + n)
                            part = fold.reduce(bits.reshape(-1, n), axis=0)
                            acc = part if acc is None else fold(acc, part)
                        _put_bits(out, o * inner + off, acc)
        return _fresh(shape, out)

    def reduce_all(self, var: Variable) -> "BitTensor":
        return self._reduce(var, conj=True)

    def reduce_any(self, var: Variable) -> "BitTensor":
        return self._reduce(var, conj=False)

    def iter_ones(self) -> Iterator[tuple[int, ...]]:
        """Index tuples whose bit is 1, in lexicographic order."""
        for coords in self.iter_ones_chunks():
            yield from map(tuple, coords.T.tolist())

    def iter_ones_chunks(self) -> Iterator[np.ndarray]:
        """The index tuples whose bit is 1, in lexicographic order, in
        chunks of at most max(64, _CHUNK_BITS // 256) tuples (4096 by
        default): each chunk is an int array with one row of coordinates
        per axis and one column per tuple (shape (0, 1) for the set bit of
        a tensor with no axes).  Of each piece of _CHUNK_BITS // 64 words,
        the nonzero words are counted, and a chunk is the run of them whose
        cumulative count fits its bound; _ones_of decodes it."""
        words = self.words
        extents = self.shape.extents
        if not extents:
            if words[0] & np.uint64(1):
                yield np.zeros((0, 1), dtype=np.intp)
            return
        per = max(64, _CHUNK_BITS // 256)
        for lo, hi in _pieces(words.size, max(1, _CHUNK_BITS // 64)):
            at = np.flatnonzero(words[lo:hi])
            nonzero = words[lo:hi][at]
            counts = _popcounts(nonzero)
            ends = np.cumsum(counts, dtype=np.int64)
            at += lo
            a = 0
            while a < at.size:
                # a word holds at most 64 <= per ones, so b > a
                b = int(np.searchsorted(ends, (ends[a - 1] if a else 0) + per, "right"))
                linear = _ones_of(at[a:b], nonzero[a:b], counts[a:b])
                yield np.array(np.unravel_index(linear, extents))
                a = b

    def get(self, idx: tuple[int, ...]) -> bool:
        if len(idx) != len(self.shape.axes):
            raise ShapeMismatch("index arity does not match shape")
        extents = self.shape.extents
        linear = 0
        for i, e in zip(idx, extents):
            if not 0 <= i < e:
                raise IndexOutOfRange(f"index {idx} outside extents {extents}")
            linear = linear * e + i
        return bool((self.words[linear // 64] >> np.uint64(linear % 64)) & np.uint64(1))

    def dump(self) -> str:
        """Textual form: a shape header, then one 0/1 row per last-axis run."""
        if not self.shape.axes:
            header = "()"
            rows = ["1" if self.get(()) else "0"]
        else:
            header = " ".join(f"{v.name}:{e}" for v, e in self.shape.axes)
            bools = self.to_bools()
            last = self.shape.extents[-1]
            if last == 0 or bools.size == 0:
                rows = []
            else:
                grid = bools.reshape(-1, last)
                rows = ["".join("1" if b else "0" for b in row) for row in grid]
        return "\n".join([header] + rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitTensor)
            and self.shape == other.shape
            and np.array_equal(self.words, other.words)
        )

    def __hash__(self):
        return hash((self.shape, self.words.tobytes()))

    def __repr__(self) -> str:
        names = ",".join(f"{v.name}:{e}" for v, e in self.shape.axes)
        return f"BitTensor({names}; {self.popcount()}/{self.shape.nbits} ones)"


def in_order(t: BitTensor, index: dict[Variable, int]) -> BitTensor:
    """t with its axes sorted by their variables' positions in index: t
    itself when they already are, else permute_axes."""
    have = t.shape.vars
    order = tuple(sorted(range(len(have)), key=lambda k: index[have[k]]))
    return t if order == tuple(range(len(have))) else t.permute_axes(order)


def junction(
    tensors: Sequence[BitTensor], conj: bool, axes: Sequence[tuple[Variable, int]] | None = None
) -> BitTensor:
    """The AND (conj) or OR of tensors over the output axes `axes`, which
    must hold every tensor's variables and may hold more; by default the
    union of their variables: the first tensor's, then each later one's
    new ones in its own order.

    The output is allocated once.  The tensors over every output variable
    go first: the first two are ANDed or ORed into it in one call (a lone
    one is copied), the later ones in place, each permuted into the output
    order at its own size.  Each other tensor is permuted likewise and
    replicated along its missing axes straight into the output by
    insert_axis, which assigns it when it is the first write and else
    ANDs or ORs it in place.  Of a tensor missing several axes, all but
    the widest are inserted first, at most output/extent bits.  A single
    tensor over the whole output is returned as in_order gives it.
    """
    if axes is None:
        seen: dict[Variable, int] = {}
        for t in tensors:
            for v, e in t.shape.axes:
                seen.setdefault(v, e)
        axes = tuple(seen.items())
    shape = Shape(tuple(axes))
    check_budget(shape.nbits)
    names, extents = shape.vars, shape.extents
    index = {v: k for k, v in enumerate(names)}
    for t in tensors:
        for v, e in t.shape.axes:
            if v not in index:
                raise UnknownVariable(f"variable {v.name} not among the output axes")
            if e != extents[index[v]]:
                raise ShapeMismatch(f"variable {v.name} has extent {e}, not {extents[index[v]]}")

    if not tensors:  # the empty conjunction holds everywhere, the empty disjunction nowhere
        return BitTensor.full(shape) if conj else BitTensor.empty(shape)
    if len(tensors) == 1 and len(tensors[0].shape.axes) == len(names):
        return in_order(tensors[0], index)
    op = np.bitwise_and if conj else np.bitwise_or
    whole = [t for t in tensors if len(t.shape.axes) == len(names)]
    rest = [t for t in tensors if len(t.shape.axes) < len(names)]
    if len(whole) > 1:
        out = op(in_order(whole[0], index).words, in_order(whole[1], index).words)
    elif whole:
        out = in_order(whole[0], index).words.copy()
    else:
        out = np.empty(_nwords(shape.nbits), dtype=_WORD)
    for t in whole[2:]:
        op(out, in_order(t, index).words, out=out)
    for i, t in enumerate(rest):
        t = in_order(t, index)
        missing = [k for k, v in enumerate(names) if v not in t.shape.vars]
        last = max(missing, key=lambda k: extents[k])
        for k in missing:
            if k != last:
                t = t.insert_axis(k - (k > last), names[k], extents[k])
        mode = op if whole or i else None  # the first write assigns every bit
        t.insert_axis(last, names[last], extents[last], out=out, op=mode)
    return _fresh(shape, out)


def pack_pointwise(
    shape: Shape, fn: Callable[..., np.ndarray], arrays: Sequence[np.ndarray]
) -> BitTensor:
    """The tensor whose bit at index i is fn(*arrays) at i.

    Each array has one axis per shape axis (or none, for a scalar shape)
    and broadcasts against shape.extents.  fn must be elementwise: it runs
    on pieces of at most about _CHUNK_BITS bits, so no full-size bool
    array is built.  A piece is a range of rows of axis j, with the axes
    before j fixed, where j is the first axis whose rows fit a piece.
    """
    check_budget(shape.nbits)
    out = np.zeros(_nwords(shape.nbits), dtype=_WORD)
    extents = shape.extents or (1,)
    arrays = [np.reshape(a, np.shape(a) or (1,)) for a in arrays]
    if shape.nbits:
        j = 0
        while math.prod(extents[j + 1 :]) > _CHUNK_BITS:
            j += 1
        row = math.prod(extents[j + 1 :])
        for prefix in np.ndindex(*extents[:j]):
            first = 0
            for i, e in zip(prefix, extents):
                first = first * e + i
            fixed = tuple(slice(i, i + 1) for i in prefix)
            for lo, hi in _pieces(extents[j], max(1, _CHUNK_BITS // row)):
                cut = fixed + (slice(lo, hi),)
                parts = [
                    a[tuple(c if n > 1 else slice(None) for c, n in zip(cut, a.shape))]
                    for a in arrays
                ]
                bools = np.broadcast_to(fn(*parts), (1,) * j + (hi - lo,) + extents[j + 1 :])
                _put_bits(out, (first * extents[j] + lo) * row, bools)
    return _fresh(shape, out)


def checked_arith(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a op b over broadcasting int64 arrays; ArithmeticOverflow if any
    entry wraps around."""
    with np.errstate(over="ignore"):
        if op == "+":
            r = a + b
            bad = ((b > 0) & (r < a)) | ((b < 0) & (r > a))
        elif op == "-":
            r = a - b
            bad = ((b < 0) & (r < a)) | ((b > 0) & (r > a))
        elif op == "*":
            r = a * b
            nz = b != 0
            bad = nz & (r // np.where(nz, b, 1) != a)
        else:
            raise ValueError(f"unknown arithmetic op: {op}")
    if bad.any():
        raise ArithmeticOverflow(f"64-bit overflow in {op}")
    return r


def checked_gather(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[idx] for a 1-D table, bounds checked."""
    table = np.asarray(table, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.size):
        raise IndexOutOfRange("gather index outside table")
    return table[idx]


class ValueTensor:
    """Immutable int64 tensor over a Shape, one value per index tuple."""

    __slots__ = ("shape", "values")

    def __init__(self, shape: Shape, values: np.ndarray):
        values = np.asarray(values, dtype=np.int64).ravel()
        if values.size != shape.nbits:
            raise ShapeMismatch("value data does not match shape")
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
        self.shape = shape
        self.values = values

    @staticmethod
    def constant(shape: Shape, value: int) -> "ValueTensor":
        return ValueTensor(shape, np.full(shape.nbits, value, dtype=np.int64))

    @staticmethod
    def axis_values(shape: Shape, var: Variable, base: np.ndarray) -> "ValueTensor":
        """Tensor whose entry at index tuple i is base[i_k] for var's axis k."""
        k = shape.axis_of(var)
        extents = shape.extents
        if base.size != extents[k]:
            raise ShapeMismatch("axis value table does not match extent")
        view = [1] * len(extents)
        view[k] = extents[k]
        arr = np.broadcast_to(base.reshape(view), extents)
        return ValueTensor(shape, np.ascontiguousarray(arr).ravel())

    def val_map2(self, op: str, other: "ValueTensor") -> "ValueTensor":
        if self.shape != other.shape:
            raise ShapeMismatch("val_map2 over different shapes")
        return ValueTensor(self.shape, checked_arith(op, self.values, other.values))

    def val_compare(self, op: str, other: "ValueTensor") -> BitTensor:
        if self.shape != other.shape:
            raise ShapeMismatch("val_compare over different shapes")
        fn = COMPARISONS.get(op)
        if fn is None:
            raise ValueError(f"unknown comparison op: {op}")
        extents = self.shape.extents
        return pack_pointwise(
            self.shape, fn, (self.values.reshape(extents), other.values.reshape(extents))
        )

    def gather(self, table: np.ndarray) -> "ValueTensor":
        """Look self's entries up in a 1-D table (bounds checked)."""
        return ValueTensor(self.shape, checked_gather(table, self.values))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ValueTensor)
            and self.shape == other.shape
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.shape, self.values.tobytes()))
