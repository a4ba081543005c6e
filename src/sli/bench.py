"""Deterministic benchmark instance generators and a timing harness.

Three instance families, parameterized by size, ratio, and seed:

* common element (ci): does some element satisfy both p and q?
  ``?x in T: p(x) & q(x)``
* cover set (cs): do p and q jointly cover the domain?
  ``!x in T: p(x) | q(x)``
* triangles (tg): does a random digraph with n/3 edges contain a
  directed triangle?  ``?x, y, z: edge(x,y) & edge(y,z) & edge(z,x)``

All randomness flows from a splitmix-style 64-bit PRNG pinned down by its
update constants, so identical specs reproduce identical problems on any
implementation.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .errors import GroundingTimeout, InvalidSpec
from .grounder import ground_problem
from .logic import (
    And,
    Atom,
    EnumType,
    Exists,
    ForAll,
    Or,
    Structure,
    Variable,
    Vocabulary,
    frozen,
)
from .parser import Problem
from .smt import emit as emit_smt

_MASK64 = (1 << 64) - 1

FAMILIES = ("ci", "cs", "tg")
VARIANTS = ("sat", "unsat")

CSV_HEADER = (
    "benchmark,instance,strategy,size,ratio,seed,"
    "ground_us,emit_us,verdict,assertions,peak_bits,timeout"
)


class SplitMix64:
    """splitmix64: state advances by 0x9E3779B97F4A7C15 per draw; output is
    the state mixed by two xor-shift-multiply rounds (constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31).

    ``next_below(n)`` uses rejection sampling on the top of the 64-bit
    range, so it is exactly uniform.  ``words(k)`` returns the next k
    outputs as a vector, identical to k scalar ``next()`` calls.
    """

    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + self.GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * self.MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * self.MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            w = self.next()
            if w < limit:
                return w % n

    def words(self, count: int) -> np.ndarray:
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self.state) + np.uint64(self.GAMMA) * steps
        self.state = (self.state + self.GAMMA * count) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(self.MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(self.MIX2)
        return z ^ (z >> np.uint64(31))

    def bits(self, count: int) -> np.ndarray:
        return (self.words(count) & np.uint64(1)).astype(bool)


@frozen
class BenchSpec:
    """One generated instance: family, size, overlap/coverage ratio, seed."""

    family: str
    size: int
    ratio: float = 0.0
    seed: int = 0
    variant: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family: {self.family}")
        if self.size < 1:
            raise InvalidSpec("size must be at least 1")
        if not 0.0 <= self.ratio <= 1.0:
            raise InvalidSpec("ratio must lie in [0, 1]")
        if self.family == "tg":
            if self.variant is not None:
                raise InvalidSpec("tg instances have no sat/unsat variant")
        else:
            if self.variant not in VARIANTS:
                raise InvalidSpec(f"{self.family} requires variant sat or unsat")
        if self.family == "ci" and self.variant == "sat" and self.ratio == 0.0:
            raise InvalidSpec("ci-sat needs a positive overlap ratio")
        if self.family == "cs" and self.variant == "unsat" and self.ratio == 0.0:
            raise InvalidSpec("cs-unsat needs a positive uncovered ratio")

    @property
    def benchmark(self) -> str:
        return self.family if self.variant is None else f"{self.family}-{self.variant}"

    @property
    def instance(self) -> str:
        tag = f"{self.benchmark}-n{self.size}-s{self.seed}"
        if self.family != "tg":
            tag = f"{self.benchmark}-n{self.size}-r{self.ratio}-s{self.seed}"
        return tag


def _domain(n: int) -> tuple[str, ...]:
    return tuple(f"d{i}" for i in range(1, n + 1))


def _two_set_structure(spec: BenchSpec) -> Structure:
    """Pick ceil(ratio*n) special elements uniformly; split the rest one
    coin flip each between p-only and q-only (recorded convention).
    The special elements land in both sets (ci-sat, cs-sat) or in neither
    (ci-unsat, cs-unsat)."""
    n = spec.size
    k = math.ceil(spec.ratio * n)
    rng = SplitMix64(spec.seed)
    idx = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    special = np.array(idx[:k], dtype=np.int64)
    rest = np.array(idx[k:], dtype=np.int64)
    side = rng.bits(len(rest))
    p_elems = rest[side]
    q_elems = rest[~side]
    if spec.variant == "sat":
        p_elems = np.concatenate([special, p_elems])
        q_elems = np.concatenate([special, q_elems])
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["p"] = ("T",)
    voc.predicates["q"] = ("T",)
    relations = {
        "p": frozenset((int(i),) for i in p_elems),
        "q": frozenset((int(i),) for i in q_elems),
    }
    return Structure(voc, {"T": _domain(n)}, relations, {})


def gen_ci(spec: BenchSpec) -> Problem:
    """Common-element instance: sat places ceil(ratio*n) shared elements,
    unsat keeps p and q disjoint and leaves ceil(ratio*n) elements out of
    both sets."""
    if spec.family != "ci":
        raise InvalidSpec(f"expected a ci spec, got {spec.family}")
    s = _two_set_structure(spec)
    x = Variable("x", "T")
    sentence = Exists(x, And((Atom("p", (x,)), Atom("q", (x,)))))
    return Problem(s.voc, (sentence,), s, spec.instance)


def gen_cs(spec: BenchSpec) -> Problem:
    """Cover-set instance: sat covers the domain with ceil(ratio*n) shared
    elements, unsat leaves ceil(ratio*n) elements uncovered (no overlap)."""
    if spec.family != "cs":
        raise InvalidSpec(f"expected a cs spec, got {spec.family}")
    s = _two_set_structure(spec)
    x = Variable("x", "T")
    sentence = ForAll(x, Or((Atom("p", (x,)), Atom("q", (x,)))))
    return Problem(s.voc, (sentence,), s, spec.instance)


def gen_tg(spec: BenchSpec) -> Problem:
    """Triangle instance over floor(n/3) distinct directed non-loop edges,
    sampled uniformly by rejection."""
    if spec.family != "tg":
        raise InvalidSpec(f"expected a tg spec, got {spec.family}")
    n = spec.size
    m = n // 3
    rng = SplitMix64(spec.seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a = rng.next_below(n)
        b = rng.next_below(n)
        if a != b:
            edges.add((a, b))
    voc = Vocabulary()
    voc.types["V"] = EnumType("V")
    voc.predicates["edge"] = ("V", "V")
    s = Structure(voc, {"V": _domain(n)}, {"edge": frozenset(edges)}, {})
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
    return Problem(voc, (sentence,), s, spec.instance)


_GENERATORS = {"ci": gen_ci, "cs": gen_cs, "tg": gen_tg}


def generate(spec: BenchSpec) -> Problem:
    return _GENERATORS[spec.family](spec)


@frozen
class RunRecord:
    """One (instance, strategy) measurement; times in microseconds.
    Timed-out runs carry timeout=1 and no measurements."""

    benchmark: str
    instance: str
    strategy: str
    size: int
    ratio: float
    seed: int
    ground_us: int | None
    emit_us: int | None
    verdict: str
    assertions: int | None
    peak_bits: int | None
    timeout: int

    def csv_row(self) -> str:
        return ",".join("" if v is None else str(v) for v in dataclasses.astuple(self))


def run_one(
    spec: BenchSpec,
    problem: Problem,
    strategy: str,
    *,
    timeout: float = 600.0,
    emit: bool = True,
) -> RunRecord:
    t0 = time.perf_counter_ns()
    try:
        gt = ground_problem(problem, strategy, timeout=timeout)
    except GroundingTimeout:
        return RunRecord(
            spec.benchmark, spec.instance, strategy, spec.size, spec.ratio,
            spec.seed, None, None, "", None, None, 1,
        )
    ground_us = (time.perf_counter_ns() - t0) // 1000
    emit_us = None
    if emit:
        t1 = time.perf_counter_ns()
        emit_smt(gt)
        emit_us = (time.perf_counter_ns() - t1) // 1000
    return RunRecord(
        spec.benchmark, spec.instance, strategy, spec.size, spec.ratio,
        spec.seed, ground_us, emit_us, gt.verdict, gt.assertion_count,
        gt.stats.peak_bits, 0,
    )


def run_bench(
    specs,
    strategies,
    *,
    timeout: float = 600.0,
    emit: bool = True,
) -> list[RunRecord]:
    """Ground every (instance, strategy) pair, one after another in this
    thread; timeouts become rows, not errors.  Rows are spec-major,
    strategy-minor."""
    records = []
    for spec in specs:
        problem = generate(spec)
        for strategy in strategies:
            records.append(run_one(spec, problem, strategy, timeout=timeout, emit=emit))
    return records


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines += [r.csv_row() for r in records]
    return "\n".join(lines) + "\n"
