"""Workload generators: each renders `.sli` text from a seed and pairs it
with an output check whose reference comes from the generator's own data.

Why these three (recorded in BENCHMARK.json as well):

* colour leaves 50000 residual instantiations, so the parser, per-tuple
  instantiation and folding, and SMT emission all carry the time.
* triangle is decided by the structure alone: the bit-tensor kernels and
  the satisfying-set evaluator do all the work on a 7.29e8-bit tensor,
  with no residual and no emission.
* queens has three sentences sharing the guard `x ~= y`, Int arithmetic
  folding and Int-sorted emission over an empty structure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import checks
from sli.bench import BenchSpec, SplitMix64, generate
from sli.parser import print_problem


@dataclass(frozen=True)
class Instance:
    """One generated problem and the check its grounding must pass."""

    text: str
    check: Callable[[str, str], str | None]  # (verdict, smt) -> reason or None


def colour(seed: int, n: int = 5000, m: int = 50000, colours: int = 4) -> Instance:
    """Graph colouring: m distinct non-loop `border` pairs over n vertices,
    drawn uniformly by rejection; `colour` is left uninterpreted."""
    rng = SplitMix64(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a = rng.next_below(n)
        b = rng.next_below(n)
        if a != b:
            edges.add((a, b))
    domain = ", ".join(f"v{i}" for i in range(n))
    palette = ", ".join(f"c{i}" for i in range(colours))
    border = ", ".join(f"(v{a}, v{b})" for a, b in sorted(edges))
    text = (
        "vocabulary {\n"
        f"  type V := {{{domain}}}.\n"
        f"  type C := {{{palette}}}.\n"
        "  pred border(V, V).\n"
        "  func colour(V) -> C.\n"
        "}\n"
        "theory {\n"
        "  !x, y in V: x ~= y & border(x, y) => colour(x) ~= colour(y).\n"
        "}\n"
        "structure {\n"
        f"  border := {{{border}}}.\n"
        "}\n"
    )
    vertices = frozenset(f"v{i}" for e in edges for i in e)
    check = functools.partial(
        checks.colour, want=checks.colour_lines(edges), vertices=vertices
    )
    return Instance(text, check)


def triangle(seed: int, n: int = 900) -> Instance:
    """The `tg` bench family: n vertices, n/3 random directed edges."""
    problem = generate(BenchSpec("tg", n, seed=seed))
    found = checks.has_triangle(problem.structure.relations["edge"])
    return Instance(
        print_problem(problem), functools.partial(checks.triangle, found=found)
    )


_QUEENS_SENTENCES = (
    "!x, y in N: x ~= y => queen(x) ~= queen(y).",
    "!x, y in N: x ~= y => queen(x) + x ~= queen(y) + y.",
    "!x, y in N: x ~= y => queen(x) - x ~= queen(y) - y.",
)


def queens(seed: int, n: int = 150) -> Instance:
    """n queens over Int[1..n] with an empty structure.  The seed only
    rotates the sentence order; the work is the same for every seed."""
    k = SplitMix64(seed).next_below(len(_QUEENS_SENTENCES))
    sentences = _QUEENS_SENTENCES[k:] + _QUEENS_SENTENCES[:k]
    text = (
        "vocabulary {\n"
        f"  type N := Int[1..{n}].\n"
        f"  func queen(N) -> Int[1..{n}].\n"
        "}\n"
        "theory {\n"
        + "".join(f"  {s}\n" for s in sentences)
        + "}\n"
        "structure {\n"
        "}\n"
    )
    return Instance(text, functools.partial(checks.queens, want=checks.queens_lines(n)))


WORKLOADS: dict[str, Callable[..., Instance]] = {
    "colour": colour,
    "triangle": triangle,
    "queens": queens,
}

# sizes for the self-test: each finishes in milliseconds
TOY_SIZES: dict[str, dict[str, int]] = {
    "colour": {"n": 40, "m": 200, "colours": 3},
    "triangle": {"n": 60},
    "queens": {"n": 6},
}
