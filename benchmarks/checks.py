"""Output checks that never use the grounder under test as their reference.

The expected assertions are built from the generator's own data and
compared with the assertion lines read back from the emitted SMT-LIB text.
A check returns None when the output is right, and a one-line reason
otherwise.
"""

from __future__ import annotations

import re
from collections import defaultdict

_COLOUR_CONST = re.compile(r"^\(declare-const colour!(\w+) C\)$", re.M)


def assertions(smt: str) -> list[str]:
    return [line for line in smt.splitlines() if line.startswith("(assert ")]


def _same_lines(smt: str, want: frozenset[str]) -> str | None:
    got = assertions(smt)
    if len(got) != len(want):
        return f"{len(got)} assertions, expected {len(want)}"
    # equal counts and no line missing leave no room for a stray line
    missing = want.difference(got)
    if missing:
        return f"missing {min(missing)[:80]!r}"
    return None


def colour_lines(edges) -> frozenset[str]:
    """One `(distinct colour!a colour!b)` per border edge (a, b)."""
    return frozenset(f"(assert (distinct colour!v{a} colour!v{b}))" for a, b in edges)


def colour(verdict: str, smt: str, want: frozenset[str], vertices: frozenset[str]) -> str | None:
    """The distinct pairs equal the border edges, and a colour constant is
    declared for exactly the vertices on some edge."""
    if verdict != "open":
        return f"verdict {verdict}, expected open"
    reason = _same_lines(smt, want)
    if reason is None and set(_COLOUR_CONST.findall(smt)) != vertices:
        reason = "declared colour constants differ from the vertices on an edge"
    return reason


def has_triangle(edges) -> bool:
    """Set-based search for a directed triangle x->y->z->x."""
    succ: dict[int, set[int]] = defaultdict(set)
    for a, b in edges:
        succ[a].add(b)
    return any(a in succ[c] for a, b in edges for c in succ[b])


def triangle(verdict: str, smt: str, found: bool) -> str | None:
    """The structure decides the sentence: the verdict and the single
    trivial assertion must match the reference triangle search."""
    want = "sat-trivial" if found else "unsat-trivial"
    if verdict != want:
        return f"verdict {verdict}, expected {want}"
    want_line = "(assert true)" if found else "(assert false)"
    if assertions(smt) != [want_line]:
        return f"assertions differ from the single {want_line}"
    return None


def queens_lines(n: int) -> frozenset[str]:
    """The 1..n bounds of every queen, and 3*n*(n-1) distinct assertions:
    one per ordered pair of rows for the column, `+` diagonal and `-`
    diagonal sentences."""
    lines = set()
    for i in range(1, n + 1):
        lines.add(f"(assert (<= 1 queen!{i}))")
        lines.add(f"(assert (<= queen!{i} {n}))")
        for j in range(1, n + 1):
            if i != j:
                lines.add(f"(assert (distinct queen!{i} queen!{j}))")
                lines.add(f"(assert (distinct (+ queen!{i} {i}) (+ queen!{j} {j})))")
                lines.add(f"(assert (distinct (- queen!{i} {i}) (- queen!{j} {j})))")
    return frozenset(lines)


def queens(verdict: str, smt: str, want: frozenset[str]) -> str | None:
    if verdict != "open":
        return f"verdict {verdict}, expected open"
    return _same_lines(smt, want)
