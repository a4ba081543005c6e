"""The byte-identity corpus: what each case grounds and emits, pinned.

For every case, `outcome` records the verdict, the assertion count, the
SHA-256 of the emitted SMT-LIB text and the --stats rows without their
`micros` column, or the class of the error grounding raised.
`tests/data/digests.json` holds those records and `tests/test_digests.py`
grounds every case again and compares.

    python tests/digests.py --write    # regenerate tests/data/digests.json
    python tests/digests.py            # list the cases that differ

The cases are the three benchmark workloads at their gated sizes (vec,
seeds 1 and 2) and at their toy sizes (vec at seed 1, every strategy at
seed 3), a few random model-expansion problems, the two goldens, and edge
cases: a constant named like a constructor, a refuted sentence, Int types
at the 64-bit edges, a nested block and an empty type; all but the gated
and seed-1 toy sizes under every strategy.  The whole corpus grounds in
a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
for _dir in (ROOT / "src", ROOT / "benchmarks", ROOT / "tests"):
    if str(_dir) not in sys.path:
        sys.path.insert(0, str(_dir))

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (benchmarks/workloads.py, read only)
from randgen import random_mx_problem  # noqa: E402
from sli.errors import SliError  # noqa: E402
from sli.grounder import STRATEGIES, ground_problem  # noqa: E402
from sli.logic import (  # noqa: E402
    Atom,
    Compare,
    EnumType,
    ForAll,
    FuncSig,
    FunctionApp,
    Or,
    Structure,
    Variable,
    Vocabulary,
)
from sli.parser import Problem, parse_problem  # noqa: E402
from sli.smt import emit  # noqa: E402

DIGESTS = ROOT / "tests" / "data" / "digests.json"
DATA = ROOT / "tests" / "data"


def outcome(problem: Problem, strategy: str) -> dict:
    """What grounding and emitting problem gives: verdict, assertion
    count, SMT digest and --stats rows without micros, or the error."""
    try:
        gt = ground_problem(problem, strategy)
        text = emit(gt)
    except SliError as e:
        return {"error": type(e).__name__}
    return {
        "verdict": gt.verdict,
        "assertions": len(gt.assertions),
        "smt_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stats": [
            [r.sentence_id, r.strategy, r.guards, r.splits_kept, r.tensor_bits, r.instantiations]
            for r in gt.stats.rows
        ],
    }


def _clash() -> Problem:
    """g's constants g!u and g!w are the names of the constructors of the
    type g, which a parsed vocabulary could not declare beside g itself."""
    voc = Vocabulary()
    voc.types["g"] = EnumType("g")
    voc.types["U"] = EnumType("U")
    voc.functions["g"] = FuncSig(("U",), "g")
    s = Structure(voc, {"g": ("u", "w"), "U": ("u", "w", "z")})
    x, y = Variable("x", "U"), Variable("y", "U")
    g = FunctionApp("g", (x,)), FunctionApp("g", (y,))
    body = Or((Compare("=", x, y), Compare("~=", *g)))
    return Problem(voc, (ForAll(x, ForAll(y, body)),), s)


REFUTED = """
vocabulary {
  type T := {a, b, c}.
  pred p(T).
  pred u(T).
}
theory {
  !x in T: x ~= a => u(x).
  !x in T: p(x).
  !x, y in T: u(x) | u(y).
}
structure {
  p := {a, b}.
}
"""

INT_EDGES = """
vocabulary {{
  type N := Int[{lo}..{hi}].
  func f(N) -> N.
}}
theory {{
  !x, y in N: x ~= y => f(x) ~= f(y).
  !x, y in N: x < y => f(x) - x ~= f(y) - y.
}}
structure {{
}}
"""

NESTED = """
vocabulary {
  type T := {a, b, c}.
  pred p(T).
  pred q(T).
  pred u(T, T).
  func pick(T) -> T.
}
theory {
  !x in T: p(x) => ?y in T: q(y) & u(x, y).
  !x, y in T: x ~= y => pick(x) ~= pick(y) | ?z in T: u(z, x).
}
structure {
  p := {a, b}.
  q := {b, c}.
}
"""


def _empty_type() -> Problem:
    """A block over an empty type, alone and inside a residual, beside a
    block over a type with elements."""
    voc = Vocabulary()
    voc.types["E"] = EnumType("E")
    voc.types["T"] = EnumType("T")
    voc.predicates["u"] = ("E",)
    voc.functions["f"] = FuncSig(("T",), "T")
    s = Structure(voc, {"E": (), "T": ("a", "b")})
    e, x, y = Variable("e", "E"), Variable("x", "T"), Variable("y", "T")
    empty = ForAll(e, Atom("u", (e,)))
    fx, fy = FunctionApp("f", (x,)), FunctionApp("f", (y,))
    sentences = (
        empty,
        ForAll(x, ForAll(y, Or((Compare("=", x, y), Compare("~=", fx, fy))))),
        ForAll(x, Or((Compare("=", fx, s.constant_for("T", 0)), empty))),
    )
    return Problem(voc, sentences, s)


def _text(text: str) -> Callable[[], Problem]:
    return lambda: parse_problem(text)


def _workload(name: str, seed: int, **sizes) -> Callable[[], Problem]:
    return lambda: parse_problem(workloads.WORKLOADS[name](seed, **sizes).text)


def _random(seed: int) -> Callable[[], Problem]:
    def make() -> Problem:
        s, sentences = random_mx_problem(np.random.default_rng(seed))
        return Problem(s.voc, sentences, s)

    return make


def cases() -> dict[str, tuple[Callable[[], Problem], str]]:
    """Case name -> (problem factory, strategy), in a fixed order."""
    out: dict[str, tuple[Callable[[], Problem], str]] = {}
    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            out[f"{name}-gated-seed{seed}/vec"] = (_workload(name, seed), "vec")
    for name, sizes in workloads.TOY_SIZES.items():
        out[f"{name}-toy-seed1/vec"] = (_workload(name, 1, **sizes), "vec")
    families: dict[str, Callable[[], Problem]] = {}
    for name, sizes in workloads.TOY_SIZES.items():
        families[f"{name}-toy-seed3"] = _workload(name, 3, **sizes)
    # open, refuted, decided and failing groundings, some with two splits
    for seed in (2, 11, 57, 58, 139, 222, 241):
        families[f"randgen-{seed}"] = _random(seed)
    for golden in ("queens3", "mapcolour3"):
        families[golden] = _text((DATA / f"{golden}.sli").read_text())
    families["constructor-clash"] = _clash
    families["refuted"] = _text(REFUTED)
    families["int-top-edge"] = _text(INT_EDGES.format(lo=2**63 - 4, hi=2**63 - 1))
    families["int-bottom-edge"] = _text(INT_EDGES.format(lo=-(2**63), hi=-(2**63) + 3))
    families["nested"] = _text(NESTED)
    families["empty-type"] = _empty_type
    for family, make in families.items():
        for strategy in STRATEGIES:
            out[f"{family}/{strategy}"] = (make, strategy)
    return out


def compute() -> dict[str, dict]:
    return {name: outcome(make(), strategy) for name, (make, strategy) in cases().items()}


def differing(want: dict[str, dict], got: dict[str, dict]) -> list[str]:
    """The cases whose outcome differs, or that only one side holds."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def main(argv: list[str]) -> int:
    got = compute()
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} cases to {DIGESTS}")
        return 0
    if argv:
        print("usage: python tests/digests.py [--write]", file=sys.stderr)
        return 1
    bad = differing(json.loads(DIGESTS.read_text(encoding="utf-8")), got)
    for name in bad:
        print(f"differs: {name}")
    print(f"{len(got) - len(bad)} of {len(got)} cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
