"""SMT-LIB emission: goldens, naming, declarations, determinism, sharing."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from randgen import random_mx_problem
from sli.errors import SliError
from sli.grounder import GroundTheory, ground_problem
from sli.logic import (
    FALSE,
    TRUE,
    And,
    Arith,
    Atom,
    Compare,
    DomainConstant,
    EnumType,
    FuncSig,
    FunctionApp,
    FunctionTable,
    IntConstant,
    Interval,
    IntervalType,
    Not,
    Or,
    Structure,
    Vocabulary,
)
from sli.parser import Problem, parse_problem
from sli.smt import SmtDocument, document, emit

DATA = Path(__file__).parent / "data"


def check_sexpr_lines(text):
    """Every line must be one balanced s-expression (or a bare symbol)."""
    for line in text.strip().split("\n"):
        depth = 0
        for c in line:
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            assert depth >= 0, line
        assert depth == 0, line


def test_queens3_golden():
    prob = parse_problem((DATA / "queens3.sli").read_text(), filename="queens3.sli")
    want = (DATA / "queens3.smt2").read_text()
    got = emit(ground_problem(prob, "vec"))
    assert got == want
    # byte-determinism across repeated runs and across reduced strategies
    assert emit(ground_problem(prob, "vec")) == want
    assert emit(ground_problem(prob, "naive")) == want
    check_sexpr_lines(got)
    lines = got.split("\n")
    assert lines[0] == "(set-logic QF_UFDTLIA)"
    assert lines[-2] == "(check-sat)"
    assert sum(1 for l in lines if l.startswith("(declare-const queen!")) == 3
    assert sum(1 for l in lines if "(assert (distinct " in l) == 18
    assert "(assert (<= 1 queen!1))" in lines and "(assert (<= queen!1 3))" in lines
    assert "(assert (distinct (+ queen!1 1) (+ queen!2 2)))" in lines


def test_mapcolour3_golden():
    prob = parse_problem(
        (DATA / "mapcolour3.sli").read_text(), filename="mapcolour3.sli"
    )
    want = (DATA / "mapcolour3.smt2").read_text()
    got = emit(ground_problem(prob, "vec"))
    assert got == want
    check_sexpr_lines(got)
    lines = got.split("\n")
    assert lines[0] == "(set-logic QF_UFDT)"
    assert "(declare-datatypes ((C 0)) (((C!red) (C!green) (C!blue))))" in lines
    assert "(declare-const colour!USA C)" in lines
    assert "(assert (distinct colour!USA colour!Canada))" in lines
    assert "(assert (distinct colour!USA colour!Mexico))" in lines


def test_verdict_documents():
    sat = parse_problem(
        """
vocabulary { type T := {a}. pred p(T). }
theory { p(a). }
structure { p := {a}. }
"""
    )
    gt = ground_problem(sat, "vec")
    assert emit(gt) == "(set-logic QF_UFDT)\n(assert true)\n(check-sat)\n"
    unsat = parse_problem(
        """
vocabulary { type T := {a}. pred p(T). }
theory { ~p(a). }
structure { p := {a}. }
"""
    )
    gt = ground_problem(unsat, "vec")
    assert emit(gt) == "(set-logic QF_UFDT)\n(assert false)\n(check-sat)\n"


def test_bool_atom_constants_and_enum_expansion():
    prob = parse_problem(
        """
vocabulary {
  type T := {a, b, c}.
  pred nice(T).
  pred w(T).
  func pick() -> T.
}
theory {
  nice(pick()).
  w(b) | w(c).
}
structure {
  nice := {a, c}.
}
"""
    )
    got = emit(ground_problem(prob, "vec"))
    check_sexpr_lines(got)
    lines = got.split("\n")
    assert "(declare-datatypes ((T 0)) (((T!a) (T!b) (T!c))))" in lines
    assert "(declare-const pick T)" in lines
    assert "(declare-const w!b Bool)" in lines
    assert "(declare-const w!c Bool)" in lines
    assert "(assert (or (= pick T!a) (= pick T!c)))" in lines
    assert "(assert (or w!b w!c))" in lines


def test_unfolded_declarations_facts_and_bounds():
    prob = parse_problem(
        """
vocabulary {
  type T := {a, b}.
  pred p(T).
  func f(T) -> Int[0..5].
  func g(T) -> T.
}
theory {
  !x in T: p(x) | f(x) > 2.
  !x in T: g(x) ~= x.
}
structure {
  p := {a}.
}
"""
    )
    got = emit(ground_problem(prob, "noreduce"))
    check_sexpr_lines(got)
    lines = got.split("\n")
    assert lines[0] == "(set-logic QF_UFDTLIA)"
    assert "(declare-fun p (T) Bool)" in lines
    assert "(declare-fun f (T) Int)" in lines
    assert "(declare-fun g (T) T)" in lines
    # facts for the interpreted predicate come before theory assertions
    i_fact_pos = lines.index("(assert (p T!a))")
    i_fact_neg = lines.index("(assert (not (p T!b)))")
    i_theory = lines.index("(assert (or (p T!a) (> (f T!a) 2)))")
    assert i_fact_pos < i_theory and i_fact_neg < i_theory
    # uninterpreted interval-codomain applications carry bounds
    assert "(assert (<= 0 (f T!a)))" in lines
    assert "(assert (<= (f T!a) 5))" in lines
    assert "(assert (<= 0 (f T!b)))" in lines
    # enum-codomain applications need no bounds, the sort is finite
    assert "(assert (distinct (g T!a) T!a))" in lines
    assert not any("(<= (g" in l or "(<= 0 (g" in l for l in lines)


def test_unfolded_nested_applications():
    prob = parse_problem(
        """
vocabulary {
  type T := {a}.
  func u(T) -> T.
  pred w(T).
}
theory {
  !x in T: w(u(u(x))).
}
structure {
}
"""
    )
    got = emit(ground_problem(prob, "noreduce"))
    check_sexpr_lines(got)
    assert "(assert (w (u (u T!a))))" in got.split("\n")


def test_zero_arity_symbols():
    prob = parse_problem(
        """
vocabulary {
  pred raining().
  pred cold().
}
theory {
  raining() | cold().
}
structure {
}
"""
    )
    got = emit(ground_problem(prob, "vec"))
    assert "(declare-const raining Bool)" in got
    assert "(assert (or raining cold))" in got
    unfolded = emit(ground_problem(prob, "noreduce"))
    assert "(declare-fun raining () Bool)" in unfolded
    assert "(assert (or raining cold))" in unfolded


def test_negative_integers_render_as_unary_minus():
    prob = parse_problem(
        """
vocabulary {
  func f() -> Int[-3..0].
}
theory {
  f() < 0.
}
structure {
}
"""
    )
    got = emit(ground_problem(prob, "vec"))
    lines = got.split("\n")
    assert "(assert (<= (- 3) f))" in lines
    assert "(assert (<= f 0))" in lines
    assert "(assert (< f 0))" in lines


def _manual_theory(voc, s, assertions, mode="reduced"):
    return GroundTheory(s, tuple(assertions), "open", mode, None)


def test_name_sanitization_and_collision_suffix():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["p"] = ("T", "T")
    voc.predicates["p!a_b"] = ("T",)
    s = Structure(voc, {"T": ("a b", "a_b", "b")}, {}, {})
    a_space, a_under, b = (s.constant_for("T", i) for i in range(3))
    # all three mangle to p!a_b!b: distinct atoms, "a b" sanitizes to "a_b"
    f1 = Atom("p", (a_under, b))
    f2 = Atom("p!a_b", (b,))
    f3 = Atom("p", (a_space, b))
    gt = _manual_theory(voc, s, [f1, f2, f3])
    got = emit(gt)
    lines = got.split("\n")
    assert "(declare-const p!a_b!b Bool)" in lines
    assert "(declare-const p!a_b!b!2 Bool)" in lines
    assert "(declare-const p!a_b!b!3 Bool)" in lines
    assert "(assert p!a_b!b)" in lines
    assert "(assert p!a_b!b!2)" in lines
    assert "(assert p!a_b!b!3)" in lines


def test_reserved_words_are_not_shadowed():
    voc = Vocabulary()
    voc.predicates["assert"] = ()
    voc.predicates["true"] = ()
    s = Structure(voc, {}, {}, {})
    gt = _manual_theory(voc, s, [Atom("assert", ()), Atom("true", ())])
    got = emit(gt)
    assert "(declare-const assert!2 Bool)" in got
    assert "(declare-const true!2 Bool)" in got


def test_document_structure():
    prob = parse_problem((DATA / "mapcolour3.sli").read_text())
    doc = document(ground_problem(prob, "vec"))
    assert isinstance(doc, SmtDocument)
    assert doc.logic == "QF_UFDT"
    assert len(doc.sort_decls) == 1
    assert len(doc.const_decls) == 3
    assert doc.footer == "(check-sat)"
    assert doc.text().endswith("(check-sat)\n")


def test_emission_is_injective_on_assertions():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["q"] = ("T",)
    s = Structure(voc, {"T": ("a", "b")}, {}, {})
    atoms = [Atom("q", (s.constant_for("T", i),)) for i in range(2)]
    gt = _manual_theory(voc, s, atoms)
    lines = emit(gt).split("\n")
    asserted = [l for l in lines if l.startswith("(assert ")]
    assert len(asserted) == len(set(asserted)) == 2


# -- sharing: a node is rendered once per object, never changing the text ----


def _fresh(node):
    """A deep copy of a ground formula or term that shares no node."""
    kind = type(node)
    if kind is FunctionApp:
        return FunctionApp(node.name, tuple(_fresh(a) for a in node.args))
    if kind is Atom:
        return Atom(node.pred, tuple(_fresh(a) for a in node.args))
    if kind is Arith or kind is Compare:
        return kind(node.op, _fresh(node.left), _fresh(node.right))
    if kind is Not:
        return Not(_fresh(node.child))
    if kind is And or kind is Or:
        return kind(tuple(_fresh(c) for c in node.children))
    if kind is DomainConstant:
        return DomainConstant(node.name, node.type, node.index)
    if kind is IntConstant:
        return IntConstant(node.value)
    return node  # TRUE, FALSE


def _sharing_structure():
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["p"] = ("T",)
    voc.functions["f"] = FuncSig(("T",), "T")
    voc.functions["g"] = FuncSig(("T",), Interval(0, 3))
    return Structure(voc, {"T": ("a", "b")}, {}, {})


def test_reduced_shared_nodes_beside_equal_copies():
    s = _sharing_structure()
    a, b = (s.constant_for("T", i) for i in range(2))
    g_a, g_a_copy = FunctionApp("g", (a,)), FunctionApp("g", (a,))
    plus = Arith("+", g_a, IntConstant(1))
    plus_copy = Arith("+", g_a_copy, IntConstant(1))
    p_b = Atom("p", (b,))
    assertions = [
        Compare("<", g_a, g_a_copy),
        Or((Compare("=", plus, plus_copy), p_b)),
        Compare("~=", plus, FunctionApp("g", (b,))),
        And((Not(p_b), Compare("=", FunctionApp("f", (a,)), b))),
        Compare(">", Arith("*", plus, plus_copy), g_a),
    ]
    got = emit(_manual_theory(s.voc, s, assertions))
    assert got == "\n".join([
        "(set-logic QF_UFDTLIA)",
        "(declare-datatypes ((T 0)) (((T!a) (T!b))))",
        "(declare-const g!a Int)",
        "(declare-const p!b Bool)",
        "(declare-const g!b Int)",
        "(declare-const f!a T)",
        "(assert (<= 0 g!a))",
        "(assert (<= g!a 3))",
        "(assert (<= 0 g!b))",
        "(assert (<= g!b 3))",
        "(assert (< g!a g!a))",
        "(assert (or (= (+ g!a 1) (+ g!a 1)) p!b))",
        "(assert (distinct (+ g!a 1) g!b))",
        "(assert (and (not p!b) (= f!a T!b)))",
        "(assert (> (* (+ g!a 1) (+ g!a 1)) g!a))",
        "(check-sat)",
        "",
    ])
    assert got == emit(_manual_theory(s.voc, s, [_fresh(f) for f in assertions]))


def test_unfolded_shared_nodes_beside_equal_copies():
    s = _sharing_structure()
    a = s.constant_for("T", 0)
    g_fa = FunctionApp("g", (FunctionApp("f", (a,)),))
    assertions = [
        Compare("<", g_fa, _fresh(g_fa)),
        Atom("p", (g_fa.args[0],)),
        Compare("=", Arith("+", g_fa, g_fa), IntConstant(2)),
        Compare("=", FunctionApp("g", (a,)), g_fa),
    ]
    got = emit(_manual_theory(s.voc, s, assertions, "unfolded"))
    assert got == "\n".join([
        "(set-logic QF_UFDTLIA)",
        "(declare-datatypes ((T 0)) (((T!a) (T!b))))",
        "(declare-fun g (T) Int)",
        "(declare-fun f (T) T)",
        "(declare-fun p (T) Bool)",
        "(assert (<= 0 (g (f T!a))))",
        "(assert (<= (g (f T!a)) 3))",
        "(assert (<= 0 (g T!a)))",
        "(assert (<= (g T!a) 3))",
        "(assert (< (g (f T!a)) (g (f T!a))))",
        "(assert (p (f T!a)))",
        "(assert (= (+ (g (f T!a)) (g (f T!a))) 2))",
        "(assert (= (g T!a) (g (f T!a))))",
        "(check-sat)",
        "",
    ])
    assert got == emit(
        _manual_theory(s.voc, s, [_fresh(f) for f in assertions], "unfolded")
    )


@pytest.mark.parametrize("mode", ["reduced", "unfolded"])
@pytest.mark.parametrize("constructor_first", [False, True])
def test_constructor_keeps_its_name_beside_a_constant(mode, constructor_first):
    # the element "a b" sanitizes to the constructor T!a_b, which is also
    # the name the zero-arity predicate asks for
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.predicates["T!a_b"] = ()
    voc.functions["f"] = FuncSig((), "T")
    s = Structure(voc, {"T": ("a b", "c")}, {}, {})
    atom = Atom("T!a_b", ())
    compare = Compare("=", FunctionApp("f", ()), s.constant_for("T", 0))
    assertions = [compare, atom] if constructor_first else [atom, compare]
    lines = emit(_manual_theory(voc, s, assertions, mode)).split("\n")
    assert lines[1] == "(declare-datatypes ((T 0)) (((T!a_b) (T!c))))"
    declared = "(declare-const T!a_b!2 Bool)" if mode == "reduced" else (
        "(declare-fun T!a_b!2 () Bool)"
    )
    assert declared in lines
    assert "(assert T!a_b!2)" in lines and "(assert (= f T!a_b))" in lines


# -- output pinned before emission became one walk ------------------------------
#
# Each entry is the first 16 hex digits of the SHA-256 of the emitted text,
# or the class of the error grounding raised, as the two-walk emitter
# (collector, then renderer) produced them.

STRATEGIES = ("vec", "naive", "noreduce")

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

COLOUR = """
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


def _digest(theory):
    """The pinned form of what emitting theory() gives."""
    try:
        return hashlib.sha256(emit(theory()).encode()).hexdigest()[:16]
    except SliError as e:
        return type(e).__name__


def _digests(prob):
    return tuple(_digest(lambda: ground_problem(prob, st)) for st in STRATEGIES)


def _random_ground_theory(seed, mode):
    """Random assertions over uninterpreted symbols, built directly: nested
    terms (unfolded mode), every sort and range, and term nodes that recur
    as the same object or as an equal copy."""
    rng = np.random.default_rng(seed)
    voc = Vocabulary()
    voc.types["T"] = EnumType("T")
    voc.types["N"] = IntervalType("N", -1, 2)
    voc.predicates.update(p=("T",), q=("T", "N"), r=())
    voc.functions.update(
        f=FuncSig(("T",), "T"),
        g=FuncSig(("T", "N"), Interval(-2, 5)),
        h=FuncSig(("N",), "N"),
        k=FuncSig((), Interval(0, 1)),
    )
    h = FunctionTable((4,), {(i,): i for i in range(4)})
    s = Structure(voc, {"T": ("a", "b", "c")}, {}, {"h": h})
    unfolded = mode == "unfolded"
    pool = {"T": [], "int": []}

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def const(sort):
        if sort == "T":
            return s.constant_for("T", int(rng.integers(3)))
        return IntConstant(int(rng.integers(-1, 3)))

    def arg(sort, depth):
        return term(sort, depth - 1) if unfolded else const(sort)

    def term(sort, depth):
        r = rng.random()
        if pool[sort] and r < 0.3:
            return pick(pool[sort])
        if pool[sort] and r < 0.45:
            return _fresh(pick(pool[sort]))
        if depth <= 0 or r < 0.6:
            return const(sort)
        if sort == "T":
            t = FunctionApp("f", (arg("T", depth),))
        else:
            which = int(rng.integers(4))
            if which == 0:
                t = FunctionApp("g", (arg("T", depth), arg("int", depth)))
            elif which == 1:
                t = FunctionApp("h", (arg("int", depth),))
            elif which == 2:
                t = FunctionApp("k", ())
            else:
                t = Arith(pick("+-*"), term("int", depth - 1), term("int", depth - 1))
        pool[sort].append(t)
        return t

    def formula(depth):
        r = rng.random()
        if depth <= 0 or r < 0.4:
            leaf = int(rng.integers(5))
            if leaf == 0:
                return Atom("p", (arg("T", 2),))
            if leaf == 1:
                return Atom("q", (arg("T", 2), arg("int", 2)))
            if leaf == 2:
                return pick((Atom("r", ()), TRUE, FALSE))
            if leaf == 3:
                return Compare(pick(("=", "~=")), term("T", 3), term("T", 3))
            ops = ("=", "~=", "<", "=<", ">", ">=")
            return Compare(pick(ops), term("int", 3), term("int", 3))
        if r < 0.55:
            return Not(formula(depth - 1))
        kids = tuple(formula(depth - 1) for _ in range(int(rng.integers(1, 4))))
        return (And if r < 0.8 else Or)(kids)

    assertions = tuple(formula(3) for _ in range(int(rng.integers(3, 9))))
    return GroundTheory(s, assertions, "open", mode, None)


def test_random_problems_emit_their_pinned_text():
    got = {}
    for seed in PINNED_MX:
        s, sentences = random_mx_problem(np.random.default_rng(seed))
        got[seed] = _digests(Problem(s.voc, sentences, s))
    assert got == PINNED_MX


def test_random_ground_theories_emit_their_pinned_text():
    got = {
        seed: tuple(
            _digest(lambda: _random_ground_theory(seed, mode))
            for mode in ("reduced", "unfolded")
        )
        for seed in PINNED_GROUND
    }
    assert got == PINNED_GROUND


def test_workload_shapes_emit_their_pinned_text():
    n = 12
    colour = COLOUR.format(
        vertices=", ".join(f"v{i}" for i in range(n)),
        border=", ".join(f"(v{i}, v{(i + d) % n})" for i in range(n) for d in (1, 2)),
    )
    got = {
        "queens": _digests(parse_problem(QUEENS.format(n=5))),
        "colour": _digests(parse_problem(colour)),
    }
    assert got == PINNED_SHAPES


# (vec, naive, noreduce) per random_mx_problem seed
PINNED_MX = {
    0: ('622cc17af91bef9e', '622cc17af91bef9e', '622cc17af91bef9e'),
    1: ('622cc17af91bef9e', '622cc17af91bef9e', '96b91e73f86e08b1'),
    2: ('IndexOutOfRange', 'IndexOutOfRange', '622cc17af91bef9e'),
    3: ('7c411b6c5ca34884', '7c411b6c5ca34884', '9c33613543ab8d66'),
    4: ('622cc17af91bef9e', '622cc17af91bef9e', '50fe1fee6c8a3b2e'),
    5: ('622cc17af91bef9e', '622cc17af91bef9e', '25eb3e109d78f06b'),
    6: ('be0419bd5e08f99d', 'be0419bd5e08f99d', '079a7a5b09ee8d47'),
    7: ('a12f23cad4c536ee', 'a12f23cad4c536ee', '6009137853cbb4b8'),
    8: ('622cc17af91bef9e', '622cc17af91bef9e', '4eea506f4f46f595'),
    9: ('ace2bd2f005eee70', 'ace2bd2f005eee70', '982bcaa5b8b9e89f'),
    10: ('622cc17af91bef9e', '622cc17af91bef9e', '622cc17af91bef9e'),
    11: ('622cc17af91bef9e', '622cc17af91bef9e', '5dd9c2f314f7c19b'),
    12: ('c9a1fa9b69067632', 'c9a1fa9b69067632', '77edadecde47a6c5'),
    13: ('99902893df8abade', '99902893df8abade', '12a59349767c4527'),
    14: ('622cc17af91bef9e', '622cc17af91bef9e', 'd8f7f2cc62264bf3'),
    15: ('99902893df8abade', '99902893df8abade', '99902893df8abade'),
    16: ('622cc17af91bef9e', '622cc17af91bef9e', '622cc17af91bef9e'),
    17: ('622cc17af91bef9e', '622cc17af91bef9e', 'e163b67760d54505'),
    18: ('99902893df8abade', '99902893df8abade', '99902893df8abade'),
    19: ('622cc17af91bef9e', '622cc17af91bef9e', '4b0d680d61ca1dda'),
    20: ('ca06296693853862', 'ca06296693853862', 'b9296a1fbae98dda'),
    21: ('99902893df8abade', '99902893df8abade', '7de21327a5f11950'),
    22: ('622cc17af91bef9e', '622cc17af91bef9e', '9b1dd9ecc026681b'),
    23: ('622cc17af91bef9e', '622cc17af91bef9e', '622cc17af91bef9e'),
    24: ('622cc17af91bef9e', '622cc17af91bef9e', '3dccd972f8ab1fa2'),
    25: ('622cc17af91bef9e', '622cc17af91bef9e', '02cd72c84a885163'),
    26: ('622cc17af91bef9e', '622cc17af91bef9e', '0f854510c0edfacb'),
    27: ('622cc17af91bef9e', '622cc17af91bef9e', '622cc17af91bef9e'),
    28: ('554b01eeabf226ec', '554b01eeabf226ec', 'bf949e1e5747eef1'),
    29: ('2f1cefe98f22eb09', '2f1cefe98f22eb09', 'e14224659f692dee'),
}

# (reduced, unfolded) per _random_ground_theory seed
PINNED_GROUND = {
    0: ('439fa0a56dbca624', '26acf0bdcb906559'),
    1: ('0e656780479b31d1', '9b75f872fd91dad2'),
    2: ('4cf628bc56e9b4db', '1eca5925671755b8'),
    3: ('8224978811e49081', '261a7d5f0bfa63f2'),
    4: ('32b4215ca77d266c', '4a958de240643422'),
    5: ('c1b80c2c0ff28e0b', 'ee4eed442bbcecbd'),
    6: ('e95b1b9a98d21851', 'ad3e830a72d32b75'),
    7: ('3a09b2c61525831f', '7c0e475bf995a218'),
    8: ('2c96fdb8387a4437', 'f5345f0e63444d0e'),
    9: ('8c74c85900fc1939', '8d150ae43da95173'),
    10: ('a304329055a3b4b2', 'f267c9be83e86e54'),
    11: ('6e9dfd2fda29313b', '702e27da2b5afbcd'),
    12: ('f30774da31376d1a', 'cd454d9b7ad7d64f'),
    13: ('d64378106fc2e0ad', '691bae18426099b1'),
    14: ('35b91300db03bd28', '0fdcb3ecff80c8eb'),
    15: ('b54e417e9dd94c39', '4e3466b00b1bc512'),
    16: ('1dbe879c30ad0052', 'fc5e33bfc70d2378'),
    17: ('7fa4f36a622a75d8', '896d4e71876e5548'),
    18: ('c9c3a14d22904943', 'a050929e6c2d78f3'),
    19: ('c4ac40b99b21c99d', 'e7a8cab894c96d8b'),
    20: ('04369db791e70b47', '79814bc2806bddf3'),
    21: ('d145e4ac26fb10ff', '5ed9e31a6065531a'),
    22: ('8abaf086529b3c58', '7f2a34112b97788b'),
    23: ('6e500fff30ed117a', '0fda182610e4cd72'),
    24: ('7bffc26185ee1a3e', 'b74e4261c1dc94f8'),
    25: ('2859b32bd6468d38', '5d7def9dd2d69408'),
    26: ('c9264cba33eb1791', '605c188c15a00234'),
    27: ('519d347ad31b8a06', '712e05caa5f511a7'),
    28: ('2d8cd2488d2b76d5', 'e787ee715b0280ed'),
    29: ('81e90e70a7e49f1b', 'c6c7b734941fb504'),
}

# (vec, naive, noreduce) per shape: queens n=5, colour of a 12-cycle with chords
PINNED_SHAPES = {
    'queens': ('8b0550ba9c2e2094', '8b0550ba9c2e2094', 'cf640fe4cb775454'),
    'colour': ('8676f533a670fd3b', '8676f533a670fd3b', 'ac471addb02f92e5'),
}
