"""Random vocabularies, structures, and formulas for oracle-based tests.

`enumerate_satset` is the brute-force reference for satisfying sets: loop
over every index tuple, evaluate the formula recursively, collect hits.
It shares only the AST and `eval_formula` with the tensor path.
"""

import itertools

import numpy as np

from sli.logic import (
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
    free_variables,
)

_ELEMENT_NAMES = "abcdefgh"


def enumerate_satset(f, vars, structure):
    """All index tuples over `vars` satisfying f (nested-loop reference)."""
    domains = [range(structure.domain_size(v.type)) for v in vars]
    hits = set()
    for assignment in itertools.product(*domains):
        env = {
            v.name: structure.index_to_value(v.type, idx)
            for v, idx in zip(vars, assignment)
        }
        if eval_formula(f, structure, env):
            hits.add(assignment)
    return hits


def random_structure(
    rng: np.random.Generator,
    *,
    max_enum_types: int = 2,
    max_size: int = 6,
    min_size: int = 1,
    n_preds: tuple[int, int] = (1, 3),
    n_funcs: tuple[int, int] = (0, 2),
    uninterpreted: int = 0,
    allow_interval_type: bool = True,
    max_pred_arity: int = 2,
):
    """A random vocabulary plus structure; the last `uninterpreted`
    predicates get no interpretation."""
    voc = Vocabulary()
    domains = {}
    type_names = []
    for i in range(int(rng.integers(1, max_enum_types + 1))):
        name = f"T{i}"
        size = int(rng.integers(min_size, max_size + 1))
        voc.types[name] = EnumType(name)
        domains[name] = tuple(f"{_ELEMENT_NAMES[j]}{i}" for j in range(size))
        type_names.append(name)
    if allow_interval_type and rng.random() < 0.4:
        lo = int(rng.integers(-2, 3))
        size = int(rng.integers(max(1, min_size), max_size + 1))
        voc.types["N"] = IntervalType("N", lo, lo + size - 1)
        type_names.append("N")

    def type_size(t):
        decl = voc.types[t]
        return decl.hi - decl.lo + 1 if isinstance(decl, IntervalType) else len(domains[t])

    relations = {}
    total_preds = int(rng.integers(*[n_preds[0], n_preds[1] + 1])) + uninterpreted
    for i in range(total_preds):
        name = f"p{i}"
        arity = int(rng.integers(0, max_pred_arity + 1))
        args = tuple(type_names[int(rng.integers(0, len(type_names)))] for _ in range(arity))
        voc.predicates[name] = args
        if i < total_preds - uninterpreted:
            space = list(itertools.product(*(range(type_size(t)) for t in args)))
            keep = rng.random(len(space)) < rng.uniform(0.2, 0.8)
            relations[name] = frozenset(t for t, k in zip(space, keep) if k)

    functions = {}
    for i in range(int(rng.integers(*[n_funcs[0], n_funcs[1] + 1]))):
        name = f"f{i}"
        arity = int(rng.integers(1, 3))
        args = tuple(type_names[int(rng.integers(0, len(type_names)))] for _ in range(arity))
        if rng.random() < 0.5:
            lo = int(rng.integers(-3, 1))
            cod = Interval(lo, lo + int(rng.integers(1, 8)))
            values = lambda: int(rng.integers(cod.lo, cod.hi + 1))
        else:
            cod_name = type_names[int(rng.integers(0, len(type_names)))]
            cod = cod_name
            decl = voc.types[cod_name]
            if isinstance(decl, IntervalType):
                values = lambda: int(rng.integers(decl.lo, decl.hi + 1))
            else:
                values = lambda: int(rng.integers(0, max(1, type_size(cod_name))))
        voc.functions[name] = FuncSig(args, cod)
        sizes = tuple(type_size(t) for t in args)
        if 0 in sizes:
            entries = {}
        else:
            entries = {
                key: values() for key in itertools.product(*(range(s) for s in sizes))
            }
        functions[name] = FunctionTable(sizes, entries)

    return Structure(voc, domains, relations, functions)


def _enum_types(structure):
    return [
        n
        for n, d in structure.voc.types.items()
        if not isinstance(d, IntervalType) and len(structure.domains[n]) > 0
    ]


def _quantifiable_types(structure):
    out = []
    for n, d in structure.voc.types.items():
        if structure.domain_size(n) > 0:
            out.append(n)
    return out


def random_term(rng, structure, scope, kind, depth):
    """kind is ('enum', T) or ('int',)."""
    voc = structure.voc
    choices = []
    if kind == ("int",):
        choices.append("const")
        int_vars = [v for v in scope if isinstance(voc.types[v.type], IntervalType)]
        if int_vars:
            choices.append("var")
        if depth > 0:
            choices.append("arith")
    else:
        t = kind[1]
        if structure.domains.get(t):
            choices.append("elem")
        enum_vars = [v for v in scope if v.type == t]
        if enum_vars:
            choices.append("var")
    if depth > 0:
        funcs = [
            (n, sig)
            for n, sig in voc.functions.items()
            if n in structure.functions
            and (
                (kind == ("int",) and (isinstance(sig.codomain, Interval) or isinstance(voc.types[sig.codomain], IntervalType)))
                or (kind[0] == "enum" and sig.codomain == kind[1])
            )
            and all(_can_make_term(structure, scope, t) for t in sig.args)
        ]
        if funcs:
            choices.append("func")
    if not choices:
        if kind == ("int",):
            return IntConstant(int(rng.integers(-3, 7)))
        t = kind[1]
        i = int(rng.integers(0, len(structure.domains[t])))
        return DomainConstant(structure.domains[t][i], t, i)
    pick = choices[int(rng.integers(0, len(choices)))]
    if pick == "const":
        return IntConstant(int(rng.integers(-3, 7)))
    if pick == "elem":
        t = kind[1]
        i = int(rng.integers(0, len(structure.domains[t])))
        return DomainConstant(structure.domains[t][i], t, i)
    if pick == "var":
        if kind == ("int",):
            vs = [v for v in scope if isinstance(voc.types[v.type], IntervalType)]
        else:
            vs = [v for v in scope if v.type == kind[1]]
        return vs[int(rng.integers(0, len(vs)))]
    if pick == "arith":
        op = "+-*"[int(rng.integers(0, 3))]
        return Arith(
            op,
            random_term(rng, structure, scope, ("int",), depth - 1),
            random_term(rng, structure, scope, ("int",), depth - 1),
        )
    name, sig = funcs[int(rng.integers(0, len(funcs)))]
    args = tuple(
        random_term(rng, structure, scope, _kind_of(structure, t), min(depth - 1, 1))
        for t in sig.args
    )
    return FunctionApp(name, args)


def _kind_of(structure, type_name):
    decl = structure.voc.types[type_name]
    return ("int",) if isinstance(decl, IntervalType) else ("enum", type_name)


def _can_make_term(structure, scope, type_name):
    kind = _kind_of(structure, type_name)
    if kind == ("int",):
        return True
    return bool(structure.domains.get(type_name)) or any(v.type == type_name for v in scope)


def random_formula(
    rng,
    structure,
    scope,
    depth,
    *,
    uninterpreted_ok=False,
    fresh_names=("x", "y", "z"),
    term_depth=1,
):
    """Random formula in the desugared core with free variables from scope;
    term_depth bounds the nesting of the terms under atoms and comparisons."""
    voc = structure.voc
    leafs = ["true", "false"]
    preds = [
        p
        for p, args in voc.predicates.items()
        if (uninterpreted_ok or p in structure.relations)
        and all(_can_make_term(structure, scope, t) for t in args)
    ]
    if preds:
        leafs += ["atom", "atom"]
    leafs.append("cmp")
    inner = []
    if depth > 0:
        inner = ["not", "and", "or"]
        unused = [n for n in fresh_names if all(v.name != n for v in scope)]
        if unused and _quantifiable_types(structure):
            inner += ["forall", "exists"]
    pool = leafs + inner * 2
    kind = pool[int(rng.integers(0, len(pool)))]
    if kind == "true":
        from sli.logic import TRUE

        return TRUE
    if kind == "false":
        from sli.logic import FALSE

        return FALSE
    if kind == "atom":
        p = preds[int(rng.integers(0, len(preds)))]
        args = tuple(
            random_term(rng, structure, scope, _kind_of(structure, t), term_depth)
            for t in voc.predicates[p]
        )
        return Atom(p, args)
    if kind == "cmp":
        enum_types = [t for t in _enum_types(structure) if _can_make_term(structure, scope, t)]
        if enum_types and rng.random() < 0.4:
            t = enum_types[int(rng.integers(0, len(enum_types)))]
            op = "=" if rng.random() < 0.5 else "~="
            return Compare(
                op,
                random_term(rng, structure, scope, ("enum", t), term_depth),
                random_term(rng, structure, scope, ("enum", t), term_depth),
            )
        op = ("=", "~=", "<", "=<", ">", ">=")[int(rng.integers(0, 6))]
        return Compare(
            op,
            random_term(rng, structure, scope, ("int",), term_depth),
            random_term(rng, structure, scope, ("int",), term_depth),
        )
    if kind == "not":
        return Not(random_formula(rng, structure, scope, depth - 1, uninterpreted_ok=uninterpreted_ok, fresh_names=fresh_names, term_depth=term_depth))
    if kind in ("and", "or"):
        n = int(rng.integers(2, 4))
        cls = And if kind == "and" else Or
        return cls(
            tuple(
                random_formula(rng, structure, scope, depth - 1, uninterpreted_ok=uninterpreted_ok, fresh_names=fresh_names, term_depth=term_depth)
                for _ in range(n)
            )
        )
    unused = [n for n in fresh_names if all(v.name != n for v in scope)]
    qt = _quantifiable_types(structure)
    t = qt[int(rng.integers(0, len(qt)))]
    var = Variable(unused[0], t)
    body = random_formula(
        rng, structure, scope + [var], depth - 1, uninterpreted_ok=uninterpreted_ok, fresh_names=fresh_names, term_depth=term_depth
    )
    return (ForAll if kind == "forall" else Exists)(var, body)


def random_sentence(rng, structure, depth, *, uninterpreted_ok=False):
    """A closed random formula: leftover free variables get quantified."""
    f = random_formula(rng, structure, [], depth, uninterpreted_ok=uninterpreted_ok)
    for v in reversed(free_variables(f)):
        f = (ForAll if rng.random() < 0.5 else Exists)(v, f)
    return f


def random_mx_problem(rng, *, max_candidate_bits=10, n_sentences=(1, 3), depth=3):
    """A model-expansion problem: a partial structure leaving 1-2 predicates
    uninterpreted, with a candidate space small enough to enumerate."""
    # per-problem floor on open bits, so the mix skews away from 1-bit spaces
    floor = int(rng.integers(1, max_candidate_bits + 1))
    while True:
        uninterp = int(rng.integers(1, 3))
        s = random_structure(
            rng,
            max_enum_types=2,
            max_size=4,
            min_size=2,
            n_preds=(1, 2),
            n_funcs=(0, 1),
            uninterpreted=uninterp,
            max_pred_arity=2,
        )
        bits = 0
        for name, args in s.voc.predicates.items():
            if name not in s.relations:
                space = 1
                for t in args:
                    space *= s.domain_size(t)
                bits += space
        if floor <= bits <= max_candidate_bits:
            break
        floor = max(1, floor - 1)
    sentences = tuple(
        random_sentence(rng, s, depth, uninterpreted_ok=True)
        for _ in range(int(rng.integers(*[n_sentences[0], n_sentences[1] + 1])))
    )
    return s, sentences


def candidate_structures(structure):
    """Every total extension of a partial structure (uninterpreted
    predicates only), as full Structure objects."""
    voc = structure.voc
    open_preds = [p for p in voc.predicates if p not in structure.relations]
    for name in voc.functions:
        if name not in structure.functions:
            raise ValueError("function enumeration not supported here")
    spaces = []
    for p in open_preds:
        sizes = [structure.domain_size(t) for t in voc.predicates[p]]
        spaces.append(list(itertools.product(*(range(n) for n in sizes))))
    masks = [range(1 << len(space)) for space in spaces]
    for combo in itertools.product(*masks):
        relations = dict(structure.relations)
        for p, space, mask in zip(open_preds, spaces, combo):
            relations[p] = frozenset(
                tup for i, tup in enumerate(space) if mask >> i & 1
            )
        yield Structure(voc, structure.domains, relations, structure.functions)


def theory_holds(sentences, full_structure):
    return all(eval_formula(f, full_structure, {}) for f in sentences)


def ground_theory_holds(gt, full_structure):
    """Evaluate a ground theory's assertions under a total structure."""
    if gt.verdict == "sat-trivial":
        return True
    if gt.verdict == "unsat-trivial":
        return False
    return all(eval_formula(a, full_structure, {}) for a in gt.assertions)
