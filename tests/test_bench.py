"""Benchmark generators: PRNG stability, instance semantics, harness CSV."""

import itertools

import numpy as np
import pytest

from sli.bench import (
    CSV_HEADER,
    BenchSpec,
    SplitMix64,
    gen_ci,
    gen_cs,
    gen_tg,
    generate,
    records_to_csv,
    run_bench,
    run_one,
)
from sli.errors import InvalidSpec
from sli.grounder import ground_problem
from sli.logic import eval_formula


def test_splitmix_reference_vectors():
    # first outputs of the reference splitmix64 for seed 0
    rng = SplitMix64(0)
    assert [rng.next() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_vectorized_stream_matches_scalar():
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    scalar = [a.next() for _ in range(257)]
    vec = list(b.words(100)) + [b.next()] + list(b.words(156))
    assert scalar == [int(w) for w in vec]
    assert a.state == b.state


def test_next_below_range_and_determinism():
    rng = SplitMix64(7)
    draws = [rng.next_below(10) for _ in range(1000)]
    assert set(draws) == set(range(10))
    replay = SplitMix64(7)
    assert [replay.next_below(10) for _ in range(5)] == draws[:5]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="xx", size=5, variant="sat"),
        dict(family="ci", size=0, variant="sat", ratio=0.5),
        dict(family="ci", size=5, variant="sat", ratio=1.5),
        dict(family="ci", size=5, variant="sat", ratio=-0.1),
        dict(family="ci", size=5),
        dict(family="cs", size=5, variant="maybe"),
        dict(family="tg", size=5, variant="sat"),
        dict(family="ci", size=5, variant="sat", ratio=0.0),
        dict(family="cs", size=5, variant="unsat", ratio=0.0),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(InvalidSpec):
        BenchSpec(**kwargs)


def _sets(problem):
    p = {t[0] for t in problem.structure.relations["p"]}
    q = {t[0] for t in problem.structure.relations["q"]}
    return p, q


def test_ci_sat_overlap_counts():
    prob = gen_ci(BenchSpec("ci", 40, 0.25, 3, "sat"))
    p, q = _sets(prob)
    assert len(p & q) == 10  # ceil(0.25 * 40)
    assert p | q == set(range(40))
    assert eval_formula(prob.sentences[0], prob.structure, {})


def test_ci_unsat_disjoint_with_gap():
    prob = gen_ci(BenchSpec("ci", 40, 0.25, 3, "unsat"))
    p, q = _sets(prob)
    assert not p & q
    assert len(set(range(40)) - (p | q)) == 10
    assert not eval_formula(prob.sentences[0], prob.structure, {})


def test_cs_sat_covers_with_overlap():
    prob = gen_cs(BenchSpec("cs", 30, 0.2, 9, "sat"))
    p, q = _sets(prob)
    assert p | q == set(range(30))
    assert len(p & q) == 6
    assert eval_formula(prob.sentences[0], prob.structure, {})


def test_cs_unsat_leaves_gap():
    prob = gen_cs(BenchSpec("cs", 30, 0.2, 9, "unsat"))
    p, q = _sets(prob)
    assert len(set(range(30)) - (p | q)) == 6
    assert not p & q
    assert not eval_formula(prob.sentences[0], prob.structure, {})


def test_tg_edge_counts_and_shape():
    prob = gen_tg(BenchSpec("tg", 9, seed=5))
    edges = prob.structure.relations["edge"]
    assert len(edges) == 3
    assert all(a != b for a, b in edges)
    assert prob.structure.relations["edge"] == gen_tg(
        BenchSpec("tg", 9, seed=5)
    ).structure.relations["edge"]
    assert len(gen_tg(BenchSpec("tg", 2, seed=1)).structure.relations["edge"]) == 0
    assert len(gen_tg(BenchSpec("tg", 100, seed=1)).structure.relations["edge"]) == 33


def test_generation_is_deterministic():
    for kwargs in (
        dict(family="ci", size=64, ratio=0.3, seed=11, variant="sat"),
        dict(family="cs", size=64, ratio=0.3, seed=11, variant="unsat"),
        dict(family="tg", size=64, seed=11),
    ):
        a, b = generate(BenchSpec(**kwargs)), generate(BenchSpec(**kwargs))
        assert a.structure.relations == b.structure.relations
        assert a.structure.domains == b.structure.domains
        assert a.sentences == b.sentences


def test_verdicts_match_brute_force_at_small_sizes():
    seeds = (0, 1, 2)
    specs = []
    for size, seed in itertools.product((1, 2, 7, 50, 200), seeds):
        specs += [
            BenchSpec("ci", size, 0.5, seed, "sat"),
            BenchSpec("ci", size, 0.5, seed, "unsat"),
            BenchSpec("cs", size, 0.5, seed, "sat"),
            BenchSpec("cs", size, 0.5, seed, "unsat"),
        ]
    # the triangle scan is cubic, keep its brute-force sizes small
    for size, seed in itertools.product((1, 2, 7, 21, 30), seeds):
        specs.append(BenchSpec("tg", size, seed=seed))
    for spec in specs:
        prob = generate(spec)
        want = eval_formula(prob.sentences[0], prob.structure, {})
        for strategy in ("vec", "naive"):
            gt = ground_problem(prob, strategy)
            got = gt.verdict == "sat-trivial"
            assert gt.verdict in ("sat-trivial", "unsat-trivial")
            assert got == want, (spec, strategy)


def test_expected_verdicts_by_construction():
    assert (
        ground_problem(generate(BenchSpec("ci", 1000, 0.001, 4, "sat")), "vec").verdict
        == "sat-trivial"
    )
    assert (
        ground_problem(
            generate(BenchSpec("ci", 1000, 0.001, 4, "unsat")), "vec"
        ).verdict
        == "unsat-trivial"
    )
    assert (
        ground_problem(generate(BenchSpec("cs", 1000, 0.001, 4, "sat")), "vec").verdict
        == "sat-trivial"
    )
    assert (
        ground_problem(
            generate(BenchSpec("cs", 1000, 0.001, 4, "unsat")), "vec"
        ).verdict
        == "unsat-trivial"
    )


def test_run_bench_rows_and_header():
    specs = [
        BenchSpec("ci", 12, 0.25, 5, "sat"),
        BenchSpec("tg", 9, seed=5),
    ]
    records = run_bench(specs, ["vec", "naive", "noreduce"])
    assert len(records) == 6
    assert [r.strategy for r in records] == ["vec", "naive", "noreduce"] * 2
    assert all(r.timeout == 0 for r in records)
    assert all(r.ground_us >= 0 and r.emit_us >= 0 for r in records)
    ci = records[0]
    assert (ci.benchmark, ci.size, ci.ratio, ci.seed) == ("ci-sat", 12, 0.25, 5)
    assert ci.verdict == "sat-trivial" and ci.assertions == 0
    nr = records[2]
    assert nr.verdict == "open" and nr.assertions > 0
    csv = records_to_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "benchmark,instance,strategy,size,ratio,seed,"
        "ground_us,emit_us,verdict,assertions,peak_bits,timeout"
    )
    assert len(lines) == 7
    assert lines[1].startswith("ci-sat,ci-sat-n12-r0.25-s5,vec,12,0.25,5,")


def test_empty_spec_list_gives_header_only():
    assert records_to_csv(run_bench([], ["vec"])) == CSV_HEADER + "\n"


def test_timeouts_are_rows_not_errors():
    spec = BenchSpec("cs", 50_000, 0.5, 1, "sat")
    records = run_bench([spec], ["naive"], timeout=0.0, emit=True)
    (r,) = records
    assert r.timeout == 1
    assert r.ground_us is None and r.emit_us is None
    assert r.verdict == "" and r.assertions is None and r.peak_bits is None
    row = r.csv_row()
    assert row == f"cs-sat,{spec.instance},naive,50000,0.5,1,,,,,,1"


def test_no_emit_skips_emission_timing():
    spec = BenchSpec("cs", 10, 0.5, 1, "sat")
    (r,) = run_bench([spec], ["vec"], emit=False)
    assert r.emit_us is None and r.ground_us is not None and r.timeout == 0


def test_run_one_matches_direct_grounding():
    spec = BenchSpec("tg", 30, seed=8)
    prob = generate(spec)
    rec = run_one(spec, prob, "vec")
    gt = ground_problem(prob, "vec")
    assert rec.verdict == gt.verdict
    assert rec.assertions == len(gt.assertions)
    assert rec.peak_bits == gt.stats.peak_bits
