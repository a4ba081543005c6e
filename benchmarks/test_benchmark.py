"""Self-test of the benchmark at toy sizes: `python3 -m pytest benchmarks`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

run._import_sli()

import workloads  # noqa: E402  (needs sli on the path)
from sli import grounder, smt  # noqa: E402
from sli.grounder import ground_problem  # noqa: E402
from sli.parser import parse_problem  # noqa: E402
from sli.smt import emit  # noqa: E402

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def toy(name: str, seed: int = 3) -> workloads.Instance:
    return workloads.WORKLOADS[name](seed, **workloads.TOY_SIZES[name])


def grounded(inst: workloads.Instance) -> tuple[str, str]:
    gt = ground_problem(parse_problem(inst.text), "vec")
    return gt.verdict, emit(gt)


def measure(name: str, trace: bool, tmp_path) -> dict:
    return run.measure(name, 3, 0, trace, sizes=workloads.TOY_SIZES[name], trace_dir=tmp_path)[1]


def test_every_declared_workload_has_a_generator():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_renders_same_text(name):
    assert toy(name, 5).text == toy(name, 5).text


@pytest.mark.parametrize("name", ["colour", "triangle"])
def test_seed_changes_the_instance(name):
    assert toy(name, 1).text != toy(name, 2).text


@pytest.mark.parametrize("name", NAMES)
def test_correct_output_passes_its_check(name):
    inst = toy(name)
    assert inst.check(*grounded(inst)) is None


@pytest.mark.parametrize("name", ["colour", "queens"])
def test_dropped_or_repeated_assertion_fails_its_check(name):
    inst = toy(name)
    verdict, out = grounded(inst)
    lines = out.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("(assert (distinct"))
    dropped = "\n".join(lines[:first] + lines[first + 1 :]) + "\n"
    assert inst.check(verdict, dropped) is not None
    repeated = "\n".join(lines[:first] + [lines[first + 1]] + lines[first + 1 :]) + "\n"
    assert inst.check(verdict, repeated) is not None


def test_flipped_triangle_verdict_fails_its_check():
    inst = toy("triangle")
    verdict, out = grounded(inst)
    flipped = {"sat-trivial": "unsat-trivial", "unsat-trivial": "sat-trivial"}[verdict]
    assert inst.check(flipped, out) is not None
    swap = {"(assert true)": "(assert false)", "(assert false)": "(assert true)"}
    swapped = "\n".join(swap.get(line, line) for line in out.splitlines()) + "\n"
    assert inst.check(verdict, swapped) is not None


def test_triangle_reference_search():
    assert checks.has_triangle({(0, 1), (1, 2), (2, 0)})
    assert not checks.has_triangle({(0, 1), (1, 2), (0, 2)})


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = measure(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric_and_counts_repeat(name, tmp_path):
    first, second = measure(name, True, tmp_path), measure(name, True, tmp_path)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        if m["unit"] == "count":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
    spans = (tmp_path / f"{name}-s3.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["workload"] == name
    assert len(spans) > 1 and all(len(json.loads(s)) == 6 for s in spans[1:])


def test_changed_output_between_ops_fails(monkeypatch, tmp_path):
    calls = []

    def drifting_emit(gt):
        calls.append(None)
        return emit(gt) + f"; op {len(calls)}\n"

    monkeypatch.setattr(smt, "emit", drifting_emit)
    result = measure("queens", True, tmp_path)
    assert result["attempted"] == 2 and result["failed"] == 1 and not result["correct"]


def test_exception_counts_as_failed_op(monkeypatch, tmp_path):
    def broken(problem, strategy, **kwargs):
        raise MemoryError("simulated")

    monkeypatch.setattr(grounder, "ground_problem", broken)
    result = measure("queens", False, tmp_path)
    assert result["failed"] == result["attempted"] == 1 and not result["correct"]


def test_tail_needs_ten_samples_beyond():
    assert "n/a" in run.tail([1.0] * 10)
    assert run.tail([float(i) for i in range(1, 21)]).startswith("p50 10 ")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "colour", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
