"""End-to-end and per-layer benchmark of sli.

One timed op is a full grounding, in process, as a user runs one:
`parse_problem(text)` -> `ground_problem(problem, "vec")` -> `emit(gt)`.
Before every op, set-up renders the `.sli` text from `--seed` afresh;
the median of all set-up times is `setup_s`.  Every op's output is
checked against a reference that does not use the grounder, and its
SHA-256 must equal the first op's.  Ops run back to back in one thread
(a closed loop with one client) for `--seconds`.

    python3 benchmarks/run.py --workload colour --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seconds 30

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates untraced and traced ops and reports the per-layer metrics,
with the spans of the last traced op written to `.bench_trace/`.
`--workload all` runs each workload in a fresh process, one after another.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

OP_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 170.0
# set-up runs before every op, repeated until this much time is spent, so
# its samples spread over the run like the ops' do
SETUP_MIN_S = 0.05
TAIL_BEYOND = 10


def _import_sli():
    """Import sli from this checkout's src/, never from anywhere else."""
    if not (SRC / "sli" / "__init__.py").is_file():
        raise SystemExit(f"run.py: error: no sli sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sli

    if not Path(sli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"run.py: error: imported sli from {sli.__file__}")


def _single_threaded_env() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[var] = "1"


def tail(samples: list[float]) -> str:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return f"tail n/a ({n} samples; a tail needs {TAIL_BEYOND + 1})"
    k = n - TAIL_BEYOND
    return f"p{100 * k / n:.0f} {sorted(samples)[k - 1]:.6g} ({n} samples, {TAIL_BEYOND} beyond)"


def env_facts() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "sli").glob("*.py"))
        ),
    }


def _set_up(build, seed: int, sizes: dict, times: list[float]):
    """Build the instance at least once and for SETUP_MIN_S, appending
    each set-up time; returns the last instance built."""
    spent = 0.0
    while spent < SETUP_MIN_S:
        t0 = time.perf_counter()
        inst = build(seed, **sizes)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return inst


def _op(inst):
    """One timed grounding: (parse, ground, emit) seconds and its outputs.
    The callables are looked up on their modules at call time, so that a
    traced op goes through the tracer's wrappers."""
    from sli import grounder, parser, smt

    t0 = time.perf_counter()
    problem = parser.parse_problem(inst.text)
    t1 = time.perf_counter()
    gt = grounder.ground_problem(problem, "vec", timeout=OP_TIMEOUT_S)
    t2 = time.perf_counter()
    out = smt.emit(gt)
    t3 = time.perf_counter()
    return (t1 - t0, t2 - t1, t3 - t2), problem, gt, out


def measure(name, seed, seconds, trace, sizes=None, trace_dir=None):
    """Run one workload in this process; returns (report lines, result)."""
    import tracing
    import workloads

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    setup_times: list[float] = []
    tracer = tracing.Tracer() if trace else None
    plain, traced, layers = [], [], []
    failed, digest, smt_bytes, spans = 0, None, 0, None
    start = time.perf_counter()
    while True:
        on = tracer is not None and len(traced) < len(plain)
        inst = _set_up(workloads.WORKLOADS[name], seed, sizes or {}, setup_times)
        gc.collect()
        if on:
            tracer.reset()
            tracer.install()
        times = (0.0, 0.0, 0.0)
        try:
            times, problem, gt, out = _op(inst)
            reason = None
        except Exception as exc:  # a failed op is counted, not fatal
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            if on:
                tracer.uninstall()
        if reason is None:
            data = out.encode()
            sha = hashlib.sha256(data).hexdigest()
            digest = digest or sha
            smt_bytes = len(data)
            reason = inst.check(gt.verdict, out)
            if reason is None and sha != digest:
                reason = f"SMT output sha256 {sha} differs from the first op's {digest}"
            if reason is None and sum(times) > OP_TIMEOUT_S:
                reason = f"op took {sum(times):.1f} s, over {OP_TIMEOUT_S} s"
            if on:
                layers.append(tracing.op_metrics(tracer, problem, gt, smt_bytes))
                spans = tracer.spans
            del problem, gt, out, data
        (traced if on else plain).append(times)
        attempted = len(plain) + len(traced)
        if reason is not None:
            failed += 1
            print(f"run.py: op {attempted - 1} failed: {reason}", file=sys.stderr)
        # stop before an op of average length would overrun the run
        elapsed = time.perf_counter() - start
        if elapsed * (attempted + 1) / attempted > seconds and (tracer is None or traced):
            break

    total = [sum(t) for t in plain]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        declared = spec["per_layer"]
        if layers:
            values = tracing.median_metrics(layers)
        else:
            values = dict.fromkeys((m["name"] for m in declared), 0.0)
        plain_s = statistics.median(total)
        values["trace.overhead"] = statistics.median(map(sum, traced)) / plain_s if plain_s else 0.0
        peak_bytes = values["bittensor.peak_bits"] / 8
        values["bittensor.rss_over_packed"] = rss_mib * 2**20 / peak_bytes if peak_bytes else 0.0
        samples = {}
    else:
        declared = spec["end_to_end"]
        ground = [t[1] for t in plain]
        values = {
            "total_s": statistics.median(total),
            "ground_s": statistics.median(ground),
            "peak_rss_mib": rss_mib,
            "smt_bytes": smt_bytes,
            "setup_s": statistics.median(setup_times),
        }
        samples = {"total_s": total, "ground_s": ground, "setup_s": setup_times}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    lines = [
        f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  "
        f"ops {attempted}  failed {failed}"
    ]
    for m in declared:
        line = f"  {m['name']:<32} {values[m['name']]:>16.6g} {m['unit']}"
        if m["name"] in samples:
            line += f"  median of {len(samples[m['name']])}; {tail(samples[m['name']])}"
        lines.append(line)
    lines.append(
        f"  {'fail_rate':<32} {failed / attempted:>16.6g} failed/attempted"
        f" ({failed} of {attempted})"
    )
    if layers:
        lines.append(
            f"  kept_ratio base: {values['grounder.instantiations']:.0f} instantiations"
            f" / {values['grounder.top_block_assignments']:.0f} top-block assignments"
        )
    lines.append(f"  smt_sha256 {digest}")
    lines.append("  env " + " ".join(f"{k}={v}" for k, v in env_facts().items()))
    if spans is not None:
        directory = Path(trace_dir or ROOT / ".bench_trace")
        directory.mkdir(exist_ok=True)
        path = directory / f"{name}-s{seed}.jsonl"
        tracing.write_spans(path, {"workload": name, "seed": seed, "op": attempted - 1}, spans)
        lines.append(f"  spans of the last traced op: {path}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.splitlines()
        if proc.returncode != 0 or not out:
            print(f"run.py: workload {w['name']} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(out[:-1]))
        results[w["name"]] = json.loads(out[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _single_threaded_env()
    _import_sli()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
