"""Per-layer spans and counts, recorded by wrapping sli's public callables.

`Tracer.install()` replaces each traced function or method, on the object
its callers look it up on (`sli.grounder.substitute`, not
`sli.logic.substitute`), with a wrapper that records a span: id, parent
id, name, start, end, and the time its child spans cover, so that self
time is the span minus its children.  A call made while a span of the
same callable is open gets no span of its own, so the outermost call of a
recursive function covers the whole recursion.  Spans stay in memory;
`uninstall()` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict

from sli import grounder, parser, satset, smt
from sli.bittensor import BitTensor, ValueTensor
from sli.logic import Exists, ForAll

_BIT_METHODS = (
    "empty", "full", "from_bools", "from_ones", "bit_and", "bit_or", "bit_not",
    "popcount", "any", "to_bools", "insert_axis", "permute_axes", "reduce_all",
    "reduce_any",
)
_VALUE_METHODS = ("constant", "axis_values", "val_map2", "val_compare", "gather")

# per-layer kernel metric -> the bittensor spans whose durations it sums
_KERNEL_GROUPS = {
    "bittensor.insert_axis_s": ("insert_axis",),
    "bittensor.permute_axes_s": ("permute_axes",),
    "bittensor.reduce_s": ("reduce_all", "reduce_any"),
    "bittensor.logic_s": ("bit_and", "bit_or", "bit_not"),
    "bittensor.value_s": _VALUE_METHODS,
    "bittensor.iter_ones_s": ("iter_ones",),
}


def _packed_bytes(t: BitTensor) -> int:
    return (t.shape.nbits + 63) // 64 * 8


class Tracer:
    """Spans and counts of the traced calls since the last `reset()`."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [id, name, start ns, child ns]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # closed spans: (id, parent id or 0, name, start ns, end ns, child ns)
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.peak_bits = 0

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        sid, name, start, child = self._stack.pop()
        parent = 0
        if self._stack:
            self._stack[-1][3] += end - start
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, name, start, end, child))

    def _in_kernel(self) -> bool:
        return bool(self._stack) and self._stack[-1][1].startswith("bittensor.")

    def _wrap(self, fn, name, before=None, after=None):
        depth = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            if before is not None:
                before(args)
            if name is None or depth:
                result = fn(*args, **kwargs)
            else:
                depth += 1
                self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit()
                    depth -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_iter_ones(self, fn):
        """iter_ones is a generator: each step is its own span, so the
        caller's work between steps is not counted as kernel time."""

        @functools.wraps(fn)
        def wrapper(tensor):
            self._tensors((tensor,))
            rows = fn(tensor)

            def steps():
                while True:
                    self._enter("bittensor.iter_ones")
                    try:
                        row = next(rows)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield row

            return steps()

        return wrapper

    # -- counts ---------------------------------------------------------------

    def _tensors(self, tensors) -> None:
        """Peak tensor size, and packed bytes read and written by a kernel
        called from outside the bittensor layer."""
        tensors = [t for t in tensors if isinstance(t, BitTensor)]
        for t in tensors:
            self.peak_bits = max(self.peak_bits, t.shape.nbits)
        if not self._in_kernel():
            self.counts["bittensor.bytes_moved"] += sum(map(_packed_bytes, tensors))

    def _kernel_done(self, args, result) -> None:
        self._tensors((*args, result))

    def _unpacked(self, args, result) -> None:
        self.counts["bittensor.unpacked_bytes"] += result.nbytes
        self._kernel_done(args, result)

    def _eval_called(self, args) -> None:
        ev, f = args[0], args[1]
        self.counts["satset.evals"] += 1
        if f in ev.memo:
            self.counts["satset.memo_hits"] += 1

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        def span(name, before=None, after=None):
            return lambda fn: self._wrap(fn, name, before, after)

        def tally(key, measure=lambda result: 1):
            def after(args, result):
                self.counts[key] += measure(result)

            return after

        self._patch(parser, "parse_problem", span("parser.parse"))
        self._patch(parser, "tokenize", span("parser.tokenize", after=tally("parser.tokens", len)))
        self._patch(grounder, "ground_problem", span("grounder.ground"))
        self._patch(grounder._SentenceGrounder, "fold", span("grounder.fold"))
        self._patch(grounder, "substitute", span("logic.substitute"))
        evaluators = tally("satset.evaluators")
        self._patch(satset.SatSetEvaluator, "__init__", span(None, after=evaluators))
        self._patch(satset.SatSetEvaluator, "eval", span(None, before=self._eval_called))
        self._patch(satset.SatSetEvaluator, "eval_over", span("satset.eval"))
        for attr in _BIT_METHODS:
            after = self._unpacked if attr == "to_bools" else self._kernel_done
            self._patch(BitTensor, attr, span(f"bittensor.{attr}", after=after))
        self._patch(BitTensor, "iter_ones", self._wrap_iter_ones)
        for attr in _VALUE_METHODS:
            self._patch(ValueTensor, attr, span(f"bittensor.{attr}", after=self._kernel_done))
        self._patch(smt, "emit", span("smt.emit"))
        consts = tally("smt.consts", lambda doc: len(doc.const_decls))
        self._patch(smt, "document", span(None, after=consts))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path, header: dict, spans) -> None:
    """One JSON header line, then one `[id, parent, name, start_ns, end_ns,
    child_ns]` array per span; parent 0 marks a root span."""
    header = {**header, "fields": ["id", "parent", "name", "start_ns", "end_ns", "child_ns"]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _sec(ns: int) -> float:
    return ns / 1e9


def top_block_assignments(problem) -> int:
    """Tuples of each sentence's leading quantifier block, summed: the base
    of `grounder.kept_ratio`."""
    total = 0
    for f in problem.sentences:
        if not isinstance(f, (ForAll, Exists)):
            continue
        kind, n = type(f), 1
        while isinstance(f, kind):
            n *= problem.structure.domain_size(f.var.type)
            f = f.body
        total += n
    return total


def op_metrics(tracer: Tracer, problem, gt, smt_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced op."""
    names = {sid: name for sid, _, name, _, _, _ in tracer.spans}
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    kernel_ns = 0
    for sid, parent, name, start, end, child in tracer.spans:
        total[name] += end - start
        self_ns[name] += end - start - child
        if name.startswith("bittensor.") and not names.get(parent, "").startswith("bittensor."):
            kernel_ns += end - start
    rows = gt.stats.rows
    inst = sum(r.instantiations for r in rows)
    assignments = top_block_assignments(problem)
    c = tracer.counts
    out = {
        "parser.parse_s": _sec(total["parser.parse"]),
        "parser.tokenize_s": _sec(total["parser.tokenize"]),
        "parser.tokens_per_s": c["parser.tokens"] / max(_sec(total["parser.tokenize"]), 1e-9),
        "grounder.self_s": _sec(self_ns["grounder.ground"]),
        "grounder.fold_s": _sec(total["grounder.fold"]),
        "logic.substitute_s": _sec(total["logic.substitute"]),
        "grounder.us_per_instantiation": total["grounder.ground"] / 1e3 / inst if inst else 0.0,
        "grounder.instantiations": inst,
        "grounder.splits_kept": sum(r.splits_kept for r in rows),
        "grounder.guards": sum(r.guards for r in rows),
        "grounder.fallbacks": sum(r.strategy == "naive(fallback)" for r in rows),
        "grounder.kept_ratio": inst / assignments if assignments else 0.0,
        "grounder.top_block_assignments": assignments,
        "satset.eval_s": _sec(total["satset.eval"]),
        "satset.self_s": _sec(self_ns["satset.eval"]),
        "satset.evals": c["satset.evals"],
        "satset.memo_hits": c["satset.memo_hits"],
        "satset.evaluators": c["satset.evaluators"],
        "bittensor.kernel_s": _sec(kernel_ns),
        "bittensor.peak_bits": tracer.peak_bits,
        "bittensor.bytes_moved": c["bittensor.bytes_moved"],
        "bittensor.unpacked_bytes": c["bittensor.unpacked_bytes"],
        "smt.emit_s": _sec(total["smt.emit"]),
        "smt.bytes_per_s": smt_bytes / max(_sec(total["smt.emit"]), 1e-9),
        "smt.consts": c["smt.consts"],
    }
    for metric, methods in _KERNEL_GROUPS.items():
        out[metric] = _sec(sum(total[f"bittensor.{m}"] for m in methods))
    return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the lower median over ops: always a measured value, so
    a count stays a whole number."""
    return {k: statistics.median_low(op[k] for op in per_op) for k in per_op[0]}
