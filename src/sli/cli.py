"""Command-line interface: ground problem files, generate benchmark
instances, and check inputs.

Exit codes: 0 success, 1 usage, 2 parse or type error in the input,
3 resource exhaustion (bit budget, arithmetic overflow, timeout, memory).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .bench import BenchSpec, records_to_csv, run_bench
from .errors import (
    ArithmeticOverflow,
    BitBudgetOverflow,
    GroundingTimeout,
    InvalidSpec,
    ParseError,
    SliError,
    TypeCheckError,
)
from .grounder import DEFAULT_GUARD_CAP, STRATEGIES, ground_problem
from .parser import parse_problem
from .smt import emit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_RESOURCE_ERRORS = (
    BitBudgetOverflow,
    ArithmeticOverflow,
    GroundingTimeout,
    MemoryError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(EXIT_USAGE, message, prog=self.prog))


def _fail(code: int, message: str, *, prog: str = "sli") -> int:
    print(f"{prog}: error: {message}", file=sys.stderr)
    return code


def seconds(text: str) -> float:
    """A --timeout value: a float, but not NaN, which no clock passes."""
    if math.isnan(value := float(text)):
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sli", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ground = sub.add_parser("ground", help="ground a problem file to SMT-LIB 2")
    ground.add_argument("file", help="problem file (.sli)")
    ground.add_argument(
        "--strategy", choices=STRATEGIES, default="vec", help="grounding strategy"
    )
    ground.add_argument("--out", help="output .smt2 path (default: stdout)")
    ground.add_argument("--stats", help="write per-sentence stats CSV to this path")
    ground.add_argument(
        "--timeout", type=seconds, default=600.0, help="grounding timeout in seconds"
    )
    ground.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_GUARD_CAP,
        help="guard count above which vec grounds a quantifier block the naive"
        " way; the --stats row of its sentence then reads naive(fallback)",
    )

    bench = sub.add_parser("bench", help="generate an instance and time strategies")
    bench.add_argument("--family", required=True, choices=("ci", "cs", "tg"))
    bench.add_argument("--variant", choices=("sat", "unsat"))
    bench.add_argument("--size", required=True, type=int, nargs="+")
    bench.add_argument("--ratio", type=float, default=0.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--strategies", nargs="+", choices=STRATEGIES, default=list(STRATEGIES)
    )
    bench.add_argument("--timeout", type=seconds, default=600.0)
    bench.add_argument("--no-emit", action="store_true", help="skip emission timing")
    bench.add_argument("--out", help="results CSV path (default: stdout)")

    check = sub.add_parser("check", help="parse and type-check a problem file")
    check.add_argument("file")
    return parser


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(
            f"{path}: byte {data[e.start]:#04x} at offset {e.start} is not UTF-8"
        ) from e
    # the universal newlines that reading in text mode gives
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_ground(args) -> int:
    text = _read(args.file)
    t0 = time.perf_counter()
    problem = parse_problem(text, filename=args.file)
    t1 = time.perf_counter()
    gt = ground_problem(
        problem, args.strategy, cap=args.cap, timeout=args.timeout
    )
    t2 = time.perf_counter()
    smt_text = emit(gt)
    t3 = time.perf_counter()
    _write(args.out, smt_text)
    if args.stats:
        _write(args.stats, gt.stats.to_csv())
    # the strategies the rows report, in order of first use
    ran = dict.fromkeys(r.strategy for r in gt.stats.rows) or [args.strategy]
    print(
        f"{args.file}: verdict {gt.verdict}, {gt.assertion_count} assertions"
        f" ({', '.join(ran)}); parse {t1 - t0:.3f} s, ground {t2 - t1:.3f} s,"
        f" emit {t3 - t2:.3f} s",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    specs = [
        BenchSpec(args.family, size, args.ratio, args.seed, args.variant)
        for size in args.size
    ]
    records = run_bench(
        specs,
        args.strategies,
        timeout=args.timeout,
        emit=not args.no_emit,
    )
    _write(args.out, records_to_csv(records))
    return EXIT_OK


def _cmd_check(args) -> int:
    problem = parse_problem(_read(args.file), filename=args.file)
    n = len(problem.sentences)
    print(f"{args.file}: ok ({n} sentence{'s' if n != 1 else ''})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"ground": _cmd_ground, "bench": _cmd_bench, "check": _cmd_check}[
        args.command
    ]
    try:
        return handler(args)
    except InvalidSpec as e:
        return _fail(EXIT_USAGE, str(e))
    except OSError as e:
        return _fail(EXIT_USAGE, str(e))
    except (ParseError, TypeCheckError) as e:
        return _fail(EXIT_INPUT, str(e))
    except _RESOURCE_ERRORS as e:
        # a MemoryError raised by the interpreter carries no message
        return _fail(EXIT_RESOURCE, str(e) or "out of memory")
    except SliError as e:
        return _fail(EXIT_INPUT, str(e))


if __name__ == "__main__":
    raise SystemExit(main())
