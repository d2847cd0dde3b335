"""Command-line front end: add, mul, verify, cost, schedule.

Operands travel as lowercase unprefixed hex. Structured output is one
`key=value` record per line with a fixed field order, so identical
configurations (seed included) produce byte-identical bytes. The default
format comes from the ARITHSIM_FORMAT environment variable when set.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
from typing import Callable, Iterable, NamedTuple

from .bitvec import BitVector, ModelIntegrityError, oracle_add, oracle_mul
from .cascade import cascade_add
from .costs import Design, check_width, cost_report, reference_table
from .flash import blocked_add, double_width_add, flash_add
from .multiplier import (
    PUBLISHED_ROW_COUNT,
    RowSet,
    Schedule,
    check_multiplier_width,
    consolidate,
    multiply,
)

# random.Random is CPython's Mersenne Twister; the name travels in every
# report header so sweeps can be re-run bit for bit.
GENERATOR_NAME = "mt19937"
FORMAT_ENV_VAR = "ARITHSIM_FORMAT"

EXHAUSTIVE_ADDER_WIDTH = 8
EXHAUSTIVE_MULT_WIDTH = 4


class Adder(NamedTuple):
    """How the CLI runs and shows one adder design.

    `run(a, b)` returns (display sum, carry bit, ticks, raw result). The
    display sum is the design's natural output: N bits with the carry held
    separately for the cascade, N+1 bits with the carry on top for the
    others. `--trace` prints one `label` record, or one `template` line, per
    field dict that `trace(raw result)` yields. `gates(raw result)` is the
    simulator's live gate tally, where it keeps one.
    """

    run: Callable[[BitVector, BitVector], tuple]
    label: str
    template: str
    trace: Callable[[object], Iterable[dict]]
    gates: Callable[[object], int] | None = None


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


def _carry_on_top(result, width: int) -> tuple:
    return result.sum, result.sum.bit(width), result.ticks, result


def _run_cascade(a: BitVector, b: BitVector) -> tuple:
    result = cascade_add(a, b)
    return result.sum, result.carry, result.trace.ticks, result


# The simulators are looked up in this module's globals at call time, so a
# wrapper installed there (a tracer, a test's fault) is the one that runs.
ADDERS = {
    Design.CASCADE: Adder(
        run=_run_cascade,
        label="level",
        template="level {level}: sums={sums} carries={carries}",
        trace=lambda r: (
            dict(rec, carries=_joined(rec["carries"])) for rec in r.trace.to_records()
        ),
        gates=lambda r: r.trace.special_and_gates,
    ),
    Design.FLASH: Adder(
        run=lambda a, b: _carry_on_top(flash_add(a, b), a.width),
        label="firings",
        template="firings: [{pairs}] gates={gates}",
        trace=lambda r: [
            dict(pairs=",".join(f"{i}:{j}" for i, j in r.firings),
                 gates=r.firings.gates_evaluated)
        ],
        gates=lambda r: r.firings.gates_evaluated,
    ),
    Design.FLASH_DOUBLE: Adder(
        run=lambda a, b: _carry_on_top(double_width_add(*a.halves(), *b.halves()), a.width),
        label="halves",
        template="cross carry: {cross_carry}",
        trace=lambda r: [dict(cross_carry=r.cross_carry)],
    ),
    Design.BLOCKED_DOUBLE: Adder(
        run=lambda a, b: _carry_on_top(blocked_add(a, b), a.width),
        label="block_carries",
        template="block carries: [{bits}]",
        trace=lambda r: [dict(bits=_joined(r.block_carries))],
    ),
}
ADDER_DESIGNS = tuple(design.value for design in ADDERS)


def _record(__label: str, **fields) -> str:
    parts = [f"record={__label}"]
    parts.extend(f"{key}={value}" for key, value in fields.items())
    return " ".join(parts)


def _adder(args: argparse.Namespace) -> Adder:
    design = Design(args.design)
    check_width(design, args.width)
    return ADDERS[design]


def cmd_add(args: argparse.Namespace, structured: bool) -> int:
    adder = _adder(args)
    a = BitVector.from_hex(args.a_hex, args.width)
    b = BitVector.from_hex(args.b_hex, args.width)
    sum_vec, carry, ticks, result = adder.run(a, b)
    if structured:
        print(
            _record(
                "add",
                design=args.design,
                width=args.width,
                a=a.to_hex(),
                b=b.to_hex(),
                sum=sum_vec.to_hex(),
                carry=carry,
                ticks=ticks,
            )
        )
    else:
        print(f"add design={args.design} width={args.width}")
        print(f"a      = {a.to_hex()} ({a.to_binary()})")
        print(f"b      = {b.to_hex()} ({b.to_binary()})")
        print(f"sum    = {sum_vec.to_hex()} ({sum_vec.to_binary()})")
        print(f"carry  = {carry}")
        print(f"ticks  = {ticks}")
    if args.trace:
        for fields in adder.trace(result):
            print(_record(adder.label, **fields) if structured else adder.template.format(**fields))
    return 0


def cmd_mul(args: argparse.Namespace, structured: bool) -> int:
    a = BitVector.from_hex(args.a_hex, args.width)
    b = BitVector.from_hex(args.b_hex, args.width)
    result = multiply(a, b, Schedule(args.schedule))
    trajectory = ",".join(str(n) for n in result.report.row_trajectory)
    if structured:
        print(
            _record(
                "mul",
                schedule=args.schedule,
                width=args.width,
                a=a.to_hex(),
                b=b.to_hex(),
                product=result.product.to_hex(),
                ticks=result.ticks,
                trajectory=trajectory,
            )
        )
    else:
        print(f"mul schedule={args.schedule} width={args.width}")
        print(f"a          = {a.to_hex()}")
        print(f"b          = {b.to_hex()}")
        print(f"product    = {result.product.to_hex()}")
        print(f"ticks      = {result.ticks}")
        print(f"trajectory = [{trajectory}]")
    return 0


def _verify_pairs(args: argparse.Namespace, exhaustive: bool):
    """(a, b) value pairs: all of them when exhaustive, else seeded random ones."""
    width = args.width
    if exhaustive:
        return itertools.product(range(1 << width), repeat=2)
    rng = random.Random(args.seed)
    return ((rng.getrandbits(width), rng.getrandbits(width)) for _ in range(args.trials))


def cmd_verify(args: argparse.Namespace, structured: bool) -> int:
    """Check every pair against the oracle. A model break or a state failing
    its validation (widths are checked first) counts as a failed pair; its
    counterexample names the operands and the error, spaces turned into
    underscores to keep the record one line of key=value fields."""
    if args.design == "mult":
        check_multiplier_width(args.width)
        schedule = Schedule(args.schedule)

        def run(a: BitVector, b: BitVector) -> int:
            return multiply(a, b, schedule).product.value

        oracle, limit, schedule_field = oracle_mul, EXHAUSTIVE_MULT_WIDTH, schedule.value
    else:
        run_adder = _adder(args).run

        def run(a: BitVector, b: BitVector) -> int:
            sum_vec, carry, _, _ = run_adder(a, b)
            return sum_vec.value | carry << a.width

        oracle, limit, schedule_field = oracle_add, EXHAUSTIVE_ADDER_WIDTH, "-"

    width = args.width
    exhaustive = width <= limit
    total = (1 << width) ** 2 if exhaustive else args.trials
    mode = "exhaustive" if exhaustive else "random"
    header_fields = dict(
        command="verify",
        design=args.design,
        width=width,
        schedule=schedule_field,
        mode=mode,
        trials=total,
        seed="-" if exhaustive else args.seed,
        generator=GENERATOR_NAME,
    )
    if structured:
        print(_record("header", **header_fields))
    else:
        fields = " ".join(f"{k}={v}" for k, v in header_fields.items())
        print(fields)

    passed = 0
    failed = 0
    counterexample = None
    for a, b in _verify_pairs(args, exhaustive):
        try:
            got = run(BitVector(width, a), BitVector(width, b))
        except (ModelIntegrityError, ValueError) as exc:
            failed += 1
            if counterexample is None:
                error = "_".join(f"{type(exc).__name__}: {exc}".split())
                counterexample = f"a={a:x},b={b:x},error={error}"
            continue
        want = oracle(a, b)
        if got == want:
            passed += 1
        else:
            failed += 1
            if counterexample is None:
                counterexample = f"a={a:x},b={b:x},got={got:x},want={want:x}"
    if structured:
        print(_record("verify", passed=passed, failed=failed, counterexample=counterexample or "-"))
    else:
        print(f"result: {passed}/{passed + failed} pass")
        if counterexample is not None:
            print(f"first counterexample: {counterexample}")
    return 0 if failed == 0 else 1


def cmd_cost(args: argparse.Namespace, structured: bool) -> int:
    if args.table:
        for name, value in reference_table():
            if structured:
                print(_record("cost", name=name, value=value))
            else:
                print(f"{name:34s} {value}")
        return 0
    report = cost_report(Design(args.design), args.width)
    if structured:
        print(
            _record(
                "cost",
                design=report.design.value,
                width=report.width,
                gates=report.special_and_gates,
                entries=report.memory_entries,
                ticks=report.ticks,
            )
        )
    else:
        print(f"design  = {report.design.value}")
        print(f"width   = {report.width}")
        print(f"gates   = {report.special_and_gates}")
        print(f"entries = {report.memory_entries}")
        print(f"ticks   = {report.ticks}")
    return 0


def cmd_schedule(args: argparse.Namespace, structured: bool) -> int:
    rows = args.rows
    if not 3 <= rows <= PUBLISHED_ROW_COUNT:
        raise ValueError(f"row count must be 3..{PUBLISHED_ROW_COUNT}, got {rows}")
    _, report = consolidate(RowSet(2 * PUBLISHED_ROW_COUNT, (0,) * rows), Schedule(args.schedule))
    for index, stage in enumerate(report.stages):
        fields = dict(
            index=index + 1,
            kind=stage.kind.value,
            rows_in=stage.rows_in,
            rows_out=stage.rows_out,
            left_out=stage.left_out,
            ticks=stage.ticks,
            circuits=stage.circuits_used,
        )
        if structured:
            print(_record("stage", **fields))
        else:
            print(" ".join(f"{k}={v}" for k, v in fields.items()))
    trajectory = ",".join(str(n) for n in report.row_trajectory)
    if structured:
        print(
            _record(
                "schedule",
                schedule=args.schedule,
                rows=rows,
                trajectory=trajectory,
                total_ticks=report.total_ticks,
            )
        )
    else:
        print(f"schedule {args.schedule}: trajectory=[{trajectory}] total_ticks={report.total_ticks}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default=None,
        help=f"output format (default: ${FORMAT_ENV_VAR} or text)",
    )
    parser = argparse.ArgumentParser(
        prog="arithsim",
        description="Simulate, verify, and cost constant-time adder and multiplier designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    add = sub.add_parser("add", parents=[common], help="add two hex operands")
    add.add_argument("--design", choices=ADDER_DESIGNS, default=Design.FLASH.value)
    add.add_argument("--width", type=int, required=True)
    add.add_argument("--trace", action="store_true", help="print the level trace or fire set")
    add.add_argument("a_hex")
    add.add_argument("b_hex")

    mul = sub.add_parser("mul", parents=[common], help="multiply two hex operands")
    mul.add_argument("--schedule", choices=("A", "B"), default="B")
    mul.add_argument("--width", type=int, required=True)
    mul.add_argument("a_hex")
    mul.add_argument("b_hex")

    verify = sub.add_parser("verify", parents=[common], help="sweep a design against the oracle")
    verify.add_argument("--design", choices=ADDER_DESIGNS + ("mult",), required=True)
    verify.add_argument("--width", type=int, required=True)
    verify.add_argument("--schedule", choices=("A", "B"), default="B")
    verify.add_argument("--trials", type=int, default=10000)
    verify.add_argument("--seed", type=int, default=0)

    cost = sub.add_parser("cost", parents=[common], help="report a design's hardware budget")
    cost.add_argument("--design", choices=tuple(d.value for d in Design))
    cost.add_argument("--width", type=int)
    cost.add_argument("--table", action="store_true", help="print the reference number table")

    schedule = sub.add_parser("schedule", parents=[common], help="show a consolidation schedule")
    schedule.add_argument("--schedule", choices=("A", "B"), required=True)
    schedule.add_argument("--rows", type=int, default=PUBLISHED_ROW_COUNT)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    output_format = args.format or os.environ.get(FORMAT_ENV_VAR) or "text"
    try:
        if args.command == "cost" and not args.table and None in (args.design, args.width):
            raise ValueError("cost needs --design and --width, or --table")
        width, trials = getattr(args, "width", None), getattr(args, "trials", 1)
        if width is not None and width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if trials < 1:
            raise ValueError(f"trials must be positive, got {trials}")
        if output_format not in ("text", "structured"):
            raise ValueError(f"unknown output format {output_format!r}")
        # looked up at call time, so a wrapper installed on cmd_* is the one that runs
        command = globals()[f"cmd_{args.command}"]
        return command(args, output_format == "structured")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
