"""Command-line front end: add, mul, verify, cost, schedule.

Operands travel as lowercase unprefixed hex. Structured output is one
`key=value` record per line with a fixed field order, so identical
configurations (seed included) produce byte-identical bytes. The default
format comes from the ARITHSIM_FORMAT environment variable when set.

The adders' simulators and `--trace` views come from `costs.ADDERS`.
`verify` runs pairs in batches of VERIFY_LANES through a design's lane
kernel, and a failing batch's pairs one at a time through the same kernel.
A random batch is one `getrandbits` draw, parted into packed a and b words;
it holds the values of a pair-by-pair loop in the same order. The argument
parser is built on the first call and kept for the process, so a
short call pays for its pairs, not for argparse.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from functools import lru_cache

from .bitvec import (
    BitVector,
    ModelIntegrityError,
    lane_mask,
    lane_stride,
    oracle_add,
    oracle_mul,
    pack_lanes,
    respace_lanes,
    unpack_lanes,
)
from .costs import ADDERS, Adder, Design, check_width, cost_report, reference_table
# Nothing here calls these four: the benchmark's tracer (`cli_targets` in
# perfbench/tracing.py) wraps them in this module, so they stay importable.
from .cascade import cascade_add  # noqa: F401
from .flash import blocked_add, double_width_add, flash_add  # noqa: F401
from .multiplier import (
    PUBLISHED_ROW_COUNT,
    RowSet,
    Schedule,
    check_multiplier_width,
    consolidate,
    multiply,
    multiply_lanes,
)

# random.Random is CPython's Mersenne Twister; the name travels in every
# report header so sweeps can be re-run bit for bit.
GENERATOR_NAME = "mt19937"
FORMAT_ENV_VAR = "ARITHSIM_FORMAT"

EXHAUSTIVE_ADDER_WIDTH = 8
EXHAUSTIVE_MULT_WIDTH = 4

# Pairs per `verify` batch: the lane kernels run this many circuits side by
# side in one word. Of 32 to 512 lanes, 128 and 256 swept the 128-bit adders
# and the 64-bit multiplier fastest, within about 10% of each other; 64 and
# 512 were slower there. A 128-bit adder batch is then a 4 KiB word.
VERIFY_LANES = 128


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


@lru_cache
def _packed_range(count: int, stride: int) -> int:
    return pack_lanes(range(count), stride)


@lru_cache
def _draw_layout(width: int, count: int) -> tuple[int, int, int, int]:
    """Where `count` `width`-bit values sit in one getrandbits draw of their
    whole 32-bit words: the slot of whole words each value fills, the low
    bits dropped from its last word, and masks of its low whole words and
    of its last word's kept bits, brought down by that drop."""
    slot = -(-width // 32) * 32
    low = lane_mask(slot - 32, slot, count)
    return slot, -width % 32, low, lane_mask(width, slot, count) ^ low


def _random_pairs(rng: random.Random, width: int, size: int, stride: int) -> tuple[int, int]:
    """`size` pairs drawn a then b, as a pair-by-pair `getrandbits(width)`
    loop draws them, packed at `stride`.

    The Mersenne Twister fills `getrandbits(k)` with 32-bit words, least
    significant first, and keeps the top k % 32 bits of a partial last
    word. One draw of all the loop's words therefore holds its values in
    order, one per slot of whole words, and leaves the generator where the
    loop would. Where the slots already sit at half the stride, two masks
    part the a and b lanes; otherwise each value's bytes are re-spaced."""
    slot, drop, low, kept = _draw_layout(width, 2 * size)
    draw = rng.getrandbits(2 * slot * size)
    values = draw & low | draw >> drop & kept
    if stride == 2 * slot:
        lanes = lane_mask(width, stride, size)
        return values & lanes, values >> slot & lanes
    return tuple(respace_lanes(v, 2 * slot, stride, size, width) for v in (values, values >> slot))


def _verify_batches(args: argparse.Namespace, exhaustive: bool, stride: int):
    """The (a, b) value pairs in order, in batches of at most VERIFY_LANES:
    (packed a, packed b, pair count). An exhaustive batch holds one a and a
    run of b, packed arithmetically; a random batch is one draw of the
    values that a pair-by-pair sweep draws, a then b for each pair."""
    width = args.width
    if exhaustive:
        size = min(VERIFY_LANES, 1 << width)
        ones, counts = lane_mask(1, stride, size), _packed_range(size, stride)
        for a in range(1 << width):
            for low in range(0, 1 << width, size):
                yield a * ones, counts + low * ones, size
        return
    rng = random.Random(args.seed)
    for start in range(0, args.trials, VERIFY_LANES):
        size = min(VERIFY_LANES, args.trials - start)
        yield *_random_pairs(rng, width, size, stride), size


def cmd_verify(args: argparse.Namespace, structured: bool) -> int:
    """Check every pair against the oracle. A model break or a state failing
    its validation (widths are checked first) counts as a failed pair; its
    counterexample names the operands and the error, spaces turned into
    underscores to keep the record one line of key=value fields.

    Pairs run in batches through the design's lane kernel, each lane checked
    against the oracle. A batch with any mismatch or error is run again pair
    by pair through the same kernel at K = 1, so counts and counterexamples
    are those of a pair-by-pair sweep.
    """
    width = args.width
    if args.design == "mult":
        check_multiplier_width(width)
        schedule = Schedule(args.schedule)
        stride = lane_stride(2 * width)

        def run(a: int, b: int, size: int) -> int:
            return multiply_lanes(a, b, width, schedule, size)[0]

        def expect(a: int, b: int, size: int) -> int:
            want = map(oracle_mul, unpack_lanes(a, stride, size), unpack_lanes(b, stride, size))
            return pack_lanes(want, stride)

        limit, schedule_field = EXHAUSTIVE_MULT_WIDTH, schedule.value
    else:
        lanes = _adder(args).lanes
        stride = lane_stride(width)

        def run(a: int, b: int, size: int) -> int:
            return lanes(a, b, width, size)

        def expect(a: int, b: int, size: int) -> int:
            # each lane's sum fits its stride, so one add checks every lane
            return oracle_add(a, b)

        limit, schedule_field = EXHAUSTIVE_ADDER_WIDTH, "-"

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
    for packed_a, packed_b, size in _verify_batches(args, exhaustive, stride):
        try:
            if run(packed_a, packed_b, size) == expect(packed_a, packed_b, size):
                passed += size
                continue
        except (ModelIntegrityError, ValueError):
            pass
        for a, b in zip(unpack_lanes(packed_a, stride, size), unpack_lanes(packed_b, stride, size)):
            try:
                got = run(a, b, 1)
            except (ModelIntegrityError, ValueError) as exc:
                failed += 1
                if counterexample is None:
                    error = "_".join(f"{type(exc).__name__}: {exc}".split())
                    counterexample = f"a={a:x},b={b:x},error={error}"
                continue
            want = expect(a, b, 1)
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


@lru_cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing leaves no state in it, and building it costs more than a small
    `verify`."""
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
