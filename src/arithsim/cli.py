"""Command-line front end: add, mul, verify, cost, schedule.

Operands travel as lowercase unprefixed hex. Every line on stdout is a
record printed by `_emit`, the one place that chooses between the formats:
each command states a record's fields once, and the structured format prints
them as `record=<label> key=value ...` in a fixed field order, so identical
configurations (seed included) produce byte-identical bytes; the text format
prints the command's layout of the same values. The default format comes
from the ARITHSIM_FORMAT environment variable when set.

Every command reads its design's `costs.DESIGNS` entry through the width
rule `costs.check_width`. `add` and `mul` run its lane kernel at K = 1;
`verify` runs pairs in batches through it against its oracle, as
`cmd_verify` and `_verify_batches` describe.

`main` parses an argv once: one whose first word names a subcommand by that
subcommand's parser, less a bare trailing `--`, and any other argv (none,
help, an unknown command or a leading option) by the top-level parser.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from functools import lru_cache

from .bitvec import BitVector, ModelIntegrityError, lane_mask, pack_lanes, unpack_lanes
from .costs import DESIGNS, Circuit, Design, check_width, cost_report, reference_table
# Nothing here calls these five: the benchmark's tracer (`cli_targets` in
# perfbench/tracing.py) wraps them in this module, so they stay importable.
from .cascade import cascade_add  # noqa: F401
from .flash import blocked_add, double_width_add, flash_add  # noqa: F401
from .multiplier import multiply  # noqa: F401
from .multiplier import PUBLISHED_ROW_COUNT, RowSet, Schedule, consolidate

# random.Random is CPython's Mersenne Twister; the name travels in every
# report header so sweeps can be re-run bit for bit.
GENERATOR_NAME = "mt19937"
FORMAT_ENV_VAR = "ARITHSIM_FORMAT"

# The most bits in one word of a `verify` batch (8 KiB): a design's lane
# kernel runs `verify_lanes(stride)` circuits side by side in it, 4096 at the
# 16-bit stride of the width-8 adders, 481 at the 136-bit stride of the
# 128-bit adders and of the 64-bit multiplier's rows. In-process sweeps
# (best of 15, 2-core Xeon, Python 3.11): the four width-8 adders took 19.4,
# 12.4, 11.0, 10.4, 10.4 and 15.8 ms at 128, 1024, 2048, 4096, 8192 and
# 65,536 lanes.
VERIFY_WORD_BITS = 1 << 16


ADDER_DESIGNS = tuple(d.value for d, circuit in DESIGNS.items() if circuit.schedule == "-")
SCHEDULES = tuple(s.value for s in Schedule)


def _pairs(fields: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in fields.items())


def _aligned(fields: dict, pad: int) -> str:
    """The text layout of a block of fields: `key = value` lines, keys padded to `pad`."""
    return "\n".join(f"{key:<{pad}} = {value}" for key, value in fields.items())


def _emit(structured: bool, label: str, fields: dict, text: str | None = None) -> None:
    """Print one record: `record=<label>` and its fields as key=value pairs
    in the structured format; `text` in the text format, by default the
    fields' key=value pairs alone."""
    if structured:
        text = f"record={label} {_pairs(fields)}"
    elif text is None:
        text = _pairs(fields)
    print(text)


def _circuit(args: argparse.Namespace) -> Circuit:
    """The table entry an argv names, its width checked: the one mapping of
    `mul` and `verify --design mult` to the multiplier under --schedule."""
    name = f"mult_schedule_{args.schedule.lower()}" if args.design == "mult" else args.design
    return check_width(Design(name), args.width)


def cmd_add(args: argparse.Namespace, structured: bool) -> int:
    adder = _circuit(args)
    a = BitVector.from_hex(args.a_hex, args.width)
    b = BitVector.from_hex(args.b_hex, args.width)
    sum_vec, carry, ticks, words = adder.add(a.value, b.value, args.width)
    head = dict(design=args.design, width=args.width)
    vectors = dict(a=a, b=b, sum=sum_vec)  # the text form shows each one's binary too
    fields = {key: vec.to_hex() for key, vec in vectors.items()} | dict(carry=carry, ticks=ticks)
    shown = fields | {key: f"{fields[key]} ({vec.to_binary()})" for key, vec in vectors.items()}
    _emit(structured, "add", head | fields, f"add {_pairs(head)}\n{_aligned(shown, 6)}")
    if args.trace:
        for fields in adder.trace(words, args.width):
            _emit(structured, adder.label, fields, adder.template.format(**fields))
    return 0


def cmd_mul(args: argparse.Namespace, structured: bool) -> int:
    circuit = _circuit(args)
    a = BitVector.from_hex(args.a_hex, args.width)
    b = BitVector.from_hex(args.b_hex, args.width)
    product, ticks, report = circuit.lanes(a.value, b.value, args.width, 1)
    product = BitVector(2 * args.width, product).to_hex()
    trajectory = ",".join(str(n) for n in report.row_trajectory)
    head = dict(schedule=args.schedule, width=args.width)
    fields = dict(a=a.to_hex(), b=b.to_hex(), product=product, ticks=ticks, trajectory=trajectory)
    shown = fields | dict(trajectory=f"[{trajectory}]")
    _emit(structured, "mul", head | fields, f"mul {_pairs(head)}\n{_aligned(shown, 10)}")
    return 0


def verify_lanes(stride: int) -> int:
    """The most pairs in one `verify` batch at `stride`: as many lanes as
    fit VERIFY_WORD_BITS, and at least one."""
    return max(1, VERIFY_WORD_BITS // stride)


@lru_cache
def _index_steps(width: int, size: int, stride: int) -> tuple[int, int]:
    """The a and the b lanes of pair indices 0 to size - 1, i = a * 2**width
    + b, packed at `stride`: each a fills a run of 2**width lanes, and b
    counts through every run. `size` is a whole number of runs."""
    run, lane = 1 << width, stride // 8
    counts = pack_lanes(range(run), stride).to_bytes(lane * run, "little")
    steps = b"".join(a.to_bytes(lane, "little") * run for a in range(size // run))
    return int.from_bytes(steps, "little"), int.from_bytes(counts * (size // run), "little")


def _verify_batches(args: argparse.Namespace, exhaustive: bool, stride: int):
    """The (a, b) value pairs in order, packed at `stride`, in batches of at
    most `verify_lanes(stride)` pairs, or one run of b where a run holds
    more: (packed a, packed b, pair count).

    An exhaustive batch is a run of consecutive pair indices a * 2**width +
    b, as many as the largest power of two that fits, but at least one run
    of b and at most the whole sweep, so it holds whole runs and divides the
    sweep: 4096 pairs, or the whole sweep, at the 16-bit stride of every
    exhaustive sweep the CLI runs. The first batch is the cached
    `_index_steps`, and each next batch's a word the last one's plus one
    step, its count of a values in every lane.
    A random sweep runs in the fewest batches that fit, their sizes
    differing by at most one, the largest first (500 multiplier pairs at
    N = 64 as 250 + 250, not 481 + 19). A batch is one `getrandbits(stride
    * size)` draw for a, then one for b, each masked to every lane's low
    `width` bits by the operand fit at the first batch's lane count."""
    width, lanes = args.width, verify_lanes(stride)
    if exhaustive:
        run = 1 << width
        size = min(1 << 2 * width, max(run, 1 << lanes.bit_length() - 1))
        a_word, b_steps = _index_steps(width, size, stride)
        step = (size >> width) * lane_mask(1, stride, size)
        for _ in range((1 << 2 * width) // size):
            yield a_word, b_steps, size
            a_word += step
        return
    rng = random.Random(args.seed)
    batches = -(-args.trials // lanes)
    base, extra = divmod(args.trials, batches)
    fit = lane_mask(width, stride, base + (extra > 0))
    for index in range(batches):
        size = base + (index < extra)
        a = rng.getrandbits(stride * size) & fit
        yield a, rng.getrandbits(stride * size) & fit, size


def cmd_verify(args: argparse.Namespace, structured: bool) -> int:
    """Check every pair against the oracle. A model break or a state failing
    its validation (widths are checked first) counts as a failed pair; its
    counterexample names the operands and the error, spaces turned into
    underscores to keep the record one line of key=value fields.

    Pairs run in batches through the design's lane kernel, each lane checked
    against the oracle, all at the first batch's lane count, so a sweep has
    one layout. A batch with any mismatch or error is run again pair by pair
    through the same kernel at K = 1, so counts and counterexamples are
    those of a pair-by-pair sweep.
    """
    width, circuit = args.width, _circuit(args)
    stride = circuit.stride(width)
    exhaustive = width <= circuit.exhaustive
    header_fields = dict(
        command="verify",
        design=args.design,
        width=width,
        schedule=circuit.schedule,
        mode="exhaustive" if exhaustive else "random",
        trials=(1 << width) ** 2 if exhaustive else args.trials,
        seed="-" if exhaustive else args.seed,
        generator=GENERATOR_NAME,
    )
    _emit(structured, "header", header_fields)

    passed = 0
    failed = 0
    counterexample = None
    run, expect, lanes = circuit.lanes, circuit.oracle, 0
    for packed_a, packed_b, size in _verify_batches(args, exhaustive, stride):
        lanes = lanes or size
        try:
            if run(packed_a, packed_b, width, lanes)[0] == expect(packed_a, packed_b, width, lanes):
                passed += size
                continue
        except (ModelIntegrityError, ValueError):
            pass
        for a, b in zip(unpack_lanes(packed_a, stride, size), unpack_lanes(packed_b, stride, size)):
            try:
                got = run(a, b, width, 1)[0]
            except (ModelIntegrityError, ValueError) as exc:
                failed += 1
                if counterexample is None:
                    error = "_".join(f"{type(exc).__name__}: {exc}".split())
                    counterexample = f"a={a:x},b={b:x},error={error}"
                continue
            want = expect(a, b, width, 1)
            if got == want:
                passed += 1
            else:
                failed += 1
                if counterexample is None:
                    counterexample = f"a={a:x},b={b:x},got={got:x},want={want:x}"
    text = f"result: {passed}/{passed + failed} pass"
    if counterexample is not None:
        text += f"\nfirst counterexample: {counterexample}"
    fields = dict(passed=passed, failed=failed, counterexample=counterexample or "-")
    _emit(structured, "verify", fields, text)
    return 0 if failed == 0 else 1


def cmd_cost(args: argparse.Namespace, structured: bool) -> int:
    if args.table:
        for name, value in reference_table():
            _emit(structured, "cost", dict(name=name, value=value), f"{name:34s} {value}")
        return 0
    gates, entries, ticks = cost_report(Design(args.design), args.width)
    fields = dict(design=args.design, width=args.width, gates=gates, entries=entries, ticks=ticks)
    _emit(structured, "cost", fields, _aligned(fields, 7))
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
        _emit(structured, "stage", fields)
    trajectory = ",".join(str(n) for n in report.row_trajectory)
    ticks = report.total_ticks
    fields = dict(schedule=args.schedule, rows=rows, trajectory=trajectory, total_ticks=ticks)
    text = f"schedule {args.schedule}: trajectory=[{trajectory}] total_ticks={ticks}"
    _emit(structured, "schedule", fields, text)
    return 0


@lru_cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing leaves no state in it, and building it costs more than a small
    `verify`. `commands` maps each subcommand to its parser (the
    `add_subparsers` action's `choices`); the top-level parser parses only
    argvs that name none."""
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
    mul.set_defaults(design="mult")
    mul.add_argument("--schedule", choices=SCHEDULES, default="B")
    mul.add_argument("--width", type=int, required=True)
    mul.add_argument("a_hex")
    mul.add_argument("b_hex")

    verify = sub.add_parser("verify", parents=[common], help="sweep a design against the oracle")
    verify.add_argument("--design", choices=ADDER_DESIGNS + ("mult",), required=True)
    verify.add_argument("--width", type=int, required=True)
    verify.add_argument("--schedule", choices=SCHEDULES, default="B")
    verify.add_argument("--trials", type=int, default=10000)
    verify.add_argument("--seed", type=int, default=0)

    cost = sub.add_parser("cost", parents=[common], help="report a design's hardware budget")
    cost.add_argument("--design", choices=tuple(d.value for d in Design))
    cost.add_argument("--width", type=int)
    cost.add_argument("--table", action="store_true", help="print the reference number table")

    schedule = sub.add_parser("schedule", parents=[common], help="show a consolidation schedule")
    schedule.add_argument("--schedule", choices=SCHEDULES, required=True)
    schedule.add_argument("--rows", type=int, default=PUBLISHED_ROW_COUNT)
    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            # what the top-level parser's subcommand action does, without
            # first scanning the whole argv itself; a bare trailing `--` is
            # dropped, which argparse refuses where a subcommand has no positionals
            args, extra = command.parse_known_args(argv[1:-1] if argv[-1] == "--" else argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
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
