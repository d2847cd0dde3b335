#!/usr/bin/env python3
"""Walk one addition and one multiplication through every intermediate state.

Usage: python scripts/demo_run.py [--width 8] [--seed 3]

Meant for eyeballing how the circuits behave, not for benchmarking; all the
heavy verification lives in the test suite.
"""

import argparse
import random

from arithsim.bitvec import BitVector
from arithsim.cascade import level_records
from arithsim.costs import ADDERS, Design, check_width
from arithsim.flash import fire_pairs
from arithsim.multiplier import MULTIPLIER_WIDTHS, Schedule, multiply


def show_cascade(a: BitVector, b: BitVector) -> None:
    adder, width = ADDERS[Design.CASCADE], a.width
    total, carry, ticks, levels = adder.add(a.value, b.value, width)
    print(f"cascade {a} + {b}")
    for record in level_records(levels, width):
        carries = ",".join(str(c) for c in record["carries"])
        print(f"  level {record['level']}: sums={record['sums']} carries=[{carries}]")
    print(f"  sum={total} carry={carry} ticks={ticks} gates={adder.gates(width)}")


def show_flash(a: BitVector, b: BitVector) -> None:
    adder, n = ADDERS[Design.FLASH], a.width
    total, _, ticks, (_, c, ends) = adder.add(a.value, b.value, n)
    print(f"flash {a} + {b}")
    print(f"  tick 1: s={a.value ^ b.value:0{n + 1}b} c={c:0{n}b}")
    fired = " ".join(f"({i},{j})" for i, j in fire_pairs(c, ends)) or "none"
    print(f"  tick 2: firings {fired} over {adder.gates(n)} gates")
    print(f"  sum={total} ticks={ticks}")


def show_multiply(a: BitVector, b: BitVector, schedule: Schedule) -> None:
    result = multiply(a, b, schedule)
    print(f"multiply {int(a)} x {int(b)}, schedule {schedule.value}")
    for index, stage in enumerate(result.report.stages, start=1):
        print(
            f"  stage {index}: {stage.kind.value} {stage.rows_in} -> {stage.rows_out} "
            f"rows ({stage.left_out} left out, {stage.ticks} ticks, "
            f"{stage.circuits_used} circuits)"
        )
    print(
        f"  product={int(result.product)} "
        f"(= {int(a) * int(b)}) ticks={result.ticks}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    try:
        check_width(Design.CASCADE, args.width)
    except ValueError as exc:
        raise SystemExit(str(exc))

    rng = random.Random(args.seed)
    a = BitVector(args.width, rng.getrandbits(args.width))
    b = BitVector(args.width, rng.getrandbits(args.width))

    show_cascade(a, b)
    print()
    show_flash(a, b)
    if args.width in MULTIPLIER_WIDTHS:
        print()
        for schedule in Schedule:
            show_multiply(a, b, schedule)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
