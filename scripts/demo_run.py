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
from arithsim.costs import DESIGNS, Design, check_width
from arithsim.flash import fire_pairs


def show_cascade(a: BitVector, b: BitVector) -> None:
    adder, width = DESIGNS[Design.CASCADE], a.width
    total, carry, ticks, levels = adder.add(a.value, b.value, width)
    print(f"cascade {a} + {b}")
    for record in level_records(levels, width):
        carries = ",".join(str(c) for c in record["carries"])
        print(f"  level {record['level']}: sums={record['sums']} carries=[{carries}]")
    print(f"  sum={total} carry={carry} ticks={ticks} gates={adder.cost(width)[0]}")


def show_flash(a: BitVector, b: BitVector) -> None:
    adder, n = DESIGNS[Design.FLASH], a.width
    total, _, ticks, (_, c, ends) = adder.add(a.value, b.value, n)
    print(f"flash {a} + {b}")
    print(f"  tick 1: s={a.value ^ b.value:0{n + 1}b} c={c:0{n}b}")
    fired = " ".join(f"({i},{j})" for i, j in fire_pairs(c, ends)) or "none"
    print(f"  tick 2: firings {fired} over {adder.cost(n)[0]} gates")
    print(f"  sum={total} ticks={ticks}")


def show_multiply(a: BitVector, b: BitVector, design: Design) -> None:
    circuit = DESIGNS[design]
    product, ticks, report = circuit.lanes(a.value, b.value, a.width, 1)
    print(f"multiply {int(a)} x {int(b)}, schedule {circuit.schedule}")
    for index, stage in enumerate(report.stages, start=1):
        print(
            f"  stage {index}: {stage.kind.value} {stage.rows_in} -> {stage.rows_out} "
            f"rows ({stage.left_out} left out, {stage.ticks} ticks, "
            f"{stage.circuits_used} circuits)"
        )
    print(f"  product={product} (= {int(a) * int(b)}) ticks={ticks}")


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
    try:
        check_width(Design.MULT_SCHEDULE_A, args.width)
    except ValueError:
        return 0  # the multiplier takes fewer widths than the adders
    print()
    for design in (Design.MULT_SCHEDULE_A, Design.MULT_SCHEDULE_B):
        show_multiply(a, b, design)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
