#!/usr/bin/env python3
"""Print the latency/area trade between the adder designs and the two
multiplier schedules, at a configurable sweep of widths.

Usage: python scripts/latency_area_tradeoff.py [--widths 8,32,128] [--samples 200]

Each row also runs `samples` random additions against the big-integer
reference and, where the simulator keeps a live gate tally, checks it
against the closed-form count, so the table doubles as a smoke test.
"""

import argparse
import random

from arithsim.bitvec import BitVector
from arithsim.costs import (
    ADDERS,
    Design,
    blocked_gate_split,
    cost_report,
    mult_hardware_estimate,
    reference_table,
)
from arithsim.multiplier import Schedule


def run_design(design: Design, width: int, samples: int, seed: int) -> tuple[int, str]:
    """Random-sweep one adder; returns (passes, simulated gate tally or -)."""
    adder = ADDERS[design]
    rng = random.Random(seed ^ width)
    passes = 0
    tally = "-"
    for _ in range(samples):
        a = rng.getrandbits(width)
        b = rng.getrandbits(width)
        sum_vec, carry, _, result = adder.run(BitVector(width, a), BitVector(width, b))
        passes += (sum_vec.value | carry << width) == a + b
        if adder.gates is not None:
            tally = str(adder.gates(result))
    return passes, tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", default="8,32,128")
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    widths = [int(w) for w in args.widths.split(",")]

    print(
        f"{'design':16s} {'width':>5s} {'gates':>7s} {'tally':>7s} "
        f"{'ticks':>5s} {'checked':>8s}"
    )
    for width in widths:
        for design in ADDERS:
            try:
                report = cost_report(design, width)  # applies the design's width rule
            except ValueError:
                continue
            passes, tally = run_design(design, width, args.samples, args.seed)
            if passes != args.samples:
                raise SystemExit(f"{design.value} width {width}: {passes} passes")
            if tally not in ("-", str(report.special_and_gates)):
                raise SystemExit(
                    f"{design.value} width {width}: tally {tally} disagrees "
                    f"with formula {report.special_and_gates}"
                )
            print(
                f"{report.design.value:16s} {report.width:5d} "
                f"{report.special_and_gates:7d} {tally:>7s} {report.ticks:5d} "
                f"{passes:5d}/{args.samples}"
            )

    print()
    in_block, cross_block = blocked_gate_split(64)
    print(f"blocked 128-bit split: {in_block} in-block + {cross_block} cross-block")
    for schedule in Schedule:
        estimate = mult_hardware_estimate(schedule)
        print(
            f"mult 64-bit {schedule.value}: {estimate.total_memory_entries()} memory entries, "
            f"{estimate.ticks} ticks"
        )

    print()
    print("headline numbers:")
    for name, value in reference_table():
        print(f"  {name:34s} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
