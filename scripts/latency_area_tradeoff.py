#!/usr/bin/env python3
"""Print the latency/area trade between the adder designs and the two
multiplier schedules, at a configurable sweep of widths.

Usage: python scripts/latency_area_tradeoff.py [--widths 8,32,128] [--samples 200]

Each row also runs `samples` random additions, one pair at a time through
the adder's lane kernel, against the big-integer reference, so the table
doubles as a smoke test.
"""

import argparse
import random

from arithsim.costs import DESIGNS, Design, blocked_gate_split, cost_report, reference_table


def run_design(design: Design, width: int, samples: int, seed: int) -> int:
    """Random-sweep one adder; returns the passes."""
    adder = DESIGNS[design]
    rng = random.Random(seed ^ width)
    pairs = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(samples)]
    return sum(adder.lanes(a, b, width, 1)[0] == a + b for a, b in pairs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", default="8,32,128")
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    widths = [int(w) for w in args.widths.split(",")]

    print(f"{'design':16s} {'width':>5s} {'gates':>7s} {'ticks':>5s} {'checked':>8s}")
    for width in widths:
        for design in (d for d, circuit in DESIGNS.items() if circuit.schedule == "-"):
            try:
                gates, _, ticks = cost_report(design, width)  # applies the design's width rule
            except ValueError:
                continue
            passes = run_design(design, width, args.samples, args.seed)
            if passes != args.samples:
                raise SystemExit(f"{design.value} width {width}: {passes} passes")
            print(f"{design.value:16s} {width:5d} {gates:7d} {ticks:5d} {passes:5d}/{args.samples}")

    print()
    in_block, cross_block = blocked_gate_split(64)
    print(f"blocked 128-bit split: {in_block} in-block + {cross_block} cross-block")
    for design, circuit in DESIGNS.items():
        if circuit.schedule != "-":
            _, entries, ticks = cost_report(design, 64)
            print(f"mult 64-bit {circuit.schedule}: {entries} memory entries, {ticks} ticks")

    print()
    print("headline numbers:")
    for name, value in reference_table():
        print(f"  {name:34s} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
