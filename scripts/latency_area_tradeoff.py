#!/usr/bin/env python3
"""Print the latency/area trade between the adder designs and the two
multiplier schedules, at a configurable sweep of widths.

Usage: python scripts/latency_area_tradeoff.py [--widths 8,32,128] [--samples 200]

Each row also runs `samples` random additions, one pair at a time through
the adder's lane kernel, against the big-integer reference and, where the
simulator keeps a gate tally, checks it against the closed-form count, so
the table doubles as a smoke test.
"""

import argparse
import random

from arithsim.costs import DESIGNS, Design, blocked_gate_split, cost_report, reference_table


def run_design(design: Design, width: int, samples: int, seed: int) -> tuple[int, str]:
    """Random-sweep one adder; returns (passes, the entry's gate tally or -)."""
    adder = DESIGNS[design]
    rng = random.Random(seed ^ width)
    pairs = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(samples)]
    passes = sum(adder.lanes(a, b, width, 1)[0] == a + b for a, b in pairs)
    return passes, "-" if adder.gates is None else str(adder.gates(width))


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
        for design in (d for d, circuit in DESIGNS.items() if circuit.schedule == "-"):
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
    for design, circuit in DESIGNS.items():
        if circuit.schedule != "-":
            report = cost_report(design, 64)
            print(
                f"mult 64-bit {circuit.schedule}: {report.memory_entries} memory entries, "
                f"{report.ticks} ticks"
            )

    print()
    print("headline numbers:")
    for name, value in reference_table():
        print(f"  {name:34s} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
