"""The designs, their closed-form gate, memory, and clock-tick costs, and the
adder table `ADDERS`: one entry per adder holds its width rule, published
cost, simulator and `--trace` view, for `cost`, the CLI and the scripts alike.

Gate counts cover the special-purpose AND gates only; the lookup units are
costed as associative-memory entries where a design uses them. Tick counts
come in two accountings for the multiplier schedules: the `published`
accounting combines a stage lower bound with a conventional final adder for
schedule A, while the `simulated` accounting uses the stage counts and
three-tick adder this package actually runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, NamedTuple

from .bitvec import BitVector, ModelIntegrityError
from . import cascade, flash, multiplier
from .multiplier import RowSet, Schedule


class Design(str, Enum):
    CASCADE = "cascade"
    FLASH = "flash"
    FLASH_DOUBLE = "flash_double"
    BLOCKED_DOUBLE = "blocked_double"
    MULT_SCHEDULE_A = "mult_schedule_a"
    MULT_SCHEDULE_B = "mult_schedule_b"


class Adder(NamedTuple):
    """One adder design: all that `cost`, the CLI and the scripts know of it.

    `accepts(width)` tests the operand widths its simulator takes, and
    `needs` phrases them for error messages; `cost(width)` is its published
    (special AND gates, ticks) at such a width. `run(a, b)` returns (display
    sum, carry bit, ticks, raw result). The display sum is the design's
    natural output: N bits with the carry held separately for the cascade,
    N+1 bits with the carry on top for the others. `lanes(a, b, width, k)`
    adds k pairs packed at `bitvec.lane_stride(width)` and returns their
    N+1-bit sums in the same lanes. `--trace` prints one `label` record, or
    one `template` line, per field dict that `trace(raw result)` yields.
    `gates(raw result)` is the simulator's live gate tally, where it keeps
    one.
    """

    needs: str
    accepts: Callable[[int], bool]
    cost: Callable[[int], tuple[int, int]]
    run: Callable[[BitVector, BitVector], tuple]
    lanes: Callable[[int, int, int, int], int]
    label: str
    template: str
    trace: Callable[[object], Iterable[dict]]
    gates: Callable[[object], int] | None = None


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


def _carry_on_top(result, width: int) -> tuple:
    return result.sum, result.sum.bit(width), result.ticks, result


def _run_cascade(a: BitVector, b: BitVector) -> tuple:
    result = cascade.cascade_add(a, b)
    return result.sum, result.carry, result.trace.ticks, result


# The simulators are looked up on their home modules at call time, so a
# wrapper installed there (a tracer, a test's fault) is the one that runs.
ADDERS = {
    Design.CASCADE: Adder(
        needs="a power-of-two width >= 2",
        accepts=lambda w: w >= 2 and not w & (w - 1),
        cost=lambda w: (cascade_gates(w.bit_length() - 1), w.bit_length() - 1),
        run=_run_cascade,
        # the last level's sums plus its carry word, each lane's carry out on top
        lanes=lambda a, b, width, k: sum(cascade.cascade_lanes(a, b, width, k)[-1]),
        label="level",
        template="level {level}: sums={sums} carries={carries}",
        trace=lambda r: (
            dict(rec, carries=_joined(rec["carries"])) for rec in r.trace.to_records()
        ),
        gates=lambda r: r.trace.special_and_gates,
    ),
    Design.FLASH: Adder(
        needs="a width >= 1",
        accepts=lambda w: w >= 1,
        cost=lambda w: (flash_gates(w), flash.FLASH_ADD_TICKS),
        run=lambda a, b: _carry_on_top(flash.flash_add(a, b), a.width),
        lanes=lambda a, b, width, k: flash.flash_lanes(a, b, width, k)[0],
        label="firings",
        template="firings: [{pairs}] gates={gates}",
        trace=lambda r: [dict(pairs=_joined(f"{i}:{j}" for i, j in r.firings),
                              gates=r.firings.gates_evaluated)],
        gates=lambda r: r.firings.gates_evaluated,
    ),
    Design.FLASH_DOUBLE: Adder(
        needs="an even width >= 2",
        accepts=lambda w: w >= 2 and not w % 2,
        cost=lambda w: (double_width_gates(w // 2), flash.DOUBLE_WIDTH_TICKS),
        run=lambda a, b: _carry_on_top(flash.double_width_add(*a.halves(), *b.halves()), a.width),
        lanes=lambda a, b, width, k: flash.double_width_lanes(a, b, width // 2, k)[0],
        label="halves",
        template="cross carry: {cross_carry}",
        trace=lambda r: [dict(cross_carry=r.cross_carry)],
    ),
    Design.BLOCKED_DOUBLE: Adder(
        needs="an even width whose half is a power-of-four",
        accepts=lambda w: not w % 2 and flash.is_power_of_four(w // 2),
        cost=lambda w: (blocked_gates(w // 2), flash.BLOCKED_TICKS),
        run=lambda a, b: _carry_on_top(flash.blocked_add(a, b), a.width),
        lanes=lambda a, b, width, k: flash.blocked_lanes(a, b, width, k)[0],
        label="block_carries",
        template="block carries: [{bits}]",
        trace=lambda r: [dict(bits=_joined(r.block_carries))],
    ),
}


def check_width(design: Design, width: int) -> None:
    """Raise ValueError unless the adder `design` takes `width`-bit operands."""
    adder = ADDERS[design]
    if not adder.accepts(width):
        raise ValueError(f"{design.value} needs {adder.needs}, got {width}")


@dataclass(frozen=True)
class CostReport:
    design: Design
    width: int
    special_and_gates: int
    memory_entries: int
    ticks: int


@dataclass(frozen=True)
class MultiplierEstimate:
    """Hardware budget for one 64-bit multiplier schedule."""

    schedule: Schedule
    width: int
    csa_circuits: int
    csa_memory_entries: int  # 8 two-bit entries per 3:2 circuit
    quantizers_63_to_6: int
    quantizer_memory_entries: int  # 64 six-bit entries per quantizer
    ticks: int

    def total_memory_entries(self) -> int:
        return self.csa_memory_entries + self.quantizer_memory_entries


@dataclass(frozen=True)
class ScheduleComparison:
    """Schedule A's extra 3:2 hardware against schedule B's quantizer bank."""

    a_exclusive_csa_circuits: int
    a_exclusive_memory_entries: int
    b_quantizer_memory_entries: int
    ticks_a: int
    ticks_b: int
    speedup: int


def cascade_gates(k: int) -> int:
    """Special AND gates in the k-stage cascade adder: k * 2**(k-1) - 1.

    Cross-checked against the simulator's per-level summation,
    `cascade.special_and_gates`.
    """
    if k < 1:
        raise ValueError(f"stage count must be positive, got {k}")
    closed = k * (1 << (k - 1)) - 1
    if closed != cascade.special_and_gates(k):
        raise ModelIntegrityError("cascade gate forms disagree")
    return closed


def flash_gates(n: int) -> int:
    """Gates in the two-tick adder's network: n(n+1)/2."""
    if n < 1:
        raise ValueError(f"width must be positive, got {n}")
    return n * (n + 1) // 2


def double_width_gates(n: int) -> int:
    """Gates for 2N bits in three ticks: n(n+3)/2.

    Two pair-leaf half networks of n(n+1)/4 gates each plus n gates for the
    cross-carry increment.
    """
    if n < 1:
        raise ValueError(f"half-width must be positive, got {n}")
    return n * (n + 3) // 2


def blocked_gate_split(n: int) -> tuple[int, int]:
    """(in-block, cross-block) gate counts of the blocked 2N-bit adder.

    The in-block stage spends sqrt(N) * 2 sqrt(N) (2 sqrt(N) + 1) / 4 gates
    = N sqrt(N) + N/2; the cross-block stage averages N - sqrt(N) + 1 gates
    over sqrt(N) block carries = N sqrt(N) - N + sqrt(N).
    """
    if n < 4 or not flash.is_power_of_four(n):
        # at N = 1 the N/2 term is not integral and the two forms disagree
        raise ValueError(f"half-width must be a power of four >= 4, got {n}")
    root = isqrt(n)
    in_block = n * root + n // 2
    cross_block = n * root - n + root
    return in_block, cross_block


def blocked_gates(n: int) -> int:
    """Total gates of the blocked 2N-bit adder: (2N + 1) sqrt(N) - N/2."""
    in_block, cross_block = blocked_gate_split(n)
    root = isqrt(n)
    total = (2 * n + 1) * root - n // 2
    if in_block + cross_block != total:
        raise ModelIntegrityError("blocked gate split disagrees with the total")
    return total


def consolidation_lower_bound(from_rows: int, to_rows: int) -> int:
    """Least number of 3:2 stages from from_rows to to_rows: each stage keeps
    at least 2/3 of its rows, so the bound is ceil(log base 3/2 of the ratio).
    Computed in exact integer arithmetic."""
    if to_rows < 1 or from_rows < to_rows:
        raise ValueError(f"need from_rows >= to_rows >= 1, got {from_rows}, {to_rows}")
    stages = 0
    reachable, target = to_rows, from_rows
    while reachable < target:
        reachable *= 3
        target *= 2
        stages += 1
    return stages


# Schedule A's published accounting finishes with a conventional adder.
CONVENTIONAL_ADDER_TICKS = 15


@lru_cache(maxsize=None)
def _simulated_schedule_ticks(schedule: Schedule) -> int:
    """Stage ticks of the published 64-row schedule, taken from a real run."""
    rows = RowSet(2 * multiplier.PUBLISHED_ROW_COUNT, (0,) * multiplier.PUBLISHED_ROW_COUNT)
    _, report = multiplier.consolidate(rows, schedule)
    return report.total_ticks


def end_to_end_ticks(schedule: Schedule, accounting: str = "published") -> int:
    """Ticks for a full 64-bit multiplication under one schedule.

    `published` accounting: schedule A takes the 3:2 stage lower bound plus
    a 15-tick conventional adder; schedule B takes its simulated stage count
    plus the three-tick double-width adder. `simulated` accounting uses the
    stage counts this package runs plus the three-tick adder for both.
    """
    if accounting == "published":
        if schedule is Schedule.A:
            return (
                consolidation_lower_bound(multiplier.PUBLISHED_ROW_COUNT, 2)
                + CONVENTIONAL_ADDER_TICKS
            )
        return _simulated_schedule_ticks(schedule) + flash.DOUBLE_WIDTH_TICKS
    if accounting == "simulated":
        return _simulated_schedule_ticks(schedule) + flash.DOUBLE_WIDTH_TICKS
    raise ValueError(f"unknown accounting {accounting!r}")


def schedule_speedup() -> int:
    """Exact tick ratio of schedule A to schedule B, published accounting."""
    a = end_to_end_ticks(Schedule.A)
    b = end_to_end_ticks(Schedule.B)
    if a % b:
        raise ModelIntegrityError(f"tick ratio {a}/{b} is not integral")
    return a // b


def mult_hardware_estimate(schedule: Schedule, width: int = 64) -> MultiplierEstimate:
    """Hardware budget for the published 64-bit multiplier.

    Schedule A sizes its 3:2 bank for the first (widest) stage: the 21 row
    triples cover staggered rows, so triple i spans 6i + 1 active columns,
    21 * 61 = 1281 circuits in all, each an 8-entry two-bit lookup. Schedule
    B pairs one 64-level quantizer with each of the 128 product columns (64
    six-bit entries apiece) plus the final 3:2 stage's 128 circuits; its
    second quantizer stage reuses the first bank.
    """
    if width != 64:
        raise ValueError(f"hardware estimate is defined for width 64 only, got {width}")
    if schedule is Schedule.A:
        circuits = sum(6 * i + 1 for i in range(21))
        if circuits != 21 * 61:
            raise ModelIntegrityError("staggered-row circuit count disagrees")
        return MultiplierEstimate(
            schedule=schedule,
            width=width,
            csa_circuits=circuits,
            csa_memory_entries=circuits * 8,
            quantizers_63_to_6=0,
            quantizer_memory_entries=0,
            ticks=end_to_end_ticks(schedule),
        )
    columns = 2 * width
    return MultiplierEstimate(
        schedule=schedule,
        width=width,
        csa_circuits=columns,
        csa_memory_entries=columns * 8,
        quantizers_63_to_6=columns,
        quantizer_memory_entries=64 * columns,
        ticks=end_to_end_ticks(schedule),
    )


def schedule_comparison() -> ScheduleComparison:
    """The published trade: schedule B swaps 1153 3:2 circuits (9224 two-bit
    entries) for the quantizer bank's 8192 six-bit entries."""
    a = mult_hardware_estimate(Schedule.A)
    b = mult_hardware_estimate(Schedule.B)
    extra_circuits = a.csa_circuits - b.csa_circuits
    return ScheduleComparison(
        a_exclusive_csa_circuits=extra_circuits,
        a_exclusive_memory_entries=extra_circuits * 8,
        b_quantizer_memory_entries=b.quantizer_memory_entries,
        ticks_a=a.ticks,
        ticks_b=b.ticks,
        speedup=schedule_speedup(),
    )


def cost_report(design: Design, width: int) -> CostReport:
    """One design's budget at one operand width."""
    if design in ADDERS:
        check_width(design, width)
        gates, ticks = ADDERS[design].cost(width)
        return CostReport(design, width, gates, 0, ticks)
    schedule = Schedule.A if design is Design.MULT_SCHEDULE_A else Schedule.B
    estimate = mult_hardware_estimate(schedule, width)
    return CostReport(design, width, 0, estimate.total_memory_entries(), estimate.ticks)


def reference_table() -> tuple[tuple[str, int], ...]:
    """The headline numbers every release must reproduce, computed live."""
    comparison = schedule_comparison()
    return (
        ("cascade_gates_width_128", cost_report(Design.CASCADE, 128).special_and_gates),
        ("double_width_gates_width_128", cost_report(Design.FLASH_DOUBLE, 128).special_and_gates),
        ("blocked_gates_width_128", cost_report(Design.BLOCKED_DOUBLE, 128).special_and_gates),
        ("schedule_a_csa_circuits", mult_hardware_estimate(Schedule.A).csa_circuits),
        ("schedule_b_quantizer_entries", comparison.b_quantizer_memory_entries),
        ("schedule_a_exclusive_entries", comparison.a_exclusive_memory_entries),
        ("consolidation_stage_lower_bound", consolidation_lower_bound(64, 2)),
        ("schedule_a_ticks", end_to_end_ticks(Schedule.A)),
        ("schedule_b_ticks", end_to_end_ticks(Schedule.B)),
        ("schedule_speedup", schedule_speedup()),
    )
