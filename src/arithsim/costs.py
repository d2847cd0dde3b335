"""The designs, their closed-form gate, memory, and clock-tick costs, and the
design table `DESIGNS`: one entry per design, the four adders and the
multiplier under either schedule, holds its width rule, lane layout, lane
kernel, oracle, sweep limit, cost and `--trace` view, for `cost`, the CLI
and the scripts alike.

Gate counts cover the special-purpose AND gates only; the lookup units are
costed as associative-memory entries where a design uses them. A cost's
ticks are the published ones: for the multiplier, `end_to_end_ticks` prices
schedule A with a stage lower bound and a conventional final adder, while
`multiplier.multiply_ticks` gives the stage counts and three-tick adder that
this package actually runs, and that `mul` and `verify` report.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, NamedTuple

from .bitvec import BitVector, ModelIntegrityError, lane_stride, oracle_add
from .bitvec import block_carries, oracle_mul, pack_lanes, unpack_narrow_lanes
from . import cascade, flash, multiplier
from .multiplier import RowSet, Schedule


class Design(str, Enum):
    CASCADE = "cascade"
    FLASH = "flash"
    FLASH_DOUBLE = "flash_double"
    BLOCKED_DOUBLE = "blocked_double"
    MULT_SCHEDULE_A = "mult_schedule_a"
    MULT_SCHEDULE_B = "mult_schedule_b"


def lane_sums(a: int, b: int, width: int, k: int) -> int:
    """The adders' oracle on k pairs packed at `lane_stride(width)`: each
    lane's sum fits its stride, so one add checks every lane."""
    return oracle_add(a, b)


def lane_products(a: int, b: int, n: int, k: int) -> int:
    """The multiplier's oracle on k pairs of n-bit operands packed at
    `lane_stride(2 * n)`: each lane's product, in the same lanes."""
    stride = lane_stride(2 * n)
    a, b = (unpack_narrow_lanes(v, stride, k, n) for v in (a, b))
    return pack_lanes(map(oracle_mul, a, b), stride)


class Circuit(NamedTuple):
    """One design: all that `cost`, the CLI and the scripts know of it.

    `accepts(width)` tests the operand widths it takes, and `needs` phrases
    them for error messages; `cost(width)` is its published (special AND
    gates, memory entries, ticks). `lanes(a, b, width, k)` runs its lane
    kernel on k pairs packed at `stride(width)` (the multiplier's 2N-bit
    rows): (each lane's result, ticks, the kernel's words), the words being
    the multiplier's `ScheduleReport`; `oracle` takes the same arguments and
    gives the results `verify` wants, sweeping every pair up to width
    `exhaustive` and naming `schedule` in its header. An adder's `add` is
    its one-pair call, showing an N+1-bit sum, or with `carry_apart` an
    N-bit sum and the carry; `--trace` prints one `label` record, or
    `template` line, per field dict of `trace(words, width)`.
    """

    needs: str
    accepts: Callable[[int], bool]
    cost: Callable[[int], tuple[int, int, int]]
    lanes: Callable[[int, int, int, int], tuple]
    oracle: Callable[[int, int, int, int], int] = lane_sums
    exhaustive: int = 8
    schedule: str = "-"
    stride: Callable[[int], int] = lane_stride
    label: str = ""
    template: str = ""
    trace: Callable[[tuple, int], Iterable[dict]] | None = None
    carry_apart: bool = False

    def add(self, a: int, b: int, width: int) -> tuple[BitVector, int, int, tuple]:
        """One pair through an adder's lane kernel at K = 1: (display sum,
        carry bit, ticks, words)."""
        total, ticks, words = self.lanes(a, b, width, 1)
        shown = width + (not self.carry_apart)
        return BitVector(shown, total & ((1 << shown) - 1)), total >> width, ticks, words


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


def _ticked(words: tuple, ticks: int) -> tuple:
    return words[0], ticks, words


def _levels(levels: list) -> tuple:
    # the last level's sums plus its carry word, so each carry out on top; a tick per level
    return sum(levels[-1]), len(levels), levels


def _blocked_cost(width: int) -> tuple[int, int, int]:
    if width < 8:  # at width 2 the closed form's N/2 term is not whole
        raise ValueError(f"cost needs a half of at least 4, got width {width}")
    return blocked_gates(width // 2), 0, flash.BLOCKED_TICKS


def _multiplier(schedule: Schedule) -> Circuit:
    """The multiplier under one consolidation schedule."""

    def cost(width: int) -> tuple[int, int, int]:
        if width != 64:
            raise ValueError(f"hardware estimate is defined for width 64 only, got {width}")
        circuits, quantizers = multiplier_banks(schedule)
        entries = ENTRIES_PER_CSA * circuits + ENTRIES_PER_QUANTIZER * quantizers
        return 0, entries, end_to_end_ticks(schedule)

    def lanes(a: int, b: int, width: int, k: int) -> tuple:
        product, report = multiplier.multiply_lanes(a, b, width, schedule, k)
        return product, multiplier.multiply_ticks(report), report

    return Circuit(
        needs=f"a multiplier width in {multiplier.MULTIPLIER_WIDTHS}",
        accepts=lambda w: w in multiplier.MULTIPLIER_WIDTHS,
        cost=cost, lanes=lanes, oracle=lane_products,
        exhaustive=4, schedule=schedule.value, stride=lambda w: lane_stride(2 * w),
    )


# The simulators are looked up on their home modules at call time, so a
# wrapper installed there (a tracer, a test's fault) is the one that runs.
DESIGNS = {
    Design.CASCADE: Circuit(
        needs="a power-of-two width >= 2",
        accepts=lambda w: w >= 2 and not w & (w - 1),
        cost=lambda w: (cascade_gates(w.bit_length() - 1), 0, w.bit_length() - 1),
        lanes=lambda a, b, w, k: _levels(cascade.cascade_lanes(a, b, w, k)),
        label="level",
        template="level {level}: sums={sums} carries={carries}",
        trace=lambda levels, w: (
            dict(rec, carries=_joined(rec["carries"])) for rec in cascade.level_records(levels, w)
        ),
        carry_apart=True,
    ),
    Design.FLASH: Circuit(
        needs="a width >= 1",
        accepts=lambda w: w >= 1,
        cost=lambda w: (flash_gates(w), 0, flash.FLASH_ADD_TICKS),
        lanes=lambda a, b, w, k: _ticked(flash.flash_lanes(a, b, w, k), flash.FLASH_ADD_TICKS),
        label="firings",
        template="firings: [{pairs}] gates={gates}",
        trace=lambda words, n: [dict(
            pairs=_joined(f"{i}:{j}" for i, j in flash.fire_pairs(*words[1:])),
            gates=DESIGNS[Design.FLASH].cost(n)[0],
        )],
    ),
    Design.FLASH_DOUBLE: Circuit(
        needs="an even width >= 2",
        accepts=lambda w: w >= 2 and not w % 2,
        cost=lambda w: (double_width_gates(w // 2), 0, flash.DOUBLE_WIDTH_TICKS),
        lanes=lambda a, b, w, k: _ticked(flash.double_width_lanes(a, b, w // 2, k),
                                         flash.DOUBLE_WIDTH_TICKS),
        label="halves",
        template="cross carry: {cross_carry}",
        trace=lambda words, w: [dict(cross_carry=words[1])],
    ),
    Design.BLOCKED_DOUBLE: Circuit(
        needs="an even width whose half is a power-of-four",
        accepts=lambda w: not w % 2 and flash.is_power_of_four(w // 2),
        cost=_blocked_cost,
        lanes=lambda a, b, w, k: _ticked(flash.blocked_lanes(a, b, w, k), flash.BLOCKED_TICKS),
        label="block_carries",
        template="block carries: [{bits}]",
        trace=lambda words, w: [
            dict(bits=_joined(block_carries(words[1], w, flash.blocked_shape(w)[1])))
        ],
    ),
    Design.MULT_SCHEDULE_A: _multiplier(Schedule.A),
    Design.MULT_SCHEDULE_B: _multiplier(Schedule.B),
}


def check_width(design: Design, width: int) -> Circuit:
    """`design`'s table entry; ValueError unless it takes `width`-bit
    operands. The one width rule of every front end."""
    circuit = DESIGNS[design]
    if not circuit.accepts(width):
        raise ValueError(f"{design.value} needs {circuit.needs}, got {width}")
    return circuit


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
# The multiplier's lookup units, as memory entries per unit.
ENTRIES_PER_CSA = 8  # two-bit entries per 3:2 circuit
ENTRIES_PER_QUANTIZER = 64  # six-bit entries per 63-to-6 quantizer


@lru_cache(maxsize=None)
def _simulated_ticks(schedule: Schedule) -> int:
    """Ticks of the published 64-row multiplication, taken from a real run."""
    rows = RowSet(2 * multiplier.PUBLISHED_ROW_COUNT, (0,) * multiplier.PUBLISHED_ROW_COUNT)
    return multiplier.multiply_ticks(multiplier.consolidate(rows, schedule)[1])


def end_to_end_ticks(schedule: Schedule) -> int:
    """Published ticks for a full 64-bit multiplication: schedule A takes
    the 3:2 stage lower bound plus a 15-tick conventional adder, schedule B
    its stage count from a real run plus the three-tick double-width adder.
    The ticks this package runs, 13 under A, are `multiplier.multiply_ticks`.
    """
    if schedule is Schedule.A:
        stages = consolidation_lower_bound(multiplier.PUBLISHED_ROW_COUNT, 2)
        return stages + CONVENTIONAL_ADDER_TICKS
    return _simulated_ticks(schedule)


def multiplier_banks(schedule: Schedule) -> tuple[int, int]:
    """(3:2 circuits, 63-to-6 quantizers) of the published 64-bit multiplier.

    Schedule A sizes its 3:2 bank for the first (widest) stage: the 21 row
    triples cover staggered rows, so triple i spans 6i + 1 active columns,
    21 * 61 = 1281 circuits in all. Schedule B pairs one quantizer with
    each of the 128 product columns, plus the final 3:2 stage's 128
    circuits; its second quantizer stage reuses the first bank. So B trades
    A's other 1153 circuits (9224 two-bit entries) for the quantizers'
    8192 six-bit entries, and takes 8 ticks to A's 24.
    """
    if schedule is Schedule.B:
        columns = 2 * multiplier.PUBLISHED_ROW_COUNT
        return columns, columns
    circuits = sum(6 * i + 1 for i in range(21))
    if circuits != 21 * 61:
        raise ModelIntegrityError("staggered-row circuit count disagrees")
    return circuits, 0


def cost_report(design: Design, width: int) -> tuple[int, int, int]:
    """One design's budget at one operand width, under its width rule:
    `Circuit.cost`'s (special AND gates, memory entries, ticks)."""
    return check_width(design, width).cost(width)


def reference_table() -> tuple[tuple[str, int], ...]:
    """The headline numbers every release must reproduce, computed live."""
    (circuits_a, _), (circuits_b, quantizers_b) = map(multiplier_banks, Schedule)
    ticks_a, ticks_b = map(end_to_end_ticks, Schedule)
    if ticks_a % ticks_b:
        raise ModelIntegrityError(f"tick ratio {ticks_a}/{ticks_b} is not integral")
    return (
        ("cascade_gates_width_128", cost_report(Design.CASCADE, 128)[0]),
        ("double_width_gates_width_128", cost_report(Design.FLASH_DOUBLE, 128)[0]),
        ("blocked_gates_width_128", cost_report(Design.BLOCKED_DOUBLE, 128)[0]),
        ("schedule_a_csa_circuits", circuits_a),
        ("schedule_b_quantizer_entries", ENTRIES_PER_QUANTIZER * quantizers_b),
        ("schedule_a_exclusive_entries", ENTRIES_PER_CSA * (circuits_a - circuits_b)),
        ("consolidation_stage_lower_bound", consolidation_lower_bound(64, 2)),
        ("schedule_a_ticks", ticks_a),
        ("schedule_b_ticks", ticks_b),
        ("schedule_speedup", ticks_a // ticks_b),
    )
