"""Carry-save multiplier: shrink N partial-product rows to two, then add.

Two consolidation stage kinds exist. A 3:2 stage partitions the rows into
triples and replaces each with a bitwise-sum row and a shifted majority row
in one tick. A quantizer stage counts the 1-bits per column across up to
`capacity` consumed rows in two ticks and redistributes each count's binary
digits: bit q of the count in column p lands in column p+q of output row q,
so the stage emits floor(log2(capacity)) + 1 rows plus any rows left out.
Both kinds preserve the running sum, which is asserted after every stage.

Schedule A uses only 3:2 stages; schedule B quantizes until three rows remain
and finishes with one 3:2 stage. The surviving two rows are added by the
three-tick double-width adder.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bitvec import BitVector, ModelIntegrityError
from . import flash


class Schedule(Enum):
    A = "A"
    B = "B"


class StageKind(Enum):
    CSA_3_2 = "csa_3_2"
    QUANTIZER = "quantizer"


CSA_STAGE_TICKS = 1
QUANTIZER_TICKS = 2
FINAL_ADD_TICKS = flash.DOUBLE_WIDTH_TICKS
PUBLISHED_ROW_COUNT = 64
MULTIPLIER_WIDTHS = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class RowSet:
    """An unordered-sum collection of equal-width rows; zero rows count."""

    width: int
    rows: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        for index, row in enumerate(self.rows):
            if row.width != self.width:
                raise ValueError(
                    f"row {index} is {row.width} bits wide, expected {self.width}"
                )

    def total(self) -> int:
        return sum(row.value for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class StageRecord:
    """Bookkeeping for one consolidation stage."""

    kind: StageKind
    rows_in: int
    rows_out: int
    left_out: int
    ticks: int
    circuits_used: int

    def __post_init__(self) -> None:
        if self.kind is StageKind.CSA_3_2:
            if self.left_out != self.rows_in % 3:
                raise ValueError("a 3:2 stage leaves rows_in mod 3 rows out")
            if self.rows_out != self.rows_in - self.rows_in // 3:
                raise ValueError("a 3:2 stage keeps rows_in - rows_in//3 rows")
            if self.ticks != CSA_STAGE_TICKS:
                raise ValueError("a 3:2 stage takes one tick")
        else:
            consumed = self.rows_in - self.left_out
            if self.rows_out != consumed.bit_length() + self.left_out:
                raise ValueError(
                    "a quantizer stage keeps floor(log2(consumed)) + 1 + left_out rows"
                )
            if self.ticks != QUANTIZER_TICKS:
                raise ValueError("a quantizer stage takes two ticks")


@dataclass(frozen=True)
class ScheduleReport:
    stages: tuple[StageRecord, ...]
    row_trajectory: tuple[int, ...]
    total_ticks: int

    def __post_init__(self) -> None:
        if len(self.row_trajectory) != len(self.stages) + 1:
            raise ValueError("trajectory must have one entry per stage boundary")
        for index, stage in enumerate(self.stages):
            if stage.rows_in != self.row_trajectory[index]:
                raise ValueError(f"stage {index} rows_in disagrees with trajectory")
            if stage.rows_out != self.row_trajectory[index + 1]:
                raise ValueError(f"stage {index} rows_out disagrees with trajectory")
        if self.row_trajectory and self.row_trajectory[-1] != 2:
            raise ValueError("consolidation must end at two rows")
        if self.total_ticks != sum(stage.ticks for stage in self.stages):
            raise ValueError("total_ticks must equal the sum of stage ticks")


@dataclass(frozen=True)
class MultiplyResult:
    product: BitVector  # width 2N
    ticks: int
    report: ScheduleReport


def partial_products(a: BitVector, b: BitVector) -> RowSet:
    """All N shifted rows, zero rows included: row i = (a << i) * b_i.

    Column p then holds exactly the convolution bits a_j * b_{p-j}. Keeping
    zero rows keeps the row count and the schedule shape data-independent.
    """
    if a.width != b.width:
        raise ValueError(f"operand widths differ: {a.width} vs {b.width}")
    n = a.width
    rows = tuple(
        BitVector(2 * n, a.value << i if (b.value >> i) & 1 else 0) for i in range(n)
    )
    return RowSet(width=2 * n, rows=rows)


def csa_3_2(r1: BitVector, r2: BitVector, r3: BitVector) -> tuple[BitVector, BitVector]:
    """One tick: three rows become a bitwise-sum row and a shifted-majority row."""
    width = r1.width
    if r2.width != width or r3.width != width:
        raise ValueError("rows must share one width")
    majority = (r1.value & r2.value) | (r1.value & r3.value) | (r2.value & r3.value)
    if (majority >> (width - 1)) & 1:
        raise ValueError("carry row would overflow the declared width")
    sum_row = BitVector(width, r1.value ^ r2.value ^ r3.value)
    carry_row = BitVector(width, majority << 1)
    if sum_row.value + carry_row.value != r1.value + r2.value + r3.value:
        raise ModelIntegrityError("3:2 consolidation lost value")
    return sum_row, carry_row


def csa_stage(rows: RowSet) -> tuple[RowSet, StageRecord]:
    """Consolidate rows in triples, first to last; stragglers pass through."""
    n = len(rows)
    if n < 3:
        raise ValueError(f"a 3:2 stage needs at least three rows, got {n}")
    out = []
    for t in range(n // 3):
        sum_row, carry_row = csa_3_2(*rows.rows[3 * t : 3 * t + 3])
        out.append(sum_row)
        out.append(carry_row)
    out.extend(rows.rows[3 * (n // 3) :])
    result = RowSet(rows.width, tuple(out))
    if result.total() != rows.total():
        raise ModelIntegrityError("3:2 stage lost value")
    record = StageRecord(
        kind=StageKind.CSA_3_2,
        rows_in=n,
        rows_out=len(result),
        left_out=n % 3,
        ticks=CSA_STAGE_TICKS,
        circuits_used=n // 3,
    )
    return result, record


def column_counts(rows: RowSet) -> tuple[int, ...]:
    """Per-column 1-bit counts, the quantity a quantizer stage digitizes."""
    return tuple(
        sum((row.value >> p) & 1 for row in rows.rows) for p in range(rows.width)
    )


def quantize_columns(
    rows: RowSet, capacity: int, leave_out: int = 0
) -> tuple[RowSet, StageRecord]:
    """Two ticks: count 1-bits per column, then spread the counts' digits.

    The first len(rows) - leave_out rows are consumed; the rest pass through
    unchanged. One quantizer per column digitizes its count, and bit q of the
    count in column p feeds column p+q of output row q. A capacity-nu
    quantizer emits floor(log2(nu)) + 1 rows, so the capacity must sit in the
    same power-of-two bracket as the consumed row count, or the stage's
    row-count law would bend.
    """
    n = len(rows)
    consumed = n - leave_out
    if capacity < 3:
        raise ValueError(f"quantizer capacity must be at least 3, got {capacity}")
    if leave_out < 0 or consumed < 3:
        raise ValueError(f"cannot consume {consumed} of {n} rows")
    if consumed > capacity:
        raise ValueError(f"{consumed} rows exceed quantizer capacity {capacity}")
    planes_needed = capacity.bit_length()
    if consumed.bit_length() != planes_needed:
        raise ValueError(
            f"capacity {capacity} and consumed count {consumed} span different "
            "power-of-two brackets"
        )
    # Per-column counting runs over all columns at once: plane q holds bit q
    # of every column's running count, and adding a row ripples plane by plane.
    planes = [0] * planes_needed
    for row in rows.rows[:consumed]:
        carry = row.value
        for q in range(planes_needed):
            if not carry:
                break
            carry, planes[q] = planes[q] & carry, planes[q] ^ carry
        else:
            if carry:
                raise ModelIntegrityError("a column count exceeded the capacity")
    out = []
    for q, plane in enumerate(planes):
        shifted = plane << q
        if shifted >> rows.width:
            raise ModelIntegrityError("a count digit escaped the row width")
        out.append(BitVector(rows.width, shifted))
    out.extend(rows.rows[consumed:])
    result = RowSet(rows.width, tuple(out))
    if result.total() != rows.total():
        raise ModelIntegrityError("quantizer stage lost value")
    record = StageRecord(
        kind=StageKind.QUANTIZER,
        rows_in=n,
        rows_out=len(result),
        left_out=leave_out,
        ticks=QUANTIZER_TICKS,
        circuits_used=rows.width,
    )
    return result, record


def consolidate(rows: RowSet, schedule: Schedule) -> tuple[RowSet, ScheduleReport]:
    """Run one schedule's stage rule from any starting row count down to two.

    Schedule A applies 3:2 stages throughout. Schedule B quantizes while more
    than three rows remain, consuming all rows, except that a power-of-two
    row count consumes one row fewer (leaving the last row out): that keeps
    the quantizer capacity below the next power of two at the same output
    count. Three remaining rows always finish through one 3:2 stage.
    """
    if len(rows) < 3:
        raise ValueError(f"consolidation needs at least three rows, got {len(rows)}")
    trajectory = [len(rows)]
    stages = []
    ticks = 0
    current = rows
    while len(current) > 2:
        n = len(current)
        if schedule is Schedule.A or n == 3:
            current, record = csa_stage(current)
        elif n & (n - 1) == 0:
            current, record = quantize_columns(current, capacity=n - 1, leave_out=1)
        else:
            current, record = quantize_columns(current, capacity=n)
        stages.append(record)
        trajectory.append(len(current))
        ticks += record.ticks
    return current, ScheduleReport(
        stages=tuple(stages),
        row_trajectory=tuple(trajectory),
        total_ticks=ticks,
    )


def _pad_to_published(rows: RowSet) -> RowSet:
    if len(rows) > PUBLISHED_ROW_COUNT:
        raise ValueError(
            f"published schedules take at most {PUBLISHED_ROW_COUNT} rows, got {len(rows)}"
        )
    if len(rows) == PUBLISHED_ROW_COUNT:
        return rows
    zero = BitVector(rows.width, 0)
    padding = (zero,) * (PUBLISHED_ROW_COUNT - len(rows))
    return RowSet(rows.width, rows.rows + padding)


def run_schedule_a(rows: RowSet) -> tuple[RowSet, ScheduleReport]:
    """The 64-row 3:2-only schedule; shorter inputs are padded with zero rows."""
    return consolidate(_pad_to_published(rows), Schedule.A)


def run_schedule_b(rows: RowSet) -> tuple[RowSet, ScheduleReport]:
    """The 64-row quantizer schedule; shorter inputs are padded with zero rows."""
    return consolidate(_pad_to_published(rows), Schedule.B)


def check_multiplier_width(width: int) -> None:
    """Raise ValueError unless the multiplier takes `width`-bit operands."""
    if width not in MULTIPLIER_WIDTHS:
        raise ValueError(f"multiplier width must be one of {MULTIPLIER_WIDTHS}, got {width}")


def multiply(a: BitVector, b: BitVector, schedule: Schedule) -> MultiplyResult:
    """Full product: partial rows, consolidation, one double-width addition."""
    if a.width != b.width:
        raise ValueError(f"operand widths differ: {a.width} vs {b.width}")
    n = a.width
    check_multiplier_width(n)
    rows = partial_products(a, b)
    final_rows, report = consolidate(rows, schedule)
    r1, r2 = final_rows.rows
    added = flash.double_width_add(*r1.halves(), *r2.halves())
    if (added.sum.value >> (2 * n)) & 1:
        raise ModelIntegrityError("product escaped its 2N-bit width")
    return MultiplyResult(
        product=BitVector(2 * n, added.sum.value),
        ticks=report.total_ticks + added.ticks,
        report=report,
    )
