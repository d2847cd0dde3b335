"""Carry-save multiplier: shrink N partial-product rows to two, then add.

A row is a plain int of the row set's width. Two consolidation stage kinds
exist. A 3:2 stage partitions the rows into triples and replaces each with a
bitwise-sum row and a shifted majority row in one tick. A quantizer stage
counts the 1-bits per column across its consumed rows in two ticks and
redistributes each count's binary digits: bit q of the count in column p
lands in column p+q of output row q, so the stage emits
floor(log2(consumed)) + 1 rows plus any rows left out. Both kinds preserve
the running sum, which is asserted after every stage.

Zero rows count, so a schedule's shape depends only on the row count. Each
`StageRecord` is therefore built and validated once per distinct value by a
memoized constructor, and reused on every later call.

No record stores a count it can derive: a stage's ticks follow from its
kind, a `ScheduleReport`'s row trajectory and tick total from its stages,
and a `MultiplyResult`'s ticks from its report. Each is a property.

`consolidate(rows, schedule)` runs either schedule from any row count.
Schedule A uses only 3:2 stages; schedule B quantizes until three rows remain
and finishes with one 3:2 stage. The surviving two rows are added by the
three-tick double-width adder.

`multiply_lanes` runs K multiplications side by side, all at one lane
stride, `bitvec.lane_stride` of the row width: the 2N row bits and one byte
of padding, 136 bits at N = 64. The padding holds `majority << 1` and every
quantizer digit, so a lane-mask check rejects a lane's overflow with the
one-lane message. The operands come in at that stride, checked by
`bitvec.check_operands`, and the rows, the final double-width add and the
products stay at it. `multiply` is its K = 1 call.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .bitvec import BitVector, ModelIntegrityError, Record, _set, check_operands, lane_mask
from .bitvec import lane_stride, misfit, operand_width
from . import flash


class Schedule(Enum):
    A = "A"
    B = "B"


class StageKind(Enum):
    CSA_3_2 = "csa_3_2"
    QUANTIZER = "quantizer"


CSA_STAGE_TICKS = 1
QUANTIZER_TICKS = 2
_CSA_3_2 = StageKind.CSA_3_2  # a global reads faster than an enum member on 3.11
PUBLISHED_ROW_COUNT = 64
MULTIPLIER_WIDTHS = (4, 8, 16, 32, 64)


class RowSet(Record):
    """An unordered-sum collection of rows of `lanes` lanes of `width` bits
    each, packed at `lane_stride(width)`; zero rows count. The running sum
    is summed once, here, so a stage's check re-sums only its own output."""

    __slots__ = ("width", "rows", "lanes", "_total")

    def __init__(self, width: int, rows: tuple[int, ...], lanes: int = 1) -> None:
        _set(self, "width", width)
        _set(self, "rows", rows)
        _set(self, "lanes", lanes)
        self.__post_init__()

    def __post_init__(self) -> None:
        rows, fit = self.rows, row_layout(self.width, self.lanes)[0]
        _set(self, "_total", sum(rows))
        bits = 0
        for row in rows:
            bits |= row  # negative if any row is
        if bits & fit == bits:
            return
        for index, row in enumerate(rows):  # name the first row that does not fit
            if row < 0 or row & fit != row:
                shown = misfit(row, fit, lane_stride(self.width), self.lanes)
                raise ValueError(f"row {index} = {shown} does not fit in {self.width} bits")

    def total(self) -> int:
        return self._total

    def __len__(self) -> int:
        return len(self.rows)


class StageRecord(Record):
    """Bookkeeping for one consolidation stage."""

    __slots__ = ("kind", "rows_in", "rows_out", "left_out", "circuits_used")

    def __init__(
        self, kind: StageKind, rows_in: int, rows_out: int, left_out: int, circuits_used: int
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "rows_in", rows_in)
        _set(self, "rows_out", rows_out)
        _set(self, "left_out", left_out)
        _set(self, "circuits_used", circuits_used)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.kind is StageKind.CSA_3_2:
            if self.left_out != self.rows_in % 3:
                raise ValueError("a 3:2 stage leaves rows_in mod 3 rows out")
            if self.rows_out != self.rows_in - self.rows_in // 3:
                raise ValueError("a 3:2 stage keeps rows_in - rows_in//3 rows")
        else:
            consumed = self.rows_in - self.left_out
            if self.rows_out != consumed.bit_length() + self.left_out:
                raise ValueError(
                    "a quantizer stage keeps floor(log2(consumed)) + 1 + left_out rows"
                )

    @property
    def ticks(self) -> int:
        return CSA_STAGE_TICKS if self.kind is _CSA_3_2 else QUANTIZER_TICKS


class ScheduleReport(Record):
    """A consolidation's stages, first to last, each taking the rows the one
    before it left."""

    __slots__ = ("stages",)

    def __init__(self, stages: tuple[StageRecord, ...]) -> None:
        _set(self, "stages", stages)
        self.__post_init__()

    def __post_init__(self) -> None:
        stages = self.stages
        for index, (before, stage) in enumerate(zip(stages, stages[1:]), start=1):
            if stage.rows_in != before.rows_out:
                raise ValueError(f"stage {index} rows_in is not stage {index - 1}'s rows_out")
        if not stages or stages[-1].rows_out != 2:
            raise ValueError("consolidation must end at two rows")

    @property
    def row_trajectory(self) -> tuple[int, ...]:
        """The row count before the first stage and after every stage."""
        return (self.stages[0].rows_in, *[stage.rows_out for stage in self.stages])

    @property
    def total_ticks(self) -> int:
        return sum([stage.ticks for stage in self.stages])


@lru_cache
def row_layout(width: int, lanes: int) -> tuple[int, int]:
    """Rows of `lanes` lanes of `width` bits at `lane_stride(width)`: the
    mask of every lane's row bits, and the span from the lowest lane's bit 0
    to the top of the highest lane's row, the width that the 3:2 counters'
    own overflow check guards. Every lower lane's overflow lands in its
    padding byte, outside the rows."""
    stride = lane_stride(width)
    return lane_mask(width, stride, lanes), (lanes - 1) * stride + width


# Memoized constructors for every stage record: each distinct value is built
# and validated once; a failed check caches nothing.
@lru_cache
def csa_record(rows_in: int, rows_out: int) -> StageRecord:
    return StageRecord(StageKind.CSA_3_2, rows_in, rows_out, rows_in % 3, rows_in // 3)


@lru_cache
def quantizer_record(rows_in: int, rows_out: int, left_out: int, width: int) -> StageRecord:
    return StageRecord(StageKind.QUANTIZER, rows_in, rows_out, left_out, width)


class MultiplyResult(Record):
    __slots__ = ("product", "report")

    def __init__(self, product: BitVector, report: ScheduleReport) -> None:
        _set(self, "product", product)  # width 2N
        _set(self, "report", report)

    @property
    def ticks(self) -> int:
        return multiply_ticks(self.report)


@lru_cache(maxsize=4)
def bit_masks(n: int, lanes: int) -> tuple[int, ...]:
    """For each i < n, every lane's bits i and i + n at `lane_stride(2 * n)`;
    a few shapes cached, since every batch of a sweep asks for them: all
    run at one lane count, and a failing batch's re-run at one pair."""
    ones = lane_mask(1, lane_stride(2 * n), lanes)
    pair = ones | ones << n
    return tuple(pair << i for i in range(n))


def partial_product_lanes(a: int, b: int, n: int, lanes: int = 1) -> RowSet:
    """All N shifted rows of `lanes` pairs of n-bit operands, zero rows
    included: in every lane, row i = (a << i) * b_i. The operands are
    packed at `lane_stride(2 * n)` and checked by `check_operands`.

    Column p then holds exactly the convolution bits a_j * b_{p-j}. Keeping
    zero rows keeps the row count and the schedule shape data-independent.
    """
    stride = lane_stride(2 * n)
    check_operands(a, b, n, lane_mask(n, stride, lanes), stride, lanes)
    # b in n bits makes t = b & m each lane's b_i and (b << n) & m its t << n,
    # so their difference is ones at bits i to i + n - 1 where b_i is set
    bn = b << n
    rows = [((bn & m) - t) & (a << i) if (t := b & m) else 0
            for i, m in enumerate(bit_masks(n, lanes))]
    return RowSet(2 * n, tuple(rows), lanes)


def partial_products(a: BitVector, b: BitVector) -> RowSet:
    """All N shifted rows of one pair; see `partial_product_lanes`."""
    return partial_product_lanes(a.value, b.value, operand_width(a, b))


def csa_3_2(r1: int, r2: int, r3: int, width: int) -> tuple[int, int]:
    """One tick: three `width`-bit rows become a bitwise-sum row and a
    shifted-majority row."""
    half = r1 ^ r2
    majority = r1 & r2 | half & r3
    if majority >> (width - 1):
        raise ValueError("carry row would overflow the declared width")
    sum_row, carry_row = half ^ r3, majority << 1
    if sum_row + carry_row != r1 + r2 + r3:
        raise ModelIntegrityError("3:2 consolidation lost value")
    return sum_row, carry_row


def csa_stage(rows: RowSet) -> tuple[RowSet, StageRecord]:
    """Consolidate rows in triples, first to last; stragglers pass through."""
    r, span, csa = rows.rows, row_layout(rows.width, rows.lanes)[1], csa_3_2
    n = len(r)
    if n < 3:
        raise ValueError(f"a 3:2 stage needs at least three rows, got {n}")
    out = []
    for x, y, z in zip(r[0::3], r[1::3], r[2::3]):
        out += csa(x, y, z, span)
    out += r[n - n % 3 :]
    result = RowSet(rows.width, tuple(out), rows.lanes)
    if result.total() != rows.total():
        raise ModelIntegrityError("3:2 stage lost value")
    return result, csa_record(n, len(out))


def count_planes(rows: tuple[int, ...]) -> list[int]:
    """Per-column 1-bit counts of all columns at once, as bit planes: plane q
    holds bit q of every column's count. A chain of full adders (3:2
    counters) folds the words of each weight into one sum at that weight,
    passing one carry per adder to the next weight, where a last pair takes
    a half adder (Warren, Hacker's Delight, section 5-1). n words leave
    n // 2 carries, so the planes are exactly len(rows).bit_length()."""
    planes, words = [], rows
    while words:
        total, carries = words[0], []
        for x, y in zip(words[1::2], words[2::2]):
            partial = total ^ x
            carries.append(total & x | partial & y)
            total = partial ^ y
        if len(words) % 2 == 0:
            carries.append(total & words[-1])
            total ^= words[-1]
        planes.append(total)
        words = carries
    return planes


def quantize_columns(rows: RowSet, leave_out: int = 0) -> tuple[RowSet, StageRecord]:
    """Two ticks: count 1-bits per column, then spread the counts' digits.

    The first len(rows) - leave_out rows are consumed; the rest pass through
    unchanged. One quantizer per column, its capacity the consumed row count,
    digitizes its count, and bit q of the count in column p feeds column p+q
    of output row q, so the stage emits floor(log2(consumed)) + 1 rows.
    """
    n = len(rows)
    consumed = n - leave_out
    if leave_out < 0 or consumed < 3:
        raise ValueError(f"cannot consume {consumed} of {n} rows")
    out, fit = [], row_layout(rows.width, rows.lanes)[0]
    for q, plane in enumerate(count_planes(rows.rows[:consumed])):
        shifted = plane << q
        bits = plane | shifted
        if bits & fit != bits:
            raise ModelIntegrityError("a count digit escaped the row width")
        out.append(shifted)
    out += rows.rows[consumed:]
    result = RowSet(rows.width, tuple(out), rows.lanes)
    if result.total() != rows.total():
        raise ModelIntegrityError("quantizer stage lost value")
    return result, quantizer_record(n, len(out), leave_out, rows.width)


def consolidate(rows: RowSet, schedule: Schedule) -> tuple[RowSet, ScheduleReport]:
    """Run one schedule's stage rule from any starting row count down to two.

    Schedule A applies 3:2 stages throughout. Schedule B quantizes while more
    than three rows remain, consuming all rows, except that a power-of-two
    row count consumes one row fewer (leaving the last row out): that keeps
    the consumed count, and so each quantizer's capacity, below the next
    power of two at the same output count. Three remaining rows always
    finish through one 3:2 stage.
    """
    if len(rows) < 3:
        raise ValueError(f"consolidation needs at least three rows, got {len(rows)}")
    stages, only_3_2 = [], schedule is Schedule.A
    while (n := len(rows.rows)) > 2:
        if only_3_2 or n == 3:
            rows, record = csa_stage(rows)
        elif n & (n - 1) == 0:
            rows, record = quantize_columns(rows, leave_out=1)
        else:
            rows, record = quantize_columns(rows)
        stages.append(record)
    return rows, ScheduleReport(tuple(stages))


def check_multiplier_width(width: int) -> None:
    """Raise ValueError unless the multiplier takes `width`-bit operands."""
    if width not in MULTIPLIER_WIDTHS:
        raise ValueError(f"multiplier width must be one of {MULTIPLIER_WIDTHS}, got {width}")


def multiply_ticks(report: ScheduleReport) -> int:
    """A multiplication's ticks: its schedule's stages, then the final
    double-width add."""
    return report.total_ticks + flash.DOUBLE_WIDTH_TICKS


def multiply_lanes(
    a: int, b: int, n: int, schedule: Schedule, lanes: int = 1
) -> tuple[int, ScheduleReport]:
    """Full products of `lanes` pairs of n-bit operands packed at
    `lane_stride(2 * n)`: partial rows, consolidation, one double-width
    addition. Returns the 2N-bit products in the same lanes and the
    schedule's report. Every step runs at the operands' stride."""
    check_multiplier_width(n)
    rows, report = consolidate(partial_product_lanes(a, b, n, lanes), schedule)
    product, _ = flash.double_width_lanes(*rows.rows, n, lanes)
    fit = row_layout(2 * n, lanes)[0]
    if product & fit != product:
        raise ModelIntegrityError("product escaped its 2N-bit width")
    return product, report


def multiply(a: BitVector, b: BitVector, schedule: Schedule) -> MultiplyResult:
    """Full product of one pair; see `multiply_lanes`."""
    n = operand_width(a, b)
    product, report = multiply_lanes(a.value, b.value, n, schedule)
    return MultiplyResult(product=BitVector(2 * n, product), report=report)
