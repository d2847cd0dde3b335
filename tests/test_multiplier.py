import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithsim.bitvec import BitVector, ModelIntegrityError, oracle_mul
from arithsim.multiplier import (
    PUBLISHED_ROW_COUNT,
    RowSet,
    Schedule,
    ScheduleReport,
    StageKind,
    StageRecord,
    consolidate,
    csa_3_2,
    csa_stage,
    multiply,
    partial_products,
    quantize_columns,
)
from reference import column_counts


def rows_of(width, *values):
    return RowSet(width, values)


def test_partial_products_5_times_3():
    rows = partial_products(BitVector(4, 5), BitVector(4, 3))
    assert rows.rows == (5, 10, 0, 0)
    assert rows.total() == 15
    assert rows.width == 8


def test_partial_products_keeps_zero_rows():
    rows = partial_products(BitVector(8, 123), BitVector(8, 0))
    assert len(rows) == 8
    assert rows.total() == 0
    identity = partial_products(BitVector(8, 123), BitVector(8, 1))
    assert identity.total() == 123


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_partial_products_sum_is_the_product(a, b):
    rows = partial_products(BitVector(8, a), BitVector(8, b))
    assert rows.total() == a * b
    assert len(rows) == 8


def test_csa_3_2_examples():
    assert csa_3_2(5, 3, 6, 4) == (0, 14)
    assert csa_3_2(9, 0, 0, 4) == (9, 0)
    assert csa_3_2(1, 1, 1, 4) == (1, 2)


def test_csa_3_2_overflow_is_an_error():
    with pytest.raises(ValueError):
        csa_3_2(8, 8, 0, 4)


@given(st.data())
def test_csa_3_2_preserves_the_sum(data):
    # stay under the overflow guard by one spare top bit
    bound = (1 << 11) - 1
    r1 = data.draw(st.integers(min_value=0, max_value=bound))
    r2 = data.draw(st.integers(min_value=0, max_value=bound))
    r3 = data.draw(st.integers(min_value=0, max_value=bound))
    s, c = csa_3_2(r1, r2, r3, 12)
    assert s + c == r1 + r2 + r3
    assert s == r1 ^ r2 ^ r3
    assert c >> 1 == (r1 & r2) | (r1 & r3) | (r2 & r3)


def test_csa_stage_row_counts():
    stage_in = rows_of(16, *range(7))
    out, record = csa_stage(stage_in)
    assert record.rows_in == 7
    assert record.rows_out == 5
    assert record.left_out == 1
    assert record.circuits_used == 2
    assert record.ticks == 1
    assert out.total() == stage_in.total()
    # stragglers pass through at the tail
    assert out.rows[-1] == 6

    with pytest.raises(ValueError):
        csa_stage(rows_of(16, 1, 2))


def test_column_counts_oracle():
    rows = rows_of(3, 0b011, 0b011, 0b100)
    assert column_counts(rows) == (2, 2, 1)


def test_quantize_columns_example():
    out, record = quantize_columns(rows_of(3, 3, 3, 1))
    assert out.rows == (1, 6)
    assert record.kind is StageKind.QUANTIZER
    assert record.rows_out == 2
    assert record.ticks == 2
    assert record.circuits_used == 3  # one quantizer per column


def test_quantize_columns_zero_rows():
    out, _ = quantize_columns(rows_of(4, 0, 0, 0))
    assert all(r == 0 for r in out.rows)


def test_quantize_columns_63_to_6():
    rows = rows_of(128, *([1] * 63))
    out, record = quantize_columns(rows)
    assert len(out) == 6
    assert record.rows_out == 6
    assert out.total() == 63


def test_quantize_columns_leave_out_passes_rows_through():
    rows = rows_of(16, 1, 2, 4, 8, 16, 32, 64, 0x8000)
    out, record = quantize_columns(rows, leave_out=1)
    assert record.left_out == 1
    assert record.rows_out == 4
    assert out.rows[-1] == 0x8000  # untouched
    assert out.total() == rows.total()


def test_quantize_columns_capacity_rules():
    rows = rows_of(8, 1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        quantize_columns(rows, leave_out=3)  # only 2 consumed


def test_quantize_columns_planes_hold_every_consumed_count():
    # all-ones rows give every column the consumed count, the most it can
    # reach: its digits fill the planes exactly, with no carry left over
    ones = (1 << 8) - 1
    for consumed in range(3, 65):
        out, _ = quantize_columns(rows_of(16, *([ones] * consumed)))
        assert out.rows == tuple(
            (ones << q) * (consumed >> q & 1) for q in range(consumed.bit_length())
        )


def test_quantize_columns_digit_escape_is_model_breakage():
    # three ones in the top column: count 3 needs a digit past the top
    with pytest.raises(ModelIntegrityError):
        quantize_columns(rows_of(2, 2, 2, 2))


@given(st.integers(min_value=3, max_value=9), st.data())
def test_quantize_columns_matches_column_count_oracle(n, data):
    width = 12
    values = [
        data.draw(st.integers(min_value=0, max_value=(1 << (width - 4)) - 1))
        for _ in range(n)
    ]
    rows = rows_of(width, *values)
    out, _ = quantize_columns(rows)
    counts = column_counts(rows)
    expected = []
    for q in range(n.bit_length()):
        row = sum(((counts[p] >> q) & 1) << (p + q) for p in range(width))
        expected.append(row)
    assert list(out.rows) == expected
    assert out.total() == rows.total()


def test_single_column_quantization_is_popcount():
    # m ones in one column quantize to the binary digits of m
    for m in (3, 5, 7):
        rows = rows_of(8, *([0b100] * m))
        out, _ = quantize_columns(rows)
        assert out.total() == m << 2
        for q, row in enumerate(out.rows):
            assert row == ((m >> q) & 1) << (2 + q)


def test_stage_record_laws_are_enforced():
    with pytest.raises(ValueError):
        StageRecord(
            kind=StageKind.CSA_3_2, rows_in=7, rows_out=4, left_out=1, ticks=1,
            circuits_used=2,
        )
    with pytest.raises(ValueError):
        StageRecord(
            kind=StageKind.CSA_3_2, rows_in=7, rows_out=5, left_out=0, ticks=1,
            circuits_used=2,
        )
    with pytest.raises(ValueError, match="a 3:2 stage takes one tick"):
        StageRecord(
            kind=StageKind.CSA_3_2, rows_in=7, rows_out=5, left_out=1, ticks=2,
            circuits_used=2,
        )
    with pytest.raises(ValueError):
        StageRecord(
            kind=StageKind.QUANTIZER, rows_in=8, rows_out=5, left_out=1, ticks=2,
            circuits_used=16,
        )
    with pytest.raises(ValueError):
        StageRecord(
            kind=StageKind.QUANTIZER, rows_in=8, rows_out=4, left_out=1, ticks=1,
            circuits_used=16,
        )


def test_schedule_report_must_be_consistent():
    _, record = csa_stage(rows_of(8, 1, 2, 3))
    with pytest.raises(ValueError):
        ScheduleReport(stages=(record,), row_trajectory=(3, 2, 2), total_ticks=1)
    with pytest.raises(ValueError):
        ScheduleReport(stages=(record,), row_trajectory=(4, 2), total_ticks=1)
    with pytest.raises(ValueError):
        ScheduleReport(stages=(record,), row_trajectory=(3, 2), total_ticks=2)
    with pytest.raises(ValueError, match="stage 0 rows_out disagrees with trajectory"):
        ScheduleReport(stages=(record,), row_trajectory=(3, 5), total_ticks=1)
    six = StageRecord(
        kind=StageKind.CSA_3_2, rows_in=9, rows_out=6, left_out=0, ticks=1, circuits_used=3,
    )
    with pytest.raises(ValueError, match="consolidation must end at two rows"):
        ScheduleReport(stages=(six,), row_trajectory=(9, 6), total_ticks=1)


def test_schedule_a_from_64_zero_rows():
    rows = rows_of(128, *([0] * PUBLISHED_ROW_COUNT))
    out, report = consolidate(rows, Schedule.A)
    assert report.row_trajectory == (64, 43, 29, 20, 14, 10, 7, 5, 4, 3, 2)
    assert report.total_ticks == 10
    assert len(out) == 2


def test_schedule_a_meets_the_dadda_heights():
    # Dadda's heights d_0 = 2, d_(k+1) = floor(1.5 * d_k): k 3:2 stages can
    # bring at most d_k rows down to two
    heights = [2]
    while heights[-1] < 64:
        heights.append(heights[-1] * 3 // 2)
    assert heights[:10] == [2, 3, 4, 6, 9, 13, 19, 28, 42, 63]
    for r in range(3, 65):
        _, report = consolidate(rows_of(128, *([0] * r)), Schedule.A)
        assert len(report.stages) == next(k for k, d in enumerate(heights) if d >= r)


def test_schedule_b_from_64_zero_rows():
    rows = rows_of(128, *([0] * PUBLISHED_ROW_COUNT))
    out, report = consolidate(rows, Schedule.B)
    assert report.row_trajectory == (64, 7, 3, 2)
    assert report.total_ticks == 5
    assert [s.kind for s in report.stages] == [
        StageKind.QUANTIZER,
        StageKind.QUANTIZER,
        StageKind.CSA_3_2,
    ]
    assert len(out) == 2


def test_consolidate_stagewise_conservation(rng, stage_totals):
    a = BitVector(16, rng.getrandbits(16))
    b = BitVector(16, rng.getrandbits(16))
    rows = partial_products(a, b)
    total = rows.total()
    for schedule in Schedule:
        stage_totals.clear()
        final, report = consolidate(rows, schedule)
        assert stage_totals == [total] * len(report.stages)
        assert final.total() == total
        assert report.row_trajectory[-1] == 2


def test_a_flipped_csa_carry_is_a_model_break(flipped_csa_carry):
    rows = partial_products(BitVector(8, 0xB7), BitVector(8, 0x5D))
    for schedule in Schedule:
        with pytest.raises(ModelIntegrityError, match="^3:2 stage lost value$"):
            consolidate(rows, schedule)


def test_a_flipped_plane_bit_is_a_model_break(flipped_plane_bit):
    rows = partial_products(BitVector(8, 0xB7), BitVector(8, 0x5D))
    with pytest.raises(ModelIntegrityError, match="^quantizer stage lost value$"):
        consolidate(rows, Schedule.B)


def test_a_warm_record_cache_still_checks_the_row_count(request):
    a, b = BitVector(8, 0xB7), BitVector(8, 0x5D)
    assert multiply(a, b, Schedule.A).product.value == 0xB7 * 0x5D  # warms the caches
    request.getfixturevalue("extra_zero_row")
    with pytest.raises(ValueError, match=r"^a 3:2 stage keeps rows_in - rows_in//3 rows$"):
        consolidate(partial_products(a, b), Schedule.A)


def fresh_report(r, schedule, width):
    """The report of `schedule` from r rows, from freshly built records."""
    stages, trajectory = [], [r]
    while r > 2:
        if schedule is Schedule.A or r == 3:
            stage = StageRecord(StageKind.CSA_3_2, r, r - r // 3, r % 3, 1, r // 3)
        else:
            left = int(r & (r - 1) == 0)
            stage = StageRecord(
                StageKind.QUANTIZER, r, (r - left).bit_length() + left, left, 2, width
            )
        stages.append(stage)
        r = stage.rows_out
        trajectory.append(r)
    return ScheduleReport(tuple(stages), tuple(trajectory), sum(s.ticks for s in stages))


def test_memoized_reports_equal_freshly_built_ones():
    for r in range(3, 67):
        rows = rows_of(128, *([0] * r))
        for schedule in Schedule:
            _, report = consolidate(rows, schedule)
            assert report == fresh_report(r, schedule, 128)
            assert consolidate(rows, schedule)[1] == report
    for schedule in Schedule:
        report = multiply(BitVector(64, 0xB7), BitVector(64, 0x5D), schedule).report
        assert report == fresh_report(PUBLISHED_ROW_COUNT, schedule, 128)


def test_consolidate_needs_three_rows():
    with pytest.raises(ValueError):
        consolidate(rows_of(8, 1, 2), Schedule.A)


def test_multiply_zero_and_identity():
    for schedule in Schedule:
        assert multiply(BitVector(8, 77), BitVector(8, 0), schedule).product.value == 0
        assert multiply(BitVector(8, 77), BitVector(8, 1), schedule).product.value == 77


def test_multiply_rejects_odd_widths():
    with pytest.raises(ValueError):
        multiply(BitVector(3, 1), BitVector(3, 1), Schedule.A)
    with pytest.raises(ValueError):
        multiply(BitVector(128, 1), BitVector(128, 1), Schedule.A)
    with pytest.raises(ValueError):
        multiply(BitVector(8, 1), BitVector(16, 1), Schedule.A)


def test_multiply_exhaustive_n4():
    for schedule in Schedule:
        for a in range(16):
            for b in range(16):
                result = multiply(BitVector(4, a), BitVector(4, b), schedule)
                assert result.product.value == oracle_mul(a, b)
                assert result.product.width == 8


def test_multiply_clamped_sweep_n8():
    for schedule in Schedule:
        for a in range(64):
            for b in range(64):
                result = multiply(BitVector(8, a), BitVector(8, b), schedule)
                assert result.product.value == a * b


def test_multiply_random_all_widths(rng):
    for width in (8, 16, 32, 64):
        for schedule in Schedule:
            for _ in range(500):
                a = rng.getrandbits(width)
                b = rng.getrandbits(width)
                result = multiply(BitVector(width, a), BitVector(width, b), schedule)
                assert result.product.value == a * b


def test_multiply_tick_totals():
    # stage rules fix the tick count per width; freeze the small ones
    assert multiply(BitVector(4, 9), BitVector(4, 9), Schedule.A).ticks == 5
    assert multiply(BitVector(4, 9), BitVector(4, 9), Schedule.B).ticks == 6
    assert multiply(BitVector(64, 9), BitVector(64, 9), Schedule.B).ticks == 8
    assert multiply(BitVector(64, 9), BitVector(64, 9), Schedule.A).ticks == 13


def test_multiply_trajectories_are_width_dependent():
    report_a = multiply(BitVector(64, 1), BitVector(64, 1), Schedule.A).report
    assert report_a.row_trajectory == (64, 43, 29, 20, 14, 10, 7, 5, 4, 3, 2)
    report_b = multiply(BitVector(64, 1), BitVector(64, 1), Schedule.B).report
    assert report_b.row_trajectory == (64, 7, 3, 2)
    report_b8 = multiply(BitVector(8, 1), BitVector(8, 1), Schedule.B).report
    assert report_b8.row_trajectory == (8, 4, 3, 2)


def test_rowset_width_policing():
    with pytest.raises(ValueError):
        RowSet(8, (1, 256))
    with pytest.raises(ValueError):
        RowSet(8, (1, -1))
