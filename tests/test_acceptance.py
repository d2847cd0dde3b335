"""Release gate: the nine headline claims, one test each, exact tolerances.

Every test prints one verdict line so a log scrape can list the criteria
without parsing pytest output. Values here are frozen on purpose; a change
in any of them is a regression, not a tuning opportunity.
"""

import random
import time

import pytest

from arithsim.bitvec import BitVector, block_carries, oracle_add, oracle_mul
from arithsim.cascade import CascadeState, cascade_add
from arithsim.costs import (
    blocked_gate_split,
    blocked_gates,
    cascade_gates,
    consolidation_lower_bound,
    double_width_gates,
    end_to_end_ticks,
    flash_gates,
    reference_table,
)
from arithsim.flash import (
    blocked_add,
    double_width_add,
    fire_set,
    flash_add,
    half_add,
    resolve,
)
from arithsim.multiplier import (
    RowSet,
    Schedule,
    consolidate,
    multiply,
    partial_products,
)
from reference import apply_firings_sequentially, increment_by_pow2, segment_mask

EXHAUSTIVE_BUDGET_SECONDS = 5.0


@pytest.fixture
def verdict(capsys):
    """Verdict printer that bypasses capture so the lines land in the run log."""

    def emit(number: int, ok: bool, label: str) -> None:
        with capsys.disabled():
            print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}", flush=True)

    return emit


def test_criterion_1_flash_adder_correctness(verdict):
    failures = 0
    started = time.perf_counter()
    for a in range(256):
        for b in range(256):
            if flash_add(BitVector(8, a), BitVector(8, b)).sum.value != a + b:
                failures += 1
    elapsed = time.perf_counter() - started

    rng = random.Random(101)
    for _ in range(100_000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        if flash_add(BitVector(64, a), BitVector(64, b)).sum.value != oracle_add(a, b):
            failures += 1

    ok = failures == 0 and elapsed < EXHAUSTIVE_BUDGET_SECONDS
    verdict(
        1,
        ok,
        f"flash adder: 65536 exhaustive N=8 in {elapsed:.2f}s "
        f"+ 100000 random N=64, {failures} failures",
    )
    assert failures == 0
    assert elapsed < EXHAUSTIVE_BUDGET_SECONDS


def test_criterion_2_cascade_adder_block_balance(verdict):
    violations = 0

    def run(width, a, b):
        nonlocal violations
        result = cascade_add(BitVector(width, a), BitVector(width, b))
        if result.sum.value + (result.carry << width) != a + b:
            violations += 1
        trace = result.trace
        for level, (sums, carry_word) in enumerate(trace.levels, start=1):
            # each level's checked view, as the kernel's own check sees it
            state = CascadeState(
                trace.ticks, level, BitVector(width, sums), carry_word, trace.a, trace.b
            )
            w = 1 << state.level
            mask = (1 << w) - 1
            for i, carry in enumerate(block_carries(state.carry_word, width, w)):
                a_blk = (a >> (i * w)) & mask
                b_blk = (b >> (i * w)) & mask
                s_blk = (state.sums.value >> (i * w)) & mask
                if (carry << w) + s_blk != a_blk + b_blk:
                    violations += 1
                if carry and s_blk > mask - 1:
                    violations += 1

    for a in range(16):
        for b in range(16):
            run(4, a, b)
    for a in range(256):
        for b in range(256):
            run(8, a, b)

    verdict(
        2,
        violations == 0,
        f"cascade adder: exhaustive N=4 and N=8 with per-level block balance "
        f"and saturation bound, {violations} violations",
    )
    assert violations == 0


def test_criterion_3_carry_gate_structure(verdict):
    violations = int(flash_gates(8) != 36)
    for a in range(256):
        for b in range(256):
            state = half_add(BitVector(8, a), BitVector(8, b))
            firings = fire_set(state).firings
            fired_carries = [i for i, _ in firings]
            expected = [i for i in range(8) if (state.c >> i) & 1]
            if fired_carries != expected:  # uniqueness: one firing per carry
                violations += 1
            union = 0
            for i, j in firings:
                seg = segment_mask(i, j)
                if union & seg:  # disjointness
                    violations += 1
                union |= seg
                for mid in range(i + 1, j):  # dead zone
                    if (state.c >> mid) & 1:
                        violations += 1
    verdict(
        3,
        violations == 0,
        f"carry-gate structure: uniqueness, disjointness, dead zone and the "
        f"36-gate budget over all N=8 inputs, {violations} violations",
    )
    assert violations == 0


def test_criterion_4_gate_count_reproduction(verdict):
    checks = {
        "cascade_gates(7)": (cascade_gates(7), 447),
        "double_width_gates(64)": (double_width_gates(64), 2144),
        "blocked_gates(64)": (blocked_gates(64), 1000),
        "blocked_split(64)": (blocked_gate_split(64), (544, 456)),
    }
    mismatches = [name for name, (got, want) in checks.items() if got != want]

    for n in (4, 8, 16, 64):
        if flash_gates(n) != n * (n + 1) // 2:
            mismatches.append(f"flash_gates({n})")

    verdict(
        4,
        not mismatches,
        "gate counts: 447 / 2144 / 1000 (544+456) and the n(n+1)/2 tally "
        f"at n in {{4,8,16,64}}, mismatches: {mismatches or 'none'}",
    )
    assert not mismatches


def test_criterion_5_tick_counts(verdict):
    rng = random.Random(505)
    a64, b64 = rng.getrandbits(64), rng.getrandbits(64)
    a128, b128 = rng.getrandbits(128), rng.getrandbits(128)
    observed = {
        "flash_add": flash_add(BitVector(64, a64), BitVector(64, b64)).ticks,
        "double_width_add": double_width_add(
            BitVector(64, a128 & (2**64 - 1)),
            BitVector(64, a128 >> 64),
            BitVector(64, b128 & (2**64 - 1)),
            BitVector(64, b128 >> 64),
        ).ticks,
        "blocked_add": blocked_add(BitVector(128, a128), BitVector(128, b128)).ticks,
        "increment_by_pow2": increment_by_pow2(BitVector(64, a64), 17).ticks,
        "cascade_add_128": cascade_add(
            BitVector(128, a128), BitVector(128, b128)
        ).trace.ticks,
        "multiply_64_b": multiply(BitVector(64, a64), BitVector(64, b64), Schedule.B).ticks,
    }
    expected = {
        "flash_add": 2,
        "double_width_add": 3,
        "blocked_add": 3,
        "increment_by_pow2": 1,
        "cascade_add_128": 7,
        "multiply_64_b": 8,
    }
    ok = observed == expected
    verdict(5, ok, f"tick counts: {observed}")
    assert observed == expected


def test_criterion_6_schedule_trajectories(verdict):
    zeros = RowSet(128, (0,) * 64)
    _, report_a = consolidate(zeros, Schedule.A)
    _, report_b = consolidate(zeros, Schedule.B)
    bound = consolidation_lower_bound(64, 2)

    ok = (
        report_a.row_trajectory == (64, 43, 29, 20, 14, 10, 7, 5, 4, 3, 2)
        and report_a.total_ticks == 10
        and bound == 9
        and report_b.row_trajectory == (64, 7, 3, 2)
        and report_b.total_ticks == 5
    )
    verdict(
        6,
        ok,
        f"schedules: A {list(report_a.row_trajectory)} in {report_a.total_ticks} "
        f"ticks (bound {bound}), B {list(report_b.row_trajectory)} in "
        f"{report_b.total_ticks} ticks",
    )
    assert ok


def test_criterion_7_multiplier_correctness(verdict, stage_totals):
    failures = 0
    for schedule in Schedule:
        for a in range(16):
            for b in range(16):
                product = multiply(BitVector(4, a), BitVector(4, b), schedule).product
                if product.value != oracle_mul(a, b):
                    failures += 1

    rng = random.Random(707)
    for width in (8, 16, 32, 64):
        for schedule in Schedule:
            for _ in range(10_000):
                a = rng.getrandbits(width)
                b = rng.getrandbits(width)
                result = multiply(BitVector(width, a), BitVector(width, b), schedule)
                if result.product.value != oracle_mul(a, b):
                    failures += 1

    # the stage walk itself re-checks conservation and raises on loss; show
    # the same property externally, after every stage `consolidate` runs, on
    # one case per width and schedule
    for width in (8, 16, 32, 64):
        a = BitVector(width, rng.getrandbits(width))
        b = BitVector(width, rng.getrandbits(width))
        rows = partial_products(a, b)
        total = rows.total()
        for schedule in Schedule:
            stage_totals.clear()
            _, report = consolidate(rows, schedule)
            if len(stage_totals) != len(report.stages):
                failures += 1
            failures += sum(t != total for t in stage_totals)

    verdict(
        7,
        failures == 0,
        "multiplier: exhaustive N=4 (256 pairs) + 10000 random pairs per width "
        f"in {{8,16,32,64}}, both schedules, stagewise conservation, "
        f"{failures} failures",
    )
    assert failures == 0


def test_criterion_8_hardware_estimates(verdict):
    table = dict(reference_table())
    observed = {
        "csa_circuits_a": table["schedule_a_csa_circuits"],
        "quantizer_entries_b": table["schedule_b_quantizer_entries"],
        "comparison_entries": table["schedule_a_exclusive_entries"],
        "ticks_a": end_to_end_ticks(Schedule.A),
        "ticks_b": end_to_end_ticks(Schedule.B),
        "speedup": table["schedule_speedup"],
    }
    expected = {
        "csa_circuits_a": 1281,
        "quantizer_entries_b": 8192,
        "comparison_entries": 9224,
        "ticks_a": 24,
        "ticks_b": 8,
        "speedup": 3,
    }
    ok = observed == expected
    verdict(8, ok, f"hardware estimates: {observed}")
    assert observed == expected


def test_criterion_9_order_independence(verdict):
    rng = random.Random(909)
    mismatches = 0
    for _ in range(1_000):
        a = BitVector(64, rng.getrandbits(64))
        b = BitVector(64, rng.getrandbits(64))
        state = half_add(a, b)
        firings = fire_set(state).firings
        reference = resolve(state).sum.value
        order = list(range(len(firings)))
        for _ in range(10):
            rng.shuffle(order)
            permuted = apply_firings_sequentially(state.s, firings, order)
            if permuted != reference:
                mismatches += 1
    verdict(
        9,
        mismatches == 0,
        "order independence: 1000 random N=64 additions x 10 permutations, "
        f"{mismatches} mismatches",
    )
    assert mismatches == 0
