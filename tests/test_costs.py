import pytest

from arithsim import cascade, costs
from arithsim.bitvec import ModelIntegrityError
from arithsim.costs import (
    Design,
    blocked_gate_split,
    blocked_gates,
    cascade_gates,
    consolidation_lower_bound,
    cost_report,
    double_width_gates,
    end_to_end_ticks,
    flash_gates,
    multiplier_banks,
    reference_table,
)
from arithsim.multiplier import Schedule


def test_cascade_gates_values():
    assert [cascade_gates(k) for k in range(1, 9)] == [0, 3, 11, 31, 79, 191, 447, 1023]
    assert cascade_gates(7) == 447  # the 128-bit adder
    with pytest.raises(ValueError):
        cascade_gates(0)


def test_flash_gates_values():
    assert [flash_gates(n) for n in (4, 8, 16, 64, 128)] == [10, 36, 136, 2080, 8256]
    with pytest.raises(ValueError):
        flash_gates(0)


def test_double_width_gates():
    assert double_width_gates(64) == 2144
    assert double_width_gates(128) == 8384
    with pytest.raises(ValueError):
        double_width_gates(0)


def test_blocked_gates_and_split():
    assert blocked_gate_split(64) == (544, 456)
    assert blocked_gates(64) == 1000
    assert blocked_gates(16) == 124
    with pytest.raises(ValueError):
        blocked_gate_split(8)  # not a power of four
    with pytest.raises(ValueError):
        blocked_gate_split(0)


def test_consolidation_lower_bound():
    assert consolidation_lower_bound(64, 2) == 9
    assert consolidation_lower_bound(3, 2) == 1
    assert consolidation_lower_bound(4, 2) == 2
    assert consolidation_lower_bound(7, 3) == 3
    assert consolidation_lower_bound(2, 2) == 0
    with pytest.raises(ValueError):
        consolidation_lower_bound(2, 3)
    with pytest.raises(ValueError):
        consolidation_lower_bound(4, 0)


def test_lower_bound_is_tight_against_best_case():
    # a stage that always consolidates every triple: n -> n - n//3
    for start in (64, 43, 100):
        n, stages = start, 0
        while n > 2:
            n -= n // 3
            stages += 1
        assert consolidation_lower_bound(start, 2) <= stages


def test_end_to_end_ticks():
    # the published accounting; the 13 ticks schedule A runs here are
    # `multiply_ticks`, pinned in test_multiplier.py
    assert end_to_end_ticks(Schedule.A) == 24
    assert end_to_end_ticks(Schedule.B) == 8


def test_multiplier_banks():
    assert multiplier_banks(Schedule.A) == (1281, 0)
    assert multiplier_banks(Schedule.B) == (128, 128)
    # the staggered-row decomposition behind 1281
    assert sum(6 * i + 1 for i in range(21)) == 21 * 61 == 1281
    assert (costs.ENTRIES_PER_CSA, costs.ENTRIES_PER_QUANTIZER) == (8, 64)


@pytest.mark.parametrize("design", [Design.MULT_SCHEDULE_A, Design.MULT_SCHEDULE_B])
def test_multiplier_cost_is_width_64_only(design):
    with pytest.raises(ValueError, match="hardware estimate is defined for width 64 only, got 32"):
        cost_report(design, 32)


def test_blocked_cost_names_the_width_it_was_given():
    # width 2 passes the width rule; the closed form needs a half of at
    # least 4, and the message names the operand width, not the half
    with pytest.raises(ValueError, match="^cost needs a half of at least 4, got width 2$"):
        cost_report(Design.BLOCKED_DOUBLE, 2)
    assert cost_report(Design.BLOCKED_DOUBLE, 8) == (blocked_gates(4), 0, 3)


# Each model-break check of `costs` fires when one of its inputs is patched.
# The staggered-row identity in `multiplier_banks` compares two constant
# expressions, so no injected fault reaches it.


def test_cascade_gate_check_fires(monkeypatch):
    monkeypatch.setattr(cascade, "special_and_gates", lambda k: 0)
    with pytest.raises(ModelIntegrityError, match="cascade gate forms disagree"):
        cascade_gates(7)


def test_blocked_gate_check_fires(monkeypatch):
    monkeypatch.setattr(costs, "blocked_gate_split", lambda n: (0, 0))
    with pytest.raises(ModelIntegrityError, match="blocked gate split disagrees with the total"):
        blocked_gates(64)


def test_tick_ratio_check_fires(monkeypatch):
    # schedule A's ticks are computed on every call, so no cached 24 hides the patch
    monkeypatch.setattr(costs, "CONVENTIONAL_ADDER_TICKS", 16)
    with pytest.raises(ModelIntegrityError, match="tick ratio 25/8 is not integral"):
        reference_table()


def test_cost_report_dispatch():
    assert cost_report(Design.CASCADE, 128) == (447, 0, 7)
    assert cost_report(Design.FLASH, 64) == (2080, 0, 2)
    assert cost_report(Design.FLASH_DOUBLE, 128) == (2144, 0, 3)
    assert cost_report(Design.BLOCKED_DOUBLE, 128) == (1000, 0, 3)
    assert cost_report(Design.MULT_SCHEDULE_A, 64) == (0, 10248, 24)
    assert cost_report(Design.MULT_SCHEDULE_B, 64) == (0, 9216, 8)


def test_cost_report_rejects_bad_widths():
    with pytest.raises(ValueError):
        cost_report(Design.CASCADE, 96)
    with pytest.raises(ValueError):
        cost_report(Design.FLASH_DOUBLE, 129)
    with pytest.raises(ValueError):
        cost_report(Design.BLOCKED_DOUBLE, 96)  # half 48 not a power of four


def test_reference_table():
    assert dict(reference_table()) == {
        "cascade_gates_width_128": 447,
        "double_width_gates_width_128": 2144,
        "blocked_gates_width_128": 1000,
        "schedule_a_csa_circuits": 1281,
        "schedule_b_quantizer_entries": 8192,
        "schedule_a_exclusive_entries": 9224,
        "consolidation_stage_lower_bound": 9,
        "schedule_a_ticks": 24,
        "schedule_b_ticks": 8,
        "schedule_speedup": 3,
    }
