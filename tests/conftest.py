import random

import pytest
from hypothesis import HealthCheck, settings

from arithsim import cascade, flash, multiplier

# the exhaustive sweeps dwarf hypothesis runtime; don't let its deadline
# heuristics flake on a loaded CI box
settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return random.Random(0xA11CE)


@pytest.fixture
def shortened_segment(monkeypatch):
    """Fault injection: the shared firing search moves its lowest end one
    wire down, so the first segment stops one wire early."""
    original = flash.find_firings

    def shortened(s, weight):
        ends = original(s, weight)
        lowest = ends & -ends
        return ends ^ lowest ^ (lowest >> 1)

    monkeypatch.setattr(flash, "find_firings", shortened)


@pytest.fixture
def extra_end(monkeypatch):
    """Fault injection: the shared firing search reports one end more, on the
    lowest free wire above its lowest end."""
    original = flash.find_firings

    def extra(s, weight):
        ends = original(s, weight)
        return ends | ((ends + (ends & -ends)) & ~ends)

    monkeypatch.setattr(flash, "find_firings", extra)


@pytest.fixture
def flipped_leaf_sum(monkeypatch):
    """Fault injection: the blockwise-add kernel hands the cascade sums with
    their lowest bit flipped."""
    original = cascade.blockwise_add

    def flipped(x, y, top):
        sums, carries = original(x, y, top)
        return sums ^ 1, carries

    monkeypatch.setattr(cascade, "blockwise_add", flipped)


@pytest.fixture
def flipped_step_sum(monkeypatch):
    """Fault injection: the cascade tick that leaves level 2 hands back its
    sums with the lowest bit flipped."""
    original = cascade.cascade_step

    def flipped(sums, carry_word, width, level, masks):
        sums, carry_word = original(sums, carry_word, width, level, masks)
        return (sums ^ 1 if level == 2 else sums), carry_word

    monkeypatch.setattr(cascade, "cascade_step", flipped)


@pytest.fixture
def flipped_csa_carry(monkeypatch):
    """Fault injection: the 3:2 counter hands its stage a carry row with
    bit 1 flipped."""
    original = multiplier.csa_3_2

    def flipped(r1, r2, r3, width):
        sum_row, carry_row = original(r1, r2, r3, width)
        return sum_row, carry_row ^ 2

    monkeypatch.setattr(multiplier, "csa_3_2", flipped)


@pytest.fixture
def extra_zero_row(monkeypatch):
    """Fault injection: the 3:2 counter hands its stage a zero row besides
    its two, so the stage's total balances but its row count is wrong."""
    original = multiplier.csa_3_2

    def extra(r1, r2, r3, width):
        return (*original(r1, r2, r3, width), 0)

    monkeypatch.setattr(multiplier, "csa_3_2", extra)


@pytest.fixture
def flipped_plane_bit(monkeypatch):
    """Fault injection: the quantizer's plane ripple hands its stage plane 0
    with bit 0 flipped."""
    original = multiplier.count_planes

    def flipped(rows):
        planes = original(rows)
        planes[0] ^= 1
        return planes

    monkeypatch.setattr(multiplier, "count_planes", flipped)


@pytest.fixture
def stage_totals(monkeypatch):
    """Spy: the list of the rows' running totals after each stage that
    `consolidate` runs, in order."""
    totals = []

    def spy(stage):
        def spied(*args, **kwargs):
            rows, record = stage(*args, **kwargs)
            totals.append(rows.total())
            return rows, record

        return spied

    for name in ("csa_stage", "quantize_columns"):
        monkeypatch.setattr(multiplier, name, spy(getattr(multiplier, name)))
    return totals
