import random

import pytest
from hypothesis import HealthCheck, settings

from arithsim import cascade, flash

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
    """Fault injection: the shared firing search ends its first segment one
    wire early."""
    original = flash.find_firings

    def shortened(s, carries):
        firings = original(s, carries)
        if not firings:
            return firings
        (i, j), *rest = firings
        return ((i, j - 1), *rest)

    monkeypatch.setattr(flash, "find_firings", shortened)


@pytest.fixture
def duplicated_segment(monkeypatch):
    """Fault injection: the shared firing search reports its first segment
    twice."""
    original = flash.find_firings

    def duplicated(s, carries):
        firings = original(s, carries)
        return firings[:1] + firings

    monkeypatch.setattr(flash, "find_firings", duplicated)


@pytest.fixture
def flipped_leaf_sum(monkeypatch):
    """Fault injection: the blockwise-add kernel hands the cascade sums with
    their lowest bit flipped."""
    original = cascade.blockwise_add

    def flipped(x, y, width, w):
        sums, carries = original(x, y, width, w)
        return sums ^ 1, carries

    monkeypatch.setattr(cascade, "blockwise_add", flipped)
