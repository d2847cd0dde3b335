import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithsim.bitvec import (
    BitVector,
    increment_mask,
    oracle_add,
    oracle_mul,
)


def test_basic_construction():
    v = BitVector(4, 0b1011)
    assert v.width == 4
    assert v.value == 11
    assert int(v) == 11


def test_width_must_hold_value():
    with pytest.raises(ValueError):
        BitVector(4, 16)
    with pytest.raises(ValueError):
        BitVector(4, -1)
    with pytest.raises(ValueError):
        BitVector(0, 0)
    BitVector(4, 15)  # boundary fits


def test_bits_are_lsb_first():
    v = BitVector(4, 0b1011)
    assert v.bit(0) == 1
    assert v.bit(2) == 0
    with pytest.raises(ValueError):
        v.bit(4)
    with pytest.raises(ValueError):
        v.bit(-1)


def test_display_is_msb_first():
    v = BitVector(4, 0b1011)
    assert v.to_binary() == "1011"
    assert str(v) == "1011"
    assert BitVector(8, 3).to_binary() == "00000011"


def test_hex_round_trip():
    assert BitVector(8, 255).to_hex() == "ff"
    assert BitVector(8, 1).to_hex() == "01"
    assert BitVector(9, 256).to_hex() == "100"
    # nibble padding follows the width, not the value
    assert BitVector(64, 1).to_hex() == "0" * 15 + "1"
    assert BitVector.from_hex("ff", 8) == BitVector(8, 255)
    assert BitVector.from_hex("FF", 8) == BitVector(8, 255)


def test_from_hex_rejects_garbage():
    with pytest.raises(ValueError):
        BitVector.from_hex("zz", 8)
    with pytest.raises(ValueError):
        BitVector.from_hex("", 8)
    with pytest.raises(ValueError):
        BitVector.from_hex("-1", 8)
    with pytest.raises(ValueError):
        BitVector.from_hex("100", 8)  # does not fit
    for text in ("0x1f", "1_f", " 1", "+1", "-0"):  # int(text, 16) takes these
        with pytest.raises(ValueError):
            BitVector.from_hex(text, 8)


@given(st.integers(min_value=1, max_value=256), st.data())
def test_round_trips(width, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    v = BitVector(width, value)
    assert BitVector.from_hex(v.to_hex(), width) == v
    assert int(v.to_binary(), 2) == value
    assert len(v.to_binary()) == width
    assert len(v.to_hex()) == (width + 3) // 4


def test_oracles_reject_negatives():
    with pytest.raises(ValueError):
        oracle_add(-1, 0)
    with pytest.raises(ValueError):
        oracle_add(0, -1)
    with pytest.raises(ValueError):
        oracle_mul(-1, 0)
    with pytest.raises(ValueError):
        oracle_mul(0, -1)


def test_oracle_random_sweep(rng):
    # the oracle IS big-integer arithmetic; this checks the wrappers only
    for _ in range(100_000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        assert oracle_add(a, b) == a + b
        assert oracle_mul(a, b) == a * b


def test_increment_mask_examples():
    assert increment_mask(0) == 0b1
    assert increment_mask(0b1) == 0b11
    assert increment_mask(0b1011) == 0b111
    assert increment_mask(0b111) == 0b1111
    assert increment_mask(0b1011, 2) == 0b100
    assert increment_mask(0b1101, 2) == 0b11100
    with pytest.raises(ValueError):
        increment_mask(-1)


@given(
    st.integers(min_value=0, max_value=(1 << 80) - 1),
    st.integers(min_value=0, max_value=90),
)
def test_increment_mask_defining_property(value, i):
    assert value ^ increment_mask(value, i) == value + 2**i
