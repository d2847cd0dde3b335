import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithsim.bitvec import (
    BitVector,
    increment_mask,
    lane_stride,
    oracle_add,
    oracle_mul,
    pack_lanes,
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
    assert [(v.value >> index) & 1 for index in range(v.width)] == [1, 1, 0, 1]
    assert v.to_binary()[::-1] == "1101"


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
    assert increment_mask(0, 1) == 0b1
    assert increment_mask(0b1, 1) == 0b11
    assert increment_mask(0b1011, 1) == 0b111
    assert increment_mask(0b111, 1) == 0b1111
    assert increment_mask(0b1011, 0b100) == 0b100
    assert increment_mask(0b1101, 0b100) == 0b11100
    with pytest.raises(ValueError, match="value must be nonnegative"):
        increment_mask(-1, 1)


@given(
    st.integers(min_value=0, max_value=(1 << 80) - 1),
    st.integers(min_value=0, max_value=90),
)
def test_increment_mask_defining_property(value, i):
    assert value ^ increment_mask(value, 1 << i) == value + 2**i


def test_increment_mask_is_the_shifted_increment_exhaustively():
    # the increment by index: the trailing-ones run of value >> i, moved
    # back up to bit i
    for value in range(1 << 10):
        for i in range(10):
            assert increment_mask(value, 1 << i) == ((value >> i) ^ ((value >> i) + 1)) << i


@pytest.mark.parametrize("width", [8, 128])
@pytest.mark.parametrize("lanes", [1, 3, 4096])
def test_increment_mask_on_a_lane_word_is_each_lanes_increment(lanes, width, rng):
    # one step bit, or none, per lane; each lane's run stops at or below its
    # padding, so the word's mask is the lanes' masks side by side
    stride = lane_stride(width)
    values = [rng.getrandbits(width) for _ in range(lanes)]
    values[0] = (1 << width) - 1  # a run up to the lane's carry-out wire
    steps = [rng.choice([0, 1 << rng.randrange(width)]) for _ in range(lanes)]
    steps[0] = 1
    want = [increment_mask(v, step) for v, step in zip(values, steps)]
    got = increment_mask(pack_lanes(values, stride), pack_lanes(steps, stride))
    assert got == pack_lanes(want, stride)
