import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithsim.bitvec import (
    BitVector,
    ModelIntegrityError,
    block_carries,
    block_tops,
    blockwise_add,
    oracle_add,
)
from arithsim.cascade import (
    CascadeState,
    CascadeTrace,
    cascade_add,
    cascade_layout,
    cascade_step,
    increment_unit,
    leaf_init,
    level_records,
    special_and_gates,
    step_gate_count,
)
from arithsim.costs import cascade_gates
from reference import PAIR_ADD_TABLE


def test_pair_add_table_is_two_bit_addition():
    assert len(PAIR_ADD_TABLE) == 16
    for index in range(16):
        a2, b2 = index & 3, index >> 2
        s, c = PAIR_ADD_TABLE[index]
        assert 0 <= s <= 3 and c in (0, 1)
        assert (c << 2) | s == a2 + b2


def test_leaf_init_zero():
    sums, carry_word = leaf_init(BitVector(4, 0), BitVector(4, 0))
    assert sums == 0
    assert block_carries(carry_word, 4, 2) == (0, 0)


def test_leaf_init_11_plus_6():
    # low block 3+2=5: sum bits 01, carry 1; high block 2+1=3: sum bits 11
    sums, carry_word = leaf_init(BitVector(4, 11), BitVector(4, 6))
    assert sums == 0b1101
    assert block_carries(carry_word, 4, 2) == (1, 0)
    assert (sums & 0b11, sums >> 2) == (1, 3)


def test_leaf_init_all_ones():
    # each block 3+3=6: sum bits 10, carry 1
    sums, carry_word = leaf_init(BitVector(4, 15), BitVector(4, 15))
    assert sums == 0b1010
    assert block_carries(carry_word, 4, 2) == (1, 1)


def test_leaf_init_rejects_bad_widths():
    with pytest.raises(ValueError):
        leaf_init(BitVector(3, 0), BitVector(3, 0))
    with pytest.raises(ValueError):
        leaf_init(BitVector(1, 0), BitVector(1, 0))
    with pytest.raises(ValueError):
        leaf_init(BitVector(4, 0), BitVector(8, 0))


def test_increment_unit_absorbs_into_high_carry():
    word, carry = increment_unit(BitVector(2, 3), 0, 1)
    assert (word.value, carry) == (0, 1)


def test_increment_unit_noop_without_inc():
    word, carry = increment_unit(BitVector(2, 1), 1, 0)
    assert (word.value, carry) == (1, 1)


def test_increment_unit_below_existing_high_carry():
    # 101b + 1 = 110b: the run stops before the high carry
    word, carry = increment_unit(BitVector(2, 1), 1, 1)
    assert (word.value, carry) == (2, 1)


def test_increment_unit_saturation_is_model_breakage():
    with pytest.raises(ModelIntegrityError):
        increment_unit(BitVector(2, 3), 1, 0)
    with pytest.raises(ValueError):
        increment_unit(BitVector(2, 0), 2, 0)
    with pytest.raises(ValueError):
        increment_unit(BitVector(2, 0), 0, 2)


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.data(),
)
def test_increment_unit_adds_exactly_inc(width_log, high_carry, inc, data):
    w = 1 << width_log
    bound = (1 << w) - 2 if high_carry else (1 << w) - 1
    value = data.draw(st.integers(min_value=0, max_value=bound))
    word, carry_out = increment_unit(BitVector(w, value), high_carry, inc)
    assert (carry_out << w) + word.value == (high_carry << w) + value + inc


def test_cascade_step_merges_blocks():
    sums, carry_word = cascade_step(
        *leaf_init(BitVector(4, 11), BitVector(4, 6)), 4, 1, cascade_layout(4)[2]
    )
    assert sums == 0b0001
    assert block_carries(carry_word, 4, 4) == (1,)
    with pytest.raises(ValueError):
        cascade_step(sums, carry_word, 4, 2, cascade_layout(4)[2])  # already at level k


def test_cascade_step_all_ones():
    sums, carry_word = cascade_step(
        *leaf_init(BitVector(4, 15), BitVector(4, 15)), 4, 1, cascade_layout(4)[2]
    )
    assert sums == 0b1110
    assert block_carries(carry_word, 4, 4) == (1,)


def test_state_validation_catches_tampered_carries():
    a, b = BitVector(4, 11), BitVector(4, 6)
    sums, _ = leaf_init(a, b)
    with pytest.raises(ModelIntegrityError):
        CascadeState(
            k=2,
            level=1,
            sums=BitVector(4, sums),
            carry_word=0,  # the low block did carry
            a=a,
            b=b,
        )


def test_state_validation_checks_shapes():
    v = BitVector(4, 0)
    with pytest.raises(ValueError):
        CascadeState(k=2, level=3, sums=v, carry_word=0, a=v, b=v)
    with pytest.raises(ValueError):
        CascadeState(k=2, level=1, sums=v, carry_word=0b1000, a=v, b=v)
    with pytest.raises(ValueError):
        CascadeState(k=2, level=1, sums=v, carry_word=2 << 4, a=v, b=v)
    with pytest.raises(ValueError, match="value 16 does not fit in 4 bits"):
        CascadeState._check_block_sums(2, 1, 16, 0, 0, 0, cascade_layout(4)[2])
    with pytest.raises(ValueError, match="sums must be 4 bits wide, got 8"):
        CascadeState(k=2, level=1, sums=BitVector(8, 0), carry_word=0, a=v, b=v)
    with pytest.raises(ValueError, match="trace needs at least the leaf state"):
        CascadeTrace(a=v, b=v, levels=())
    with pytest.raises(ValueError, match="trace must cover all k levels at one tick each"):
        CascadeTrace(a=v, b=v, levels=((0, 0),))


def _check_levels_independently(result, a, b):
    # re-derive every level's block balance straight from the operands, on
    # each level's checked view
    trace, width = result.trace, a.width
    for level, (sums, carry_word) in enumerate(trace.levels, start=1):
        state = CascadeState(trace.ticks, level, BitVector(width, sums), carry_word, a, b)
        w = 1 << state.level
        mask = (1 << w) - 1
        for i, carry in enumerate(block_carries(state.carry_word, width, w)):
            a_blk = (a.value >> (i * w)) & mask
            b_blk = (b.value >> (i * w)) & mask
            s_blk = (state.sums.value >> (i * w)) & mask
            assert (carry << w) + s_blk == a_blk + b_blk
            if carry:
                assert s_blk <= mask - 1  # saturation bound


def test_cascade_add_examples():
    result = cascade_add(BitVector(4, 11), BitVector(4, 6))
    assert (result.sum.value, result.carry) == (1, 1)
    assert result.trace.ticks == 2
    _check_levels_independently(result, BitVector(4, 11), BitVector(4, 6))

    zero = cascade_add(BitVector(8, 0), BitVector(8, 0))
    assert (zero.sum.value, zero.carry) == (0, 0)
    assert zero.trace.ticks == 3

    top = cascade_add(BitVector(8, 255), BitVector(8, 255))
    assert top.sum.value + (top.carry << 8) == 510


def test_cascade_add_width_2():
    # k=1: the leaf is the whole addition
    result = cascade_add(BitVector(2, 3), BitVector(2, 2))
    assert result.sum.value + (result.carry << 2) == 5
    assert result.trace.ticks == 1
    assert special_and_gates(result.trace.ticks) == 0


def test_cascade_add_exhaustive_n4():
    for a in range(16):
        for b in range(16):
            av, bv = BitVector(4, a), BitVector(4, b)
            result = cascade_add(av, bv)
            assert result.sum.value + (result.carry << 4) == oracle_add(a, b)
            assert result.trace.ticks == 2
            _check_levels_independently(result, av, bv)


def test_cascade_add_exhaustive_n8():
    for a in range(256):
        for b in range(256):
            result = cascade_add(BitVector(8, a), BitVector(8, b))
            assert result.sum.value + (result.carry << 8) == a + b
            assert result.trace.ticks == 3


def test_cascade_add_random_n64(rng):
    for _ in range(100_000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        result = cascade_add(BitVector(64, a), BitVector(64, b))
        assert result.sum.value + (result.carry << 64) == a + b
        assert result.trace.ticks == 6


def test_cascade_add_random_n128(rng):
    for _ in range(100_000):
        a = rng.getrandbits(128)
        b = rng.getrandbits(128)
        result = cascade_add(BitVector(128, a), BitVector(128, b))
        assert result.sum.value + (result.carry << 128) == a + b
        assert result.trace.ticks == 7


def test_gate_tally_matches_closed_form(rng):
    for k in range(1, 9):
        width = 1 << k
        a = BitVector(width, rng.getrandbits(width))
        b = BitVector(width, rng.getrandbits(width))
        result = cascade_add(a, b)
        assert special_and_gates(result.trace.ticks) == cascade_gates(k)


def test_step_gate_counts_sum_to_closed_form():
    for k in range(1, 17):
        total = sum(step_gate_count(k, level) for level in range(1, k))
        assert total == cascade_gates(k)


def test_trace_records_serialize():
    result = cascade_add(BitVector(4, 11), BitVector(4, 6))
    records = level_records(result.trace.levels, 4)
    assert [r["level"] for r in records] == [1, 2]
    assert records[0]["carries"] == [1, 0]
    assert records[1]["sums"] == "1"


def _blocks(value, w, count):
    return [(value >> (i * w)) & ((1 << w) - 1) for i in range(count)]


def test_blockwise_add_at_width_2_is_the_pair_add_table():
    for index in range(16):
        sums, carries = blockwise_add(index & 3, index >> 2, block_tops(2, 2))
        assert (sums, carries >> 2) == PAIR_ADD_TABLE[index]


def test_blockwise_add_is_per_block_addition_exhaustively():
    for width in range(1, 9):
        for w in range(1, width + 1):
            if width % w:
                continue
            count = width // w
            for x, y in itertools.product(range(1 << width), repeat=2):
                want_sums = want_carries = 0
                for i, (xb, yb) in enumerate(zip(_blocks(x, w, count), _blocks(y, w, count))):
                    want_sums |= ((xb + yb) & ((1 << w) - 1)) << (i * w)
                    want_carries |= ((xb + yb) >> w) << ((i + 1) * w)
                assert blockwise_add(x, y, block_tops(width, w)) == (want_sums, want_carries)


def _step_by_increment_units(sums_word, carry_word, width, level):
    """cascade_step as the paper draws it: one increment unit per block pair."""
    w = 1 << level
    carries_in = block_carries(carry_word, width, w)
    sums_in = _blocks(sums_word, w, len(carries_in))
    sums = 0
    carries = []
    for i in range(len(carries_in) // 2):
        word, carry = increment_unit(
            BitVector(w, sums_in[2 * i + 1]), carries_in[2 * i + 1], carries_in[2 * i]
        )
        sums |= (sums_in[2 * i] | word.value << w) << (2 * i * w)
        carries.append(carry)
    return sums, tuple(carries)


def _assert_steps_match_increment_units(a, b):
    width, masks = a.width, cascade_layout(a.width)[2]
    sums, carry_word = leaf_init(a, b)
    for level in range(1, width.bit_length() - 1):
        want = _step_by_increment_units(sums, carry_word, width, level)
        sums, carry_word = cascade_step(sums, carry_word, width, level, masks)
        assert (sums, block_carries(carry_word, width, 1 << level + 1)) == want


def test_cascade_step_is_the_increment_units_exhaustively():
    for width in (2, 4, 8):
        for a, b in itertools.product(range(1 << width), repeat=2):
            _assert_steps_match_increment_units(BitVector(width, a), BitVector(width, b))


def test_cascade_step_is_the_increment_units_n128(rng):
    for _ in range(500):
        _assert_steps_match_increment_units(
            BitVector(128, rng.getrandbits(128)), BitVector(128, rng.getrandbits(128))
        )


def _outcome(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except (ValueError, ModelIntegrityError) as error:
        return type(error), str(error)
    return None


def test_block_sum_check_accepts_exactly_the_balanced_states():
    # every sum word, carry word and operand pair at width 4, levels 1 and 2:
    # the level check on words and the CascadeState view give the same verdict
    # and message, and accept exactly the states whose carries sit at their
    # blocks' weights and balance every block
    for level, w in ((1, 2), (2, 4)):
        count = 4 // w
        placed = {
            sum(c << ((i + 1) * w) for i, c in enumerate(carries)): carries
            for carries in itertools.product((0, 1), repeat=count)
        }
        for a, b, s in itertools.product(range(16), repeat=3):
            blocks = list(zip(_blocks(s, w, count), _blocks(a, w, count), _blocks(b, w, count)))
            views = dict(k=2, level=level, sums=BitVector(4, s), a=BitVector(4, a), b=BitVector(4, b))
            for carry_word in range(1 << 5):
                got = _outcome(
                    CascadeState._check_block_sums, 2, level, s, carry_word, a ^ b, a & b,
                    cascade_layout(4)[2],
                )
                assert _outcome(CascadeState, carry_word=carry_word, **views) == got
                carries = placed.get(carry_word)
                if carries is None:
                    assert got == (ValueError, f"level {level} carries must sit at bits (i+1)*{w}")
                    continue
                broken = [
                    i for i, (sb, ab, bb) in enumerate(blocks) if (carries[i] << w) + sb != ab + bb
                ]
                if broken:
                    message = f"block-sum balance broken at level {level}, block {broken[0]}"
                    assert got == (ModelIntegrityError, message)
                else:
                    assert got is None
                    assert block_carries(carry_word, 4, 1 << level) == carries


def test_a_flipped_leaf_sum_is_a_block_sum_break(flipped_leaf_sum):
    with pytest.raises(ModelIntegrityError, match="balance broken at level 1, block 0$"):
        cascade_add(BitVector(8, 0xA5), BitVector(8, 0x3C))


def test_a_flipped_step_sum_is_a_later_level_break(flipped_step_sum):
    with pytest.raises(ModelIntegrityError, match="balance broken at level 3, block 0$"):
        cascade_add(BitVector(8, 0xA5), BitVector(8, 0x3C))
