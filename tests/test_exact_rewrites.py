"""verify's batch path in fewer full-width passes, each word unchanged.

The multiplier's row select reads b's bits i and i + n through one cached
mask and one `b << n` per batch, and the cascade's block-sum check compares
each carry out one bit down, in one shift. Both are exact rewrites (Warren,
Hacker's Delight, section 2-1). The tests here pin each to the form it
replaced, written out below, down to the rows and to the block that a
broken balance names.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithsim import cascade, cli, multiplier
from arithsim.bitvec import ModelIntegrityError, lane_mask, lane_stride, misfit
from arithsim.cascade import CascadeState, level_masks
from arithsim.multiplier import MULTIPLIER_WIDTHS

WIDTHS = (8, 128)  # the narrow and the wide adder strides, 16 and 136 bits


def outcome(f, *args):
    """What `f(*args)` does: ("returns", value) or (exception type, message)."""
    try:
        return "returns", f(*args)
    except (ValueError, ModelIntegrityError) as exc:
        return type(exc), str(exc)


def old_rows(a, b, n, lanes):
    """Row i as it read before: t = b_i in every lane, selected with t << n."""
    ones = lane_mask(1, lane_stride(2 * n), lanes)
    return tuple(((t << n) - t) & (a << i) if (t := b & ones << i) else 0 for i in range(n))


@pytest.mark.parametrize("lanes", ["1", "3", "full"])
@pytest.mark.parametrize("n", MULTIPLIER_WIDTHS)
@given(seed=st.integers(min_value=0), sparse=st.booleans())
def test_the_row_select_returns_the_old_rows(n, lanes, seed, sparse):
    stride = lane_stride(2 * n)
    count = {"1": 1, "3": 3, "full": cli.verify_lanes(stride)}[lanes]
    rng, fit = random.Random(seed), lane_mask(n, stride, count)
    a, b = (rng.getrandbits(stride * count) & fit for _ in "ab")
    if sparse:  # few bits of b, so that some rows select no lane at all
        b &= rng.getrandbits(stride * count) & rng.getrandbits(stride * count)
    assert multiplier.partial_product_lanes(a, b, n, count).rows == old_rows(a, b, n, count)


def two_shift_check(k, level, sums, carry_word, half, both, lanes):
    """The block-sum check as it read before: the carry out shifted up, the
    wrong carries shifted back down."""
    if not 1 <= level <= k:
        raise ValueError(f"level {level} outside 1..{k}")
    width = 1 << k
    fit, bottoms, slots = level_masks(width, level, lanes)
    if sums & fit != sums:
        raise ValueError(f"value {misfit(sums, fit, lane_stride(width), lanes)}"
                         f" does not fit in {width} bits")
    if carry_word & slots != carry_word:
        raise ValueError(f"level {level} carries must sit at bits (i+1)*{1 << level}")
    carry_in = sums ^ half
    carry_out = (both | (half & carry_in)) << 1
    into_bottoms = carry_in & bottoms
    wrong_out = carry_out ^ carry_in ^ into_bottoms ^ carry_word
    broken = into_bottoms | wrong_out >> 1
    if broken:
        block = ((broken & -broken).bit_length() - 1) % lane_stride(width) >> level
        raise ModelIntegrityError(f"block-sum balance broken at level {level}, block {block}")


@given(st.sampled_from(WIDTHS), st.data())
def test_the_block_sum_check_names_the_two_shift_forms_block(width, data):
    # random words in range, so the balance is all that can break, and
    # levels of a real add with one sum or carry bit flipped, a fault
    stride, k = lane_stride(width), width.bit_length() - 1
    lanes = data.draw(st.integers(min_value=1, max_value=64), label="lanes")
    level = data.draw(st.integers(1, k), label="level")
    fit, _, slots = level_masks(width, level, lanes)
    a, b = (data.draw(st.integers(0, fit), label="operand") & fit for _ in "ab")
    if data.draw(st.booleans(), label="random words"):
        sums = data.draw(st.integers(0, fit), label="sums") & fit
        carry_word = data.draw(st.integers(0, slots), label="carries") & slots
    else:
        sums, carry_word = cascade.cascade_lanes(a, b, width, lanes)[level - 1]
        fault = data.draw(st.sampled_from(("none", "sums", "carries")), label="fault")
        if fault == "sums":
            sums ^= 1 << data.draw(st.sampled_from(
                [bit for bit in range(lanes * stride) if fit >> bit & 1]), label="bit")
        elif fault == "carries":
            carry_word ^= 1 << data.draw(st.sampled_from(
                [bit for bit in range(lanes * stride) if slots >> bit & 1]), label="bit")
    args = (k, level, sums, carry_word, a ^ b, a & b, lanes)
    assert outcome(CascadeState._check_block_sums, *args) == outcome(two_shift_check, *args)
