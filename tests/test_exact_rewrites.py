"""verify's batch path in fewer full-width passes, each word unchanged.

The multiplier's row select reads b's bits i and i + n through one cached
mask and one `b << n` per batch, and the cascade's block-sum check compares
each carry out one bit down, in one shift. The cascade step takes the odd
blocks' carries under the next level's cached slot mask instead of shifting
the block-pair mask, and the blocked adder's tick 3 hands the firing search
its block carries' weight word as it comes. All are exact rewrites (Warren,
Hacker's Delight, section 2-1) on the words their callers hand over. The
tests here pin each to the form it replaced, written out below, down to the
rows and to the block that a broken balance names, and pin what a word
outside that contract now does.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithsim import cascade, cli, flash, multiplier
from arithsim.bitvec import ModelIntegrityError, blockwise_add, lane_mask, lane_stride, misfit
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


def old_cascade_step(sums, carry_word, width, level, lanes=1):
    """The cascade step as it read before: the even blocks' carries under
    the block pairs' bottoms shifted up one block, the odd ones the rest."""
    w = 1 << level
    if w >= width:
        raise ValueError(f"cascade already complete at level {width.bit_length() - 1}")
    pairs = level_masks(width, level + 1, lanes)[1]
    even_carries = carry_word & (pairs << w)
    sums, overflow = blockwise_add(sums, even_carries, pairs << (2 * w - 1))
    odd_carries = carry_word ^ even_carries
    if overflow & odd_carries:
        raise ModelIntegrityError("saturated word cannot hold a high carry")
    return sums, overflow | odd_carries


@given(st.sampled_from(WIDTHS), st.data())
def test_the_cascade_step_returns_the_old_words_inside_the_slots(width, data):
    # the levels of real adds, and any sums and carry words in range, the
    # saturated ones included: every word a checked level can hold
    k = width.bit_length() - 1
    lanes = data.draw(st.integers(min_value=1, max_value=64), label="lanes")
    level = data.draw(st.integers(1, k - 1), label="level")
    fit, _, slots = level_masks(width, level, lanes)
    if data.draw(st.booleans(), label="random words"):
        sums = data.draw(st.integers(0, fit), label="sums") & fit
        carry_word = data.draw(st.integers(0, slots), label="carries") & slots
    else:
        a, b = (data.draw(st.integers(0, fit), label="operand") & fit for _ in "ab")
        sums, carry_word = cascade.cascade_lanes(a, b, width, lanes)[level - 1]
    args = (sums, carry_word, width, level, lanes)
    assert outcome(cascade.cascade_step, *args) == outcome(old_cascade_step, *args)


def test_the_cascade_step_returns_the_old_words_for_every_width_4_word():
    for sums in range(1 << 4):
        for carry_word in (0, 0b100, 0b10000, 0b10100):  # the level-1 slots
            args = (sums, carry_word, 4, 1)
            assert outcome(cascade.cascade_step, *args) == outcome(old_cascade_step, *args)


def test_a_stray_carry_bit_now_counts_as_an_even_carry():
    # width 8, level 1, whose carry slots are bits 2, 4, 6 and 8: bit 1 is
    # none of them. The old form passed it on as an odd carry; the step now
    # adds it into its block pair's sums. No checked level holds such a word:
    # the level check refuses it before any step runs.
    assert old_cascade_step(0, 0b10, 8, 1) == (0, 0b10)
    assert cascade.cascade_step(0, 0b10, 8, 1) == (0b10, 0)
    with pytest.raises(ValueError, match=r"^level 1 carries must sit at bits \(i\+1\)\*2$"):
        CascadeState._check_block_sums(3, 1, 0, 0b10, 0, 0)


@pytest.mark.parametrize("width", [8, 32, 128])
@given(data=st.data())
def test_the_block_carry_weight_is_the_old_firing_searchs_input(width, data):
    # every carry weight the pair-leaf network returns has bit 0 clear, in
    # the first block of the lowest lane, so handing it to the firing search
    # as it comes is the old search on the block tops, carry_weight >> 1
    lanes = data.draw(st.integers(min_value=1, max_value=64), label="lanes")
    packed, bw = flash.blocked_shape(width, lanes)
    fit = lane_mask(width, lane_stride(width), lanes)
    x, y = (data.draw(st.integers(0, fit), label="operand") & fit for _ in "xy")
    parities = flash.block_parity_masks(width, bw, lanes)
    wires, carry_weight = flash.pair_leaf_blocks(x, y, packed, parities)
    block_tops = carry_weight >> 1
    old_search = (t := wires + (block_tops << 1)) ^ (t & wires)
    assert carry_weight & 1 == 0
    assert flash.find_firings(wires, carry_weight) == old_search


def test_a_carry_weight_on_bit_0_is_now_a_model_break(monkeypatch):
    # a pair-leaf network that returned a carry below wire 0: the old tick 3
    # lost it in the shift to the block tops and returned 0 for 0 + 0; the
    # firing search now sees it and the segment check refuses the end word
    original = flash.pair_leaf_blocks

    def carry_on_bit_0(*args):
        wires, carry_weight = original(*args)
        return wires, carry_weight | 1

    monkeypatch.setattr(flash, "pair_leaf_blocks", carry_on_bit_0)
    message = "^a fired segment is not a run of 1 wires up to a 0 wire$"
    with pytest.raises(ModelIntegrityError, match=message):
        flash.blocked_lanes(0, 0, 8)
