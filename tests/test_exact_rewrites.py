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

The four adder kernels now take all their masks from one cached layout per
call; their parent forms, which looked each mask up where it was used, are
written out below too, and every kernel and one-pair entry point must give
the same words and results.

The flash adder's tick 2 now counts its carries and ends only where the
segment check fails, the pair-leaf network takes each parity's carry
weights under the parity's mask one wire up, and the double-width adder
takes its carry-out wire from its layout. The parent forms pin these too:
tick 2 on every small fire-word triple, and the pair-leaf network and the
double-width tail at every half width up to 12.
"""

import dataclasses
import itertools
import random
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithsim import cascade, cli, flash, multiplier
from arithsim.bitvec import (
    BitVector,
    ModelIntegrityError,
    Record,
    block_tops,
    blockwise_add,
    lane_mask,
    lane_stride,
    misfit,
)
from arithsim.cascade import CascadeState, cascade_layout, level_masks
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
    args, masks = (k, level, sums, carry_word, a ^ b, a & b), cascade_layout(width, lanes)[2]
    assert outcome(CascadeState._check_block_sums, *args, masks, lanes) == outcome(
        two_shift_check, *args, lanes)


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
    args, masks = (sums, carry_word, width, level), cascade_layout(width, lanes)[2]
    assert outcome(cascade.cascade_step, *args, masks) == outcome(old_cascade_step, *args, lanes)


def test_the_cascade_step_returns_the_old_words_for_every_width_4_word():
    for sums in range(1 << 4):
        for carry_word in (0, 0b100, 0b10000, 0b10100):  # the level-1 slots
            args = (sums, carry_word, 4, 1)
            assert outcome(cascade.cascade_step, *args, cascade_layout(4)[2]) == outcome(
                old_cascade_step, *args)


def test_a_stray_carry_bit_now_counts_as_an_even_carry():
    # width 8, level 1, whose carry slots are bits 2, 4, 6 and 8: bit 1 is
    # none of them. The old form passed it on as an odd carry; the step now
    # adds it into its block pair's sums. No checked level holds such a word:
    # the level check refuses it before any step runs.
    assert old_cascade_step(0, 0b10, 8, 1) == (0, 0b10)
    assert cascade.cascade_step(0, 0b10, 8, 1, cascade_layout(8)[2]) == (0b10, 0)
    with pytest.raises(ValueError, match=r"^level 1 carries must sit at bits \(i\+1\)\*2$"):
        CascadeState._check_block_sums(3, 1, 0, 0b10, 0, 0, cascade_layout(8)[2])


@pytest.mark.parametrize("width", [8, 32, 128])
@given(data=st.data())
def test_the_block_carry_weight_is_the_old_firing_searchs_input(width, data):
    # every carry weight the pair-leaf network returns has bit 0 clear, in
    # the first block of the lowest lane, so handing it to the firing search
    # as it comes is the old search on the block tops, carry_weight >> 1
    lanes = data.draw(st.integers(min_value=1, max_value=64), label="lanes")
    _, _, fit, tops, parities = flash.blocked_shape(width, lanes)
    x, y = (data.draw(st.integers(0, fit), label="operand") & fit for _ in "xy")
    wires, carry_weight = flash.pair_leaf_blocks(x, y, tops, parities)
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


# The four adder kernels as they read before each took its masks from one
# cached layout, every tick and check looking up its own, written out in one
# piece each. The new kernels must return the same words and raise the same
# errors, and every one-pair entry point the same result.


def parent_check_operands(a, b, bits, stride, lanes=1):
    if bits < 1:
        raise ValueError(f"width must be positive, got {bits}")
    fit, either = lane_mask(bits, stride, lanes), a | b
    if either & fit != either:
        value = a if a & fit != a else b
        raise ValueError(f"value {misfit(value, fit, stride, lanes)} does not fit in {bits} bits")


def parent_check_block_sums(k, level, sums, carry_word, half, both, lanes=1):
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
    into_bottoms = carry_in & bottoms
    above = (carry_in ^ into_bottoms ^ carry_word) >> 1
    broken = into_bottoms | (both | half & carry_in) ^ above
    if broken:
        block = ((broken & -broken).bit_length() - 1) % lane_stride(width) >> level
        raise ModelIntegrityError(f"block-sum balance broken at level {level}, block {block}")


def parent_cascade_step(sums, carry_word, width, level, lanes=1):
    w = 1 << level
    if w >= width:
        raise ValueError(f"cascade already complete at level {width.bit_length() - 1}")
    _, pairs, odd_slots = level_masks(width, level + 1, lanes)
    odd_carries = carry_word & odd_slots
    sums, overflow = blockwise_add(sums, carry_word ^ odd_carries, pairs << (2 * w - 1))
    if overflow & odd_carries:
        raise ModelIntegrityError("saturated word cannot hold a high carry")
    return sums, overflow | odd_carries


def parent_cascade_lanes(a, b, width, lanes=1):
    if width < 2 or width & (width - 1):
        raise ValueError(f"width must be a power of two >= 2, got {width}")
    parent_check_operands(a, b, width, lane_stride(width), lanes)
    k = width.bit_length() - 1
    half, both = a ^ b, a & b
    sums, carry_word = blockwise_add(a, b, block_tops(lane_stride(width) * lanes, 2))
    parent_check_block_sums(k, 1, sums, carry_word, half, both, lanes)
    levels = [(sums, carry_word)]
    for level in range(1, k):
        sums, carry_word = parent_cascade_step(sums, carry_word, width, level, lanes)
        parent_check_block_sums(k, level + 1, sums, carry_word, half, both, lanes)
        levels.append((sums, carry_word))
    return levels


def parent_absorb(s, c, ends, n, lanes=1):
    """Tick 2 on a given end word, its checks in the parent's order: both
    fits, the count, then the segments."""
    stride = lane_stride(n)
    low, wires = lane_mask(n, stride, lanes), lane_mask(n + 1, stride, lanes)
    if c & low != c:
        raise ValueError(f"carry word does not fit width {n}")
    if ends & wires != ends:
        raise ValueError(f"end word does not fit {n + 1} wires")
    if c.bit_count() != ends.bit_count():
        raise ValueError("firings need one end per carry")
    total = flash.complement_segments(s, c, ends)
    if total != s + (c << 1):
        raise ModelIntegrityError("carry absorption changed the running total")
    return total, ends


def parent_flash_lanes(a, b, n, lanes=1):
    stride = lane_stride(n)
    parent_check_operands(a, b, n, stride, lanes)
    s, c = a ^ b, a & b
    total, ends = parent_absorb(s, c, flash.find_firings(s, c << 1), n, lanes)
    return total, c, ends


def parent_pair_leaf_blocks(x, y, width, parities):
    s_val, carried_weight = blockwise_add(x, y, block_tops(width, 2))
    total = x + y
    if s_val + carried_weight != total:
        raise ModelIntegrityError("pair-leaf initialization lost value")
    carries = carried_weight >> 1
    resolved = carry_weight = 0
    for mask in parities:
        s, c = s_val & mask, carries & mask
        blocks = flash.complement_segments(s, c, flash.find_firings(s, c << 1))
        inside = blocks & mask
        resolved |= inside
        carry_weight |= blocks ^ inside
    if resolved + carry_weight != total:
        raise ModelIntegrityError("in-block resolution lost value")
    return resolved, carry_weight


def parent_double_width_lanes(x, y, n, lanes=1):
    stride = lane_stride(2 * n)
    parent_check_operands(x, y, 2 * n, stride, lanes)
    bw = n + (n & 1)
    ones, low_half, block, fit = (lane_mask(bits, stride, lanes) for bits in (1, n, bw, n + 1))
    if n & 1:
        x, y = x + (x ^ (x & low_half)), y + (y ^ (y & low_half))
    wires, carry_weight = parent_pair_leaf_blocks(x, y, stride * lanes, (block, block << bw))
    tops = ones << bw
    low = (wires & block) | (carry_weight & tops)
    high = ((wires >> bw) & block) | ((carry_weight >> bw) & tops)
    both = low | high
    if both & fit != both:
        raise ModelIntegrityError("a half's sum does not fit its n+1 wires")
    cross = (low >> n) & ones
    mask = high ^ (high + cross)
    if mask & fit != mask:
        raise ModelIntegrityError("cross-carry increment escaped the high half")
    return ((high ^ mask) << n) | (low & low_half), cross


def parent_blocked_lanes(a, b, width, lanes=1):
    if width % 2:
        raise ValueError(f"operand width must be even, got {width}")
    if not flash.is_power_of_four(width // 2):
        raise ValueError(f"half-width {width // 2} must be a power of four")
    stride, bw = lane_stride(width), width // isqrt(width // 2)
    parent_check_operands(a, b, width, stride, lanes)
    parities = flash.block_parity_masks(width, bw, lanes)
    wires, carry_weight = parent_pair_leaf_blocks(a, b, stride * lanes, parities)
    block_carries = carry_weight >> 1
    total = flash.complement_segments(wires, block_carries, flash.find_firings(wires, carry_weight))
    if total != a + b:
        raise ModelIntegrityError("cross-block resolution lost value")
    return total, carry_weight


# (kernel, its parent form, whether it takes a width, and the operand width
# of a kernel width)
KERNELS = {
    "cascade": (cascade.cascade_lanes, parent_cascade_lanes,
                lambda w: w >= 2 and w & (w - 1) == 0, lambda w: w),
    "flash": (flash.flash_lanes, parent_flash_lanes, lambda w: w >= 1, lambda w: w),
    "flash_double": (flash.double_width_lanes, parent_double_width_lanes,
                     lambda w: w >= 1, lambda n: 2 * n),
    "blocked_double": (flash.blocked_lanes, parent_blocked_lanes,
                       lambda w: w % 2 == 0 and flash.is_power_of_four(w // 2), lambda w: w),
}


def test_every_kernel_returns_the_parents_words_on_every_pair_up_to_width_8():
    for name, (kernel, parent, takes, bits) in KERNELS.items():
        for width in filter(takes, range(1, 9)):
            if bits(width) > 8:
                continue
            for a, b in itertools.product(range(1 << bits(width)), repeat=2):
                assert kernel(a, b, width) == parent(a, b, width), (name, width, a, b)


@pytest.mark.parametrize("name", KERNELS)
def test_every_kernel_returns_the_parents_words_on_random_pairs_up_to_width_128(name, rng):
    kernel, parent, takes, bits = KERNELS[name]
    for width in filter(takes, range(9, 129)):
        if not 16 <= bits(width) <= 128:
            continue
        for _ in range(20):
            a, b = rng.getrandbits(bits(width)), rng.getrandbits(bits(width))
            assert kernel(a, b, width) == parent(a, b, width), (width, a, b)


@pytest.mark.parametrize(
    "lanes, width", [(334, 128), (333, 128), (481, 128), (250, 128), (4096, 8)])
@pytest.mark.parametrize("name", KERNELS)
def test_every_kernel_returns_the_parents_words_at_verifys_lane_counts(name, lanes, width, rng):
    # the 136-bit stride's full batch, the balanced batches of 1000 trials
    # and the multiplier's of 500 (its final add, at N = 64), and the 16-bit
    # stride's full batch
    kernel, parent, _, bits = KERNELS[name]
    if name == "flash_double":
        width //= 2
    stride = lane_stride(bits(width))
    assert stride == {128: 136, 8: 16}[bits(width)]
    assert lanes in (334, 333, 250) or lanes == cli.verify_lanes(stride)
    fit = lane_mask(bits(width), stride, lanes)
    words = [(fit, fit), (0, fit)] + [
        (rng.getrandbits(stride * lanes) & fit, rng.getrandbits(stride * lanes) & fit)
        for _ in range(3)
    ]
    for a, b in words:
        assert kernel(a, b, width, lanes) == parent(a, b, width, lanes)


def fire_word_triples(n, lanes):
    """Every (s, c, ends) word triple on n+1 sum wires, n carry wires and
    n+1 end wires, c and ends each with one bit above its fit. At 3 lanes
    the triple sits in lane 1, between a one-segment fire set in lane 0 and,
    in lane 2, either the same fire set or it with its end dropped, whose
    count another lane's extra end can make up."""
    stride = lane_stride(n)
    s0, c0, e0 = (1 << n) - 2, 1, 1 << n  # (2**n - 1) + 1: one segment up to wire n
    for s, c, ends in itertools.product(range(1 << n + 1), range(1 << n + 1), range(1 << n + 2)):
        if lanes == 1:
            yield s, c, ends
            continue
        for e2 in (e0, 0):
            yield tuple(word0 | word << stride | word2 << 2 * stride for word0, word, word2 in
                        ((s0, s, s0), (c0, c, c0), (e0, ends, e2)))


@pytest.mark.parametrize("lanes", [1, 3])
def test_absorb_checks_every_fire_word_triple_as_the_parents_order(lanes, monkeypatch):
    # absorb counts the carries and ends only where the segment check
    # fails; handing it each end word in place of the firing search's
    # reaches every check, and each gives the parent's result or error
    ends_word = None
    monkeypatch.setattr(flash, "find_firings", lambda s, weight: ends_word)
    for n in range(1, 5):
        layout, seen = flash.wire_masks(n, lanes), set()
        for s, c, ends_word in fire_word_triples(n, lanes):
            want = outcome(parent_absorb, s, c, ends_word, n, lanes)
            assert outcome(flash.absorb, s, c, n, layout) == want, (n, s, c, ends_word)
            seen.add(want[1] if want[0] != "returns" else want[0])
        assert seen == {
            "returns",
            f"carry word does not fit width {n}",
            f"end word does not fit {n + 1} wires",
            "firings need one end per carry",
            "a fired segment is not a run of 1 wires up to a 0 wire",
            "fired segments do not start just above their carries",
        }, n  # segments that pass keep the total; only a fault reaches that check


def parity_forms(n, lanes):
    """The pair-leaf parities of the double-width adder's halves and, where
    the width splits into blocks, of the blocked adder's, as the parent and
    as the layouts hand them over."""
    stride = lane_stride(2 * n)
    bw = n + (n & 1)
    block = lane_mask(bw, stride, lanes)
    forms = [((block, block << bw), flash.double_width_masks(n, lanes)[-1])]
    if flash.is_power_of_four(n):
        shape = flash.blocked_shape(2 * n, lanes)
        forms.append((flash.block_parity_masks(2 * n, shape[1], lanes), shape[-1]))
    return stride, forms


@pytest.mark.parametrize("lanes", [1, 3, 250])
def test_the_pair_leaf_weights_and_the_double_width_tail_are_the_parents(lanes, rng):
    # each parity's weight word is carried_weight & (parity << 1), exact for
    # any words since the carried weight's bit 0 is 0; the double-width tail
    # takes ones << bw from its layout. Every n from 1 to 12, odd and even
    # halves, on the operands' lanes and on any bits of the packed word,
    # which mostly break a check
    for n in range(1, 13):
        stride, forms = parity_forms(n, lanes)
        fit, tops = lane_mask(2 * n, stride, lanes), block_tops(stride * lanes, 2)
        for _ in range(40):
            x, y = rng.getrandbits(stride * lanes), rng.getrandbits(stride * lanes)
            for words in ((x, y), (x & fit, y & fit)):
                for parent_parities, parities in forms:
                    assert outcome(flash.pair_leaf_blocks, *words, tops, parities) == outcome(
                        parent_pair_leaf_blocks, *words, stride * lanes, parent_parities)
                assert outcome(flash.double_width_lanes, *words, n, lanes) == outcome(
                    parent_double_width_lanes, *words, n, lanes)
            assert outcome(flash.double_width_lanes, *words, n, lanes)[0] == "returns"


def parent_results(width, a, b):
    """Every one-pair entry point's result on two `width`-bit operands, as
    the parent kernels give it, by entry point."""
    A, B, results = BitVector(width, a), BitVector(width, b), {}
    if width >= 2 and width & (width - 1) == 0:
        levels = parent_cascade_lanes(a, b, width)
        trace = cascade.CascadeTrace(A, B, tuple(levels), ticks=len(levels))
        sums, carry_word = levels[-1]
        results["cascade_add"] = cascade.CascadeResult(
            BitVector(width, sums), carry_word >> width, trace)
        results["leaf_init"] = levels[0]
    total = BitVector(width + 1, parent_flash_lanes(a, b, width)[0])
    results["flash_add"] = results["resolve"] = flash.ResolveResult(total, flash.FLASH_ADD_TICKS)
    if width % 2 == 0:
        total = BitVector(width + 1, parent_double_width_lanes(a, b, width // 2)[0])
        results["double_width_add"] = flash.ResolveResult(total, flash.DOUBLE_WIDTH_TICKS)
    if width % 2 == 0 and flash.is_power_of_four(width // 2):
        total = BitVector(width + 1, parent_blocked_lanes(a, b, width)[0])
        results["blocked_add"] = flash.ResolveResult(total, flash.BLOCKED_TICKS)
    if width in MULTIPLIER_WIDTHS:
        for schedule in multiplier.Schedule:
            rows, report = multiplier.consolidate(
                multiplier.partial_product_lanes(a, b, width), schedule)
            product = BitVector(2 * width, parent_double_width_lanes(*rows.rows, width)[0])
            results[f"multiply {schedule.value}"] = multiplier.MultiplyResult(
                product, multiplier.multiply_ticks(report), report)
    return results


def entry_results(width, a, b):
    """The same entry points' results from the package."""
    A, B, results = BitVector(width, a), BitVector(width, b), {}
    if width >= 2 and width & (width - 1) == 0:
        results["cascade_add"] = cascade.cascade_add(A, B)
        results["leaf_init"] = cascade.leaf_init(A, B)
    results["flash_add"] = flash.flash_add(A, B)
    results["resolve"] = flash.resolve(flash.half_add(A, B))
    if width % 2 == 0:
        half, low = width // 2, (1 << width // 2) - 1
        halves = (BitVector(half, a & low), BitVector(half, a >> half),
                  BitVector(half, b & low), BitVector(half, b >> half))
        results["double_width_add"] = flash.double_width_add(*halves)
    if width % 2 == 0 and flash.is_power_of_four(width // 2):
        results["blocked_add"] = flash.blocked_add(A, B)
    if width in MULTIPLIER_WIDTHS:
        for schedule in multiplier.Schedule:
            results[f"multiply {schedule.value}"] = multiplier.multiply(A, B, schedule)
    return results


def fields(result):
    """A result's type and its fields, nested records and tuples included,
    one by one: the package's `Record`s, and the one dataclass."""
    if isinstance(result, Record):
        names = result.__match_args__
    elif dataclasses.is_dataclass(result):
        names = [field.name for field in dataclasses.fields(result)]
    elif isinstance(result, tuple):
        return tuple(map(fields, result))
    else:
        return result
    return type(result), {name: fields(getattr(result, name)) for name in names}


def test_fields_walks_every_record_down_to_its_ints():
    a, b = BitVector(4, 9), BitVector(4, 7)
    vector = (BitVector, {"width": 4, "value": 9})
    trace = fields(cascade.cascade_add(a, b))[1]["trace"]
    assert trace[0] is cascade.CascadeTrace and trace[1]["a"] == vector
    assert fields(flash.flash_add(a, b)) == (
        flash.ResolveResult, {"sum": (BitVector, {"width": 5, "value": 16}), "ticks": 2})
    report = fields(multiplier.multiply(a, b, multiplier.Schedule.A))[1]["report"]
    stage = report[1]["stages"][0]
    assert stage[0] is multiplier.StageRecord and stage[1]["rows_in"] == 4


@pytest.mark.parametrize("width", [2, 4, 8, 16, 32, 64, 128])
def test_every_entry_point_returns_the_parents_result_field_for_field(width, rng):
    pairs = (itertools.product(range(1 << width), repeat=2) if width <= 4 else
             [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(100)])
    for a, b in pairs:
        want = parent_results(width, a, b)
        got = entry_results(width, a, b)
        assert list(got) == list(want)
        for name in want:
            assert fields(got[name]) == fields(want[name]), (name, a, b)
