"""The lane kernels never complement a mask.

Every `x & ~m` of the kernels is written `x ^ (x & m)`, and every range check
`x & ~m` as `x & m != x` (Warren, Hacker's Delight, section 2-1). Both are
exact for every int, negative ones included. The tests here pin that: each
rewritten function, fed words with stray bits in a lane's padding, above the
top lane or all the way up in a negative word, behaves as its old `& ~m`
form, written out below, down to the exception type and message.
"""

import ast
from functools import reduce
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithsim import bitvec, cascade, flash, multiplier
from arithsim.bitvec import ModelIntegrityError, block_bottoms, block_tops, lane_mask, lane_stride
from arithsim.cascade import CascadeState, level_masks
from arithsim.multiplier import RowSet

KERNEL_MODULES = (bitvec, cascade, flash, multiplier)
WIDTHS = (8, 128)  # the narrow and the wide adder strides, 16 and 136 bits


@pytest.mark.parametrize("module", KERNEL_MODULES, ids=lambda m: m.__name__)
def test_no_kernel_module_complements_a_word(module):
    # On 65,536-bit lane words `x & ~y` took 7.5-8.9 us against 1.2 us for
    # the equal `x ^ (x & y)` (timeit, best of 9, a 2-core Xeon on Python
    # 3.11): `~y` is a full-width add, and a negative operand makes every
    # bitwise op copy the word through two's complement. Unary minus stays:
    # the lowest set bit on error paths (`broken & -broken`, `bitvec.misfit`)
    # and the one-lane `flash.fire_pairs` run on small words.
    tree = ast.parse(Path(module.__file__).read_text())
    inverts = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert)
    ]
    assert inverts == []


@pytest.mark.parametrize("module", (cascade, flash, multiplier), ids=lambda m: m.__name__)
def test_no_kernel_module_has_a_stride_rule_of_its_own(module):
    # `bitvec.lane_stride` is the one lane layout: a stride rule of a
    # kernel's own, or a stride taken from the caller, would let two callers
    # pack the same circuit two ways
    tree = ast.parse(Path(module.__file__).read_text())
    rules = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_stride")
        or isinstance(node, ast.arg) and node.arg == "stride"
    ]
    assert rules == []


def outcome(f, *args):
    """What `f(*args)` does: ("returns", value) or (exception type, message)."""
    try:
        return "returns", f(*args)
    except (ValueError, ModelIntegrityError) as exc:
        return type(exc), str(exc)


def lanes_and_words(data, width, max_lanes=64):
    """`width`'s adder stride, a lane count of 1 to `max_lanes` and two
    words of random `width`-bit lanes."""
    stride = lane_stride(width)
    lanes = data.draw(st.integers(min_value=1, max_value=max_lanes), label="lanes")
    fit = lane_mask(width, stride, lanes)
    return stride, lanes, [data.draw(st.integers(0, fit), label="word") & fit for _ in "ab"]


def stray(data, word, stride, lanes, bits):
    """`word` as it is, or with one stray: a bit in some lane's padding at
    or above `bits`, the bit `lanes * stride` just above the top lane, or
    every bit above the top lane set, making the word negative. Every
    function tested takes any int."""
    kind = data.draw(st.sampled_from(("none", "padding", "above", "negative")), label="stray")
    if kind == "padding":
        lane = data.draw(st.integers(0, lanes - 1), label="lane")
        return word | 1 << lane * stride + data.draw(st.integers(bits, stride - 1), label="bit")
    if kind == "above":
        return word | 1 << lanes * stride
    if kind == "negative":
        return word - (1 << lanes * stride)
    return word


def strays(data, words, stride, lanes, bits):
    return [stray(data, word, stride, lanes, bits) for word in words]


# The old forms, as they read before the rewrite. Their range messages show
# a word on more than one lane by its first lane that fails, as the kernels
# now do, so that a message can be built for a word of any size.


def shown(word, fit, stride, lanes):
    """A word that breaks `fit` in a range message: the whole word on one
    lane, else the lowest lane with a bit outside `fit`, by its bits and
    its index."""
    if lanes == 1:
        return f"{word!r}"
    ones, lane = (1 << stride) - 1, 0
    while not (word >> lane * stride) & ~(fit >> lane * stride) & ones:
        lane += 1
    return f"{(word >> lane * stride) & ones} in lane {lane}"


def old_check_wires(n, s, c):
    _, low, wires = flash.wire_masks(n)
    if s & ~wires or c & ~low:
        raise ValueError("wire widths must be n+1 sum bits and n carry bits")
    if s & ~low:
        raise ValueError("top sum wire must start at 0")
    if s & c:
        raise ValueError("sum and carry wires overlap; not a half-add output")


def old_check_fire_words(n, carries, ends, lanes):
    _, low, wires = flash.wire_masks(n, lanes)
    if carries & ~low:
        raise ValueError(f"carry word does not fit width {n}")
    if ends & ~wires:
        raise ValueError(f"end word does not fit {n + 1} wires")
    if carries.bit_count() != ends.bit_count():
        raise ValueError("firings need one end per carry")


def old_check_block_sums(k, level, sums, carry_word, a, b, lanes):
    if not 1 <= level <= k:
        raise ValueError(f"level {level} outside 1..{k}")
    width = 1 << k
    fit, bottoms, slots = level_masks(width, level, lanes)
    if sums & ~fit:
        raise ValueError(
            f"value {shown(sums, fit, lane_stride(width), lanes)} does not fit in {width} bits"
        )
    if carry_word & ~slots:
        raise ValueError(f"level {level} carries must sit at bits (i+1)*{1 << level}")
    carry_in = sums ^ a ^ b
    carry_out = ((a & b) | ((a ^ b) & carry_in)) << 1
    wrong_out = carry_out ^ (carry_in & ~bottoms) ^ carry_word
    broken = (carry_in & bottoms) | wrong_out >> 1
    if broken:
        block = ((broken & -broken).bit_length() - 1) % lane_stride(width) >> level
        raise ModelIntegrityError(f"block-sum balance broken at level {level}, block {block}")


def old_operand_check(a, b, width, lanes):
    fit = level_masks(width, 1, lanes)[0]
    for value in (a, b):
        if value & ~fit:
            raise ValueError(
                f"value {shown(value, fit, lane_stride(width), lanes)} does not fit in {width} bits"
            )


def old_row_set_check(width, rows, lanes):
    fit = lane_mask(width, lane_stride(width), lanes)
    over = ~fit
    if not rows or min(rows) >= 0 and not (
        max(rows) if lanes == 1 else reduce(or_, rows)
    ) & over:
        return
    for index, row in enumerate(rows):
        if row < 0 or row & over:
            row = shown(row, fit, lane_stride(width), lanes)
            raise ValueError(f"row {index} = {row} does not fit in {width} bits")


def old_blockwise_add(x, y, width, w):
    top = block_bottoms(width, w) << (w - 1)
    t = (x & ~top) + (y & ~top)
    sums = t ^ ((x ^ y) & top)
    carries = (((x & y) | ((x ^ y) & t)) & top) << 1
    return sums, carries


def old_find_firings(s, carries):
    return (s + (carries << 1)) & ~s


def old_complement_segments(s, carries, ends):
    union = (ends << 1) - (carries << 1)
    interior = union & ~ends
    if union < 0 or ends & s or interior & ~(s & (union >> 1)):
        raise ModelIntegrityError("a fired segment is not a run of 1 wires up to a 0 wire")
    if union & ~(interior << 1) != carries << 1:
        raise ModelIntegrityError("fired segments do not start just above their carries")
    return s ^ union


@given(st.sampled_from(WIDTHS), st.data())
def test_check_wires_raises_as_the_old_form(n, data):
    # `check_wires` guards one pair's `HalfAddState`, so it takes one lane
    stride, lanes, (a, b) = lanes_and_words(data, n, max_lanes=1)
    s, c = strays(data, [a ^ b, a & b], stride, lanes, n)
    assert outcome(flash.check_wires, n, s, c) == outcome(old_check_wires, n, s, c)


@given(st.sampled_from(WIDTHS), st.data())
def test_check_fire_words_raises_as_the_old_form(n, data):
    stride, lanes, (a, b) = lanes_and_words(data, n)
    c = a & b
    carries, ends = strays(data, [c, flash.find_firings(a ^ b, c << 1)], stride, lanes, n)
    layout = flash.wire_masks(n, lanes)
    assert outcome(flash.check_fire_words, n, carries, ends, layout) == outcome(
        old_check_fire_words, n, carries, ends, lanes
    )


@given(st.sampled_from(WIDTHS), st.data())
def test_check_block_sums_raises_as_the_old_form(width, data):
    stride, lanes, (a, b) = lanes_and_words(data, width)
    k = width.bit_length() - 1
    level = data.draw(st.integers(1, k), label="level")
    sums, carry_word = cascade.cascade_lanes(a, b, width, lanes)[level - 1]
    if data.draw(st.booleans(), label="flip"):  # break the balance too
        sums ^= 1 << data.draw(st.integers(0, lanes * stride - 1), label="flipped bit")
    sums, carry_word, a, b = strays(data, [sums, carry_word, a, b], stride, lanes, width)
    # the check takes the operands as a ^ b and a & b
    assert outcome(
        CascadeState._check_block_sums, k, level, sums, carry_word, a ^ b, a & b,
        cascade.cascade_layout(width, lanes)[2], lanes,
    ) == outcome(old_check_block_sums, k, level, sums, carry_word, a, b, lanes)


@given(st.sampled_from(WIDTHS), st.data())
def test_cascade_lanes_checks_its_operands_as_the_old_form(width, data):
    stride, lanes, words = lanes_and_words(data, width)
    a, b = strays(data, words, stride, lanes, width)
    got = outcome(cascade.cascade_lanes, a, b, width, lanes)
    want = outcome(old_operand_check, a, b, width, lanes)
    assert got[0] == "returns" if want[0] == "returns" else got == want


@given(st.sampled_from(WIDTHS), st.data())
def test_row_set_raises_as_the_old_form(width, data):
    stride = lane_stride(width)
    lanes = data.draw(st.integers(min_value=1, max_value=64), label="lanes")
    fit = lane_mask(width, stride, lanes)
    count = data.draw(st.integers(min_value=0, max_value=4), label="rows")
    rows = [data.draw(st.integers(0, fit), label="row") & fit for _ in range(count)]
    rows = tuple(strays(data, rows, stride, lanes, width))
    got = outcome(RowSet, width, rows, lanes)
    want = outcome(old_row_set_check, width, rows, lanes)
    assert got[0] == "returns" if want[0] == "returns" else got == want


@given(st.sampled_from(WIDTHS), st.data())
def test_blockwise_add_returns_the_old_words(width, data):
    stride, lanes, words = lanes_and_words(data, width)
    x, y = strays(data, words, stride, lanes, width)
    w = 1 << data.draw(st.integers(1, stride.bit_length() - 1), label="log2 block width")
    packed = stride * lanes
    assert bitvec.blockwise_add(x, y, block_tops(packed, w)) == old_blockwise_add(x, y, packed, w)


@given(st.sampled_from(WIDTHS), st.data())
def test_find_firings_returns_the_old_word(n, data):
    stride, lanes, (a, b) = lanes_and_words(data, n)
    s, c = strays(data, [a ^ b, a & b], stride, lanes, n)
    # the search now takes the carries' weight word, c << 1
    assert flash.find_firings(s, c << 1) == old_find_firings(s, c)


@given(st.sampled_from(WIDTHS), st.data())
def test_complement_segments_returns_the_old_word(n, data):
    stride, lanes, (a, b) = lanes_and_words(data, n)
    s, c = a ^ b, a & b
    args = strays(data, [s, c, flash.find_firings(s, c << 1)], stride, lanes, n)
    assert outcome(flash.complement_segments, *args) == outcome(old_complement_segments, *args)
