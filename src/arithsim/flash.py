"""Flash adder: N-bit addition in two clock ticks, any N.

Tick 1 half-adds the operands into sum wires s_0..s_N (s_N starts at 0) and
carry wires c_0..c_N-1. Tick 2 absorbs every set carry at once: for each
carry index i, gate AND(i, j) watches the run of sum wires above i,

    AND(i, j) = not(s_j) and s_{j-1} and ... and s_{i+1} and c_i,

so exactly one gate per set carry fires, at the lowest j > i with s_j = 0.
Complementing the wire segment s_{i+1}..s_j adds 2**(i+1), which is the
carry's weight; fired segments never overlap, so all complements happen
simultaneously. The full network has N(N+1)/2 gates.

Two three-tick adders are built on it. Both start with the pair-leaf
network inside blocks (`pair_leaf_blocks`): the 16-entry pair-add lookups,
then the AND network on the pair sums, confined to each block. The
double-width adder runs it with its two halves as the two blocks and then
folds in one cross-carry increment, `bitvec.increment_mask`; the blocked
adder runs it on square-root-sized blocks and then absorbs the block
carries across the whole word, instead of doubling block sizes level by
level.

Each adder is one lane kernel (`flash_lanes`, `double_width_lanes`,
`blocked_lanes`): its ticks run on a word of K operand pairs packed at
`bitvec.lane_stride`, which is K copies of the circuit side by side; the
multiplier's final add is `double_width_lanes` on its rows at the same
stride. Every lane holds its own sum and carry wires with the padding byte
above them, its blocks are one lane's blocks repeated at the stride, so no
segment, block or carry crosses into the next lane, and every check is a
lane-mask check. Each kernel takes its masks from one cached layout
(`wire_masks`, `double_width_masks`, `blocked_shape`) and passes them down.
`flash_add`, `double_width_add` and `blocked_add` are the K = 1 call of
their kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .bitvec import (
    BitVector,
    ModelIntegrityError,
    Record,
    _set,
    block_tops,
    blockwise_add,
    check_operands,
    increment_mask,
    lane_mask,
    lane_stride,
    operand_width,
)

FLASH_ADD_TICKS = 2
DOUBLE_WIDTH_TICKS = 3
BLOCKED_TICKS = 3


class HalfAddState(Record):
    """The wire words after tick 1: s = a xor b over N+1 bits (top bit 0) and
    c = a and b over N bits."""

    __slots__ = ("n", "s", "c")

    def __init__(self, n: int, s: int, c: int) -> None:
        _set(self, "n", n)
        _set(self, "s", s)
        _set(self, "c", c)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_wires(self.n, self.s, self.c)


class FireSet(Record):
    """The gates that fired, as two words: bit i of `carries` for each set
    carry and bit j of `ends` for each fired gate AND(i, j)."""

    __slots__ = ("width", "carries", "ends")

    def __init__(self, width: int, carries: int, ends: int) -> None:
        _set(self, "width", width)
        _set(self, "carries", carries)
        _set(self, "ends", ends)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_fire_words(self.width, self.carries, self.ends, wire_masks(self.width))

    @property
    def firings(self) -> tuple[tuple[int, int], ...]:
        """The (i, j) gates; see `fire_pairs`."""
        return fire_pairs(self.carries, self.ends)


# the one dataclass, since the benchmark's self-test calls `dataclasses.replace` on it
@dataclass(frozen=True, slots=True)
class ResolveResult:  # the flash, double-width and blocked adds' result
    sum: BitVector  # the added width, plus the carry out on top
    ticks: int


@lru_cache
def wire_masks(n: int, lanes: int = 1) -> tuple[int, int, int]:
    """The flash adder's layout on `lanes` lanes of n-bit operands: the
    stride, every lane's n low wires (the operands' and the carries' fit)
    and its n+1 low wires."""
    stride = lane_stride(n)
    return stride, lane_mask(n, stride, lanes), lane_mask(n + 1, stride, lanes)


def check_wires(n: int, s: int, c: int) -> None:
    """The wire checks after tick 1: n+1 sum wires with the top one at 0,
    n carry wires, and no index high on both."""
    if n < 1:
        raise ValueError(f"width must be positive, got {n}")
    _, low, wires = wire_masks(n)
    if s & wires != s or c & low != c:
        raise ValueError("wire widths must be n+1 sum bits and n carry bits")
    if s & low != s:
        raise ValueError("top sum wire must start at 0")
    if s & c:
        # a xor b and a and b can never be high on the same index
        raise ValueError("sum and carry wires overlap; not a half-add output")


def check_fire_words(n: int, carries: int, ends: int, layout: tuple[int, int, int]) -> None:
    """The fire set's shape, on every lane of `layout`, its `wire_masks`: n
    carry wires, n+1 end wires, and as many ends as carries."""
    check_fire_fit(n, carries, ends, layout)
    check_fire_count(carries, ends)


def check_fire_fit(n: int, carries: int, ends: int, layout: tuple[int, int, int]) -> None:
    """The carry and end words' fits, `check_fire_words`' first two checks."""
    _, low, wires = layout
    if carries & low != carries:
        raise ValueError(f"carry word does not fit width {n}")
    if ends & wires != ends:
        raise ValueError(f"end word does not fit {n + 1} wires")


def check_fire_count(carries: int, ends: int) -> None:
    """`check_fire_words`' last check: one end per carry."""
    if carries.bit_count() != ends.bit_count():
        raise ValueError("firings need one end per carry")


def fire_pairs(carries: int, ends: int) -> tuple[tuple[int, int], ...]:
    """The fired (i, j) gates of one lane's carry and end words, pairing
    their set bits in ascending order."""
    pairs = []
    while carries:
        pairs.append(((carries & -carries).bit_length() - 1, (ends & -ends).bit_length() - 1))
        carries &= carries - 1
        ends &= ends - 1
    return tuple(pairs)


def half_add(a: BitVector, b: BitVector) -> HalfAddState:
    """Tick 1: all sum and carry wires in parallel."""
    return HalfAddState(n=operand_width(a, b), s=a.value ^ b.value, c=a.value & b.value)


def find_firings(s: int, weight: int) -> int:
    """The carry-absorbing AND network's firing search, as an end word.

    The gate AND(i, j) that fires for set carry bit i sits at the lowest 0 of
    the wires `s` above i (wires above the top of `s` read 0). Adding the
    carries' weight word, bit i+1 for each carry i, turns exactly those 0
    wires into 1s, so bit j of the result is set for each fired gate. The
    callers hold that word already or need it again, so it is taken as is.
    """
    t = s + weight
    return t ^ (t & s)


def complement_segments(s: int, carries: int, ends: int) -> int:
    """Complement every fired segment s_{i+1}..s_j of `s` simultaneously.

    Pairing the carries and ends in ascending order, `half` = ends - carries
    is the segments' union one wire down, and the union is half << 1. It is
    checked against the gate definition on whole words: every end is a 0
    wire, every other complemented wire is a 1 wire whose upper neighbour is
    complemented too (its own wire is in `half`), and the segments start just
    above the carries (the wires of `half` that are not interior are the
    carries). Only the segments that run from each carry to the lowest 0
    above it, sharing no wire, pass, so any other end word is a model break.
    Read one wire down, the check and the flip share one shift.

    On non-negative words, two conjuncts of the first check reject no
    triple that the rest would pass. `half < 0` changes nothing: a negative
    half leaves infinitely many interior bits, which the interior test
    refuses with the same message. The upper-neighbour test `interior & s &
    half` only picks the message of some rejected triples: when `half` is
    not negative and the start check holds, the bottom wire of every run of
    `half` is a carry, so half + carries == ends carries each run into the
    wire above its top; the top wire of every run of the union is then an
    end, and every interior wire's upper neighbour is in the union.
    """
    half = ends - carries
    union = half << 1
    interior = union ^ (union & ends)
    if half < 0 or ends & s or interior & s & half != interior:
        raise ModelIntegrityError("a fired segment is not a run of 1 wires up to a 0 wire")
    if half ^ (half & interior) != carries:
        raise ModelIntegrityError("fired segments do not start just above their carries")
    return s ^ union


def fire_set(state: HalfAddState) -> FireSet:
    """Evaluate all N(N+1)/2 gates on the original wires."""
    return FireSet(width=state.n, carries=state.c, ends=find_firings(state.s, state.c << 1))


def absorb(s: int, c: int, n: int, layout: tuple[int, int, int]) -> tuple[int, int]:
    """Tick 2 on every lane of `layout`, its `wire_masks`: fire the gate
    network and complement all segments at once. Returns the resolved wires
    and the end word.

    The fire words pass `check_fire_words` in a cheaper order, with the
    same result or exception: the fits first, then the segments, and the
    count, two popcounts of the lane word, only where the segments fail,
    so that a count mismatch still raises its ValueError. A passing
    `complement_segments` implies equal counts. There, half = ends - carries
    is not negative, ends = half + carries, and the bits of `half` that are
    not interior are the carries, so every run of 1 bits of `half` starts at
    a carry (its bottom bit has no run bit below it, so is not interior).
    A run holding k carries, the lowest at its bottom, sums with them to k
    bits: the run plus its bottom carry is one bit just above the run's top,
    where no run lies, and the other k - 1 carries stay in place. Runs are
    apart, so ends holds one bit per carry.
    """
    weight = c << 1
    ends = find_firings(s, weight)
    check_fire_fit(n, c, ends, layout)
    try:
        total = complement_segments(s, c, ends)
    except ModelIntegrityError:
        check_fire_count(c, ends)
        raise
    if total != s + weight:
        raise ModelIntegrityError("carry absorption changed the running total")
    return total, ends


def resolve(state: HalfAddState) -> ResolveResult:
    """Tick 2 of one half-added state."""
    total, _ = absorb(state.s, state.c, state.n, wire_masks(state.n))
    return ResolveResult(BitVector(state.n + 1, total), FLASH_ADD_TICKS)


def flash_lanes(a: int, b: int, n: int, lanes: int = 1) -> tuple[int, int, int]:
    """The two ticks on `lanes` pairs of n-bit operands packed at
    `lane_stride(n)`. Returns the resolved wires (each lane's carry out on
    its wire n), the carry word and the end word, all in the same lanes.
    Operands that pass `check_operands` give wires that pass `check_wires`:
    a ^ b and a & b fit n wires and are never high on the same index."""
    layout = wire_masks(n, lanes)
    stride, fit, _ = layout
    check_operands(a, b, n, fit, stride, lanes)
    s, c = a ^ b, a & b  # tick 1: all sum and carry wires in parallel
    total, ends = absorb(s, c, n, layout)
    return total, c, ends


def flash_add(a: BitVector, b: BitVector) -> ResolveResult:
    """Two-tick N-bit addition; the result's top bit is the carry out."""
    n = operand_width(a, b)
    return ResolveResult(BitVector(n + 1, flash_lanes(a.value, b.value, n)[0]), FLASH_ADD_TICKS)


def block_parity_masks(width: int, block_width: int, lanes: int = 1) -> tuple[int, int]:
    """The wires of the even and of the odd `block_width`-bit blocks of
    every lane of `width`-bit values, for `pair_leaf_blocks`. In a lane the
    even blocks are the low halves of 2 * `block_width`-bit spans, one more
    span than whole pairs when the block count is odd."""
    if block_width % 2 or width % block_width:
        raise ValueError(f"{width} bits do not split into even {block_width}-bit blocks")
    pair = 2 * block_width
    even = lane_mask(block_width, pair, -(-width // pair))
    ones = lane_mask(1, lane_stride(width), lanes)
    return even * ones, (((1 << width) - 1) ^ even) * ones


def pair_leaf_blocks(
    x: int, y: int, pair_tops: int, parities: tuple[tuple[int, int], tuple[int, int]]
) -> tuple[int, int]:
    """Ticks 1-2 of the pair-leaf network: add x and y inside every block,
    returning the resolved sum wires and the carry word, each block's carry
    out at the bit just above its top, its weight. `pair_tops` is the top
    bit of every 2-bit pair of the words, `block_tops(width, 2)`.

    `parities` is the wires of the even and of the odd blocks, each block an
    even number of wires from an even wire, no two of one parity adjacent,
    each beside the same mask one wire up (`weighted`): `block_parity_masks`
    for equal blocks in every lane, or the double-width adder's two halves
    in every lane.

    Tick 1 pair-adds all bit couples through the 16-entry lookup units. Tick 2
    runs the carry-absorbing AND network on the pair sums, each pair's carry
    standing on the pair's top wire: once on the even blocks and once on the
    odd blocks. The wires of the other parity read 0, so every segment stops
    at its block's top, and an end just above the top is the block's carry
    out.
    """
    # tick 1: pair-leaf initialization, the 16-entry lookups as one blockwise add
    s_val, carried_weight = blockwise_add(x, y, pair_tops)
    total = x + y
    if s_val + carried_weight != total:
        raise ModelIntegrityError("pair-leaf initialization lost value")

    # tick 2: the network inside every block; pair p's carry, of weight
    # 2**(2p+2), stands on wire 2p+1. Bit 0 of the carried weight is 0, so
    # its bits under a parity one wire up are that parity's carries' weight.
    carries = carried_weight >> 1
    resolved = carry_weight = 0
    for mask, up in parities:
        s, c = s_val & mask, carries & mask
        blocks = complement_segments(s, c, find_firings(s, carried_weight & up))
        inside = blocks & mask
        resolved |= inside
        carry_weight |= blocks ^ inside
    if resolved + carry_weight != total:
        raise ModelIntegrityError("in-block resolution lost value")
    return resolved, carry_weight


def weighted(masks: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Each mask beside itself one wire up, as `pair_leaf_blocks` takes its
    parities."""
    return tuple((mask, mask << 1) for mask in masks)


@lru_cache
def double_width_masks(
    n: int, lanes: int = 1
) -> tuple[int, int, int, int, int, int, int, int, tuple]:
    """The double-width adder's layout for N-bit halves in lanes at
    `lane_stride(2 * n)`: the stride, every lane's 2N operand bits, the
    pair tops, then every lane's bit 0, its n low wires, its low padded
    half block, the wire just above that block (its carry out), its n+1 low
    wires, and the wires of its low and of its high half block, `weighted`,
    the pair-leaf network's parities. A lane holds both half blocks and the
    high one's carry out. Below N = 1 the masks hold no bits, so that the
    kernel's operand check names the width."""
    bw, stride = max(n + (n & 1), 0), lane_stride(2 * n)
    operands, ones, low_half, block, fit = (
        lane_mask(bits, stride, lanes) for bits in (2 * n, 1, n, bw, n + 1)
    )
    pair_tops = block_tops(stride * lanes, 2)
    parities = weighted((block, block << bw))
    return stride, operands, pair_tops, ones, low_half, block, ones << bw, fit, parities


def double_width_lanes(x: int, y: int, n: int, lanes: int = 1) -> tuple[int, int]:
    """Add 2N-bit values as parallel N-bit halves plus one cross carry, on
    `lanes` pairs packed at `lane_stride(2 * n)`, as the adder and the
    multiplier's final add pack them.

    Ticks 1-2 run the pair-leaf network with each lane's two halves as its
    two blocks; an odd half gets one zero top wire, so no pair straddles the
    halves. Tick 3 folds the low half's carry-out into the high half's N+1
    result bits. The latency is three ticks whether or not the cross carry
    fires. Returns the 2N+1-bit sums and the cross carries, one on each
    lane's bit 0, both in the operands' lanes.
    """
    stride, operands, pair_tops, ones, low_half, block, tops, fit, parities = (
        double_width_masks(n, lanes)
    )
    check_operands(x, y, 2 * n, operands, stride, lanes)
    bw = n + (n & 1)
    if n & 1:  # move each high half up one wire by adding it to itself
        x, y = x + (x ^ (x & low_half)), y + (y ^ (y & low_half))
    wires, carry_weight = pair_leaf_blocks(x, y, pair_tops, parities)
    # each half's N+1 sum wires: its block's wires and its carry out on top
    low = (wires & block) | (carry_weight & tops)
    high = ((wires >> bw) & block) | ((carry_weight >> bw) & tops)
    both = low | high
    if both & fit != both:
        raise ModelIntegrityError("a half's sum does not fit its n+1 wires")
    cross = (low >> n) & ones
    mask = increment_mask(high, cross)  # only where a cross carry fires
    if mask & fit != mask:
        raise ModelIntegrityError("cross-carry increment escaped the high half")
    return ((high ^ mask) << n) | (low & low_half), cross


def double_width_add(
    a_lo: BitVector, a_hi: BitVector, b_lo: BitVector, b_hi: BitVector
) -> ResolveResult:
    """Add two 2N-bit values given as N-bit halves; see `double_width_lanes`."""
    n = a_lo.width
    for name, vec in (("a_hi", a_hi), ("b_lo", b_lo), ("b_hi", b_hi)):
        if vec.width != n:
            raise ValueError(f"{name} must be {n} bits wide, got {vec.width}")
    a, b = a_lo.value | (a_hi.value << n), b_lo.value | (b_hi.value << n)
    total = double_width_lanes(a, b, n)[0]
    return ResolveResult(BitVector(2 * n + 1, total), DOUBLE_WIDTH_TICKS)


def is_power_of_four(n: int) -> bool:
    """True when n is 4**k for some k >= 0."""
    return n > 0 and n & (n - 1) == 0 and (n.bit_length() - 1) % 2 == 0


@lru_cache
def blocked_shape(width: int, lanes: int = 1) -> tuple[int, int, int, int, tuple]:
    """The blocked adder's layout on `lanes` lanes of 2N-bit operands: the
    stride, the block width, 2 * sqrt(N) bits, every lane's operand bits,
    the pair tops and the blocks' `block_parity_masks`, `weighted`; a
    failed check caches nothing."""
    if width % 2:
        raise ValueError(f"operand width must be even, got {width}")
    half = width // 2
    if not is_power_of_four(half):
        raise ValueError(f"half-width {half} must be a power of four")
    stride, bw = lane_stride(width), width // isqrt(half)
    fit, pair_tops = lane_mask(width, stride, lanes), block_tops(stride * lanes, 2)
    return stride, bw, fit, pair_tops, weighted(block_parity_masks(width, bw, lanes))


def blocked_lanes(a: int, b: int, width: int, lanes: int = 1) -> tuple[int, int]:
    """Add 2N-bit values in three ticks via sqrt(N) equal blocks, on `lanes`
    pairs packed at `lane_stride(width)`.

    Ticks 1-2 are the pair-leaf network inside each block; a segment that
    reaches the block top is the block's carry out. Tick 3 runs the network
    once more over the whole lane, with the block carries at the block tops.
    N must be a power of four so the block count sqrt(N) is a power of two
    and blocks divide the width evenly. Returns the width+1-bit sums and the
    block carries' word, block k's carry at bit (k+1) * block width of its
    lane.
    """
    stride, _, fit, pair_tops, parities = blocked_shape(width, lanes)
    check_operands(a, b, width, fit, stride, lanes)
    wires, carry_weight = pair_leaf_blocks(a, b, pair_tops, parities)

    # tick 3: the network across blocks, the firing search on the block
    # carries' weight word as it comes (its bit 0 is in the first block, so
    # never a carry); the top block's carry lands on the overflow bit
    block_tops = carry_weight >> 1
    total = complement_segments(wires, block_tops, find_firings(wires, carry_weight))
    if total != a + b:
        raise ModelIntegrityError("cross-block resolution lost value")
    return total, carry_weight


def blocked_add(a: BitVector, b: BitVector) -> ResolveResult:
    """Add two 2N-bit values; see `blocked_lanes`."""
    width = operand_width(a, b)
    total = blocked_lanes(a.value, b.value, width)[0]
    return ResolveResult(BitVector(width + 1, total), BLOCKED_TICKS)
