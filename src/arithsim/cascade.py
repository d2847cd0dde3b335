"""Cascade adder: a 2**k-bit addition finished in k clock ticks.

Tick 1 adds the operands two bits at a time through 16-entry lookup units,
leaving one saved carry per two-bit block. Each later tick glues adjacent
blocks: the even block's carry drives a single-tick increment unit on the odd
block, halving the number of blocks until one sum and one carry remain. So
level l holds a + b added inside 2**l-bit blocks, each tick is one call of
`bitvec.blockwise_add`, and the saved carries form one word, block i's carry
at bit (i+1)*w, its weight.

The ticks run on words: the lane kernel `cascade_lanes` runs tick 1, whose
level `leaf_init` returns, and `cascade_step` maps one level's (sums, carry
word) to the next. After every tick `cascade_lanes` re-checks the block-sum
balance

    carry_i * 2**w + sum_block_i == a_block_i + b_block_i      (w = block width)

against the original operands, without the kernel; a level that breaks it is
a model break. The trace keeps every level's words; `level_records` formats
them. `CascadeState` is a checked view of one level, which the kernel never
builds. All functions are pure and all values immutable.

The kernel runs K additions side by side: the operands are packed at
`bitvec.lane_stride`, and each level's block masks are one lane's blocks
repeated at the stride, so every lane's blocks and saved carries stay
inside the lane, its top carry in the padding byte. The kernel takes them
all from one cached `cascade_layout` and hands each step and check its
level's masks. `cascade_add` is its K = 1 call.
"""

from __future__ import annotations

from functools import lru_cache

from .bitvec import (
    BitVector,
    ModelIntegrityError,
    Record,
    _set,
    block_bottoms,
    block_carries,
    block_tops,
    blockwise_add,
    check_operands,
    increment_mask,
    lane_mask,
    lane_stride,
    misfit,
    operand_width,
)


def level_masks(width: int, level: int, lanes: int = 1) -> tuple[int, int, int]:
    """A level's masks on `lanes` lanes of `width`-bit values: the value
    bits, the block bottoms and the saved carries' bits, block i's at
    (i+1)*2**level, each one lane's bits repeated at `lane_stride(width)`."""
    stride = lane_stride(width)
    bottoms = block_bottoms(width, 1 << level) * lane_mask(1, stride, lanes)
    return lane_mask(width, stride, lanes), bottoms, bottoms << (1 << level)


@lru_cache
def cascade_layout(width: int, lanes: int = 1) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """Everything `cascade_lanes` masks with, on `lanes` lanes of
    `width`-bit values: the stride, the leaf lookups' 2-bit block tops, and
    `level_masks` of every level, level 1 first."""
    stride = lane_stride(width)
    levels = tuple(level_masks(width, level, lanes) for level in range(1, width.bit_length()))
    return stride, block_tops(stride * lanes, 2), levels


@lru_cache
def special_and_gates(k: int) -> int:
    """Special AND gates the k-level cascade allocates."""
    return sum(step_gate_count(k, level) for level in range(1, k))


class CascadeState(Record):
    """A view of the sums and saved carries after some level of the cascade.

    Level l partitions the width into blocks of 2**l bits with one saved
    carry each, block i's at bit (i+1)*2**l of `carry_word`; the operands
    ride along purely for invariant checking. The cascade itself runs on the
    words and checks them with `_check_block_sums`, the check a view runs
    when it is built.
    """

    __slots__ = ("k", "level", "sums", "carry_word", "a", "b")

    def __init__(
        self, k: int, level: int, sums: BitVector, carry_word: int, a: BitVector, b: BitVector
    ) -> None:
        _set(self, "k", k)
        _set(self, "level", level)
        _set(self, "sums", sums)
        _set(self, "carry_word", carry_word)
        _set(self, "a", a)
        _set(self, "b", b)
        self.__post_init__()

    def __post_init__(self) -> None:
        width = 1 << self.k
        for name, vec in (("sums", self.sums), ("a", self.a), ("b", self.b)):
            if vec.width != width:
                raise ValueError(f"{name} must be {width} bits wide, got {vec.width}")
        a, b = self.a.value, self.b.value
        CascadeState._check_block_sums(
            self.k, self.level, self.sums.value, self.carry_word, a ^ b, a & b,
            cascade_layout(width)[2],
        )

    @staticmethod
    def _check_block_sums(
        k: int, level: int, sums: int, carry_word: int, half: int, both: int,
        masks: tuple[tuple[int, int, int], ...], lanes: int = 1,
    ) -> None:
        """The level check on the words of every lane: the level range, the
        sums' range, the carry positions and the block-sum balance, given the
        operands' a ^ b and a & b, which `cascade_lanes` builds once per add
        from operands that `check_operands` has passed, and every level's
        `level_masks`, level 1 first, as its `cascade_layout` holds them.

        The balance is checked bit by bit and without the kernel: s ^ a ^ b is
        each bit's carry in. None may enter a block bottom; the rest, like the
        saved carries, are the majority of the a, b and carry-in bits below
        them.
        """
        if not 1 <= level <= k:
            raise ValueError(f"level {level} outside 1..{k}")
        width, (fit, bottoms, slots) = 1 << k, masks[level - 1]
        if sums & fit != sums:
            raise ValueError(f"value {misfit(sums, fit, lane_stride(width), lanes)}"
                             f" does not fit in {width} bits")
        if carry_word & slots != carry_word:
            raise ValueError(f"level {level} carries must sit at bits (i+1)*{1 << level}")
        carry_in = sums ^ half
        # a broken rule marks a bit of its block: a carry into a bottom marks
        # that bit, and a carry out other than the carry in or saved carry
        # just above it marks the bit it came from; comparing them one bit
        # down takes one shift
        into_bottoms = carry_in & bottoms
        above = (carry_in ^ into_bottoms ^ carry_word) >> 1
        broken = into_bottoms | (both | half & carry_in) ^ above
        if broken:
            block = ((broken & -broken).bit_length() - 1) % lane_stride(width) >> level
            raise ModelIntegrityError(f"block-sum balance broken at level {level}, block {block}")


class CascadeTrace(Record):
    """All intermediate levels of one addition, kept for inspection: the
    operands and each level's (sums, carry word), level 1 first, one tick
    each."""

    __slots__ = ("a", "b", "levels")

    def __init__(self, a: BitVector, b: BitVector, levels: tuple[tuple[int, int], ...]) -> None:
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "levels", levels)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("trace needs at least the leaf state")
        if len(self.levels) != self.a.width.bit_length() - 1:
            raise ValueError("trace must cover all k levels at one tick each")

    @property
    def ticks(self) -> int:
        return len(self.levels)


def level_records(levels, width: int) -> list[dict[str, object]]:
    """One serializable record per (sums, carry word) level of one addition."""
    digits = "0{}x".format((width + 3) // 4)
    return [
        dict(level=level, sums=format(sums, digits),
             carries=list(block_carries(word, width, 1 << level)))
        for level, (sums, word) in enumerate(levels, start=1)
    ]


class CascadeResult(Record):
    __slots__ = ("sum", "carry", "trace")

    def __init__(self, sum: BitVector, carry: int, trace: CascadeTrace) -> None:
        _set(self, "sum", sum)
        _set(self, "carry", carry)
        _set(self, "trace", trace)


def leaf_init(a: BitVector, b: BitVector) -> tuple[int, int]:
    """Tick 1: add all bit pairs through the 16-entry lookup units, giving
    level 1's sums and carry word; the first level of `cascade_lanes`."""
    return cascade_lanes(a.value, b.value, operand_width(a, b))[0]


def increment_unit(word: BitVector, high_carry: int, inc: int) -> tuple[BitVector, int]:
    """Add `inc` to the (width+1)-bit value high_carry|word in one tick.

    One AND gate per position (width + 1 in total) detects the lowest 0 bit
    above an unbroken run of 1s; complementing the run and that bit realizes
    the increment. A word that is saturated while holding a high carry would
    have nowhere to absorb the increment, but the block-sum balance makes
    that state impossible, so it is rejected as model breakage.
    """
    if high_carry not in (0, 1):
        raise ValueError("high_carry must be 0 or 1")
    if inc not in (0, 1):
        raise ValueError("inc must be 0 or 1")
    w = word.width
    if high_carry and word.value > (1 << w) - 2:
        raise ModelIntegrityError("saturated word cannot hold a high carry")
    if not inc:
        return word, high_carry
    full = word.value | (high_carry << w)
    full ^= increment_mask(full, 1)  # the run stops at or below bit w by the saturation bound
    return BitVector(w, full & ((1 << w) - 1)), full >> w


def cascade_step(
    sums: int, carry_word: int, width: int, level: int, masks: tuple[tuple[int, int, int], ...]
) -> tuple[int, int]:
    """One tick from `level` to the next, on the lanes of `masks`, every
    level's `level_masks` as `cascade_layout` holds them: absorb every even
    block's carry, which sits on its odd neighbour's bottom bit, into that
    neighbour, all pairs in one blockwise add.

    The odd blocks' carries sit at the next level's slots, so they are
    `carry_word` under that level's cached mask and the even ones are the
    rest. That is exact for a carry word inside this level's slots, which is
    every word `cascade_lanes` hands over, since this level's check rejects
    any other; a stray bit outside the slots counts as an even carry and is
    added into the sums."""
    w = 1 << level
    if w >= width:
        raise ValueError(f"cascade already complete at level {width.bit_length() - 1}")
    _, pairs, odd_slots = masks[level]  # the next level's, the 2w-bit blocks
    odd_carries = carry_word & odd_slots
    sums, overflow = blockwise_add(sums, carry_word ^ odd_carries, pairs << (2 * w - 1))
    if overflow & odd_carries:
        raise ModelIntegrityError("saturated word cannot hold a high carry")
    return sums, overflow | odd_carries


def step_gate_count(k: int, level: int) -> int:
    """Special AND gates allocated by the step leaving `level`: one increment
    unit of 2**level + 1 gates per block pair."""
    return (1 << (k - level - 1)) * ((1 << level) + 1)


def cascade_lanes(a: int, b: int, width: int, lanes: int = 1) -> list[tuple[int, int]]:
    """Add `lanes` pairs of 2**k-bit operands packed at `lane_stride(width)`
    in k ticks, re-checking every level. Returns each level's (sums, carry
    word) in the same lanes; the last carry word holds each lane's carry out
    at bit `width` of the lane."""
    if width < 2 or width & (width - 1):
        raise ValueError(f"width must be a power of two >= 2, got {width}")
    stride, leaf_tops, masks = cascade_layout(width, lanes)
    check_operands(a, b, width, masks[0][0], stride, lanes)
    k = len(masks)
    check, half, both = CascadeState._check_block_sums, a ^ b, a & b
    # tick 1: the leaf lookups, on two-bit blocks tiled across every lane
    sums, carry_word = blockwise_add(a, b, leaf_tops)
    check(k, 1, sums, carry_word, half, both, masks, lanes)
    levels = [(sums, carry_word)]
    for level in range(1, k):
        sums, carry_word = cascade_step(sums, carry_word, width, level, masks)
        check(k, level + 1, sums, carry_word, half, both, masks, lanes)
        levels.append((sums, carry_word))
    return levels


def cascade_add(a: BitVector, b: BitVector) -> CascadeResult:
    """Add two 2**k-bit vectors in k ticks; see `cascade_lanes`."""
    width = operand_width(a, b)
    levels = cascade_lanes(a.value, b.value, width)
    trace = CascadeTrace(a, b, tuple(levels))
    sums, carry_word = levels[-1]
    return CascadeResult(sum=BitVector(width, sums), carry=carry_word >> width, trace=trace)
