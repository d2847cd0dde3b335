"""Cascade adder: a 2**k-bit addition finished in k clock ticks.

Tick 1 adds the operands two bits at a time through 16-entry lookup units,
leaving one saved carry per two-bit block. Each later tick glues adjacent
blocks: the even block's carry drives a single-tick increment unit on the odd
block, halving the number of blocks until one sum and one carry remain. So
level l holds a + b added inside 2**l-bit blocks, each tick is one call of
`bitvec.blockwise_add`, and the saved carries form one word, block i's carry
at bit (i+1)*w, its weight.

Every state retains the original operands so the block-sum balance

    carry_i * 2**w + sum_block_i == a_block_i + b_block_i      (w = block width)

can be re-checked at every level, without the kernel; states that break it
cannot be constructed. All functions are pure and all values immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitvec import BitVector, ModelIntegrityError, block_bottoms, blockwise_add, increment_mask

# 16-entry lookup programmed with two-bit addition: the table index packs the
# operand bit pairs, the entry holds (two sum bits, carry). This stands in for
# the programmable logic array that computes all leaf sums in one tick.
PAIR_ADD_TABLE: tuple[tuple[int, int], ...] = tuple(
    (((index & 3) + (index >> 2)) & 3, ((index & 3) + (index >> 2)) >> 2)
    for index in range(16)
)


@dataclass(frozen=True)
class CascadeState:
    """Sums and saved carries after some level of the cascade.

    Level l partitions the width into blocks of 2**l bits with one saved
    carry each, block i's at bit (i+1)*2**l of `carry_word`; the operands
    ride along purely for invariant checking.
    """

    k: int
    level: int
    sums: BitVector
    carry_word: int
    a: BitVector
    b: BitVector

    def __post_init__(self) -> None:
        width = 1 << self.k
        if not 1 <= self.level <= self.k:
            raise ValueError(f"level {self.level} outside 1..{self.k}")
        for name, vec in (("sums", self.sums), ("a", self.a), ("b", self.b)):
            if vec.width != width:
                raise ValueError(f"{name} must be {width} bits wide, got {vec.width}")
        w = 1 << self.level
        if self.carry_word & ~(block_bottoms(width, w) << w):
            raise ValueError(f"level {self.level} carries must sit at bits (i+1)*{w}")
        self._check_block_sums()

    def _check_block_sums(self) -> None:
        """The balance, bit by bit and without the kernel: s ^ a ^ b is each
        bit's carry in. None may enter a block bottom; the rest, like the saved
        carries, are the majority of the a, b and carry-in bits below them."""
        w = 1 << self.level
        s, a, b = self.sums.value, self.a.value, self.b.value
        bottoms = block_bottoms(self.sums.width, w)
        carry_in = s ^ a ^ b
        carry_out = ((a & b) | ((a ^ b) & carry_in)) << 1
        # a broken rule marks a bit of its block: a carry into a bottom marks
        # that bit, a wrong carry out marks the bit it came from
        wrong_out = carry_out ^ (carry_in & ~bottoms) ^ self.carry_word
        broken = (carry_in & bottoms) | wrong_out >> 1
        if broken:
            block = ((broken & -broken).bit_length() - 1) >> self.level
            raise ModelIntegrityError(
                f"block-sum balance broken at level {self.level}, block {block}"
            )

    def _per_block(self, word: int) -> tuple[int, ...]:
        w = 1 << self.level
        mask = (1 << w) - 1
        return tuple((word >> (i * w)) & mask for i in range(1 << (self.k - self.level)))

    @property
    def carries(self) -> tuple[int, ...]:
        """The saved carries, lowest block first."""
        return self._per_block(self.carry_word >> (1 << self.level))

    def block_values(self) -> tuple[int, ...]:
        """Sum-block values at this level, lowest block first."""
        return self._per_block(self.sums.value)


@dataclass(frozen=True)
class CascadeTrace:
    """All intermediate levels of one addition, kept for inspection."""

    states: tuple[CascadeState, ...]
    ticks: int
    special_and_gates: int

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("trace needs at least the leaf state")
        k = self.states[0].k
        for offset, state in enumerate(self.states):
            if state.level != offset + 1 or state.k != k:
                raise ValueError("trace levels must ascend 1..k for a single width")
        if self.ticks != k or self.states[-1].level != k:
            raise ValueError("trace must cover all k levels at one tick each")

    def to_records(self) -> list[dict[str, object]]:
        """One serializable record per level."""
        return [
            {
                "level": state.level,
                "sums": state.sums.to_hex(),
                "carries": list(state.carries),
            }
            for state in self.states
        ]


@dataclass(frozen=True)
class CascadeResult:
    sum: BitVector
    carry: int
    trace: CascadeTrace


def leaf_init(a: BitVector, b: BitVector) -> CascadeState:
    """Tick 1: add all bit pairs through the 16-entry lookup units."""
    if a.width != b.width:
        raise ValueError(f"operand widths differ: {a.width} vs {b.width}")
    width = a.width
    if width < 2 or width & (width - 1):
        raise ValueError(f"width must be a power of two >= 2, got {width}")
    sums, carry_word = blockwise_add(a.value, b.value, width, 2)
    return CascadeState(
        k=width.bit_length() - 1,
        level=1,
        sums=BitVector(width, sums),
        carry_word=carry_word,
        a=a,
        b=b,
    )


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
    full ^= increment_mask(full)  # the run stops at or below bit w by the saturation bound
    return BitVector(w, full & ((1 << w) - 1)), full >> w


def cascade_step(state: CascadeState) -> CascadeState:
    """One tick: absorb every even block's carry, which sits on its odd
    neighbour's bottom bit, into that neighbour, all pairs in one blockwise add."""
    if state.level >= state.k:
        raise ValueError(f"cascade already complete at level {state.k}")
    w = 1 << state.level
    width = state.sums.width
    even_carries = state.carry_word & (block_bottoms(width, 2 * w) << w)
    sums, overflow = blockwise_add(state.sums.value, even_carries, width, 2 * w)
    odd_carries = state.carry_word ^ even_carries
    if overflow & odd_carries:
        raise ModelIntegrityError("saturated word cannot hold a high carry")
    return CascadeState(
        k=state.k,
        level=state.level + 1,
        sums=BitVector(width, sums),
        carry_word=overflow | odd_carries,
        a=state.a,
        b=state.b,
    )


def step_gate_count(k: int, level: int) -> int:
    """Special AND gates allocated by the step leaving `level`: one increment
    unit of 2**level + 1 gates per block pair."""
    return (1 << (k - level - 1)) * ((1 << level) + 1)


def cascade_add(a: BitVector, b: BitVector) -> CascadeResult:
    """Add two 2**k-bit vectors in k ticks, re-checking every level."""
    state = leaf_init(a, b)
    states = [state]
    gates = 0
    for _ in range(state.k - 1):
        gates += step_gate_count(state.k, state.level)
        state = cascade_step(state)
        states.append(state)
    trace = CascadeTrace(tuple(states), ticks=state.k, special_and_gates=gates)
    return CascadeResult(sum=state.sums, carry=state.carry_word >> state.sums.width, trace=trace)
