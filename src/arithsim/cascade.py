"""Cascade adder: a 2**k-bit addition finished in k clock ticks.

Tick 1 adds the operands two bits at a time through 16-entry lookup units,
leaving one saved carry per two-bit block. Each later tick glues adjacent
blocks: the even block's carry drives a single-tick increment unit on the odd
block, halving the number of blocks until one sum and one carry remain.

Every state retains the original operands so the block-sum balance

    carry_i * 2**w + sum_block_i == a_block_i + b_block_i      (w = block width)

can be re-checked at every level; states that break it cannot be constructed.
All functions are pure and all values immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitvec import BitVector, ModelIntegrityError, increment_mask

LEAF_TICKS = 1
STEP_TICKS = 1

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
    carry each; the operands ride along purely for invariant checking.
    """

    k: int
    level: int
    sums: BitVector
    carries: tuple[int, ...]
    a: BitVector
    b: BitVector

    def __post_init__(self) -> None:
        width = 1 << self.k
        if not 1 <= self.level <= self.k:
            raise ValueError(f"level {self.level} outside 1..{self.k}")
        for name, vec in (("sums", self.sums), ("a", self.a), ("b", self.b)):
            if vec.width != width:
                raise ValueError(f"{name} must be {width} bits wide, got {vec.width}")
        if len(self.carries) != 1 << (self.k - self.level):
            raise ValueError(
                f"level {self.level} needs {1 << (self.k - self.level)} carries, "
                f"got {len(self.carries)}"
            )
        if any(c not in (0, 1) for c in self.carries):
            raise ValueError("carries must be 0 or 1")
        self._check_block_sums()

    def _check_block_sums(self) -> None:
        w = 1 << self.level
        mask = (1 << w) - 1
        for i, carry in enumerate(self.carries):
            shift = i * w
            s_blk = (self.sums.value >> shift) & mask
            a_blk = (self.a.value >> shift) & mask
            b_blk = (self.b.value >> shift) & mask
            if (carry << w) + s_blk != a_blk + b_blk:
                raise ModelIntegrityError(
                    f"block-sum balance broken at level {self.level}, block {i}"
                )
            if carry and s_blk > mask - 1:
                # a block that carried out cannot also be saturated
                raise ModelIntegrityError(
                    f"saturation bound broken at level {self.level}, block {i}"
                )

    def block_values(self) -> tuple[int, ...]:
        """Sum-block values at this level, lowest block first."""
        w = 1 << self.level
        mask = (1 << w) - 1
        return tuple(
            (self.sums.value >> (i * w)) & mask for i in range(len(self.carries))
        )


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


def _pair_add_leaves(a: int, b: int, width: int) -> tuple[int, tuple[int, ...]]:
    """One tick of 16-entry lookups over every bit pair of two even-width
    values: returns the two-bit pair sums packed into one word and the
    pair carries, lowest pair first."""
    sums = 0
    carries = []
    for i in range(width // 2):
        index = ((a >> (2 * i)) & 3) | (((b >> (2 * i)) & 3) << 2)
        pair_sum, carry = PAIR_ADD_TABLE[index]
        sums |= pair_sum << (2 * i)
        carries.append(carry)
    return sums, tuple(carries)


def leaf_init(a: BitVector, b: BitVector) -> CascadeState:
    """Tick 1: add all bit pairs through the 16-entry lookup units."""
    if a.width != b.width:
        raise ValueError(f"operand widths differ: {a.width} vs {b.width}")
    width = a.width
    if width < 2 or width & (width - 1):
        raise ValueError(f"width must be a power of two >= 2, got {width}")
    sums, carries = _pair_add_leaves(a.value, b.value, width)
    return CascadeState(
        k=width.bit_length() - 1,
        level=1,
        sums=BitVector(width, sums),
        carries=carries,
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
    """One tick: absorb every even block's carry into its odd neighbour."""
    if state.level >= state.k:
        raise ValueError(f"cascade already complete at level {state.k}")
    w = 1 << state.level
    mask = (1 << w) - 1
    pairs = len(state.carries) // 2
    sums = 0
    carries = []
    for i in range(pairs):
        even = (state.sums.value >> (2 * i * w)) & mask
        odd = (state.sums.value >> ((2 * i + 1) * w)) & mask
        word, carry = increment_unit(
            BitVector(w, odd), state.carries[2 * i + 1], state.carries[2 * i]
        )
        sums |= (even | (word.value << w)) << (2 * i * w)
        carries.append(carry)
    return CascadeState(
        k=state.k,
        level=state.level + 1,
        sums=BitVector(state.sums.width, sums),
        carries=tuple(carries),
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
    return CascadeResult(sum=state.sums, carry=state.carries[0], trace=trace)
