"""Single-circuit references that the tests hold the kernels against.

Each is one of the paper's circuits written the slow way, gate by gate,
segment by segment or entry by entry: the 16-entry pair-add lookup, one
gate AND(i, j) of the carry-absorbing network and its complement segment,
the segments applied one at a time, the one-tick add of 2**i, and the
per-column counts a quantizer digitizes. The package runs none of them.
"""

from arithsim.bitvec import BitVector, increment_mask
from arithsim.flash import HalfAddState, ResolveResult
from arithsim.multiplier import RowSet

# 16-entry lookup programmed with two-bit addition: the table index packs the
# operand bit pairs, the entry holds (two sum bits, carry). This stands in for
# the programmable logic array that computes all leaf sums in one tick.
PAIR_ADD_TABLE: tuple[tuple[int, int], ...] = tuple(
    (((index & 3) + (index >> 2)) & 3, ((index & 3) + (index >> 2)) >> 2)
    for index in range(16)
)


def sc_and(state: HalfAddState, i: int, j: int) -> int:
    """Evaluate the single gate AND(i, j) on the unresolved wires."""
    n = state.n
    if not 0 <= i < j <= n:
        raise ValueError(f"gate indices need 0 <= i < j <= {n}, got ({i}, {j})")
    if (state.s >> j) & 1:
        return 0
    between = ((1 << (j - i - 1)) - 1) << (i + 1)  # s_{i+1} .. s_{j-1}
    if state.s & between != between:
        return 0
    return (state.c >> i) & 1


def segment_mask(i: int, j: int) -> int:
    """Bit mask of the complement segment s_{i+1}..s_j for firing (i, j)."""
    return ((1 << (j - i)) - 1) << (i + 1)


def apply_firings_sequentially(s: int, firings, order: list[int] | None = None) -> int:
    """Complement the fired segments of the sum wires `s` one at a time,
    optionally permuted.

    Disjointness makes the order irrelevant; tests lean on that.
    """
    pairs = list(firings)
    if order is not None:
        pairs = [pairs[t] for t in order]
    for i, j in pairs:
        s ^= segment_mask(i, j)
    return s


def increment_by_pow2(x: BitVector, i: int) -> ResolveResult:
    """Add 2**i to an N-bit vector in one tick; result is N+1 bits wide.

    The trailing-ones detector finds the lowest j >= i with bit j clear
    (position N counts as a cleared overflow bit) and the circuit complements
    positions i..j simultaneously.
    """
    n = x.width
    if not 0 <= i < n:
        raise ValueError(f"increment index {i} out of range for width {n}")
    result = x.value ^ increment_mask(x.value, 1 << i)  # bit n is implicitly 0
    return ResolveResult(sum=BitVector(n + 1, result), ticks=1)


def column_counts(rows: RowSet) -> tuple[int, ...]:
    """Per-column 1-bit counts, the quantity a quantizer stage digitizes."""
    return tuple(
        sum((row >> p) & 1 for row in rows.rows) for p in range(rows.width)
    )
