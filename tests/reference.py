"""Single-circuit references that the tests hold the kernels against.

Each is one of the paper's circuits written the slow way, gate by gate,
segment by segment or entry by entry: the 16-entry pair-add lookup, one
gate AND(i, j) of the carry-absorbing network and its complement segment,
the segments applied one at a time, the one-tick add of 2**i, the
per-column counts a quantizer digitizes, and a one-pair multiplier written
the same way: shifted rows, gate-level 3:2 triples and column-count
quantizer stages under either schedule. The package runs none of them.
"""

from arithsim.bitvec import BitVector, increment_mask
from arithsim.flash import HalfAddState, ResolveResult
from arithsim.multiplier import Schedule, ScheduleReport, StageKind, StageRecord

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


def column_counts(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Per-column 1-bit counts, the quantity a quantizer stage digitizes."""
    return tuple(sum((row >> p) & 1 for row in rows) for p in range(width))


def reference_multiply(
    a: int, b: int, n: int, schedule: Schedule
) -> tuple[tuple[int, ...], ScheduleReport, int]:
    """One pair of n-bit operands multiplied the slow way: the two rows left
    after `schedule`'s stages, the stages' report and the product.

    Row i is a << i where b_i is set, else a zero row. A 3:2 stage maps each
    triple x, y, z, first to last, to x ^ y ^ z and the shifted majority,
    and passes the stragglers through. A quantizer stage counts each column
    of its consumed rows and puts bit q of column p's count at column p + q
    of row q; schedule B leaves the last row out of a power-of-two count,
    and finishes three rows with a 3:2 stage as schedule A does throughout.
    """
    width = 2 * n
    rows = [(a << i) if b >> i & 1 else 0 for i in range(n)]
    stages = []
    while (count := len(rows)) > 2:
        if schedule is Schedule.A or count == 3:
            out = []
            for t in range(0, count - 2, 3):
                x, y, z = rows[t : t + 3]
                out += [x ^ y ^ z, (x & y | x & z | y & z) << 1]
            out += rows[count - count % 3 :]
            stage = StageRecord(StageKind.CSA_3_2, count, len(out), count % 3, count // 3)
        else:
            left_out = int(count & (count - 1) == 0)
            consumed = rows[: count - left_out]
            counts = column_counts(consumed, width)
            out = [sum((counts[p] >> q & 1) << (p + q) for p in range(width))
                   for q in range(len(consumed).bit_length())]
            out += rows[count - left_out :]
            stage = StageRecord(StageKind.QUANTIZER, count, len(out), left_out, width)
        rows = out
        stages.append(stage)
    return tuple(rows), ScheduleReport(tuple(stages)), rows[0] + rows[1]
