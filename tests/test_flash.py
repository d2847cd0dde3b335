import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithsim.bitvec import BitVector, ModelIntegrityError, blockwise_add, increment_mask
from arithsim.flash import (
    FireSet,
    HalfAddState,
    apply_firings_sequentially,
    blocked_add,
    complement_segments,
    double_width_add,
    find_firings,
    fire_set,
    flash_add,
    half_add,
    increment_by_pow2,
    pair_leaf_blocks,
    resolve,
    sc_and,
    segment_mask,
)


def test_half_add_5_plus_3():
    state = half_add(BitVector(4, 5), BitVector(4, 3))
    assert state.s == 0b00110
    assert state.c == 0b0001
    assert state.total() == 8


def test_half_add_6_plus_6():
    state = half_add(BitVector(4, 6), BitVector(4, 6))
    assert state.s == 0
    assert state.c == 0b0110


def test_half_add_identity():
    state = half_add(BitVector(4, 9), BitVector(4, 0))
    assert state.s == 9
    assert state.c == 0


def test_half_add_top_sum_wire_is_clear():
    state = half_add(BitVector(4, 15), BitVector(4, 15))
    assert state.s < 1 << 5
    assert (state.s >> 4) & 1 == 0


def test_half_add_state_checks_its_wires():
    for n, s, c, message in (
        (0, 0, 0, "width must be positive"),
        (4, 1 << 5, 0, "wire widths"),
        (4, -1, 0, "wire widths"),
        (4, 0, 1 << 4, "wire widths"),
        (4, 1 << 4, 0, "top sum wire"),
        (4, 0b0110, 0b0100, "overlap"),
    ):
        with pytest.raises(ValueError, match=message):
            HalfAddState(n=n, s=s, c=c)


def test_half_add_rejects_width_mismatch():
    with pytest.raises(ValueError):
        half_add(BitVector(4, 0), BitVector(8, 0))


def test_sc_and_examples():
    state = half_add(BitVector(4, 5), BitVector(4, 3))
    assert sc_and(state, 0, 3) == 1
    assert sc_and(state, 0, 4) == 0
    assert sc_and(state, 1, 2) == 0  # c1 = 0

    state66 = half_add(BitVector(4, 6), BitVector(4, 6))
    assert sc_and(state66, 1, 2) == 1
    assert sc_and(state66, 1, 3) == 0


def test_sc_and_rejects_bad_indices():
    state = half_add(BitVector(4, 5), BitVector(4, 3))
    with pytest.raises(ValueError):
        sc_and(state, 3, 3)
    with pytest.raises(ValueError):
        sc_and(state, 2, 1)
    with pytest.raises(ValueError):
        sc_and(state, 0, 5)


def test_fire_set_examples():
    assert tuple(fire_set(half_add(BitVector(4, 5), BitVector(4, 3)))) == ((0, 3),)
    doubled = fire_set(half_add(BitVector(4, 6), BitVector(4, 6)))
    assert (doubled.carries, doubled.ends) == (0b0110, 0b01100)
    assert doubled.firings == ((1, 2), (2, 3))
    assert len(doubled) == 2
    assert len(fire_set(half_add(BitVector(4, 5), BitVector(4, 0)))) == 0


def test_fire_set_gate_budget():
    for n in (1, 2, 4, 8, 16, 64):
        state = half_add(BitVector(n, 0), BitVector(n, 0))
        assert fire_set(state).gates_evaluated == n * (n + 1) // 2


def test_fire_set_matches_gatewise_evaluation(rng):
    # the production sweep skips gates it can prove dead; compare with the
    # plain quadratic evaluation of every sc_and
    for n in (4, 8, 16):
        for _ in range(300):
            state = half_add(
                BitVector(n, rng.getrandbits(n)), BitVector(n, rng.getrandbits(n))
            )
            fired = set(fire_set(state))
            naive = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n + 1)
                if sc_and(state, i, j)
            }
            assert fired == naive


def test_fire_set_structure_exhaustive_n4():
    for a in range(16):
        for b in range(16):
            state = half_add(BitVector(4, a), BitVector(4, b))
            firings = fire_set(state)
            assert {i for i, _ in firings} == {
                i for i in range(4) if (state.c >> i) & 1
            }
            union = 0
            for i, j in firings:
                seg = segment_mask(i, j)
                assert union & seg == 0
                union |= seg
                for mid in range(i + 1, j):
                    assert (state.c >> mid) & 1 == 0  # dead zone


def test_fireset_type_rejects_overlap():
    # word forms of ((0, 3), (2, 4)), ((1, 2), (0, 3)) and ((3, 3),): no wires
    # make any of them the gate network's firing
    for carries, ends in ((0b101, 0b11000), (0b011, 0b01100), (0b1000, 0b01000)):
        fired = FireSet(width=4, carries=carries, ends=ends, gates_evaluated=10)
        for s in range(1 << 5):
            with pytest.raises(ModelIntegrityError):
                complement_segments(s, fired.carries, fired.ends)
    with pytest.raises(ValueError, match="carry word"):
        FireSet(width=4, carries=1 << 4, ends=1 << 4, gates_evaluated=10)
    with pytest.raises(ValueError, match="end word"):
        FireSet(width=4, carries=1, ends=1 << 5, gates_evaluated=10)
    with pytest.raises(ValueError, match="one end per carry"):
        FireSet(width=4, carries=0b101, ends=0b1000, gates_evaluated=10)


def test_complement_check_accepts_exactly_the_fired_ends():
    # every 5-wire word and 4-bit carry word, against every end word: only the
    # ends of the gate-by-gate firings pass, and only when no two segments
    # share a wire
    for s in range(1 << 5):
        for carries in range(1 << 4):
            firings = [
                (i, increment_mask(s, i + 1).bit_length() - 1)
                for i in range(4)
                if carries >> i & 1
            ]
            disjoint = all(j <= i for (_, j), (i, _) in zip(firings, firings[1:]))
            fired = sum(1 << j for _, j in firings)
            for ends in range(1 << 6):
                try:
                    total = complement_segments(s, carries, ends)
                except ModelIntegrityError:
                    assert not disjoint or ends != fired
                else:
                    assert disjoint and ends == fired
                    assert total == s + 2 * carries


def segment_firings(s, carries, ends):
    """The carries and ends paired in ascending order, if every pair is a
    segment from just above its carry up a run of 1 wires to a 0 wire and no
    two segments share a wire; otherwise None."""
    starts = [i for i in range(carries.bit_length()) if carries >> i & 1]
    stops = [j for j in range(ends.bit_length()) if ends >> j & 1]
    if len(starts) != len(stops):
        return None
    pairs = list(zip(starts, stops))
    for t, (i, j) in enumerate(pairs):
        if j <= i or s >> j & 1 or ~s & segment_mask(i, j - 1):
            return None  # not a run of 1 wires up to a 0 wire, just above its carry
        if t + 1 < len(pairs) and j > pairs[t + 1][0]:
            return None  # shares a wire with the next segment
    return pairs


def test_complement_segments_is_the_segment_definition_for_every_word():
    # every n <= 4: every sum word of n+1 wires, carry word of n bits and end
    # word reaching one wire above the top; the reference pairs the words by
    # the definition alone, without the firing search
    wrong = []
    for n in range(1, 5):
        for s in range(1 << n + 1):
            for carries in range(1 << n):
                for ends in range(1 << n + 2):
                    pairs = segment_firings(s, carries, ends)
                    want = None if pairs is None else apply_firings_sequentially(s, pairs)
                    try:
                        got = complement_segments(s, carries, ends)
                    except ModelIntegrityError:
                        got = None
                    if got != want:
                        wrong.append((n, s, carries, ends, got, want))
    assert wrong == []


def test_resolve_examples():
    assert resolve(half_add(BitVector(4, 5), BitVector(4, 3))).sum.to_binary() == "01000"
    assert resolve(half_add(BitVector(4, 15), BitVector(4, 1))).sum.to_binary() == "10000"
    identity = resolve(half_add(BitVector(4, 9), BitVector(4, 0)))
    assert identity.sum.value == 9


def test_flash_add_examples():
    zero = flash_add(BitVector(4, 0), BitVector(4, 0))
    assert zero.sum.value == 0
    assert zero.ticks == 2

    top = flash_add(BitVector(64, 2**64 - 1), BitVector(64, 2**64 - 1))
    assert top.sum.value == 2**65 - 2
    assert top.sum.bit(64) == 1


def test_flash_add_exhaustive_small():
    for n in (2, 4, 8):
        for a in range(1 << n):
            for b in range(1 << n):
                result = flash_add(BitVector(n, a), BitVector(n, b))
                assert result.sum.value == a + b
                assert result.sum.width == n + 1
                assert result.ticks == 2


def test_flash_add_random_n64(rng):
    for _ in range(100_000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        assert flash_add(BitVector(64, a), BitVector(64, b)).sum.value == a + b


@given(st.integers(min_value=1, max_value=96), st.data())
def test_flash_add_any_width(n, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert flash_add(BitVector(n, a), BitVector(n, b)).sum.value == a + b


def test_order_independence_spot(rng):
    for _ in range(200):
        state = half_add(
            BitVector(16, rng.getrandbits(16)), BitVector(16, rng.getrandbits(16))
        )
        firings = fire_set(state)
        reference = apply_firings_sequentially(state.s, firings)
        assert reference == resolve(state).sum.value
        order = list(range(len(firings)))
        for _ in range(5):
            rng.shuffle(order)
            assert apply_firings_sequentially(state.s, firings, order) == reference


def test_increment_examples():
    assert increment_by_pow2(BitVector(4, 11), 0).sum.to_binary() == "01100"
    assert increment_by_pow2(BitVector(4, 0), 3).sum.value == 8
    overflow = increment_by_pow2(BitVector(4, 15), 0)
    assert overflow.sum.to_binary() == "10000"
    assert overflow.ticks == 1
    with pytest.raises(ValueError):
        increment_by_pow2(BitVector(4, 0), 4)
    with pytest.raises(ValueError):
        increment_by_pow2(BitVector(4, 0), -1)


def test_increment_exhaustive_n8():
    for x in range(256):
        for i in range(8):
            result = increment_by_pow2(BitVector(8, x), i)
            assert result.sum.value == x + (1 << i)
            assert result.sum.width == 9


def test_double_width_add_examples():
    # 0x0F + 0x01 over two 4-bit halves: the low overflow crosses over
    result = double_width_add(
        BitVector(4, 0xF), BitVector(4, 0x0), BitVector(4, 0x1), BitVector(4, 0x0)
    )
    assert result.sum.value == 0x10
    assert result.cross_carry == 1
    assert result.ticks == 3

    quiet = double_width_add(
        BitVector(4, 1), BitVector(4, 0), BitVector(4, 2), BitVector(4, 0)
    )
    assert quiet.sum.value == 3
    assert quiet.cross_carry == 0

    with pytest.raises(ValueError):
        double_width_add(
            BitVector(4, 0), BitVector(8, 0), BitVector(4, 0), BitVector(4, 0)
        )


def test_double_width_add_exhaustive_small():
    # half 3 runs its halves as 4-bit blocks with a zero top wire
    for half in (1, 2, 3, 4):
        width = 2 * half
        for a in range(1 << width):
            for b in range(1 << width):
                mask = (1 << half) - 1
                result = double_width_add(
                    BitVector(half, a & mask),
                    BitVector(half, a >> half),
                    BitVector(half, b & mask),
                    BitVector(half, b >> half),
                )
                assert result.sum.value == a + b
                assert result.sum.width == width + 1
                assert result.ticks == 3


def test_double_width_add_random_n64(rng):
    for _ in range(100_000):
        a = rng.getrandbits(128)
        b = rng.getrandbits(128)
        mask = (1 << 64) - 1
        result = double_width_add(
            BitVector(64, a & mask),
            BitVector(64, a >> 64),
            BitVector(64, b & mask),
            BitVector(64, b >> 64),
        )
        assert result.sum.value == a + b
        assert result.ticks == 3


def per_block_network(x, y, width, block_width):
    """The reference for `pair_leaf_blocks`: the pair-leaf tick, then the
    AND network run block by block, each carry out read off the block top."""
    s_val, carried_weight = blockwise_add(x, y, width, 2)
    block_mask = (1 << block_width) - 1
    resolved = carry_weight = 0
    for base in range(0, width, block_width):
        block_s = (s_val >> base) & block_mask
        block_c = (carried_weight >> (base + 1)) & block_mask
        block = complement_segments(block_s, block_c, find_firings(block_s, block_c))
        resolved |= (block & block_mask) << base
        carry_weight |= (block >> block_width) << (base + block_width)
    return resolved, carry_weight


def test_pair_leaf_blocks_match_the_per_block_loop(rng):
    for block_width in (2, 4, 8):
        for a in range(256):
            for b in range(256):
                assert pair_leaf_blocks(a, b, 8, block_width) == per_block_network(
                    a, b, 8, block_width
                )
    # the blocked adder's blocks and the double-width adder's halves
    for width, block_widths in ((32, (2, 8, 16)), (128, (2, 16, 64))):
        for _ in range(2_000):
            a, b = rng.getrandbits(width), rng.getrandbits(width)
            for block_width in block_widths:
                assert pair_leaf_blocks(a, b, width, block_width) == per_block_network(
                    a, b, width, block_width
                )
    with pytest.raises(ValueError):
        pair_leaf_blocks(0, 0, 8, 3)
    with pytest.raises(ValueError):
        pair_leaf_blocks(0, 0, 12, 8)


def test_blocked_add_examples():
    zero = blocked_add(BitVector(8, 0), BitVector(8, 0))
    assert zero.sum.value == 0
    assert zero.ticks == 3
    assert len(zero.block_carries) == 2

    carry_chain = blocked_add(BitVector(8, 0xFF), BitVector(8, 0x01))
    assert carry_chain.sum.value == 0x100


def test_blocked_add_rejects_bad_shapes():
    with pytest.raises(ValueError):
        blocked_add(BitVector(8, 0), BitVector(16, 0))
    with pytest.raises(ValueError):
        blocked_add(BitVector(16, 0), BitVector(16, 0))  # half 8 not a power of 4


def test_blocked_add_exhaustive_small():
    for width in (2, 8):
        for a in range(1 << width):
            for b in range(1 << width):
                result = blocked_add(BitVector(width, a), BitVector(width, b))
                assert result.sum.value == a + b
                assert result.sum.width == width + 1
                assert result.ticks == 3


def test_blocked_add_random_n16(rng):
    # 32-bit operands, 4 blocks of 8
    for _ in range(20_000):
        a = rng.getrandbits(32)
        b = rng.getrandbits(32)
        result = blocked_add(BitVector(32, a), BitVector(32, b))
        assert result.sum.value == a + b
        assert len(result.block_carries) == 4


def test_blocked_add_random_n64(rng):
    # 128-bit operands, 8 blocks of 16
    for _ in range(100_000):
        a = rng.getrandbits(128)
        b = rng.getrandbits(128)
        result = blocked_add(BitVector(128, a), BitVector(128, b))
        assert result.sum.value == a + b
        assert result.ticks == 3


@given(
    st.sampled_from([2, 8, 32, 128, 512]),
    st.data(),
)
def test_blocked_add_any_supported_width(width, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    result = blocked_add(BitVector(width, a), BitVector(width, b))
    assert result.sum.value == a + b


def test_a_shortened_segment_is_a_model_break(shortened_segment):
    with pytest.raises(ModelIntegrityError, match="not a run of 1 wires up to a 0 wire"):
        resolve(half_add(BitVector(4, 5), BitVector(4, 3)))
    with pytest.raises(ModelIntegrityError, match="not a run of 1 wires up to a 0 wire"):
        blocked_add(BitVector(8, 0xFF), BitVector(8, 0x01))
    with pytest.raises(ModelIntegrityError, match="not a run of 1 wires up to a 0 wire"):
        double_width_add(BitVector(4, 0xF), BitVector(4, 0), BitVector(4, 1), BitVector(4, 0))


def test_an_extra_end_trips_the_gate_checks(extra_end):
    with pytest.raises(ModelIntegrityError, match="not a run of 1 wires up to a 0 wire"):
        blocked_add(BitVector(8, 0xFF), BitVector(8, 0x01))
    with pytest.raises(ModelIntegrityError, match="not a run of 1 wires up to a 0 wire"):
        double_width_add(BitVector(4, 0xF), BitVector(4, 0), BitVector(4, 1), BitVector(4, 0))
    # the flash adder's FireSet rejects the unpaired end before complementing
    with pytest.raises(ValueError, match="one end per carry"):
        resolve(half_add(BitVector(4, 5), BitVector(4, 3)))
