"""Lane kernels: K circuits side by side in one word.

Lane j of every kernel's batch result must equal the K = 1 result for its own
pair, and a fault in one lane must fail its whole batch, so that `verify`
re-runs the batch pair by pair and reports what a pair-by-pair sweep would.
"""

import argparse
import itertools
import operator
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arithsim import cascade, cli, flash, multiplier
from arithsim.bitvec import (
    BitVector,
    ModelIntegrityError,
    block_tops,
    lane_mask,
    lane_stride,
    pack_lanes,
    unpack_lanes,
    unpack_narrow_lanes,
)
from arithsim.multiplier import MULTIPLIER_WIDTHS, Schedule


def lane(word, j, stride):
    return (word >> j * stride) & ((1 << stride) - 1)


def lanes_of(word, stride, count):
    return [lane(word, j, stride) for j in range(count)]


def operands(data, width, count):
    values = st.integers(min_value=0, max_value=(1 << width) - 1)
    return data.draw(st.lists(st.tuples(values, values), min_size=count, max_size=count))


def batch_and_pairs(kernel, data, width, stride, *args):
    """Run `kernel` on a packed batch and on each of its pairs alone; return
    both as per-lane lists of result tuples."""
    count = data.draw(st.integers(min_value=1, max_value=24))
    pairs = operands(data, width, count)
    a = pack_lanes([x for x, _ in pairs], stride)
    b = pack_lanes([y for _, y in pairs], stride)
    batch = kernel(a, b, *args, count)
    per_lane = [tuple(lanes_of(word, stride, count)) for word in batch]
    return list(zip(*per_lane)), [kernel(x, y, *args, 1) for x, y in pairs]


@given(st.data())
def test_flash_lanes_match_their_single_pairs(data):
    n = data.draw(st.integers(min_value=1, max_value=130))
    batch, single = batch_and_pairs(flash.flash_lanes, data, n, lane_stride(n), n)
    assert batch == single


@given(st.data())
def test_double_width_lanes_match_their_single_pairs(data):
    # the adder's and the multiplier's final add, odd halves too
    n = data.draw(st.integers(min_value=1, max_value=65))
    stride = lane_stride(2 * n)
    count = data.draw(st.integers(min_value=1, max_value=24))
    pairs = operands(data, 2 * n, count)
    words = flash.double_width_lanes(
        pack_lanes([x for x, _ in pairs], stride), pack_lanes([y for _, y in pairs], stride),
        n, count,
    )
    for j, (x, y) in enumerate(pairs):
        assert tuple(lane(word, j, stride) for word in words) == flash.double_width_lanes(x, y, n)
        assert lane(words[0], j, stride) == x + y


@given(st.data())
def test_blocked_lanes_match_their_single_pairs(data):
    width = data.draw(st.sampled_from((2, 8, 32, 128, 512)))
    stride = lane_stride(width)
    batch, single = batch_and_pairs(flash.blocked_lanes, data, width, stride, width)
    assert batch == single


@given(st.data())
def test_cascade_lanes_match_their_single_pairs(data):
    width = data.draw(st.sampled_from((2, 4, 8, 16, 32, 64, 128, 256)))
    stride = lane_stride(width)
    count = data.draw(st.integers(min_value=1, max_value=24))
    pairs = operands(data, width, count)
    levels = cascade.cascade_lanes(
        pack_lanes([x for x, _ in pairs], stride), pack_lanes([y for _, y in pairs], stride),
        width, count,
    )
    for j, (x, y) in enumerate(pairs):
        assert [(lane(s, j, stride), lane(c, j, stride)) for s, c in levels] == (
            cascade.cascade_lanes(x, y, width)
        )


@given(st.data())
def test_multiply_lanes_match_their_single_pairs(data):
    n = data.draw(st.sampled_from(MULTIPLIER_WIDTHS))
    schedule = data.draw(st.sampled_from(tuple(Schedule)))
    stride = lane_stride(2 * n)
    count = data.draw(st.integers(min_value=1, max_value=12))
    pairs = operands(data, n, count)
    products, report = multiplier.multiply_lanes(
        pack_lanes([x for x, _ in pairs], stride), pack_lanes([y for _, y in pairs], stride),
        n, schedule, count,
    )
    for j, (x, y) in enumerate(pairs):
        assert (lane(products, j, stride), report) == multiplier.multiply_lanes(x, y, n, schedule)
        assert lane(products, j, stride) == x * y


@given(st.sampled_from(MULTIPLIER_WIDTHS), st.data())
def test_unpack_narrow_lanes_reads_the_multiplier_operands_as_unpack_lanes(n, data):
    stride = lane_stride(2 * n)
    count = data.draw(st.integers(min_value=1, max_value=300))
    values = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    word = pack_lanes(values, stride)
    assert unpack_narrow_lanes(word, stride, count, n) == unpack_lanes(word, stride, count)


@given(st.sampled_from((16, 24, 40, 72, 136, 256)), st.integers(1, 64), st.data())
def test_unpack_narrow_lanes_is_unpack_lanes_at_any_whole_byte_stride(stride, bits, data):
    # the adders' strides, odd byte counts, and the multiplier's 136-bit rows
    count = data.draw(st.integers(min_value=1, max_value=512))
    top = (1 << min(bits, stride)) - 1
    values = data.draw(st.lists(st.integers(0, top), min_size=count, max_size=count))
    word = pack_lanes(values, stride)
    assert unpack_narrow_lanes(word, stride, count, bits) == unpack_lanes(word, stride, count)


def accepted_widths(design):
    return [w for w in range(1, 513) if cli.DESIGNS[cli.Design(design)].accepts(w)]


# The highest bit each adder's kernel drives in a lane of `width`-bit values
ADDER_TOPS = {
    "flash": lambda w: w,  # wire n, the carry out
    "cascade": lambda w: w,  # the top block's saved carry
    # two half blocks of bw = n + (n & 1) bits and the high one's carry out
    "flash_double": lambda w: 2 * (w // 2 + (w // 2 & 1)),
    "blocked_double": lambda w: w,  # the overflow bit
}


@pytest.mark.parametrize(
    "widths, top",
    [pytest.param(accepted_widths(design), top, id=design) for design, top in ADDER_TOPS.items()]
    # 2N-bit rows: majority << 1 reaches bit 2N; a quantizer digit, bit
    # 2N - 1 + floor(log2 N)
    + [pytest.param([2 * n], lambda w: w - 1 + (w // 2).bit_length() - 1, id=str(n))
       for n in MULTIPLIER_WIDTHS],
)
def test_a_row_lane_holds_every_bit_a_stage_can_reach(widths, top):
    # every width each kernel accepts, up to 512 bits
    assert widths
    for width in widths:
        assert lane_stride(width) % 8 == 0
        assert top(width) < lane_stride(width), width


@pytest.mark.parametrize("n", MULTIPLIER_WIDTHS)
def test_a_row_overflowing_a_lower_lane_is_caught_in_its_padding(n):
    # every row holds the middle lane's top bit: a 3:2 stage's majority and
    # a quantizer's count of 7 both carry it out of that lane
    top = pack_lanes([0, 1 << 2 * n - 1, 0], lane_stride(2 * n))
    # the message names the lane: its bits and its index
    message = f"row 1 = {1 << 2 * n} in lane 1 does not fit in {2 * n} bits"
    with pytest.raises(ValueError, match=message):
        multiplier.csa_stage(multiplier.RowSet(2 * n, (top,) * 3, 3))
    with pytest.raises(ModelIntegrityError, match="a count digit escaped the row width"):
        multiplier.quantize_columns(multiplier.RowSet(2 * n, (top,) * 7, 3))


@pytest.mark.parametrize("bad", [0, 137, 255])
def test_a_range_message_names_the_first_lane_that_fails(bad):
    # 256 lanes of 128 bits are past Python's 4300-digit int-to-str limit,
    # so each message shows the bad lane's bits and index, not the word
    full = (1 << 128) - 1
    message = f"{(1 << 129) - 1} in lane {bad} does not fit in 128 bits"
    for stride, check in (
        (lane_stride(128), lambda word: cascade.cascade_lanes(word, 0, 128, 256)),
        (lane_stride(128), lambda word: cascade.CascadeState._check_block_sums(
            7, 1, word, 0, 0, 0, cascade.cascade_layout(128, 256)[2], 256)),
        (lane_stride(128), lambda word: multiplier.RowSet(128, (0, word), 256)),
    ):
        word = pack_lanes([full] * 256, stride) | 1 << bad * stride + 128
        with pytest.raises(ValueError) as caught:
            check(word)
        assert str(caught.value).endswith(message)


@pytest.mark.parametrize("operand", ["a", "b"])
@pytest.mark.parametrize("lanes, bad", [(1, 0), (5, 0), (5, 2), (5, 5)])
@pytest.mark.parametrize("n", MULTIPLIER_WIDTHS)
def test_a_multiplier_operand_bit_outside_its_lane_names_the_lane(n, lanes, bad, operand):
    # the row select reads bit i + n of b, so each operand lane holds n bits:
    # the stray is bit n of lane `bad`, or for lane 5 of 5, past the top
    # lane, its bit 0
    stride, top = lane_stride(2 * n), (1 << n) - 1
    word = pack_lanes([top] * lanes, stride)
    stray = word | 1 << bad * stride + (n if bad < lanes else 0)
    a, b = (stray, word) if operand == "a" else (word, stray)
    shown = stray if lanes == 1 else f"{lane(stray, bad, stride)} in lane {bad}"
    with pytest.raises(ValueError) as caught:
        multiplier.multiply_lanes(a, b, n, Schedule.B, lanes)
    assert str(caught.value) == f"value {shown} does not fit in {n} bits"


@pytest.mark.parametrize("schedule", tuple(Schedule))
@pytest.mark.parametrize("n", MULTIPLIER_WIDTHS)
def test_all_ones_operands_in_every_lane_multiply_exactly(n, schedule):
    # all-ones operands fill every column, so the digits climb highest
    stride, top = lane_stride(2 * n), (1 << n) - 1
    count = cli.verify_lanes(stride)
    a = b = pack_lanes([top] * count, stride)
    products, _ = multiplier.multiply_lanes(a, b, n, schedule, count)
    assert products == pack_lanes([top * top] * count, stride)


def drawn_pairs(width, stride, sizes, seed):
    """The pairs of a random sweep by its definition: for each batch, a's
    and then b's `getrandbits(stride * size)` draw from one
    `random.Random(seed)`, lane j of each being its bits j * stride to
    j * stride + width - 1."""
    rng, pairs = random.Random(seed), []
    for size in sizes:
        a, b = rng.getrandbits(stride * size), rng.getrandbits(stride * size)
        pairs += [(a >> j * stride & (1 << width) - 1, b >> j * stride & (1 << width) - 1)
                  for j in range(size)]
    return pairs


@given(
    width=st.integers(min_value=9, max_value=160),
    seed=st.integers(),
    multiplier_rows=st.booleans(),
    size=st.integers(min_value=1, max_value=cli.verify_lanes(lane_stride(9))),
)
# the benchmark's batch shapes: 128-bit adders, 64-bit multiplier rows
@example(width=128, seed=4, multiplier_rows=False, size=334)
@example(width=64, seed=2, multiplier_rows=True, size=250)
@example(width=9, seed=3, multiplier_rows=False, size=1)
@example(width=160, seed=5, multiplier_rows=True, size=199)
def test_a_random_batch_is_two_masked_lane_word_draws(width, seed, multiplier_rows, size):
    # at the stride of `width`-bit values and at that of the 2N-bit rows
    # that the multiplier packs its operands in; a size past the stride's
    # full batch wraps round to 1, and a sweep of `size` trials is one batch
    stride = lane_stride(2 * width if multiplier_rows else width)
    size = (size - 1) % cli.verify_lanes(stride) + 1
    made = []

    def recorded(seed):
        made.append(random.Random(seed))
        return made[-1]

    with mock.patch.object(cli, "random", SimpleNamespace(Random=recorded)):
        [(a, b, got)] = sweep_batches(width, stride, size, seed)
    rng = random.Random(seed)
    draw_a, draw_b = rng.getrandbits(stride * size), rng.getrandbits(stride * size)
    fit = lane_mask(width, stride, size)
    assert (a, b, got) == (draw_a & fit, draw_b & fit, size)
    assert batch_pairs([(a, b, size)], stride) == drawn_pairs(width, stride, [size], seed)
    # the generator ends where the two draws leave it
    assert [r.getstate() for r in made] == [rng.getstate()]


def adder(design, width):
    """One adder as `verify` runs it pair by pair, on ints."""
    lanes = cli.DESIGNS[design].lanes
    return lambda a, b: lanes(a, b, width, 1)[0]


def pair_by_pair(run, pairs, oracle=operator.add):
    """`verify`'s counts and first counterexample, one `run(a, b)` per pair."""
    passed = failed = 0
    first = None
    for a, b in pairs:
        try:
            got = run(a, b)
        except (ModelIntegrityError, ValueError) as exc:
            failed += 1
            error = "_".join(f"{type(exc).__name__}: {exc}".split())
            first = first or f"a={a:x},b={b:x},error={error}"
            continue
        want = oracle(a, b)
        if got == want:
            passed += 1
        else:
            failed += 1
            first = first or f"a={a:x},b={b:x},got={got:x},want={want:x}"
    return f"record=verify passed={passed} failed={failed} counterexample={first or '-'}"


def verify_record(capsys, argv):
    code = cli.main(argv + ["--format", "structured"])
    record = capsys.readouterr().out.splitlines()[-1]
    return code, record


def test_a_fault_in_one_flash_lane_fails_its_batch(capsys, monkeypatch):
    # the firing search drops the lowest end of any lane holding the wires
    # of 15 + 5 at width 6: in the exhaustive sweep's one batch, the four
    # lanes whose a is 5, 7, 13 or 15
    width, stride = 6, lane_stride(6)
    original = flash.find_firings

    def drops_an_end(s, weight):
        ends = original(s, weight)
        for j in range(max(s, weight).bit_length() // stride + 1):
            if (lane(s, j, stride), lane(weight, j, stride)) == (15 ^ 5, (15 & 5) << 1):
                lowest = lane(ends, j, stride) & -lane(ends, j, stride)
                ends ^= lowest << j * stride
        return ends

    monkeypatch.setattr(flash, "find_firings", drops_an_end)
    with pytest.raises(ValueError, match="firings need one end per carry"):
        flash.flash_lanes(pack_lanes([15] * 64, stride), pack_lanes(range(64), stride), width, 64)
    assert flash.flash_lanes(
        pack_lanes([14] * 64, stride), pack_lanes(range(64), stride), width, 64
    )[0] == pack_lanes([14 + b for b in range(64)], stride)

    want = pair_by_pair(adder(cli.Design.FLASH, width), itertools.product(range(64), repeat=2))
    assert "failed=0 " not in want
    assert verify_record(capsys, ["verify", "--design", "flash", "--width", "6"]) == (1, want)


def test_a_fault_in_one_cascade_lane_fails_its_batch(capsys, monkeypatch):
    # the level-1 tick flips the lowest sum bit of the one lane holding the
    # 200th seeded pair of a 128-bit random sweep
    width, stride, trials, seed = 128, lane_stride(128), 300, 5
    batches = sweep_batches(width, stride, trials, seed)
    pairs = batch_pairs(batches, stride)
    target = cascade.blockwise_add(*pairs[200], block_tops(width, 2))[0]
    original = cascade.cascade_step

    def flips_one_lane(sums, carry_word, width, level, masks):
        out, carries = original(sums, carry_word, width, level, masks)
        if level == 1:
            for j in range(masks[0][0].bit_length() // stride + 1):  # every lane
                if lane(sums, j, stride) == target:
                    out ^= 1 << j * stride
        return out, carries

    monkeypatch.setattr(cascade, "cascade_step", flips_one_lane)
    a, b, size, _ = batch_holding(batches, 200)
    with pytest.raises(ModelIntegrityError, match="balance broken at level 2, block 0$"):
        cascade.cascade_lanes(a, b, width, size)

    want = pair_by_pair(adder(cli.Design.CASCADE, width), pairs)
    assert "failed=1 counterexample=a=" in want
    argv = ["verify", "--design", "cascade", "--width", "128", "--trials", str(trials),
            "--seed", str(seed)]
    assert verify_record(capsys, argv) == (1, want)


def test_a_fault_in_one_multiplier_lane_fails_its_batch(capsys, monkeypatch):
    # the 3:2 counter flips the lowest sum bit of the one lane holding the
    # first stage's second triple, partial rows 3 to 5, of the 200th seeded
    # pair of a 64-bit sweep: that pair's b ends in four zero bits, so its
    # rows 0 to 2 are zero, as in 34 other lanes
    n, stride, trials, seed = 64, lane_stride(128), 300, 5
    batches = sweep_batches(n, stride, trials, seed)
    pairs = batch_pairs(batches, stride)
    triples = [multiplier.partial_product_lanes(a, b, n).rows[3:6] for a, b in pairs]
    target = triples[200]
    assert triples.count(target) == 1
    original = multiplier.csa_3_2

    def flips_one_lane(r1, r2, r3, width):
        sum_row, carry_row = original(r1, r2, r3, width)
        for j in range((width - 2 * n) // stride + 1):  # `width` spans every lane
            if tuple(lane(r, j, stride) for r in (r1, r2, r3)) == target:
                sum_row ^= 1 << j * stride
        return sum_row, carry_row

    monkeypatch.setattr(multiplier, "csa_3_2", flips_one_lane)
    a, b, size, start = batch_holding(batches, 200)
    assert 0 < 200 - start < size - 1
    with pytest.raises(ModelIntegrityError, match="3:2 stage lost value"):
        multiplier.multiply_lanes(a, b, n, Schedule.A, size)

    def run(a, b):
        return multiplier.multiply(BitVector(n, a), BitVector(n, b), Schedule.A).product.value

    want = pair_by_pair(run, pairs, operator.mul)
    assert "failed=1 counterexample=a=" in want
    argv = ["verify", "--design", "mult", "--width", "64", "--schedule", "A",
            "--trials", str(trials), "--seed", str(seed)]
    assert verify_record(capsys, argv) == (1, want)


def sweep_batches(width, stride, trials=None, seed=None):
    """`verify`'s batches of a sweep, exhaustive when no trial count is given."""
    args = argparse.Namespace(width=width, trials=trials, seed=seed)
    return list(cli._verify_batches(args, trials is None, stride))


def batch_holding(batches, index):
    """The batch of `batches` that holds pair `index`: (packed a, packed b,
    pair count, index of its first pair)."""
    start = 0
    for a, b, size in batches:
        if index < start + size:
            return a, b, size, start
        start += size
    raise IndexError(index)


def batch_pairs(batches, stride):
    """The (a, b) pairs of `batches` in order; each batch within its word."""
    pairs = []
    for a, b, size in batches:
        assert size * stride <= cli.VERIFY_WORD_BITS
        pairs += zip(unpack_lanes(a, stride, size), unpack_lanes(b, stride, size))
    return pairs


@pytest.mark.parametrize(
    "width, stride",
    [pytest.param(w, lane_stride(w), id=f"adders-{w}") for w in range(1, 9)]
    + [pytest.param(w, lane_stride(2 * w), id=f"mult-{w}") for w in range(1, 5)],
)
def test_an_exhaustive_sweep_holds_every_pair_once_in_a_major_order(width, stride):
    # every exhaustive sweep the CLI runs packs at 16 bits; every batch fills
    # the word, or holds the whole sweep: at width 8, 16 values of a each
    assert stride == 16
    batches = sweep_batches(width, stride)
    assert {size for *_, size in batches} == {min(cli.verify_lanes(stride), 1 << 2 * width)}
    assert batch_pairs(batches, stride) == list(itertools.product(range(1 << width), repeat=2))


@pytest.mark.parametrize("width", [9, 10])
def test_an_exhaustive_sweep_at_a_wider_stride_holds_whole_runs(width):
    # at the 24-bit stride 2730 lanes fit a word; a batch takes the 2048 of
    # them that hold whole runs of b and divide the sweep, which then visits
    # every pair once, in a-major order, pair by pair
    stride = lane_stride(width)
    assert (stride, cli.verify_lanes(stride)) == (24, 2730)
    pairs = itertools.product(range(1 << width), repeat=2)
    count = 0
    for a, b, size in sweep_batches(width, stride):
        assert size == 2048 and size * stride <= cli.VERIFY_WORD_BITS
        got = zip(unpack_lanes(a, stride, size), unpack_lanes(b, stride, size))
        assert list(got) == list(itertools.islice(pairs, size))
        count += size
    assert count == 1 << 2 * width and next(pairs, None) is None


@given(
    width=st.integers(min_value=9, max_value=160),
    trials=st.integers(min_value=1, max_value=3000),
    seed=st.integers(),
    multiplier_rows=st.booleans(),
)
def test_a_random_sweep_is_its_lane_word_draws_in_full_batches(
    width, trials, seed, multiplier_rows
):
    stride = lane_stride(2 * width if multiplier_rows else width)
    batches = sweep_batches(width, stride, trials, seed)
    lanes = cli.verify_lanes(stride)
    # the fewest batches that fit, their sizes differing by at most one
    sizes = [size for *_, size in batches]
    assert len(sizes) == -(-trials // lanes)
    assert max(sizes) - min(sizes) <= 1
    assert sizes[0] == max(sizes)  # `verify` runs every batch at the first's lane count
    assert batch_pairs(batches, stride) == drawn_pairs(width, stride, sizes, seed)


def test_every_batch_of_a_random_sweep_runs_at_the_first_batchs_lane_count(
    capsys, monkeypatch
):
    # add-wide-random's sweep: 1000 pairs in batches of 334, 333 and 333,
    # every one run in the 334-lane layout, the short batches' top lane
    # empty; a fault on the last pair fails the last batch, which re-runs its
    # own 333 pairs one at a time
    width, stride, calls = 128, lane_stride(128), []
    batches = sweep_batches(width, stride, 1000, 1)
    assert [size for *_, size in batches] == [334, 333, 333]
    last_a, last_b, size = batches[-1]
    pairs = batch_pairs(batches, stride)
    original = flash.flash_lanes

    def flips_the_last_pair(a, b, n, lanes=1):
        calls.append(lanes)
        total, *words = original(a, b, n, lanes)
        if (a, b) in ((last_a, last_b), pairs[-1]):
            total ^= 1
        return total, *words

    def run(a, b):
        return flips_the_last_pair(a, b, width)[0]

    want = pair_by_pair(run, pairs)
    assert "passed=999 failed=1 counterexample=a=" in want
    calls.clear()
    monkeypatch.setattr(flash, "flash_lanes", flips_the_last_pair)
    argv = ["verify", "--design", "flash", "--width", "128", "--trials", "1000", "--seed", "1"]
    assert verify_record(capsys, argv) == (1, want)
    assert calls == [334] * 3 + [1] * size


def test_a_fault_on_one_pair_fails_its_multi_a_batch(capsys, monkeypatch):
    # the firing search drops the lowest end of the one lane holding the
    # wires of 24 + 24, no sum wire and carries 24: at width 8 that is lane
    # 2072 of the second batch, which holds every pair whose a is 16 to 31
    width, stride = 8, lane_stride(8)
    original = flash.find_firings

    def drops_an_end(s, weight):
        ends = original(s, weight)
        count = max(s, weight).bit_length() // stride + 1
        wires = zip(unpack_lanes(s, stride, count), unpack_lanes(weight, stride, count))
        for j, lane_wires in enumerate(wires):
            if lane_wires == (0, 24 << 1):
                lowest = lane(ends, j, stride) & -lane(ends, j, stride)
                ends ^= lowest << j * stride
        return ends

    monkeypatch.setattr(flash, "find_firings", drops_an_end)
    (a0, b0, size), (a1, b1, _), *_ = sweep_batches(width, stride)
    assert sorted(set(unpack_lanes(a1, stride, size))) == list(range(16, 32))
    assert (lane(a1, 2072, stride), lane(b1, 2072, stride)) == (24, 24)
    with pytest.raises(ValueError, match="firings need one end per carry"):
        flash.flash_lanes(a1, b1, width, size)
    assert flash.flash_lanes(a0, b0, width, size)[0] == a0 + b0

    want = pair_by_pair(adder(cli.Design.FLASH, width), itertools.product(range(256), repeat=2))
    assert "passed=65535 failed=1 counterexample=a=18,b=18,error=" in want
    assert verify_record(capsys, ["verify", "--design", "flash", "--width", "8"]) == (1, want)
