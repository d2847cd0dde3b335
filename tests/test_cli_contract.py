"""The CLI's input contract: each adder's width rule, shared with `cost`,
the multiplier's widths, and model breaks reported as failed pairs."""

import contextlib
import hashlib
import io
import itertools
import random

import pytest

from arithsim import cascade, cli, flash
from arithsim.bitvec import ModelIntegrityError, lane_stride
from arithsim.costs import DESIGNS, Design, check_width

# `_adder_record_digest()` of the simulators before the cascade and the
# blocked adder's leaf tick moved onto `bitvec.blockwise_add`; a refactor
# must leave every sum, carry, tick count and trace field unchanged.
ADDER_RECORD_DIGEST = "755640e415637bc67b8756493035b53911b06f01a0e2f8113f758be31b117515"

# `_multiplier_record_digest()` of the CLI while multiplier rows were still
# `BitVector`s; a refactor must leave every product, tick count, trajectory,
# stage record, cost and error message unchanged.
MULTIPLIER_RECORD_DIGEST = "6f99572feb2a7470a2eb0634b5b9c7f17652326f1e1e6bb8bc62bac08e8d9ad6"

# `_cost_record_digest()` of the CLI while `cost` still read the budget
# through a `CostReport` record, but for blocked_double at width 2, whose
# error now names that width; every gate, entry and tick count and every
# other width error must stay as it was.
COST_RECORD_DIGEST = "fc967def0cae648c707c4097c92348dd479d2d391f7e6a160a8c5bf09e015c41"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("design", [d.value for d in Design])
def test_add_accepts_exactly_the_widths_cost_accepts(capsys, design):
    # an adder runs through `add`; a multiplier schedule through `mul` and
    # `verify --design mult`
    circuit = DESIGNS[Design(design)]
    for width in range(0, 131):
        w = str(width)
        if circuit.schedule == "-":
            runs = [["add", "--design", design, "--width", w, "1", "1"]]
        else:
            runs = [["mul", "--schedule", circuit.schedule, "--width", w, "1", "1"],
                    ["verify", "--design", "mult", "--schedule", circuit.schedule,
                     "--width", w, "--trials", "1"]]
        codes = {run_cli(capsys, argv)[0] for argv in runs}
        assert codes == {0 if width >= 1 and circuit.accepts(width) else 2}, (design, width)
        cost_code, _, err = run_cli(capsys, ["cost", "--design", design, "--width", w])
        if (design, width) == ("blocked_double", 2):
            # the blocked adder runs at width 2, but its closed-form gate
            # count has a non-integral N/2 term at half-width 1
            assert cost_code == 2
            assert err == "error: cost needs a half of at least 4, got width 2\n"
            continue
        if circuit.schedule != "-" and width != 64 and codes == {0}:
            # the multiplier runs at 4 to 32 bits, but its hardware
            # estimate is the published 64-bit design's
            assert cost_code == 2
            assert "defined for width 64 only" in err
            continue
        assert codes == {cost_code}, (design, width)


def test_flash_adds_at_any_width(capsys):
    code, out, _ = run_cli(capsys, ["add", "--design", "flash", "--width", "12", "fff", "1"])
    assert code == 0
    assert "sum    = 1000 (1000000000000)" in out

    code, out, _ = run_cli(capsys, ["verify", "--design", "flash_double", "--width", "6"])
    assert code == 0
    assert "result: 4096/4096 pass" in out


@pytest.mark.parametrize("width", ["1", "2", "3"])
def test_verify_rejects_multiplier_widths_before_the_header(capsys, width):
    code, out, err = run_cli(capsys, ["verify", "--design", "mult", "--width", width])
    assert code == 2
    assert out == ""
    assert "multiplier width" in err


def test_a_value_past_the_decimal_digit_limit_is_named_by_its_bit_length(capsys):
    # 16,000 bits run to more decimal digits than Python's int-to-str limit
    for command in ("add", "mul"):
        code, out, err = run_cli(capsys, [command, "--width", "8", "f" * 4000, "1"])
        assert (code, out) == (2, "")
        assert err == "error: value of 16000 bits does not fit in 8 bits\n"
    with pytest.raises(ValueError, match="^value of 20001 bits does not fit in 8 bits$"):
        cascade.cascade_lanes(1 << 20000, 0, 8)


def test_verify_counts_a_model_break_as_a_failed_pair(capsys, monkeypatch):
    # the break sits in one pair: the batch holding it fails in the lane
    # kernel, and its one-lane re-runs count the break once
    original = flash.flash_lanes
    stride = lane_stride(4)

    def breaks_in_one_lane(a, b, width, lanes=1):
        if any((a >> j * stride) & 15 == 5 and (b >> j * stride) & 15 == 9 for j in range(lanes)):
            raise ModelIntegrityError("carry 0 found no absorbing gate")
        return original(a, b, width, lanes)

    monkeypatch.setattr(flash, "flash_lanes", breaks_in_one_lane)
    code, out, err = run_cli(
        capsys, ["verify", "--design", "flash", "--width", "4", "--format", "structured"]
    )
    assert code == 1
    assert "record=verify passed=255 failed=1 " in out
    assert (
        "counterexample=a=5,b=9,error=ModelIntegrityError:_carry_0_found_no_absorbing_gate\n"
    ) in out
    assert "Traceback" not in out + err

    code, out, _ = run_cli(capsys, ["verify", "--design", "flash", "--width", "4"])
    assert code == 1
    assert "result: 255/256 pass" in out
    assert "first counterexample: a=5,b=9,error=" in out


def test_verify_reports_a_broken_firing_search(capsys, shortened_segment):
    # both three-tick adders run the shared pair-leaf network
    for design in ("blocked_double", "flash_double"):
        code, out, err = run_cli(
            capsys, ["verify", "--design", design, "--width", "8", "--format", "structured"]
        )
        assert code == 1
        assert (
            "counterexample=a=1,b=3,error=ModelIntegrityError:"
            "_fired_segments_do_not_start_just_above_their_carries\n"
        ) in out
        assert "Traceback" not in out + err


def _adder_record_digest() -> str:
    """sha256 over every adder's sum, carry, ticks and trace fields, as
    `cli.DESIGNS` reports them: all pairs at widths 4 and 8 where the design
    takes the width, then 300 seeded pairs at width 128."""
    digest = hashlib.sha256()
    rng = random.Random(0xB17E)
    wide = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(300)]
    for design in map(Design, cli.ADDER_DESIGNS):
        adder = DESIGNS[design]
        for width in (4, 8, 128):
            try:
                check_width(design, width)
            except ValueError:
                continue
            pairs = wide if width == 128 else itertools.product(range(1 << width), repeat=2)
            for a, b in pairs:
                sum_vec, carry, ticks, words = adder.add(a, b, width)
                fields = list(adder.trace(words, width))
                digest.update(f"{design.value} {width} {a:x} {b:x} {sum_vec.to_hex()} "
                              f"{carry} {ticks} {fields}\n".encode())
    return digest.hexdigest()


def test_adder_records_are_byte_identical_to_the_pinned_digest():
    assert _adder_record_digest() == ADDER_RECORD_DIGEST


def multiplier_record_argvs():
    """The multiplier's CLI commands: `mul` on every width-4 pair and 25
    seeded pairs at each of the widths 8, 16, 32 and 64; `schedule --rows
    0..66`; `cost --table`; and `cost` of both multiplier designs at widths
    32 and 64. Each runs under both schedules (where it takes one)."""
    rng = random.Random(0x3A2C)
    argvs = []
    for width in (4, 8, 16, 32, 64):
        if width == 4:
            pairs = list(itertools.product(range(16), repeat=2))
        else:
            pairs = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(25)]
        argvs += [["mul", "--schedule", s, "--width", str(width), f"{a:x}", f"{b:x}"]
                  for (a, b), s in itertools.product(pairs, "AB")]
    argvs += [["schedule", "--schedule", s, "--rows", str(rows)]
              for rows, s in itertools.product(range(67), "AB")]
    argvs += [["cost", "--table"]]
    argvs += [["cost", "--design", f"mult_schedule_{s}", "--width", str(width)]
              for s, width in itertools.product("ab", (32, 64))]
    return argvs


def _multiplier_record_digest() -> str:
    """sha256 over the exit code, stdout and stderr of the multiplier's
    record argvs in both formats."""
    return _cli_digest(multiplier_record_argvs())


def in_both_formats(argvs):
    return [argv + ["--format", output_format]
            for argv, output_format in itertools.product(argvs, ("text", "structured"))]


def _cli_digest(argvs) -> str:
    """sha256 over the exit code, stdout and stderr of each argv in both
    formats."""
    digest = hashlib.sha256()
    for argv in in_both_formats(argvs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest.update(f"{argv} {code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    return digest.hexdigest()


def test_multiplier_records_are_byte_identical_to_the_pinned_digest():
    assert _multiplier_record_digest() == MULTIPLIER_RECORD_DIGEST


def cost_record_argvs():
    """`cost --table` and `cost` for every design at widths 2, 4, 8, 64 and
    128, those its rules reject included."""
    return [["cost", "--table"]] + [["cost", "--design", d.value, "--width", str(width)]
                                    for d, width in itertools.product(Design, (2, 4, 8, 64, 128))]


def _cost_record_digest() -> str:
    return _cli_digest(cost_record_argvs())


def test_cost_records_are_byte_identical_to_the_pinned_digest():
    assert _cost_record_digest() == COST_RECORD_DIGEST


def test_verify_counts_a_failed_state_validation_as_a_failed_pair(capsys, extra_end):
    code, out, err = run_cli(
        capsys, ["verify", "--design", "flash", "--width", "4", "--format", "structured"]
    )
    assert code == 1
    assert (
        "counterexample=a=1,b=1,error=ValueError:_firings_need_one_end_per_carry\n"
    ) in out
    assert err == ""


def test_verify_reports_a_broken_blockwise_add(capsys, flipped_leaf_sum):
    code, out, err = run_cli(
        capsys, ["verify", "--design", "cascade", "--width", "8", "--format", "structured"]
    )
    assert code == 1
    assert "record=verify passed=0 failed=65536 " in out
    assert (
        "counterexample=a=0,b=0,error=ModelIntegrityError:_block-sum_balance_broken_at_level_1,_block_0\n"
    ) in out
    assert err == ""


def test_verify_reports_a_broken_later_cascade_tick(capsys, flipped_step_sum):
    code, out, err = run_cli(
        capsys, ["verify", "--design", "cascade", "--width", "8", "--format", "structured"]
    )
    assert code == 1
    assert "record=verify passed=0 failed=65536 " in out
    assert (
        "counterexample=a=0,b=0,error=ModelIntegrityError:_block-sum_balance_broken_at_level_3,_block_0\n"
    ) in out
    assert "Traceback" not in out + err


def test_verify_reports_a_broken_3_2_counter(capsys, flipped_csa_carry):
    code, out, err = run_cli(
        capsys,
        ["verify", "--design", "mult", "--width", "4", "--schedule", "A", "--format", "structured"],
    )
    assert code == 1
    assert "record=verify passed=0 failed=256 " in out
    assert "counterexample=a=0,b=0,error=ModelIntegrityError:_3:2_stage_lost_value\n" in out
    assert "Traceback" not in out + err


def test_verify_reports_a_wrong_3_2_row_count_after_a_warm_run(capsys, request):
    argv = ["verify", "--design", "mult", "--width", "4", "--schedule", "A",
            "--format", "structured"]
    assert run_cli(capsys, argv)[0] == 0  # warms the record caches
    request.getfixturevalue("extra_zero_row")
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert "record=verify passed=0 failed=256 " in out
    assert (
        "counterexample=a=0,b=0,error=ValueError:_a_3:2_stage_keeps_rows_in_-_rows_in//3_rows\n"
    ) in out
    assert "Traceback" not in out + err


def test_verify_reports_a_broken_quantizer(capsys, flipped_plane_bit):
    code, out, err = run_cli(
        capsys,
        ["verify", "--design", "mult", "--width", "4", "--schedule", "B", "--format", "structured"],
    )
    assert code == 1
    assert "record=verify passed=0 failed=256 " in out
    assert "counterexample=a=0,b=0,error=ModelIntegrityError:_quantizer_stage_lost_value\n" in out
    assert "Traceback" not in out + err
