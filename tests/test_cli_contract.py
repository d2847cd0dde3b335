"""The CLI's input contract: each adder's width rule, shared with `cost`,
the multiplier's widths, and model breaks reported as failed pairs."""

import contextlib
import hashlib
import io
import itertools
import random

import pytest

from arithsim import cli, flash
from arithsim.bitvec import BitVector, ModelIntegrityError, lane_stride
from arithsim.costs import check_width

# `_adder_record_digest()` of the simulators before the cascade and the
# blocked adder's leaf tick moved onto `bitvec.blockwise_add`; a refactor
# must leave every sum, carry, tick count and trace field unchanged.
ADDER_RECORD_DIGEST = "755640e415637bc67b8756493035b53911b06f01a0e2f8113f758be31b117515"

# `_multiplier_record_digest()` of the CLI while multiplier rows were still
# `BitVector`s; a refactor must leave every product, tick count, trajectory,
# stage record, cost and error message unchanged.
MULTIPLIER_RECORD_DIGEST = "6f99572feb2a7470a2eb0634b5b9c7f17652326f1e1e6bb8bc62bac08e8d9ad6"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("design", cli.ADDER_DESIGNS)
def test_add_accepts_exactly_the_widths_cost_accepts(capsys, design):
    for width in range(0, 131):
        add_code, _, _ = run_cli(capsys, ["add", "--design", design, "--width", str(width), "1", "1"])
        cost_code, _, err = run_cli(capsys, ["cost", "--design", design, "--width", str(width)])
        if (design, width) == ("blocked_double", 2):
            # the blocked adder runs at width 2, but its closed-form gate
            # count has a non-integral N/2 term at half-width 1
            assert (add_code, cost_code) == (0, 2)
            assert "power of four >= 4" in err
            continue
        assert add_code in (0, 2) and cost_code in (0, 2), (design, width)
        assert add_code == cost_code, (design, width)


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
    `cli.ADDERS` reports them: all pairs at widths 4 and 8 where the design
    takes the width, then 300 seeded pairs at width 128."""
    digest = hashlib.sha256()
    rng = random.Random(0xB17E)
    wide = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(300)]
    for design, adder in cli.ADDERS.items():
        for width in (4, 8, 128):
            try:
                check_width(design, width)
            except ValueError:
                continue
            pairs = wide if width == 128 else itertools.product(range(1 << width), repeat=2)
            for a, b in pairs:
                sum_vec, carry, ticks, result = adder.run(BitVector(width, a), BitVector(width, b))
                fields = list(adder.trace(result))
                digest.update(f"{design.value} {width} {a:x} {b:x} {sum_vec.to_hex()} "
                              f"{carry} {ticks} {fields}\n".encode())
    return digest.hexdigest()


def test_adder_records_are_byte_identical_to_the_pinned_digest():
    assert _adder_record_digest() == ADDER_RECORD_DIGEST


def _multiplier_record_digest() -> str:
    """sha256 over the exit code, stdout and stderr of the multiplier's CLI
    commands: `mul` on every width-4 pair and 25 seeded pairs at each of the
    widths 8, 16, 32 and 64; `schedule --rows 0..66`; `cost --table`; and
    `cost` of both multiplier designs at widths 32 and 64. Each runs under
    both schedules (where it takes one) and in both formats."""
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
    digest = hashlib.sha256()
    for argv, output_format in itertools.product(argvs, ("text", "structured")):
        argv = argv + ["--format", output_format]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest.update(f"{argv} {code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    return digest.hexdigest()


def test_multiplier_records_are_byte_identical_to_the_pinned_digest():
    assert _multiplier_record_digest() == MULTIPLIER_RECORD_DIGEST


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
