import subprocess
import sys

import pytest

from arithsim import cli, costs


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_add_flash_example(capsys):
    code, out, _ = run_cli(capsys, ["add", "--design", "flash", "--width", "8", "ff", "01"])
    assert code == 0
    assert "sum    = 100" in out
    assert "ticks  = 2" in out


def test_add_cascade_example(capsys):
    code, out, _ = run_cli(capsys, ["add", "--design", "cascade", "--width", "4", "b", "6"])
    assert code == 0
    assert "sum    = 1 (0001)" in out
    assert "carry  = 1" in out
    assert "ticks  = 2" in out


def test_add_zero(capsys):
    code, out, _ = run_cli(capsys, ["add", "--design", "flash", "--width", "4", "0", "0"])
    assert code == 0
    assert "sum    = 00 (00000)" in out
    assert "carry  = 0" in out


def test_add_trace_flags(capsys):
    _, out, _ = run_cli(
        capsys, ["add", "--design", "cascade", "--width", "8", "--trace", "ff", "0f"]
    )
    assert "level 1: sums=fa carries=1,1,0,0" in out
    assert "level 3: sums=0e carries=1" in out

    _, out, _ = run_cli(
        capsys, ["add", "--design", "flash", "--width", "8", "--trace", "2b", "17"]
    )
    assert "firings: [0:1,1:6] gates=36" in out

    _, out, _ = run_cli(
        capsys, ["add", "--design", "flash_double", "--width", "8", "--trace", "ff", "01"]
    )
    assert "cross carry: 1" in out

    _, out, _ = run_cli(
        capsys, ["add", "--design", "blocked_double", "--width", "8", "--trace", "ff", "01"]
    )
    assert "block carries: [1,0]" in out


def test_add_structured_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["add", "--design", "flash", "--width", "8", "--format", "structured", "ff", "01"],
    )
    assert code == 0
    assert out == "record=add design=flash width=8 a=ff b=01 sum=100 carry=1 ticks=2\n"


def test_format_env_var(capsys, monkeypatch):
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "structured")
    _, out, _ = run_cli(capsys, ["add", "--design", "flash", "--width", "8", "ff", "01"])
    assert out.startswith("record=add ")
    # an explicit flag beats the environment
    _, out, _ = run_cli(
        capsys, ["add", "--design", "flash", "--width", "8", "--format", "text", "ff", "01"]
    )
    assert out.startswith("add design=flash")


def test_mul_command(capsys):
    code, out, _ = run_cli(capsys, ["mul", "--schedule", "B", "--width", "8", "ff", "03"])
    assert code == 0
    assert "product    = 02fd" in out
    assert "ticks      = 8" in out
    assert "trajectory = [8,4,3,2]" in out


def test_mul_structured(capsys):
    _, out, _ = run_cli(
        capsys,
        ["mul", "--schedule", "A", "--width", "8", "--format", "structured", "ff", "03"],
    )
    assert out == (
        "record=mul schedule=A width=8 a=ff b=03 product=02fd ticks=7 "
        "trajectory=8,6,4,3,2\n"
    )


def test_verify_flash_exhaustive(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--design", "flash", "--width", "8"])
    assert code == 0
    assert "mode=exhaustive" in out
    assert "result: 65536/65536 pass" in out


def test_verify_mult_exhaustive(capsys):
    # width 4 is the exhaustive regime for the multiplier: all 16*16 pairs
    code, out, _ = run_cli(
        capsys, ["verify", "--design", "mult", "--schedule", "B", "--width", "4"]
    )
    assert code == 0
    assert "trials=256" in out
    assert "result: 256/256 pass" in out


def test_verify_random_is_seed_deterministic(capsys):
    argv = [
        "verify", "--design", "cascade", "--width", "64",
        "--trials", "1000", "--seed", "1",
    ]
    code_one, out_one, _ = run_cli(capsys, argv)
    code_two, out_two, _ = run_cli(capsys, argv)
    assert code_one == code_two == 0
    assert out_one == out_two
    assert "result: 1000/1000 pass" in out_one
    assert "generator=mt19937" in out_one


def test_verify_structured_reruns_are_byte_identical(capsys):
    argv = [
        "verify", "--design", "mult", "--schedule", "A", "--width", "16",
        "--trials", "200", "--seed", "7", "--format", "structured",
    ]
    _, out_one, _ = run_cli(capsys, argv)
    _, out_two, _ = run_cli(capsys, argv)
    assert out_one == out_two
    assert out_one.splitlines()[0].startswith("record=header command=verify")
    assert "record=verify passed=200 failed=0 counterexample=-" in out_one


def test_verify_reports_failures(capsys, monkeypatch):
    # force a wrong reference so the mismatch path is reachable
    monkeypatch.setattr(cli, "oracle_add", lambda a, b: a + b + 1)
    code, out, _ = run_cli(
        capsys, ["verify", "--design", "flash", "--width", "4", "--format", "structured"]
    )
    assert code == 1
    assert "failed=256" in out
    assert "counterexample=a=0,b=0,got=0,want=1" in out

    monkeypatch.undo()
    code, out, _ = run_cli(capsys, ["verify", "--design", "flash", "--width", "4"])
    assert code == 0


def test_verify_all_adder_designs_small(capsys):
    for design in ("cascade", "flash", "flash_double", "blocked_double"):
        code, out, _ = run_cli(capsys, ["verify", "--design", design, "--width", "8"])
        assert code == 0, design
        assert "result: 65536/65536 pass" in out


def test_every_adder_design_has_one_table_entry_and_cli_choice():
    adders = [d for d in costs.Design if not d.value.startswith("mult_")]
    assert list(costs.ADDERS) == adders
    assert cli.ADDERS is costs.ADDERS
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    choices = {
        name: next(a.choices for a in commands[name]._actions if a.dest == "design")
        for name in ("add", "verify")
    }
    assert choices == {"add": cli.ADDER_DESIGNS, "verify": cli.ADDER_DESIGNS + ("mult",)}
    assert cli.ADDER_DESIGNS == tuple(d.value for d in adders)


def test_cost_single_design(capsys):
    code, out, _ = run_cli(capsys, ["cost", "--design", "blocked_double", "--width", "128"])
    assert code == 0
    assert "gates   = 1000" in out
    assert "ticks   = 3" in out


def test_cost_table(capsys):
    code, out, _ = run_cli(capsys, ["cost", "--table"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    table = dict(line.split() for line in lines)
    assert table["cascade_gates_width_128"] == "447"
    assert table["double_width_gates_width_128"] == "2144"
    assert table["blocked_gates_width_128"] == "1000"
    assert table["schedule_a_csa_circuits"] == "1281"
    assert table["schedule_b_quantizer_entries"] == "8192"
    assert table["schedule_a_exclusive_entries"] == "9224"
    assert table["consolidation_stage_lower_bound"] == "9"
    assert table["schedule_a_ticks"] == "24"
    assert table["schedule_b_ticks"] == "8"
    assert table["schedule_speedup"] == "3"


def test_schedule_command(capsys):
    code, out, _ = run_cli(capsys, ["schedule", "--schedule", "A"])
    assert code == 0
    assert "index=1 kind=csa_3_2 rows_in=64 rows_out=43 left_out=1" in out
    assert "trajectory=[64,43,29,20,14,10,7,5,4,3,2] total_ticks=10" in out

    code, out, _ = run_cli(capsys, ["schedule", "--schedule", "B", "--format", "structured"])
    assert code == 0
    assert "record=stage index=1 kind=quantizer rows_in=64 rows_out=7" in out
    assert "record=schedule schedule=B rows=64 trajectory=64,7,3,2 total_ticks=5" in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, ["add", "--design", "flash", "--width", "8", "zz", "01"])
    assert code == 2
    assert "malformed hex string" in err

    code, _, err = run_cli(capsys, ["add", "--design", "cascade", "--width", "5", "1", "2"])
    assert code == 2
    assert "power-of-two" in err

    code, _, err = run_cli(capsys, ["verify", "--design", "blocked_double", "--width", "16"])
    assert code == 2
    assert "power-of-four" in err

    code, _, err = run_cli(capsys, ["add", "--design", "flash", "--width", "4", "ff", "0"])
    assert code == 2

    code, _, err = run_cli(capsys, ["verify", "--design", "cascade", "--width", "64", "--trials", "0"])
    assert code == 2

    for argv in (
        ["mul", "--width", "0", "1", "1"],
        ["add", "--width", "-3", "1", "1"],
        ["cost", "--table", "--width", "0"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "width must be positive" in err, argv
    # width 8 sweeps exhaustively and ignores --trials, which is still checked
    code, out, err = run_cli(
        capsys, ["verify", "--design", "flash", "--width", "8", "--trials", "0"]
    )
    assert (code, out, err) == (2, "", "error: trials must be positive, got 0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["add", "--design", "flash", "--width", "8", "ff", "01"],
        ["mul", "--width", "8", "ff", "01"],
        ["verify", "--design", "flash", "--width", "4"],
        ["cost", "--design", "flash", "--width", "8"],
        ["cost", "--table"],
        ["schedule", "--schedule", "A"],
    ],
)
def test_unknown_format_env_var_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "xml")
    assert run_cli(capsys, argv) == (2, "", "error: unknown output format 'xml'\n")


def test_the_cached_parser_carries_no_state_across_calls(capsys, monkeypatch):
    # (argv, ARITHSIM_FORMAT): a usage error, --help, a call whose format
    # comes from a changed environment, a structured verify
    calls = [
        (["add", "--design", "flash", "--width", "8", "ff"], None),
        (["--help"], None),
        (["add", "--design", "flash", "--width", "8", "ff", "01"], "structured"),
        (["verify", "--design", "flash", "--width", "33", "--trials", "7", "--seed", "2",
          "--format", "structured"], "text"),
    ]

    def run_all():
        runs = []
        for argv, output_format in calls:
            if output_format is None:
                monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(cli.FORMAT_ENV_VAR, output_format)
            runs.append(run_cli(capsys, argv))
        return runs

    cli.build_parser.cache_clear()
    cached = run_all()
    assert cli.build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cached == run_all()
    assert [code for code, _, _ in cached] == [2, 0, 0, 0]
    assert cached[2][1].startswith("record=add ")


def test_unknown_subcommand_exits_nonzero(capsys):
    assert cli.main(["frobnicate"]) != 0
    capsys.readouterr()


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "arithsim.cli", "cost", "--table"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "schedule_speedup" in result.stdout
