"""The attributes the benchmark harness wraps while it traces a run.

`perfbench/tracing.py` patches stage functions, check hooks and the CLI's
entry points by name, and its own self-tests are not part of this suite, so
these tests keep a rename or a deletion from breaking the benchmark
silently.
"""

import importlib.util
from pathlib import Path

import arithsim
from arithsim import cascade, cli, flash, multiplier

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_defined_on_its_owner():
    tracing = load_tracing()
    targets = tracing.layer_targets(arithsim) + tracing.cli_targets(arithsim)
    targets.append((cli, "cmd_verify", "cli.verify"))
    missing = [(owner, attr) for owner, attr, *_ in targets if attr not in vars(owner)]
    assert missing == []


def test_main_runs_the_cmd_verify_installed_at_call_time(capsys):
    # verify sweeps in batches: the 256 pairs of the width-4 sweep fit one
    # word, so one lane-kernel call, and no per-pair entry point, since the
    # batch passes
    tracing = load_tracing()
    tracer = tracing.Tracer()
    original = cli.cmd_verify
    targets = [(cli, "cmd_verify", "cli.verify"), (flash, "flash_lanes", "flash.flash_lanes")]
    with tracer.installed(targets + tracing.cli_targets(arithsim)):
        code = cli.main(["verify", "--design", "flash", "--width", "4", "--format", "structured"])
    assert code == 0
    assert "record=verify passed=256 failed=0" in capsys.readouterr().out
    calls = {name: entry[0] for name, entry in tracing.summarize(tracer.take()[0]).items()}
    assert calls == {"cli.verify": 1, "flash.flash_lanes": 1}
    assert cli.cmd_verify is original


def test_the_cli_entry_points_are_their_home_modules_functions():
    # `cli` calls none of the four adder entry points, so a stale alias there
    # would fail no other test; the tracer would wrap a function nothing runs
    homes = {"cascade_add": cascade, "flash_add": flash, "double_width_add": flash,
             "blocked_add": flash, "multiply": multiplier}
    assert [name for name, home in homes.items()
            if getattr(cli, name) is not getattr(home, name)] == []
