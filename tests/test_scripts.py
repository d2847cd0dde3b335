"""Smoke tests: both scripts and README's library and command-line examples
run end to end against the package source."""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from arithsim import cli
from arithsim.cli import ADDER_DESIGNS

ROOT = Path(__file__).resolve().parent.parent

WIDTH_128_ROWS = """\
cascade            128     447     7    20/20
flash              128    8256     2    20/20
flash_double       128    2144     3    20/20
blocked_double     128    1000     3    20/20
"""

DEMO_RUN_OUTPUT = """\
cascade 00111100 + 10010111
  level 1: sums=83 carries=[0,1,1,0]
  level 2: sums=c3 carries=[1,0]
  level 3: sums=d3 carries=[0]
  sum=11010011 carry=0 ticks=3 gates=11

flash 00111100 + 10010111
  tick 1: s=010101011 c=00010100
  tick 2: firings (2,4) (4,6) over 36 gates
  sum=011010011 ticks=2

multiply 60 x 151, schedule A
  stage 1: csa_3_2 8 -> 6 rows (2 left out, 1 ticks, 2 circuits)
  stage 2: csa_3_2 6 -> 4 rows (0 left out, 1 ticks, 2 circuits)
  stage 3: csa_3_2 4 -> 3 rows (1 left out, 1 ticks, 1 circuits)
  stage 4: csa_3_2 3 -> 2 rows (0 left out, 1 ticks, 1 circuits)
  product=9060 (= 9060) ticks=7
multiply 60 x 151, schedule B
  stage 1: quantizer 8 -> 4 rows (1 left out, 2 ticks, 16 circuits)
  stage 2: quantizer 4 -> 3 rows (1 left out, 2 ticks, 16 circuits)
  stage 3: csa_3_2 3 -> 2 rows (0 left out, 1 ticks, 1 circuits)
  product=9060 (= 9060) ticks=8
"""

HEADLINE_BLOCK = """\
blocked 128-bit split: 544 in-block + 456 cross-block
mult 64-bit A: 10248 memory entries, 24 ticks
mult 64-bit B: 9216 memory entries, 8 ticks

headline numbers:
  cascade_gates_width_128            447
  double_width_gates_width_128       2144
  blocked_gates_width_128            1000
  schedule_a_csa_circuits            1281
  schedule_b_quantizer_entries       8192
  schedule_a_exclusive_entries       9224
  consolidation_stage_lower_bound    9
  schedule_a_ticks                   24
  schedule_b_ticks                   8
  schedule_speedup                   3
"""


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_latency_area_tradeoff_runs():
    result = run_script("latency_area_tradeoff.py", "--widths", "8,12,128", "--samples", "20")
    assert result.returncode == 0, result.stderr
    assert WIDTH_128_ROWS in result.stdout
    assert result.stdout.endswith(HEADLINE_BLOCK)
    assert "flash               12      78     2    20/20\n" in result.stdout
    # one row per adder entry at a width every adder takes; a blank line ends the table
    rows = [row.split() for row in result.stdout.split("\n\n")[0].splitlines()[1:]]
    assert [row[0] for row in rows if row[1] == "128"] == list(ADDER_DESIGNS)


def test_demo_run_runs():
    result = run_script("demo_run.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEMO_RUN_OUTPUT


def test_readme_library_example_runs():
    # each commented line's value is the comment's text up to its first comma
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, got, want = {}, [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            got.append(eval(code, namespace))
            want.append(eval(comment.split(",")[0]))
        else:
            exec(code, namespace)
    assert want == [2**64, 2, 56088, 8]
    assert got == want


def readme_commands():
    """README's `$ arithsim ...` lines, each with the output shown below it:
    the lines up to the next command or the block's end."""
    examples, lines = [], (ROOT / "README.md").read_text().splitlines()
    for index, line in enumerate(lines):
        if line.startswith("$ arithsim "):
            end = index + 1
            while not lines[end].startswith(("$ ", "```")):
                end += 1
            examples.append(pytest.param(line[len("$ arithsim "):], lines[index + 1:end],
                                         id=line[len("$ arithsim "):]))
    return examples


def test_readme_shows_each_command_and_no_unrun_example():
    # an `arithsim` line without its prompt would be an example no test runs
    lines = (ROOT / "README.md").read_text().splitlines()
    assert not [line for line in lines if line.lstrip().startswith("arithsim ")]
    commands = {example.values[0].split()[0] for example in readme_commands()}
    assert commands == {"add", "mul", "verify", "cost", "schedule"}


@pytest.mark.parametrize("command, shown", readme_commands())
def test_readme_command_line_example_prints_what_it_shows(monkeypatch, command, shown):
    monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(shlex.split(command))
    assert out.getvalue().splitlines() == shown
    assert code == (2 if shown[0].startswith("error: ") else 0)
