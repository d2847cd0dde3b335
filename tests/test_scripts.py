"""Smoke tests: both scripts run end to end against the package source."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WIDTH_128_ROWS = """\
cascade            128     447     447     7    20/20
flash              128    8256    8256     2    20/20
flash_double       128    2144       -     3    20/20
blocked_double     128    1000       -     3    20/20
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
    assert "flash               12      78      78     2    20/20\n" in result.stdout


def test_demo_run_runs():
    result = run_script("demo_run.py")
    assert result.returncode == 0, result.stderr
    assert "cascade " in result.stdout and "multiply " in result.stdout
