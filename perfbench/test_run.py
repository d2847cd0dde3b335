"""Self-tests of the benchmark. Run with: python3 -m pytest perfbench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing


def run_main(capsys, *argv):
    code = run.main(list(argv))
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_fault_injection_fails_the_run(monkeypatch, capsys):
    arithsim = run.load_arithsim()
    original = arithsim.flash.flash_add

    def off_by_one(a, b):
        result = original(a, b)
        return dataclasses.replace(
            result, sum=arithsim.BitVector(result.sum.width, result.sum.value + 1))

    monkeypatch.setattr(arithsim.flash, "flash_add", off_by_one)
    monkeypatch.setattr(arithsim.cli, "flash_add", off_by_one)
    code, result = run_main(capsys, "--workload", "add-wide-random", "--seed", "3",
                            "--seconds", "4", "--trace", "0")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0
    record = json.loads((run.OUT / "add-wide-random-seed3-trace0.json").read_text())
    assert record["failed_frac"] > 0


def test_traced_run_removes_every_wrapper_and_repeats_counts(capsys):
    arithsim = run.load_arithsim()
    targets = tracing.layer_targets(arithsim) + [(arithsim.cli, "cmd_verify", "")]
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in targets]
    counts = []
    for _ in range(2):
        code, result = run_main(capsys, "--workload", "mul-random", "--seed", "4",
                                "--seconds", "3", "--trace", "1")
        assert code == 0 and result["failed"] == 0
        assert [name for owner, name, original in before
                if vars(owner)[name] is not original] == []
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] in ("calls/op", "count/op")})
    assert arithsim.cli.cascade_add is arithsim.cascade.cascade_add
    assert arithsim.cli.multiply is arithsim.multiplier.multiply
    assert counts[0] == counts[1]
    assert counts[0]["multiplier.csa_stage.calls"] == 11  # 10 in schedule A, 1 in B


def test_wrappers_are_removed_when_the_body_raises():
    arithsim = run.load_arithsim()
    original = arithsim.cascade.cascade_add
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed([(arithsim.cascade, "cascade_add", "cascade.cascade_add")]):
            assert arithsim.cascade.cascade_add is not original
            1 / 0
    assert arithsim.cascade.cascade_add is original


def test_self_times_sum_to_the_root_span():
    spans = [("op", 0.0, 10.0, -1), ("f", 1.0, 6.0, 0), ("g", 2.0, 3.0, 1),
             ("g", 7.0, 9.0, 0)]
    by_name = tracing.summarize(spans)
    assert by_name == {"op": [1, 10.0, 3.0], "f": [1, 5.0, 4.0], "g": [2, 3.0, 3.0]}
    assert sum(entry[2] for entry in by_name.values()) == 10.0


def test_exits_nonzero_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mul-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
