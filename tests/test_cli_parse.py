"""How `cli.main` parses an argv.

An argv whose first word names a subcommand is parsed once, by that
subcommand's parser; every other argv goes to the top-level parser. The
edge corpus pins the exit code, stdout and stderr of the argvs where the two
routes could differ: help, missing and unknown arguments, bad values,
abbreviations and `--`. EDGE_DIGEST was taken while `main` still ran every
argv through the top-level parser's `parse_args`, on Python 3.11.7.
argparse's bytes depend on the interpreter (3.13.0 wraps `verify`'s usage
line differently), so the pin is 3.11.7's.
"""

import ast
import contextlib
import hashlib
import io
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from test_benchmark_hooks import harness  # noqa: F401
from test_cli_contract import cost_record_argvs, in_both_formats, multiplier_record_argvs
from test_verify_corpus import FAULT_ARGVS, corpus_argvs, feed_corpus_argvs

from arithsim import cli

EDGE_DIGEST = "aef90725a94418bd872aafab2f1b3b7d1086048f7e27e6eb78ff40f7047afc2b"

# One argv per subcommand that runs and exits 0, and cheaply.
VALID = {
    "add": ["add", "--width", "8", "ff", "1"],
    "mul": ["mul", "--width", "8", "ff", "3"],
    "verify": ["verify", "--design", "flash", "--width", "4"],
    "cost": ["cost", "--design", "flash", "--width", "8"],
    "schedule": ["schedule", "--schedule", "A"],
}


def edge_argvs():
    """The top-level parser's own argvs, then for each subcommand: help, no
    arguments, an unknown option, an extra positional, a bad choice, a bad
    int, an option missing its value, `--opt=value`, abbreviations and `--`."""
    argvs = [[], ["-h"], ["--help"], ["--he"], ["frobnicate"], ["--format", "text", "verify"],
             ["--", "verify", "--design", "flash", "--width", "4"], ["Verify"]]
    for command, valid in VALID.items():
        argvs += [[command, "-h"], [command, "--help"], [command], valid,
                  valid + ["--bogus"], valid + ["extra"], valid + ["--format", "xml"],
                  valid + ["--"], valid[:1] + ["--format", "structured"] + valid[1:]]
    argvs += [
        ["add", "--design", "ripple", "--width", "8", "1", "2"],
        ["add", "--width", "eight", "1", "2"],
        ["add", "1", "2", "--width"],
        ["add", "--width=8", "--design=cascade", "--format=structured", "ff", "1"],
        ["add", "--des", "flash", "--wid", "8", "--tr", "1", "2"],
        ["add", "--width", "8", "--", "ff", "1"],
        ["add", "--width", "8", "--", "-1", "2"],
        ["add", "--width", "-2", "1", "2"],
        ["mul", "--schedule", "C", "--width", "8", "1", "2"],
        ["mul", "--width", "8.0", "1", "2"],
        ["mul", "1", "2", "--width"],
        ["mul", "--width=8", "--schedule=A", "ff", "3"],
        ["mul", "--sch", "A", "--wid", "8", "1", "2"],
        ["mul", "--width", "8", "--", "ff", "3"],
        ["verify", "--design", "ripple", "--width", "4"],
        ["verify", "--design", "flash", "--width", "4", "--trials", "1e3"],
        ["verify", "--design", "flash", "--width", "4", "--seed"],
        ["verify", "--design=flash", "--width=4", "--format=structured"],
        ["verify", "--des", "flash", "--wid", "16", "--tri", "3", "--see", "5"],
        ["verify", "--design", "flash", "--width", "4", "--s", "A"],
        ["verify", "--design", "flash", "--width", "-2"],
        ["verify", "--design", "mult", "--width", "8", "--trials", "0"],
        ["verify", "--", "--design", "flash", "--width", "4"],
        ["cost", "--design", "ripple", "--width", "8"],
        ["cost", "--design", "flash", "--width", "x"],
        ["cost", "--design"],
        ["cost", "--design=flash", "--width=8"],
        ["cost", "--des", "flash", "--wid", "8"],
        ["cost", "--ta"],
        ["cost", "--table", "--"],
        ["schedule", "--schedule", "C"],
        ["schedule", "--schedule", "A", "--rows", "many"],
        ["schedule", "--schedule"],
        ["schedule", "--schedule=B", "--rows=5"],
        ["schedule", "--sch", "A", "--ro", "4"],
        ["schedule", "--", "--schedule", "A"],
    ]
    return argvs


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def edge_digest():
    digest = hashlib.sha256()
    for argv in edge_argvs():
        code, out, err = run(argv)
        digest.update(f"{argv} {code}\n{out}\n{err}\n".encode())
    return digest.hexdigest()


def test_the_edge_corpus_is_pinned(monkeypatch):
    # help text wraps at the terminal's width, and the format defaults from
    # the environment
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
    assert edge_digest() == EDGE_DIGEST


def pinned_argvs(run_module):
    """Every argv of the pinned CLI corpora: verify's corpora, the multiplier
    and cost records in both formats, perfbench's records and the edge
    corpus."""
    argvs = corpus_argvs() + feed_corpus_argvs()
    argvs += [argv for fault in FAULT_ARGVS.values() for argv in fault]
    argvs += in_both_formats(multiplier_record_argvs() + cost_record_argvs())
    return argvs + run_module.record_argvs() + edge_argvs()


def test_main_hands_each_handler_the_namespace_parse_args_builds(harness, monkeypatch):
    # `main` looks its handler up at call time, so a spy in its place sees
    # the namespace and runs nothing
    handed = []
    for command in cli.build_parser().commands:
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args, structured: handed.append(args) or 0)
    parser = cli.build_parser()
    checked = 0
    for argv in pinned_argvs(harness[0]):
        handed.clear()
        code = run(argv)[0]
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                want = parser.parse_args(argv)
        except SystemExit as exc:
            assert (handed, code) == ([], exc.code), argv
            continue
        if handed:
            assert vars(handed[0]) == vars(want), argv
            checked += 1
        else:  # main's own checks rejected a value the parser took
            assert code == 2, argv
    assert checked > 2000  # 2046 of the 2109 argvs run a handler


def test_the_top_level_parser_scans_only_argvs_that_name_no_subcommand(monkeypatch):
    parser = cli.build_parser()
    scans = []
    original = parser.parse_known_args

    def spy(*args, **kwargs):
        scans.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", spy)
    named = [*VALID.values(), VALID["verify"] + ["--bogus"], ["cost", "-h"], ["schedule"]]
    unnamed = [[], ["-h"], ["--help"], ["frobnicate"], ["--format", "text", "verify"]]
    for argv in named + unnamed:
        scans.clear()
        run(argv)
        assert len(scans) == int(argv in unnamed), argv


# The fuzz's vocabulary: every subcommand and option, the options' choices
# with near misses, small ints, hex and non-hex operands, help, `--` and
# junk. An argv is its first word, then junk, then the options and operands
# the first word's command needs, drawn from the same vocabulary, then junk;
# so most argvs name a command, and many of those run it. Widths and trial
# counts stay at most 64, so each example runs in milliseconds.
SMALL_INTS = st.integers(-2, 64).map(str)
VALUES = {
    "--design": st.sampled_from(cli.ADDER_DESIGNS + ("mult", "mult_schedule_a", "Flash",
                                                     "ripple", "")),
    "--width": st.one_of(st.sampled_from(("4", "8", "16", "64")), SMALL_INTS),
    "--trials": SMALL_INTS,
    "--seed": st.integers(-2, 70).map(str),
    "--rows": st.integers(-2, 70).map(str),
    "--schedule": st.sampled_from(cli.SCHEDULES + ("a", "C", "AB")),
    "--format": st.sampled_from(("text", "structured", "xml", "Text")),
}
HEX = st.one_of(st.integers(0, 15), st.integers(0, (1 << 64) - 1)).map(lambda v: f"{v:x}")
COMMANDS = tuple(cli.build_parser().commands)
NEEDS = {"add": ("--width",), "mul": ("--width",), "verify": ("--design", "--width", "--trials"),
         "cost": ("--design", "--width"), "schedule": ("--schedule",)}
OPERANDS = {"add": 2, "mul": 2}
WORDS = st.lists(st.one_of(
    st.sampled_from(sorted(VALUES)).flatmap(lambda option: st.tuples(st.just(option),
                                                                    VALUES[option])),
    st.tuples(st.one_of(
        st.sampled_from(sorted(VALUES)),
        SMALL_INTS,
        HEX,
        st.sampled_from(("0x1f", "-1", "g", "", " ", "ff ", "1_0", "fF", "-", "=")),
        st.sampled_from(("--trace", "--table", "-h", "--help", "--", "--des", "--wid", "--s",
                         "--tr", "--width=", "--design=flash", "--trials=7", "--rows=70", "-x",
                         "--bogus", *COMMANDS)),
    )),
), max_size=3).map(lambda groups: [word for group in groups for word in group])
# junk in one place out of three
JUNK = st.sampled_from((False, False, True)).flatmap(lambda junk: WORDS if junk else st.just([]))


@st.composite
def argvs(draw):
    first = draw(st.sampled_from(COMMANDS) |
                 st.sampled_from(("-h", "--help", "--format", "frobnicate", "--", "")))
    argv = [first, *draw(JUNK)]
    for option in NEEDS.get(first, ()):
        argv += [option, draw(VALUES[option])]
    argv += [draw(HEX) for _ in range(OPERANDS.get(first, 0))]
    return argv + draw(JUNK)


@settings(max_examples=400)
@given(argvs())
def test_no_argv_escapes_the_exit_code_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""


def private_argparse_reads(source):
    """The `_`-prefixed, non-dunder attributes read in `source` if it imports
    argparse: any object there may be a parser, and argparse's private names
    are not its interface."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    if not any("argparse" in (getattr(node, "module", None) or "") or
               any(alias.name == "argparse" for alias in node.names) for node in imports):
        return []
    names = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    names += [alias.name for node in imports for alias in node.names]
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def test_the_package_reads_no_private_argparse_name():
    assert private_argparse_reads("import argparse\nargparse._SubParsersAction\n") == \
        ["_SubParsersAction"]
    assert private_argparse_reads("import argparse\np = build()\np._subparsers\n") == \
        ["_subparsers"]
    assert private_argparse_reads("from argparse import _ActionsContainer\n") == \
        ["_ActionsContainer"]
    assert private_argparse_reads("x._private\n") == []
    package = Path(cli.__file__).parent
    assert {path.name: private_argparse_reads(path.read_text())
            for path in package.glob("*.py")} == {path.name: [] for path in package.glob("*.py")}
