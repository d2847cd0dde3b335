"""`arithsim verify` output pinned byte for byte: a corpus of argvs over every
design, both sweep modes, odd and wide widths, several seeds, trial counts
that fill no whole batch, both formats, and every fault fixture.

Each digest is the sha256 of every argv, its exit code and its stdout, in
order. The corpus and feed-corpus digests were taken while `verify` still
checked one pair per call, so a change in how it sweeps must leave every
count, counterexample and byte as they were. The fault digests were taken
once random batches became two masked lane-word draws (`cli._verify_batches`),
which moved only their random argvs' first counterexamples: every exit code
and every passed/failed count is as it was before.
"""

import contextlib
import hashlib
import io

import pytest

from arithsim import cli

CORPUS_DIGEST = "4091a47f9d4f73bbf1b1cc3456510962aa9cdff476fdf3ba3f1f7cdc09f08fce"

FEED_CORPUS_DIGEST = "77b1acd966aaf2e7cc8e0e2210a1e9208500bddaf22e56822218d58df13e443d"

FAULT_DIGESTS = {
    "shortened_segment": "878f486ba3cd2940aa79dad6c7239f2df1b630528b349c548c92baca74daefd9",
    "extra_end": "7f754e0fc615188e9e86ad196a0a8dbee6b49a0d34ef73db2eb3024bf5597ded",
    "flipped_leaf_sum": "b9de95b2c9584f836b2299cd36b48e14926c6501f3c03737087b991db00cba1c",
    "flipped_step_sum": "6bee6a6e45d5185e2b1efe21a8d72706e966c84e126f027894d26f0263f5ca68",
    "flipped_csa_carry": "a845bb8be6370109b89917f3138b79bba9a5fdcfa2ed3161c5ceb1b6ed85d1ae",
    "extra_zero_row": "504ebb628f2a0b233ed3411d61f5bfab47133046c55ade8af2d55c10ea6dcc7b",
    "flipped_plane_bit": "264a447e3f536bb8a4f044a11c6223f92a490e6652313ac072cefd0416c8a298",
}


def verify_argv(design, width, *extra, schedule=None, structured=False):
    argv = ["verify", "--design", design, "--width", str(width)]
    if schedule is not None:
        argv += ["--schedule", schedule]
    argv += list(extra)
    if structured:
        argv += ["--format", "structured"]
    return argv


def corpus_argvs():
    """At least 100 argvs: exhaustive sweeps at every small width each design
    takes, then seeded random sweeps at 1, 7 and 1001 trials."""
    argvs = []
    exhaustive = {
        "flash": (1, 3, 5, 8),
        "cascade": (2, 4, 8),
        "flash_double": (2, 4, 6, 8),
        "blocked_double": (2, 8),
    }
    for design, widths in exhaustive.items():
        for index, width in enumerate(widths):
            argvs.append(verify_argv(design, width, structured=index % 2 == 0))
    for schedule in ("A", "B"):
        argvs.append(verify_argv("mult", 4, schedule=schedule, structured=schedule == "A"))
        argvs.append(verify_argv("mult", 4, schedule=schedule, structured=schedule == "B"))
    random_widths = {
        "flash": (9, 64, 128),
        "cascade": (16, 64, 128),
        "flash_double": (10, 64, 128),
        "blocked_double": (32, 128),
    }
    for design, widths in random_widths.items():
        for width in widths:
            for trials, seed in ((1, 0), (7, 1), (7, 12345), (1001, 7)):
                for structured in (False, True):
                    if trials == 1001 and structured != (width == 128):
                        continue
                    argvs.append(verify_argv(design, width, "--trials", str(trials),
                                             "--seed", str(seed), structured=structured))
    for schedule in ("A", "B"):
        for width in (8, 16, 64):
            for trials, seed in ((1, 0), (7, 3), (1001, 5)):
                if trials == 1001 and width != 64:
                    continue
                argvs.append(verify_argv("mult", width, "--trials", str(trials), "--seed",
                                         str(seed), schedule=schedule,
                                         structured=(seed + width) % 2 == 0))
    # the default trial count and seed
    argvs.append(verify_argv("flash", 16))
    argvs.append(verify_argv("cascade", 32, structured=True))
    return argvs


def feed_corpus_argvs():
    """Random sweeps at widths that are not whole bytes or whose lanes hold
    padding beyond the width (the multiplier's 2N-bit rows), at trial counts
    around one batch: flash at widths 31, 33 and 100, the multiplier at 8,
    16 and 32 under both schedules."""
    argvs = []
    for width in (31, 33, 100):
        for trials, seed in ((1, 0), (127, 1), (128, 2), (129, 3), (300, 4)):
            argvs.append(verify_argv("flash", width, "--trials", str(trials), "--seed", str(seed),
                                     structured=(trials + width) % 2 == 0))
    for width in (8, 16, 32):
        for schedule in ("A", "B"):
            for trials, seed in ((1, 5), (129, 6), (300, 7)):
                argvs.append(verify_argv("mult", width, "--trials", str(trials), "--seed",
                                         str(seed), schedule=schedule,
                                         structured=schedule == "A"))
    return argvs


# Each fixture in exhaustive mode and in a random mode, on the designs whose
# stage it breaks.
FAULT_ARGVS = {
    "shortened_segment": [
        verify_argv("flash", 4, structured=True),
        verify_argv("flash_double", 8),
        verify_argv("blocked_double", 8, structured=True),
        verify_argv("flash", 64, "--trials", "1001", "--seed", "2", structured=True),
        verify_argv("flash_double", 128, "--trials", "7", "--seed", "4"),
        verify_argv("blocked_double", 32, "--trials", "7", "--seed", "4", structured=True),
        verify_argv("mult", 16, "--trials", "7", schedule="B", structured=True),
    ],
    "extra_end": [
        verify_argv("flash", 3),
        verify_argv("flash", 8, structured=True),
        verify_argv("flash_double", 6, structured=True),
        verify_argv("blocked_double", 8),
        verify_argv("flash", 128, "--trials", "1001", "--seed", "9"),
        verify_argv("blocked_double", 128, "--trials", "7", structured=True),
    ],
    "flipped_leaf_sum": [
        verify_argv("cascade", 8, structured=True),
        verify_argv("cascade", 2),
        verify_argv("cascade", 128, "--trials", "1001", "--seed", "3", structured=True),
        verify_argv("cascade", 64, "--trials", "7"),
    ],
    "flipped_step_sum": [
        verify_argv("cascade", 8, structured=True),
        verify_argv("cascade", 4),
        verify_argv("cascade", 128, "--trials", "1001", "--seed", "3"),
        verify_argv("cascade", 16, "--trials", "7", structured=True),
    ],
    "flipped_csa_carry": [
        verify_argv("mult", 4, schedule="A", structured=True),
        verify_argv("mult", 4, schedule="B"),
        verify_argv("mult", 64, "--trials", "7", "--seed", "1", schedule="A"),
        verify_argv("mult", 16, "--trials", "1001", schedule="B", structured=True),
    ],
    "extra_zero_row": [
        verify_argv("mult", 4, schedule="A"),
        verify_argv("mult", 4, schedule="B", structured=True),
        verify_argv("mult", 32, "--trials", "7", schedule="A", structured=True),
        verify_argv("mult", 8, "--trials", "1001", schedule="B"),
    ],
    "flipped_plane_bit": [
        verify_argv("mult", 4, schedule="B", structured=True),
        verify_argv("mult", 4, schedule="A"),
        verify_argv("mult", 64, "--trials", "7", "--seed", "6", schedule="B"),
        verify_argv("mult", 8, "--trials", "1001", schedule="B", structured=True),
    ],
}


def digest_of(argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def test_the_corpus_covers_what_it_claims():
    argvs = corpus_argvs()
    assert len(argvs) >= 100
    seen = {tuple(argv) for argv in argvs}
    assert len(seen) == len(argvs)
    assert set(FAULT_ARGVS) == set(FAULT_DIGESTS)


def test_verify_corpus_output_is_pinned():
    assert digest_of(corpus_argvs()) == CORPUS_DIGEST


def test_verify_feed_corpus_output_is_pinned():
    assert digest_of(feed_corpus_argvs()) == FEED_CORPUS_DIGEST


@pytest.mark.parametrize("fixture", sorted(FAULT_ARGVS))
def test_verify_under_a_fault_fixture_is_pinned(request, fixture):
    request.getfixturevalue(fixture)
    assert digest_of(FAULT_ARGVS[fixture]) == FAULT_DIGESTS[fixture]
