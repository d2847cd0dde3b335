"""How many Python-level calls one pair costs inside the package.

Each one-pair entry point is called once to fill the caches, then once more
under `sys.setprofile`, counting every call into a function defined in
`src/arithsim/`. Comprehension code objects (names starting with `<`) are
left out, since 3.12 inlines them and 3.11 does not. The counts do not
depend on the operands, and host noise cannot move them, so a change that
adds calls to a one-pair path shows here. Re-pin CALL_BUDGET only with a
stated reason.
"""

import os
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import arithsim
from arithsim import cascade, flash, multiplier
from arithsim.bitvec import BitVector

PACKAGE = f"{Path(arithsim.__file__).parent}{os.sep}"

# Calls per one-pair call, by entry point: a 64-bit multiply under each
# schedule (schedule A's ten 3:2 stages make 62 `csa_3_2` calls), and each
# adder at widths 8 and 128.
CALL_BUDGET = {
    "multiply A": 137,
    "multiply B": 45,
    "cascade_add 8": 17,
    "flash_add 8": 10,
    "double_width_add 8": 12,
    "blocked_add 8": 14,
    "cascade_add 128": 29,
    "flash_add 128": 10,
    "double_width_add 128": 12,
    "blocked_add 128": 14,
}


def package_calls(f, args):
    """The calls into package functions, by qualified name, that one
    `f(*args)` makes after a warm-up call."""
    f(*args)
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name[0] != "<" and code.co_filename.startswith(PACKAGE):
            calls[code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return calls


def entry_calls(name, seed):
    """`name`'s entry point and arguments on one seeded pair."""
    entry, _, width = name.partition(" ")
    rng = random.Random(seed)
    if entry == "multiply":
        a, b = (BitVector(64, rng.getrandbits(64)) for _ in "ab")
        return multiplier.multiply, (a, b, multiplier.Schedule(width))
    width = int(width)
    a, b = rng.getrandbits(width), rng.getrandbits(width)
    if entry == "double_width_add":
        half, low = width // 2, (1 << width // 2) - 1
        return flash.double_width_add, (BitVector(half, a & low), BitVector(half, a >> half),
                                        BitVector(half, b & low), BitVector(half, b >> half))
    owner = cascade if entry == "cascade_add" else flash
    return getattr(owner, entry), (BitVector(width, a), BitVector(width, b))


def test_one_pair_makes_the_pinned_package_calls():
    counts = {name: package_calls(*entry_calls(name, 0)) for name in CALL_BUDGET}
    assert {name: sum(calls.values()) for name, calls in counts.items()} == CALL_BUDGET, counts


@pytest.mark.parametrize("name", ["multiply A", "multiply B", "cascade_add 128", "flash_add 8"])
def test_the_call_counts_do_not_depend_on_the_operands(name):
    assert len({tuple(sorted(package_calls(*entry_calls(name, seed)).items()))
                for seed in range(5)}) == 1

