"""Workload definitions, pinned values and the checked operation.

An op is one operand pair pushed through every design of a workload, each
result checked against the big-integer oracle and against the pinned tick
count. This module imports nothing heavy at import time, so the set-up probe
can load it before it starts its clock; the arithsim package is passed in.
"""

from time import perf_counter

ADD_DESIGNS = ("cascade", "flash", "flash_double", "blocked_double")
SCHEDULES = ("A", "B")

# Simulated ticks per design: the model's own latency, not host time.
ADD_TICKS = {
    128: {"cascade": 7, "flash": 2, "flash_double": 3, "blocked_double": 3},
    8: {"cascade": 3, "flash": 2, "flash_double": 3, "blocked_double": 3},
}
MUL_TICKS = {"A": 13, "B": 8}
TRAJECTORIES = {
    "A": (64, 43, 29, 20, 14, 10, 7, 5, 4, 3, 2),
    "B": (64, 7, 3, 2),
}
REFERENCE_TABLE = (
    ("cascade_gates_width_128", 447),
    ("double_width_gates_width_128", 2144),
    ("blocked_gates_width_128", 1000),
    ("schedule_a_csa_circuits", 1281),
    ("schedule_b_quantizer_entries", 8192),
    ("schedule_a_exclusive_entries", 9224),
    ("consolidation_stage_lower_bound", 9),
    ("schedule_a_ticks", 24),
    ("schedule_b_ticks", 8),
    ("schedule_speedup", 3),
)

# Exhaustive pairs are visited in the order index * STRIDE mod 2**16, an odd
# stride and hence a permutation, so any prefix (the count window, the first
# op of set-up) samples the whole operand space instead of a = 0.
EXHAUSTIVE_STRIDE = 40503


class Workload:
    # A plain class, not a dataclass: the set-up probe imports this module
    # before its clock starts, and arithsim's own import of dataclasses must
    # stay inside the measured set-up.
    def __init__(self, name, kind, width, exhaustive, verify_trials, window, sim_ticks):
        self.name = name
        self.kind = kind  # "add" or "mul"
        self.width = width
        self.exhaustive = exhaustive
        self.verify_trials = verify_trials  # per design; exhaustive sweeps ignore it
        self.window = window  # ops in one count window of the traced run
        self.sim_ticks = sim_ticks  # pinned simulated ticks per op
        self.designs = ADD_DESIGNS if kind == "add" else SCHEDULES

    def verify_argvs(self, seed: int) -> list[list[str]]:
        """One `arithsim verify` command line per design of the workload."""
        argvs = []
        for design in self.designs:
            argv = ["verify", "--design", design if self.kind == "add" else "mult",
                    "--width", str(self.width)]
            if self.kind == "mul":
                argv += ["--schedule", design]
            argv += ["--trials", str(self.verify_trials), "--seed", str(seed),
                     "--format", "structured"]
            argvs.append(argv)
        return argvs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("add-wide-random", "add", 128, False, 1000, 128, 15),
        Workload("add-narrow-exhaustive", "add", 8, True, 1, 1024, 11),
        Workload("mul-random", "mul", 64, False, 500, 64, 21),
    )
}


def operand_stream(workload: Workload, seed: int):
    """Endless operand pairs of the workload for this seed.

    Random workloads draw fresh uniform pairs from Mersenne Twister seeded
    with `seed`, so no pair repeats in a run and a result cache cannot help;
    the exhaustive workload cycles through its fixed permutation of all
    pairs and ignores the seed.
    """
    width = workload.width
    if workload.exhaustive:
        space = 1 << (2 * width)
        low = (1 << width) - 1
        while True:
            for i in range(space):
                index = (i * EXHAUSTIVE_STRIDE) % space
                yield index >> width, index & low
    import random

    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(width), rng.getrandbits(width)


class Mismatch(Exception):
    """A design disagreed with the oracle or broke a pinned value."""


def _add_designs(arithsim, width):
    BitVector = arithsim.BitVector
    cascade, flash = arithsim.cascade, arithsim.flash
    half = width // 2
    mask = (1 << half) - 1

    # Entry points are looked up on their modules at call time, so a tracing
    # wrapper installed there is the one that runs.
    def run_cascade(A, B, a, b):
        t0 = perf_counter()
        r = cascade.cascade_add(A, B)
        t1 = perf_counter()
        return r.sum.value | (r.carry << width), r.trace.ticks, t1 - t0

    def run_flash(A, B, a, b):
        t0 = perf_counter()
        r = flash.flash_add(A, B)
        t1 = perf_counter()
        return r.sum.value, r.ticks, t1 - t0

    def run_flash_double(A, B, a, b):
        halves = (BitVector(half, a & mask), BitVector(half, a >> half),
                  BitVector(half, b & mask), BitVector(half, b >> half))
        t0 = perf_counter()
        r = flash.double_width_add(*halves)
        t1 = perf_counter()
        return r.sum.value, r.ticks, t1 - t0

    def run_blocked(A, B, a, b):
        t0 = perf_counter()
        r = flash.blocked_add(A, B)
        t1 = perf_counter()
        return r.sum.value, r.ticks, t1 - t0

    runners = (run_cascade, run_flash, run_flash_double, run_blocked)
    return tuple(zip(ADD_DESIGNS, runners)), arithsim.oracle_add


def _mul_designs(arithsim):
    multiplier = arithsim.multiplier

    def runner(schedule):
        enum = multiplier.Schedule(schedule)
        trajectory = TRAJECTORIES[schedule]

        def run(A, B, a, b):
            t0 = perf_counter()
            r = multiplier.multiply(A, B, enum)
            t1 = perf_counter()
            if r.report.row_trajectory != trajectory:
                raise Mismatch(f"schedule {schedule} trajectory "
                               f"{r.report.row_trajectory} for a={a:x} b={b:x}")
            return r.product.value, r.ticks, t1 - t0

        return run

    return tuple((s, runner(s)) for s in SCHEDULES), arithsim.oracle_mul


def make_op(arithsim, workload: Workload):
    """Return op(a, b) -> (simulated ticks, per-design host seconds).

    Timing of an op starts before its ints are wrapped in BitVectors. The op
    raises Mismatch on any wrong result or tick count.
    """
    if workload.kind == "add":
        designs, oracle = _add_designs(arithsim, workload.width)
        pinned = ADD_TICKS[workload.width]
    else:
        designs, oracle = _mul_designs(arithsim)
        pinned = MUL_TICKS
    checks = tuple((name, run, pinned[name]) for name, run in designs)
    BitVector = arithsim.BitVector
    width = workload.width

    def op(a, b):
        A = BitVector(width, a)
        B = BitVector(width, b)
        want = oracle(a, b)
        ticks = 0
        durations = []
        for name, run, pinned_ticks in checks:
            got, got_ticks, seconds = run(A, B, a, b)
            if got != want:
                raise Mismatch(f"{name}: a={a:x} b={b:x} got {got:x} want {want:x}")
            if got_ticks != pinned_ticks:
                raise Mismatch(f"{name}: {got_ticks} ticks, pinned {pinned_ticks}")
            ticks += got_ticks
            durations.append(seconds)
        return ticks, durations

    return op


def check_reference_table(table) -> None:
    if tuple(table) != REFERENCE_TABLE:
        raise Mismatch(f"reference_table() = {tuple(table)}")
