"""arithsim benchmark: verify throughput, per-op latency, set-up cost and
traced per-layer stage costs.

    python3 perfbench/run.py --workload add-wide-random --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

One process, one thread, a closed loop with a single caller: each op starts
when the previous one has returned. Every result is checked against
`oracle_add` or `oracle_mul` and every pinned value is re-checked; a failure
counts in `failed` and makes the exit code 1. `--trace 0` measures the
end-to-end metrics and installs nothing; `--trace 1` is a separate run that
wraps the package's functions to measure the per-layer metrics. The last
line of stdout is one JSON object; a result file with an environment header
goes to perfbench/out/. Exit code 2: usage error or no arithsim source in
the checkout.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
import tracing
import workloads
from workloads import ADD_DESIGNS, SCHEDULES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
STRETCH_S = 0.1  # short against the host's slow phases
HELDOUT_SEED_OFFSET = 1_000_003
# sha256 of the structured `add --trace` and `mul` records of record_argvs(),
# taken at the commit that introduced this benchmark. Any refactor must keep
# these records byte-identical.
RECORD_DIGEST = "8d4b88861a684aebd3178d88f19a2971b5883b0bf6d516c5be6a3e2517c358be"

# Per-call latency metric of each design entry point the op calls directly.
CALL_METRICS = {
    "cascade": "cascade.cascade_add.us_p50",
    "flash": "flash.flash_add.us_p50",
    "flash_double": "flash.double_width_add.us_p50",
    "blocked_double": "flash.blocked_add.us_p50",
    "A": "multiplier.multiply.A.us_p50",
    "B": "multiplier.multiply.B.us_p50",
}
SELF_METRICS = (
    "cascade.leaf_init",
    "cascade.cascade_step",
    "cascade.increment_unit",
    "cascade.check_block_sums",
    "flash.half_add",
    "flash.fire_set",
    "flash.resolve",
    "multiplier.partial_products",
    "multiplier.consolidate",
    "multiplier.csa_stage",
    "multiplier.quantize_columns",
)
CALL_COUNTS = {
    "cascade.increment_unit.calls": "cascade.increment_unit",
    "multiplier.csa_stage.calls": "multiplier.csa_stage",
    "bitvec.BitVector.constructions": "bitvec.BitVector.__post_init__",
}


class Tally:
    """Attempts and failures. An attempt is an op, a verified pair or a
    gate; it fails on a mismatch, an exception, a nonzero CLI exit or a
    broken pinned value."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message, count=1):
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def gate(self, ok, message):
        self.attempted += 1
        if not ok:
            self.fail(message)


def median(values):
    return statistics.median(list(values))


def percentile(ascending, q):
    """Nearest-rank percentile of an ascending list."""
    return ascending[max(1, math.ceil(q * len(ascending))) - 1]


def until(stream, deadline):
    for pair in stream:
        if perf_counter() >= deadline:
            return
        yield pair


def run_ops(op, pairs, tally, latencies, per_design=None):
    """Run checked ops; append each op's host seconds. Returns sim ticks."""
    ticks = 0
    for a, b in pairs:
        tally.attempted += 1
        try:
            t0 = perf_counter()
            op_ticks, durations = op(a, b)
            t1 = perf_counter()
        except Exception as exc:  # a failed op is counted and the run goes on
            tally.fail(f"op a={a:x} b={b:x}: {exc!r}")
            continue
        latencies.append(t1 - t0)
        ticks += op_ticks
        if per_design is not None:
            for sink, seconds in zip(per_design, durations):
                sink.append(seconds)
    return ticks


def verify(cli, argv, tally):
    """One `arithsim verify` run with stdout captured. Returns pairs checked."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a model break escapes cli.main as a traceback
        tally.gate(False, f"arithsim {' '.join(argv)} raised {exc!r}")
        return 0
    fields = {}
    for line in out.getvalue().splitlines():
        if line.startswith("record=verify "):
            fields = dict(part.split("=", 1) for part in line.split(" "))
    passed, failed = int(fields.get("passed", 0)), int(fields.get("failed", 0))
    tally.attempted += passed + failed
    if failed:
        tally.fail(f"arithsim {' '.join(argv)}: {failed} failed, "
                   f"first {fields.get('counterexample')}", failed)
    if code != 0 or not fields:
        tally.gate(False, f"arithsim {' '.join(argv)} exited {code}")
    return passed + failed


def verify_pass(cli, workload, seed, tally, meter):
    """Every design's verify sweep once, each call rescaled by the slowdown
    measured around it. Returns (pairs, scaled seconds per design, raw seconds)."""
    pairs = 0
    scaled, raw = [], 0.0
    for argv in workload.verify_argvs(seed):
        start = perf_counter()
        pairs += verify(cli, argv, tally)
        seconds = perf_counter() - start
        raw += seconds
        scaled.append(seconds / meter.lap())
    return pairs, scaled, raw


def record_argvs():
    """The fixed operand sample whose structured CLI records are hashed."""
    rng = random.Random(0xD16E57)
    argvs = []
    for width in (8, 128):
        top = (1 << width) - 1
        sample = [(0, 0), (top, 1), (top, top)]
        sample += [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(5)]
        for design in ADD_DESIGNS:
            argvs += [["add", "--design", design, "--width", str(width), "--trace",
                       "--format", "structured", f"{a:x}", f"{b:x}"] for a, b in sample]
    top = (1 << 64) - 1
    sample = [(0, 0), (top, top)] + [(rng.getrandbits(64), rng.getrandbits(64))
                                     for _ in range(6)]
    for schedule in SCHEDULES:
        argvs += [["mul", "--schedule", schedule, "--width", "64", "--format",
                   "structured", f"{a:x}", f"{b:x}"] for a, b in sample]
    return argvs


def record_digest(cli):
    digest = hashlib.sha256()
    for argv in record_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def correctness_gates(arithsim, tally):
    """Pinned headline numbers and structured records, once per run."""
    try:
        workloads.check_reference_table(arithsim.reference_table())
        tally.gate(True, "")
    except Exception as exc:
        tally.gate(False, f"reference table: {exc!r}")
    try:
        digest = record_digest(arithsim.cli)
    except Exception as exc:
        digest = repr(exc)
    tally.gate(digest == RECORD_DIGEST,
               f"structured record digest {digest}, pinned {RECORD_DIGEST}")


def setup_probe(workload, seed, tally, meter):
    """Run probe.py in a fresh interpreter; returns its report, rescaled."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload.name, str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    factor = meter.lap()
    tally.gate(proc.returncode == 0, f"set-up probe: {proc.stderr.strip()[-500:]}")
    if proc.returncode != 0:
        return None
    return {key: value / factor for key, value in json.loads(proc.stdout.splitlines()[-1]).items()}


class Histogram:
    """Op latencies counted in log-spaced bins 0.1% wide, from 1 us to 100 s.

    Memory is fixed however many ops a run completes, so the benchmark's own
    bookkeeping cannot move `peak_rss_mib`; a percentile reads within 0.05%.
    """

    LOW_S = 1e-6
    LOG_STEP = math.log(1.001)

    def __init__(self):
        self.counts = [0] * (math.ceil(math.log(1e8) / self.LOG_STEP) + 1)
        self.total = 0

    def extend(self, latencies):
        top = len(self.counts) - 1
        for seconds in latencies:
            index = int(math.log(max(seconds, self.LOW_S) / self.LOW_S) / self.LOG_STEP)
            self.counts[min(index, top)] += 1
            self.total += 1

    def percentile(self, q):
        """Nearest-rank percentile, interpolated geometrically within its bin."""
        rank = max(1, math.ceil(q * self.total))
        below = 0
        for index, count in enumerate(self.counts):
            if below + count >= rank:
                return self.LOW_S * math.exp((index + (rank - below) / count) * self.LOG_STEP)
            below += count
        return 0.0


def op_stretches(op, stream, end, tally, histogram, meter):
    """Checked ops until `end`, in stretches of STRETCH_S each rescaled by
    the slowdown around it. Returns simulated ticks."""
    ticks = 0
    while perf_counter() < end:
        latencies = []
        ticks += run_ops(op, until(stream, min(end, perf_counter() + STRETCH_S)),
                         tally, latencies)
        factor = meter.lap()
        histogram.extend(seconds / factor for seconds in latencies)
    return ticks


def untraced_run(arithsim, workload, seed, seconds, tally):
    """End-to-end metrics. Verify passes alternate with stretches of
    library-path ops a third as long (verify calls are few and long and need
    the larger share), and the set-up probes are spread over the run, so all
    three see the same mix of machine conditions."""
    op = workloads.make_op(arithsim, workload)
    stream = workloads.operand_stream(workload, seed)
    histogram, passes, probes, ticks = Histogram(), [], [], 0
    gc.collect()
    meter = calibration.Meter()
    start = perf_counter()
    deadline = start + seconds
    while not passes or deadline - perf_counter() >= passes[-1][2] / 2:
        due = SETUP_PROBES * (perf_counter() - start) / seconds
        if len(probes) < SETUP_PROBES and len(probes) <= due:
            probe_start = perf_counter()
            probes.append(setup_probe(workload, seed, tally, meter))
            deadline += perf_counter() - probe_start
        passes.append(verify_pass(arithsim.cli, workload, seed, tally, meter))
        now = perf_counter()
        stretch_end = max(min(deadline, now + passes[-1][2] / 3), now + STRETCH_S)
        ticks += op_stretches(op, stream, stretch_end, tally, histogram, meter)
    ticks += op_stretches(op, stream, deadline, tally, histogram, meter)
    elapsed = perf_counter() - start
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed, tally, meter))
    probes = [p for p in probes if p] or [{"setup_s": 0.0}]
    ops = histogram.total
    tally.gate(ops > 0 and ticks == workload.sim_ticks * ops,
               f"{ticks} simulated ticks over {ops} ops, pinned {workload.sim_ticks} per op")
    metrics = {
        # Each design's median call over the passes, so one call slowed by
        # the host does not spoil a whole pass.
        "verify_pairs_per_s": median(p[0] for p in passes) / sum(
            median(p[1][d] for p in passes) for d in range(len(workload.designs))),
        "op_us.p50": histogram.percentile(0.50) * 1e6,
        "op_us.p75": histogram.percentile(0.75) * 1e6,
        "setup_s": median(p["setup_s"] for p in probes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_ticks_per_op": ticks / max(ops, 1),
    }
    details = {
        "measured_s": elapsed,
        "calibration_s": meter.raw_s,
        "op_samples": ops,
        "p75_samples_beyond": ops - math.ceil(0.75 * ops),
        # Higher percentiles, for the record: on a shared host they track the
        # neighbours' burstiness and do not repeat across runs within a tenth.
        "op_us_percentiles": {f"p{q}": histogram.percentile(q / 100) * 1e6
                              for q in (50, 75, 90, 95, 99)},
        "verify_passes": [{"pairs": p, "scaled_s": c, "raw_s": r} for p, c, r in passes],
        "setup_probes": probes,
    }
    return metrics, details, None


def traced_window(tracer, traced_op, pairs, tally, meter, keep_spans=False):
    """Run one count window under tracing and aggregate its spans; the spans
    themselves are kept only when asked, so memory stays flat."""
    ticks = run_ops(traced_op, pairs, tally, [])
    factor = meter.lap()
    spans, counts = tracer.take()
    by_name = tracing.summarize(spans)
    op_s = by_name.get("op", [0, 0.0])[1]
    self_sum = sum(entry[2] for entry in by_name.values())
    tally.gate(abs(self_sum - op_s) <= 1e-9 * max(op_s, 1.0),
               f"self times sum to {self_sum} s, ops took {op_s} s")
    return {
        "spans": spans if keep_spans else None,
        "by_name": by_name,
        "factor": factor,
        "op_s": op_s,
        "final_add_s": tracing.total_under(spans, "flash.double_width_add",
                                           "multiplier.multiply"),
        "signature": (ticks, sorted((n, e[0]) for n, e in by_name.items()),
                      sorted(counts.items())),
        "counts": counts,
    }


def traced_run(arithsim, workload, seed, seconds, tally):
    """Per-layer metrics: a verify pass with the entry points traced in
    `arithsim.cli`, untraced count windows timed per call, then the same
    window with every layer traced, then a held-out window twice."""
    op = workloads.make_op(arithsim, workload)
    size = workload.window
    window = list(itertools.islice(workloads.operand_stream(workload, seed), size))
    if workload.exhaustive:  # the next slice of the fixed permutation
        heldout_pairs = workloads.operand_stream(workload, seed)
        heldout = list(itertools.islice(heldout_pairs, size, 2 * size))
    else:
        heldout_pairs = workloads.operand_stream(workload, seed + HELDOUT_SEED_OFFSET)
        heldout = list(itertools.islice(heldout_pairs, size))
    verify_targets = [(arithsim.cli, "cmd_verify", "cli.verify")] + tracing.cli_targets(arithsim)
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, *_ in tracing.layer_targets(arithsim) + verify_targets]
    tracer = tracing.Tracer()
    gc.collect()
    meter = calibration.Meter()
    probes = [setup_probe(workload, seed, tally, meter) for _ in range(SETUP_PROBES)]
    probes = [p for p in probes if p] or [{"reference_table_us": 0.0}]
    start = perf_counter()
    deadline = start + seconds

    verify_total = verify_self = 0.0
    with tracer.installed(verify_targets):
        for argv in workload.verify_argvs(seed):
            verify(arithsim.cli, argv, tally)
            entry = tracing.summarize(tracer.take()[0]).get("cli.verify", [0, 0.0, 0.0])
            verify_total += entry[1]
            verify_self += entry[2]
    meter.lap()

    untraced = []  # per window: op seconds and each design's p50, rescaled
    untraced_until = perf_counter() + (deadline - perf_counter()) / 3
    while len(untraced) < 2 or perf_counter() < untraced_until:
        latencies, per_design = [], [[] for _ in workload.designs]
        run_ops(op, window, tally, latencies, per_design)
        factor = meter.lap()
        untraced.append((sum(latencies) / factor,
                         [percentile(sorted(d), 0.5) / factor if d else 0.0
                          for d in per_design]))

    with tracer.installed(tracing.layer_targets(arithsim)):
        traced_op = tracer.wrap("op", op)
        main = []
        while len(main) < 2 or perf_counter() < deadline:
            main.append(traced_window(tracer, traced_op, window, tally, meter,
                                      keep_spans=not main))
        held = [traced_window(tracer, traced_op, heldout, tally, meter) for _ in range(2)]
    elapsed = perf_counter() - start

    leftover = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in originals if vars(owner)[attr] is not original]
    tally.gate(not leftover, f"tracing wrappers left installed: {leftover}")
    tally.gate(all(w["signature"] == main[0]["signature"] for w in main),
               "counts differ between repeats of the same window")
    tally.gate(held[0]["signature"] == held[1]["signature"],
               "counts differ between repeats of the held-out window")

    def per_op_us(seconds_of):
        return median(seconds_of(w) / w["factor"] for w in main) / size * 1e6

    def self_s(w, name):
        return w["by_name"].get(name, [0, 0.0, 0.0])[2]

    first = main[0]["by_name"]
    metrics = {name: 0.0 for name in CALL_METRICS.values()}
    for index, design in enumerate(workload.designs):
        metrics[CALL_METRICS[design]] = median(w[1][index] for w in untraced) * 1e6
    for name in SELF_METRICS:
        metrics[f"{name}.self_us"] = per_op_us(lambda w: self_s(w, name))
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = first.get(name, [0])[0] / size
    metrics["flash.fire_set.firings"] = main[0]["counts"].get(tracing.FIRINGS, 0) / size
    metrics["multiplier.final_add.us"] = per_op_us(lambda w: w["final_add_s"])
    metrics["checks.self_share"] = median(
        sum(self_s(w, name) for name in tracing.CHECK_SPANS) / w["op_s"] for w in main)
    metrics["cli.verify.self_share"] = verify_self / verify_total if verify_total else 0.0
    metrics["costs.reference_table.us"] = median(p["reference_table_us"] for p in probes)
    traced_op_us = per_op_us(lambda w: w["op_s"])
    untraced_op_us = median(w[0] for w in untraced) / size * 1e6
    metrics["trace.overhead_frac"] = traced_op_us / untraced_op_us - 1
    details = {
        "measured_s": elapsed,
        "calibration_s": meter.raw_s,
        "window_ops": size,
        "op_samples": len(untraced) * size,
        "untraced_windows": len(untraced),
        "traced_windows": len(main),
        "untraced_op_us": untraced_op_us,
        "traced_op_us": traced_op_us,
        "calls_per_window": {n: e[0] for n, e in sorted(first.items())},
        "heldout_calls_per_window": {n: e[0] for n, e in sorted(held[0]["by_name"].items())},
        "setup_probes": probes,
    }
    return metrics, details, main[0]["spans"]


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, seconds, trace):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "arithsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
    }


def declared_metrics():
    """Metric name -> unit for both modes, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_arithsim():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import arithsim
    import arithsim.cli  # noqa: F401  (verify runs through the CLI)

    if not Path(arithsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"arithsim was imported from {arithsim.__file__}, not {SRC}")
    return arithsim


def run_one(workload, seed, seconds, trace):
    arithsim = load_arithsim()
    units = declared_metrics()[trace]
    tally = Tally()
    correctness_gates(arithsim, tally)
    measure = traced_run if trace else untraced_run
    metrics, details, spans = measure(arithsim, workload, seed, seconds, tally)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                           "with BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    record = {"environment": environment(workload, seed, seconds, trace), **result,
              "failed_frac": tally.failed / tally.attempted, "errors": tally.errors,
              "details": details}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"{stem}-spans.tsv", "w") as f:
            f.write("index\tname\tstart\tend\tparent\n")
            for index, (name, t0, t1, parent) in enumerate(spans):
                f.write(f"{index}\t{name}\t{t0!r}\t{t1!r}\t{parent}\n")
    for name, entry in result["metrics"].items():
        print(f"{workload.name} {name} {entry['value']:.6g} {entry['unit']}")
    print(f"{workload.name} failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted}); op samples {details['op_samples']}")
    for error in tally.errors:
        print(f"FAILED: {error}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed, seconds):
    """Each workload untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=seconds * 4 + 300,
            )
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            status = max(status, proc.returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "arithsim" / "__init__.py").is_file():
        print(f"error: no arithsim source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
