"""Span recording for the traced run.

Public arithsim functions are wrapped at their module (or class) attributes
for the length of one traced phase and restored afterwards. A span is
(name, start, end, parent), where parent is the index of the enclosing span
in the same list or -1. Spans stay in memory; the benchmark aggregates them
per count window and writes one window to disk at exit.
"""

from contextlib import contextmanager
from time import perf_counter

# The five design entry points. `arithsim.cli` imports them by name, so they
# are wrapped in its namespace as well as in their own modules.
ENTRY_POINTS = {
    "cascade_add": "cascade.cascade_add",
    "flash_add": "flash.flash_add",
    "double_width_add": "flash.double_width_add",
    "blocked_add": "flash.blocked_add",
    "multiply": "multiplier.multiply",
}

# Invariant re-checks: the __post_init__ validation of the package's
# dataclasses plus the cascade's block-sum balance.
CHECK_SPANS = (
    "bitvec.BitVector.__post_init__",
    "cascade.CascadeState.__post_init__",
    "cascade.check_block_sums",
    "flash.HalfAddState.__post_init__",
    "flash.FireSet.__post_init__",
    "multiplier.RowSet.__post_init__",
    "multiplier.StageRecord.__post_init__",
    "multiplier.ScheduleReport.__post_init__",
)

FIRINGS = "flash.fire_set.firings"


def cli_targets(arithsim):
    """The design entry points as `arithsim.cli` sees them."""
    return [(arithsim.cli, attr, name) for attr, name in ENTRY_POINTS.items()]


def layer_targets(arithsim):
    """Every stage function and check hook, in its own module or class."""
    bitvec, cascade = arithsim.bitvec, arithsim.cascade
    flash, multiplier = arithsim.flash, arithsim.multiplier
    targets = [
        (bitvec.BitVector, "__post_init__", "bitvec.BitVector.__post_init__"),
        (cascade.CascadeState, "__post_init__", "cascade.CascadeState.__post_init__"),
        (cascade.CascadeState, "_check_block_sums", "cascade.check_block_sums"),
        (flash.HalfAddState, "__post_init__", "flash.HalfAddState.__post_init__"),
        (flash.FireSet, "__post_init__", "flash.FireSet.__post_init__"),
        (multiplier.RowSet, "__post_init__", "multiplier.RowSet.__post_init__"),
        (multiplier.StageRecord, "__post_init__", "multiplier.StageRecord.__post_init__"),
        (multiplier.ScheduleReport, "__post_init__",
         "multiplier.ScheduleReport.__post_init__"),
    ]
    homes = {"cascade_add": cascade, "flash_add": flash, "double_width_add": flash,
             "blocked_add": flash, "multiply": multiplier}
    targets += [(homes[attr], attr, name) for attr, name in ENTRY_POINTS.items()]
    targets += [
        (cascade, "leaf_init", "cascade.leaf_init"),
        (cascade, "cascade_step", "cascade.cascade_step"),
        (cascade, "increment_unit", "cascade.increment_unit"),
        (flash, "half_add", "flash.half_add"),
        (flash, "fire_set", "flash.fire_set", (FIRINGS, lambda fs: len(fs.firings))),
        (flash, "resolve", "flash.resolve"),
        (multiplier, "partial_products", "multiplier.partial_products"),
        (multiplier, "consolidate", "multiplier.consolidate"),
        (multiplier, "csa_stage", "multiplier.csa_stage"),
        (multiplier, "quantize_columns", "multiplier.quantize_columns"),
    ]
    return targets + cli_targets(arithsim)


class Tracer:
    """Spans and result counts for whatever is wrapped while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = [-1]  # indices of the open spans; -1 marks the root

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call; `count` is (key, f(result))."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                counts[count[0]] = counts.get(count[0], 0) + count[1](result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every (owner, attribute, span name[, count]) target, then
        put each original back, also when the body raises."""
        patched = []
        try:
            for owner, attr, name, *count in targets:
                original = vars(owner)[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, *count))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def take(self):
        """Hand over and forget the spans and counts recorded so far."""
        if len(self._stack) > 1:
            raise RuntimeError("cannot take spans while one is open")
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans):
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus the time its child spans cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    by_name = {}
    for (name, start, end, _), child in zip(spans, covered):
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child
    return by_name


def total_under(spans, name, parent_name):
    """Total duration of `name` spans whose direct parent is `parent_name`."""
    return sum(end - start for n, start, end, parent in spans
               if n == name and parent >= 0 and spans[parent][0] == parent_name)
