"""What the benchmark harness needs of the package.

`perfbench/tracing.py` patches stage functions, check hooks and the CLI's
entry points by name, `perfbench/workloads.py` calls the entry points and
reads their results, and `perfbench/run.py` pins a digest of CLI records.
The harness's own self-tests are not part of this suite, so these tests keep
a rename, a deletion or a changed signature or result from breaking the
benchmark silently.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

import arithsim
from arithsim import bitvec, cascade, cli, costs, flash, multiplier

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench's module `name`, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load("tracing")


@pytest.fixture
def harness(monkeypatch):
    """perfbench's `run` and `workloads` modules. `run` imports its sibling
    modules by name, so perfbench/ is on sys.path, and they are in
    sys.modules, only for the length of the test."""
    siblings = ("calibration", "tracing", "workloads")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in siblings:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield load("run"), load("workloads")
    for name in siblings:
        sys.modules.pop(name, None)


def test_the_pinned_cli_records_hold(harness):
    run, _ = harness
    assert run.record_digest(cli) == run.RECORD_DIGEST


def test_the_pinned_reference_table_holds(harness):
    _, workloads = harness
    workloads.check_reference_table(arithsim.reference_table())


def test_checked_ops_pass_on_every_workload(harness):
    # each op runs every design of the workload on one pair and raises
    # `Mismatch` on a wrong result, tick count or trajectory
    _, workloads = harness
    for workload in workloads.WORKLOADS.values():
        op = workloads.make_op(arithsim, workload)
        for a, b in itertools.islice(workloads.operand_stream(workload, 1), 20):
            assert op(a, b)[0] == workload.sim_ticks


def test_every_traced_attribute_is_defined_on_its_owner():
    tracing = load_tracing()
    targets = tracing.layer_targets(arithsim) + tracing.cli_targets(arithsim)
    targets.append((cli, "cmd_verify", "cli.verify"))
    missing = [(owner, attr) for owner, attr, *_ in targets if attr not in vars(owner)]
    assert missing == []


def test_each_traced_check_hook_runs_once_per_record_built(monkeypatch):
    # the tracer wraps `__post_init__` on the class, so every record's own
    # __init__ must look it up there and call it once: that is what
    # `bitvec.BitVector.constructions` and `checks.self_share` count
    v, stage = bitvec.BitVector(4, 6), multiplier.csa_record(3, 2)
    builders = {
        bitvec.BitVector: lambda: bitvec.BitVector(4, 6),
        cascade.CascadeState: lambda: cascade.CascadeState(2, 1, v, 0, v, bitvec.BitVector(4, 0)),
        flash.HalfAddState: lambda: flash.HalfAddState(4, 6, 1),
        flash.FireSet: lambda: flash.FireSet(4, 1, 8),
        multiplier.RowSet: lambda: multiplier.RowSet(8, (1, 2)),
        multiplier.StageRecord: lambda: multiplier.StageRecord(stage.kind, 3, 2, 0, 1, 1),
        multiplier.ScheduleReport: lambda: multiplier.ScheduleReport((stage,), (3, 2), 1),
    }
    owners = [owner for owner, attr, *_ in load_tracing().layer_targets(arithsim)
              if attr == "__post_init__"]
    assert set(owners) == set(builders)
    for owner in owners:
        calls, check = [], vars(owner)["__post_init__"]

        def counted(self):
            calls.append(type(self))
            check(self)

        with monkeypatch.context() as patch:
            patch.setattr(owner, "__post_init__", counted)
            builders[owner]()
        assert calls == [owner]


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


# The cached big-int masks after one verify sweep and one op of every
# workload, from cold caches. A cached mask lives as long as the process: a
# cached even-carry mask in `cascade_step` raised perfbench's peak_rss_mib.
# A change that caches a new mask re-pins these counts and says why. Every
# batch of a sweep runs at its first batch's lane count, so each layout is
# cached once per sweep, not again for the shorter batches of a random one
# (add-wide-random's 334, 333 and 333 pairs all run at 334 lanes). The
# random draw's one mask is the operand fit at that lane count, which the
# kernels' layouts already hold, and the multiplier's row masks are built
# at the batches' lane count, whose lane mask the final add's masks
# already hold. The cascade's layouts hold
# its level masks, one layout per width and lane count. The double-width
# and blocked layouts hold masks of their own, each saving a shift per call:
# both pair-leaf parities one wire up, where their carries' weights sit,
# and the double-width adder's low carry-out wire (up to 65,529 bits each).
CACHED_MASKS = {
    "bitvec.lane_mask": 26,
    "bitvec.block_tops": 5,
    "cascade.level_masks": 20,
    "cascade.cascade_layout": 4,
    "flash.double_width_masks": 5,
    "multiplier.bit_masks": 2,
}


# The total bit length of the distinct masks those caches hold after the
# same sweep, the ints wider than a 64-bit word, each counted once however
# many caches refer to it. A layout that hands a kernel the masks another
# cache holds adds nothing here.
CACHED_MASK_BITS = 5_491_206

CACHED_MODULES = (bitvec, cascade, flash, multiplier, costs, cli)


def cached_functions(modules):
    """Every cached function that `modules` define or import, once each."""
    return list({id(value): value for module in modules for value in vars(module).values()
                 if hasattr(value, "cache_info")}.values())


def clear_caches():
    for function in cached_functions(CACHED_MODULES):
        function.cache_clear()


def sweep_every_workload(workloads, capsys):
    """One verify sweep and one op of every workload."""
    for workload in workloads.WORKLOADS.values():
        for argv in workload.verify_argvs(1):
            assert cli.main(argv) == 0
        op = workloads.make_op(arithsim, workload)
        assert op(*next(workloads.operand_stream(workload, 1)))[0] == workload.sim_ticks
    capsys.readouterr()


def test_one_sweep_of_every_workload_caches_the_pinned_masks(harness, capsys):
    _, workloads = harness
    clear_caches()
    sweep_every_workload(workloads, capsys)
    caches = {f"{module.__name__.split('.')[-1]}.{name}": getattr(module, name)
              for module in CACHED_MODULES for name in vars(module)}
    assert {name: caches[name].cache_info().currsize for name in CACHED_MASKS} == CACHED_MASKS


def ints_in(value):
    """The ints of a cached value: itself, or those of a tuple, nested."""
    if isinstance(value, int):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from ints_in(item)


def test_one_sweep_of_every_workload_caches_the_pinned_mask_bits(harness, capsys, monkeypatch):
    # every value a cache holds was returned by its function when it was
    # cached, so a spy on each function's results from cold caches sees them
    # all, as long as no cache has evicted one
    _, workloads = harness
    clear_caches()
    returned = {}

    def spy(function):
        def spied(*args, **kwargs):
            value = function(*args, **kwargs)
            returned.update((id(item), item) for item in ints_in(value))
            return value

        return spied

    for module in CACHED_MODULES:
        for name, value in list(vars(module).items()):
            if hasattr(value, "cache_info"):
                monkeypatch.setattr(module, name, spy(value))
    sweep_every_workload(workloads, capsys)
    monkeypatch.undo()
    for function in cached_functions(CACHED_MODULES):
        info = function.cache_info()
        assert info.maxsize is None or info.currsize < info.maxsize, function
    bit_lengths = (item.bit_length() for item in returned.values())
    assert sum(bits for bits in bit_lengths if bits > 64) == CACHED_MASK_BITS


ADDER_KERNELS = {  # each kernel and the width it takes for operands of a width
    "cascade_lanes": (cascade.cascade_lanes, lambda width: width),
    "flash_lanes": (flash.flash_lanes, lambda width: width),
    "double_width_lanes": (flash.double_width_lanes, lambda width: width // 2),
    "blocked_lanes": (flash.blocked_lanes, lambda width: width),
}


def cache_lookups():
    """The hits and misses so far of every cached function of the kernels'
    modules."""
    return sum(info.hits + info.misses for info in (
        function.cache_info() for function in cached_functions((bitvec, cascade, flash))))


@pytest.mark.parametrize("width", [8, 128])
@pytest.mark.parametrize("name", ADDER_KERNELS)
def test_an_adder_kernel_call_makes_one_cached_lookup(name, width):
    kernel, kernel_width = ADDER_KERNELS[name]
    a, b = (1 << width) - 1, 1 << width - 1
    kernel(a, b, kernel_width(width))  # warm every cache the call reads
    before = cache_lookups()
    kernel(a, b, kernel_width(width))
    assert cache_lookups() - before == 1
