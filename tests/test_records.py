"""The package's records behave as the frozen dataclasses they replace.

Every record class but `flash.ResolveResult` is a plain slotted `Record`
with its own `__init__`. Each keeps the dataclass behaviour that callers
and the tests rely on: equality and hash over its fields and only between
instances of one class, the generated repr text, no assignment or deletion,
copies and pickles that come back equal, and the keyword construction the
tests and scripts use.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from arithsim import cascade, flash, multiplier
from arithsim.bitvec import BitVector, Record
from arithsim.multiplier import StageKind

SRC = Path(__file__).resolve().parents[1] / "src" / "arithsim"

V4, Z4 = BitVector(4, 0b0110), BitVector(4, 0)
A8, B8 = BitVector(width=8, value=200), BitVector(width=8, value=100)
TRACE = cascade.CascadeTrace(A8, B8, ((44, 256),) * 3, ticks=3)
CSA = multiplier.StageRecord(
    kind=StageKind.CSA_3_2, rows_in=4, rows_out=3, left_out=1, ticks=1, circuits_used=1,
)
LAST = multiplier.StageRecord(StageKind.CSA_3_2, 3, 2, 0, 1, 1)
REPORT = multiplier.ScheduleReport(stages=(CSA, LAST), row_trajectory=(4, 3, 2), total_ticks=2)

# Each record class: one instance built as callers build it, its repr, its
# field values in order, and an instance that differs in one field.
CASES = {
    "BitVector": (
        BitVector(width=8, value=3), "BitVector(width=8, value=3)", (8, 3), BitVector(8, 4),
    ),
    "CascadeState": (
        cascade.CascadeState(k=2, level=1, sums=V4, carry_word=0, a=V4, b=Z4),
        "CascadeState(k=2, level=1, sums=BitVector(width=4, value=6), carry_word=0, "
        "a=BitVector(width=4, value=6), b=BitVector(width=4, value=0))",
        (2, 1, V4, 0, V4, Z4),
        cascade.CascadeState(2, 1, Z4, 0, Z4, Z4),
    ),
    "CascadeTrace": (
        TRACE,
        "CascadeTrace(a=BitVector(width=8, value=200), b=BitVector(width=8, value=100), "
        "levels=((44, 256), (44, 256), (44, 256)), ticks=3)",
        (A8, B8, ((44, 256),) * 3, 3),
        cascade.CascadeTrace(a=B8, b=A8, levels=((44, 256),) * 3, ticks=3),
    ),
    "CascadeResult": (
        cascade.CascadeResult(sum=BitVector(8, 44), carry=1, trace=TRACE),
        "CascadeResult(sum=BitVector(width=8, value=44), carry=1, trace=CascadeTrace("
        "a=BitVector(width=8, value=200), b=BitVector(width=8, value=100), "
        "levels=((44, 256), (44, 256), (44, 256)), ticks=3))",
        (BitVector(8, 44), 1, TRACE),
        cascade.CascadeResult(BitVector(8, 44), 0, TRACE),
    ),
    "HalfAddState": (
        flash.HalfAddState(n=4, s=6, c=1), "HalfAddState(n=4, s=6, c=1)", (4, 6, 1),
        flash.HalfAddState(4, 6, 0),
    ),
    "FireSet": (
        flash.FireSet(width=4, carries=1, ends=8), "FireSet(width=4, carries=1, ends=8)",
        (4, 1, 8), flash.FireSet(4, 1, 4),
    ),
    "RowSet": (
        multiplier.RowSet(8, (1, 2), lanes=1), "RowSet(width=8, rows=(1, 2), lanes=1)",
        (8, (1, 2), 1), multiplier.RowSet(8, (2, 1)),
    ),
    "StageRecord": (
        CSA,
        "StageRecord(kind=<StageKind.CSA_3_2: 'csa_3_2'>, rows_in=4, rows_out=3, left_out=1, "
        "ticks=1, circuits_used=1)",
        (StageKind.CSA_3_2, 4, 3, 1, 1, 1),
        LAST,
    ),
    "ScheduleReport": (
        REPORT,
        f"ScheduleReport(stages=({CSA!r}, {LAST!r}), row_trajectory=(4, 3, 2), total_ticks=2)",
        ((CSA, LAST), (4, 3, 2), 2),
        multiplier.ScheduleReport((LAST,), (3, 2), 1),
    ),
    "MultiplyResult": (
        multiplier.MultiplyResult(product=BitVector(8, 63), ticks=5, report=REPORT),
        f"MultiplyResult(product=BitVector(width=8, value=63), ticks=5, report={REPORT!r})",
        (BitVector(8, 63), 5, REPORT),
        multiplier.MultiplyResult(BitVector(8, 63), 6, REPORT),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_every_case_is_a_record_of_its_class():
    assert {type(record).__name__ for record, *_ in CASES.values()} == set(CASES)
    assert all(isinstance(record, Record) for record, *_ in CASES.values())


def test_equality_and_hash_go_by_the_fields(case):
    record, _, values, other = case
    cls = type(record)
    assert tuple(getattr(record, name) for name in cls.__match_args__) == values
    assert record == cls(*values) and not record != cls(*values)
    assert hash(record) == hash(cls(*values)) == hash(values)
    assert record != other and type(other) is cls
    assert record != values and record.__eq__(values) is NotImplemented


def test_records_of_two_classes_with_equal_fields_differ():
    wires, fired = flash.HalfAddState(4, 0, 0), flash.FireSet(4, 0, 0)
    assert wires != fired and fired != wires
    assert hash(wires) == hash(fired) == hash((4, 0, 0))


def test_the_row_sum_stays_out_of_equality_hash_and_repr():
    rows = multiplier.RowSet(8, (1, 2))
    assert multiplier.RowSet.__match_args__ == ("width", "rows", "lanes")
    assert "_total" in multiplier.RowSet.__slots__ and rows.total() == 3
    skewed = multiplier.RowSet(8, (1, 2))
    object.__setattr__(skewed, "_total", 4)
    assert skewed == rows and hash(skewed) == hash(rows) and repr(skewed) == repr(rows)


def test_repr_is_the_dataclass_text(case):
    record, text, *_ = case
    assert repr(record) == text


def test_fields_can_be_neither_assigned_nor_deleted(case):
    record = case[0]
    name = record.__match_args__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda record: pickle.loads(pickle.dumps(record))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_come_back_equal(case, clone):
    record = case[0]
    twin = clone(record)
    assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


def test_a_copied_row_set_keeps_its_sum():
    rows = multiplier.RowSet(8, (1, 2, 4))
    assert [clone(rows).total() for clone in (copy.copy, copy.deepcopy)] == [7, 7]
    assert pickle.loads(pickle.dumps(rows)).total() == 7


def dataclass_decorated(path):
    """The classes in `path` that carry a `dataclass` decorator."""
    def named(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", None))

    tree = ast.parse(path.read_text(), filename=str(path))
    return [(path.name, node.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(named(decorator) == "dataclass" for decorator in node.decorator_list)]


def test_only_the_resolve_result_is_a_dataclass():
    # Each @dataclass decoration costs 0.6 ms or more on every import of the
    # package; ResolveResult stays one because the benchmark's self-test
    # rebuilds a flash_add result with `dataclasses.replace`.
    found = [name for path in sorted(SRC.glob("*.py")) for name in dataclass_decorated(path)]
    assert found == [("flash.py", "ResolveResult")]
