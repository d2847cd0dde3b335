"""Gate-level simulation, verification, and cost analysis for constant-time
parallel adders and carry-save/quantizer multipliers."""

from .bitvec import (
    BitVector,
    ModelIntegrityError,
    oracle_add,
    oracle_mul,
)
from .cascade import CascadeResult, CascadeState, CascadeTrace, cascade_add
from .costs import (
    CostReport,
    Design,
    MultiplierEstimate,
    cost_report,
    reference_table,
)
from .flash import (
    FireSet,
    HalfAddState,
    blocked_add,
    double_width_add,
    fire_set,
    flash_add,
    half_add,
    increment_by_pow2,
    resolve,
    sc_and,
)
from .multiplier import (
    MultiplyResult,
    RowSet,
    Schedule,
    ScheduleReport,
    StageRecord,
    multiply,
    partial_products,
)

__all__ = [
    "BitVector",
    "CascadeResult",
    "CascadeState",
    "CascadeTrace",
    "CostReport",
    "Design",
    "FireSet",
    "HalfAddState",
    "ModelIntegrityError",
    "MultiplierEstimate",
    "MultiplyResult",
    "RowSet",
    "Schedule",
    "ScheduleReport",
    "StageRecord",
    "blocked_add",
    "cascade_add",
    "cost_report",
    "double_width_add",
    "fire_set",
    "flash_add",
    "half_add",
    "increment_by_pow2",
    "multiply",
    "oracle_add",
    "oracle_mul",
    "partial_products",
    "reference_table",
    "resolve",
    "sc_and",
]
