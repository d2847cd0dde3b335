"""Gate-level simulation, verification, and cost analysis for constant-time
parallel adders and carry-save/quantizer multipliers."""

from .bitvec import BitVector, ModelIntegrityError, oracle_add, oracle_mul
from .cascade import cascade_add
from .costs import reference_table
from .flash import flash_add
from .multiplier import Schedule, multiply

__all__ = [
    "BitVector",
    "ModelIntegrityError",
    "Schedule",
    "cascade_add",
    "flash_add",
    "multiply",
    "oracle_add",
    "oracle_mul",
    "reference_table",
]
