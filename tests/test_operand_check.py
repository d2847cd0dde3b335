"""The lane kernels' one input contract, `bitvec.check_operands`, and the
one-pair calls' one width rule, `bitvec.operand_width`.

Every design's lane kernel is reached through its `costs.DESIGNS` entry, so
a design added to the table is held to the same contract.
"""

import inspect

import pytest

from arithsim import bitvec, cascade, flash, multiplier
from arithsim.bitvec import BitVector, pack_lanes
from arithsim.costs import DESIGNS, Design
from arithsim.multiplier import Schedule

# a width each design takes; flash's and the double-width adder's leave
# bits above the width inside the lane's low byte
WIDTHS = {
    Design.CASCADE: 4,
    Design.FLASH: 5,
    Design.FLASH_DOUBLE: 6,
    Design.BLOCKED_DOUBLE: 8,
    Design.MULT_SCHEDULE_A: 4,
    Design.MULT_SCHEDULE_B: 8,
}
LANES = 3


def stray(case: str, width: int, stride: int) -> tuple[int, int]:
    """A word of LANES full lanes broken as `case` says, and the lane that
    its message must name."""
    word = pack_lanes([(1 << width) - 1] * LANES, stride)
    if case == "padding":
        return word | 1 << stride + stride - 1, 1
    if case == "above bits":
        return word | 1 << stride + width, 1
    if case == "above the top lane":
        return word | 1 << LANES * stride, LANES
    return -(1 << 2 * stride), 2  # negative: every bit from lane 2 up


def test_every_design_is_in_the_table():
    assert set(WIDTHS) == set(DESIGNS)


@pytest.mark.parametrize("operand", ["a", "b"])
@pytest.mark.parametrize("case", ["padding", "above bits", "above the top lane", "negative"])
@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_every_lane_kernel_rejects_an_operand_outside_its_lanes(design, case, operand):
    circuit, width = DESIGNS[design], WIDTHS[design]
    stride = circuit.stride(width)
    bad, lane = stray(case, width, stride)
    good = pack_lanes([1] * LANES, stride)
    a, b = (bad, good) if operand == "a" else (good, bad)
    shown = (bad >> lane * stride) & ((1 << stride) - 1)
    with pytest.raises(ValueError) as caught:
        circuit.lanes(a, b, width, LANES)
    assert str(caught.value) == f"value {shown} in lane {lane} does not fit in {width} bits"


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_the_first_operand_that_fails_is_named(design):
    circuit, width = DESIGNS[design], WIDTHS[design]
    stride = circuit.stride(width)
    a, _ = stray("above bits", width, stride)  # lane 1
    b, _ = stray("above the top lane", width, stride)
    with pytest.raises(ValueError) as caught:
        circuit.lanes(a, b | 1 << width, width, LANES)  # b fails in lane 0 too
    assert str(caught.value).endswith(f"in lane 1 does not fit in {width} bits")


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_one_lane_shows_the_whole_operand(design):
    circuit, width = DESIGNS[design], WIDTHS[design]
    with pytest.raises(ValueError) as caught:
        circuit.lanes(0, 1 << width, width, 1)
    assert str(caught.value) == f"value {1 << width} does not fit in {width} bits"


@pytest.mark.parametrize("kernel", [
    flash.flash_lanes,
    flash.double_width_lanes,
    multiplier.partial_product_lanes,
])
def test_a_kernel_rejects_width_zero(kernel):
    with pytest.raises(ValueError, match="^width must be positive, got 0$"):
        kernel(0, 0, 0)


def test_a_kernel_rejects_a_negative_width_before_its_layout_is_built():
    # the layout lookup comes first and takes any width, so the width rule
    # still names the width; the double-width adder's operands are 2N bits
    for kernel, bits in ((flash.flash_lanes, -3), (flash.double_width_lanes, -6),
                         (multiplier.partial_product_lanes, -3)):
        with pytest.raises(ValueError, match=f"^width must be positive, got {bits}$"):
            kernel(0, 0, -3)


PER_PAIR = {
    "leaf_init": cascade.leaf_init,
    "cascade_add": cascade.cascade_add,
    "half_add": flash.half_add,
    "flash_add": flash.flash_add,
    "blocked_add": flash.blocked_add,
    "partial_products": multiplier.partial_products,
    "multiply": lambda a, b: multiplier.multiply(a, b, Schedule.B),
}


@pytest.mark.parametrize("name", PER_PAIR)
def test_every_per_pair_call_rejects_differing_widths_alike(name):
    with pytest.raises(ValueError) as caught:
        PER_PAIR[name](BitVector(4, 0), BitVector(8, 0))
    assert str(caught.value) == "operand widths differ: 4 vs 8"


def test_the_width_message_is_written_once():
    modules = (bitvec, cascade, flash, multiplier)
    assert [m.__name__ for m in modules if "operand widths differ" in inspect.getsource(m)] == [
        "arithsim.bitvec"
    ]
