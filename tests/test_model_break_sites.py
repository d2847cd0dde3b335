"""Model-break checks around the AND network's words and the multiplier's
rows, each reached by one injected fault, and the table of every
model-break site in the package.

No correct input reaches these checks, so each test replaces one module
global of `flash` (the segment complement, the blockwise add, the pair-leaf
network or the double-width adder) with a faulty copy, calls the cascade
step on a crafted level, or hands the 3:2 counter a row whose XOR is off by
one, and asserts the exact `ModelIntegrityError` message.

`REACHED_BY` names, for every `raise ModelIntegrityError` in the package,
a test that reaches it with one injected fault or crafted input;
`NO_FAULT_REACHES` gives the reason for the sites that none can reach. A
site is keyed by module, enclosing function and message, so a new site
without an entry fails the suite.
"""

import ast
import re
from pathlib import Path

import pytest

import arithsim
from arithsim import flash, multiplier
from arithsim.bitvec import ModelIntegrityError
from arithsim.cascade import cascade_layout, cascade_step


def raises(message):
    return pytest.raises(ModelIntegrityError, match=f"^{re.escape(message)}$")


def faulty(monkeypatch, name, fault):
    """Replace `flash.<name>` by `fault(original, *args)`."""
    original = getattr(flash, name)
    monkeypatch.setattr(flash, name, lambda *args: fault(original, *args))


def test_absorb_refuses_a_complement_that_changes_the_total(monkeypatch):
    faulty(monkeypatch, "complement_segments", lambda f, *args: f(*args) ^ 1)
    with raises("carry absorption changed the running total"):
        flash.flash_lanes(5, 3, 4)


def test_the_pair_leaf_network_refuses_a_lookup_that_loses_value(monkeypatch):
    faulty(monkeypatch, "blockwise_add", lambda f, *args: (f(*args)[0] ^ 1, f(*args)[1]))
    with raises("pair-leaf initialization lost value"):
        flash.blocked_lanes(5, 3, 8)


def test_the_pair_leaf_network_refuses_a_block_that_loses_value(monkeypatch):
    # every complement of zero wires comes back as 1: in the even blocks a
    # resolved wire, in the odd blocks a carry out of bit 0, so 0 + 0 gives 2
    faulty(monkeypatch, "complement_segments", lambda f, *args: f(*args) ^ 1)
    with raises("in-block resolution lost value"):
        flash.blocked_lanes(0, 0, 8)


def test_double_width_refuses_a_low_half_carry_above_its_n_plus_1_wires(monkeypatch):
    # odd halves only: an N-bit half in an (N+1)-wire block carries out at
    # wire N+1, above its sum's N+1 wires; an even half's block carry is its
    # wire N, inside them, so no fault reaches this check at even N
    n = 3
    faulty(monkeypatch, "pair_leaf_blocks", lambda f, *args: (f(*args)[0], 1 << n + 1))
    with raises("a half's sum does not fit its n+1 wires"):
        flash.double_width_lanes(0, 0, n)


def test_double_width_refuses_a_cross_carry_into_a_full_high_half(monkeypatch):
    # n = 2: high half 0b11 with its carry out, 0b111, and the low half's
    # carry out, which has nowhere to go inside the high half's 3 wires
    faulty(monkeypatch, "pair_leaf_blocks", lambda f, *args: (0b1100, 0b10100))
    with raises("cross-carry increment escaped the high half"):
        flash.double_width_lanes(0, 0, 2)


def test_blocked_refuses_a_cross_block_sum_that_loses_value(monkeypatch):
    faulty(monkeypatch, "pair_leaf_blocks", lambda f, *args: (f(*args)[0] ^ 1, f(*args)[1]))
    with raises("cross-block resolution lost value"):
        flash.blocked_lanes(5, 3, 8)


def test_the_cascade_step_refuses_a_saturated_block_with_a_high_carry():
    # width 4, level 1: the odd block 0b11 holds its own carry (bit 4) and
    # takes the even block's (bit 2), so it overflows onto a set carry
    with raises("saturated word cannot hold a high carry"):
        cascade_step(0b1100, 0b10100, 4, 1, cascade_layout(4)[2])


class OffByOneXor(int):
    """A row whose XOR with another row comes out one too high."""

    def __xor__(self, other):
        return (int(self) ^ other) + 1


def test_the_3_2_counter_refuses_a_sum_row_that_loses_value():
    # 0 ^ 0 reads 1, so the sum row is 1 while the three rows add to 0
    with raises("3:2 consolidation lost value"):
        multiplier.csa_3_2(OffByOneXor(0), 0, 0, 8)


def test_multiply_refuses_a_product_above_its_2n_bits(monkeypatch):
    n = 4
    faulty(monkeypatch, "double_width_lanes",
           lambda f, *args: (f(*args)[0] | 1 << 2 * n, f(*args)[1]))
    with raises("product escaped its 2N-bit width"):
        multiplier.multiply_lanes(3, 5, n, multiplier.Schedule.A)


REACHED_BY = {
    ("cascade", "_check_block_sums", "block-sum balance broken at level {level}, block {block}"):
        "tests/test_cascade.py::test_a_flipped_leaf_sum_is_a_block_sum_break",
    ("cascade", "increment_unit", "saturated word cannot hold a high carry"):
        "tests/test_cascade.py::test_increment_unit_saturation_is_model_breakage",
    ("cascade", "cascade_step", "saturated word cannot hold a high carry"):
        "tests/test_model_break_sites.py::"
        "test_the_cascade_step_refuses_a_saturated_block_with_a_high_carry",
    ("costs", "cascade_gates", "cascade gate forms disagree"):
        "tests/test_costs.py::test_cascade_gate_check_fires",
    ("costs", "blocked_gates", "blocked gate split disagrees with the total"):
        "tests/test_costs.py::test_blocked_gate_check_fires",
    ("costs", "reference_table", "tick ratio {ticks_a}/{ticks_b} is not integral"):
        "tests/test_costs.py::test_tick_ratio_check_fires",
    ("flash", "complement_segments", "a fired segment is not a run of 1 wires up to a 0 wire"):
        "tests/test_flash.py::test_a_shortened_segment_is_a_model_break",
    ("flash", "complement_segments", "fired segments do not start just above their carries"):
        "tests/test_cli_contract.py::test_verify_reports_a_broken_firing_search",
    ("flash", "absorb", "carry absorption changed the running total"):
        "tests/test_model_break_sites.py::"
        "test_absorb_refuses_a_complement_that_changes_the_total",
    ("flash", "pair_leaf_blocks", "pair-leaf initialization lost value"):
        "tests/test_model_break_sites.py::"
        "test_the_pair_leaf_network_refuses_a_lookup_that_loses_value",
    ("flash", "pair_leaf_blocks", "in-block resolution lost value"):
        "tests/test_model_break_sites.py::"
        "test_the_pair_leaf_network_refuses_a_block_that_loses_value",
    ("flash", "double_width_lanes", "a half's sum does not fit its n+1 wires"):
        "tests/test_model_break_sites.py::"
        "test_double_width_refuses_a_low_half_carry_above_its_n_plus_1_wires",
    ("flash", "double_width_lanes", "cross-carry increment escaped the high half"):
        "tests/test_model_break_sites.py::"
        "test_double_width_refuses_a_cross_carry_into_a_full_high_half",
    ("flash", "blocked_lanes", "cross-block resolution lost value"):
        "tests/test_model_break_sites.py::"
        "test_blocked_refuses_a_cross_block_sum_that_loses_value",
    ("multiplier", "csa_3_2", "3:2 consolidation lost value"):
        "tests/test_model_break_sites.py::"
        "test_the_3_2_counter_refuses_a_sum_row_that_loses_value",
    ("multiplier", "csa_stage", "3:2 stage lost value"):
        "tests/test_multiplier.py::test_a_flipped_csa_carry_is_a_model_break",
    ("multiplier", "quantize_columns", "a count digit escaped the row width"):
        "tests/test_lanes.py::test_a_row_overflowing_a_lower_lane_is_caught_in_its_padding",
    ("multiplier", "quantize_columns", "quantizer stage lost value"):
        "tests/test_multiplier.py::test_a_flipped_plane_bit_is_a_model_break",
    ("multiplier", "multiply_lanes", "product escaped its 2N-bit width"):
        "tests/test_model_break_sites.py::test_multiply_refuses_a_product_above_its_2n_bits",
}

NO_FAULT_REACHES = {
    ("costs", "multiplier_banks", "staggered-row circuit count disagrees"):
        "compares two constant expressions, so no patched input reaches it",
}


def message_text(node):
    """A raise's message as written: a string, or an f-string's text with
    each field as `{expression}`."""
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(part.value if isinstance(part, ast.Constant) else f"{{{ast.unparse(part.value)}}}"
                   for part in node.values)


def model_break_sites():
    """(module, enclosing function, message) of every `raise
    ModelIntegrityError(...)` in the package, in source order."""
    sites = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, module, child.name)
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == "ModelIntegrityError"):
                sites.append((module, function, message_text(child.exc.args[0])))
            visit(child, module, function)

    for path in sorted(Path(arithsim.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def test_every_model_break_site_has_an_entry():
    sites = model_break_sites()
    assert len(sites) == len(set(sites))
    assert not REACHED_BY.keys() & NO_FAULT_REACHES.keys()
    assert set(sites) == REACHED_BY.keys() | NO_FAULT_REACHES.keys()


@pytest.mark.parametrize("node", sorted(set(REACHED_BY.values())))
def test_every_reaching_test_exists(node):
    path, name = node.split("::")
    tree = ast.parse((Path(__file__).parent.parent / path).read_text())
    assert name in {item.name for item in tree.body if isinstance(item, ast.FunctionDef)}
