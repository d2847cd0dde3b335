"""Model-break checks around the AND network's words and the multiplier's
rows, each reached by one injected fault, and the tables of every
model-break site and every `ValueError` site in the package.

No correct input reaches these checks, so each test replaces one module
global of `flash` (the segment complement, the blockwise add, the pair-leaf
network or the double-width adder) with a faulty copy, calls the cascade
step on a crafted level, or hands the 3:2 counter a row whose XOR is off by
one, and asserts the exact `ModelIntegrityError` message.

`REACHED_BY` names, for every `raise ModelIntegrityError` in the package,
a test that reaches it with one injected fault or crafted input;
`NO_FAULT_REACHES` gives the reason for the sites that none can reach. 
`VALUE_ERROR_REACHED_BY` names, for every `raise ValueError` in the
package, a test that makes it raise; every one is reached, so no site needs
a reason. A site is keyed by module, enclosing function and message, so a
new site without an entry fails the suite.
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


BITVEC, CASCADE, CLI, CONTRACT, COSTS, FLASH, LANES, MULTIPLIER, OPERANDS = (
    f"tests/test_{name}.py::" for name in (
        "bitvec", "cascade", "cli", "cli_contract", "costs", "flash", "lanes", "multiplier",
        "operand_check"))

VALUE_ERROR_REACHED_BY = {
    ("bitvec", "__post_init__", "width must be a positive integer, got {self.width}"):
        BITVEC + "test_width_must_hold_value",
    ("bitvec", "__post_init__", "value {shown(self.value)} does not fit in {self.width} bits"):
        BITVEC + "test_width_must_hold_value",
    ("bitvec", "from_hex", "malformed hex string: {text}"):
        BITVEC + "test_from_hex_rejects_garbage",
    ("bitvec", "oracle_add", "oracle operands must be nonnegative"):
        BITVEC + "test_oracles_reject_negatives",
    ("bitvec", "oracle_mul", "oracle operands must be nonnegative"):
        BITVEC + "test_oracles_reject_negatives",
    ("bitvec", "increment_mask", "value must be nonnegative"):
        BITVEC + "test_increment_mask_examples",
    ("bitvec", "operand_width", "operand widths differ: {a.width} vs {b.width}"):
        OPERANDS + "test_every_per_pair_call_rejects_differing_widths_alike",
    ("bitvec", "check_operands", "width must be positive, got {bits}"):
        OPERANDS + "test_a_kernel_rejects_width_zero",
    ("bitvec", "check_operands",
     "value {misfit(value, fit, stride, lanes)} does not fit in {bits} bits"):
        LANES + "test_a_multiplier_operand_bit_outside_its_lane_names_the_lane",
    ("cascade", "__post_init__", "{name} must be {width} bits wide, got {vec.width}"):
        CASCADE + "test_state_validation_checks_shapes",
    ("cascade", "_check_block_sums", "level {level} outside 1..{k}"):
        CASCADE + "test_state_validation_checks_shapes",
    ("cascade", "_check_block_sums",
     "value {misfit(sums, fit, lane_stride(width), lanes)} does not fit in {width} bits"):
        CASCADE + "test_state_validation_checks_shapes",
    ("cascade", "_check_block_sums", "level {level} carries must sit at bits (i+1)*{1 << level}"):
        CASCADE + "test_state_validation_checks_shapes",
    ("cascade", "__post_init__", "trace needs at least the leaf state"):
        CASCADE + "test_state_validation_checks_shapes",
    ("cascade", "__post_init__", "trace must cover all k levels at one tick each"):
        CASCADE + "test_state_validation_checks_shapes",
    ("cascade", "increment_unit", "high_carry must be 0 or 1"):
        CASCADE + "test_increment_unit_saturation_is_model_breakage",
    ("cascade", "increment_unit", "inc must be 0 or 1"):
        CASCADE + "test_increment_unit_saturation_is_model_breakage",
    ("cascade", "cascade_step", "cascade already complete at level {width.bit_length() - 1}"):
        CASCADE + "test_cascade_step_merges_blocks",
    ("cascade", "cascade_lanes", "width must be a power of two >= 2, got {width}"):
        CASCADE + "test_leaf_init_rejects_bad_widths",
    ("cli", "cmd_schedule", "row count must be 3..{PUBLISHED_ROW_COUNT}, got {rows}"):
        CONTRACT + "test_multiplier_records_are_byte_identical_to_the_pinned_digest",
    ("cli", "main", "cost needs --design and --width, or --table"):
        CLI + "test_usage_errors_exit_2",
    ("cli", "main", "width must be positive, got {width}"):
        CLI + "test_usage_errors_exit_2",
    ("cli", "main", "trials must be positive, got {trials}"):
        CLI + "test_usage_errors_exit_2",
    ("cli", "main", "unknown output format {output_format}"):
        CLI + "test_unknown_format_env_var_is_a_usage_error",
    ("costs", "_blocked_cost", "cost needs a half of at least 4, got width {width}"):
        COSTS + "test_blocked_cost_names_the_width_it_was_given",
    ("costs", "cost", "hardware estimate is defined for width 64 only, got {width}"):
        COSTS + "test_multiplier_cost_is_width_64_only",
    ("costs", "check_width", "{design.value} needs {circuit.needs}, got {width}"):
        CLI + "test_mul_checks_its_width_before_its_operands",
    ("costs", "cascade_gates", "stage count must be positive, got {k}"):
        COSTS + "test_cascade_gates_values",
    ("costs", "flash_gates", "width must be positive, got {n}"):
        COSTS + "test_flash_gates_values",
    ("costs", "double_width_gates", "half-width must be positive, got {n}"):
        COSTS + "test_double_width_gates",
    ("costs", "blocked_gate_split", "half-width must be a power of four >= 4, got {n}"):
        COSTS + "test_blocked_gates_and_split",
    ("costs", "consolidation_lower_bound",
     "need from_rows >= to_rows >= 1, got {from_rows}, {to_rows}"):
        COSTS + "test_consolidation_lower_bound",
    ("flash", "check_wires", "width must be positive, got {n}"):
        FLASH + "test_half_add_state_checks_its_wires",
    ("flash", "check_wires", "wire widths must be n+1 sum bits and n carry bits"):
        FLASH + "test_half_add_state_checks_its_wires",
    ("flash", "check_wires", "top sum wire must start at 0"):
        FLASH + "test_half_add_state_checks_its_wires",
    ("flash", "check_wires", "sum and carry wires overlap; not a half-add output"):
        FLASH + "test_half_add_state_checks_its_wires",
    ("flash", "check_fire_fit", "carry word does not fit width {n}"):
        FLASH + "test_fireset_type_rejects_overlap",
    ("flash", "check_fire_fit", "end word does not fit {n + 1} wires"):
        FLASH + "test_fireset_type_rejects_overlap",
    ("flash", "check_fire_count", "firings need one end per carry"):
        FLASH + "test_an_extra_end_trips_the_gate_checks",
    ("flash", "block_parity_masks",
     "{width} bits do not split into even {block_width}-bit blocks"):
        FLASH + "test_pair_leaf_blocks_match_the_per_block_loop",
    ("flash", "double_width_add", "{name} must be {n} bits wide, got {vec.width}"):
        FLASH + "test_double_width_add_examples",
    ("flash", "blocked_shape", "operand width must be even, got {width}"):
        FLASH + "test_blocked_add_rejects_bad_shapes",
    ("flash", "blocked_shape", "half-width {half} must be a power of four"):
        FLASH + "test_blocked_add_rejects_bad_shapes",
    ("multiplier", "__post_init__", "row {index} = {shown} does not fit in {self.width} bits"):
        LANES + "test_a_row_overflowing_a_lower_lane_is_caught_in_its_padding",
    ("multiplier", "__post_init__", "a 3:2 stage leaves rows_in mod 3 rows out"):
        MULTIPLIER + "test_stage_record_laws_are_enforced",
    ("multiplier", "__post_init__", "a 3:2 stage keeps rows_in - rows_in//3 rows"):
        MULTIPLIER + "test_a_warm_record_cache_still_checks_the_row_count",
    ("multiplier", "__post_init__",
     "a quantizer stage keeps floor(log2(consumed)) + 1 + left_out rows"):
        MULTIPLIER + "test_stage_record_laws_are_enforced",
    ("multiplier", "__post_init__", "stage {index} rows_in is not stage {index - 1}'s rows_out"):
        MULTIPLIER + "test_schedule_report_must_be_consistent",
    ("multiplier", "__post_init__", "consolidation must end at two rows"):
        MULTIPLIER + "test_schedule_report_must_be_consistent",
    ("multiplier", "csa_3_2", "carry row would overflow the declared width"):
        MULTIPLIER + "test_csa_3_2_overflow_is_an_error",
    ("multiplier", "csa_stage", "a 3:2 stage needs at least three rows, got {n}"):
        MULTIPLIER + "test_csa_stage_row_counts",
    ("multiplier", "quantize_columns", "cannot consume {consumed} of {n} rows"):
        MULTIPLIER + "test_quantize_columns_capacity_rules",
    ("multiplier", "consolidate", "consolidation needs at least three rows, got {len(rows)}"):
        MULTIPLIER + "test_consolidate_needs_three_rows",
    ("multiplier", "check_multiplier_width",
     "multiplier width must be one of {MULTIPLIER_WIDTHS}, got {width}"):
        MULTIPLIER + "test_multiply_rejects_odd_widths",
}


def message_text(node):
    """A raise's message as written: a string, or an f-string's text with
    each field as `{expression}`."""
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(part.value if isinstance(part, ast.Constant) else f"{{{ast.unparse(part.value)}}}"
                   for part in node.values)


def raise_sites(exception):
    """(module, enclosing function, message) of every `raise
    <exception>(...)` in the package, in source order."""
    sites = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, module, child.name)
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == exception):
                sites.append((module, function, message_text(child.exc.args[0])))
            visit(child, module, function)

    for path in sorted(Path(arithsim.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def test_every_model_break_site_has_an_entry():
    sites = raise_sites("ModelIntegrityError")
    assert len(sites) == len(set(sites))
    assert not REACHED_BY.keys() & NO_FAULT_REACHES.keys()
    assert set(sites) == REACHED_BY.keys() | NO_FAULT_REACHES.keys()


def test_every_value_error_site_has_an_entry():
    sites = raise_sites("ValueError")
    assert len(sites) == len(set(sites))
    assert set(sites) == VALUE_ERROR_REACHED_BY.keys()


@pytest.mark.parametrize("node", sorted({*REACHED_BY.values(), *VALUE_ERROR_REACHED_BY.values()}))
def test_every_reaching_test_exists(node):
    path, name = node.split("::")
    tree = ast.parse((Path(__file__).parent.parent / path).read_text())
    assert name in {item.name for item in tree.body if isinstance(item, ast.FunctionDef)}
