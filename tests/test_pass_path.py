"""No popcount on a lane kernel's pass path.

`int.bit_count` walks the whole lane word: on a 65,536-bit word about 4 us,
more than ten ANDs (timeit, best of 7, a 2-core Xeon on Python 3.11). The
flash adder's one count, one end per carry, is implied by its segment check,
so `absorb` counts only inside the handler of that check's failure. The
test here walks every call a lane kernel makes, outside `except` handlers,
through the kernel modules, and finds no `bit_count` on the way.
"""

import ast
from pathlib import Path

from arithsim import bitvec, cascade, flash, multiplier

KERNEL_MODULES = (bitvec, cascade, flash, multiplier)
LANE_KERNELS = ("cascade_lanes", "flash_lanes", "double_width_lanes", "blocked_lanes",
                "multiply_lanes")


def definitions(trees):
    """Every function of `trees` by name, and every method by its class's
    name and its own, `Class.method`, with the class it sits in."""
    defined = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append((node, None))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defined.setdefault(f"{node.name}.{item.name}", []).append((item, node.name))
    return defined


def pass_path_calls(node, owner, defined):
    """The names that `node`, a function of class `owner` or of none, calls
    outside every `except` handler: a function or a class by its name (a
    class's `__init__` runs), a method of `self` as its class's, any other
    attribute as each method of that name and as the name itself."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name):
                yield func.id
                yield from {f"{func.id}.__init__"} & defined.keys()
            elif isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Name) and func.value.id == "self" and owner:
                    yield f"{owner}.{func.attr}"
                else:
                    yield func.attr
                    yield from (name for name in defined if name.endswith(f".{func.attr}"))
        yield from pass_path_calls(child, owner, defined)


def reached(trees, roots):
    """The names called on the pass path of `roots`, transitively through
    the functions and methods `trees` define."""
    defined, seen, todo = definitions(trees), set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node, owner in defined.get(name, ()):
            todo.extend(pass_path_calls(node, owner, defined))
    return seen


def kernel_trees():
    return [ast.parse(Path(module.__file__).read_text()) for module in KERNEL_MODULES]


def test_no_lane_kernel_counts_bits_on_its_pass_path():
    calls = reached(kernel_trees(), LANE_KERNELS)
    # the walk gets down to the network and its checks, and the count sits
    # only in absorb's handler
    assert {"absorb", "complement_segments", "check_fire_fit", "check_operands"} <= calls
    assert "check_fire_count" not in calls
    assert "bit_count" not in calls


def test_the_walk_finds_a_count_on_the_pass_path():
    # absorb as it read with the count before the segments
    before = ast.parse(
        "def flash_lanes(a, b, n):\n"
        "    return absorb(a ^ b, a & b, n)\n"
        "def absorb(s, c, n):\n"
        "    check_fire_words(n, c, find_firings(s, c << 1))\n"
        "def check_fire_words(n, carries, ends):\n"
        "    if carries.bit_count() != ends.bit_count():\n"
        "        raise ValueError('firings need one end per carry')\n"
    )
    assert "bit_count" in reached([before], ["flash_lanes"])
    # a fire set built on its own still counts, in its check
    assert "bit_count" in reached(kernel_trees(), ["FireSet.__init__"])
