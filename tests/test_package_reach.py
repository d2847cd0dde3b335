"""No test-only code in the package.

Every public top-level name that `src/arithsim/*.py` defines, and every
public method and property of its classes, is referenced somewhere other
than its own definition, by code in `src/`, `scripts/` or `perfbench/*.py`
that is itself reached. A name that only tests use belongs in `tests/`, as
the single-circuit references in `tests/reference.py` do.
A reference is a name, an attribute or an imported name, or a string equal
to it, since perfbench's tracer names the attributes it wraps. The CLI's
`cmd_*` handlers are reached through `main`'s dispatch by name, one for
each subcommand of `build_parser`.
"""

import ast
from pathlib import Path

from arithsim import cli

ROOT = Path(__file__).resolve().parents[1]


def reaching_files(root):
    """The files whose references count: the package, the scripts and the
    benchmark's own modules."""
    package = root / "src" / "arithsim"
    return [*package.glob("*.py"), *(root / "scripts").glob("*.py"),
            *(root / "perfbench").glob("*.py")]


def defined(statement):
    """The names a module's top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [target.id for target in statement.targets if isinstance(target, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def members(statement):
    """The public methods and properties of a top-level class."""
    if not isinstance(statement, ast.ClassDef):
        return []
    return [node for node in statement.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def referred(node):
    """The names one node refers to; an attribute or a string also as
    `.name`, the only way to refer to a method."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr, f".{node.attr}"]
    if isinstance(node, ast.alias):
        return [node.name.rpartition(".")[2]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value, f".{node.value}"]
    return []


def unreached(root, handlers=()):
    """The package's public names, as `module.name`, and its classes'
    public members, as `module.Class.name`, that nothing outside the tests
    reaches, `handlers` counting as reached.

    A top-level statement of the package that defines names is reached when
    a reached statement refers to one of them, so neither its own body nor
    code that is itself unreached reaches it. A class's public methods and
    properties are each reached the same way, apart from the class, which is
    reached without them, but only by an attribute or a string: a local
    variable of the same name does not reach a method. The roots are every
    statement of the scripts and the benchmark, the package's own top-level
    code (`__init__`'s imports, the exports, included), and the handlers.
    An import inside another package module reaches nothing by itself: the
    code that uses the name does."""
    package = root / "src" / "arithsim"
    defines, refers, roots, public = {}, {}, [], []
    for path in reaching_files(root):
        for statement in ast.parse(path.read_text(), filename=str(path)).body:
            names = defined(statement) if path.parent == package else []
            parts = members(statement) if names else []
            inside = {id(node) for part in parts for node in ast.walk(part)}
            refers[statement] = {name for node in ast.walk(statement) if id(node) not in inside
                                 for name in referred(node)}
            for name in names:
                defines.setdefault(name, []).append(statement)
                if not name.startswith("_"):
                    public.append((path.stem, name, statement))
            for part in parts:
                refers[part] = {name for node in ast.walk(part) for name in referred(node)}
                defines.setdefault(f".{part.name}", []).append(part)
                public.append((path.stem, f"{statement.name}.{part.name}", part))
            imports = isinstance(statement, (ast.Import, ast.ImportFrom))
            root_file = path.parent != package or path.name == "__init__.py"
            if root_file or not (names or imports) or set(names) & set(handlers):
                roots.append(statement)
    live, todo = set(roots), roots
    while todo:
        for name in refers[todo.pop()]:
            for statement in defines.get(name, ()):
                if statement not in live:
                    live.add(statement)
                    todo.append(statement)
    return [f"{module}.{name}" for module, name, statement in public if statement not in live]


def subcommands():
    return set(cli.build_parser().commands)


def test_main_dispatches_one_cmd_handler_per_subcommand():
    handlers = {name for name in vars(cli) if name.startswith("cmd_")}
    assert handlers == {f"cmd_{command}" for command in subcommands()}


def test_every_public_package_name_is_reached_outside_the_tests():
    handlers = {f"cmd_{command}" for command in subcommands()}
    assert unreached(ROOT, handlers) == []


def test_a_name_that_only_unreached_code_uses_is_unreached(tmp_path):
    # a recursive function, a class naming itself in a method, a method
    # naming only itself, a local variable named as a method, a helper of an
    # unreached function and a name another package module only imports
    # reach nothing; a string naming an attribute, as the tracer's do, the
    # package's exports, and a method that reached code calls, do
    package = tmp_path / "src" / "arithsim"
    package.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (package / "mod.py").write_text(
        "def loop(n):\n    return loop(n - 1) if n else 0\n"
        "class Node:\n    def copy(self):\n        return Node()\n"
        "class Box:\n    def used(self):\n        return self.size\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def unused(self):\n        return self.unused()\n"
        "    def local(self):\n        pass\n"
        "def helper():\n    pass\n"
        "def caller():\n    return helper()\n"
        "def imported():\n    pass\n"
        "def traced():\n    pass\n"
        "def exported():\n    return _private(Box().used(), [local for local in ()])\n"
        "def _private():\n    pass\n"
    )
    (package / "other.py").write_text("from .mod import imported\n")
    (package / "__init__.py").write_text("from .mod import exported\n")
    (tmp_path / "scripts" / "run.py").write_text("TARGETS = [('mod', 'traced')]\n")
    want = ["mod.loop", "mod.Node", "mod.Node.copy", "mod.Box.unused", "mod.Box.local",
            "mod.helper", "mod.caller", "mod.imported"]
    assert unreached(tmp_path) == want
