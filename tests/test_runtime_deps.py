"""The runtime depends on numpy alone: every module of the package imports
only numpy, the package itself and the standard library, and the project
metadata lists numpy as its one dependency.  Every name a module of the
package or a test file imports is also used in it, and every private name
the package defines is read somewhere in the package, and every local a
function of the package assigns is read in that function.  Only the CLI
loads a dataset: every library entry point takes one from its caller."""

import ast
import os
import re
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
PACKAGE = os.path.join(ROOT, "src", "swagnn")
ALLOWED = {"numpy", "swagnn"} | set(sys.stdlib_module_names)


def absolute_imports(path: str) -> list:
    """(line, top-level module) of every absolute import in a source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def unused_imports(path: str) -> list:
    """(line, name) of every name an import binds in a source file that the
    file never reads; a name listed in ``__all__`` counts as read."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__"
                                                  for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def unread_private_names(paths: list) -> list:
    """(file, line, name) of every private name (one leading underscore, not
    two) that a module of ``paths`` defines at module or class level (a def,
    a class or an assignment) and that no module of ``paths`` reads, as a
    name or as an attribute."""
    defined, read = [], set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [name.id for target in targets for name in ast.walk(target)
                             if isinstance(name, ast.Name)]
                else:
                    continue
                defined += [(os.path.basename(path), node.lineno, name)
                            for name in names
                            if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [entry for entry in defined if entry[2] not in read]


def dead_locals(path: str) -> list:
    """(line, function, name) of every local that a function of a source
    file assigns and never reads.  A read anywhere in the function, nested
    functions included, counts, so a local read only inside a closure is
    live; names that start with ``_`` are exempt."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = {}  # (line, name) -> function; ast.walk reaches a nested function last
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [node for node in ast.walk(func) if isinstance(node, ast.Name)]
        read = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
        for node in names:
            if (isinstance(node.ctx, ast.Store) and not node.id.startswith("_")
                    and node.id not in read):
                found[node.lineno, node.id] = func.name
    return sorted((line, func, name) for (line, name), func in found.items())


def calls_of(path: str, name: str) -> list:
    """Lines of every call in a source file to ``name``, by itself or as an
    attribute (``training.name(...)``)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


SOURCES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def test_package_imports_only_numpy_and_the_standard_library():
    assert "kernel.py" in SOURCES
    foreign = [f"{name}:{line} imports {module}"
               for name in SOURCES
               for line, module in absolute_imports(os.path.join(PACKAGE, name))
               if module not in ALLOWED]
    assert not foreign, foreign


def unused_in(directory: str) -> list:
    """Every unused import of the Python files in ``directory``."""
    return [f"{name}:{line} imports {imported} and never uses it"
            for name in sorted(os.listdir(directory)) if name.endswith(".py")
            for line, imported in unused_imports(os.path.join(directory, name))]


def test_package_uses_every_name_it_imports():
    unused = unused_in(PACKAGE)
    assert not unused, unused


def test_package_reads_every_private_name_it_defines():
    # reads from the tests do not count: a name only a test reads is dead code
    unread = unread_private_names([os.path.join(PACKAGE, name) for name in SOURCES])
    assert not unread, unread


def test_package_reads_every_local_it_assigns():
    dead = [f"{name}:{line} {func} assigns {local} and never reads it"
            for name in SOURCES
            for line, func, local in dead_locals(os.path.join(PACKAGE, name))]
    assert not dead, dead


def test_only_the_cli_loads_a_dataset():
    loads = {name: calls_of(os.path.join(PACKAGE, name), "load_dataset") for name in SOURCES}
    assert loads.pop("cli.py")
    assert not any(loads.values()), loads


def test_tests_use_every_name_they_import():
    unused = unused_in(TESTS)
    assert not unused, unused


def test_project_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in dependencies]
    assert names == ["numpy"], dependencies


def test_a_foreign_import_is_caught(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nfrom . import kernel\nimport scipy.linalg\n"
                    "from numpy.linalg import eigh\n")
    assert [m for _, m in absolute_imports(str(path)) if m not in ALLOWED] == ["scipy"]


def test_an_unused_import_is_caught(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                    "from itertools import chain, repeat\nfrom . import kernel\n"
                    "__all__ = ['kernel']\nx = np.zeros(2)\nlist(repeat(x, 2))\n")
    assert unused_imports(str(path)) == [(2, "os"), (4, "chain")]


def test_an_unread_private_name_is_caught(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text("_LIMIT = 3\n_unused, _pair = 1, 2\n__dunder = 0\n\n\n"
                     "def _helper():\n    return _LIMIT\n\n\n"
                     "class Box:\n    _SIZE: int = 2\n    _spare = 0\n\n"
                     "    def _grow(self):\n        return self._SIZE\n")
    second.write_text("from first import _helper, _pair\n_helper()\nprint(_pair)\n"
                      "_written = 1\n")
    assert unread_private_names([str(first), str(second)]) == [
        ("first.py", 2, "_unused"), ("first.py", 12, "_spare"), ("first.py", 14, "_grow"),
        ("second.py", 4, "_written")]


def test_a_dead_local_is_caught(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("LIMIT = 3\n\n\n"
                    "def fold(split):\n"
                    "    train_enc, val_enc = split\n"
                    "    _spare = 0\n"
                    "    scale = 2\n\n"
                    "    def inner(x):\n"
                    "        unused = x\n"
                    "        return x * scale\n"
                    "    for index, item in enumerate(split):\n"
                    "        inner(item)\n"
                    "    total = 0\n"
                    "    total += 1\n"
                    "    return inner(val_enc)\n")
    assert dead_locals(str(path)) == [(5, "fold", "train_enc"), (10, "inner", "unused"),
                                      (12, "fold", "index"), (14, "fold", "total"),
                                      (15, "fold", "total")]


def test_a_dataset_load_outside_the_cli_is_caught(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from . import training\nfrom .training import load_dataset\n\n\n"
                    "def run(cfg, dataset=None):\n"
                    "    dataset = dataset or load_dataset(cfg)\n"
                    "    return training.load_dataset(cfg), load_dataset\n")
    assert calls_of(str(path), "load_dataset") == [6, 7]
