"""The benchmark under ``bench/`` reaches into the library by name.  Its
tracer skips a traced name the library no longer has, and that layer's
metrics then read 0; these tests fail instead."""

import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def parse(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def traced_names():
    for node in parse("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED table")


def resolve(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def library_references(tree):
    """(module, dotted attribute) for every attribute chain rooted at a name
    bound by ``from swagnn... import ...``, and every name so imported."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("swagnn"):
            for name in node.names:
                aliases[name.asname or name.name] = (node.module, name.name)
    refs = set(aliases.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            module, name = aliases[node.id]
            refs.add((module, ".".join([name] + chain[::-1])))
    return refs


@pytest.mark.parametrize("span, target", sorted(traced_names().items()))
def test_every_traced_name_is_a_library_callable(span, target):
    module, attr = target
    assert module.startswith("swagnn.")
    assert callable(resolve(module, attr)), f"{span}: {module}.{attr} is not callable"


@pytest.mark.parametrize("script", ["workloads.py", "selftest.py"])
def test_every_library_name_the_benchmark_uses_exists(script):
    refs = library_references(parse(script))
    assert refs, f"bench/{script} names nothing from swagnn"
    missing = []
    for module, dotted in sorted(refs):
        try:
            resolve(module, dotted)
        except AttributeError:
            missing.append(f"{module}.{dotted}")
    assert not missing, f"bench/{script} uses names swagnn no longer has: {missing}"
