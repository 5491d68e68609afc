"""The benchmark under ``bench/`` reaches into the library by name.  Its
tracer skips a traced name the library no longer has, and that layer's
metrics then read 0; these tests fail instead.  Its encoder oracle reads
``SwagParams.to_state()`` by key, and a renamed key would show only as
failed checks in a benchmark run; a test here fails instead.  Its
self-test drives the augmenter, the SSL batch and the encoder through the
library, so a library change that breaks one of its checks fails here
too."""

import ast
import importlib
import importlib.util
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from swagnn.graphs import Graph
from swagnn.kernel import KernelConfig, SwagParams, encode_numpy

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


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_to_state_has_every_key_the_bench_oracle_reads():
    cfg = KernelConfig(num_hidden=3, hidden_nodes=4, hidden_dim=5, max_walk=2)
    rng = np.random.default_rng(0)
    params = SwagParams.init(cfg, 2, rng)
    state = params.to_state()
    assert set(state) == {"fm_weight", "fm_bias"} | {
        f"hg{h}_{part}" for h in range(cfg.num_hidden) for part in ("raw", "features")}
    a = np.triu((rng.random((6, 6)) < 0.5).astype(float), 1)
    graphs = [Graph(6, a + a.T, rng.standard_normal((6, 2)))]
    checks = bench_module("checks")
    assert checks.check_encoder_oracle(graphs, encode_numpy(graphs, params, cfg), state,
                                       cfg) is None


def test_bench_selftest_passes():
    # -B: the self-test only reads files, and writes no bytecode under bench/
    run = subprocess.run([sys.executable, "-B", str(BENCH / "selftest.py")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and "\n0 failure(s)\n" in run.stdout, run.stdout + run.stderr
