import ast
import importlib
import importlib.util
import pathlib
import types

import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner.instance import SteinerInstance, generate_random
from hypersteiner import hyperlp, oracles

from conftest import fractional_solution_n2, small_blowup


def test_exact_two_terminals_is_shortest_path():
    costs = {(1, 3): Rat(2), (3, 2): Rat(2), (1, 2): Rat(5)}
    inst = SteinerInstance([1, 2, 3], costs, [1, 2])
    cost, tree = oracles.exact_steiner_tree(inst)
    assert cost == 4
    assert tree.edges == frozenset([(1, 3), (2, 3)])


def test_exact_guard():
    inst = generate_random(5, 2, 0.5, seed=1)
    with pytest.raises(ValueError):
        oracles.exact_steiner_tree(inst, max_terminals=4)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_exact_matches_exhaustive(seed):
    inst = generate_random(3, 2, 0.4, seed=seed)
    if len(inst.costs) > 18:
        return
    cost, _ = oracles.exact_steiner_tree(inst)
    assert cost == oracles.exhaustive_steiner_cost(inst)


def test_exact_above_2_53():
    # costs near 2^62 tie as floats (B + 3 and B round to the same float);
    # the exact DP finds the shortest 1-2 path 1-6-3-7-2
    B = 2 ** 62
    costs = {(1, 4): B + 3, (1, 6): B, (2, 7): B, (3, 5): 3, (3, 6): 1,
             (3, 7): 3, (4, 5): 2, (4, 6): B + 3, (4, 7): B, (5, 7): 3}
    inst = SteinerInstance(range(1, 8), costs, [1, 2])
    exact, tree = oracles.exact_steiner_tree(inst)
    assert exact == 2 ** 63 + 4
    assert tree.edges == frozenset([(1, 6), (3, 6), (3, 7), (2, 7)])


def test_spanning_tree_count_k4():
    verts = [1, 2, 3, 4]
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
    assert oracles.spanning_tree_count(verts, edges) == 16  # Cayley: 4^2


def test_splitting_set_count_matches_matrix_tree(frac_n2):
    inst, sol = frac_n2
    X = hyperlp.blowup_from_solution(inst, sol)
    Ks = list(oracles.enumerate_splitting_sets(X))
    # contracted multigraph: every terminal becomes one node
    node = {}
    for copy in X.copies:
        for v in copy.vertices:
            node[v] = -1 if v in X.R else v  # single contracted terminal node
    edges = [(node[e.u], node[e.v]) for e in X.edges.values()]
    verts = sorted(set(node.values()))
    assert len(Ks) == oracles.spanning_tree_count(verts, edges)


def test_minimal_removal_sizes(frac_n2):
    inst, sol = frac_n2
    X = hyperlp.blowup_from_solution(inst, sol)
    for copy in X.copies:
        Q = X.copy_terminals(copy)
        if len(Q) < 2:
            continue
        for B in oracles.enumerate_minimal_removals(X, Q):
            assert len(B) == X.N * (len(Q) - 1)


def _imported_modules(path):
    """Every dotted-name part a module's import statements name."""
    parts = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for n in names:
            parts.update(n.split("."))
    return parts


PACKAGE_MODULES = sorted(pathlib.Path(oracles.__file__).parent.glob("*.py"))


def test_only_cli_imports_oracles():
    # the references stay out of the pipeline: of the package modules,
    # only the CLI's verify suites may import them
    offenders = [path.name for path in PACKAGE_MODULES
                 if path.name != "cli.py" and "oracles" in _imported_modules(path)]
    assert offenders == []


def test_only_components_imports_heapq():
    # one shortest-path routine in production: outside the references,
    # the Dreyfus-Wagner pass of components.py is the only heap user
    importers = [path.name for path in PACKAGE_MODULES
                 if path.name != "oracles.py" and "heapq" in _imported_modules(path)]
    assert importers == ["components.py"]


def test_benchmark_hooks_resolve():
    # the traced benchmark run wraps these names where their callers look
    # them up; a rename must fail here, not only in that run
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", root / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    hs = types.SimpleNamespace(**{
        path.stem: importlib.import_module("hypersteiner." + path.stem)
        for path in PACKAGE_MODULES if path.stem != "__main__"})
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in layers.patch_table(hs)
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    # the benchmark's Capture patches these on contract_alg's own namespace
    assert {"enumerate_components", "solve_lp_exact"} <= set(vars(hs.contract_alg))
