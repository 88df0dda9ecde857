import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner.instance import SteinerInstance, generate_random, edge_key
from hypersteiner.components import enumerate_components
from hypersteiner import hyperlp, bcr_quasi, oracles


def _path_instance():
    return SteinerInstance([1, 2, 10], {(1, 10): Rat(1), (2, 10): Rat(1)}, [1, 2])


def test_preprocess_splits_terminal_edges():
    inst = SteinerInstance([1, 2], {(1, 2): Rat(2)}, [1, 2])
    pre = bcr_quasi.preprocess_quasi(inst)
    d = next(v for v in pre.vertices if v not in pre.terminals)
    assert pre.costs[edge_key(1, d)] == 1
    assert pre.costs[edge_key(d, 2)] == 1


def test_preprocess_identity_without_terminal_edges():
    inst = _path_instance()
    assert bcr_quasi.preprocess_quasi(inst) is inst


def test_preprocess_rejects_steiner_steiner():
    costs = {(1, 3): Rat(1), (3, 4): Rat(1), (4, 2): Rat(1)}
    inst = SteinerInstance([1, 2, 3, 4], costs, [1, 2])
    with pytest.raises(ValueError):
        bcr_quasi.preprocess_quasi(inst)


def test_solve_bcr_path():
    sol = bcr_quasi.solve_bcr(_path_instance(), 1)
    assert sol.objective == 2
    assert sol.x[(2, 10)] == 1 and sol.x[(10, 1)] == 1


def test_relocate_path():
    sol = bcr_quasi.solve_bcr(_path_instance(), 1)
    rel = bcr_quasi.relocate_root(sol, 2)
    assert rel.root == 2 and rel.objective == sol.objective
    assert rel.x[(1, 10)] == 1 and rel.x[(10, 2)] == 1
    assert bcr_quasi.relocate_root(sol, 1) is sol


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_objective_equals_lp_and_root_free(seed):
    inst = generate_random(3 + seed % 3, 2, 0.4, seed=seed, quasi_bipartite=True)
    pre = bcr_quasi.preprocess_quasi(inst)
    lp = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    objs = set()
    for r in sorted(pre.terminals)[:3]:
        objs.add(bcr_quasi.solve_bcr(pre, r).objective)
    assert objs == {lp.objective}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_relocation_preserves_loads(seed):
    inst = generate_random(4, 2, 0.4, seed=seed, quasi_bipartite=True)
    pre = bcr_quasi.preprocess_quasi(inst)
    sol = bcr_quasi.solve_bcr(pre)
    other = sorted(pre.terminals - {sol.root})[0]
    rel = bcr_quasi.relocate_root(sol, other)
    assert rel.objective == sol.objective
    for e in pre.costs:
        assert sol.undirected_load(*e) == rel.undirected_load(*e)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_natural_decomposition_exact(seed):
    inst = generate_random(3 + seed % 3, 2, 0.4, seed=seed, quasi_bipartite=True)
    pre = bcr_quasi.preprocess_quasi(inst)
    sol = bcr_quasi.solve_bcr(pre)
    dec = bcr_quasi.natural_decomposition(sol, check=True)
    assert dec.objective == sol.objective
    assert oracles.check_feasible(dec)
    for comp in dec.values:
        assert len(comp.terminals) >= 2


def test_root_pushes_no_flow():
    # optimal point: the root pushes nothing out, and no star center sends
    # flow to a neighbour pricier than its cheapest flow neighbour
    for seed in range(8):
        inst = generate_random(4, 2, 0.4, seed=seed + 500, quasi_bipartite=True)
        pre = bcr_quasi.preprocess_quasi(inst)
        sol = bcr_quasi.solve_bcr(pre)
        for (u, v), val in sol.x.items():
            assert u != sol.root or val == 0
