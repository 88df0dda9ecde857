import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat, harmonic
from hypersteiner.instance import generate_random
from hypersteiner.components import enumerate_components
from hypersteiner import hyperlp, splitting, oracles

from conftest import small_blowup, fractional_solution_n2


def _cost_of(X):
    return X.total_cost()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_weight_conservation(seed):
    inst, X = small_blowup(seed % 500)
    Xb = splitting.binarize(X)
    state = splitting.map_back(X, Xb, splitting.optimal_splitting_set(Xb))
    total = sum((state.weights[e] for e in state.K), Rat(0))
    assert total == _cost_of(X)
    # each weight >= own cost (witness shares are nonnegative)
    for e in state.K:
        assert state.weights[e] >= X.edges[e].cost


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_dp_matches_exhaustive(seed):
    inst, X = small_blowup(seed % 500)
    if sum(len(c.edge_ids) for c in X.copies) > 9:
        return
    Xb = splitting.binarize(X)
    state = splitting.map_back(X, Xb, splitting.optimal_splitting_set(Xb))
    best = min(splitting.compute_witnesses_and_weights(X, K).potential
               for K in oracles.enumerate_splitting_sets(X))
    assert state.potential == best
    assert splitting.splitting_set(X, "dp").potential == best


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_splitting_valid(seed):
    inst, X = small_blowup(seed % 300)
    Xb = splitting.binarize(X)
    state = splitting.random_splitting_set(Xb, seed=seed)
    # validity: recomputing witnesses from K succeeds and agrees
    redo = splitting.compute_witnesses_and_weights(Xb, state.K)
    assert redo.witness == state.witness
    assert redo.potential == state.potential


def test_quasi_bipartite_rule_and_bound():
    for seed in range(6):
        inst = generate_random(5, 3, 0.4, seed=seed + 70, quasi_bipartite=True)
        sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
        X = hyperlp.blowup_from_solution(inst, sol)
        state = splitting.quasi_bipartite_splitting_set(X)
        assert 60 * state.potential <= 73 * _cost_of(X)
        # the DP's minimum is the cheapest-edge value: on a star with k
        # leaves, cost - c(f) + c(f) H(k-1) with f a cheapest edge
        phi = _cost_of(X)
        for copy in X.copies:
            k = len(copy.edge_ids)
            if k > 1:
                c = min(X.edges[e].cost for e in copy.edge_ids)
                phi += c * (harmonic(k - 1) - 1)
        assert state.potential == phi


def test_quasi_rule_rejects_nonstars(frac_n2):
    inst, sol = frac_n2
    X = hyperlp.blowup_from_solution(inst, sol)
    # this blowup has only stars and single edges, so the rule applies;
    # force a failure with a path component instead
    from hypersteiner.instance import SteinerInstance
    costs = {(1, 5): Rat(1), (5, 6): Rat(1), (6, 2): Rat(1)}
    path_inst = SteinerInstance([1, 2, 5, 6], costs, [1, 2])
    comps = enumerate_components(path_inst)
    s2 = hyperlp.solve_lp_exact(path_inst, comps)
    X2 = hyperlp.blowup_from_solution(path_inst, s2)
    with pytest.raises(splitting.SplittingError):
        splitting.quasi_bipartite_splitting_set(X2)


def test_binarize_degrees_and_cost():
    # degree-5 star forces a chain of auxiliary nodes
    from hypersteiner.instance import SteinerInstance
    costs = {(i, 9): Rat(i) for i in range(1, 6)}
    inst = SteinerInstance([1, 2, 3, 4, 5, 9], costs, [1, 2, 3, 4, 5])
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    X = hyperlp.blowup_from_solution(inst, sol)
    Xb = splitting.binarize(X)
    deg = {}
    for e in Xb.edges.values():
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    for v, d in deg.items():
        if v not in Xb.R:
            assert d <= 3
    assert Xb.total_cost() == X.total_cost()


def _one_copy_blowup(terminals, edges):
    """Blowup graph with N = 1 and one copy, the edges (u, v, cost) with
    ids in list order."""
    E = {i: hyperlp.BlowupEdge(i, u, v, Rat(c)) for i, (u, v, c) in enumerate(edges)}
    vs = {x for u, v, _ in edges for x in (u, v)}
    copy = hyperlp.BlowupCopy(0, list(E), vs, ("one",))
    return hyperlp.BlowupGraph(1, terminals, [copy], E, max(vs) + 1, len(E), 1)


def test_map_back_potential_matches_direct_optimum():
    # on copies with a non-terminal of degree >= 4 (stars with 4-7 leaves,
    # a tree with a degree-4 hub), the DP on X itself and the
    # binarize/DP/map-back pipeline must both equal brute force on X, and
    # so must the quasi rule on the stars
    stars = [_one_copy_blowup(range(1, k + 1), [(i, 9, i) for i in range(1, k + 1)])
             for k in range(4, 8)]
    for X in stars + [_pruning_tree_blowup()]:
        best = min(splitting.compute_witnesses_and_weights(X, K).potential
                   for K in oracles.enumerate_splitting_sets(X))
        assert splitting.splitting_set(X, "dp").potential == best
        Xb = splitting.binarize(X)
        state = splitting.map_back(X, Xb, splitting.optimal_splitting_set(Xb))
        assert state.potential == best
        if X in stars:
            assert splitting.splitting_set(X, "quasi").potential == best


def test_witnesses_reject_invalid_k():
    # path 1 - 4 - 2 with terminals 1 and 2: edge 0 is 1-4, edge 1 is 4-2
    X = _one_copy_blowup([1, 2], [(1, 4, 1), (4, 2, 1)])
    for K, msg in [((), "piece with several terminals in copy 0"),
                   ((0, 1), "piece without terminal in copy 0"),
                   ((0, 7), "unknown edges")]:
        with pytest.raises(splitting.SplittingError, match=msg):
            splitting.compute_witnesses_and_weights(X, K)
    assert splitting.compute_witnesses_and_weights(X, [1]).witness == {0: {1}}


def test_dp_rejects_inner_terminal():
    # the DP needs every terminal of a copy to be a leaf: here terminal 2
    # sits inside the path 1 - 4 - 2 - 3
    X = _one_copy_blowup([1, 2, 3], [(1, 4, 1), (4, 2, 1), (2, 3, 1)])
    with pytest.raises(splitting.SplittingError, match="terminal 2 of copy 0"):
        splitting.splitting_set(X, "dp")


def test_single_edge_component_all_core():
    from hypersteiner.instance import SteinerInstance
    inst = SteinerInstance([1, 2], {(1, 2): Rat(4)}, [1, 2])
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    X = hyperlp.blowup_from_solution(inst, sol)
    Xb = splitting.binarize(X)
    state = splitting.map_back(X, Xb, splitting.optimal_splitting_set(Xb))
    assert set(state.K) == set(X.edges)
    assert state.potential == 4  # H(0) shares: just the core cost
    assert splitting.splitting_set(X, "dp").K == state.K


def _pruning_tree_blowup():
    """One copy of a 6-terminal tree: hub 7 (degree 4) holds terminals 1, 2
    and Steiner vertices 8, 9; 8 holds terminals 3, 4 and 9 holds 5, 6.
    Blowup edge ids: 0-5 the terminal edges 1..6 in order, 6 = 7-8 and
    7 = 7-9."""
    from hypersteiner.instance import SteinerInstance
    costs = {(1, 7): 6, (2, 7): 9, (7, 8): 2, (7, 9): 3,
             (3, 8): 5, (4, 8): 8, (5, 9): 1, (6, 9): 7}
    inst = SteinerInstance(range(1, 10), {e: Rat(c) for e, c in costs.items()},
                           range(1, 7))
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    return hyperlp.blowup_from_solution(inst, sol)


# seed -> (edges pruning turns core, K, witness sets, Phi)
_PRUNED = {
    1: ({1}, {0, 1, 3, 4, 7}, {2: {0, 1, 3, 7}, 5: {4, 7}, 6: {0, 1, 7}},
        Rat(619, 12)),
    3: ({7}, {0, 3, 4, 6, 7}, {1: {0, 6, 7}, 2: {3, 6}, 5: {4, 7}}, Rat(109, 2)),
    6: ({6}, {0, 2, 4, 6, 7}, {1: {0, 6, 7}, 3: {2, 6}, 5: {4, 7}}, Rat(56)),
}


@pytest.mark.parametrize("seed", sorted(_PRUNED))
def test_map_back_prunes_random_splitting(seed):
    # random choices on the binarized hub chain leave the hub with cleanup
    # paths to terminals in several directions; map_back keeps the
    # cheapest (paths of one and two edges) and turns the others core
    X = _pruning_tree_blowup()
    Xb = splitting.binarize(X)
    state_b = splitting.random_splitting_set(Xb, seed)
    naive = {Xb.edges[e].orig[1] for e in state_b.K
             if Xb.edges[e].orig is not None}
    state = splitting.map_back(X, Xb, state_b)
    cut, K, witness, phi = _PRUNED[seed]
    assert state.K - naive == cut
    assert state.K == K
    assert state.witness == {e: frozenset(W) for e, W in witness.items()}
    assert state.potential == phi
