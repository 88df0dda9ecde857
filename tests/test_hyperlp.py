import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner.instance import generate_random
from hypersteiner.components import enumerate_components
from hypersteiner import hyperlp

from conftest import triangle_star_instance, fractional_solution_n2


def test_lp_star_instance():
    inst = triangle_star_instance()
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    assert sol.objective == 6  # the 3-star at value 1
    assert sol.check_feasible()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_modes_agree(seed):
    inst = generate_random(4, 2, 0.5, seed=seed)
    comps = enumerate_components(inst)
    full = hyperlp.solve_lp_exact(inst, comps)
    cuts = hyperlp._cutting_planes(inst, comps)
    assert full.objective == cuts.objective


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_solution_feasible_and_tight(seed):
    inst = generate_random(4, 3, 0.5, seed=seed)
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    assert sol.check_feasible()
    # degree equality: sum x_C (|C|-1) = |R|-1
    total = sum((v * (len(c.terminals) - 1) for c, v in sol.values.items()), Rat(0))
    assert total == len(inst.terminals) - 1


def test_blowup_roundtrip_integral():
    inst = triangle_star_instance()
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    X = hyperlp.blowup_from_solution(inst, sol)
    assert X.N == 1
    assert X.is_feasible()
    assert X.total_cost() / X.N == sol.objective
    assert X.total_cost() == X.N * sol.objective


def test_blowup_fractional_n2():
    inst, sol = fractional_solution_n2()
    X = hyperlp.blowup_from_solution(inst, sol)
    assert X.N == 2
    assert X.is_feasible()
    # three components at value 1/2 -> one copy of each
    assert len(X.copies) == 3
    assert X.total_cost() == 2 * sol.objective


def test_slack_table_matches_definition(frac_n2):
    inst, sol = frac_n2
    X = hyperlp.blowup_from_solution(inst, sol)
    table = X.slack_table()
    order = X.terminal_order
    for m in range(1, 1 << len(order)):
        S = frozenset(t for i, t in enumerate(order) if m >> i & 1)
        cover = 0
        for copy in X.copies:
            for vs, _ in X.copy_pieces(copy, frozenset()):
                cover += max(len(S & set(vs) & X.R) - 1, 0)
        assert int(table[m]) == X.N * (len(S) - 1) - cover
    # the table of X is built once and shared, so it is read-only
    assert X.slack_table() is table and X.slack_table(()) is table
    with pytest.raises(ValueError):
        table[0] = 1


def _paths_blowup():
    """N = 1, terminals 1-4, four two-edge copies: 0 is 1-5-2, 1 is 3-6-4,
    2 is 2-7-4 and 3 is 1-8-3; edge ids 0-7 in that order."""
    E, copies = {}, []
    for cid, (a, m, b) in enumerate([(1, 5, 2), (3, 6, 4), (2, 7, 4), (1, 8, 3)]):
        E[2 * cid] = hyperlp.BlowupEdge(2 * cid, a, m, Rat(1))
        E[2 * cid + 1] = hyperlp.BlowupEdge(2 * cid + 1, m, b, Rat(1))
        copies.append(hyperlp.BlowupCopy(cid, [2 * cid, 2 * cid + 1], {a, m, b},
                                         ("path", cid)))
    return hyperlp.BlowupGraph(1, [1, 2, 3, 4], copies, E, 9, 8, 4)


def test_contract_keeps_ids_and_shapes():
    X = _paths_blowup()
    # drop 1-5 (copy 0) and 8-3 (copy 3), then contract terminals 1 and 3
    X2, z = X.contract({0, 7}, {1, 3})
    assert z == 9 and X2.R == {2, 4, 9}
    # copy 0 splits into {1} and 2-5, which takes id 4; copy 1 keeps its
    # id and holds 3; copy 2 is untouched; copy 3 splits into 1-8, which
    # takes id 5 and holds 1, and {3}; the one-vertex pieces vanish
    got = [(c.id, c.vertices, c.edge_ids, c.shape) for c in X2.copies]
    assert got == [(4, (2, 5), (1,), ("p", 4)),
                   (1, (4, 6, 9), (2, 3), ("z", ("path", 1), 9)),
                   (2, (2, 4, 7), (4, 5), ("path", 2)),
                   (5, (8, 9), (6,), ("z", ("p", 5), 9))]
    assert X2.copies[2] is X.copies[2]
    assert sorted(X2.edges) == [1, 2, 3, 4, 5, 6]
    assert (X2.edges[2].u, X2.edges[2].v) == (9, 6)
    assert (X2.edges[6].u, X2.edges[6].v) == (9, 8)
    assert X2.edges[4] is X.edges[4]
    # removing every edge leaves no copy and an infeasible graph
    X3, _ = X.contract(X.edges, {1, 2})
    assert X3.copies == [] and not X3.is_feasible()


def test_contract_refuses_two_tq_terminals(frac_n2):
    inst, sol = frac_n2
    X = hyperlp.blowup_from_solution(inst, sol)
    # contracting two terminals that share a copy must be refused until
    # the copy is split
    with pytest.raises(ValueError, match="spans several terminals"):
        X.contract(frozenset(), {1, 2})
    with pytest.raises(ValueError, match="spans several terminals"):
        _paths_blowup().contract({1}, {1, 3})
    with pytest.raises(ValueError, match="need >= 2"):
        X.contract(frozenset(), {1})


def test_invalid_fractional_solution_rejected():
    inst, sol = fractional_solution_n2()
    # drop one component: the degree equality fails
    vals = dict(sol.values)
    comp = next(iter(vals))
    del vals[comp]
    bad = hyperlp.FractionalSolution(sol.terminals, vals)
    assert not bad.check_feasible()
