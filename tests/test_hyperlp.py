import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner.instance import UnionFind, generate_random
from hypersteiner.components import enumerate_components
from hypersteiner import hyperlp, oracles, simplexq

from conftest import triangle_star_instance, fractional_solution_n2


def test_lp_star_instance():
    inst = triangle_star_instance()
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    assert sol.objective == 6  # the 3-star at value 1
    assert oracles.check_feasible(sol)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_modes_agree(seed):
    inst = generate_random(4, 2, 0.5, seed=seed)
    comps = enumerate_components(inst)
    full = hyperlp.solve_lp_exact(inst, comps)
    cuts = hyperlp._cutting_planes(inst, comps)
    assert full.objective == cuts.objective


@pytest.mark.parametrize("seed", range(4))
def test_lp_rows_match_set_intersections(seed):
    """The subset rows read off the (popcount - 1)+ table equal
    (|S cap C| - 1)+ and |S| - 1 computed on sets, as Python ints, for
    every nonempty terminal set S and every component C."""
    inst = generate_random(4 + seed % 2, 2, 0.5, seed=seed)
    comps = enumerate_components(inst)
    R = sorted(inst.terminals)
    masks = range(1, 1 << len(R))
    rows, rhs = hyperlp._lp_rows(comps, R, masks)
    for m, row, b in zip(masks, rows, rhs):
        S = {t for i, t in enumerate(R) if m >> i & 1}
        assert b == len(S) - 1 and type(b) is int
        assert row == [max(len(S & c.terminals) - 1, 0) for c in comps]
        assert all(type(a) is int for a in row)


ROW_INSTANCES = [(r, seed) for r in range(3, 7) for seed in range(3)]


def _row_instance(r, seed):
    inst = generate_random(r, 2 + seed, 0.5, seed=seed)
    return inst, enumerate_components(inst), sorted(inst.terminals)


def _solve_masks(comps, R, masks, drop_zero):
    """simplexq.solve_lp on the subset rows of `masks`, the all-zero ones
    included or dropped, plus the equality row."""
    rows, rhs = hyperlp._lp_rows(comps, R, masks)
    ub = [(a, b) for a, b in zip(rows, rhs) if any(a) or not drop_zero]
    return simplexq.solve_lp([c.cost for c in comps], [a for a, _ in ub],
                             [b for _, b in ub],
                             [[len(c.terminals) - 1 for c in comps]], [len(R) - 1])


@pytest.mark.parametrize("r,seed", ROW_INSTANCES)
def test_all_zero_rows_are_inert(r, seed, monkeypatch):
    """A subset row with no positive coefficient changes no pivot: the
    simplex returns the same x and objective with and without the
    all-zero rows, on every subset row (the full-subset path) and on the
    rows of every cutting-plane round, singleton rows included."""
    inst, comps, R = _row_instance(r, seed)
    rounds = []
    solve_rows = hyperlp._solve_rows

    def spy(instance, components, masks):
        rounds.append(list(masks))
        return solve_rows(instance, components, masks)
    monkeypatch.setattr(hyperlp, "_solve_rows", spy)
    hyperlp._cutting_planes(inst, comps)
    singletons = [1 << i for i in range(r)]
    for masks in [range(1, 1 << r)] + [singletons + m for m in rounds]:
        assert _solve_masks(comps, R, masks, True) == _solve_masks(comps, R, masks, False)


@pytest.mark.parametrize("r,seed", ROW_INSTANCES)
def test_solve_lp_exact_passes_no_all_zero_row(r, seed, monkeypatch):
    """`solve_lp_exact` hands the simplex exactly the subset rows with a
    positive coefficient, in mask order: every one of them on the
    full-subset path, and the full-set row alone in the first
    cutting-plane round."""
    inst, comps, R = _row_instance(r, seed)
    calls = []
    solve_lp = simplexq.solve_lp

    def spy(c, A_ub, b_ub, A_eq=(), b_eq=()):
        calls.append(A_ub)
        return solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    monkeypatch.setattr(simplexq, "solve_lp", spy)
    full = hyperlp.solve_lp_exact(inst, comps)
    rows, _ = hyperlp._lp_rows(comps, R, range(1, 1 << r))
    assert calls == [[a for a in rows if any(a)]]
    monkeypatch.setattr(hyperlp, "FULL_ENUM_CAP", 0)
    cuts = hyperlp.solve_lp_exact(inst, comps)
    assert calls[1] == hyperlp._lp_rows(comps, R, [(1 << r) - 1])[0]
    assert all(any(a) for A_ub in calls for a in A_ub)
    assert cuts.objective == full.objective


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_solution_feasible_and_tight(seed):
    inst = generate_random(4, 3, 0.5, seed=seed)
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    assert oracles.check_feasible(sol)
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
    X2, z, pieces = X.contract({0, 7}, {1, 3})
    assert z == 9 and X2.R == {2, 4, 9}
    # no vertex is renamed: 1 and 3 stand for z in the terminal map
    assert X2.terminal_of == {1: 9, 2: 2, 3: 9, 4: 4, 9: 9}
    assert X.terminal_of == {1: 1, 2: 2, 3: 3, 4: 4}
    # copy 0 splits into {1} and 2-5, which takes id 4; copy 1 keeps its
    # id, vertices and shape and holds 3; copy 2 is untouched; copy 3
    # splits into 1-8, which takes id 5 and holds 1, and {3}; the
    # one-vertex pieces vanish
    got = [(c.id, c.vertices, c.edge_ids, c.shape) for c in X2.copies]
    assert got == [(4, (2, 5), (1,), ("p", 4)),
                   (1, (3, 4, 6), (2, 3), ("path", 1)),
                   (2, (2, 4, 7), (4, 5), ("path", 2)),
                   (5, (1, 8), (6,), ("p", 5))]
    assert X2.copies[1] is X.copies[1] and X2.copies[2] is X.copies[2]
    assert X2.copy_terminals(X2.copies[1]) == {4, 9}
    assert X2.copy_terminals(X2.copies[3]) == {9}
    assert X2.terminal_vertices(X2.copies[1]) == [4, 3]
    assert X2.copy_masks() == {c.id: X2.term_mask(c.vertices) for c in X2.copies}
    assert X2.term_mask([3]) == X2.term_mask([1]) == X2.term_mask([9]) == 0b100
    assert pieces == [X2.copies[0], X2.copies[3]]
    assert sorted(X2.edges) == [1, 2, 3, 4, 5, 6]
    assert (X2.edges[2].u, X2.edges[2].v) == (3, 6)
    assert (X2.edges[6].u, X2.edges[6].v) == (1, 8)
    assert all(X2.edges[e] is X.edges[e] for e in X2.edges)
    # a second step moves every vertex standing for 9 on to the next z
    X3, z3, _ = X2.contract(set(), {2, 9})
    assert z3 == 10 and X3.R == {4, 10}
    assert X3.terminal_of == {1: 10, 2: 10, 3: 10, 4: 4, 9: 10, 10: 10}
    # removing every edge leaves no copy and an infeasible graph
    X3, _, _ = X.contract(X.edges, {1, 2})
    assert X3.copies == [] and not X3.is_feasible()


def test_union_find_direction_orders_pieces():
    uf = UnionFind(range(6))
    # union(u, v) hangs u's root under v's root
    assert uf.union(0, 1) and uf.parent[0] == 1 and uf.parent[1] == 1
    assert uf.union(1, 2) and uf.union(2, 3) and uf.union(4, 5)
    assert uf.parent == {0: 1, 1: 2, 2: 3, 3: 3, 4: 5, 5: 5}
    # path halving points 0 at its grandparent; one root per class
    assert uf.find(0) == 3 and uf.parent[0] == 2
    assert {uf.find(v) for v in range(4)} == {3}
    assert {uf.find(v) for v in (4, 5)} == {5}
    assert not uf.union(0, 3) and not uf.union(2, 1) and not uf.union(5, 4)
    assert {uf.find(v) for v in range(6)} == {3, 5}
    # the copy 0 - 9 - 1 - 2 without its middle edge splits into {0, 9},
    # whose root is 9, and {1, 2}, whose root is 2: pieces follow the roots
    E = {0: hyperlp.BlowupEdge(0, 0, 9, Rat(1)),
         1: hyperlp.BlowupEdge(1, 9, 1, Rat(1)),
         2: hyperlp.BlowupEdge(2, 1, 2, Rat(1))}
    copy = hyperlp.BlowupCopy(0, [0, 1, 2], [0, 1, 2, 9], ("path", 0))
    X = hyperlp.BlowupGraph(1, [0, 2], [copy], E, 10, 3, 1)
    assert X.copy_pieces(copy, {1}) == [((1, 2), (2,)), ((0, 9), (0,))]


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
    assert not oracles.check_feasible(bad)
