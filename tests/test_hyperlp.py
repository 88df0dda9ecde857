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


def test_remove_edges_and_feasibility(frac_n2):
    inst, sol = frac_n2
    X = hyperlp.blowup_from_solution(inst, sol)
    # removing everything disconnects the terminals
    allF = frozenset(X.edges)
    assert not X.remove_edges(allF).is_feasible()
    # removing nothing is a no-op
    X2 = X.remove_edges(frozenset())
    assert X2.is_feasible() and len(X2.edges) == len(X.edges)


def test_contract_terminals(frac_n2):
    inst, sol = frac_n2
    X = hyperlp.blowup_from_solution(inst, sol)
    # contracting two terminals that share a copy must be refused until
    # the copy is split
    with pytest.raises(ValueError):
        X.contract_terminals(frozenset([1, 2]))


def test_invalid_fractional_solution_rejected():
    inst, sol = fractional_solution_n2()
    # drop one component: the degree equality fails
    vals = dict(sol.values)
    comp = next(iter(vals))
    del vals[comp]
    bad = hyperlp.FractionalSolution(sol.terminals, vals)
    assert not bad.check_feasible()
