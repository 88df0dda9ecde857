import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner import sepflow, hyperlp, oracles
from hypersteiner.cli import _anchor_minima
from hypersteiner.instance import generate_random
from hypersteiner.components import enumerate_components

from conftest import small_blowup, fractional_solution_n2, mixed_hypertree_point


def _table_min(X, Q, F=frozenset()):
    table = X.slack_table(F)
    qmask = X.term_mask(Q)
    best = None
    for m in range(1, 1 << len(X.terminal_order)):
        if m & qmask == qmask:
            v = int(table[m])
            if best is None or v < best:
                best = v
    return best


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_flow_equals_table_minimum(seed):
    inst, X = small_blowup(seed % 1000)
    order = X.terminal_order
    for r in range(1, len(order) + 1):
        for Q in itertools.combinations(order, r):
            val, S = oracles.min_slack_over_supersets(X, Q)
            want = _table_min(X, Q)
            assert val == want
            assert frozenset(Q) <= S
            assert int(X.slack_table()[X.term_mask(S)]) == want


def test_flow_with_removals():
    inst, sol = fractional_solution_n2()
    X = hyperlp.blowup_from_solution(inst, sol)
    eids = sorted(X.edges)
    for F in itertools.combinations(eids, 2):
        F = frozenset(F)
        for q in sorted(X.R):
            try:
                val, _ = oracles.min_slack_over_supersets(X, {q}, F)
            except oracles.NegativeTerminalLoad:
                continue
            assert val == _table_min(X, {q}, F)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_no_violation_at_optimum(seed):
    inst, X = small_blowup(seed % 1000)
    assert sepflow.most_violated_mask(X) is None


def test_violation_found_when_component_overweight():
    # doubling the star breaks the pair subset constraints
    inst, sol = fractional_solution_n2()
    vals = {c: v for c, v in sol.values.items()}
    comp = max(vals, key=lambda c: len(c.terminals))
    vals[comp] = vals[comp] * 2
    bad = hyperlp.FractionalSolution(sol.terminals, vals)
    assert not oracles.check_feasible(bad)
    X = hyperlp.blowup_from_solution(inst, bad)
    mask = sepflow.most_violated_mask(X)
    assert mask is not None
    table = X.slack_table()
    assert int(table[mask]) < 0
    # and it is a most negative subset
    assert int(table[mask]) == min(int(table[m]) for m in range(1, len(table)))


def test_gammoid_rank_bounds():
    inst, sol = fractional_solution_n2()
    X = hyperlp.blowup_from_solution(inst, sol)
    for copy in X.copies:
        Q = X.copy_terminals(copy)
        if len(Q) < 2:
            continue
        g = oracles.GammoidOracle(X, Q)
        eids = sorted(X.edges)
        full = g.rank(eids)
        assert full == X.N * (len(Q) - 1)
        # monotone and subcardinal on a chain
        prev = 0
        for i in range(1, len(eids) + 1):
            r = g.rank(eids[:i])
            assert prev <= r <= i
            prev = r


def test_negative_load_without_violation_reports_none(frac_n2):
    # dropping the {1, 2} pair leaves terminal 1 in fewer than N = 2
    # pieces, yet every subset constraint still holds
    inst, sol = frac_n2
    vals = {c: v for c, v in sol.values.items() if c.terminals != frozenset([1, 2])}
    X = hyperlp.blowup_from_solution(inst, hyperlp.FractionalSolution(sol.terminals, vals))
    with pytest.raises(oracles.NegativeTerminalLoad):
        oracles.min_slack_over_supersets(X, {1})
    assert int(X.slack_table().min()) >= 0
    assert sepflow.most_violated_mask(X) is None


def _flow_rule(X):
    """Most negative per-anchor flow minimum, then the smallest mask."""
    best = None
    for v in X.terminal_order:
        val, S = oracles.min_slack_over_supersets(X, {v})
        if val < 0 and (best is None or (val, X.term_mask(S)) < best):
            best = (val, X.term_mask(S))
    return None if best is None else best[1]


@pytest.mark.parametrize("seed", range(12))
def test_most_violated_mask_on_perturbed_points(seed):
    # one component of a feasible mixture dropped or doubled
    inst, sol = mixed_hypertree_point(seed, 3)
    comps = sorted(sol.values, key=lambda c: (sorted(c.terminals), c.edges))
    comp = comps[seed % len(comps)]
    vals = dict(sol.values)
    if seed % 2:
        vals[comp] *= 2
    else:
        del vals[comp]
    X = hyperlp.blowup_from_solution(inst, hyperlp.FractionalSolution(sol.terminals, vals))
    table = [int(h) for h in X.slack_table()]
    low = min(table)
    want = table.index(low) if low < 0 else None
    assert sepflow.most_violated_mask(X) == want
    try:
        assert _flow_rule(X) == want
    except oracles.NegativeTerminalLoad:
        pass


def _anchor_points():
    # LP optima, mixtures of hypertrees (N >= 2) and the same mixtures with
    # one component doubled, where minimizers grow past the anchor
    for seed in range(30):
        yield small_blowup(seed)[1]
    for seed in range(40):
        inst, sol = mixed_hypertree_point(seed, 3)
        comps = sorted(sol.values, key=lambda c: (sorted(c.terminals), c.edges))
        doubled = dict(sol.values)
        doubled[comps[seed % len(comps)]] *= 2
        for vals in (sol.values, doubled):
            point = hyperlp.FractionalSolution(sol.terminals, vals)
            yield hyperlp.blowup_from_solution(inst, point)


def test_anchor_minima_equal_flow_minima():
    # `separate` reads each anchor's minimum and least minimizer off the
    # slack table; the separation flow must give the same value and S,
    # with no edge removed and with two random nonempty removals F
    rng = random.Random(8)
    checked = fractional = wider = 0
    for X in _anchor_points():
        fractional += X.N >= 2
        eids = sorted(X.edges)
        for F in [frozenset()] + [frozenset(rng.sample(eids, rng.randint(1, len(eids))))
                                  for _ in range(2)]:
            for row in _anchor_minima(X, X.slack_table(F)):
                val, S = oracles.min_slack_over_supersets(X, {row["anchor"]}, F)
                assert (row["min_slack"], row["argmin"]) == (val, sorted(S))
                checked += 1
                wider += len(S) > 1
    assert fractional >= 40 and checked >= 1000 and wider >= 100
