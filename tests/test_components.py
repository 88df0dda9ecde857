import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat, lcm_denominators
from hypersteiner.instance import SteinerInstance, generate_random, orient
from hypersteiner.components import enumerate_components, min_component_cost
from hypersteiner import oracles

from conftest import triangle_star_instance


def test_two_terminal_component_is_shortest_path():
    inst = SteinerInstance([1, 2, 3], {(1, 3): Rat(1), (2, 3): Rat(1),
                                       (1, 2): Rat(5)}, [1, 2])
    cost, _ = min_component_cost(inst, frozenset([1, 2]), return_tree=True)
    assert cost == 2


def test_star_beats_paths():
    inst = triangle_star_instance()
    comps = enumerate_components(inst)
    by_terms = {c.terminals: c for c in comps}
    star = by_terms[frozenset([1, 2, 3])]
    assert star.cost == 6
    assert set(star.edges) == {(1, 4), (2, 4), (3, 4)}


def test_full_component_shape():
    # every enumerated component: terminals are exactly the leaves
    inst = generate_random(5, 3, 0.5, seed=5)
    for c in enumerate_components(inst):
        deg = {}
        for (u, v) in c.edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        for t in c.terminals:
            assert deg[t] == 1
        for v in deg:
            if v not in c.terminals:
                assert v not in inst.terminals


def _restricted(inst, S):
    """The instance on what S reaches without the terminals outside S
    (they may not route a component), or None if S is not connected
    there."""
    banned = inst.terminals - S
    adj = {v: [(w, c) for (w, c) in inst.neighbors(v) if w not in banned]
           for v in inst.vertices - banned}
    keep = set(orient(adj, [min(S)])[0])
    if not S <= keep:
        return None
    costs = {e: c for e, c in inst.costs.items()
             if e[0] in keep and e[1] in keep}
    return SteinerInstance(keep, costs, S)


def _assert_costs_exhaustive(inst):
    for c in enumerate_components(inst):
        assert c.cost == oracles.exhaustive_steiner_cost(
            _restricted(inst, c.terminals))


def _splits(S):
    """(S1, S2) with S1 | S2 = S, S1 & S2 = {t} and both of size >= 2."""
    for t in S:
        rest = [u for u in S if u != t]
        for r in range(1, len(rest)):
            for A in itertools.combinations(rest, r):
                yield tuple(sorted(A + (t,))), tuple(u for u in S if u not in A)


def _assert_keep_rule(inst):
    """S is kept iff it is connected without the other terminals and its
    optimum there, from the reference DP, is strictly below every split
    at a shared terminal; a kept component costs that optimum."""
    R = sorted(inst.terminals)
    opt = {}
    for r in range(2, len(R) + 1):
        for S in itertools.combinations(R, r):
            sub = _restricted(inst, frozenset(S))
            opt[S] = None if sub is None else oracles.exact_steiner_tree(sub)[0]
    kept = {tuple(sorted(c.terminals)): c.cost for c in enumerate_components(inst)}
    for S, best in opt.items():
        splits = [opt[S1] + opt[S2] for S1, S2 in _splits(S)
                  if opt[S1] is not None and opt[S2] is not None]
        want = best is not None and all(best < s for s in splits)
        assert (S in kept) == want, (S, best, splits)
        if want:
            assert kept[S] == best


@pytest.mark.parametrize("T, steiner, seed", [
    (3, 3, 2), (4, 3, 0), (5, 2, 8), (5, 4, 3), (6, 3, 9),
])
def test_keep_rule_matches_reference(T, steiner, seed):
    # every instance but the first holds a subset whose cheapest
    # full tree costs as much as a split of it: a rule keeping ties fails
    _assert_keep_rule(generate_random(T, steiner, 0.45, seed=seed))


def test_keep_rule_rational_costs():
    for seed in range(4):
        base = generate_random(3 + seed, 3, 0.45, seed=seed)
        costs = {e: c / 7 + Rat(seed, 6) for e, c in base.costs.items()}
        _assert_keep_rule(SteinerInstance(base.vertices, costs, base.terminals))
    _assert_keep_rule(_inverse_prime_instance())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_component_cost_matches_exhaustive(seed):
    inst = generate_random(3, 2, 0.5, seed=seed)
    if len(inst.costs) > 18:
        return
    _assert_costs_exhaustive(inst)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 7]), st.integers(0, 5))
def test_rational_component_cost_matches_exhaustive(seed, d, k):
    # costs c/d + k/6: the DP runs on costs scaled by lcm(d, 6 / gcd(k, 6))
    base = generate_random(3, 2, 0.5, seed=seed)
    if len(base.costs) > 18:
        return
    costs = {e: c / d + Rat(k, 6) for e, c in base.costs.items()}
    _assert_costs_exhaustive(SteinerInstance(base.vertices, costs, base.terminals))


PRIMES = (61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131)


def _inverse_prime_instance():
    """Terminals 1..4, Steiner 5 and 6, all 15 edges, costs 1/p for distinct
    primes p; the cheapest edges (largest p) touch the Steiner vertices."""
    pairs = sorted(itertools.combinations(range(1, 7), 2),
                   key=lambda e: (e[1] > 4, e))
    costs = {e: Rat(1, p) for e, p in zip(pairs, PRIMES)}
    return SteinerInstance(range(1, 7), costs, [1, 2, 3, 4])


def test_costs_with_lcm_past_64_bits():
    inst = _inverse_prime_instance()
    L = lcm_denominators(inst.costs.values())
    assert L > 2 ** 64
    comps = enumerate_components(inst)
    assert any(len(c.terminals) > 2 for c in comps)
    _assert_costs_exhaustive(inst)
    # the same instance on integer costs c * L has the same components
    scaled = SteinerInstance(inst.vertices,
                             {e: c * L for e, c in inst.costs.items()},
                             inst.terminals)
    assert ([(c.terminals, c.edges, c.cost * L) for c in comps]
            == [(c.terminals, c.edges, c.cost)
                for c in enumerate_components(scaled)])


def test_min_component_cost_is_realized_tree_cost():
    inst = _inverse_prime_instance()
    for r in (2, 3, 4):
        for S in itertools.combinations(sorted(inst.terminals), r):
            cost, edges = min_component_cost(inst, S, return_tree=True)
            assert isinstance(cost, Rat)
            assert cost == sum(inst.costs[e] for e in edges)
            assert min_component_cost(inst, S) == cost


def test_max_size_cap():
    inst = generate_random(5, 2, 0.5, seed=3)
    small = enumerate_components(inst, max_size=2)
    assert all(len(c.terminals) == 2 for c in small)
    full = enumerate_components(inst)
    assert {c for c in small} <= {c for c in full}


def test_deterministic_order():
    inst = generate_random(4, 3, 0.5, seed=8)
    a = enumerate_components(inst)
    b = enumerate_components(inst)
    assert a == b
    sizes = [len(c.terminals) for c in a]
    assert sizes == sorted(sizes)


def test_costs_past_2_53_use_exact_distances():
    # From each terminal the Dijkstra reaches trap vertex 3 (or 4) at
    # A + 100 and vertex 5 (or 6) at A, which are equal as floats; the
    # shorter route A + 1 to the trap shows up only under exact keys.
    A = 2 ** 60
    costs = {(1, 3): A + 100, (1, 5): A, (3, 5): 1, (3, 7): 1,
             (2, 4): A + 100, (2, 6): A, (4, 6): 1, (4, 7): 1}
    inst = SteinerInstance(range(1, 8), costs, [1, 2])
    cost, edges = min_component_cost(inst, [1, 2], return_tree=True)
    assert cost == 2 * A + 4
    assert cost == sum(inst.costs[e] for e in edges)
    (comp,) = enumerate_components(inst)
    assert comp.cost == 2 * A + 4
