import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner import contract_alg, hyperlp, splitting, removal_matroid, oracles

from conftest import (small_blowup, fractional_solution_n2, frac_point,
                      mixed_hypertree_point)


def _termsets(X):
    return sorted({X.copy_terminals(c) for c in X.copies
                   if len(X.copy_terminals(c)) >= 2}, key=sorted)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rank_axioms(seed):
    inst, X = small_blowup(seed % 500)
    eids = sorted(X.edges)
    if len(eids) > 7:
        return
    for Q in _termsets(X):
        M = removal_matroid.RemovalMatroid(X, Q)
        rank = {frozenset(F): M.rank(frozenset(F))
                for r in range(len(eids) + 1)
                for F in itertools.combinations(eids, r)}
        assert rank[frozenset()] == 0
        for F, r in rank.items():
            assert 0 <= r <= len(F)
        for F in rank:
            for e in eids:
                if e not in F:
                    bigger = F | {e}
                    assert rank[F] <= rank[bigger] <= rank[F] + 1
        # submodularity
        for A in rank:
            for B in rank:
                assert rank[A | B] + rank[A & B] <= rank[A] + rank[B]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_modes_agree(seed):
    """Scan rank == gammoid rank == flow-identity rank on random F, on an
    LP optimum (N = 1 in practice) and on a hypertree mixture (N >= 2 on
    most seeds)."""
    rng = random.Random(seed)
    mixed = mixed_hypertree_point(seed % 500, 2 + seed % 2)
    for X in (small_blowup(seed % 500)[1], hyperlp.blowup_from_solution(*mixed)):
        eids = sorted(X.edges)
        for Q in _termsets(X):
            g = oracles.GammoidOracle(X, Q)
            c = removal_matroid.RemovalMatroid(X, Q)
            for _ in range(10):
                F = frozenset(e for e in eids if rng.random() < 0.5)
                assert (g.rank(F) == oracles.min_slack_over_supersets(X, Q, F)[0]
                        == c.rank(F))


def test_bases_equal_exhaustive_minimal_removals():
    inst, sol = fractional_solution_n2()
    X = hyperlp.blowup_from_solution(inst, sol)
    for Q in _termsets(X):
        M = removal_matroid.RemovalMatroid(X, Q)
        want = set(map(frozenset, oracles.enumerate_minimal_removals(X, Q)))
        got = set(map(frozenset, oracles.removal_bases(M)))
        assert want == got
        for B in got:
            assert len(B) == X.N * (len(Q) - 1)


def test_greedy_basis_is_max_weight():
    inst, sol = fractional_solution_n2()
    X = hyperlp.blowup_from_solution(inst, sol)
    Xb = splitting.binarize(X)
    st_ = splitting.map_back(X, Xb, splitting.optimal_splitting_set(Xb))
    w = dict(st_.weights)
    for Q in _termsets(X):
        M = removal_matroid.RemovalMatroid(X, Q, groundset=st_.K)
        B = removal_matroid.greedy_max_weight_basis(M, w)
        best = max(sum((w[e] for e in cand), Rat(0))
                   for cand in oracles.enumerate_minimal_removals(X, Q)
                   if frozenset(cand) <= frozenset(st_.K))
        assert sum((w[e] for e in B), Rat(0)) == best


def _rank_greedy(M, w, rank):
    B = set()
    for e in sorted(M.groundset, key=lambda e: (-w[e], e)):
        if rank(B | {e}) == len(B) + 1:
            B.add(e)
    return frozenset(B)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_greedy_basis_on_fractional_points(seed):
    """N >= 2: the mask-test greedy picks the same basis as a greedy
    asking the gammoid rank oracle, and that basis has maximum weight."""
    if seed % 5 == 0:
        inst, sol = fractional_solution_n2()
    else:
        inst, sol = mixed_hypertree_point(seed % 500, 2 + seed % 2)
    X = hyperlp.blowup_from_solution(inst, sol)
    if X.N < 2 or len(X.edges) > 12:
        return
    rng = random.Random(seed)
    K = splitting.splitting_set(X, "dp").K
    for Q in _termsets(X):
        minimal = [frozenset(b) for b in oracles.enumerate_minimal_removals(X, Q)]
        gammoid = oracles.GammoidOracle(X, Q)
        for ground in (K, frozenset(X.edges)):
            w = {e: Rat(rng.randint(0, 3), rng.randint(1, 2)) for e in ground}
            M = removal_matroid.RemovalMatroid(X, Q, groundset=ground)
            B = removal_matroid.greedy_max_weight_basis(M, w)
            assert B == _rank_greedy(M, w, gammoid.rank)
            best = max(sum((w[e] for e in b), Rat(0)) for b in minimal if b <= ground)
            assert sum((w[e] for e in B), Rat(0)) == best


@pytest.fixture(scope="module")
def visited_graphs():
    """(X, K, w) at every selection `run_from_solution` makes on four
    frac-contract points (N = 12, 8 terminals): the initial blowup, then
    contracted graphs with split pieces and carried copies that stand for
    a contracted terminal."""
    seen = []
    select = contract_alg.select_component

    def recording(split, check):
        seen.append((split.X, split.K, split.w))
        return select(split, check)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contract_alg, "select_component", recording)
        for seed in range(4):
            contract_alg.run_from_solution(*frac_point(seed))
    assert {c.shape[0] for X, _, _ in seen for c in X.copies} == {"c", "p"}
    assert any(X.terminal_of[v] != v for X, _, _ in seen
               for c in X.copies if c.shape[0] == "c" for v in X.terminal_vertices(c))
    return seen


def test_greedy_equals_rank_greedy_on_contracted_graphs(visited_graphs):
    """The mask test of the greedy against a greedy asking the full-table
    rank, per terminal group, on K with the contraction's weights and on
    all edges with small random weights (many ties)."""
    rng = random.Random(0)
    for X, K, w in visited_graphs:
        w_all = {e: rng.randint(0, 3) for e in X.edges}
        for Q in _termsets(X):
            for ground, weights in ((K, w), (X.edges, w_all)):
                M = removal_matroid.RemovalMatroid(X, Q, groundset=ground)
                B = removal_matroid.greedy_max_weight_basis(M, weights)
                assert B == _rank_greedy(M, weights, M.rank)
                assert len(B) == M.full_rank


def _sides(X, B, e):
    """Terminal masks of the two pieces that removing e splits its piece
    of X - B into, from `copy_pieces` (no edge slots)."""
    copy = next(c for c in X.copies if e in c.edge_ids)
    before = {frozenset(vs) for vs, _ in X.copy_pieces(copy, B)}
    m1, m2 = [X.term_mask(vs) for vs, _ in X.copy_pieces(copy, B | {e})
              if frozenset(vs) not in before]
    return m1, m2


def test_tight_sets_form_a_lattice(visited_graphs):
    """For random greedy prefixes B, the tight supersets of Q on X - B
    (h(S) = |B|) are closed under cap and cup, so their AND S* is one of
    them; for every candidate edge the one-mask test on S* agrees with
    the test on all tight sets and with the full-table rank."""
    rng = random.Random(2)
    for X, K, _ in visited_graphs:
        ground = sorted(K)
        for Q in _termsets(X):
            M = removal_matroid.RemovalMatroid(X, Q, groundset=K)
            order = rng.sample(ground, len(ground))
            B = set(removal_matroid.greedy_max_weight_basis(
                M, {}, order[:rng.randrange(len(order) + 1)]))
            h = X.slack_table(B)
            tight = {S for S in M.supersets.tolist() if h[S] == len(B)}
            assert M.rank(B) == len(B) and tight
            for S1 in tight:
                for S2 in tight:
                    assert S1 & S2 in tight and S1 | S2 in tight
            meet = functools.reduce(operator.and_, tight)
            assert meet in tight
            for e in ground:
                if e in B:
                    continue
                m1, m2 = _sides(X, B, e)
                every = all(S & m1 and S & m2 for S in tight)
                assert bool(meet & m1 and meet & m2) == every
                assert every == (M.rank(B | {e}) == len(B) + 1)


def _capped_bound(X, Q, ground, w):
    """The contraction's score bound at cost 0 for terminals Q over the
    ground set, with the tight closure of Q it caps the copies by."""
    tight = contract_alg._tight_masks(X)
    S = contract_alg._tight_closure(X, tight, X.term_mask(Q))
    order = removal_matroid.weight_order(ground, w)
    top = contract_alg._CappedTops(X, order, w)
    return contract_alg._score_bound(top, X.N, Q, S, 0), S


def test_capped_bound_on_contracted_graphs(visited_graphs):
    """The capped bound of every terminal group is at least its best basis
    weight (the greedy's) and at most the uncapped sum of the N(|Q|-1)
    largest weights; the closure is the least tight superset of Q."""
    for X, K, w in visited_graphs:
        table = X.slack_table()
        weights = sorted((w[e] for e in K), reverse=True)
        for Q in _termsets(X):
            bound, S = _capped_bound(X, Q, K, w)
            q = X.term_mask(Q)
            assert S & q == q and table[S] == 0
            assert all(T & S == S for T in range(len(table))
                       if T & q == q and table[T] == 0)
            M = removal_matroid.RemovalMatroid(X, Q, groundset=K)
            B = removal_matroid.greedy_max_weight_basis(M, w)
            assert sum(w[e] for e in B) <= bound <= sum(weights[:M.full_rank])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_capped_bound_against_minimal_removals(seed):
    """Every inclusion-minimal removal cuts each copy P at most
    (|S cap P| - 1)+ times, S the tight closure of Q, so the capped
    bound is at least the heaviest one inside the ground set; weights
    are small integers, with many ties."""
    if seed % 5 == 0:
        inst, sol = fractional_solution_n2()
    else:
        inst, sol = mixed_hypertree_point(seed % 500, 2 + seed % 2)
    X = hyperlp.blowup_from_solution(inst, sol)
    if X.N < 2 or len(X.edges) > 12:
        return
    rng = random.Random(seed)
    K = splitting.splitting_set(X, "dp").K
    for Q in _termsets(X):
        minimal = [frozenset(b) for b in oracles.enumerate_minimal_removals(X, Q)]
        for ground in (K, frozenset(X.edges)):
            w = {e: rng.randint(0, 3) for e in ground}
            bound, S = _capped_bound(X, Q, ground, w)
            for b in minimal:
                for copy in X.copies:
                    cap = max(bin(S & X.copy_masks()[copy.id]).count("1") - 1, 0)
                    assert len(b.intersection(copy.edge_ids)) <= cap
            assert max(sum(w[e] for e in b) for b in minimal if b <= ground) <= bound


def test_slack_table_matches_pieces_on_contracted_graphs(visited_graphs):
    """slack_table(F) is N(|S| - 1) minus the sum over the pieces of
    X - F (`copy_pieces`) of (|S cap P| - 1)+, for F empty and a random
    half of the edges; is_feasible agrees with that reference."""
    rng = random.Random(1)
    for X, _, _ in visited_graphs:
        half = frozenset(e for e in X.edges if rng.random() < 0.5)
        for F in (frozenset(), half):
            pieces = [X.term_mask(vs) for copy in X.copies
                      for vs, _ in X.copy_pieces(copy, F)]
            table = X.slack_table(F)
            assert table[0] == 0
            want = [X.N * (bin(S).count("1") - 1)
                    - sum(max(bin(S & m).count("1") - 1, 0) for m in pieces)
                    for S in range(1, len(table))]
            assert table[1:].tolist() == want
            if not F:
                assert X.is_feasible() == (min(want) >= 0 and want[-1] == 0)
                assert X.is_feasible()


def test_uniform_point_exhaustive():
    inst, sol = fractional_solution_n2()
    X = hyperlp.blowup_from_solution(inst, sol)
    Xb = splitting.binarize(X)
    st_ = splitting.map_back(X, Xb, splitting.optimal_splitting_set(Xb))
    ok, details = oracles.verify_uniform_point(X, st_.K)
    assert ok, details
    assert details["worst_margin"] >= 0
