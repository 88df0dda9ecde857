"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Everything except criterion 9 is exact rational arithmetic with
zero tolerance; criterion 9 is a Monte-Carlo estimate and is documented
as statistical.
"""

import itertools
import math
import random
import time

import pytest

from hypersteiner.ratio import Rat, R0, LN4_UPPER
from hypersteiner.instance import SteinerInstance, generate_random
from hypersteiner.components import enumerate_components
from hypersteiner import (hyperlp, splitting, contract_alg,
                          removal_matroid, partition_decomp, bcr_quasi,
                          oracles)

from conftest import triangle_star_instance, small_blowup
from test_partition_decomp import _chain_function

Q_LN4 = LN4_UPPER  # 1386295/10^6, just above ln 4


def _report(num, ok, detail):
    line = "CRITERION %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    print("\n" + line)
    assert ok, line


def _mixed_sizes(n):
    """Instance sizes for the ln(4) batch: mostly small, tail up to the
    |R| = 8, |V| = 14 cap."""
    out = []
    for i in range(n):
        if i >= n - 20:
            T = 7 + i % 2
        else:
            T = 4 + i % 3
        S = min(14 - T, 2 + i % 4)
        out.append((T, S))
    return out


_DP_WALL = [0.0]


@pytest.fixture(scope="module")
def dp_runs():
    t0 = time.time()
    runs = []
    for i, (T, S) in enumerate(_mixed_sizes(200)):
        inst = generate_random(T, S, 0.45, seed=10_000 + i)
        tree, cert = contract_alg.run(inst, k=T, strategy="dp", check=True)
        runs.append((inst, tree, cert))
    _DP_WALL[0] = time.time() - t0
    return runs


@pytest.fixture(scope="module")
def quasi_runs():
    runs = []
    for i in range(200):
        T = 4 + i % 3
        inst = generate_random(T, 2 + i % 4, 0.45, seed=20_000 + i,
                               quasi_bipartite=True)
        tree, cert = contract_alg.run(inst, strategy="quasi", check=True)
        runs.append((inst, tree, cert))
    return runs


def test_criterion_1_ln4_certificate(dp_runs):
    for inst, tree, cert in dp_runs:
        assert tree.cost * cert["N"] <= cert["phi_initial"]
        assert cert["phi_initial"] <= Q_LN4 * cert["N"] * cert["lp_value"]
    _report(1, True, "%d instances, tree <= phi/N <= q*lp exactly, "
            "%.1fs incl. runs" % (len(dp_runs), _DP_WALL[0]))


def test_criterion_2_quasi_73_60(quasi_runs):
    for inst, tree, cert in quasi_runs:
        blow_cost = cert["N"] * cert["lp_value"]
        assert 60 * cert["phi_initial"] <= 73 * blow_cost
        assert 60 * cert["tree_cost"] <= 73 * cert["lp_value"]
    _report(2, True, "%d quasi-bipartite instances, 60*phi <= 73*cost and "
            "60*tree <= 73*lp exactly" % len(quasi_runs))


def test_criterion_3_matroid_suite():
    checked = 0
    seed = 0
    while checked < 50:
        inst, X = small_blowup(seed)
        seed += 1
        eids = sorted(X.edges)
        if len(eids) > 10:
            continue
        termsets = sorted({X.copy_terminals(c) for c in X.copies
                           if len(X.copy_terminals(c)) >= 2}, key=sorted)
        if not termsets:
            continue
        for Q in termsets:
            M = removal_matroid.RemovalMatroid(X, Q)
            want = set(map(frozenset, oracles.enumerate_minimal_removals(X, Q)))
            got = set(map(frozenset, oracles.removal_bases(M)))
            assert want == got
            for B in got:
                assert len(B) == X.N * (len(Q) - 1)
            if len(eids) <= 7:
                rank = {frozenset(F): M.rank(frozenset(F))
                        for r in range(len(eids) + 1)
                        for F in itertools.combinations(eids, r)}
                assert rank[frozenset()] == 0
                for F, r in rank.items():
                    assert 0 <= r <= len(F)
                    for e in eids:
                        if e not in F:
                            assert r <= rank[F | {e}] <= r + 1
                for A in rank:
                    for B2 in rank:
                        assert rank[A | B2] + rank[A & B2] <= rank[A] + rank[B2]
        checked += 1
    _report(3, True, "%d blowups: bases == exhaustive removals, rank axioms, "
            "|B| = N(|Q|-1)" % checked)


def test_criterion_4_oracle_equivalence():
    pool = []
    for s in range(30):
        inst, X = small_blowup(s + 40)
        ts = [X.copy_terminals(c) for c in X.copies
              if len(X.copy_terminals(c)) >= 2]
        for Q in ts:
            pool.append((sorted(X.edges), oracles.GammoidOracle(X, Q), X, Q))
    rng = random.Random(4)
    n = 0
    while n < 10_000:
        eids, g, X, Q = pool[rng.randrange(len(pool))]
        F = frozenset(e for e in eids if rng.random() < 0.45)
        assert g.rank(F) == oracles.min_slack_over_supersets(X, Q, F)[0]
        n += 1
    _report(4, True, "%d random rank queries, gammoid == submodular" % n)


def test_criterion_5_separation_identity():
    n = 0
    seed = 0
    while n < 1000:
        inst, X = small_blowup(seed, terminals=3 + seed % 4)  # |R| <= 6 <= 10
        seed += 1
        table = X.slack_table()
        order = X.terminal_order
        for r in range(1, len(order) + 1):
            for Q in itertools.combinations(order, r):
                val, S = oracles.min_slack_over_supersets(X, Q)
                qmask = X.term_mask(Q)
                want = min(int(table[m]) for m in range(1, 1 << len(order))
                           if m & qmask == qmask)
                assert val == want
                assert int(table[X.term_mask(S)]) == want
                n += 1
    _report(5, True, "%d flow separations == exhaustive superset minimum" % n)


def test_criterion_6_uniform_point():
    checked = 0
    seed = 0
    while checked < 20:
        inst, X = small_blowup(seed)
        seed += 1
        Xb = splitting.binarize(X)
        state = splitting.map_back(X, Xb, splitting.optimal_splitting_set(Xb))
        if len(state.K) > 14:
            continue
        ok, details = oracles.verify_uniform_point(X, state.K)
        assert ok, details
        checked += 1
    _report(6, True, "%d instances, all F subsets of K: membership + per-piece "
            "slack inequality + h(R) = |F|" % checked)


def test_criterion_7_potential_accounting(dp_runs, quasi_runs):
    iters = 0
    for inst, tree, cert in dp_runs + quasi_runs:
        phi = cert["phi_initial"]
        for it in cert["iterations"]:
            assert phi - it["phi"] >= it["basis_weight"]
            phi = it["phi"]
            iters += 1
    _report(7, True, "%d iterations across criteria 1-2 (check mode), "
            "phi drop >= w(B) exactly" % iters)


def test_criterion_8_dp_optimality():
    comps = 0
    seed = 0
    while comps < 100:
        inst, X = small_blowup(seed)
        seed += 1
        Xb = splitting.binarize(X)
        if any(len(c.edge_ids) > 8 for c in Xb.copies):
            continue
        if sum(len(c.edge_ids) for c in Xb.copies) > 9:
            continue
        state = splitting.optimal_splitting_set(Xb)
        best = min(splitting.compute_witnesses_and_weights(Xb, K).potential
                   for K in oracles.enumerate_splitting_sets(Xb))
        assert state.potential == best
        comps += len(Xb.copies)
    _report(8, True, "%d binarized components (<= 8 edges), DP potential == "
            "exhaustive minimum" % comps)


def _fixed_components():
    """Five single-component instances whose LP optimum is one full
    component (stars and a binary tree)."""
    out = []
    for hub_costs in ([2, 2, 2], [1, 2, 3], [3, 3, 3, 3], [1, 1, 4, 4]):
        k = len(hub_costs)
        verts = list(range(1, k + 1)) + [9]
        costs = {(i, 9): Rat(c) for i, c in zip(range(1, k + 1), hub_costs)}
        # pricey terminal-terminal edges keep the star strictly optimal
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                costs[(i, j)] = Rat(50)
        out.append(SteinerInstance(verts, costs, list(range(1, k + 1))))
    # a height-2 tree component
    costs = {(9, 10): Rat(2), (9, 11): Rat(2), (1, 10): Rat(1), (2, 10): Rat(1),
             (3, 11): Rat(1), (4, 11): Rat(1), (1, 2): Rat(50), (3, 4): Rat(50),
             (1, 3): Rat(50)}
    out.append(SteinerInstance([1, 2, 3, 4, 9, 10, 11], costs, [1, 2, 3, 4]))
    return out


def test_criterion_9_random_k_expectation():
    trials = 100_000
    details = []
    for inst in _fixed_components():
        sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
        X = hyperlp.blowup_from_solution(inst, sol)
        assert len(X.copies) == 1 and X.N == 1
        Xb = splitting.binarize(X)
        cost = float(X.total_cost())
        tot = 0.0
        tot2 = 0.0
        for s in range(trials):
            phi = float(splitting.random_splitting_set(Xb, seed=s).potential)
            tot += phi
            tot2 += phi * phi
        mean = tot / trials
        var = max(tot2 / trials - mean * mean, 0.0)
        se = math.sqrt(var / trials)
        bound = math.log(4) * cost
        # statistical, one-sided: the mean may not exceed ln4*cost by more
        # than 3 standard errors
        assert mean <= bound + 3 * se, (mean, bound, se)
        details.append("%.4f<=%.4f" % (mean, bound))
    _report(9, True, "5 components x %d seeds, mean phi vs ln4*cost "
            "(statistical, 3 SE): %s" % (trials, ", ".join(details)))


def test_criterion_10_partition_decomposition():
    n = 0
    for seed in range(200):
        size = 3 + seed % 4  # |U| <= 6
        h = _chain_function(seed, size)
        if not (h.is_nonnegative() and h.is_intersecting_submodular()):
            continue
        dec = partition_decomp.decompose(h)
        U = frozenset(h.ground)
        assert dec(U) == h(U)
        assert len(dec) <= size - 1
        sizes = [len(P) for _, P in dec.parts]
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) == len(sizes)
        for m in range(1, 1 << size):
            S = h.unmask(m)
            assert dec(S) <= h(S)
        n += 1
        if n >= 100:
            break
    _report(10, n >= 100, "%d random intersecting-submodular functions: "
            "f <= h, f(U) = h(U), k <= |U|-1, strict coarsening" % n)


def test_criterion_11_bcr_equivalence():
    n = 0
    for seed in range(100):
        T = 3 + seed % 4
        inst = generate_random(T, 2 + seed % 3, 0.4, seed=30_000 + seed,
                               quasi_bipartite=True)
        pre = bcr_quasi.preprocess_quasi(inst)
        b = bcr_quasi.solve_bcr(pre)
        lp = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
        assert b.objective == lp.objective
        dec = bcr_quasi.natural_decomposition(b)
        assert dec.objective == b.objective
        assert oracles.check_feasible(dec)
        n += 1
    _report(11, True, "%d quasi-bipartite instances: BCR == LP exactly, "
            "decomposition feasible with equal objective" % n)


def test_criterion_12_sanity_chain(dp_runs):
    worst_gap = Rat(1)
    n = 0
    for inst, tree, cert in dp_runs:
        if len(inst.terminals) > 8:
            continue
        lp = cert["lp_value"]
        exact, _ = oracles.exact_steiner_tree(inst)
        assert lp <= exact <= tree.cost
        assert tree.cost * cert["N"] <= cert["phi_initial"]
        assert cert["phi_initial"] <= Q_LN4 * cert["N"] * lp
        gap = exact / lp
        assert gap >= 1
        if gap > worst_gap:
            worst_gap = gap
        n += 1
    _report(12, True, "%d instances: lp <= exact <= tree <= q*lp chain; "
            "largest observed integrality gap %s" % (n, worst_gap))
