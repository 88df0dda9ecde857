import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat, LN4_UPPER
from hypersteiner.instance import generate_random
from hypersteiner import contract_alg, hyperlp, oracles, splitting
from hypersteiner.components import enumerate_components

from conftest import (fractional_solution_n2, mixed_hypertree_point,
                      triangle_star_instance)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_run_dp_bounds(seed):
    inst = generate_random(4 + seed % 3, 2 + seed % 3, 0.5, seed=seed)
    tree, cert = contract_alg.run(inst, strategy="dp", check=True)
    lp = cert["lp_value"]
    assert cert["tree_cost"] == tree.cost
    assert tree.cost <= cert["phi_over_N"]
    assert cert["phi_initial"] <= LN4_UPPER * cert["N"] * lp
    exact, _ = oracles.exact_steiner_tree(inst)
    assert lp <= exact <= tree.cost


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_run_quasi_bound(seed):
    inst = generate_random(4 + seed % 3, 2 + seed % 2, 0.4, seed=seed,
                           quasi_bipartite=True)
    tree, cert = contract_alg.run(inst, strategy="quasi", check=True)
    assert 60 * cert["tree_cost"] <= 73 * cert["lp_value"]


def test_run_above_full_enum_cap():
    # 13 terminals: the LP runs the cutting-plane branch, whose rows come
    # from violated subsets read off slack tables
    inst = generate_random(13, 3, 0.45, seed=1)
    assert len(inst.terminals) > hyperlp.FULL_ENUM_CAP
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    assert sol.check_feasible()
    tree, cert = contract_alg.run_from_solution(inst, sol, check=True)
    assert cert["lp_value"] == sol.objective
    assert tree.cost <= cert["phi_over_N"] <= LN4_UPPER * sol.objective


def test_fractional_n2_both_strategies():
    inst, sol = fractional_solution_n2()
    for strat in ("dp", "random"):
        tree, cert = contract_alg.run_from_solution(inst, sol, strategy=strat,
                                                    seed=7, check=True)
        assert tree.cost <= cert["phi_over_N"]
        assert cert["N"] == 2


def test_contract_log_totals():
    inst = triangle_star_instance()
    tree, cert = contract_alg.run(inst, strategy="dp", check=True)
    # every iteration records a nonnegative margin and the pieces add up
    spent = sum((it["component_cost"] for it in cert["iterations"]), Rat(0))
    assert spent == cert["contracted_cost"]
    for it in cert["iterations"]:
        assert it["basis_weight"] >= cert["N"] * it["component_cost"]


def test_random_strategy_seed_determinism():
    inst = generate_random(5, 3, 0.5, seed=20)
    a = contract_alg.run(inst, strategy="random", seed=4)
    b = contract_alg.run(inst, strategy="random", seed=4)
    assert a[0].edges == b[0].edges and a[1]["tree_cost"] == b[1]["tree_cost"]


def test_check_mode_rejects_dependent_basis(monkeypatch):
    """check=True re-ranks every greedy basis on a full slack table, so a
    basis that is not independent raises instead of being contracted."""
    inst, sol = mixed_hypertree_point(1, 3)

    def first_edges(M, w, order=None):
        return frozenset(sorted(M.groundset)[:M.full_rank])

    monkeypatch.setattr(contract_alg, "greedy_max_weight_basis", first_edges)
    with pytest.raises(contract_alg.InvariantViolation, match="greedy basis"):
        contract_alg.run_from_solution(inst, sol, check=True)


def test_check_mode_recomputes_weights(monkeypatch):
    """check=True recomputes the weights from fresh witness sets, so
    weights that conserve the total cost but are wrong raise.  The shift
    moves 1/1000 from the second-largest core id to the largest; on this
    point the first step's potential-drop check stays quiet, so only the
    recomputation catches it."""
    inst, sol = mixed_hypertree_point(1, 3)
    core_weights = splitting.core_weights

    def shifted(X, K, witness):
        weights = core_weights(X, K, witness)
        if len(weights) >= 2:
            b, a = sorted(weights)[-2:]
            weights[a] += Rat(1, 1000)
            weights[b] -= Rat(1, 1000)
        return weights

    monkeypatch.setattr(splitting, "core_weights", shifted)
    with pytest.raises(contract_alg.InvariantViolation,
                       match="incremental weight update diverged"):
        contract_alg.run_from_solution(inst, sol, check=True)
