import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hypersteiner.ratio import Rat, LN4_UPPER, lcm_denominators
from hypersteiner.instance import SteinerInstance, edge_key, generate_random
from hypersteiner import contract_alg, hyperlp, oracles, removal_matroid, splitting
from hypersteiner.components import Component, enumerate_components

from conftest import (frac_point, fractional_solution_n2,
                      mixed_hypertree_point, triangle_star_instance)


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
    assert oracles.check_feasible(sol)
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


def test_check_mode_catches_bad_subtree_mask(monkeypatch):
    """check=True ranks every greedy basis again on a full slack table,
    whose pieces come from `copy_pieces`, not from the edge table of
    `edge_slots`.  Edge 6 of this point joins terminal 4 to the centre of
    a star over 1, 3, 4; its entry is corrupted to put terminal 1 below it
    instead, so the greedy takes a dependent edge for terminals [1, 3]."""
    inst, sol = mixed_hypertree_point(1, 3)
    X = hyperlp.blowup_from_solution(inst, sol)
    assert X.copy_masks()[X.edge_slots()[6][0]] == X.term_mask([1, 3, 4])
    assert X.edge_slots()[6][1] == X.term_mask([4])
    slots = hyperlp.BlowupGraph.edge_slots

    def corrupted(X):
        table = slots(X)
        if 6 in table:
            ci, below, bit, up = table[6]
            cm = X.copy_masks()[ci]
            table[6] = (ci, cm & -cm, bit, up)
        return table

    monkeypatch.setattr(hyperlp.BlowupGraph, "edge_slots", corrupted)
    # the slot comparison of check mode would name the edge first
    monkeypatch.setattr(contract_alg, "_check_carried", lambda split: None)
    with pytest.raises(contract_alg.InvariantViolation,
                       match=r"greedy basis for terminals \[1, 3\] has rank 2 < 3") as exc:
        contract_alg.run_from_solution(inst, sol, check=True)
    assert exc.value.details == {"terminals": [1, 3], "rank": 2, "full_rank": 3}


def test_carried_data_matches_fresh_build(monkeypatch):
    """A contracted graph carries the copy masks and edge slots of the
    copies F left whole from the graph before.  On every graph of four
    frac-contract runs, check mode compares them with the same graph
    built fresh (`_check_carried`), and the greedy basis of every
    terminal group is the same on the carried slots as on freshly walked
    ones."""
    seen, checked = [], []
    select, check = contract_alg.select_component, contract_alg._check_carried
    monkeypatch.setattr(contract_alg, "select_component",
                        lambda split, check: seen.append(split) or select(split, check))
    monkeypatch.setattr(contract_alg, "_check_carried",
                        lambda split: checked.append(split.X) or check(split))
    for seed in range(4):
        contract_alg.run_from_solution(*frac_point(seed), check=True)
    assert {c.shape[0] for split in seen for c in split.X.copies} == {"c", "p"}
    # some carried copy stands for a contracted terminal
    assert any(split.X.terminal_of[v] != v for split in seen
               for c in split.X.copies if c.shape[0] == "c"
               for v in split.X.terminal_vertices(c))
    # one check per step and one before the first: every graph selected on
    assert len(checked) == len(seen) + 4
    assert sum(split.X in checked for split in seen) == len(seen)
    for split in seen:
        X = split.X
        order = removal_matroid.weight_order(split.K, split.w)
        for m in contract_alg.terminal_groups(X, split.copy_cost):
            T = X.mask_terms(m)
            bases = [removal_matroid.greedy_max_weight_basis(
                removal_matroid.RemovalMatroid(Y, T, groundset=split.K), split.w, order)
                for Y in (X, X.fresh())]
            assert bases[0] == bases[1]


def test_carried_slots_cover_every_edge(monkeypatch):
    """Without check mode, which reads every slot, each graph of four
    frac-contract runs holds exactly one edge slot per edge, and each
    matches a fresh walk as `_check_carried` compares them: copy id, copy
    mask (from `copy_masks`) and the unordered pair of side masks."""
    graphs = []
    blowup, contract = contract_alg.blowup_from_solution, hyperlp.BlowupGraph.contract

    def kept_blowup(inst, sol):
        graphs.append(blowup(inst, sol))
        return graphs[-1]

    def kept_contract(X, F, TQ):
        X2, z, pieces = contract(X, F, TQ)
        graphs.append(X2)
        return X2, z, pieces

    monkeypatch.setattr(contract_alg, "blowup_from_solution", kept_blowup)
    monkeypatch.setattr(hyperlp.BlowupGraph, "contract", kept_contract)
    for seed in range(4):
        contract_alg.run_from_solution(*frac_point(seed))
    assert len(graphs) > 8 and sum(len(X.R) == 1 for X in graphs) == 4

    def summary(slot, masks):
        cid, below, _, _ = slot
        cm = masks[cid]
        return [cid, cm, sorted((below, cm & ~below))]

    for X in graphs:
        slots, fresh = X.edge_slots(), X.fresh().edge_slots()
        masks, fresh_masks = X.copy_masks(), X.fresh().copy_masks()
        assert slots.keys() == X.edges.keys()
        for eid in X.edges:
            assert summary(slots[eid], masks) == summary(fresh[eid], fresh_masks)


def test_contract_keeps_whole_copies_and_edges(monkeypatch):
    """A step builds no copy or edge for what it leaves whole: on every
    step of four frac-contract runs, each copy of the contracted graph
    that is not a new piece is the parent's copy object, every edge is
    the parent's edge object, and the copies that hold a contracted
    terminal are among them."""
    steps = []
    contract = hyperlp.BlowupGraph.contract

    def kept_contract(X, F, TQ):
        X2, z, pieces = contract(X, F, TQ)
        steps.append((X, X2, pieces, TQ))
        return X2, z, pieces

    monkeypatch.setattr(hyperlp.BlowupGraph, "contract", kept_contract)
    for seed in range(4):
        contract_alg.run_from_solution(*frac_point(seed))
    holding = 0
    for X, X2, pieces, TQ in steps:
        parent = {c.id: c for c in X.copies}
        new = {p.id for p in pieces}
        assert new.isdisjoint(parent)
        for c in X2.copies:
            if c.id not in new:
                assert c is parent[c.id]
                holding += bool(X.copy_terminals(c) & TQ)
        assert all(X2.edges[e] is X.edges[e] for e in X2.edges)
    assert holding > 0


def test_check_mode_catches_drifted_carried_slot(monkeypatch):
    """A carried edge slot whose subtree mask is wrong (here the whole
    copy's mask, one side empty) is caught by check mode right after the
    contraction that carried it, with the edge named in the details."""
    inst, sol = mixed_hypertree_point(1, 3)
    contract = hyperlp.BlowupGraph.contract
    planted = []

    def drifting(self, F, TQ):
        X2, z, pieces = contract(self, F, TQ)
        if not planted:
            carried = [c for c in X2.copies if c.id in self.copy_masks()]
            eid = carried[0].edge_ids[0]
            cid, below, bit, up = X2.edge_slots()[eid]
            cm = X2.copy_masks()[cid]
            X2.edge_slots()[eid] = (cid, cm, bit, up)
            planted.append((eid, cm))
        return X2, z, pieces

    monkeypatch.setattr(hyperlp.BlowupGraph, "contract", drifting)
    with pytest.raises(contract_alg.InvariantViolation,
                       match="carried slot of edge 2 diverged") as exc:
        contract_alg.run_from_solution(inst, sol, check=True)
    [(eid, cm)] = planted
    assert eid == 2
    details = exc.value.details
    assert details["edge"] == 2
    assert details["carried"][1] == cm  # sides 0 and the copy
    assert details["fresh"][:1] == details["carried"][:1]


def test_check_mode_catches_bad_shape_template(monkeypatch):
    """The first graph walks one copy per shape and reads the slots of the
    other copies of that shape off the walk.  One wrong below mask in the
    first shape's walk (the other side of the edge at position 0) reaches
    every copy of that shape; check mode compares the slots with a walk
    of every copy before the first step and names the template's edge."""
    inst, sol = frac_point(0)
    X0 = hyperlp.blowup_from_solution(inst, sol)
    first = next(c for c in X0.copies
                 if sum(d.shape == c.shape for d in X0.copies) > 1)
    walk, planted = hyperlp.BlowupGraph._walk, []

    def wrong(X, copy):
        rows = walk(X, copy)
        if copy.shape == first.shape and not planted:
            below, bit, up = rows[0]
            rows[0] = (X.term_mask(copy.vertices) & ~below, bit, up)
            planted.append(copy.edge_ids[0])
        return rows

    monkeypatch.setattr(hyperlp.BlowupGraph, "_walk", wrong)
    with pytest.raises(contract_alg.InvariantViolation,
                       match="carried slot of edge %d diverged" % first.edge_ids[0]) as exc:
        contract_alg.run_from_solution(inst, sol, check=True)
    assert planted == [first.edge_ids[0]]
    details = exc.value.details
    assert details["edge"] == first.edge_ids[0]
    assert details["carried"][1] == X0.copy_masks()[first.id] & ~details["fresh"][1]
    assert details["carried"][2:] == details["fresh"][2:]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
@example(5, 2)
@example(17, 3)
def test_k_restricted_bounds(seed, k):
    """With components of at most k terminals the LP value lp_k is at
    least lp, and it is the LP over the components of the unrestricted
    enumeration with at most k terminals; the certificate chain
    tree N <= Phi <= ln4 N lp_k holds exactly, with check=True."""
    inst = generate_random(4 + seed % 2, 2 + seed % 3, 0.5, seed=seed)
    tree, cert = contract_alg.run(inst, k=k, check=True)
    comps = enumerate_components(inst)
    lp = hyperlp.solve_lp_exact(inst, comps).objective
    small = [c for c in comps if len(c.terminals) <= k]
    assert lp <= cert["lp_value"] == hyperlp.solve_lp_exact(inst, small).objective
    assert tree.cost * cert["N"] <= cert["phi_initial"]
    assert cert["phi_initial"] <= LN4_UPPER * cert["N"] * cert["lp_value"]


def test_check_mode_recomputes_weights(monkeypatch):
    """check=True recomputes the weights from fresh witness sets, so
    carried weights that conserve the total cost but are wrong raise.
    The shift moves one unit of the integer scale (1/D) from the
    second-largest core id to the largest in every contracted state; on
    this point the first step's potential-drop check stays quiet, so only
    the recomputation catches it."""
    inst, sol = mixed_hypertree_point(1, 3)
    contracted = splitting.SplittingState.contracted

    def shifted(self, B, TQ):
        new, F, z = contracted(self, B, TQ)
        if len(new.w) >= 2:
            b, a = sorted(new.w)[-2:]
            new.w[a] += 1
            new.w[b] -= 1
        return new, F, z

    monkeypatch.setattr(splitting.SplittingState, "contracted", shifted)
    with pytest.raises(contract_alg.InvariantViolation,
                       match="incremental weight update diverged"):
        contract_alg.run_from_solution(inst, sol, check=True)


def test_check_mode_catches_low_score_bound(monkeypatch):
    """A score bound one unit too low can skip the winning piece.  Planted
    on the terminal set {1, 7} (7 a contracted terminal) of one iteration
    on this point, it makes a run without check silently contract another
    copy there.  With check=True the greedy also runs on the pieces the
    bound skips, and that skipped piece's score above its bound raises."""
    inst, sol = mixed_hypertree_point(3, 2)
    _, cert = contract_alg.run_from_solution(inst, sol)
    assert cert["N"] == 2
    assert [1, 7] in [it["terminals"] for it in cert["iterations"]]
    bound = contract_alg._score_bound
    low_T = frozenset({1, 7})
    monkeypatch.setattr(contract_alg, "_score_bound",
                        lambda top, N, T, S, cost: bound(top, N, T, S, cost) - (T == low_T))
    _, low = contract_alg.run_from_solution(inst, sol)
    assert low["iterations"] != cert["iterations"]
    with pytest.raises(contract_alg.InvariantViolation,
                       match=r"terminals \[1, 7\] above its bound") as exc:
        contract_alg.run_from_solution(inst, sol, check=True)
    details = exc.value.details
    assert details["terminals"] == [1, 7]
    assert details["bound"] < details["score"]
    assert details["tight_closure"] == [1, 7]


def test_check_mode_catches_low_copy_cap(monkeypatch):
    """The capped bound lets each copy P give at most (|S cap P| - 1)+
    edges, S the tight closure of the terminals.  With every cap planted
    one unit too low, some piece's greedy basis scores above its bound,
    and check mode names the piece's terminals and closure: on this
    point terminals {2, 4}, whose closure {1, 2, 4} lies strictly between
    them and R = {1, 2, 3, 4}."""
    inst, sol = mixed_hypertree_point(3, 2)
    pcm1 = contract_alg.pcm1_table
    monkeypatch.setattr(contract_alg, "pcm1_table",
                        lambda r: np.maximum(pcm1(r) - 1, 0))
    with pytest.raises(contract_alg.InvariantViolation,
                       match="above its bound") as exc:
        contract_alg.run_from_solution(inst, sol, check=True)
    details = exc.value.details
    assert details["terminals"] == [2, 4]
    assert details["tight_closure"] == [1, 2, 4]
    assert details["bound"] < details["score"]


def test_potential_drop_check_carries_values(monkeypatch):
    # a contracted state whose potential did not drop at all
    inst, sol = mixed_hypertree_point(1, 3)
    contracted = splitting.SplittingState.contracted

    def no_drop(self, B, TQ):
        new, F, z = contracted(self, B, TQ)
        new.phi = self.phi
        return new, F, z

    monkeypatch.setattr(splitting.SplittingState, "contracted", no_drop)
    with pytest.raises(contract_alg.InvariantViolation,
                       match="potential dropped by 0 < basis weight") as exc:
        contract_alg.run_from_solution(inst, sol)
    details = exc.value.details
    assert details["phi_before"] == details["phi_after"]
    assert details["basis_weight"] > 0


def test_rank_deficient_ground_set_is_an_invariant_violation(monkeypatch):
    # the greedy's ValueError on too few candidate edges is an internal
    # failure of the contraction, not a usage error
    inst, sol = mixed_hypertree_point(1, 3)
    greedy = contract_alg.greedy_max_weight_basis
    monkeypatch.setattr(contract_alg, "greedy_max_weight_basis",
                        lambda M, w, order: greedy(M, w, order[:M.full_rank - 1]))
    with pytest.raises(contract_alg.InvariantViolation, match="rank deficient") as exc:
        contract_alg.run_from_solution(inst, sol)
    assert exc.value.details == {"terminals": [1, 3], "basis_size": 0,
                                 "full_rank": 3}


# ---- cost scaling ------------------------------------------------------------

_LOG_COSTS = ("component_cost", "basis_weight", "phi")
_CERT_COSTS = ("lp_value", "phi_initial", "phi_over_N", "contracted_cost",
               "tree_cost")


def _scaled_instance(inst, lam):
    return SteinerInstance(inst.vertices,
                           {e: c * lam for e, c in inst.costs.items()},
                           inst.terminals)


def _scaled_point(sol, lam):
    return hyperlp.FractionalSolution(
        sol.terminals, {Component(c.terminals, c.edges, c.cost * lam): v
                        for c, v in sol.values.items()})


def _outcome(inst, sol, check, lp=False):
    """(tree, certificate, K) of the dp rule on sol, or on the LP optimum
    through contract_alg.run when lp is set."""
    if lp:
        tree, cert = contract_alg.run(inst, check=check)
        sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    else:
        tree, cert = contract_alg.run_from_solution(inst, sol, check=check)
    X = hyperlp.blowup_from_solution(inst, sol)
    return tree, cert, splitting.splitting_set(X, "dp").K


@settings(max_examples=18, deadline=None)
@given(st.sampled_from(["mixed", "frac", "lp"]), st.integers(0, 400),
       st.builds(Rat, st.integers(1, 2 ** 70), st.integers(1, 2 ** 70)))
@example("mixed", 1, Rat(7, 3))
@example("frac", 1, Rat(7, 3))
@example("lp", 17, Rat(7, 3))
@example("frac", 2, Rat(2 ** 61 + 15, 2 ** 55 + 9))
@example("mixed", 3, Rat(3, 2 ** 60 + 33))
def test_cost_scaling(source, seed, lam):
    """Scaling every cost by a rational lam keeps the tree edges, N, K
    and every logged choice, and scales the LP, Phi and every logged cost
    by exactly lam.  The scaled run uses check=True, and the integer
    scale asserts a zero remainder wherever it divides."""
    if source == "lp":
        inst = generate_random(4 + seed % 2, 2 + seed % 2, 0.5, seed=seed)
        sol = sol_l = None
    elif source == "mixed":
        inst, sol = mixed_hypertree_point(seed, 3)
        assume(lcm_denominators(sol.values.values()) > 1)  # N > 1
        sol_l = _scaled_point(sol, lam)
    else:
        inst, sol = frac_point(seed)
        sol_l = _scaled_point(sol, lam)
    tree, cert, K = _outcome(inst, sol, False, lp=sol is None)
    tree_l, cert_l, K_l = _outcome(_scaled_instance(inst, lam), sol_l, True,
                                   lp=sol is None)
    assert source == "lp" or cert["N"] > 1
    assert tree_l.edges == tree.edges
    assert K_l == K
    assert cert_l["N"] == cert["N"]
    for key in _CERT_COSTS:
        assert cert_l[key] == lam * cert[key], key
    assert len(cert_l["iterations"]) == len(cert["iterations"])
    for it, it_l in zip(cert["iterations"], cert_l["iterations"]):
        assert it_l == {k: lam * v if k in _LOG_COSTS else v
                        for k, v in it.items()}


# ---- relabelling -------------------------------------------------------------


def _relabelling(inst, rng):
    """A random injective renaming of the vertices to ids in 1..4|V| that
    gives the smallest id to a Steiner vertex: the terminals do not take
    the smallest ids, and their order, hence their bit positions in every
    mask, is shuffled."""
    ids = sorted(rng.sample(range(1, 4 * len(inst.vertices) + 1), len(inst.vertices)))
    steiner = sorted(inst.vertices - inst.terminals)
    first = steiner[rng.randrange(len(steiner))]
    rest = sorted(inst.vertices - {first})
    rng.shuffle(rest)
    return dict(zip([first] + rest, ids))


def _relabelled(inst, sol, perm):
    def key(e):
        return edge_key(perm[e[0]], perm[e[1]])
    inst2 = SteinerInstance([perm[v] for v in inst.vertices],
                            {key(e): c for e, c in inst.costs.items()},
                            [perm[t] for t in inst.terminals])
    if sol is None:
        return inst2, None
    return inst2, hyperlp.FractionalSolution(
        inst2.terminals, {Component([perm[t] for t in c.terminals],
                                    [key(e) for e in c.edges], c.cost): v
                          for c, v in sol.values.items()})


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["lp", "frac"]), st.integers(0, 400), st.randoms())
@example("frac", 1, random.Random(0))
def test_relabelling(source, seed, rng):
    """Renaming the vertices, terminals off the smallest ids, keeps the
    LP objective on small instances (|R| <= 4), and on frac-contract
    points the N, Phi_initial and LP value of a run with check=True."""
    if source == "lp":
        inst = generate_random(3 + seed % 2, 1 + seed % 3, 0.5, seed=seed)
        inst2, _ = _relabelled(inst, None, _relabelling(inst, rng))
        assert (hyperlp.solve_lp_exact(inst2, enumerate_components(inst2)).objective
                == hyperlp.solve_lp_exact(inst, enumerate_components(inst)).objective)
        return
    inst, sol = frac_point(seed)
    inst2, sol2 = _relabelled(inst, sol, _relabelling(inst, rng))
    _, cert = contract_alg.run_from_solution(inst, sol)
    _, cert2 = contract_alg.run_from_solution(inst2, sol2, check=True)
    for key in ("N", "phi_initial", "lp_value"):
        assert cert2[key] == cert[key], key
