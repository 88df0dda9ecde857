"""Deterministic contraction loop on a blowup graph.

Starting from a feasible blowup graph X and one splitting.SplittingState
of it (splitting set K, witness sets W, weights w, potential), each
iteration:

  1. picks the piece Q maximizing w(B^Q)/N - cost(Q), where B^Q is a
     greedy max-weight basis of the removable-set matroid of Q's
     terminals restricted to K (a nonnegative maximum always exists);
  2. adds the source-graph edges of Q to the output tree;
  3. removes B^Q together with F = {cleanup e | W(e) subset of B^Q} and
     contracts Q's terminals to a fresh terminal in one call of
     SplittingState.contracted: its scan of the witness sets decides F,
     it contracts the graph (BlowupGraph.contract) and carries the
     splitting state over, K - B^Q and witnesses W(e) - B^Q, returning
     the new state with F and the fresh terminal.

The potential Phi = sum c(e) H(|W(e)|) drops by at least w(B^Q) per
iteration, which telescopes to: output cost <= Phi_initial / N.

A step walks only the copies it cuts and renames nothing: a copy it
leaves whole is the same object in the contracted graph, which carries
its terminal mask and edge slots (BlowupGraph.contract), and the
splitting state carries each copy's cost (a copy a step leaves whole
keeps its witness sets, hence its weights), so grouping reads no copy's
edges.  Each step sorts K by weight once, and `_CappedTops` counts each
core edge's rank in its copy off that order.  Check mode compares all
of it with the same data built copy by copy, before the first step and
after every step (`_check_carried`).  `run_from_solution` holds the
state, the tree edges and the log; a step takes and returns values
(`select_component`, `contract_step`).

The loop runs on the splitting state's integers (costs, weights and Phi
times its scale D).  A piece's score is the integer
w(B^Q) - N cost(Q), N D times the rational score.  A basis of the
matroid of a terminal set T has N(|T|-1) elements of K, and it takes at
most (|S_T cap P| - 1)+ of them from each copy P, where S_T is the tight
closure of T: the least S >= T with h(S) = 0 on X (the tight sets of X
are closed under intersection; `removal_matroid`).  Proof: an
independent I has r(I cap E(P)) = |I cap E(P)| <= h_{X - I cap E(P)}(S_T)
<= h_X(S_T) + (|S_T cap P| - 1)+ = (|S_T cap P| - 1)+, since cutting P
changes no other term.  So the piece's bound is the sum of the N(|T|-1)
largest weights of K taking at most that many from each copy
(`_CappedTops`, shared by the terminal sets with the same closure),
minus N cost(Q).  Pieces are visited by bound descending, then copy id
ascending, and the visit stops at the first piece whose (bound, -id) is
at most (best score, -best id), since no later piece can beat the best
on (score, -id).  So the greedy runs only where it can win, and the
winner is the one an ascending-id scan keeping the first maximum would
pick.  The iteration log and the certificate carry exact Fractions,
converted at that boundary.
"""

from functools import reduce
from operator import and_, attrgetter

import numpy as np

from .ratio import Rat, R0, harmonic
from .instance import SteinerTree, UnionFind
from .components import enumerate_components
from .hyperlp import solve_lp_exact, blowup_from_solution, pcm1_table
from . import splitting as _split
from .removal_matroid import RemovalMatroid, greedy_max_weight_basis, weight_order


class InvariantViolation(AssertionError):
    """A violated invariant of the contraction phase; `details` carries
    its witness data (the CLI prints them as one JSON line)."""

    def __init__(self, msg, details=None):
        super().__init__(msg)
        self.details = details or {}


def _score_bound(top, N, T, S, cost):
    """Upper bound on the integer score of a piece with terminals T,
    tight closure S and integer cost: `top` (a `_CappedTops`) sums the
    N(|T|-1) largest weights of K under the caps of S (module
    docstring)."""
    return top[S, N * (len(T) - 1)] - N * cost


class _CappedTops(dict):
    """(S, k) -> the sum of the k largest weights of K taken with at most
    (|S cap P| - 1)+ edges from each copy P, filled on first use; with
    fewer edges allowed than k, the sum of them all.  Built per step from
    K in `weight_order` and the copy of each edge (`edge_slots`): an edge
    is allowed iff its rank among its copy's edges in the order, counted
    in one pass, is below its copy's cap (read off `copy_masks`)."""

    __slots__ = ("w", "rank", "masks", "pcm1")

    def __init__(self, X, order, w):
        super().__init__()
        n = len(order)
        self.w = list(map(w.__getitem__, order))
        slots, seen, rank = X.edge_slots(), {}, []
        copies = [slots[e][0] for e in order]
        for ci in copies:
            seen[ci] = seen.get(ci, -1) + 1
            rank.append(seen[ci])
        self.rank = np.array(rank, dtype=np.int64)
        self.masks = np.fromiter(map(X.copy_masks().__getitem__, copies), np.int64, n)
        self.pcm1 = pcm1_table(len(X.terminal_order))

    def __missing__(self, key):
        S, k = key
        allowed = np.flatnonzero(self.rank < self.pcm1[S & self.masks])[:k]
        total = self[key] = sum(map(self.w.__getitem__, allowed.tolist()))
        return total


def _tight_masks(X):
    """The masks S with h(S) = 0 in the slack table of X, ascending."""
    return (np.flatnonzero(X.slack_table()[1:] == 0) + 1).tolist()


def _tight_closure(X, tight, m):
    """The AND of the masks in `tight` (`_tight_masks`) that contain m,
    within R: on a feasible X, where R is tight, the least tight
    superset of m, since the tight sets are closed under intersection
    (`removal_matroid`)."""
    return reduce(and_, (S for S in tight if S & m == m), (1 << len(X.R)) - 1)


def terminal_groups(X, copy_cost):
    """Terminal mask -> (integer cost, copy) of the cheapest copy of X
    with that mask, ties to the smaller copy id, over the copies with two
    terminals or more; `copy_cost` maps copy id -> integer cost."""
    groups = {}
    masks = X.copy_masks()
    for copy in X.copies:
        m = masks[copy.id]
        if m & (m - 1):
            c = copy_cost[copy.id]
            cur = groups.get(m)
            if cur is None or (c, copy.id) < (cur[0], cur[1].id):
                groups[m] = (c, copy)
    return groups


def select_component(split, check):
    """(Q copy, basis) maximizing w(B^Q)/N - cost(Q), ties to the smaller
    copy id.

    Pieces are grouped by terminal set (the matroid only depends on it;
    `terminal_groups`, on the masks the graph carries and the state's
    carried copy costs); each group is represented by its cheapest copy,
    ties to the smaller copy id.  Groups are visited in bound order and
    the greedy stops being run once no group left can win (module
    docstring); the bounds read the tight sets of X once.  The winning
    score is asserted nonnegative.  With check, the greedy also runs on
    the groups the bound skipped and each score is asserted at most its
    bound, and each group's basis is ranked again on a full slack
    table."""
    X = split.X
    N, w = X.N, split.w
    groups = terminal_groups(X, split.copy_cost)
    if not groups:
        raise InvariantViolation("no piece with two terminals but |R| > 1")
    order = weight_order(split.K, w)
    top = _CappedTops(X, order, w)
    tight = _tight_masks(X)
    visits = []
    for m, (c, copy) in groups.items():
        T, S = X.mask_terms(m), _tight_closure(X, tight, m)
        visits.append((-_score_bound(top, N, T, S, c), copy.id, T, S, c, copy))
    visits.sort(key=lambda v: v[:2])
    best = None  # (score, -copy id, copy, basis)
    for neg_bound, cid, T, S, c, copy in visits:
        bound = -neg_bound
        beaten = best is not None and (bound, -cid) <= best[:2]
        if beaten and not check:
            break
        M = RemovalMatroid(X, T, groundset=split.K)
        B = greedy_max_weight_basis(M, w, order)
        if len(B) != M.full_rank:
            raise InvariantViolation(
                "ground set is rank deficient: %d < %d" % (len(B), M.full_rank),
                {"terminals": sorted(T), "basis_size": len(B),
                 "full_rank": M.full_rank})
        if check and M.rank(B) != M.full_rank:
            rank = M.rank(B)
            raise InvariantViolation(
                "greedy basis for terminals %s has rank %d < %d on a full "
                "slack table" % (sorted(T), rank, M.full_rank),
                {"terminals": sorted(T), "rank": rank, "full_rank": M.full_rank})
        score = sum(w[e] for e in B) - N * c
        if check and score > bound:
            raise InvariantViolation(
                "score %s of terminals %s above its bound %s"
                % (score, sorted(T), bound),
                {"terminals": sorted(T), "tight_closure": sorted(X.mask_terms(S)),
                 "score": Rat(score, N * split.scale.D),
                 "bound": Rat(bound, N * split.scale.D)})
        if not beaten and (best is None or (score, -cid) > best[:2]):
            best = (score, -cid, copy, B)
    score, _, copy, B = best
    if score < 0:
        margin = Rat(score, N * split.scale.D)
        raise InvariantViolation("no component with N*cost(Q) <= w(B): "
                                 "best margin %s" % margin,
                                 {"terminals": sorted(X.copy_terminals(copy)),
                                  "margin": margin})
    return copy, B


def contract_step(split, Q, B, check):
    """One contraction with basis B at piece Q: (the splitting state of
    (X - B - F)/Q, the step's log entry)."""
    D = split.scale.D
    TQ = split.X.copy_terminals(Q)
    try:
        new, F, z = split.contracted(B, TQ)
    except ValueError as exc:  # SplittingError included
        raise InvariantViolation(str(exc)) from None
    wB = sum(split.w[e] for e in B)
    if split.phi - new.phi < wB:
        raise InvariantViolation(
            "potential dropped by %s < basis weight %s"
            % (Rat(split.phi - new.phi, D), Rat(wB, D)),
            {"terminals": sorted(TQ), "phi_before": Rat(split.phi, D),
             "phi_after": Rat(new.phi, D), "basis_weight": Rat(wB, D)})
    if check:
        _full_check(new)
    return new, {
        "terminals": sorted(TQ), "new_terminal": z,
        "component_cost": Rat(split.copy_cost[Q.id], D),
        "basis_size": len(B), "basis_weight": Rat(wB, D),
        "cleaned": len(F), "phi": Rat(new.phi, D),
    }


def _full_check(split):
    X = split.X
    _check_carried(split)
    if len(X.R) > 1 and not X.is_feasible():
        raise InvariantViolation("blowup graph is infeasible")
    # no pendant non-terminals
    for copy in X.copies:
        for v, nb in X.adjacency(copy.vertices, copy.edge_ids).items():
            if len(nb) == 1 and v not in X.terminal_of:
                raise InvariantViolation("pendant non-terminal %d survived "
                                         "cleanup in copy %d" % (v, copy.id))
    if len(X.R) > 1:
        # K still splits X, and the state matches witnesses walked per
        # copy and weights and Phi recomputed here, not through
        # SplittingState
        fresh = _split.witness_sets(X, split.K, attrgetter("id"))
        if fresh != split.witness:
            raise InvariantViolation("witness sets diverged from a per-copy walk")
        weights = {e: X.edges[e].cost for e in split.K}
        phi = sum(weights.values(), R0)
        for f, W in fresh.items():
            c = X.edges[f].cost
            phi += c * harmonic(len(W))
            for e in W:
                weights[e] += c / len(W)
        if weights != split.weights:
            raise InvariantViolation("incremental weight update diverged")
        if phi != split.potential:
            raise InvariantViolation("carried potential diverged")


def _check_carried(split):
    """The data built once per shape or carried through contraction
    against the same data built copy by copy: each edge's slot (walk roots
    agree), each copy's mask, the slack table of X, the ranks the score
    bound counts off the weight order of K against a sort per copy, and
    the terminal groups with the state's copy costs."""
    X, K, w, cost = split.X, split.K, split.w, split.scale.cost
    slots = X.edge_slots()
    fresh = X.walk_slots(X.copies, attrgetter("id"))
    for eid in sorted(X.edges):
        if slots.get(eid) != fresh[eid]:
            raise InvariantViolation(
                "carried slot of edge %d diverged from a fresh walk" % eid,
                {"edge": eid, "carried": slots.get(eid), "fresh": fresh[eid]})
    if X.copy_masks() != {c.id: X.term_mask(c.vertices) for c in X.copies}:
        raise InvariantViolation("carried copy masks diverged")
    if X.slack_table().tolist() != X.fresh().slack_table().tolist():
        raise InvariantViolation("carried slack table of X diverged")
    order = weight_order(K, w)
    ranks = {e: i for c in X.copies
             for i, e in enumerate(weight_order(K.intersection(c.edge_ids), w))}
    if dict(zip(order, _CappedTops(X, order, w).rank.tolist())) != ranks:
        raise InvariantViolation("counted ranks diverged from a sort per copy")
    costs = {c.id: sum(cost[e] for e in c.edge_ids) for c in X.copies}
    if terminal_groups(X, split.copy_cost) != terminal_groups(X, costs):
        raise InvariantViolation("carried terminal groups diverged")


def run(instance, k=None, strategy="dp", seed=0, check=False):
    """Full pipeline: LP -> blowup -> splitting set -> contraction loop.

    strategy: "dp" (minimum-potential splitting set), "random", or
    "quasi" (the DP on star copies, with its 73/60 bound asserted;
    requires a quasi-bipartite instance).
    Returns (SteinerTree, certificate dict)."""
    comps = enumerate_components(instance, k)
    sol = solve_lp_exact(instance, comps)
    return run_from_solution(instance, sol, strategy=strategy, seed=seed,
                             check=check, n_components=len(comps))


def run_from_solution(instance, sol, strategy="dp", seed=0, check=False,
                      n_components=None):
    """Contraction loop for any feasible fractional solution (the LP
    optimum or a hand-built feasible point)."""
    X0 = blowup_from_solution(instance, sol)
    split = _split.splitting_set(X0, strategy, seed)
    if check:
        _full_check(split)
    phi0 = split.potential
    tree_edges, log = set(), []
    guard = len(split.K) + 1
    while len(split.X.R) > 1:
        guard -= 1
        if guard < 0:
            raise InvariantViolation("contraction loop failed to terminate")
        Q, B = select_component(split, check)
        tree_edges.update(split.X.edges[e].orig for e in Q.edge_ids)
        split, entry = contract_step(split, Q, B, check)
        log.append(entry)
    total_q = sum((entry["component_cost"] for entry in log), R0)
    if total_q * X0.N > phi0:
        raise InvariantViolation("contracted cost exceeds potential bound")
    tree = _prune_to_tree(instance, tree_edges)
    if tree.cost > total_q:
        raise InvariantViolation("pruning increased cost")
    cert = {
        "lp_value": sol.objective,
        "N": X0.N,
        "phi_initial": phi0,
        "phi_over_N": phi0 / X0.N,
        "contracted_cost": total_q,
        "tree_cost": tree.cost,
        "iterations": log,
        "strategy": strategy,
        "components": n_components,
    }
    return tree, cert


def _prune_to_tree(instance, edges):
    """Spanning tree of the accumulated edge set, non-terminal leaves
    removed round by round (cheapest-first Kruskal, ties by edge key)."""
    uf = UnionFind(sorted({v for e in edges for v in e}))
    tree = set()
    for e in sorted(edges, key=lambda e: (instance.costs[e], e)):
        if uf.union(e[0], e[1]):
            tree.add(e)
    while True:
        deg = {}
        for e in tree:
            for v in e:
                deg[v] = deg.get(v, 0) + 1
        leaves = {e for e in tree
                  if any(deg[v] == 1 and v not in instance.terminals for v in e)}
        if not leaves:
            return SteinerTree(instance, tree)
        tree -= leaves
