"""Deterministic contraction loop on a blowup graph.

Starting from a feasible blowup graph X and one splitting.SplittingState
of it (splitting set K, witness sets W, weights w, potential), each
iteration:

  1. picks the piece Q maximizing w(B^Q)/N - cost(Q), where B^Q is a
     greedy max-weight basis of the removable-set matroid of Q's
     terminals restricted to K (a nonnegative maximum always exists);
  2. removes B^Q together with F = {cleanup e | W(e) subset of B^Q} and
     contracts Q's terminals to a fresh terminal, in one graph operation
     (BlowupGraph.contract), and carries the splitting state over:
     K - B^Q and witnesses W(e) - B^Q (SplittingState.contracted);
  3. adds the source-graph edges of Q to the output tree.

The potential Phi = sum c(e) H(|W(e)|) drops by at least w(B^Q) per
iteration, which telescopes to: output cost <= Phi_initial / N.
"""

from .ratio import R0, harmonic
from .instance import SteinerTree, UnionFind
from .components import enumerate_components
from .hyperlp import solve_lp_exact, blowup_from_solution
from . import splitting as _split
from .removal_matroid import RemovalMatroid, greedy_max_weight_basis, weight_order


class InvariantViolation(AssertionError):
    pass


class AlgorithmState:
    """State of one contraction run: the splitting state of the current
    blowup graph, the output edges so far and the iteration log."""

    __slots__ = ("split", "tree_edges", "log", "check")

    def __init__(self, split, check=False):
        self.split = split
        self.tree_edges = set()
        self.log = []
        self.check = check

    def done(self):
        return len(self.split.X.R) <= 1


def select_component(state):
    """(Q copy, basis) maximizing w(B^Q)/N - cost(Q).

    Pieces are grouped by terminal set (the matroid only depends on it);
    each group is represented by its cheapest copy, ties to the smaller
    copy id.  The winning score is asserted nonnegative.  With check,
    each group's basis is ranked again on a full slack table."""
    split = state.split
    X = split.X
    groups = {}
    for copy in X.copies:
        T = X.copy_terminals(copy)
        if len(T) < 2:
            continue
        cost = X.copy_cost(copy)
        cur = groups.get(T)
        if cur is None or (cost, copy.id) < (cur[0], cur[1].id):
            groups[T] = (cost, copy)
    if not groups:
        raise InvariantViolation("no piece with two terminals but |R| > 1")
    order = weight_order(split.K, split.weights)
    best = None
    for T in sorted(groups, key=lambda T: groups[T][1].id):
        cost, copy = groups[T]
        M = RemovalMatroid(X, T, groundset=split.K)
        B = greedy_max_weight_basis(M, split.weights, order)
        if state.check and M.rank(B) != M.full_rank:
            raise InvariantViolation("greedy basis for terminals %s has rank "
                                     "%d < %d on a full slack table"
                                     % (sorted(T), M.rank(B), M.full_rank))
        score = sum((split.weights[e] for e in B), R0) / X.N - cost
        if best is None or score > best[0]:
            best = (score, copy, B)
    score, copy, B = best
    if score < 0:
        raise InvariantViolation("no component with N*cost(Q) <= w(B): "
                                 "best margin %s" % score)
    return copy, B


def contract_step(state, Q, B):
    """Apply one contraction with basis B at piece Q to state."""
    split = state.split
    X = split.X
    B = frozenset(B)
    F = frozenset(e for e, W in split.witness.items() if W <= B)
    wB = sum((split.weights[e] for e in B), R0)
    for e in Q.edge_ids:
        orig = X.edges[e].orig
        if orig is not None:
            state.tree_edges.add(orig)
    TQ = X.copy_terminals(Q)
    X2, z = X.contract(B | F, TQ)
    try:
        state.split = split.contracted(X2, B)
    except _split.SplittingError as exc:
        raise InvariantViolation(str(exc)) from None
    phi = state.split.potential
    if split.potential - phi < wB:
        raise InvariantViolation("potential dropped by %s < basis weight %s"
                                 % (split.potential - phi, wB))
    state.log.append({
        "terminals": sorted(TQ), "new_terminal": z,
        "component_cost": X.copy_cost(Q),
        "basis_size": len(B), "basis_weight": wB,
        "cleaned": len(F), "phi": phi,
    })
    if state.check:
        _full_check(state.split)


def _full_check(split):
    X = split.X
    if len(X.R) > 1 and not X.is_feasible():
        raise InvariantViolation("contracted blowup graph is infeasible")
    # no pendant non-terminals
    for copy in X.copies:
        for v, nb in X.adjacency(copy.vertices, copy.edge_ids).items():
            if len(nb) == 1 and v not in X.R:
                raise InvariantViolation("pendant non-terminal %d survived "
                                         "cleanup in copy %d" % (v, copy.id))
    if len(X.R) > 1:
        # K still splits X, and the carried state matches fresh witnesses
        # and weights and Phi recomputed here, not through SplittingState
        fresh = _split.compute_witnesses_and_weights(X, split.K).witness
        if fresh != split.witness:
            raise InvariantViolation("incremental witness update diverged")
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
    state = AlgorithmState(_split.splitting_set(X0, strategy, seed), check=check)
    phi0 = state.split.potential
    guard = len(state.split.K) + 1
    while not state.done():
        guard -= 1
        if guard < 0:
            raise InvariantViolation("contraction loop failed to terminate")
        Q, B = select_component(state)
        contract_step(state, Q, B)
    total_q = sum((entry["component_cost"] for entry in state.log), R0)
    if total_q * X0.N > phi0:
        raise InvariantViolation("contracted cost exceeds potential bound")
    tree = _prune_to_tree(instance, state.tree_edges)
    if tree.cost > total_q:
        raise InvariantViolation("pruning increased cost")
    cert = {
        "lp_value": sol.objective,
        "N": X0.N,
        "phi_initial": phi0,
        "phi_over_N": phi0 / X0.N,
        "contracted_cost": total_q,
        "tree_cost": tree.cost,
        "iterations": state.log,
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
