"""Deterministic contraction loop on a blowup graph.

Starting from a feasible blowup graph X with splitting set K, witness
sets W and weights w, each iteration:

  1. picks the piece Q maximizing w(B^Q)/N - cost(Q), where B^Q is a
     greedy max-weight basis of the removable-set matroid of Q's
     terminals restricted to K (a nonnegative maximum always exists);
  2. removes B^Q together with F = {cleanup e | W(e) subset of B^Q},
     contracts Q's terminals to a fresh terminal, and shrinks witnesses
     to W(e) - B^Q;
  3. adds the source-graph edges of Q to the output tree.

The potential Phi = sum c(e) H(|W(e)|) drops by at least w(B^Q) per
iteration, which telescopes to: output cost <= Phi_initial / N.
"""

from .ratio import R0
from .instance import SteinerTree, UnionFind
from .components import enumerate_components
from .hyperlp import solve_lp_exact, blowup_from_solution
from . import splitting as _split
from .removal_matroid import RemovalMatroid, greedy_max_weight_basis, weight_order


class InvariantViolation(AssertionError):
    pass


class AlgorithmState:
    """Whole-value state of one contraction run."""

    __slots__ = ("X", "K", "witness", "weights", "phi", "tree_edges", "log",
                 "check")

    def __init__(self, X, split_state, check=False):
        self.X = X
        self.K = set(split_state.K)
        self.witness = dict(split_state.witness)
        self.weights = dict(split_state.weights)
        self.phi = split_state.potential  # carried from step to step
        self.tree_edges = set()
        self.log = []
        self.check = check

    def done(self):
        return len(self.X.R) <= 1


def select_component(state):
    """(Q copy, basis) maximizing w(B^Q)/N - cost(Q).

    Pieces are grouped by terminal set (the matroid only depends on it);
    each group is represented by its cheapest copy, ties to the smaller
    copy id.  The winning score is asserted nonnegative.  With check,
    each group's basis is ranked again on a full slack table."""
    X = state.X
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
    order = weight_order(state.K, state.weights)
    best = None
    for T in sorted(groups, key=lambda T: groups[T][1].id):
        cost, copy = groups[T]
        M = RemovalMatroid(X, T, groundset=state.K)
        B = greedy_max_weight_basis(M, state.weights, order)
        if state.check and M.rank(B) != M.full_rank:
            raise InvariantViolation("greedy basis for terminals %s has rank "
                                     "%d < %d on a full slack table"
                                     % (sorted(T), M.rank(B), M.full_rank))
        score = sum((state.weights[e] for e in B), R0) / X.N - cost
        if best is None or score > best[0]:
            best = (score, copy, B)
    score, copy, B = best
    if score < 0:
        raise InvariantViolation("no component with N*cost(Q) <= w(B): "
                                 "best margin %s" % score)
    return copy, B


def contract_step(state, Q, B):
    """Apply one contraction with basis B at piece Q; returns a new state."""
    X = state.X
    B = frozenset(B)
    F = frozenset(e for e in X.edges
                  if e not in state.K and state.witness[e] <= B)
    wB = sum((state.weights[e] for e in B), R0)
    for e in Q.edge_ids:
        orig = X.edges[e].orig
        if orig is not None:
            state.tree_edges.add(orig)
    TQ = X.copy_terminals(Q)
    X1 = X.remove_edges(B | F)
    X2, z = X1.contract_terminals(TQ)

    new_state = AlgorithmState.__new__(AlgorithmState)
    new_state.X = X2
    new_state.K = state.K - B
    new_state.witness = {e: (w - B) for e, w in state.witness.items()
                         if e in X2.edges}
    new_state.weights = _reweigh(X2, new_state.K, new_state.witness)
    new_state.phi = _split.potential(X2, new_state.K, new_state.witness)
    new_state.tree_edges = state.tree_edges
    new_state.log = state.log
    new_state.check = state.check

    if state.phi - new_state.phi < wB:
        raise InvariantViolation("potential dropped by %s < basis weight %s"
                                 % (state.phi - new_state.phi, wB))
    new_state.log.append({
        "terminals": sorted(TQ), "new_terminal": z,
        "component_cost": X.copy_cost(Q),
        "basis_size": len(B), "basis_weight": wB,
        "cleaned": len(F), "phi": new_state.phi,
    })
    if state.check:
        _full_check(new_state)
    return new_state


def _reweigh(X, K, witness):
    for f, W in witness.items():
        if not W:
            raise InvariantViolation("cleanup edge %d lost all witnesses" % f)
    return _split.core_weights(X, K, witness)


def _full_check(state):
    X = state.X
    if len(X.R) > 1 and not X.is_feasible():
        raise InvariantViolation("contracted blowup graph is infeasible")
    # no pendant non-terminals
    for copy in X.copies:
        for v, nb in X.adjacency(copy.vertices, copy.edge_ids).items():
            if len(nb) == 1 and v not in X.R:
                raise InvariantViolation("pendant non-terminal %d survived "
                                         "cleanup in copy %d" % (v, copy.id))
    if len(X.R) > 1:
        # K still splits X, and the shrunk witnesses and the carried
        # potential match a recomputation
        fresh = _split.compute_witnesses_and_weights(X, state.K)
        if fresh.witness != state.witness:
            raise InvariantViolation("incremental witness update diverged")
        if fresh.weights != state.weights:
            raise InvariantViolation("incremental weight update diverged")
        if fresh.potential != state.phi:
            raise InvariantViolation("carried potential diverged")


def run(instance, k=None, strategy="dp", seed=0, check=False):
    """Full pipeline: LP -> blowup -> splitting set -> contraction loop.

    strategy: "dp" (minimum-potential splitting set), "random", or
    "quasi" (cheapest-edge rule; requires a quasi-bipartite instance).
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
    st = _split.splitting_set(X0, strategy, seed)
    state = AlgorithmState(X0, st, check=check)
    phi0 = state.phi
    guard = len(state.K) + 1
    while not state.done():
        guard -= 1
        if guard < 0:
            raise InvariantViolation("contraction loop failed to terminate")
        Q, B = select_component(state)
        state = contract_step(state, Q, B)
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
    removed (cheapest-first Kruskal, ties by edge key)."""
    uf = UnionFind(sorted({v for e in edges for v in e}))
    tree = set()
    for e in sorted(edges, key=lambda e: (instance.costs[e], e)):
        if uf.union(e[0], e[1]):
            tree.add(e)
    changed = True
    while changed:
        changed = False
        deg = {}
        for (u, v) in tree:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        for e in sorted(tree):
            u, v = e
            if ((deg.get(u, 0) == 1 and u not in instance.terminals)
                    or (deg.get(v, 0) == 1 and v not in instance.terminals)):
                tree.discard(e)
                changed = True
                break
    return SteinerTree(instance, tree)
