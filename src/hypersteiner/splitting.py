"""Splitting sets, witness sets, edge weights and the potential function.

A splitting set K of a blowup graph X is an edge set whose complement,
restricted to any copy, is a forest in which every tree holds exactly one
terminal and every non-terminal vertex lies in such a tree (equivalently:
the complement is a spanning tree of the copy with all terminals
contracted together).  Edges of K are "core" edges, the complement are
"cleanup" edges.

Witness sets: W(e) = {e} for core e.  For a cleanup edge e, the far side
of e is the side of its cleanup tree away from that tree's terminal;
W(e) is the set of core edges of the same copy incident to a far-side
vertex.  Weights on core edges:

    w(e) = c(e) + sum of c(f)/|W(f)| over cleanup f with e in W(f)

which conserves total cost.  The potential is
Phi = sum over all edges of c(e) * H(|W(e)|) with H the harmonic numbers.

Splitting strategies: the one exact dynamic program minimizing Phi (per
copy, over rooted partial trees, on the copies as they are), also behind
the quasi-bipartite 73/60 rule on star copies, and uniformly random
per-node choices.  Only the random rule, whose expectation bound holds
on degree-3 trees, runs on binarize(X) and is carried back by map_back.

A SplittingState holds K, its witnesses, weights and potential; the
contraction loop carries one, shrinking it after each step
(SplittingState.contracted).

Every walk over a copy is one `instance.orient` over the copy's
`BlowupGraph.adjacency`: the cleanup trees from their terminals (witness
sets), the copy from its smallest terminal (the DP) or from both ends of
its root edge (the random rule), and a cleanup piece from a non-terminal
(the pruning in map_back).  Copies are trees, so a vertex's parent does
not depend on the search order, and children keep edge-id order.
"""

import random as _random

from .ratio import R0, harmonic
from .instance import orient
from .hyperlp import BlowupGraph, BlowupEdge, BlowupCopy


class SplittingError(ValueError):
    pass


class SplittingState:
    """K with its witness sets, core weights and potential, all relative
    to one blowup graph; computed once, carried through contraction."""

    __slots__ = ("X", "K", "witness", "weights", "potential")

    def __init__(self, X, K, witness):
        self.X = X
        self.K = frozenset(K)
        self.witness = dict(witness)   # cleanup edge id -> frozenset of core ids
        self.weights = core_weights(X, self.K, self.witness)  # core id -> rational
        # Phi = sum over the edges of X of c(e) H(|W(e)|), |W(e)| = 1 on K
        self.potential = (sum((X.edges[e].cost for e in self.K), R0)
                          + sum((X.edges[f].cost * harmonic(len(W))
                                 for f, W in self.witness.items()), R0))

    def contracted(self, X2, B):
        """State on X2 = (X - B - F)/Q, F the cleanup edges whose witnesses
        lie in B: K - B, and W(e) - B on the cleanup edges left in X2."""
        witness = {}
        for f, W in self.witness.items():
            if f in X2.edges:
                witness[f] = W - B
                if not witness[f]:
                    raise SplittingError("cleanup edge %d lost all witnesses" % f)
        return SplittingState(X2, self.K - B, witness)


# ---- witnesses and weights ----------------------------------------------


def compute_witnesses_and_weights(X, K):
    """Validate K as a splitting set and build witness sets and weights."""
    K = frozenset(K)
    if not K <= set(X.edges):
        raise SplittingError("K contains unknown edges")
    witness = {}
    for copy in X.copies:
        _copy_witnesses(X, copy, K, witness)
    state = SplittingState(X, K, witness)
    assert sum(state.weights.values(), R0) == X.total_cost(), \
        "weight conservation failed"
    return state


def core_weights(X, K, witness):
    """w(e) = c(e) + sum of c(f)/|W(f)| over cleanup f with e in W(f),
    for the core edges e in K; every W(f) must be nonempty."""
    weights = {e: X.edges[e].cost for e in K}
    for f, W in witness.items():
        share = X.edges[f].cost / len(W)
        for e in W:
            weights[e] += share
    return weights


def _copy_witnesses(X, copy, K, witness):
    # the copy is a tree, so its cleanup edges form a forest; it has one
    # terminal per tree iff the walk from the terminals reaches every
    # vertex and there are |V| - |terminals| cleanup edges
    cleanup = [e for e in copy.edge_ids if e not in K]
    terms = sorted(X.copy_terminals(copy))
    order, parent = orient(X.adjacency(copy.vertices, cleanup), terms)
    if len(order) < len(copy.vertices):
        raise SplittingError("cleanup piece without terminal in copy %d" % copy.id)
    if len(cleanup) != len(copy.vertices) - len(terms):
        raise SplittingError("cleanup piece with several terminals in copy %d"
                             % copy.id)
    # core edges at each vertex, merged bottom-up along the cleanup trees
    # oriented away from their terminals: the far side of a cleanup edge
    # is the subtree below its lower endpoint
    sub = {v: set() for v in copy.vertices}
    for eid in copy.edge_ids:
        if eid in K:
            e = X.edges[eid]
            sub[e.u].add(eid)
            sub[e.v].add(eid)
    for v in reversed(order):
        if parent[v] is None:
            continue
        p, eid = parent[v]
        if not sub[v]:
            raise SplittingError("cleanup edge %d has empty witness set" % eid)
        witness[eid] = frozenset(sub[v])
        sub[p] |= sub[v]


# ---- strategies ----------------------------------------------------------


def splitting_set(X, strategy, seed=0):
    """SplittingState of X by strategy: "dp" (minimum potential, on X
    itself), "quasi" (the same on star copies, 73/60 bound asserted), or
    "random" (chosen on binarize(X) and carried back with map_back)."""
    if strategy == "dp":
        return optimal_splitting_set(X)
    if strategy == "quasi":
        return quasi_bipartite_splitting_set(X)
    if strategy != "random":
        raise ValueError("unknown strategy %r" % strategy)
    Xb = binarize(X)
    return map_back(X, Xb, random_splitting_set(Xb, seed))


def quasi_bipartite_splitting_set(X):
    """Minimum-potential splitting set of star copies, with
    Phi <= (73/60) * cost(X).

    A single edge is core.  On a star with k >= 2 terminal leaves, a
    splitting set leaves one edge f cleanup, joining the centre to f's
    terminal, and W(f) is the other k - 1 edges, so
    Phi = cost - c(f) + c(f) H(k-1).  The minimum takes the cheapest f
    (every f when k = 2, where H(1) = 1), so it is what the DP returns,
    and c(f) <= cost/k bounds Phi/cost by 1 + (H(k-1) - 1)/k, largest at
    k = 5: 73/60."""
    for copy in X.copies:
        _require_star(X, copy)
    state = optimal_splitting_set(X)
    assert 60 * state.potential <= 73 * X.total_cost(), \
        "quasi-bipartite bound violated"
    return state


def _require_star(X, copy):
    terms = X.copy_terminals(copy)
    nonterm = [v for v in copy.vertices if v not in terms]
    if len(copy.edge_ids) == 1 and not nonterm:
        return  # single terminal-terminal edge
    if len(nonterm) != 1:
        raise SplittingError("copy %d is not a star" % copy.id)
    c = nonterm[0]
    for eid in copy.edge_ids:
        e = X.edges[eid]
        if c not in (e.u, e.v):
            raise SplittingError("copy %d is not a star" % copy.id)


def binarize(X):
    """Replace every non-terminal of degree > 3 with a chain of degree-3
    nodes joined by zero-cost auxiliary edges.  Edge ids are fresh; each
    non-auxiliary edge remembers the edge it came from via .orig set to
    ("bin", source id), and auxiliary edges have .orig None.  Cost is
    unchanged."""
    vid = X._next_vid
    eid = 0
    cid = 0
    copies = []
    edges = {}
    for copy in X.copies:
        adj = X.adjacency(copy.vertices, copy.edge_ids)
        # port assignment: every (vertex, incident edge) pair maps to a
        # concrete node of the expanded copy
        port = {}
        vs = set()
        aux = []  # zero-cost edges (u, v)
        for v in sorted(copy.vertices):
            inc = sorted(e for _, e in adj[v])
            if v in X.R or len(inc) <= 3:
                for e in inc:
                    port[(v, e)] = v
                vs.add(v)
                continue
            chain = [v]
            for _ in range(len(inc) - 3):
                chain.append(vid)
                vid += 1
            vs.update(chain)
            for a, b in zip(chain, chain[1:]):
                aux.append((a, b))
            port[(v, inc[0])] = chain[0]
            port[(v, inc[1])] = chain[0]
            for i, e in enumerate(inc[2:-1]):
                port[(v, e)] = chain[min(i + 1, len(chain) - 1)]
            port[(v, inc[-1])] = chain[-1]
        e_ids = []
        for src in copy.edge_ids:
            e = X.edges[src]
            edges[eid] = BlowupEdge(eid, port[(e.u, src)], port[(e.v, src)],
                                    e.cost, orig=("bin", src))
            e_ids.append(eid)
            eid += 1
        for (a, b) in aux:
            edges[eid] = BlowupEdge(eid, a, b, R0)
            e_ids.append(eid)
            eid += 1
        copies.append(BlowupCopy(cid, e_ids, vs, ("b", copy.shape)))
        cid += 1
    return BlowupGraph(X.N, X.R, copies, edges, vid, eid, cid)


def _children(adj, roots):
    """vertex -> [(child, edge id)] of the tree(s) `adj` oriented away
    from `roots`.  Children come in adjacency order, which is edge-id
    order on a copy's adjacency: every copy lists its edge ids ascending."""
    order, parent = orient(adj, roots)
    children = {v: [] for v in adj}
    for v in order[len(roots):]:
        u, eid = parent[v]
        children[u].append((v, eid))
    return children


def random_splitting_set(X, seed):
    """Random core/cleanup assignment: per copy the minimum-id edge is the
    root edge (always core); every non-terminal picks exactly one of its
    child edges (relative to the root edge) as its cleanup edge,
    uniformly at random; all other edges are core.

    On copies whose non-terminals branch (degree 3 after binarization)
    every non-root edge is core with probability 1/2."""
    rng = _random.Random(seed)
    K = set()
    for copy in X.copies:
        K.update(_random_copy(X, copy, rng))
    return compute_witnesses_and_weights(X, K)


def _random_copy(X, copy, rng):
    if len(copy.edge_ids) == 1:
        return set(copy.edge_ids)
    e = X.edges[min(copy.edge_ids)]
    children = _children(X.adjacency(copy.vertices, copy.edge_ids), [e.u, e.v])
    core = set(copy.edge_ids)
    for u in copy.vertices:
        kids = children[u]
        if u not in X.R and kids:
            core.discard(kids[rng.randrange(len(kids))][1])
    return core


# ---- exact DP ------------------------------------------------------------


class _Entry:
    __slots__ = ("val", "info")

    def __init__(self, val, info):
        self.val = val
        self.info = info  # ("base",) | ("ext", eid, kind, child) | ("merge", a, b)


def _better(cur, cand):
    return cur is None or cand.val < cur.val


def optimal_splitting_set(X):
    """Minimum-potential splitting set by per-copy dynamic programming.

    Runs on the copies as they are, of any degree; every terminal must
    be a leaf of its copy (true of full components and of their
    binarizations).  The DP processes rooted partial trees with two
    table families: type A (the root's cleanup piece already holds its
    terminal) indexed by the number of core edges that will end up
    incident to that piece from outside the partial tree, and type B (no
    terminal yet) indexed by the number of inside core edges incident to
    the root's piece.  Value ties keep the first candidate in a fixed
    deterministic scan order (extensions before merges, smaller indices
    first)."""
    K = set()
    memo = {}
    for copy in X.copies:
        key = copy.shape
        if key in memo:
            pattern = memo[key]
        else:
            pattern = _dp_copy(X, copy)
            memo[key] = pattern
        # pattern: set of positions (indices into copy.edge_ids) that are core
        K.update(copy.edge_ids[i] for i in pattern)
    return compute_witnesses_and_weights(X, K)


def _dp_copy(X, copy):
    """Core positions of a minimum-potential splitting set of one copy,
    rooted at its smallest terminal."""
    adj = X.adjacency(copy.vertices, copy.edge_ids)
    terms = sorted(X.copy_terminals(copy))
    if not terms:
        raise SplittingError("copy %d has no terminals" % copy.id)
    for t in terms:
        if len(adj[t]) != 1:
            raise SplittingError("terminal %d of copy %d is not a leaf"
                                 % (t, copy.id))
    children = _children(adj, terms[:1])
    M = len(copy.edge_ids)
    pos = {eid: i for i, eid in enumerate(copy.edge_ids)}

    def tables(v):
        """(A, B) tables for the partial tree = v plus everything below."""
        if v in X.R:
            base_e = _Entry(R0, ("base",))
            return {a: base_e for a in range(M + 1)}, {}
        A, B = {}, {0: _Entry(R0, ("base",))}
        for (u, eid) in children[v]:
            A2, B2 = _extend(X, eid, *tables(u), M)
            A, B = _merge(A, B, A2, B2, M)
        return A, B

    # the root terminal closes the piece of its one edge: every type-B
    # extension over that edge (core over a child side that sees it as
    # its one outside core edge, or cleanup over a terminal-less child
    # piece) is complete; ties go to the smaller index
    [(u, eid)] = children[terms[0]]
    _, B = _extend(X, eid, *tables(u), M)
    if not B:
        raise SplittingError("copy %d admits no splitting set" % copy.id)
    best = B[min(B, key=lambda b: (B[b].val, b))]
    cleanup = set()

    def collect(entry):
        info = entry.info
        if info[0] == "base":
            return
        if info[0] == "merge":
            collect(info[1])
            collect(info[2])
            return
        _, eid, kind, child = info
        if kind == "clean":
            cleanup.add(eid)
        collect(child)

    collect(best)
    return {pos[eid] for eid in copy.edge_ids if eid not in cleanup}


def _extend(X, eid, Au, Bu, M):
    """Tables for the tree consisting of a non-terminal v, the edge
    eid = (v, u), and u's partial tree."""
    c = X.edges[eid].cost
    A2, B2 = {}, {}
    # core edge: the child side must already own a terminal and sees
    # exactly this one outside core edge
    ch = Au.get(1)
    if ch is not None:
        B2[1] = _Entry(ch.val + c, ("ext", eid, "core", ch))
    # cleanup edge continuing the child's terminal piece up to v
    for a in range(1, M + 1):
        ch = Au.get(a)
        if ch is not None:
            A2[a] = _Entry(ch.val + c * harmonic(a), ("ext", eid, "clean", ch))
    # cleanup edge over a terminal-less child piece
    for b, ch in sorted(Bu.items()):
        if b >= 1:
            cand = _Entry(ch.val + c * harmonic(b), ("ext", eid, "clean", ch))
            if _better(B2.get(b), cand):
                B2[b] = cand
    return A2, B2


def _merge(A1, B1, A2, B2, M):
    """Combine two partial trees sharing only their non-terminal root."""
    A, B = {}, {}
    for a1, e1 in sorted(A1.items()):
        for b2, e2 in sorted(B2.items()):
            a = a1 - b2
            if 0 <= a <= M:
                cand = _Entry(e1.val + e2.val, ("merge", e1, e2))
                if _better(A.get(a), cand):
                    A[a] = cand
    for b1, e1 in sorted(B1.items()):
        for a2, e2 in sorted(A2.items()):
            a = a2 - b1
            if 0 <= a <= M:
                cand = _Entry(e1.val + e2.val, ("merge", e1, e2))
                if _better(A.get(a), cand):
                    A[a] = cand
    for b1, e1 in sorted(B1.items()):
        for b2, e2 in sorted(B2.items()):
            if b1 + b2 <= M:
                cand = _Entry(e1.val + e2.val, ("merge", e1, e2))
                if _better(B.get(b1 + b2), cand):
                    B[b1 + b2] = cand
    return A, B


# ---- back-mapping after binarization -------------------------------------


def map_back(X, Xb, state_b):
    """Carry a splitting set chosen on binarize(X) back to X.

    Auxiliary edges are dropped; every real edge keeps its status.  A
    non-terminal of X whose expansion chain mixed statuses can end up
    with cleanup paths to terminals in several directions; following the
    pruning rule, only the direction of the cheapest such path survives
    (ties: smaller first-edge id) and the first edge of every other
    direction turns core.  One pass visits each copy's non-terminals in
    ascending order: a cut at u splits only u's piece, and a vertex's
    terminal directions only shrink, so no vertex needs a second visit.
    Witnesses are then computed on X."""
    K = {e.orig[1] for eid, e in Xb.edges.items()
         if eid in state_b.K and e.orig is not None}
    for copy in X.copies:
        for u in copy.vertices:
            if u not in X.R:
                adj = X.adjacency(copy.vertices, [e for e in copy.edge_ids if e not in K])
                K.update(eid for _, eid in _terminal_directions(X, adj, u)[1:])
    return compute_witnesses_and_weights(X, K)


def _terminal_directions(X, adj, u):
    """(cheapest cost of a cleanup path from u to a terminal, first edge
    id) for every cleanup edge at u that leads to a terminal, cheapest
    first (tie: smaller first-edge id)."""
    order, parent = orient(adj, [u])
    dist = {u: R0}
    first = {}
    best = {}
    for v in order[1:]:
        p, eid = parent[v]
        dist[v] = dist[p] + X.edges[eid].cost
        first[v] = eid if p == u else first[p]
        if v in X.R and (first[v] not in best or dist[v] < best[first[v]]):
            best[first[v]] = dist[v]
    return sorted((d, eid) for eid, d in best.items())
