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
contraction loop carries one, and each step is one call of
SplittingState.contracted: it decides the cleanup edges the step's basis
orphans, contracts the graph, and updates only the witness sets, weight
shares and potential terms the basis reaches.  It computes on
integers: with one Scale D = L * lcm(1..m), L the lcm of the edge-cost
denominators and m the largest edge count of any copy, every c(e),
every share c(f)/|W(f)|, every w(e) and Phi is an integer multiple of
1/D, and the state holds those integers.  The DP runs on the same
Scale, so its optimum is the state's Phi times D, and
optimal_splitting_set asserts that it is.
Copies and witness sets only shrink under contraction, so the
contracted states keep the same D.  Exact Fractions come back only at
the boundary: the `weights` and `potential` properties (the iteration
log, the certificate, the CLI).  Every division on the way asserts a
zero remainder.

Copies of one shape align by position (`BlowupCopy`), and the DP gives
them one cleanup pattern, so witness sets are walked once per shape and
pattern and read off by position for the other copies (`witness_sets`).
Every walk over a copy is one `instance.orient` over the copy's
`BlowupGraph.adjacency`: the cleanup trees from their terminals (witness
sets), the copy from its smallest terminal (the DP) or from both ends of
its root edge (the random rule), and a cleanup piece from a non-terminal
(the pruning in map_back).  Copies are trees, so a vertex's parent does
not depend on the search order, and children keep edge-id order.
"""

import math
import random as _random
from operator import attrgetter

from .ratio import Rat, R0, harmonic, lcm_denominators, exact_div, scaled
from .instance import orient
from .hyperlp import BlowupGraph, BlowupEdge, BlowupCopy


class SplittingError(ValueError):
    pass


class Scale:
    """D = L * lcm(1..m) for the edges of X, L the lcm of their cost
    denominators and m the largest edge count of any copy, which bounds
    every |W(f)| and every DP table index; with each edge's cost times D
    (`cost`, by edge id) and lcm(1..m) * H(k) for k <= m (`harmonics`),
    all integers."""

    __slots__ = ("D", "lcm_m", "cost", "harmonics")

    def __init__(self, X):
        m = max((len(c.edge_ids) for c in X.copies), default=0)
        self.lcm_m = math.lcm(*range(1, m + 1))
        self.D = lcm_denominators(e.cost for e in X.edges.values()) * self.lcm_m
        self.cost = {eid: scaled(e.cost, self.D) for eid, e in X.edges.items()}
        self.harmonics = [scaled(harmonic(k), self.lcm_m) for k in range(m + 1)]


class SplittingState:
    """K with its witness sets, core weights and potential, all relative
    to one blowup graph; computed once (`compute_witnesses_and_weights`),
    carried through contraction (`contracted`).

    `w` (core id -> integer) and `phi` are the weights and Phi times
    scale.D, for the Scale of the blowup graph the first state was
    made for; `weights` and `potential` are the same as exact
    rationals.  `copy_cost` (copy id -> integer cost) is computed with
    the first state (`_state`) and carried by `contracted`."""

    __slots__ = ("X", "K", "witness", "scale", "w", "phi", "copy_cost")

    def __init__(self, X, K, witness, scale, w, phi, copy_cost):
        self.X = X
        self.K = frozenset(K)
        self.witness = witness   # cleanup edge id -> frozenset of core ids
        self.scale = scale
        self.w = w
        self.phi = phi
        self.copy_cost = copy_cost

    @property
    def weights(self):
        D = self.scale.D
        return {e: Rat(v, D) for e, v in self.w.items()}

    @property
    def potential(self):
        return Rat(self.phi, self.scale.D)

    def contracted(self, B, TQ):
        """One contraction step, basis B at the terminals TQ: (state on
        X2 = (X - B - F)/Q, F, z), F the cleanup edges whose witness sets
        lie in B, decided in the one scan of the witness sets, and z the
        fresh terminal of `BlowupGraph.contract`.  A witness set that misses
        B is kept as it is; the weights and Phi move only by the terms of
        B's edges and of the cleanup edges F drops or whose witness set
        shrank.  Of the copy costs, only the pieces' are new."""
        scale = self.scale
        cost = scale.cost
        w = {e: v for e, v in self.w.items() if e not in B}
        phi = self.phi - sum(cost[e] for e in B)
        witness, F = {}, set()
        for f, W in self.witness.items():
            if W.isdisjoint(B):
                witness[f] = W
                continue
            phi -= _cleanup_term(scale, f, len(W))
            if W <= B:
                F.add(f)  # f leaves with B, and so do its shares
                continue
            W2 = witness[f] = W - B
            phi += _cleanup_term(scale, f, len(W2))
            moved = exact_div(cost[f], len(W2)) - exact_div(cost[f], len(W))
            for e in W2:
                w[e] += moved
        X2, z, pieces = self.X.contract(B | F, TQ)
        copy_cost = {**self.copy_cost, **_costs(pieces, cost)}
        return SplittingState(X2, self.K - B, witness, scale, w, phi, copy_cost), F, z


def _costs(copies, cost):
    return {c.id: sum(map(cost.__getitem__, c.edge_ids)) for c in copies}


def _cleanup_term(scale, f, k):
    """c(f) D H(k) = (c(f) D / lcm(1..m)) (lcm(1..m) H(k)): the term of a
    cleanup edge f with k witnesses in Phi times D."""
    return exact_div(scale.cost[f], scale.lcm_m) * scale.harmonics[k]


# ---- witnesses and weights ----------------------------------------------


def compute_witnesses_and_weights(X, K):
    """Validate K as a splitting set and build witness sets and weights."""
    return _state(X, K, Scale(X))


def _state(X, K, scale):
    """compute_witnesses_and_weights on a given Scale of X."""
    K = frozenset(K)
    if not K <= set(X.edges):
        raise SplittingError("K contains unknown edges")
    witness = witness_sets(X, K, attrgetter("shape"))
    # Phi = sum over the edges of X of c(e) H(|W(e)|), |W(e)| = 1 on K
    phi = (sum(scale.cost[e] for e in K)
           + sum(_cleanup_term(scale, f, len(W)) for f, W in witness.items()))
    state = SplittingState(X, K, witness, scale, core_weights(scale.cost, K, witness),
                           phi, _costs(X.copies, scale.cost))
    assert sum(state.w.values()) == sum(state.scale.cost.values()), \
        "weight conservation failed"
    return state


def core_weights(cost, K, witness):
    """w(e) = c(e) + sum of c(f)/|W(f)| over cleanup f with e in W(f),
    for the core edges e in K, on integer costs `cost` (edge id -> c D)
    that every |W(f)| divides; every W(f) must be nonempty."""
    weights = {e: cost[e] for e in K}
    for f, W in witness.items():
        share = exact_div(cost[f], len(W))
        for e in W:
            weights[e] += share
    return weights


def witness_sets(X, K, key):
    """Cleanup edge id -> witness set, validating K: one `_copy_witnesses`
    per distinct (key(copy), core positions), read off by position for the
    other copies; keyed by shape (`BlowupCopy`), or by id in check mode."""
    witness, memo = {}, {}
    for copy in X.copies:
        ids = copy.edge_ids
        k = (key(copy), tuple(map(K.__contains__, ids)))
        if k not in memo:
            pos = {e: i for i, e in enumerate(ids)}
            memo[k] = [(pos[f], tuple(map(pos.__getitem__, W)))
                       for f, W in _copy_witnesses(X, copy, K, {}).items()]
        for f, W in memo[k]:
            witness[ids[f]] = frozenset(map(ids.__getitem__, W))
    return witness


def _copy_witnesses(X, copy, K, witness):
    # the copy is a tree, so its cleanup edges form a forest; it has one
    # terminal per tree iff the walk from the terminals reaches every
    # vertex and there are |V| - |terminals| cleanup edges
    cleanup = [e for e in copy.edge_ids if e not in K]
    terms = X.terminal_vertices(copy)
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
    return witness


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
    assert 60 * state.phi <= 73 * sum(state.scale.cost.values()), \
        "quasi-bipartite bound violated"
    return state


def _require_star(X, copy):
    nonterm = [v for v in copy.vertices if v not in X.terminal_of]
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
            if v in X.terminal_of or len(inc) <= 3:
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
    return BlowupGraph(X.N, X.R, copies, edges, vid, eid, cid, X.terminal_of)


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
        if u not in X.terminal_of and kids:
            core.discard(kids[rng.randrange(len(kids))][1])
    return core


# ---- exact DP ------------------------------------------------------------


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
    first).  Values are integers on the one Scale of X, which the state
    is built on too: each copy's optimum is its share of Phi times D, so
    the optima of all copies (a copy whose shape the memo already holds
    counts again) sum to the state's `phi`, and that is asserted."""
    scale = Scale(X)
    K = set()
    memo = {}
    phi = 0
    for copy in X.copies:
        if copy.shape not in memo:
            memo[copy.shape] = _dp_copy(X, copy, scale)
        value, cleanup = memo[copy.shape]
        phi += value
        K.update(e for i, e in enumerate(copy.edge_ids) if not cleanup >> i & 1)
    state = _state(X, K, scale)
    assert state.phi == phi, \
        "DP optimum %d differs from the state's Phi %d" % (phi, state.phi)
    return state


def _dp_copy(X, copy, scale):
    """(Phi of the copy times scale.D, cleanup bitmask over positions in
    copy.edge_ids) of a minimum-potential splitting set of one copy,
    rooted at its smallest terminal."""
    adj = X.adjacency(copy.vertices, copy.edge_ids)
    terms = X.terminal_vertices(copy)
    if not terms:
        raise SplittingError("copy %d has no terminals" % copy.id)
    for t in terms:
        if len(adj[t]) != 1:
            raise SplittingError("terminal %d of copy %d is not a leaf"
                                 % (t, copy.id))
    children = _children(adj, terms[:1])
    M = len(copy.edge_ids)
    bit = {eid: 1 << i for i, eid in enumerate(copy.edge_ids)}

    def extended(u, eid):
        """(A, B) tables for the edge eid from u's parent to u, with u's
        partial tree = u plus everything below."""
        if u in X.terminal_of:
            A, B = dict.fromkeys(range(M + 1), (0, 0)), {}
        else:
            A, B = {}, {0: (0, 0)}
            for i, (w, f) in enumerate(children[u]):  # merging into A, B copies
                A, B = _merge(A, B, *extended(w, f), M) if i else extended(w, f)
        # c(e) D H(a) = (c(e) D / lcm(1..m)) (lcm(1..m) H(a))
        c = exact_div(scale.cost[eid], scale.lcm_m)
        return _extend(c, scale.harmonics, bit[eid], A, B, M)

    # the root terminal closes the piece of its one edge: every type-B
    # extension over that edge (core over a child side that sees it as
    # its one outside core edge, or cleanup over a terminal-less child
    # piece) is complete; ties go to the smaller index
    [(u, eid)] = children[terms[0]]
    _, B = extended(u, eid)
    if not B:
        raise SplittingError("copy %d admits no splitting set" % copy.id)
    return B[min(B, key=lambda b: (B[b][0], b))]


def _keep(T, k, value, cleanup):
    """Enter (value, cleanup) at T[k] unless T[k] is no more expensive."""
    cur = T.get(k)
    if cur is None or value < cur[0]:
        T[k] = (value, cleanup)


def _extend(c, hs, bit, Au, Bu, M):
    """Tables for the tree consisting of a non-terminal v, the edge
    (v, u) with cleanup bit `bit` and scaled cost c, and u's partial
    tree; c * hs[a] is the edge's cost times H(a) on the tables' scale."""
    A2, B2 = {}, {}
    # core edge: the child side must already own a terminal and sees
    # exactly this one outside core edge
    if 1 in Au:
        value, cleanup = Au[1]
        B2[1] = (value + c * hs[1], cleanup)
    # cleanup edge continuing the child's terminal piece up to v
    for a, (value, cleanup) in Au.items():
        if a >= 1:
            A2[a] = (value + c * hs[a], cleanup | bit)
    # cleanup edge over a terminal-less child piece
    for b, (value, cleanup) in sorted(Bu.items()):
        if b >= 1:
            _keep(B2, b, value + c * hs[b], cleanup | bit)
    return A2, B2


def _merge(A1, B1, A2, B2, M):
    """Combine two partial trees sharing only their non-terminal root."""
    A1, B1, A2, B2 = (sorted(T.items()) for T in (A1, B1, A2, B2))
    A, B = {}, {}
    for a1, (v1, f1) in A1:
        for b2, (v2, f2) in B2:
            if 0 <= a1 - b2 <= M:
                _keep(A, a1 - b2, v1 + v2, f1 | f2)
    for b1, (v1, f1) in B1:
        for a2, (v2, f2) in A2:
            if 0 <= a2 - b1 <= M:
                _keep(A, a2 - b1, v1 + v2, f1 | f2)
    for b1, (v1, f1) in B1:
        for b2, (v2, f2) in B2:
            if b1 + b2 <= M:
                _keep(B, b1 + b2, v1 + v2, f1 | f2)
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
            if u not in X.terminal_of:
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
        if v in X.terminal_of and (first[v] not in best or dist[v] < best[first[v]]):
            best[first[v]] = dist[v]
    return sorted((d, eid) for eid, d in best.items())
