"""Independent reference implementations.

Everything here exists to check the fast paths elsewhere in the package
and is deliberately written in the most direct way available: exhaustive
subset scans, a from-scratch terminal-subset dynamic program, Kirchhoff
determinants, and the paper's max-flow oracles for the slack function
(the separation network and the gammoid), whose answers the pipeline
reads off slack tables instead.  Only tests and the `verify` suites of
the CLI call into this module; the production pipeline does not.
"""

import itertools
from collections import deque
from fractions import Fraction

import numpy as np

from .ratio import Rat, R0
from .instance import edge_key, orient, SteinerTree, UnionFind
from .hyperlp import pcm1_table
from .removal_matroid import RemovalMatroid
from .sepflow import FlowNet, INF
from .splitting import compute_witnesses_and_weights


def exact_steiner_tree(inst, max_terminals=12):
    """Optimal Steiner tree via a terminal-subset dynamic program.

    Unlike the per-component enumeration, terminals may appear as internal
    vertices here.  Returns (cost, SteinerTree).
    """
    R = sorted(inst.terminals)
    if len(R) > max_terminals:
        raise ValueError("instance too large for the exact reference (|R|=%d)" % len(R))
    nodes = sorted(inst.vertices)
    adj = {v: sorted(inst.neighbors(v)) for v in nodes}
    k = len(R)
    full = (1 << k) - 1
    dp = [dict() for _ in range(full + 1)]
    back = [dict() for _ in range(full + 1)]
    for i, t in enumerate(R):
        dp[1 << i][t] = R0
        back[1 << i][t] = ("base",)
    for mask in range(1, full + 1):
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub < rest:
                for v in nodes:
                    a, b = dp[sub].get(v), dp[rest].get(v)
                    if a is not None and b is not None:
                        c = a + b
                        if v not in dp[mask] or c < dp[mask][v]:
                            dp[mask][v] = c
                            back[mask][v] = ("merge", sub, rest)
            sub = (sub - 1) & mask
        # Bellman-Ford style relaxation (graphs are tiny, simplicity wins)
        changed = True
        while changed:
            changed = False
            for v in nodes:
                for w, c in adj[v]:
                    a = dp[mask].get(v)
                    if a is None:
                        continue
                    nd = a + c
                    if w not in dp[mask] or nd < dp[mask][w]:
                        dp[mask][w] = nd
                        back[mask][w] = ("edge", v)
                        changed = True
    best_v = min((v for v in nodes if v in dp[full]), key=lambda v: (dp[full][v], v))
    edges = set()

    def rec(mask, v):
        tag = back[mask][v]
        if tag[0] == "base":
            return
        if tag[0] == "merge":
            rec(tag[1], v)
            rec(tag[2], v)
        else:
            edges.add(edge_key(tag[1], v))
            rec(mask, tag[1])

    rec(full, best_v)
    tree = SteinerTree(inst, edges)
    assert tree.cost == dp[full][best_v]
    return tree.cost, tree


def exhaustive_steiner_cost(inst, max_edges=18):
    """Minimum terminal-spanning tree cost by scanning all edge subsets."""
    E = sorted(inst.costs)
    if len(E) > max_edges:
        raise ValueError("too many edges for exhaustive scan")
    best = None
    for r in range(len(inst.terminals) - 1, len(E) + 1):
        for sub in itertools.combinations(E, r):
            try:
                t = SteinerTree(inst, sub)
            except ValueError:
                continue
            if best is None or t.cost < best:
                best = t.cost
    return best


def check_feasible(solution):
    """Feasibility of a FractionalSolution for the component LP, by brute
    force over all terminal subsets."""
    R = sorted(solution.terminals)
    for size in range(2, len(R) + 1):
        for S in itertools.combinations(R, size):
            Sf = frozenset(S)
            load = sum((v * max(len(c.terminals & Sf) - 1, 0)
                        for c, v in solution.values.items()), R0)
            if load > len(S) - 1:
                return False
    total = sum((v * (len(c.terminals) - 1) for c, v in solution.values.items()), R0)
    return total == len(R) - 1


def spanning_tree_count(vertices, edges):
    """Number of spanning trees of a multigraph via the matrix-tree theorem.

    `edges` is an iterable of (u, v) pairs; parallel edges allowed.
    Exact integer arithmetic via Fraction Gaussian elimination.
    """
    vs = sorted(set(vertices))
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    if n <= 1:
        return 1
    L = [[Fraction(0)] * n for _ in range(n)]
    for (u, v) in edges:
        i, j = idx[u], idx[v]
        if i == j:
            continue
        L[i][i] += 1
        L[j][j] += 1
        L[i][j] -= 1
        L[j][i] -= 1
    # delete last row/column, take determinant
    m = n - 1
    A = [row[:m] for row in L[:m]]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if A[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = A[col][col]
        for r in range(col + 1, m):
            f = A[r][col] / inv
            if f:
                for c2 in range(col, m):
                    A[r][c2] -= f * A[col][c2]
    assert det.denominator == 1 and det >= 0
    return int(det)


def enumerate_minimal_removals(X, Q):
    """All inclusion-minimal edge sets B with (X * Q) - B feasible, by
    scanning subsets in increasing size.  X is a BlowupGraph, Q a terminal
    subset of X.R.  Exponential; test scale only."""
    E = sorted(X.edges)
    found = []
    found_sets = []
    for r in range(len(E) + 1):
        for sub in itertools.combinations(E, r):
            s = set(sub)
            if any(f <= s for f in found_sets):
                continue
            if add_component_slack_ok(X, Q, s):
                found.append(tuple(sub))
                found_sets.append(s)
    return found


def enumerate_splitting_sets(X):
    """All splitting sets of a blowup graph, by per-copy enumeration.

    A splitting set K is a set of edges whose complement, within each
    copy, is a forest in which every piece contains exactly one terminal
    and every non-terminal lies in some piece (equivalently: contracting
    all terminals to one vertex, the complement is a spanning tree of each
    contracted copy).  Splitting sets factor across copies, so we
    enumerate valid per-copy complements and take products.
    """
    per_copy = []
    for copy in X.copies:
        eids = sorted(copy.edge_ids)
        valid = []
        for r in range(len(eids) + 1):
            for keep in itertools.combinations(eids, r):
                if _valid_cleanup_forest(X, copy, set(keep)):
                    valid.append(frozenset(set(eids) - set(keep)))
        per_copy.append(valid)
    out = []
    for combo in itertools.product(*per_copy):
        out.append(frozenset().union(*combo) if combo else frozenset())
    return out


def _valid_cleanup_forest(X, copy, keep):
    """keep = candidate complement (cleanup) edge set of one copy: must be a
    forest covering all non-terminals, each piece holding exactly one
    terminal."""
    uf = UnionFind(copy.vertices)
    for eid in keep:
        e = X.edges[eid]
        if not uf.union(e.u, e.v):
            return False  # cycle
    groups = {}
    for v in copy.vertices:
        groups.setdefault(uf.find(v), []).append(v)
    return all(sum(1 for v in g if v in X.terminal_of) == 1 for g in groups.values())


def add_component_slack_ok(X, terminals, B):
    """Is (X * Q) - B feasible?  B is removed from X's edges only; the fresh
    Q-copies stay whole."""
    q = X.term_mask(terminals)
    h = X.slack_table(B)
    pcm1 = pcm1_table(len(X.terminal_order))
    idx = np.arange(len(h), dtype=np.int64)
    ext = h - X.N * pcm1[idx & q]
    return bool(ext.min() >= 0 and ext[-1] == 0)


def removal_bases(M):
    """All bases of a RemovalMatroid, by brute force over its ground set."""
    k = M.full_rank
    return [frozenset(B) for B in itertools.combinations(sorted(M.groundset), k)
            if M.rank(frozenset(B)) == k]


def verify_uniform_point(X, K):
    """Membership of the uniform vector (N/|pieces| on every edge of K) in
    the removable-set polytope, checked through its rank characterization:
    sum over pieces Q of r_Q(F) >= |F| * N for every F subset of K, all
    2^|K| of them.

    Returns (ok, details) where details carries the worst margin seen.
    Also checks h_{X-F}(R) == |F| for every tested F (K splitting).
    """
    compute_witnesses_and_weights(X, K)  # raises if K is not a splitting set
    K = sorted(K)
    pieces_terms = []
    for copy in X.copies:
        T = X.copy_terminals(copy)
        if len(T) >= 2:
            pieces_terms.append(T)
    npieces = len(X.copies)
    matroids = [RemovalMatroid(X, T) for T in pieces_terms]

    def check(F):
        h = X.slack_table(F)
        total = sum(m.table_rank(h) for m in matroids)
        return total - len(F) * X.N, int(h[-1]) == len(F)

    if len(K) > 16:
        raise ValueError("|K| too large for exhaustive check")
    subsets = itertools.chain.from_iterable(
        itertools.combinations(K, r) for r in range(len(K) + 1))
    worst = None
    ok = True
    for F in subsets:
        margin, h_ok = check(F)
        if worst is None or margin < worst:
            worst = margin
        if margin < 0 or not h_ok:
            ok = False
            break
    return ok, {"worst_margin": worst, "pieces": npieces}


# ---- max-flow oracles for the slack function -----------------------------
#
# The separation digraph of a blowup graph X (per-copy pieces, terminals
# shared): a source s with a unit arc to the root of every piece, the tree
# edges of each piece oriented away from its root with capacity 1, and for
# each terminal v an arc v -> t of capacity y_v, where
#
#     y_v = (number of pieces containing v) - N  (>= 0 when X is feasible).
#
# For a terminal subset Q, the max flow from s into Q union {t} equals
#
#     y(R) + N + min over S >= Q of h(S),
#
# and a minimizing S is read off the sink side of the min cut.  On X - F
# it gives the removal-matroid rank r_Q(F).  The gammoid view splits every
# edge into a node with unit throughput; ranks come out as differences of
# two max-flow values.  A terminal vertex is the node of the terminal it
# stands for (`BlowupGraph.terminal_of`), so contracted graphs share
# their terminals too.  Roots are the piece's smallest node; min cuts are
# reported as the unique minimal sink side (reverse residual
# reachability), so results are deterministic.


class NegativeTerminalLoad(Exception):
    """Some terminal appears in fewer than N pieces: its arc to the sink
    would need the negative capacity y_v, so no flow query is made."""

    def __init__(self, bad):
        super().__init__("negative terminal load: %s" % (bad,))
        self.bad = bad  # list of (terminal, y_v < 0)


def terminal_loads(X, pieces):
    count = {t: 0 for t in X.R}
    for vs, _ in pieces:
        for v in vs:
            if v in X.terminal_of:
                count[X.terminal_of[v]] += 1
    y = {t: count[t] - X.N for t in X.R}
    bad = sorted((t, yv) for t, yv in y.items() if yv < 0)
    if bad:
        raise NegativeTerminalLoad(bad)
    return y


def _pieces(X, F=frozenset()):
    out = []
    F = set(F)
    for copy in X.copies:
        out.extend(X.copy_pieces(copy, F & set(copy.edge_ids)))
    return out


SRC = ("s",)
SNK = ("t",)
SUPER = ("T*",)


def _build_net(X, pieces, y, Q, split_edges=False):
    """Separation network of the pieces, with Q and the sink t feeding the
    super sink.  split_edges turns every piece edge into a unit node."""
    net = FlowNet()
    stand = X.terminal_of.get
    for vs, eids in pieces:
        root = min(vs, key=lambda v: stand(v, v))
        net.add_arc(SRC, ("v", stand(root, root)), 1)
        order, parent = orient(X.adjacency(vs, eids), [root])
        for v in order[1:]:
            u, eid = parent[v]
            u, v = stand(u, u), stand(v, v)
            if split_edges:
                net.add_arc(("v", u), ("e", eid), 1)
                net.add_arc(("e", eid), ("v", v), 1)
            else:
                net.add_arc(("v", u), ("v", v), 1)
    for t, yv in y.items():
        net.add_arc(("v", t), SNK, yv)
    for q in Q:
        net.add_arc(("v", q), SUPER, INF)
    net.add_arc(SNK, SUPER, INF)
    return net


def _sink_side(net, t):
    """Nodes that still reach t in the residual graph of net (the minimal
    sink side of a minimum cut, after max_flow)."""
    # reverse BFS: the residual arc u->v is the partner of the arc stored
    # at v that heads back to u, so scanning adj[v] finds all residual
    # in-neighbours of v
    side = {t}
    q = deque([t])
    while q:
        v = q.popleft()
        for arc in net.adj[v]:
            u, _, partner = arc
            if partner[1] > 0 and u not in side:
                side.add(u)
                q.append(u)
    return side


def min_slack_over_supersets(X, Q, F=frozenset()):
    """(min over S >= Q of h_{X-F}(S),  a minimizing S), by max flow.

    Q is a nonempty subset of X.R.  Raises NegativeTerminalLoad when a
    terminal load y_v goes negative (only possible on infeasible X).
    """
    Q = frozenset(Q)
    assert Q and Q <= X.R
    pieces = _pieces(X, F)
    y = terminal_loads(X, pieces)
    net = _build_net(X, pieces, y, Q)
    flow = net.max_flow(SRC, SUPER)
    val = flow - sum(y.values()) - X.N
    side = _sink_side(net, SUPER)
    S = frozenset(t for t in X.R if ("v", t) in side) | Q
    return val, S


class GammoidOracle:
    """Rank oracle for the matroid of removable edge sets, realized as a
    gammoid: every edge becomes a unit-capacity node; the rank of an edge
    set U is rho(U + roots) - rho(roots) where rho(Z) is the max number of
    node-disjoint-ish paths from Z into Q union {t} (computed as max flow
    from a super source with one unit arc per piece root and per edge of
    U)."""

    def __init__(self, X, Q):
        self.X = X
        self.Q = frozenset(Q)
        assert self.Q and self.Q <= X.R
        self.pieces = _pieces(X)
        self.y = terminal_loads(X, self.pieces)
        self.base = self._rho(())

    def _rho(self, U):
        net = _build_net(self.X, self.pieces, self.y, self.Q, split_edges=True)
        for eid in U:
            net.add_arc(SRC, ("e", eid), 1)
        return net.max_flow(SRC, SUPER)

    def rank(self, U):
        return self._rho(tuple(U)) - self.base
