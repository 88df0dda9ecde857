"""Combinatorial separation for blowup graphs via maximum flow.

The separation digraph for a blowup graph X (per-copy pieces, terminals
shared): a source s with a unit arc to the root of every piece, the tree
edges of each piece oriented away from its root with capacity 1, and for
each terminal v an arc v -> t of capacity y_v, where

    y_v = (number of pieces containing v) - N  (>= 0 when X is feasible).

For a terminal subset Q, the max flow from s into Q union {t} equals

    y(R) + N + min over S >= Q of h(S),

and a minimizing S is read off the sink side of the min cut.  This answers
the per-terminal minima of the `separate` and `verify separation`
commands and the slack checks of partition decomposition, and on X - F it
gives the removal-matroid rank r_Q(F).  The companion gammoid view splits
every edge into a node with unit throughput; ranks come out as
differences of two max-flow values.  The pipeline reads LP separation
(`most_violated_mask`) and ranks (`removal_matroid`) off slack tables;
both flow ranks are the references tests compare those against.
`FlowNet` is also the max-flow primitive of `bcr_quasi`.

Roots are the smallest vertex id of each piece; min cuts are reported as
the unique minimal sink side (reverse residual reachability), so results
are deterministic.
"""

from collections import deque

from .instance import orient

INF = float("inf")


class NegativeTerminalLoad(Exception):
    """Some terminal appears in fewer than N pieces: its arc to the sink
    would need the negative capacity y_v, so no flow query is made."""

    def __init__(self, bad):
        super().__init__("negative terminal load: %s" % (bad,))
        self.bad = bad  # list of (terminal, y_v < 0)


class FlowNet:
    """Plain Edmonds-Karp with integer capacities on hashable nodes."""

    def __init__(self):
        self.adj = {}

    def _node(self, v):
        if v not in self.adj:
            self.adj[v] = []
        return v

    def add_arc(self, u, v, cap):
        if cap <= 0:
            return None
        self._node(u)
        self._node(v)
        fwd = [v, cap, None]
        bwd = [u, 0, fwd]
        fwd[2] = bwd
        self.adj[u].append(fwd)
        self.adj[v].append(bwd)
        return fwd

    def max_flow(self, s, t):
        self._node(s)
        self._node(t)
        total = 0
        while True:
            prev = {s: None}
            q = deque([s])
            while q and t not in prev:
                u = q.popleft()
                for arc in self.adj[u]:
                    v, cap, _ = arc
                    if cap > 0 and v not in prev:
                        prev[v] = arc
                        if v == t:
                            break
                        q.append(v)
            if t not in prev:
                return total
            # bottleneck along the path
            bott = INF
            v = t
            while prev[v] is not None:
                arc = prev[v]
                bott = min(bott, arc[1])
                v = arc[2][0]
            v = t
            while prev[v] is not None:
                arc = prev[v]
                arc[1] -= bott
                arc[2][1] += bott
                v = arc[2][0]
            total += bott

    def sink_side(self, t):
        """Nodes that still reach t in the residual graph (the minimal
        sink side of a minimum cut, after max_flow)."""
        # reverse BFS: the residual arc u->v is the partner of the arc
        # stored at v that heads back to u, so scanning adj[v] finds all
        # residual in-neighbours of v
        side = {t}
        q = deque([t])
        while q:
            v = q.popleft()
            for arc in self.adj[v]:
                u, _, partner = arc
                if partner[1] > 0 and u not in side:
                    side.add(u)
                    q.append(u)
        return side


def terminal_loads(X, pieces):
    count = {t: 0 for t in X.R}
    for vs, _ in pieces:
        for v in vs:
            if v in count:
                count[v] += 1
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
    for vs, eids in pieces:
        root = min(vs)
        net.add_arc(SRC, ("v", root), 1)
        order, parent = orient(X.adjacency(vs, eids), [root])
        for v in order[1:]:
            u, eid = parent[v]
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


def min_slack_over_supersets(X, Q, F=frozenset()):
    """(min over S >= Q of h_{X-F}(S),  a minimizing S).

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
    side = net.sink_side(SUPER)
    S = frozenset(t for t in X.R if ("v", t) in side) | Q
    return val, S


def most_violated_mask(X):
    """Terminal bitmask of a most-violated subset constraint h(S) < 0, or
    None when h >= 0 everywhere.  The subset equality h(R) = 0 is not
    checked here (the LP carries it as an explicit row).

    Read off X's slack table: the smallest mask among those of most
    negative slack.  It holds whatever the terminal loads; when none is
    negative it is also the minimal sink side that the per-terminal flows
    `min_slack_over_supersets(X, {v})` report for some anchor v (minimizers
    that intersect are closed under intersection).
    """
    h = X.slack_table()
    m = int(h.argmin())
    return m if h[m] < 0 else None


# ---- gammoid view --------------------------------------------------------


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
