"""LP separation off slack tables, and the max-flow primitive of BCR.

`most_violated_mask` answers the separation problem of the component LP
for a blowup graph X: it reads X's slack table and returns a most
violated subset constraint.  `FlowNet` is the Edmonds-Karp max flow that
`bcr_quasi` separates cuts and relocates roots with.  The paper's flow
oracles for the slack function (the separation network and the gammoid)
are built on it in `oracles`, as references that tests check the tables
against.
"""

from collections import deque

INF = float("inf")


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

    def source_side(self, s):
        """Nodes that s still reaches in the residual graph (the minimal
        source side of a minimum cut, after max_flow from s)."""
        side = {s}
        q = deque([s])
        while q:
            for v, cap, _ in self.adj[q.popleft()]:
                if cap > 0 and v not in side:
                    side.add(v)
                    q.append(v)
        return side


def most_violated_mask(X):
    """Terminal bitmask of a most-violated subset constraint h(S) < 0, or
    None when h >= 0 everywhere.  The subset equality h(R) = 0 is not
    checked here (the LP carries it as an explicit row).

    Read off X's slack table: the smallest mask among those of most
    negative slack.  It holds whatever the terminal loads; when none is
    negative it is also the minimal sink side that the per-terminal flows
    `oracles.min_slack_over_supersets(X, {v})` report for some anchor v
    (minimizers that intersect are closed under intersection).
    """
    h = X.slack_table()
    m = int(h.argmin())
    return m if h[m] < 0 else None
