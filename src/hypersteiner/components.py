"""Enumeration of candidate full components.

A full component for a terminal subset S is a tree whose leaves are
exactly S and whose internal vertices are non-terminals.  For each S we
compute a minimum Steiner tree of S in the graph with all *other*
terminals deleted (dynamic program over terminal subsets), reconstruct
an optimal tree, and keep it only if it has the full-component shape
after pruning zero-cost non-terminal leaves.

The dynamic program runs on Python ints: costs are multiplied once per
instance by L, the lcm of their denominators, and converted back once.
`min_component_cost` returns the DP value over L; a component's cost is
the exact sum of its edge costs, asserted equal to that value.

Footnote for context: restricting attention to components with at most k
terminals loses at most a factor 1 + 1/floor(log2 k) in the LP value;
we default to k = |R| so nothing is lost.
"""

import heapq
import itertools

from .ratio import Rat, R0, lcm_denominators
from .instance import edge_key

FULL_ENUM_TERMINAL_CAP = 16


class Component:
    """A full component: terminal set plus the realizing tree and its cost."""

    __slots__ = ("terminals", "edges", "cost", "_hash")

    def __init__(self, terminals, edges, cost):
        self.terminals = frozenset(terminals)
        self.edges = tuple(sorted(edges))
        self.cost = Rat(cost)
        self._hash = hash((self.terminals, self.edges))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (self.terminals, self.edges) == (other.terminals, other.edges)

    def bitmask(self, terminal_order):
        m = 0
        for i, t in enumerate(terminal_order):
            if t in self.terminals:
                m |= 1 << i
        return m

    def __repr__(self):
        return "Component(R=%s, cost=%s)" % (sorted(self.terminals), self.cost)


def _steiner_dp(nodes, adj, sources):
    """Dreyfus-Wagner over the given graph for the terminal list `sources`.

    `adj` maps each node to (neighbour, cost) pairs with int costs.
    Returns (best_cost, edge_set) for a minimum tree connecting all of
    `sources`, or (None, None) if they are not connected.  Tie-breaking is
    deterministic: vertices scanned in sorted order, submasks ascending,
    Dijkstra pops by (exact distance, vertex).
    """
    k = len(sources)
    full = (1 << k) - 1
    nodes = sorted(nodes)
    dp = [dict() for _ in range(full + 1)]
    back = [dict() for _ in range(full + 1)]

    for i, t in enumerate(sources):
        dp[1 << i][t] = 0
        back[1 << i][t] = ("base",)

    for mask in range(1, full + 1):
        if mask & (mask - 1):
            # merge two sub-trees at a common vertex
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                if sub < rest:  # each unordered split once
                    for v in nodes:
                        a = dp[sub].get(v)
                        b = dp[rest].get(v)
                        if a is not None and b is not None:
                            c = a + b
                            cur = dp[mask].get(v)
                            if cur is None or c < cur:
                                dp[mask][v] = c
                                back[mask][v] = ("merge", sub, rest, v)
                sub = (sub - 1) & mask
        # grow along shortest paths: one Dijkstra over the dp layer
        dist = {v: dp[mask].get(v) for v in nodes}
        origin = {v: v if dist[v] is not None else None for v in nodes}
        heap = [(d, v) for v, d in dist.items() if d is not None]
        heapq.heapify(heap)
        done = set()
        prev = {v: None for v in nodes}
        while heap:
            _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for w, c in adj[u]:
                nd = dist[u] + c
                if dist[w] is None or nd < dist[w]:
                    dist[w] = nd
                    prev[w] = u
                    origin[w] = origin[u]
                    heapq.heappush(heap, (nd, w))
        for v in nodes:
            if dist[v] is None:
                continue
            cur = dp[mask].get(v)
            if cur is None or dist[v] < cur:
                dp[mask][v] = dist[v]
                # record the attachment vertex; path recovered via prev
                if prev[v] is not None:
                    # walk back to the origin of the path
                    path = [v]
                    u = v
                    while prev[u] is not None:
                        u = prev[u]
                        path.append(u)
                    back[mask][v] = ("path", origin[v], tuple(path))

    best_v = None
    best = None
    for v in nodes:
        c = dp[full].get(v)
        if c is not None and (best is None or c < best):
            best, best_v = c, v
    if best is None:
        return None, None

    edges = set()

    def rec(mask, v):
        tag = back[mask][v]
        if tag[0] == "base":
            return
        if tag[0] == "merge":
            _, sub, rest, u = tag
            rec(sub, u)
            rec(rest, u)
        else:
            _, org, path = tag
            for a, b in zip(path, path[1:]):
                edges.add(edge_key(a, b))
            rec(mask, org)

    rec(full, best_v)
    return best, edges


def _int_adjacency(inst):
    """(L, adj): L is the lcm of the cost denominators and adj maps every
    vertex to (neighbour, cost * L) pairs, the costs as Python ints."""
    L = lcm_denominators(inst.costs.values())
    adj = {v: [(w, int(c * L)) for (w, c) in inst.neighbors(v)]
           for v in inst.vertices}
    return L, adj


def _min_tree(inst, iadj, S):
    """Dreyfus-Wagner for the sorted terminal list S on the int adjacency
    `iadj`, with all other terminals deleted: (scaled cost, edges), or
    (None, None) if S cannot be connected there."""
    banned = inst.terminals - set(S)
    nodes = [v for v in inst.vertices if v not in banned]
    nodeset = set(nodes)
    if any(t not in nodeset for t in S):
        return None, None
    adj = {v: [(w, c) for (w, c) in iadj[v] if w in nodeset] for v in nodes}
    return _steiner_dp(nodes, adj, S)


def min_component_cost(inst, terminal_subset, return_tree=False):
    """Minimum Steiner tree for `terminal_subset` in the graph with all
    other terminals removed.  Returns cost (and optionally the edge set),
    or None if the subset cannot be connected there."""
    S = sorted(terminal_subset)
    if len(S) < 2:
        raise ValueError("need at least 2 terminals in the subset")
    L, iadj = _int_adjacency(inst)
    best, edges = _min_tree(inst, iadj, S)
    if best is None:
        return (None, None) if return_tree else None
    cost = Rat(best, L)
    return (cost, edges) if return_tree else cost


def _as_full_component(inst, S, edges):
    """Prune zero-cost non-terminal leaves, then accept only if leaves are
    exactly S and internal vertices are non-terminals."""
    deg = {}
    adj = {}
    for (u, v) in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    S = set(S)
    edges = set(edges)
    changed = True
    while changed:
        changed = False
        for v in list(deg):
            if deg.get(v, 0) == 1 and v not in S:
                (w,) = adj[v]
                e = edge_key(v, w)
                if inst.costs[e] == 0:
                    edges.discard(e)
                    adj[w].discard(v)
                    deg[w] -= 1
                    del deg[v], adj[v]
                    changed = True
    for v, d in deg.items():
        if v in S:
            if d != 1:
                return None  # terminal is internal
        elif d == 1:
            return None  # non-terminal leaf of positive cost
    if set(deg) & (inst.terminals - S):
        return None
    if not all(deg.get(t, 0) == 1 for t in S):
        return None
    realized = sum((inst.costs[e] for e in edges), R0)
    return Component(S, edges, realized)


def enumerate_components(inst, max_size=None):
    """All candidate full components over terminal subsets of size 2..max_size.

    For each subset the minimum tree (other terminals deleted) is computed;
    subsets whose optimum is not shaped like a full component are dropped.
    Returns components sorted by (size, terminal bitmask) for determinism.
    """
    R = sorted(inst.terminals)
    if max_size is None:
        max_size = len(R)
    if not (2 <= max_size <= len(R)):
        raise ValueError("component size bound must be in [2, |R|]")
    if len(R) > FULL_ENUM_TERMINAL_CAP:
        raise ValueError("too many terminals for full enumeration (cap %d)"
                         % FULL_ENUM_TERMINAL_CAP)
    L, iadj = _int_adjacency(inst)
    out = []
    for size in range(2, max_size + 1):
        for S in itertools.combinations(R, size):
            best, edges = _min_tree(inst, iadj, S)
            if best is None:
                continue
            comp = _as_full_component(inst, S, edges)
            if comp is not None:
                # costs are positive, so the optimal tree counts no edge
                # twice and its realized cost is the DP value scaled back
                assert comp.cost == Rat(best, L), (S, comp.cost, best, L)
                out.append(comp)
    order = {t: i for i, t in enumerate(R)}
    out.sort(key=lambda c: (len(c.terminals),
                            sum(1 << order[t] for t in c.terminals),
                            c.edges))
    return out
