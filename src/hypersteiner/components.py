"""Enumeration of candidate full components.

A full component for a terminal subset S is a tree whose leaves are
exactly S and whose internal vertices are non-terminals.  All of them
come from one Dreyfus-Wagner pass over the masks of the sorted terminal
list (`_dw_pass`) that never routes through a terminal: f[S][v] is the
cheapest tree containing S and the non-terminal v in which the
terminals of S are leaves and no other terminal appears.  A single
terminal starts a Dijkstra that enters no terminal; a larger mask
merges two of its submask layers at each non-terminal and then grows
by one Dijkstra over the non-terminals.  full(S) is the cheapest of
f[S][v] over the non-terminals v and, for a pair, the direct edge
between its two terminals; that is 3^|R| merges in all, where solving
every subset on its own costs about 4^|R|.

Which subsets are kept.  Let opt(S) be the cost of a minimum Steiner
tree of S in G - (R \\ S), and split(S) the minimum of opt(S1) + opt(S2)
over t in S and S1 u S2 = S with S1 n S2 = {t}, |S1|, |S2| >= 2.  Then
opt(S) = min(full(S), split(S)): costs are positive, so an optimal tree
has no non-terminal leaf; it is either full, or some terminal t has
degree >= 2 and cutting it at t parts its branches into two trees whose
terminal sets meet in t, each holding a terminal besides t; and the
union of two trees for S1 and S2 connects S.  S is kept iff
full(S) < split(S); then every optimal tree of S is full.

The LP value does not depend on the tied subsets, full(S) = split(S),
that this rule drops.  Replacing x_S by the same amount on S1 and S2
costs as much, keeps sum x_C (|C| - 1) because |S1| + |S2| = |S| + 1,
and loads no subset U more: (|S1 n U| - 1)+ + (|S2 n U| - 1)+ is at most
(|S n U| - 1)+, with equality when t is in U.  Split sides that are not
kept split again, down to kept sets or pairs, which are never split.

The pass runs on Python ints: costs are multiplied once per instance by
L, the lcm of their denominators, heap keys are exact (int distance,
vertex index) pairs, and values are converted back once.  A component's
cost is the exact sum of its edge costs, asserted equal to full(S) / L.

Footnote for context: restricting attention to components with at most k
terminals loses at most a factor 1 + 1/floor(log2 k) in the LP value;
we default to k = |R| so nothing is lost.
"""

import heapq

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


def _dw_pass(inst, R, max_size):
    """One Dreyfus-Wagner pass over the masks of the sorted terminal list
    R with at most `max_size` terminals; terminals outside R are never
    entered, so this is the graph G - (set(inst.terminals) - set(R)).

    Returns (L, kept, opt, tree): `kept` lists the masks with
    full(S) < split(S) in increasing order, opt[mask] is opt(S) scaled by
    L (None when S cannot be connected), and tree(mask) the edge set of
    a tree of cost opt[mask]: the full tree when full(S) = opt(S), else
    the union of the trees of an optimal split.  Ties break towards the
    direct edge, then the first non-terminal in sorted order, the first
    submask in descending order and the first terminal t.
    """
    L = lcm_denominators(inst.costs.values())
    iadj = {v: [(w, int(c * L)) for (w, c) in inst.neighbors(v)]
            for v in inst.vertices}
    NT = sorted(inst.vertices - inst.terminals)
    idx = {v: j for j, v in enumerate(NT)}
    pos = {t: i for i, t in enumerate(R)}
    nadj = [[(idx[w], c) for w, c in iadj[v] if w in idx] for v in NT]
    n, size = len(NT), 1 << len(R)
    inf = 1 + sum(int(c * L) for c in inst.costs.values())  # above any tree
    f, back = [None] * size, [None] * size
    full, arg, opt, via = [inf] * size, [-1] * size, [inf] * size, [None] * size
    kept = []
    for i, t in enumerate(R):
        opt[1 << i] = 0
        for w, c in iadj[t]:
            if w in pos:
                full[1 << i | 1 << pos[w]] = c  # direct edge, arg -1
    for mask in range(1, size):
        bits = mask.bit_count()
        if bits > max_size:
            continue
        # d[j]: f[mask] at NT[j]; b[j]: predecessor index on the grow
        # path, -sub for a merge of sub and mask ^ sub, None for an edge
        # from the mask's single terminal
        d, b = [inf] * n, [None] * n
        if bits == 1:
            for w, c in iadj[R[mask.bit_length() - 1]]:
                if w in idx:
                    d[idx[w]] = c
        else:
            low = mask ^ (1 << (mask.bit_length() - 1))
            sub = low  # the side without the highest bit: each pair once
            while sub:
                fa, fb = f[sub], f[mask ^ sub]
                for j in range(n):
                    x = fa[j] + fb[j]
                    if x < d[j]:
                        d[j], b[j] = x, -sub
                sub = (sub - 1) & low
        heap = [(x, j) for j, x in enumerate(d) if x < inf]
        heapq.heapify(heap)
        while heap:
            x, j = heapq.heappop(heap)
            if x > d[j]:
                continue
            for w, c in nadj[j]:
                y = x + c
                if y < d[w]:
                    d[w], b[w] = y, j
                    heapq.heappush(heap, (y, w))
        f[mask], back[mask] = d, b
        if bits == 1:
            continue
        for j, x in enumerate(d):
            if x < full[mask]:
                full[mask], arg[mask] = x, j
        split = inf
        for i in range(len(R)):
            t = 1 << i
            if not mask & t:
                continue
            rest = mask ^ t
            low = rest ^ (1 << (rest.bit_length() - 1))
            sub = low  # S1 = sub + t, S2 = mask - sub
            while sub:
                x = opt[sub | t] + opt[mask ^ sub]
                if x < split:
                    split, via[mask] = x, (sub | t, mask ^ sub)
                sub = (sub - 1) & low
        if full[mask] < split:
            kept.append(mask)
        opt[mask] = min(full[mask], split)

    def full_tree(mask):
        if arg[mask] < 0:
            return {edge_key(*(t for t in R if mask >> pos[t] & 1))}
        edges, stack = set(), [(mask, arg[mask])]
        while stack:
            m, j = stack.pop()
            p = back[m][j]
            while p is not None and p >= 0:
                edges.add(edge_key(NT[p], NT[j]))
                j, p = p, back[m][p]
            if p is None:
                edges.add(edge_key(R[m.bit_length() - 1], NT[j]))
            else:
                stack += [(-p, j), (m ^ -p, j)]
        return edges

    def tree(mask):
        if full[mask] == opt[mask]:
            return full_tree(mask)
        S1, S2 = via[mask]
        return tree(S1) | tree(S2)

    return L, kept, [None if x >= inf else x for x in opt], tree


def min_component_cost(inst, terminal_subset, return_tree=False):
    """Minimum Steiner tree for `terminal_subset` in the graph with all
    other terminals removed.  Returns cost (and optionally the edge set),
    or None if the subset cannot be connected there."""
    S = sorted(terminal_subset)
    if len(S) < 2:
        raise ValueError("need at least 2 terminals in the subset")
    if not set(S) <= inst.terminals:
        raise ValueError("the subset holds a vertex that is not a terminal")
    L, _, opt, tree = _dw_pass(inst, S, len(S))
    best = opt[-1]
    if best is None:
        return (None, None) if return_tree else None
    cost = Rat(best, L)
    return (cost, tree(len(opt) - 1)) if return_tree else cost


def require_enumerable(r):
    """Refuse r terminals above FULL_ENUM_TERMINAL_CAP with a ValueError."""
    if r > FULL_ENUM_TERMINAL_CAP:
        raise ValueError("too many terminals for component enumeration: %d > "
                         "cap %d; a component size bound (--k) does not lift "
                         "the cap" % (r, FULL_ENUM_TERMINAL_CAP))


def enumerate_components(inst, max_size=None):
    """All candidate full components over terminal subsets of size 2..max_size.

    A subset is kept iff its cheapest full tree is strictly cheaper than
    every split of it at a terminal (see the module docstring).  Returns
    components sorted by (size, terminal bitmask) for determinism.
    """
    R = sorted(inst.terminals)
    if max_size is None:
        max_size = len(R)
    if not (2 <= max_size <= len(R)):
        raise ValueError("component size bound must be in [2, |R|]")
    require_enumerable(len(R))
    L, kept, opt, tree = _dw_pass(inst, R, max_size)
    out = []
    for mask in sorted(kept, key=lambda m: (m.bit_count(), m)):
        edges = tree(mask)
        comp = Component([t for i, t in enumerate(R) if mask >> i & 1], edges,
                         sum((inst.costs[e] for e in edges), R0))
        # an optimal full tree counts no edge twice, so its realized cost
        # is the pass value scaled back
        assert comp.cost == Rat(opt[mask], L), (comp, opt[mask], L)
        out.append(comp)
    return out
