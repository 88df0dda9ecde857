"""Component-based LP relaxation and blowup graphs.

The LP over candidate full components C (variables x_C >= 0):

    min  sum x_C cost(C)
    s.t. sum x_C (|S cap C| - 1)+  <=  |S| - 1   for all nonempty S subset R
         sum x_C (|C| - 1)          =  |R| - 1

A rational solution x is materialized as a *blowup graph*: N = lcm of the
denominators, and each component C appears as N*x_C vertex-disjoint tree
copies whose terminals are shared (identified) across copies.  The slack
of a terminal set S in a blowup graph X with edge set F removed is the
integer

    h(S) = N(|S| - 1) - sum over pieces P of X - F of (|S cap P| - 1)+

X - F is split per copy; pieces never merge through shared terminals.
x is LP-feasible iff h >= 0 on all nonempty S and h(R) = 0.

Slack values for *all* subsets at once are produced as numpy int64
tables indexed by terminal bitmask.  A table is N(|S| - 1) minus one
contribution vector per copy, memoized per (copy shape, removed local
edges).  Removing one more edge e changes only the vector of e's copy,
so the removal-matroid greedy builds one table and then updates it by
one copy delta per candidate edge; `edge_slots` locates that copy.
"""

import itertools

import numpy as np

from .ratio import Rat, R0, lcm_denominators
from .instance import UnionFind

TABLE_TERMINAL_CAP = 16


class BlowupEdge:
    __slots__ = ("id", "u", "v", "cost", "orig")

    def __init__(self, eid, u, v, cost, orig=None):
        self.id = eid
        self.u = u
        self.v = v
        self.cost = cost
        self.orig = orig      # edge key of the source instance, if any

    def __repr__(self):
        return "E%d(%d-%d, c=%s)" % (self.id, self.u, self.v, self.cost)


class BlowupCopy:
    __slots__ = ("id", "edge_ids", "vertices", "shape")

    def __init__(self, cid, edge_ids, vertices, shape):
        self.id = cid
        self.edge_ids = tuple(edge_ids)
        self.vertices = tuple(sorted(vertices))
        self.shape = shape  # memoization key shared by structurally equal copies

    def __repr__(self):
        return "Copy%d(V=%s)" % (self.id, list(self.vertices))


class BlowupGraph:
    """Immutable by convention: `contract`, the one operation of a
    contraction step, returns a new graph.

    Edge ids are stable across it, so external bookkeeping (splitting
    sets, witness sets) survives.
    """

    def __init__(self, N, terminals, copies, edges, next_vid, next_eid, next_cid):
        self.N = N
        self.R = frozenset(terminals)
        self.copies = list(copies)
        self.edges = dict(edges)          # id -> BlowupEdge
        self._next_vid = next_vid
        self._next_eid = next_eid
        self._next_cid = next_cid
        self.terminal_order = tuple(sorted(self.R))
        self._tidx = {t: i for i, t in enumerate(self.terminal_order)}
        self._memo = {}
        self._slots = None

    # ---- basic accessors -------------------------------------------------

    def term_mask(self, vs):
        m = 0
        for v in vs:
            i = self._tidx.get(v)
            if i is not None:
                m |= 1 << i
        return m

    def mask_terms(self, mask):
        return frozenset(t for i, t in enumerate(self.terminal_order) if mask >> i & 1)

    def superset_masks(self, Q):
        """Slack-table indices of the terminal sets S >= Q, ascending."""
        q = self.term_mask(Q)
        masks = np.arange(1 << len(self.terminal_order), dtype=np.int64)
        return np.flatnonzero(masks & q == q)

    def copy_terminals(self, copy):
        return frozenset(v for v in copy.vertices if v in self.R)

    def adjacency(self, vertices, edge_ids):
        """vertex -> [(neighbour, edge id)] over `edge_ids`, in that order."""
        adj = {v: [] for v in vertices}
        for eid in edge_ids:
            e = self.edges[eid]
            adj[e.u].append((e.v, eid))
            adj[e.v].append((e.u, eid))
        return adj

    def total_cost(self):
        return sum((e.cost for e in self.edges.values()), R0)

    # ---- pieces and slack ------------------------------------------------

    def copy_pieces(self, copy, removed):
        """Split one copy by removing `removed` (edge ids); returns a list of
        (vertex tuple, edge id tuple) pieces, single vertices included."""
        uf = UnionFind(copy.vertices)
        kept = [e for e in copy.edge_ids if e not in removed]
        for eid in kept:
            e = self.edges[eid]
            uf.union(e.u, e.v)
        find = uf.find
        verts = {}
        for v in copy.vertices:
            verts.setdefault(find(v), []).append(v)
        eids = {r: [] for r in verts}
        for eid in kept:
            eids[find(self.edges[eid].u)].append(eid)
        return [(tuple(verts[r]), tuple(eids[r])) for r in sorted(verts)]

    def _copy_contrib(self, copy, removed_local):
        """Summed contribution vector of one copy's pieces over every terminal
        mask: vec[S] = sum over pieces P of (|S cap P| - 1)+."""
        key = (copy.shape, removed_local)
        vec = self._memo.get(key)
        if vec is not None:
            return vec
        removed = {copy.edge_ids[i] for i in removed_local}
        r = len(self.terminal_order)
        pcm1 = self._pcm1()
        idx = np.arange(1 << r, dtype=np.int64)
        vec = np.zeros(1 << r, dtype=np.int64)
        for vs, _ in self.copy_pieces(copy, removed):
            m = self.term_mask(vs)
            if m:
                vec += pcm1[idx & m]
        self._memo[key] = vec
        return vec

    def _pcm1(self):
        # (popcount - 1)+ lookup over all terminal masks
        key = ("pcm1", len(self.terminal_order))
        v = self._memo.get(key)
        if v is None:
            r = len(self.terminal_order)
            pc = np.zeros(1 << r, dtype=np.int64)
            for i in range(r):
                pc[1 << i:1 << (i + 1)] = pc[:1 << i] + 1
            v = np.maximum(pc - 1, 0)
            self._memo[key] = v
        return v

    def edge_slots(self):
        """Edge id -> (index into self.copies, index into that copy's
        edge_ids); built on first use."""
        if self._slots is None:
            self._slots = {e: (ci, i) for ci, copy in enumerate(self.copies)
                           for i, e in enumerate(copy.edge_ids)}
        return self._slots

    def slack_table(self, F=frozenset()):
        """numpy int64 vector of h(S) over all 2^|R| terminal masks (entry 0
        is set to 0 by convention).  Ids in F that are not edges of the
        graph are ignored.  The table of X itself (F empty) is built once
        and shared, so it is read-only."""
        r = len(self.terminal_order)
        if r > TABLE_TERMINAL_CAP:
            raise ValueError("terminal set too large for slack tables")
        if not F and "table" in self._memo:
            return self._memo["table"]
        pcm1 = self._pcm1()
        pc = pcm1 + np.minimum(np.arange(1 << r, dtype=np.int64), 1)  # popcount via (x-1)+ + [x>0]
        h = self.N * (pc - 1)
        slots = self.edge_slots()
        removed = {}
        for eid in F:
            slot = slots.get(eid)
            if slot is not None:
                removed.setdefault(slot[0], set()).add(slot[1])
        for ci, copy in enumerate(self.copies):
            h -= self._copy_contrib(copy, frozenset(removed.get(ci, ())))
        h[0] = 0
        if not F:
            h.setflags(write=False)
            self._memo["table"] = h
        return h

    def is_feasible(self):
        """LP feasibility of the blowup: h >= 0 everywhere and h(R) = 0."""
        h = self.slack_table()
        return bool(h.min() >= 0 and h[-1] == 0)

    # ---- contraction (returns a new graph) -------------------------------

    def contract(self, F, TQ):
        """(X - F)/Q: drop the edges F, split the copies they touch into
        their pieces (pieces with no edges vanish) and identify the
        terminal class TQ to one fresh terminal z.  Copies F leaves alone
        keep their id and shape; pieces take fresh ids; a copy or piece
        holding a terminal of TQ gets the shape ("z", shape, z) and may
        not hold two (true after a basis removal).  Returns (graph, z)."""
        F, TQ = frozenset(F), frozenset(TQ)
        if len(TQ) < 2 or not TQ <= self.R:
            raise ValueError("need >= 2 existing terminals to contract")
        z, cid = self._next_vid, self._next_cid
        copies, edges = [], {}
        for copy in self.copies:
            pieces = [copy]
            if not F.isdisjoint(copy.edge_ids):
                pieces = []
                for vs, eids in self.copy_pieces(copy, F):
                    if eids:
                        pieces.append(BlowupCopy(cid, eids, vs, ("p", cid)))
                        cid += 1
            for p in pieces:
                hits = TQ.intersection(p.vertices)
                if len(hits) > 1:
                    raise ValueError("copy %d spans several terminals of the "
                                     "contracted component" % p.id)
                for eid in p.edge_ids:
                    e = self.edges[eid]
                    if e.u in TQ or e.v in TQ:
                        e = BlowupEdge(eid, z if e.u in TQ else e.u,
                                       z if e.v in TQ else e.v, e.cost, e.orig)
                    edges[eid] = e
                if hits:
                    p = BlowupCopy(p.id, p.edge_ids,
                                   [z if v in TQ else v for v in p.vertices],
                                   ("z", p.shape, z))
                copies.append(p)
        return BlowupGraph(self.N, (self.R - TQ) | {z}, copies, edges,
                           z + 1, self._next_eid, cid), z


class FractionalSolution:
    """Sparse LP point: exact rational value per component (zeros omitted)."""

    __slots__ = ("terminals", "values", "objective")

    def __init__(self, terminals, values):
        self.terminals = frozenset(terminals)
        self.values = {c: Rat(v) for c, v in values.items() if v != 0}
        for c, v in self.values.items():
            if v < 0:
                raise ValueError("negative component value")
        self.objective = sum((c.cost * v for c, v in self.values.items()), R0)

    def check_feasible(self):
        """Brute-force feasibility over all terminal subsets."""
        R = sorted(self.terminals)
        for size in range(2, len(R) + 1):
            for S in itertools.combinations(R, size):
                Sf = frozenset(S)
                load = sum((v * max(len(c.terminals & Sf) - 1, 0)
                            for c, v in self.values.items()), R0)
                if load > len(S) - 1:
                    return False
        total = sum((v * (len(c.terminals) - 1) for c, v in self.values.items()), R0)
        return total == len(R) - 1


def blowup_from_solution(instance, solution):
    """BlowupGraph of a fractional solution, edge costs taken from the
    instance the components were enumerated on."""
    N = lcm_denominators(list(solution.values.values()) or [Rat(1)])
    R = frozenset(solution.terminals)
    used = set(R)
    for comp in solution.values:
        for (u, v) in comp.edges:
            used.update((u, v))
    vid = max(used) + 1 if used else 1
    eid = cid = 0
    copies = []
    edges = {}
    for comp in sorted(solution.values, key=lambda c: (sorted(c.terminals), c.edges)):
        mult = solution.values[comp] * N
        assert Rat(mult).denominator == 1, "lcm of denominators failed"
        for _ in range(int(mult)):
            vmap = {t: t for t in comp.terminals}
            vs = set(comp.terminals)
            e_ids = []
            for (u, v) in comp.edges:
                for w in (u, v):
                    if w not in vmap:
                        vmap[w] = vid
                        vs.add(vid)
                        vid += 1
                edges[eid] = BlowupEdge(eid, vmap[u], vmap[v],
                                        instance.costs[(u, v)], orig=(u, v))
                e_ids.append(eid)
                eid += 1
            copies.append(BlowupCopy(cid, e_ids, vs, ("c", comp.edges)))
            cid += 1
    return BlowupGraph(N, R, copies, edges, vid, eid, cid)


# ---- LP solving ----------------------------------------------------------

FULL_ENUM_CAP = 12


def _lp_rows(components, terminal_order, masks):
    rows = []
    rhs = []
    cmasks = [c.bitmask(terminal_order) for c in components]
    for m in masks:
        row = []
        for cm in cmasks:
            inter = bin(m & cm).count("1")
            row.append(Rat(max(inter - 1, 0)))
        rows.append(row)
        rhs.append(Rat(bin(m).count("1") - 1))
    return rows, rhs


def solve_lp_exact(instance, components):
    """Optimal exact solution of the component LP.

    Up to FULL_ENUM_CAP terminals every subset row (2^|R| - 1 of them) is
    instantiated at once; above that, `_cutting_planes` starts from the
    singleton rows plus the full-set row and separates violated subsets
    off the slack table of the current point's blowup.
    """
    if not components:
        raise ValueError("no components to optimize over")
    r = len(instance.terminals)
    if r > FULL_ENUM_CAP:
        return _cutting_planes(instance, components)
    return _solve_rows(instance, components, range(1, 1 << r))


def _cutting_planes(instance, components):
    """The component LP by cutting planes: one most-violated subset row
    is added per round until the optimum of the rows so far is feasible."""
    r = len(instance.terminals)
    masks = [1 << i for i in range(r)] + [(1 << r) - 1]
    while True:
        sol = _solve_rows(instance, components, masks)
        viol = _most_violated(instance, sol)
        if viol is None:
            return sol
        if viol in masks:
            raise AssertionError("separation returned an active row")
        masks.append(viol)


def _solve_rows(instance, components, masks):
    """Optimum of the component LP restricted to the subset rows `masks`."""
    from .simplexq import solve_lp
    R = sorted(instance.terminals)
    rows, rhs = _lp_rows(components, R, masks)
    c = [comp.cost for comp in components]
    eq_row = [[Rat(len(comp.terminals) - 1) for comp in components]]
    x, _ = solve_lp(c, rows, rhs, eq_row, [Rat(len(R) - 1)])
    vals = {comp: xi for comp, xi in zip(components, x) if xi != 0}
    return FractionalSolution(instance.terminals, vals)


def _most_violated(instance, sol):
    """Terminal mask of a most-violated subset constraint, or None if sol is
    feasible.  Ties: most negative slack, then smallest bitmask."""
    from . import sepflow
    X = blowup_from_solution(instance, sol)
    return sepflow.most_violated_mask(X)
