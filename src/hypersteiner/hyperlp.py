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
tables indexed by terminal bitmask.  A table is N(|S| - 1) minus, per
piece P, (|S cap P| - 1)+ read off one (popcount - 1)+ table at
S & mask(P), once per distinct piece mask; the copies an edge set F
cuts are split into their pieces by `copy_pieces`.  The removal-matroid greedy reads no
table per candidate edge: `edge_slots` gives every edge its copy, the
terminal mask below it and its own and its ancestors' position bits in
the copy's edge ids, from which the two sides of its piece follow by mask
arithmetic; copies of one shape align by position (`BlowupCopy`), so the
first graph walks (`instance.orient`) one copy per shape.

Contraction renames no vertex.  Every graph maps each terminal vertex
its copies hold to the terminal it now stands for (`terminal_of`); a
contraction step moves the members of Q to z in that map, and every
question of the form "is v a terminal, and which one" reads it.  So a
copy that F leaves whole is the very same object after (X - F)/Q, edges
included; only its terminal masks move to the new bit positions
(`_Remap`).  `contract` walks only the pieces F cuts, and the contracted
graph takes every other copy's terminal mask and edge slots from the
graph before it, remapped.
"""

import functools
from collections import Counter
from operator import attrgetter

import numpy as np

from .ratio import Rat, R0, lcm_denominators, scaled
from .instance import UnionFind, orient

TABLE_TERMINAL_CAP = 16


@functools.lru_cache(maxsize=None)
def pcm1_table(r):
    """(popcount - 1)+ over all r-bit terminal masks, read-only."""
    pc = np.zeros(1 << r, dtype=np.int64)
    for i in range(r):
        pc[1 << i:1 << (i + 1)] = pc[:1 << i] + 1
    v = np.maximum(pc - 1, 0)
    v.setflags(write=False)
    return v


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
        # copies of one shape hold the same terminal vertices, and their
        # vertices (sorted) and edge ids align by position: the same tree
        # with other Steiner vertices; a copy keeps its shape through
        # every contraction that leaves it whole
        self.shape = shape

    def __repr__(self):
        return "Copy%d(V=%s)" % (self.id, list(self.vertices))


class BlowupGraph:
    """Immutable by convention: `contract`, the one operation of a
    contraction step, returns a new graph.

    Edge, copy and vertex ids are stable across it, so external
    bookkeeping (splitting sets, witness sets) survives.  `terminal_of`
    maps every terminal vertex of the copies to the terminal of R it
    stands for: the identity on R, and a contraction moves the
    contracted terminals to z.  Each graph has three
    derived tables, built on first use or carried from the graph it was
    contracted from: the terminal mask of every copy (`copy_masks`), from
    which the slack table of X (`slack_table()`) is summed, and the
    per-edge table of `edge_slots`, which the removal-matroid greedy
    reads instead of slack tables.  `fresh`
    builds all three again, for check mode to compare against.
    """

    def __init__(self, N, terminals, copies, edges, next_vid, next_eid, next_cid,
                 terminal_of=None):
        self.N = N
        self.R = frozenset(terminals)
        self.copies = list(copies)
        self.edges = edges                # id -> BlowupEdge, held, not copied
        self._next_vid = next_vid
        self._next_eid = next_eid
        self._next_cid = next_cid
        self.terminal_of = terminal_of or {t: t for t in self.R}
        self.terminal_order = tuple(sorted(self.R))
        tidx = {t: i for i, t in enumerate(self.terminal_order)}
        self._tbit = {v: 1 << tidx[t] for v, t in self.terminal_of.items()}
        self._table = None
        self._masks = None
        self._slots = None

    def fresh(self):
        """The same graph with no derived table built or carried."""
        return BlowupGraph(self.N, self.R, self.copies, self.edges, self._next_vid,
                           self._next_eid, self._next_cid, self.terminal_of)

    # ---- basic accessors -------------------------------------------------

    def term_mask(self, vs):
        """Terminal mask of the terminals the vertices `vs` stand for."""
        m = 0
        for v in vs:
            m |= self._tbit.get(v, 0)
        return m

    def mask_terms(self, mask):
        return frozenset(t for i, t in enumerate(self.terminal_order) if mask >> i & 1)

    def superset_masks(self, Q):
        """Slack-table indices of the terminal sets S >= Q, ascending."""
        q = self.term_mask(Q)
        masks = np.arange(1 << len(self.terminal_order), dtype=np.int64)
        return np.flatnonzero(masks & q == q)

    def copy_terminals(self, copy):
        """The terminals of R the copy's terminal vertices stand for."""
        return frozenset(self.terminal_of[v] for v in copy.vertices if v in self.terminal_of)

    def terminal_vertices(self, copy):
        """The copy's terminal vertices, ordered by the terminal each
        stands for."""
        return sorted((v for v in copy.vertices if v in self.terminal_of),
                      key=self.terminal_of.__getitem__)

    def copy_masks(self):
        """Copy id -> terminal mask of the copy; built on first use."""
        if self._masks is None:
            self._masks = {c.id: self.term_mask(c.vertices) for c in self.copies}
        return self._masks

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
        (vertex tuple, edge id tuple) pieces, single vertices included, in
        the order of what their union-find representatives stand for
        (`terminal_of`, else the vertex itself)."""
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
        stand = self.terminal_of.get
        return [(tuple(verts[r]), tuple(eids[r]))
                for r in sorted(verts, key=lambda r: stand(r, r))]

    def edge_slots(self):
        """Edge id -> (copy id, terminal mask below the edge, the edge's
        position bit, the bits of its ancestor edges), positions and bits
        counted in the copy's `edge_ids`, with each copy rooted at the
        first end of its first edge; built on first use, one walk per
        shape, or carried by `contract`.  The copy's own mask is its
        entry in `copy_masks`.

        Under a set C of the copy's edges removed, the piece holding an
        edge e outside C has the terminal mask: the copy's mask, AND
        below(f) for each ancestor f of e in C, AND NOT below(f) for each
        other f in C.  Removing e splits it into piece & below(e) and
        piece & ~below(e), whichever vertex is the root."""
        if self._slots is None:
            self._slots = self.walk_slots(self.copies, attrgetter("shape"))
        return self._slots

    def walk_slots(self, copies, key):
        """The slots of the edges of `copies`, one `_walk` per distinct
        key(copy): per shape for `edge_slots`, per copy for check mode."""
        slots, walks = {}, {}
        for copy in copies:
            if key(copy) not in walks:
                walks[key(copy)] = self._walk(copy)
            slots.update(zip(copy.edge_ids, [(copy.id,) + row for row in walks[key(copy)]]))
        return slots

    def _walk(self, copy):
        """[(below, bit, ancestor bits)] by position in one copy, by one
        `instance.orient` from the root `edge_slots` names."""
        tbit = self._tbit
        pos = {eid: i for i, eid in enumerate(copy.edge_ids)}
        root = self.edges[copy.edge_ids[0]].u
        order, parent = orient(self.adjacency(copy.vertices, copy.edge_ids), [root])
        below = {v: tbit.get(v, 0) for v in order}
        for v in reversed(order[1:]):
            below[parent[v][0]] |= below[v]
        up = {root: 0}
        rows = [None] * len(copy.edge_ids)
        for v in order[1:]:
            p, eid = parent[v]
            up[v] = up[p] | 1 << pos[eid]
            rows[pos[eid]] = (below[v], 1 << pos[eid], up[p])
        return rows

    def slack_table(self, F=frozenset()):
        """numpy int64 vector of h(S) over all 2^|R| terminal masks (entry 0
        is set to 0 by convention).  Ids in F that are not edges of the
        graph are ignored; the copies F cuts are split by `copy_pieces`,
        and with F nonempty every mask is read off the copies' vertices.
        The table of X itself (F empty) is summed from `copy_masks`,
        built once and shared, so it is read-only."""
        r = len(self.terminal_order)
        if r > TABLE_TERMINAL_CAP:
            raise ValueError("terminal set too large for slack tables")
        F = frozenset(F)
        if not F and self._table is not None:
            return self._table
        if F:
            masks = Counter()
            for copy in self.copies:
                if F.isdisjoint(copy.edge_ids):
                    masks[self.term_mask(copy.vertices)] += 1
                else:
                    masks.update(self.term_mask(vs) for vs, _ in self.copy_pieces(copy, F))
        else:
            masks = Counter(self.copy_masks().values())
        idx = np.arange(1 << r, dtype=np.int64)
        pcm1 = pcm1_table(r)
        h = self.N * (pcm1 + np.minimum(idx, 1) - 1)  # popcount = (x-1)+ + [x>0]
        for m, count in masks.items():
            if m & (m - 1):  # two terminals or more
                h -= count * pcm1[idx & m]
        h[0] = 0
        if not F:
            h.setflags(write=False)
            self._table = h
        return h

    def is_feasible(self):
        """LP feasibility of the blowup: h >= 0 everywhere and h(R) = 0."""
        h = self.slack_table()
        return bool(h.min() >= 0 and h[-1] == 0)

    # ---- contraction (returns a new graph) -------------------------------

    def contract(self, F, TQ):
        """(X - F)/Q: drop the edges F, split the copies they touch into
        their pieces (pieces with no edges vanish) and identify the
        terminal class TQ to one fresh terminal z, in `terminal_of`: no
        vertex is renamed.  Copies F leaves alone stay the same objects,
        their edges too; pieces take fresh ids and shapes.  No copy or
        piece may hold two terminals of TQ (true after a basis removal),
        read off its terminal mask.  Returns (graph, z, the pieces as
        copies of the graph).

        Only the pieces are walked for the new graph's edge slots and
        masked; every other copy carries its slots over with their below
        masks remapped, and its terminal mask, remapped once, through one
        `_Remap` (module docstring)."""
        F, TQ = frozenset(F), frozenset(TQ)
        if len(TQ) < 2 or not TQ <= self.R:
            raise ValueError("need >= 2 existing terminals to contract")
        z, cid = self._next_vid, self._next_cid
        edges = dict(self.edges)
        for eid in F:
            edges.pop(eid, None)
        copies, carried, pieces = [], [], []
        for copy in self.copies:
            if F.isdisjoint(copy.edge_ids):
                copies.append(copy)
                carried.append(copy)
                continue
            if F.issuperset(copy.edge_ids):
                continue  # no piece keeps an edge
            for vs, eids in self.copy_pieces(copy, F):
                if eids:
                    p = BlowupCopy(cid, eids, vs, ("p", cid))
                    cid += 1
                    copies.append(p)
                    pieces.append(p)
        tq, slots = self.term_mask(TQ), self.edge_slots()
        masks = {**self.copy_masks(), **{p.id: self.term_mask(p.vertices) for p in pieces}}
        for c in copies:
            hits = masks[c.id] & tq
            if hits & (hits - 1):
                raise ValueError("copy %d spans several terminals of the "
                                 "contracted component" % c.id)
        terminal_of = {v: z if t in TQ else t for v, t in self.terminal_of.items()}
        terminal_of[z] = z
        X2 = BlowupGraph(self.N, (self.R - TQ) | {z}, copies, edges,
                         z + 1, self._next_eid, cid, terminal_of)
        remap = _Remap(tq, len(X2.terminal_order))
        X2._masks = {c.id: remap[masks[c.id]] for c in copies}
        X2._slots = X2.walk_slots(pieces, attrgetter("id"))
        for c in carried:
            for eid in c.edge_ids:
                ci, below, bit, up = slots[eid]
                X2._slots[eid] = (ci, remap[below], bit, up)
        return X2, z, pieces


class _Remap(dict):
    """Terminal mask of X -> terminal mask of (X - F)/Q, filled on first
    use.  z is the largest vertex id, so it takes the top bit, and the
    other terminals keep their order: m maps to
    compress(m & ~tq) | [m & tq != 0] << (r2 - 1), where compress closes
    the gaps the bits of tq leave."""

    __slots__ = ("tq", "gaps", "top")

    def __init__(self, tq, r2):
        super().__init__()
        self.tq = tq
        self.gaps = [i for i in reversed(range(tq.bit_length())) if tq >> i & 1]
        self.top = 1 << (r2 - 1)

    def __missing__(self, m):
        out = m & ~self.tq
        for i in self.gaps:
            out = out & ((1 << i) - 1) | out >> (i + 1) << i
        if m & self.tq:
            out |= self.top
        self[m] = out
        return out


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


def blowup_from_solution(instance, solution):
    """BlowupGraph of a fractional solution, edge costs taken from the
    instance the components were enumerated on."""
    N = lcm_denominators(solution.values.values())
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
        for _ in range(scaled(solution.values[comp], N)):
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
    """The subset rows of the terminal masks in `masks`, as Python ints
    read off `pcm1_table`: (|S cap C| - 1)+ per component C, and the
    right-hand sides |S| - 1 (every S is nonempty)."""
    pcm1 = pcm1_table(len(terminal_order))
    cmasks = np.array([c.bitmask(terminal_order) for c in components], dtype=np.int64)
    return [pcm1[m & cmasks].tolist() for m in masks], pcm1[list(masks)].tolist()


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
    eq_row = [[len(comp.terminals) - 1 for comp in components]]
    x, _ = solve_lp(c, rows, rhs, eq_row, [len(R) - 1])
    vals = {comp: xi for comp, xi in zip(components, x) if xi != 0}
    return FractionalSolution(instance.terminals, vals)


def _most_violated(instance, sol):
    """Terminal mask of a most-violated subset constraint, or None if sol is
    feasible.  Ties: most negative slack, then smallest bitmask."""
    from . import sepflow
    X = blowup_from_solution(instance, sol)
    return sepflow.most_violated_mask(X)
