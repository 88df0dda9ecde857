"""Output checks that do not trust the program under test.

Every function here returns None when its check passes and a short
description of the first problem otherwise.  Exact checks use Python
integers and ``fractions.Fraction``; the float references are solved by
scipy's HiGHS from models built here, not by the package's own LP code.
"""

import math
from fractions import Fraction

# rational surrogate just above ln 4, the factor the DP splitting rule certifies
Q_LN4 = Fraction(1386295, 10 ** 6)
Q_QUASI = Fraction(73, 60)
HIGHS_RTOL = 1e-9


def _key(u, v):
    return (u, v) if u < v else (v, u)


def _is_tree(edges):
    """Adjacency of `edges` when they form one nonempty tree, else None."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if not adj or len(edges) != len(adj) - 1:
        return None
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return adj if len(seen) == len(adj) else None


def tree_problem(costs, terminals, edges, claimed_cost):
    """The edge set is a tree of the graph `costs` (edge key -> cost) that
    spans `terminals`, and its exact cost is `claimed_cost`."""
    edges = {_key(u, v) for u, v in edges}
    missing = [e for e in edges if e not in costs]
    if missing:
        return "tree edge %s not in the instance" % (missing[0],)
    adj = _is_tree(edges)
    if adj is None:
        return "tree edges are disconnected or contain a cycle"
    if not set(terminals) <= set(adj):
        return "tree misses terminals %s" % sorted(set(terminals) - set(adj))
    cost = sum((Fraction(costs[e]) for e in edges), Fraction(0))
    if cost != claimed_cost:
        return "tree cost %s, claimed %s" % (cost, claimed_cost)
    return None


def chain_problem(tree_cost, N, phi0, q, value):
    """The certificate chain tree * N <= phi0 <= q * N * value, exactly."""
    if not tree_cost * N <= phi0:
        return "tree * N = %s exceeds phi0 = %s" % (tree_cost * N, phi0)
    if not phi0 <= q * N * value:
        return "phi0 = %s exceeds %s * N * value = %s" % (phi0, q, q * N * value)
    return None


def full_component_problem(costs, terminals, comp_terminals, comp_edges, comp_cost):
    """The component is a tree of the graph whose leaves are exactly its
    terminals, with no other terminal on it, at its stated cost."""
    edges = {_key(u, v) for u, v in comp_edges}
    if any(e not in costs for e in edges):
        return "component edge not in the instance"
    adj = _is_tree(edges)
    if adj is None:
        return "component is not a tree"
    leaves = {v for v, ws in adj.items() if len(ws) == 1}
    if leaves != set(comp_terminals):
        return "component leaves %s differ from its terminals %s" % (
            sorted(leaves), sorted(comp_terminals))
    if (set(adj) - leaves) & set(terminals):
        return "component has a terminal as an internal vertex"
    cost = sum((Fraction(costs[e]) for e in edges), Fraction(0))
    if cost != comp_cost:
        return "component cost %s, stated %s" % (cost, comp_cost)
    return None


def feasibility_problem(terminals, point):
    """Brute force over every terminal subset S: the point (list of
    (component terminal set, value)) satisfies
    sum x_C (|S cap C| - 1)+ <= |S| - 1, with equality at S = R."""
    R = sorted(terminals)
    idx = {t: i for i, t in enumerate(R)}
    if any(v < 0 for _, v in point):
        return "negative component value"
    N = 1
    for _, v in point:
        N = math.lcm(N, Fraction(v).denominator)
    weighted = []
    for terms, v in point:
        m = 0
        for t in terms:
            if t not in idx:
                return "component terminal %s is not a terminal" % t
            m |= 1 << idx[t]
        weighted.append((m, int(Fraction(v) * N)))
    full = (1 << len(R)) - 1
    for S in range(1, full + 1):
        load = 0
        for m, w in weighted:
            k = bin(S & m).count("1")
            if k > 1:
                load += w * (k - 1)
        bound = N * (bin(S).count("1") - 1)
        if load > bound:
            return "subset %s overloaded: %s > %s" % (
                [t for t in R if S >> idx[t] & 1], Fraction(load, N), bound // N)
        if S == full and load != bound:
            return "full terminal set load %s != |R| - 1" % Fraction(load, N)
    return None


def point_cost(costs, point_edges):
    """Exact cost of a fractional point given as (component edges, value)."""
    return sum((Fraction(v) * sum((Fraction(costs[_key(*e)]) for e in edges), Fraction(0))
                for edges, v in point_edges), Fraction(0))


def close(a, b, rtol=HIGHS_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def highs_component_lp(terminals, components):
    """Float optimum of the component LP with every subset row, solved by
    HiGHS.  components: list of (terminal set, cost)."""
    import numpy as np
    from scipy.optimize import linprog

    R = sorted(terminals)
    idx = {t: i for i, t in enumerate(R)}
    cmask = np.array([sum(1 << idx[t] for t in terms) for terms, _ in components],
                     dtype=np.int64)
    masks = np.arange(1, 1 << len(R), dtype=np.int64)
    inter = masks[:, None] & cmask[None, :]
    pop = np.zeros_like(inter)
    for i in range(len(R)):
        pop += (inter >> i) & 1
    A_ub = np.maximum(pop - 1, 0).astype(float)
    mpop = np.zeros_like(masks)
    for i in range(len(R)):
        mpop += (masks >> i) & 1
    b_ub = (mpop - 1).astype(float)
    A_eq = np.array([[len(terms) - 1 for terms, _ in components]], dtype=float)
    b_eq = np.array([len(R) - 1], dtype=float)
    c = np.array([float(cost) for _, cost in components])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError("HiGHS component LP: %s" % res.message)
    return float(res.fun)


def highs_bcr(vertices, costs, terminals):
    """Float optimum of the bidirected cut relaxation as a compact
    multi-commodity flow: one unit from every terminal to the root
    (smallest terminal) under shared arc capacities x, minimizing
    sum c_e x_a.  Solved by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    root = min(terminals)
    sinks = [t for t in sorted(terminals) if t != root]
    V = sorted(vertices)
    vi = {v: i for i, v in enumerate(V)}
    arcs = []
    for (u, v) in sorted(costs):
        arcs.append((u, v))
        arcs.append((v, u))
    A = len(arcs)
    K = len(sinks)
    nvar = A * (K + 1)  # x then one flow block per commodity
    c = np.zeros(nvar)
    c[:A] = [float(costs[_key(u, v)]) for u, v in arcs]
    rows, cols, vals = [], [], []
    b_eq = np.zeros(K * len(V))
    for k, t in enumerate(sinks):
        base = A * (k + 1)
        for a, (u, v) in enumerate(arcs):
            # net outflow at u, inflow at v
            rows += [k * len(V) + vi[u], k * len(V) + vi[v]]
            cols += [base + a, base + a]
            vals += [1.0, -1.0]
        b_eq[k * len(V) + vi[t]] = 1.0
        b_eq[k * len(V) + vi[root]] = -1.0
    A_eq = coo_matrix((vals, (rows, cols)), shape=(K * len(V), nvar)).tocsr()
    rows, cols, vals = [], [], []
    for k in range(K):
        for a in range(A):
            r = k * A + a
            rows += [r, r]
            cols += [A * (k + 1) + a, a]
            vals += [1.0, -1.0]
    A_ub = coo_matrix((vals, (rows, cols)), shape=(K * A, nvar)).tocsr()
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(K * A), A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError("HiGHS BCR: %s" % res.message)
    return float(res.fun)


def subdivision_problem(orig_costs, terminals, pre_vertices, pre_costs):
    """`pre` is `orig` with some terminal-terminal edges subdivided by a
    fresh degree-2 Steiner vertex, half the cost on each side."""
    orig_vertices = {v for e in orig_costs for v in e}
    kept = {e: c for e, c in pre_costs.items() if e[0] in orig_vertices and e[1] in orig_vertices}
    for e, c in kept.items():
        if orig_costs.get(e) != c:
            return "edge %s changed by preprocessing" % (e,)
    halves = {}
    for (u, v), c in pre_costs.items():
        if (u, v) in kept:
            continue
        new = v if v not in orig_vertices else u
        halves.setdefault(new, []).append((u if new == v else v, c))
    for d, ends in halves.items():
        if len(ends) != 2:
            return "subdivision vertex %s has degree %d" % (d, len(ends))
        (a, ca), (b, cb) = ends
        e = _key(a, b)
        if a not in terminals or b not in terminals or e in kept:
            return "subdivision vertex %s does not replace a terminal-terminal edge" % d
        if ca + cb != orig_costs.get(e) or ca != cb:
            return "subdivided edge %s costs differ" % (e,)
    if len(kept) + len(halves) != len(orig_costs):
        return "preprocessing lost or added edges"
    if set(pre_vertices) != orig_vertices | set(halves):
        return "preprocessing changed the vertex set"
    return None


def unsubdivide(pre_edges, orig_vertices):
    """Map a tree of the preprocessed instance back to original edges:
    every path a - d - b through a subdivision vertex d becomes (a, b)."""
    out = set()
    through = {}
    for u, v in pre_edges:
        if u in orig_vertices and v in orig_vertices:
            out.add(_key(u, v))
        else:
            d, w = (u, v) if u not in orig_vertices else (v, u)
            through.setdefault(d, []).append(w)
    for d, ends in through.items():
        if len(ends) != 2:
            return None  # half a subdivided edge: not a tree of the original
        out.add(_key(*ends))
    return out
