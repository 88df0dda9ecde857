"""Bidirected cut relaxation (BCR) on quasi-bipartite graphs and its
natural decomposition into a component-LP optimum.

BCR(r): pick a root terminal r, give every edge two opposing arcs with
the edge cost, and ask for cheapest capacities x so that every cut
separating a terminal from r carries at least one unit, i.e.
x(out-arcs of S) >= 1 for all S avoiding r that contain a terminal.
Solved exactly by cutting planes: separation is a max flow from each
terminal to r under capacities x; a flow below 1 yields a violated cut
(the residual source side).

On quasi-bipartite instances (no Steiner-Steiner edges, and after
splitting terminal-terminal edges through dummy Steiner nodes) all flow
moves through stars centered at Steiner vertices.  The natural
decomposition peels those stars off greedily: relocate the root to the
star center's cheapest flow-carrying neighbour (after which the center
sends flow only toward that neighbour), bundle the incoming star arcs
with the single outgoing arc, emit that star as a component with weight
equal to the bottleneck capacity, subtract, and repeat.  The result is a
feasible point of the component LP with exactly the BCR objective; both
facts are asserted, not assumed.
"""

from .ratio import Rat, R0, R1
from .instance import SteinerInstance, edge_key
from .components import Component
from .hyperlp import FractionalSolution, blowup_from_solution
from .simplexq import solve_lp
from .sepflow import FlowNet


class DecompositionError(Exception):
    def __init__(self, msg, details=None):
        super().__init__(msg)
        self.details = details or {}


class BcrSolution:
    """Exact BCR point: root, per-arc capacities, objective."""

    __slots__ = ("instance", "root", "x", "objective")

    def __init__(self, instance, root, x, objective=None):
        self.instance = instance
        self.root = root
        self.x = {a: Rat(v) for a, v in x.items() if v != 0}
        for a, v in self.x.items():
            if v < 0:
                raise ValueError("negative capacity on arc %s" % (a,))
        if objective is None:
            objective = sum((v * instance.costs[edge_key(*a)]
                             for a, v in self.x.items()), R0)
        self.objective = Rat(objective)


def preprocess_quasi(inst):
    """Split every terminal-terminal edge through a fresh Steiner node,
    halving the cost onto each side.  Identity when no such edge exists.
    Rejects non-quasi-bipartite instances."""
    if not inst.is_quasi_bipartite():
        raise ValueError("instance has an edge between two Steiner vertices")
    tt = [e for e in inst.costs if e[0] in inst.terminals and e[1] in inst.terminals]
    if not tt:
        return inst
    costs = {e: c for e, c in inst.costs.items() if e not in set(tt)}
    nxt = max(inst.vertices) + 1
    verts = set(inst.vertices)
    for (a, b) in sorted(tt):
        c = inst.costs[(a, b)]
        d = nxt
        nxt += 1
        verts.add(d)
        costs[edge_key(a, d)] = c / 2
        costs[edge_key(d, b)] = c / 2
    return SteinerInstance(verts, costs, inst.terminals)


def _arcs(inst):
    out = []
    for (u, v) in sorted(inst.costs):
        out.append((u, v))
        out.append((v, u))
    return out


def _net(x, weights=None):
    """FlowNet over the arcs of x, plus a hub for each component peeled so
    far, joined both ways to the component's terminals with throughput =
    its weight.  Returns the net and the handle of each arc of x."""
    net = FlowNet()
    handles = {a: net.add_arc(a[0], a[1], v) for a, v in x.items()}
    for i, (comp, w) in enumerate(sorted((weights or {}).items(),
                                         key=lambda cw: cw[0].edges)):
        hub = ("hub", i)
        for t in sorted(comp.terminals):
            net.add_arc(t, hub, w)
            net.add_arc(hub, t, w)
    return net, handles


def _flow_value_and_cut(x, s, t):
    """Max s->t flow under arc capacities x; returns (value, source side)."""
    net, _ = _net(x)
    return net.max_flow(s, t), net.source_side(s)


def solve_bcr(inst, r=None):
    """Exact optimal BcrSolution via cutting planes (basic optimum from
    the rational simplex).

    A cut is the source side S of a flow below 1 from a terminal to r;
    its row is the integer row -x(out-arcs of S) <= -1.  The first cuts
    are the single terminals other than r."""
    if r is None:
        r = min(inst.terminals)
    if r not in inst.terminals:
        raise ValueError("root must be a terminal")
    arcs = _arcs(inst)
    cost = [inst.costs[edge_key(*a)] for a in arcs]
    others = sorted(inst.terminals - {r})
    cuts = {}  # source side -> its row, in the order the cuts are found
    sides = [frozenset({t}) for t in others]
    while True:
        for S in sides:
            if S not in cuts:
                cuts[S] = [-1 if u in S and v not in S else 0 for u, v in arcs]
        xs, obj = solve_lp(cost, list(cuts.values()), [-1] * len(cuts))
        x = {a: v for a, v in zip(arcs, xs) if v != 0}
        sides = []
        for t in others:
            val, side = _flow_value_and_cut(x, t, r)
            if val < 1:
                sides.append(frozenset(side))
        if not sides:
            return BcrSolution(inst, r, x, obj)
        if all(S in cuts for S in sides):
            raise AssertionError("cut violated but already present; separation bug")


def relocate_root(sol, new_root, weights=None):
    """Reverse one unit of new_root -> old_root flow inside the
    capacities; the result is feasible for the new root and costs the
    same (edge costs are symmetric).

    During the decomposition, `weights` holds the components peeled so
    far: the unit flow may ride through them as hubs, and only the
    portion on real arcs gets reversed (components carry flow in any
    direction for free)."""
    if new_root == sol.root:
        return sol
    if new_root not in sol.instance.terminals:
        raise ValueError("new root must be a terminal")
    net, handles = _net(sol.x, weights)
    src = ("relocate-src",)
    net.add_arc(src, new_root, R1)
    pushed = net.max_flow(src, sol.root)
    if pushed != 1:
        raise DecompositionError("no unit flow from new root to old root",
                                 {"pushed": pushed})
    x2 = dict(sol.x)
    for a, fwd in handles.items():
        f = sol.x[a] - fwd[1]  # flow shipped on this arc
        if f != 0:
            ra = (a[1], a[0])
            x2[a] = x2.get(a, R0) - f
            x2[ra] = x2.get(ra, R0) + f
    out = BcrSolution(sol.instance, new_root, x2)
    assert out.objective == sol.objective
    return out


def _check_transfer_feasible(sol, weights):
    """Remaining capacities plus the components peeled so far must still
    support a unit flow from every terminal to the root (each emitted
    component acts as a hub of throughput = its weight between its
    terminals)."""
    return all(_net(sol.x, weights)[0].max_flow(t, sol.root) >= 1
               for t in sorted(sol.instance.terminals - {sol.root}))


def natural_decomposition(sol, check=False):
    """FractionalSolution of the component LP with the same objective.

    Requires an optimal BCR point on a preprocessed quasi-bipartite
    instance (no terminal-terminal edges).  With check=True the capacity
    vector is re-separated after every transfer step.

    One pass over the Steiner centres peels each star until it is
    empty, and no star it has emptied regains capacity: `relocate_root`
    reverses flow only on arcs with positive capacity (hub arcs join
    terminals, never a centre), and a peel at u changes only arcs at u.
    So after the pass every arc at a centre is 0, and, with no
    terminal-terminal edge, every arc."""
    inst = sol.instance
    R = inst.terminals
    for (u, v) in inst.costs:
        if u in R and v in R:
            raise ValueError("preprocess the instance first (terminal-terminal edge)")
    obj0 = sol.objective
    weights = {}
    cap = 4 * len(inst.costs) * len(inst.costs) + 16
    steps = 0
    for u in sorted(v for v in inst.vertices if v not in R):
        while True:
            star = sorted(s for s, _ in inst.neighbors(u)
                          if sol.x.get((s, u), R0) > 0 or sol.x.get((u, s), R0) > 0)
            if not star:
                break
            steps += 1
            if steps > cap:
                raise DecompositionError("transfer loop exceeded step bound",
                                         {"steps": steps})
            r = min(star, key=lambda s: (inst.costs[edge_key(u, s)], s))
            sol = relocate_root(sol, r, weights)
            inflow = [s for s in star if s != r and sol.x.get((s, u), R0) > 0]
            H = [(u, r)] + [(s, u) for s in inflow]
            eps = min(sol.x.get(a, R0) for a in H)
            if eps <= 0:
                raise DecompositionError(
                    "star with stuck capacity (non-optimal or non-basic input?)",
                    {"center": u, "root": r, "H": H,
                     "caps": {a: sol.x.get(a, R0) for a in H}})
            if not inflow:
                raise DecompositionError(
                    "outgoing star capacity with no incoming flow",
                    {"center": u, "root": r, "cap": sol.x.get((u, r), R0)})
            terms = frozenset([r] + inflow)
            edges = tuple(sorted(edge_key(u, s) for s in [r] + inflow))
            comp = Component(terms, edges,
                             sum((inst.costs[e] for e in edges), R0))
            weights[comp] = weights.get(comp, R0) + eps
            x2 = dict(sol.x)
            for a in H:
                x2[a] -= eps
            sol = BcrSolution(inst, r, x2)
            if check and not _check_transfer_feasible(sol, weights):
                raise DecompositionError("capacity vector lost BCR feasibility",
                                         {"center": u, "eps": eps})
    if any(v > 0 for v in sol.x.values()):
        raise DecompositionError("positive capacity left outside all stars",
                                 {"x": sol.x})
    out = FractionalSolution(R, weights)
    if not blowup_from_solution(inst, out).is_feasible():
        raise DecompositionError("decomposed point infeasible for the component LP")
    if out.objective != obj0:
        raise DecompositionError("decomposed objective differs from BCR objective",
                                 {"bcr": obj0, "decomposed": out.objective})
    return out
