"""The four workloads: seeded corpus builders, the per-instance solve (the
timed operation) and the per-instance output checks.

An operation is one instance.  It starts from STP text, as the CLI does,
and calls the same public functions the CLI calls, looked up on their
modules at call time so the traced run sees them.
"""

import random
from fractions import Fraction

import checks


class Item:
    """One corpus instance: the generated instance (the checks' reference
    input), its STP text (the solve's input) and, for frac-contract, the
    fractional point."""

    __slots__ = ("inst", "text", "point")

    def __init__(self, inst, text, point=None):
        self.inst = inst
        self.text = text
        self.point = point


class Workload:
    def __init__(self, name, size, make, solve, check):
        self.name = name
        self.size = size      # instances per round
        self.make = make      # (hs, rng, i) -> Item
        self.solve = solve    # (hs, item, capture) -> output dict
        self.check = check    # (hs, item, output, memo) -> (problems, ratios)

    def build(self, hs, seed, size=None):
        rng = random.Random("%s:%d" % (self.name, seed))
        return [self.make(hs, rng, i) for i in range(size or self.size)]


def _item(hs, inst, point=None):
    return Item(inst, hs.instance.render_stp(inst), point)


# ---- corpus makers ---------------------------------------------------------


def make_dense(hs, rng, i):
    # |R| = 5, Steiner counts cycle 3, 4, 5 so every round holds each size
    return _item(hs, hs.instance.generate_random(5, 3 + i % 3, 0.45, seed=rng.getrandbits(32)))


def make_sparse(hs, rng, i):
    return _item(hs, hs.instance.generate_random(5, 60, 0.05, seed=rng.getrandbits(32)))


def make_quasi(hs, rng, i):
    # the criterion-11 generator (quasi-bipartite, density 0.4) at its
    # smallest size; larger sizes make the time per instance heavy-tailed
    return _item(hs, hs.instance.generate_random(3, 2, 0.4, seed=rng.getrandbits(32),
                                                 quasi_bipartite=True))


FRAC_TERMINALS, FRAC_STEINER, FRAC_DENSITY, FRAC_TREES = 8, 8, 0.3, 12


def make_frac(hs, rng, i):
    """Equal-weight mixture of the full components of FRAC_TREES Steiner
    trees; drawn again in the rare case that every tree came out the same
    (the point would be integral, N = 1)."""
    inst = hs.instance.generate_random(FRAC_TERMINALS, FRAC_STEINER, FRAC_DENSITY,
                                       seed=rng.getrandbits(32))
    values = {}
    while all(v.denominator == 1 for v in values.values()):
        values = {}
        for _ in range(FRAC_TREES):
            for comp in full_components(inst.terminals, perturbed_steiner_tree(inst, rng)):
                values[comp] = values.get(comp, 0) + Fraction(1, FRAC_TREES)
    point = {hs.components.Component(terms, edges, sum(inst.costs[e] for e in edges)): v
             for (terms, edges), v in values.items()}
    return _item(hs, inst, hs.hyperlp.FractionalSolution(inst.terminals, point))


def perturbed_steiner_tree(inst, rng):
    """A Steiner tree of the instance: minimum spanning tree under costs
    scaled by random factors in [1/2, 2], non-terminal leaves pruned."""
    order = sorted(inst.costs, key=lambda e: (float(inst.costs[e]) * rng.uniform(0.5, 2.0), e))
    parent = {v: v for v in inst.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = set()
    for u, v in order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add((u, v))
    while True:
        deg = {}
        for u, v in tree:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        leaves = {e for e in tree
                  if any(deg[x] == 1 and x not in inst.terminals for x in e)}
        if not leaves:
            return tree
        tree -= leaves


def full_components(terminals, tree):
    """Split a Steiner tree at its terminals: (terminal set, edge tuple) of
    every maximal subtree whose terminals are all leaves."""
    adj = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    done = set()
    out = []
    for e in sorted(tree):
        if e in done:
            continue
        edges = {e}
        terms = {x for x in e if x in terminals}
        stack = [x for x in e if x not in terminals]
        seen = set(stack)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                k = (x, y) if x < y else (y, x)
                if k in edges:
                    continue
                edges.add(k)
                if y in terminals:
                    terms.add(y)
                elif y not in seen:
                    seen.add(y)
                    stack.append(y)
        done |= edges
        out.append((frozenset(terms), tuple(sorted(edges))))
    return out


# ---- the timed operation -----------------------------------------------------


class Capture:
    """Keeps the components and LP solution contract_alg.run computes, so
    the checks can re-solve the same LP.  Installed for the whole run."""

    def __init__(self, hs):
        self.ca = hs.contract_alg
        self.last = {}
        self._orig = {}

    def __enter__(self):
        for attr in ("enumerate_components", "solve_lp_exact"):
            orig = self._orig[attr] = self.ca.__dict__[attr]
            setattr(self.ca, attr, self._keep(attr, orig))
        return self

    def _keep(self, attr, fn):
        last = self.last

        def kept(*args, **kwargs):
            out = last[attr] = fn(*args, **kwargs)
            return out
        return kept

    def __exit__(self, *exc):
        for attr, orig in self._orig.items():
            setattr(self.ca, attr, orig)


def solve_dp(hs, item, capture):
    inst = hs.instance.parse_stp(item.text)
    tree, cert = hs.contract_alg.run(inst)
    return {"tree": tree, "cert": cert,
            "components": capture.last.pop("enumerate_components", None),
            "solution": capture.last.pop("solve_lp_exact", None)}


def solve_quasi(hs, item, capture):
    inst = hs.instance.parse_stp(item.text)
    pre = hs.bcr_quasi.preprocess_quasi(inst)
    bcr = hs.bcr_quasi.solve_bcr(pre)
    dec = hs.bcr_quasi.natural_decomposition(bcr)
    tree, cert = hs.contract_alg.run_from_solution(pre, dec, strategy="quasi")
    return {"tree": tree, "cert": cert, "pre": pre, "bcr": bcr, "dec": dec}


def solve_frac(hs, item, capture):
    inst = hs.instance.parse_stp(item.text)
    tree, cert = hs.contract_alg.run_from_solution(inst, item.point, strategy="dp")
    return {"tree": tree, "cert": cert}


# ---- checks ------------------------------------------------------------------


def _memo(memo, key, fn):
    if key not in memo:
        memo[key] = fn()
    return memo[key]


def _point(sol):
    return [(c.terminals, v) for c, v in sol.values.items()]


def _common(inst, out, value, q):
    """Tree re-validation and the exact certificate chain against `value`."""
    tree, cert = out["tree"], out["cert"]
    problems = [checks.tree_problem(inst.costs, inst.terminals, tree.edges, cert["tree_cost"])]
    if tree.cost != cert["tree_cost"]:
        problems.append("tree object cost %s != certificate %s" % (tree.cost, cert["tree_cost"]))
    problems.append(checks.chain_problem(cert["tree_cost"], cert["N"], cert["phi_initial"],
                                         q, value))
    return problems


def _ratios(cert, value):
    return (float(cert["tree_cost"] / value), float(cert["phi_initial"] / cert["N"] / value))


def check_dp(hs, item, out, memo):
    inst, cert, sol = item.inst, out["cert"], out["solution"]
    comps = out["components"]
    if sol is None or comps is None:
        return ["components or LP solution not captured"], None
    lp = sol.objective
    problems = _common(inst, out, lp, checks.Q_LN4)
    if cert["lp_value"] != lp:
        problems.append("certificate LP %s != solution objective %s" % (cert["lp_value"], lp))
    for c in sol.values:
        problems.append(checks.full_component_problem(inst.costs, inst.terminals,
                                                      c.terminals, c.edges, c.cost))
    if checks.point_cost(inst.costs, [(c.edges, v) for c, v in sol.values.items()]) != lp:
        problems.append("LP objective differs from the cost of its support")
    problems.append(checks.feasibility_problem(inst.terminals, _point(sol)))
    key = ("lp", tuple((c.terminals, c.cost) for c in comps))
    highs_lp = _memo(memo, key, lambda: checks.highs_component_lp(
        inst.terminals, [(c.terminals, c.cost) for c in comps]))
    if not checks.close(highs_lp, float(lp)):
        problems.append("exact LP %s, HiGHS %r" % (lp, highs_lp))
    bcr = _memo(memo, "bcr", lambda: checks.highs_bcr(inst.vertices, inst.costs, inst.terminals))
    opt = _memo(memo, "opt", lambda: hs.oracles.exact_steiner_tree(inst)[0])
    if not bcr <= float(lp) + checks.HIGHS_RTOL * max(1.0, bcr):
        problems.append("HiGHS BCR %r above LP %s" % (bcr, lp))
    if not lp <= opt <= cert["tree_cost"]:
        problems.append("LP %s <= OPT %s <= tree %s fails" % (lp, opt, cert["tree_cost"]))
    return [p for p in problems if p], _ratios(cert, lp)


def check_quasi(hs, item, out, memo):
    inst, cert, pre, bcr, dec = item.inst, out["cert"], out["pre"], out["bcr"], out["dec"]
    problems = [checks.subdivision_problem(inst.costs, inst.terminals, pre.vertices, pre.costs)]
    if problems[0]:
        return problems, None
    tree = out["tree"]
    orig_edges = checks.unsubdivide(tree.edges, inst.vertices)
    if orig_edges is None:
        return ["tree uses half of a subdivided edge"], None
    problems.append(checks.tree_problem(inst.costs, inst.terminals, orig_edges,
                                        cert["tree_cost"]))
    value = bcr.objective
    problems += _common(pre, out, value, checks.Q_QUASI)
    arcs_cost = sum((v * pre.costs[(min(a), max(a))] for a, v in bcr.x.items()), Fraction(0))
    if arcs_cost != value:
        problems.append("BCR objective %s != cost of its arcs %s" % (value, arcs_cost))
    highs = _memo(memo, "bcr", lambda: checks.highs_bcr(inst.vertices, inst.costs, inst.terminals))
    if not checks.close(highs, float(value)):
        problems.append("exact BCR %s, HiGHS %r" % (value, highs))
    for c in dec.values:
        problems.append(checks.full_component_problem(pre.costs, pre.terminals,
                                                      c.terminals, c.edges, c.cost))
    if checks.point_cost(pre.costs, [(c.edges, v) for c, v in dec.values.items()]) != value:
        problems.append("decomposed point does not cost exactly the BCR optimum")
    problems.append(checks.feasibility_problem(pre.terminals, _point(dec)))
    if cert["lp_value"] != value:
        problems.append("certificate value %s != BCR %s" % (cert["lp_value"], value))
    if not 60 * cert["tree_cost"] <= 73 * value:
        problems.append("60 * tree > 73 * BCR")
    return [p for p in problems if p], _ratios(cert, value)


def check_frac(hs, item, out, memo):
    inst, cert, point = item.inst, out["cert"], item.point
    value = checks.point_cost(inst.costs, [(c.edges, v) for c, v in point.values.items()])

    def point_problems():
        found = [checks.full_component_problem(inst.costs, inst.terminals, c.terminals,
                                               c.edges, c.cost) for c in point.values]
        found.append(checks.feasibility_problem(inst.terminals, _point(point)))
        return [p for p in found if p]

    problems = list(_memo(memo, "point", point_problems))
    problems += _common(inst, out, value, checks.Q_LN4)
    if cert["lp_value"] != value:
        problems.append("certificate value %s != cost(x) %s" % (cert["lp_value"], value))
    if not cert["N"] > 1:
        problems.append("blowup has N = %s, not > 1" % cert["N"])
    if any((v * cert["N"]).denominator != 1 for v in point.values.values()):
        problems.append("N = %s is not a common denominator of x" % cert["N"])
    return [p for p in problems if p], _ratios(cert, value)


WORKLOADS = {w.name: w for w in [
    Workload("dp-dense", 225, make_dense, solve_dp, check_dp),
    Workload("dp-sparse", 40, make_sparse, solve_dp, check_dp),
    Workload("quasi-bcr", 700, make_quasi, solve_quasi, check_quasi),
    Workload("frac-contract", 72, make_frac, solve_frac, check_frac),
]}
