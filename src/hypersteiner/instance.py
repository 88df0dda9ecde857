"""Steiner tree instances: STP-format I/O and random generation.

Vertices are positive integers (STP convention, 1-based).  An edge is
keyed by the ordered pair (min(u, v), max(u, v)).  Costs are exact
rationals; the STP reader accepts integers, decimals and "p/q" strings.
"""

import random

from .ratio import Rat, R0


class STPParseError(ValueError):
    def __init__(self, lineno, msg):
        super().__init__("line %d: %s" % (lineno, msg))
        self.lineno = lineno


def edge_key(u, v):
    if u == v:
        raise ValueError("self-loop %d" % u)
    return (u, v) if u < v else (v, u)


class UnionFind:
    """Disjoint sets over hashable items, with path halving.

    union(u, v) hangs u's root below v's root.  Callers rely on that
    choice: blowup copies order their pieces by the terminal their
    representative stands for (the representative itself if it is no
    terminal vertex), and the ids of split copies follow that order."""

    __slots__ = ("parent",)

    def __init__(self, items):
        self.parent = {v: v for v in items}

    def find(self, v):
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, u, v):
        """Merge the sets of u and v; False when they were already one."""
        u, v = self.find(u), self.find(v)
        if u == v:
            return False
        self.parent[u] = v
        return True


def orient(adj, roots):
    """Breadth-first search of a forest from `roots`, over an adjacency
    vertex -> [(neighbour, edge id)].  Returns (order, parent): order lists
    every reached vertex after its parent, and parent maps each of them to
    (parent vertex, edge id), or to None for a root.  Neighbours are
    visited in adjacency order, so every vertex's children follow it in
    that order too."""
    parent = dict.fromkeys(roots)
    order = list(parent)
    for u in order:  # order grows while it is read: the BFS queue
        for v, eid in adj[u]:
            if v not in parent:
                parent[v] = (u, eid)
                order.append(v)
    return order, parent


class SteinerInstance:
    """Undirected graph with positive rational edge costs and a terminal set."""

    __slots__ = ("vertices", "costs", "terminals", "_adj")

    def __init__(self, vertices, costs, terminals):
        self.vertices = frozenset(vertices)
        self.costs = {}
        for (u, v), c in costs.items():
            k = edge_key(u, v)
            c = Rat(c)
            if c <= 0:
                raise ValueError("edge %s has non-positive cost %s" % (k, c))
            if u not in self.vertices or v not in self.vertices:
                raise ValueError("edge %s uses unknown vertex" % (k,))
            if k in self.costs:
                raise ValueError("duplicate edge %s" % (k,))
            self.costs[k] = c
        self.terminals = frozenset(terminals)
        if not self.terminals <= self.vertices:
            raise ValueError("terminal outside vertex set")
        if len(self.terminals) < 2:
            raise ValueError("need at least 2 terminals")
        self._adj = {v: [] for v in self.vertices}
        for (u, v), c in self.costs.items():
            self._adj[u].append((v, c))
            self._adj[v].append((u, c))
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self):
        # orient reads the cost in each (neighbour, cost) pair as an edge id
        start = next(iter(self.vertices))
        return len(orient(self._adj, [start])[0]) == len(self.vertices)

    def neighbors(self, v):
        return self._adj[v]

    def is_quasi_bipartite(self):
        """True when no edge joins two non-terminal vertices."""
        t = self.terminals
        return all(u in t or v in t for (u, v) in self.costs)

    def __repr__(self):
        return "SteinerInstance(|V|=%d, |E|=%d, |R|=%d)" % (
            len(self.vertices), len(self.costs), len(self.terminals))


class SteinerTree:
    """A tree spanning the terminals of an instance (edge subset certificate)."""

    __slots__ = ("edges", "cost")

    def __init__(self, instance, edges):
        self.edges = frozenset(edge_key(u, v) for (u, v) in edges)
        for e in self.edges:
            if e not in instance.costs:
                raise ValueError("edge %s not in instance" % (e,))
        self.cost = sum((instance.costs[e] for e in self.edges), R0)
        self._validate(instance.terminals)

    def _validate(self, terminals):
        # connected on its support, acyclic, and spans all terminals
        touched = {v for e in self.edges for v in e}
        if not terminals <= touched:
            if len(terminals) == 1 and not self.edges:
                return
            raise ValueError("tree does not span all terminals")
        uf = UnionFind(touched)
        merged = sum(uf.union(u, v) for (u, v) in self.edges)
        if merged != len(touched) - 1:
            raise ValueError("edge set is disconnected")
        if len(self.edges) != merged:
            raise ValueError("edge set contains a cycle")


def _parse_cost(tok, lineno):
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Rat(int(num), int(den))
        if "." in tok:
            return Rat(tok)
        return Rat(int(tok))
    except (ValueError, ZeroDivisionError):
        raise STPParseError(lineno, "bad cost %r" % tok)


def parse_stp(text):
    """Parse SteinLib .stp text into a SteinerInstance.

    Only the Graph and Terminals sections are interpreted; other sections
    (Comment, Coordinates, ...) are skipped.  Raises STPParseError with a
    line number on malformed input.
    """
    if isinstance(text, bytes):
        text = text.decode()
    nodes = nodes_line = None
    costs = {}
    terminals = set()
    section = None
    saw_graph = saw_terminals = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        head = toks[0].upper()
        if section is None:
            if head == "SECTION":
                if len(toks) < 2:
                    raise STPParseError(lineno, "SECTION without a name")
                section = toks[1].lower()
            elif head == "EOF":
                break
            else:
                continue  # magic header line, comments outside sections
        elif head == "END":
            section = None
        elif section == "graph":
            saw_graph = True
            if head == "NODES":
                try:
                    nodes = int(toks[1])
                except (IndexError, ValueError):
                    raise STPParseError(lineno, "Nodes line needs a count")
                nodes_line = lineno
            elif head in ("EDGES", "ARCS", "OBSTACLES"):
                pass
            elif head in ("E", "A"):
                if len(toks) != 4:
                    raise STPParseError(lineno, "edge line needs 'E u v cost'")
                try:
                    u, v = int(toks[1]), int(toks[2])
                except ValueError:
                    raise STPParseError(lineno, "bad vertex id")
                c = _parse_cost(toks[3], lineno)
                k = edge_key(u, v) if u != v else None
                if k is None:
                    raise STPParseError(lineno, "self-loop %d" % u)
                if k in costs:
                    # keep the cheaper parallel edge
                    costs[k] = min(costs[k], c)
                else:
                    costs[k] = c
            else:
                raise STPParseError(lineno, "unknown graph line %r" % head)
        elif section == "terminals":
            saw_terminals = True
            if head == "TERMINALS":
                pass
            elif head == "T":
                try:
                    terminals.add(int(toks[1]))
                except (IndexError, ValueError):
                    raise STPParseError(lineno, "bad terminal line")
            else:
                raise STPParseError(lineno, "unknown terminal line %r" % head)
        # any other section: skip silently
    if not saw_graph:
        raise STPParseError(0, "missing Graph section")
    if not saw_terminals:
        raise STPParseError(0, "missing Terminals section")
    touched = {v for e in costs for v in e}
    top = max(touched, default=0) if nodes is None else nodes
    if top > len(touched):
        # some vertex 1..top would be isolated; refuse before building a
        # vertex set of that size
        what = "Nodes %d" % top if nodes_line else "vertex id %d with no Nodes line" % top
        raise STPParseError(nodes_line or 0, "%s exceeds the %d vertices the "
                            "edges touch" % (what, len(touched)))
    vertices = set(range(1, top + 1)) | touched
    try:
        return SteinerInstance(vertices, costs, terminals)
    except ValueError as exc:
        raise STPParseError(0, str(exc))


def render_stp(inst):
    """Serialize an instance back to .stp text (costs as p/q when needed)."""
    order = {v: i + 1 for i, v in enumerate(sorted(inst.vertices))}
    out = ["33D32945 STP File, STP Format Version 1.0", ""]
    out.append("SECTION Comment")
    out.append('Name    "hypersteiner instance"')
    out.append("END")
    out.append("")
    out.append("SECTION Graph")
    out.append("Nodes %d" % len(inst.vertices))
    out.append("Edges %d" % len(inst.costs))
    for (u, v) in sorted(inst.costs):
        c = inst.costs[(u, v)]
        cs = str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)
        out.append("E %d %d %s" % (order[u], order[v], cs))
    out.append("END")
    out.append("")
    out.append("SECTION Terminals")
    out.append("Terminals %d" % len(inst.terminals))
    for t in sorted(inst.terminals):
        out.append("T %d" % order[t])
    out.append("END")
    out.append("")
    out.append("EOF")
    return "\n".join(out) + "\n"


def generate_random(num_terminals, num_steiner, density, seed,
                    quasi_bipartite=False):
    """Random connected instance with integer costs in [1, 20].

    Terminals get ids 1..num_terminals, non-terminals the ids after that.
    A random spanning tree guarantees connectivity; every other candidate
    pair is added independently with probability `density`.  With
    quasi_bipartite=True no edge joins two non-terminals.
    """
    if num_terminals < 2:
        raise ValueError("need at least 2 terminals")
    if num_steiner < 0 or not (0 <= float(density) <= 1):
        raise ValueError("bad generator parameters")
    rng = random.Random(seed)
    terminals = list(range(1, num_terminals + 1))
    steiner = list(range(num_terminals + 1, num_terminals + num_steiner + 1))

    def cost():
        return Rat(rng.randint(1, 20))

    # random spanning tree: shuffle, attach each vertex to an admissible
    # earlier one (a non-terminal must attach to a terminal when quasi)
    order = terminals + steiner
    rng.shuffle(order)
    # make sure the first vertex is a terminal so steiner nodes always
    # have a terminal to attach to in the quasi-bipartite case
    for i, v in enumerate(order):
        if v in set(terminals):
            order[0], order[i] = order[i], order[0]
            break
    costs = {}
    for i in range(1, len(order)):
        v = order[i]
        if quasi_bipartite and v > num_terminals:
            pool = [u for u in order[:i] if u <= num_terminals]
        else:
            pool = order[:i]
        u = rng.choice(pool)
        costs[edge_key(u, v)] = cost()
    # extra edges
    allv = terminals + steiner
    d = float(density)
    for i in range(len(allv)):
        for j in range(i + 1, len(allv)):
            u, v = allv[i], allv[j]
            if quasi_bipartite and u > num_terminals and v > num_terminals:
                continue
            k = edge_key(u, v)
            if k in costs:
                continue
            if rng.random() < d:
                costs[k] = cost()
    return SteinerInstance(allv, costs, terminals)
