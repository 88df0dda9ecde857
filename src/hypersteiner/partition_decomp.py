"""Decomposing nonnegative intersecting submodular functions into
nonnegative combinations of partition functions.

For a partition P of the ground set U, the partition function is
f_P(S) = (number of blocks of P hit by S) - 1, floored at 0.  Any
nonnegative intersecting submodular h whose maximal tight sets partition
U dominates a function f = sum of lambda_i * f_{P^i} with f(U) = h(U),
built by the greedy loop: start from the partition into maximal tight
sets, subtract the largest multiple of its partition function that keeps
h nonnegative (an exact minimum-ratio over unions of blocks), re-tighten,
repeat; partitions strictly coarsen and at most |U|-1 rounds happen.

Used to certify the lower-bound machinery for removable-set polytopes,
whose per-piece slack inequality the exhaustive reference
`oracles.verify_uniform_point` checks off slack tables.
"""

from .ratio import Rat, R0


class SetFunction:
    """Table-backed rational set function on a small ground set."""

    __slots__ = ("ground", "index", "table")

    def __init__(self, ground, table):
        self.ground = tuple(sorted(ground))
        self.index = {u: i for i, u in enumerate(self.ground)}
        if len(table) != 1 << len(self.ground):
            raise ValueError("table size mismatch")
        self.table = [Rat(v) for v in table]
        if self.table[0] != 0:
            raise ValueError("h(empty set) must be 0")

    @classmethod
    def from_callable(cls, ground, fn):
        ground = tuple(sorted(ground))
        table = []
        for m in range(1 << len(ground)):
            S = frozenset(u for i, u in enumerate(ground) if m >> i & 1)
            table.append(Rat(fn(S)))
        return cls(ground, table)

    def mask(self, S):
        m = 0
        for u in S:
            m |= 1 << self.index[u]
        return m

    def unmask(self, m):
        return frozenset(u for i, u in enumerate(self.ground) if m >> i & 1)

    def __call__(self, S):
        return self.table[self.mask(S)]

    def is_nonnegative(self):
        return all(v >= 0 for v in self.table)

    def is_intersecting_submodular(self):
        """h(S)+h(T) >= h(S|T)+h(S&T) whenever S and T intersect."""
        n = 1 << len(self.ground)
        t = self.table
        for a in range(1, n):
            for b in range(1, n):
                if a & b:
                    if t[a] + t[b] < t[a | b] + t[a & b]:
                        return False
        return True


def partition_function_eval(P, S):
    S = set(S)
    hit = sum(1 for block in P if S & set(block))
    return max(hit - 1, 0)


class PartitionDecomposition:
    """list of (lambda_i, P^i); evaluates f = sum lambda_i f_{P^i}."""

    __slots__ = ("ground", "parts")

    def __init__(self, ground, parts):
        self.ground = tuple(sorted(ground))
        self.parts = list(parts)  # [(Rat, tuple of frozensets), ...]

    def __call__(self, S):
        return sum((lam * partition_function_eval(P, S) for lam, P in self.parts), R0)

    def __len__(self):
        return len(self.parts)


def _maximal_tight(table, masks):
    """Maximal (by inclusion) masks among `masks` with table value 0."""
    tight = [m for m in masks if m and table[m] == 0]
    out = []
    for m in tight:
        if not any(o != m and o & m == m for o in tight):
            out.append(m)
    return out


def _as_partition(sf, masks):
    full = (1 << len(sf.ground)) - 1
    union = 0
    for m in masks:
        if union & m:
            return None
        union |= m
    if union != full:
        return None
    return tuple(sorted((sf.unmask(m) for m in masks), key=sorted))


def decompose(h):
    """PartitionDecomposition of a SetFunction (see module docstring).

    Requires h >= 0, intersecting submodular, and that the maximal tight
    sets of h partition U."""
    if not h.is_nonnegative():
        raise ValueError("h must be nonnegative")
    if not h.is_intersecting_submodular():
        raise ValueError("h must be intersecting submodular")
    n = len(h.ground)
    full = (1 << n) - 1
    table = list(h.table)
    masks_all = range(1, full + 1)
    blocks = _maximal_tight(table, masks_all)
    P = _as_partition(h, blocks)
    if P is None:
        raise ValueError("tight sets do not cover U as a partition")
    parts = []
    prev_size = n + 1
    while table[full] != 0:
        blocks = [h.mask(b) for b in P]
        if not (len(P) < prev_size):
            raise AssertionError("partitions failed to coarsen")
        prev_size = len(P)
        # lattice family: unions of blocks; exact min ratio
        lam = None
        fam = []
        for pick in range(1, 1 << len(blocks)):
            m = 0
            cnt = 0
            for i in range(len(blocks)):
                if pick >> i & 1:
                    m |= blocks[i]
                    cnt += 1
            f = cnt - 1
            fam.append((m, f))
            if f > 0:
                ratio = table[m] / f
                if lam is None or ratio < lam:
                    lam = ratio
        if lam is None or lam <= 0:
            raise AssertionError("no positive step possible; tightening bug")
        parts.append((lam, P))
        # subtract lam * f_P everywhere
        for m in range(1, full + 1):
            hit = sum(1 for b in blocks if m & b)
            if hit > 1:
                table[m] -= lam * (hit - 1)
                if table[m] < 0:
                    raise AssertionError("nonnegativity lost during subtraction")
        if table[full] == 0:
            break
        tight = _maximal_tight(table, [m for m, _ in fam])
        P2 = _as_partition(h, tight)
        if P2 is None:
            raise AssertionError("re-tightened sets are not a partition")
        P = P2
    if len(parts) > n - 1:
        raise AssertionError("decomposition used more than |U|-1 rounds")
    return PartitionDecomposition(h.ground, parts)


def slack_set_function(X, F=frozenset()):
    """The slack function of a blowup graph minus F, table-backed over its
    terminals (a nonnegative intersecting submodular function when X - F
    is feasible)."""
    return SetFunction(X.terminal_order, [Rat(int(v)) for v in X.slack_table(F)])

