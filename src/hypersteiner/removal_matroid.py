"""The matroid of removable edge sets of a blowup graph.

For a terminal set Q of a feasible blowup graph X, the edge sets B that
are inclusion-minimal with "X with N fresh copies of Q added, minus B,
stays feasible" form the bases of a matroid on E(X) with rank function

    r_Q(F) = min over S >= Q of h_{X-F}(S),

of total rank N(|Q|-1).  `RemovalMatroid.rank` reads it off the dense
slack table of X - F as the minimum over the supersets of Q's bitmask;
this is the only rank oracle of the pipeline.  The paper's max-flow
evaluations of the same rank, the gammoid and the flow identity behind
`min_slack_over_supersets`, a brute-force basis scan and the exhaustive
2^|K| membership check of the uniform point (`verify_uniform_point`)
live in `oracles` as references.

The greedy max-weight basis builds no table per query: it keeps the
slack table of X - B and adds one copy delta per candidate edge (see
`greedy_max_weight_basis`).  It only sorts by the weights, so any
totally ordered numbers serve; the contraction loop passes the
splitting state's integer weights.
"""

from .ratio import R0


class RemovalMatroid:
    def __init__(self, X, Q, groundset=None):
        self.X = X
        self.Q = frozenset(Q)
        if not (self.Q and self.Q <= X.R):
            raise ValueError("Q must be a nonempty terminal subset")
        self.groundset = tuple(sorted(X.edges if groundset is None else groundset))
        self._ground = frozenset(self.groundset)
        self.full_rank = X.N * (len(self.Q) - 1)
        self._supersets = X.superset_masks(self.Q)

    def rank(self, F):
        F = frozenset(F)
        if not F <= self._ground:
            raise ValueError("F outside the ground set")
        return self.table_rank(self.X.slack_table(F))

    def table_rank(self, h):
        """r_Q(F) read off h, the slack table of X - F."""
        return int(h[self._supersets].min())


def weight_order(edges, w):
    """Edges by weight descending, ties by edge id ascending (a stable
    descending sort of the id-sorted edges)."""
    return sorted(sorted(edges), key=lambda e: w.get(e, R0), reverse=True)


def greedy_max_weight_basis(M, w, order=None):
    """Greedy basis of M maximizing total weight: edges in `order`
    (default weight_order(M.groundset, w); callers building several bases
    over one ground set sort it once), each kept when independence is
    preserved.  Raises if the ground set does not contain a basis.

    Independence is read off slack tables without `M.rank`: h starts
    as the table of X, and the table of X - (B + e) is h plus the old and
    minus the new contribution vector of e's copy, so B + e is
    independent iff its superset minimum over Q is |B| + 1."""
    X = M.X
    if order is None:
        order = weight_order(M.groundset, w)
    slots = X.edge_slots()
    h = X.slack_table()
    removed = {}  # copy index -> local indices of B's edges in that copy
    B = set()
    for e in order:
        if len(B) == M.full_rank:
            break
        ci, i = slots[e]
        copy = X.copies[ci]
        old = removed.get(ci, frozenset())
        new = old | {i}
        h_e = h + X._copy_contrib(copy, old) - X._copy_contrib(copy, new)
        if M.table_rank(h_e) == len(B) + 1:
            B.add(e)
            h = h_e
            removed[ci] = new
    if len(B) != M.full_rank:
        raise ValueError("ground set is rank deficient: %d < %d"
                         % (len(B), M.full_rank))
    return frozenset(B)
