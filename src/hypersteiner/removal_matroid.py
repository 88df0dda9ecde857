"""The matroid of removable edge sets of a blowup graph.

For a terminal set Q of a feasible blowup graph X, the edge sets B that
are inclusion-minimal with "X with N fresh copies of Q added, minus B,
stays feasible" form the bases of a matroid on E(X) with rank function

    r_Q(F) = min over S >= Q of h_{X-F}(S),

of total rank N(|Q|-1).  `RemovalMatroid.rank` reads it off the dense
slack table of X - F as the minimum over the supersets of Q's bitmask;
this is the only rank oracle of the pipeline, and check mode ranks
every greedy basis again on it.  The paper's max-flow evaluations of
the same rank, the gammoid and the flow identity behind
`min_slack_over_supersets`, a brute-force basis scan and the exhaustive
2^|K| membership check of the uniform point (`verify_uniform_point`)
live in `oracles` as references.

The greedy max-weight basis reads no slack table per candidate edge.
Every piece of X - B is a tree, so removing one more edge e splits its
piece into two sides with terminal masks m1 and m2, and h(S) rises by
exactly 1 if S meets both sides, else stays.  Hence B + e is
independent iff every tight superset S of Q (h(S) = |B| on X - B)
meets both sides.  The tight sets form a lattice: the excess
h_{X-B}(S) - |B| is submodular (|S| - 1 is modular and each
(|S cap P| - 1)+ is supermodular, a convex function of |S cap P|), and
on the supersets of Q, themselves closed under cap and cup, its
minimum is 0 (B is independent), reached at R.  The minimizers of a
submodular function are closed under cap and cup, so the tight sets
have a least element S*, the AND of their masks, and every tight S
meets both sides iff S* does: one test on bitmasks per candidate edge
(`greedy_max_weight_basis`).  The greedy only sorts by the weights, so
any totally ordered numbers serve; the contraction loop passes the
splitting state's integer weights.
"""

from functools import reduce
from operator import and_

from .ratio import R0


class RemovalMatroid:
    def __init__(self, X, Q, groundset=None):
        self.X = X
        self.Q = frozenset(Q)
        if not (self.Q and self.Q <= X.R):
            raise ValueError("Q must be a nonempty terminal subset")
        self.groundset = frozenset(X.edges if groundset is None else groundset)
        self.full_rank = X.N * (len(self.Q) - 1)
        self.supersets = X.superset_masks(self.Q)

    def rank(self, F):
        F = frozenset(F)
        if not F <= self.groundset:
            raise ValueError("F outside the ground set")
        return self.table_rank(self.X.slack_table(F))

    def table_rank(self, h):
        """r_Q(F) read off h, the slack table of X - F."""
        return int(h[self.supersets].min())


def weight_order(edges, w):
    """Edges by weight descending, ties by edge id ascending (a stable
    descending sort of the id-sorted edges)."""
    return sorted(sorted(edges), key=lambda e: w.get(e, R0), reverse=True)


def greedy_max_weight_basis(M, w, order=None):
    """Greedy max-weight independent set of M: edges in `order` (default
    weight_order(M.groundset, w); callers building several bases over
    one ground set sort it once), each kept when independence is
    preserved.  It is a basis iff the ground set holds one; callers
    compare its size with M.full_rank.

    The excess h(S) - |B| of X - B is kept on Q's supersets, with the
    least tight set S* (excess 0; module docstring).  An edge e whose
    piece splits into sides m1 and m2 (`BlowupGraph.edge_slots` and
    `copy_masks`) is dependent if a side holds no terminal, independent
    without a scan if Q meets both sides (then every superset does and
    no excess moves), and otherwise independent iff S* meets both
    sides.  Only that last kind of accept updates the excesses, and S*
    with them."""
    X = M.X
    if order is None:
        order = weight_order(M.groundset, w)
    slots, copy_masks = X.edge_slots(), X.copy_masks()
    q = X.term_mask(M.Q)
    masks = M.supersets.tolist()
    excess = X.slack_table()[M.supersets].tolist()
    meet = _least_tight(masks, excess)
    cuts = {}  # copy id -> [(position bit, below mask)] of B's edges there
    B = set()
    for e in order:
        if len(B) == M.full_rank:
            break
        ci, below, bit, up = slots[e]
        piece = copy_masks[ci]
        for fbit, fbelow in cuts.get(ci, ()):
            piece &= fbelow if fbit & up else ~fbelow
        m1, m2 = piece & below, piece & ~below
        if not (m1 and m2):
            continue
        if not (q & m1 and q & m2):
            if not (meet & m1 and meet & m2):
                continue
            excess = [x - 1 + bool(S & m1 and S & m2)
                      for S, x in zip(masks, excess)]
            meet = _least_tight(masks, excess)
        B.add(e)
        cuts.setdefault(ci, []).append((bit, below))
    return frozenset(B)


def _least_tight(masks, excess):
    """The AND of the masks whose excess is 0, within the last mask (R,
    itself tight on a feasible graph)."""
    return reduce(and_, (S for S, x in zip(masks, excess) if x == 0), masks[-1])
