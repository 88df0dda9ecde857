"""Exact rational LP solver: dense two-phase primal simplex, Bland's rule.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
with every number an exact rational.  Bland's rule (smallest eligible
index enters, smallest-index basic variable leaves on ties) guarantees
termination; no scaling, no tolerances.  Dense tableau - fine at the
problem sizes this package targets.

The columns are x, then one slack per `<=` row, then one artificial per
equality row or per row negated for a negative right-hand side, then the
rhs.  Each row is built once and starts with its slack or its artificial
basic.  One pricing routine computes the objective row of both phases
(cost 1 on the artificials, then c) and skips zero entries.
"""

from .ratio import Rat, R0, R1


class LPError(Exception):
    pass


class Infeasible(LPError):
    pass


class Unbounded(LPError):
    pass


def _pivot(T, pr, pc, basis):
    row = T[pr]
    inv = R1 / row[pc]
    for j in range(len(row)):
        row[j] = row[j] * inv
    for i, ri in enumerate(T):
        if i == pr:
            continue
        f = ri[pc]
        if f == 0:
            continue
        for j in range(len(ri)):
            ri[j] = ri[j] - f * row[j]
    basis[pr] = pc


def _priced(T, basis, cost):
    """Objective row of `cost` (one entry per column) over the basis:
    reduced costs, and minus the objective value in the rhs column."""
    obj = cost + [R0]
    for row, b in zip(T, basis):
        f = cost[b]
        if f != 0:
            for j, v in enumerate(row):
                if v != 0:
                    obj[j] -= f * v
    return obj


def _iterate(T, basis, price_cols):
    """Bland iterations; the objective row is T[-1], rhs the last column."""
    obj = T[-1]
    m = len(T) - 1
    rhs = len(obj) - 1
    while True:
        pc = next((j for j in range(price_cols) if obj[j] < 0), None)
        if pc is None:
            return
        pr = -1
        best = None
        for i in range(m):
            a = T[i][pc]
            if a > 0:
                ratio = T[i][rhs] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pr]):
                    best, pr = ratio, i
        if pr < 0:
            raise Unbounded("column %d unbounded" % pc)
        _pivot(T, pr, pc, basis)


def solve_lp(c, A_ub, b_ub, A_eq=(), b_eq=()):
    """Returns (x, objective) with x a list of exact rationals.

    Raises Infeasible / Unbounded accordingly.
    """
    n, ns = len(c), len(A_ub)
    rhs = [Rat(b) for b in (*b_ub, *b_eq)]
    art = [i >= ns or b < 0 for i, b in enumerate(rhs)]
    width = n + ns + sum(art)
    free = iter(range(n + ns, width))  # the artificial columns, in row order
    T, basis = [], []
    for i, (a, b) in enumerate(zip((*A_ub, *A_eq), rhs)):
        row = [Rat(v) for v in a] + [R0] * (width - n) + [b]
        if i < ns:
            row[n + i] = R1
        if b < 0:
            row = [-v for v in row]
        basis.append(next(free) if art[i] else n + i)
        row[basis[-1]] = R1
        T.append(row)

    if width > n + ns:
        # phase 1: minimize the sum of the artificials
        T.append(_priced(T, basis, [R0] * (n + ns) + [R1] * (width - n - ns)))
        _iterate(T, basis, width)
        if T[-1][width] != 0:
            raise Infeasible("phase 1 optimum nonzero")
        for i, b in enumerate(basis):
            if b >= n + ns:
                # an artificial left basic at 0: pivot it out on the row's
                # first structural or slack entry; a row with none is
                # redundant and keeps it
                j = next((j for j in range(n + ns) if T[i][j] != 0), None)
                if j is not None:
                    _pivot(T, i, j, basis)
        T.pop()

    c = [Rat(v) for v in c]
    T.append(_priced(T, basis, c + [R0] * (width - n)))
    # artificial columns are excluded from pricing so they never re-enter
    _iterate(T, basis, n + ns)

    x = [R0] * n
    for row, b in zip(T, basis):
        if b < n:
            x[b] = row[width]
    return x, sum((ci * xi for ci, xi in zip(c, x)), R0)
