import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner.simplexq import solve_lp, Infeasible, Unbounded


def test_basic_min():
    # min x + y  s.t.  -x - y <= -2
    x, obj = solve_lp([Rat(1), Rat(1)], [[Rat(-1), Rat(-1)]], [Rat(-2)])
    assert obj == 2
    assert x[0] + x[1] == 2


def test_equality_rows():
    # min 2x + y  s.t.  x + y = 3
    x, obj = solve_lp([Rat(2), Rat(1)], [], [],
                      A_eq=[[Rat(1), Rat(1)]], b_eq=[Rat(3)])
    assert x == [Rat(0), Rat(3)] and obj == 3


def test_infeasible():
    with pytest.raises(Infeasible):
        solve_lp([Rat(1)], [[Rat(1)]], [Rat(-1)])  # x <= -1, x >= 0


def test_unbounded():
    with pytest.raises(Unbounded):
        solve_lp([Rat(-1)], [], [])


def test_exact_fractions():
    # min x  s.t.  -3x <= -1  ->  x = 1/3 exactly
    x, obj = solve_lp([Rat(1)], [[Rat(-3)]], [Rat(-1)])
    assert x[0] == Rat(1, 3) and obj == Rat(1, 3)


def test_bland_entering_rule_picks_smallest_index():
    # min -x - y  s.t.  x + y <= 1,  y <= 1: the optimal face also holds
    # (0, 1), but x, the smallest index with negative reduced cost,
    # enters first and no pivot follows
    x, obj = solve_lp([-1, -1], [[1, 1], [0, 1]], [1, 1])
    assert x == [1, 0] and obj == -1


def test_bland_leaving_rule_breaks_ratio_ties():
    # min 2x  s.t.  x + y >= 1,  2x + y <= 2: every (0, y) with
    # 1 <= y <= 2 is optimal.  x enters first, and its ratio test ties
    # row 0 (artificial basic, column 4) with row 1 (slack basic, column
    # 3).  The smaller basic index leaves, and the path ends at (0, 2);
    # letting the artificial leave ends at (0, 1).
    x, obj = solve_lp([2, 0], [[-1, -1], [2, 1]], [-1, 2])
    assert x == [0, 2] and obj == 0


@pytest.mark.parametrize("cy", [1, -1])
def test_phase1_pivots_out_a_basic_artificial(cy):
    # min +-y  s.t.  x <= 0,  x - y = 0: phase 1 ends with the equality
    # row's artificial basic at 0 and -y in its row, and pivots y in for
    # it.  Left basic, the artificial would let y grow when -y is
    # minimised, and the LP would look unbounded.
    x, obj = solve_lp([0, cy], [[1, 0]], [0], A_eq=[[1, -1]], b_eq=[0])
    assert x == [0, 0] and obj == 0


def test_redundant_equality_keeps_its_artificial():
    # x + y = 3 twice: after phase 1 the second row's artificial is basic
    # in a row with no structural or slack entry, and stays there
    x, obj = solve_lp([2, 1], [], [], A_eq=[[1, 1], [1, 1]], b_eq=[3, 3])
    assert x == [0, 3] and obj == 3


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_lp_vs_vertex_enumeration(seed):
    """2-3 variables, a handful of rows and an optional equality row: the
    simplex optimum must equal the best feasible basic point found by
    brute-forcing row intersections, each tight on the equality row
    (plus strong-duality-free feasibility: simplex x satisfies all rows)."""
    import random
    import itertools
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    m = rng.randint(1, 4)
    c = [Rat(rng.randint(0, 5)) for _ in range(n)]
    A = [[Rat(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    b = [Rat(rng.randint(-3, 6)) for _ in range(m)]
    eq = [([Rat(rng.randint(-4, 4)) for _ in range(n)], Rat(rng.randint(-3, 6)))
          for _ in range(rng.randint(0, 1))]
    try:
        x, obj = solve_lp(c, A, b, [row for row, _ in eq], [rhs for _, rhs in eq])
    except Infeasible:
        return
    except Unbounded:
        return
    assert all(v >= 0 for v in x)
    for row, rhs in zip(A, b):
        assert sum(a * v for a, v in zip(row, x)) <= rhs
    for row, rhs in eq:
        assert sum(a * v for a, v in zip(row, x)) == rhs
    assert obj == sum(ci * v for ci, v in zip(c, x))
    # try all ways to make n constraints tight (the equality row, then
    # rows or x_i = 0) and solve the square system by elimination; no
    # feasible point may beat obj
    rows = [(row, rhs) for row, rhs in zip(A, b)]
    rows += [([Rat(1 if j == i else 0) for j in range(n)], Rat(0))
             for i in range(n)]
    for pick in itertools.combinations(range(len(rows)), n - len(eq)):
        M = [list(row) + [rhs] for row, rhs in eq + [rows[i] for i in pick]]
        # gaussian elimination, exact
        sol = _solve_square(M, n)
        if sol is None:
            continue
        if any(v < 0 for v in sol):
            continue
        if any(sum(a * v for a, v in zip(row, sol)) > rhs for row, rhs in zip(A, b)):
            continue
        assert sum(ci * v for ci, v in zip(c, sol)) >= obj


def _solve_square(M, n):
    M = [row[:] for row in M]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]
