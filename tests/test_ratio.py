import math

from hypothesis import given, strategies as st

from hypersteiner.ratio import (Rat, harmonic, lcm_denominators, rat_to_json,
                                LN4_UPPER)


def test_harmonic_small():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(2) == Rat(3, 2)
    assert harmonic(4) == Rat(25, 12)


def test_ln4_upper_bracket():
    # the surrogate constant sits just above ln 4
    assert math.log(4) < float(LN4_UPPER) < math.log(4) + 1e-5


@given(st.integers(1, 400))
def test_harmonic_recurrence(n):
    assert harmonic(n) == harmonic(n - 1) + Rat(1, n)


@given(st.lists(st.fractions(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_lcm_denominators_clears(vals):
    n = lcm_denominators(vals)
    for v in vals:
        assert (n * Rat(v)).denominator == 1


@given(st.fractions(min_value=-1000, max_value=1000))
def test_json_roundtrip(q):
    assert (rat_to_json(q)["num"], rat_to_json(q)["den"]) == Rat(q).as_integer_ratio()

