import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner import hyperlp, splitting, partition_decomp
from hypersteiner.partition_decomp import (SetFunction, decompose,
                                           partition_function_eval,
                                           slack_set_function)

from conftest import fractional_solution_n2


def _chain_function(seed, n):
    """h = conic combination of partition functions along a random
    strictly coarsening chain: always a valid decompose input."""
    rng = random.Random(seed)
    ground = list(range(n))
    blocks = [[u] for u in ground]
    chain = []
    while len(blocks) > 1:
        chain.append([tuple(b) for b in blocks])
        if len(blocks) == 2 or rng.random() < 0.4:
            merged = [sum(map(list, blocks), [])]
            blocks = merged
        else:
            i, j = rng.sample(range(len(blocks)), 2)
            keep = [b for k, b in enumerate(blocks) if k not in (i, j)]
            blocks = keep + [blocks[i] + blocks[j]]
    lams = [Rat(rng.randint(1, 6), rng.randint(1, 4)) for _ in chain]

    def h(S):
        return sum((lam * partition_function_eval(P, S)
                    for lam, P in zip(lams, chain)), Rat(0))

    return SetFunction.from_callable(ground, h)


def test_partition_function_eval():
    P = [frozenset([1, 2]), frozenset([3])]
    assert partition_function_eval(P, set()) == 0
    assert partition_function_eval(P, {1}) == 0
    assert partition_function_eval(P, {1, 3}) == 1
    assert partition_function_eval(P, {2, 3}) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 6))
def test_decompose_chain_functions(seed, n):
    h = _chain_function(seed, n)
    assert h.is_nonnegative() and h.is_intersecting_submodular()
    dec = decompose(h)
    U = frozenset(h.ground)
    assert dec(U) == h(U)
    assert len(dec) <= n - 1
    sizes = [len(P) for _, P in dec.parts]
    assert sizes == sorted(sizes, reverse=True)
    assert len(set(sizes)) == len(sizes)  # strict coarsening
    for m in range(1, 1 << n):
        S = h.unmask(m)
        assert dec(S) <= h(S)


def test_decompose_rejects_bad_inputs():
    # negative value
    with pytest.raises(ValueError):
        decompose(SetFunction((0, 1), [Rat(0), Rat(0), Rat(0), Rat(-1)]))
    sf = SetFunction((0, 1), [Rat(0), Rat(1), Rat(1), Rat(1)])
    # {0} and {1} are not both tight: tight sets cannot partition U
    with pytest.raises(ValueError):
        decompose(sf)


def test_decompose_zero_function_trivial():
    sf = SetFunction.from_callable((0, 1, 2), lambda S: Rat(0))
    dec = decompose(sf)
    assert len(dec) == 0


def test_slack_function_decomposition(frac_n2):
    inst, sol = frac_n2
    X = hyperlp.blowup_from_solution(inst, sol)
    Xb = splitting.binarize(X)
    state = splitting.map_back(X, Xb, splitting.optimal_splitting_set(Xb))
    K = sorted(state.K)
    checked = 0
    for r in (1, 2):
        for F in itertools.combinations(K, r):
            sf = slack_set_function(X, frozenset(F))
            if not sf.is_nonnegative():
                continue
            dec = decompose(sf)
            assert dec(frozenset(sf.ground)) == len(F)
            checked += 1
    assert checked > 0
