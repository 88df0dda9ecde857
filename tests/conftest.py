import importlib
import importlib.util
import pathlib
import random
import sys
import types

import pytest

from hypersteiner.ratio import Rat
from hypersteiner.instance import SteinerInstance, UnionFind, generate_random
from hypersteiner.components import enumerate_components
from hypersteiner import hyperlp, oracles

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def triangle_star_instance():
    """Terminals 1,2,3 pairwise cost 5, Steiner hub 4 at cost 2 each: the
    3-terminal star is the strict optimum component."""
    costs = {(1, 2): Rat(5), (2, 3): Rat(5), (1, 3): Rat(5),
             (1, 4): Rat(2), (2, 4): Rat(2), (3, 4): Rat(2)}
    return SteinerInstance([1, 2, 3, 4], costs, [1, 2, 3])


def fractional_solution_n2():
    """Hand-built feasible point with denominator 2: half a 3-star plus
    two half pair components.  The cost layout makes every referenced
    component strictly optimal for its terminal set (no DP ties)."""
    inst = triangle_star_instance()
    comps = enumerate_components(inst)
    by_terms = {c.terminals: c for c in comps}
    sol = hyperlp.FractionalSolution(
        [1, 2, 3],
        {by_terms[frozenset([1, 2, 3])]: Rat(1, 2),
         by_terms[frozenset([1, 2])]: Rat(1, 2),
         by_terms[frozenset([2, 3])]: Rat(1, 2)})
    assert oracles.check_feasible(sol)
    return inst, sol


def mixed_hypertree_point(seed, trees):
    """Equal-weight mixture of `trees` random spanning hypertrees of full
    components of a small random instance.  Each hypertree is an integral
    LP point, so the mixture is feasible; N > 1 unless the hypertrees
    coincide."""
    rng = random.Random(seed)
    inst = generate_random(3 + seed % 2, 1 + seed % 3, 0.5, seed=seed)
    comps = sorted(enumerate_components(inst),
                   key=lambda c: (sorted(c.terminals), c.edges))
    values = {}
    for _ in range(trees):
        rng.shuffle(comps)
        uf = UnionFind(inst.terminals)
        for c in comps:
            ts = sorted(c.terminals)
            if len({uf.find(t) for t in ts}) == len(ts):
                for t in ts[1:]:
                    uf.union(t, ts[0])
                values[c] = values.get(c, 0) + Rat(1, trees)
    sol = hyperlp.FractionalSolution(inst.terminals, values)
    assert oracles.check_feasible(sol)
    return inst, sol


def small_blowup(seed, terminals=None, steiner=None):
    T = terminals if terminals is not None else 3 + seed % 2
    S = steiner if steiner is not None else 1 + seed % 2
    inst = generate_random(T, S, 0.4, seed=seed)
    sol = hyperlp.solve_lp_exact(inst, enumerate_components(inst))
    return inst, hyperlp.blowup_from_solution(inst, sol)


@pytest.fixture
def frac_n2():
    return fractional_solution_n2()


def perfbench_workloads():
    """perfbench/workloads.py loaded from its path (it imports its sibling
    `checks` by name), with the package modules its corpus makers and
    solvers call."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(BENCH))
    hs = types.SimpleNamespace(**{
        name: importlib.import_module("hypersteiner." + name)
        for name in ("instance", "components", "hyperlp", "contract_alg",
                     "bcr_quasi")})
    return workloads, hs


def frac_point(seed):
    """(instance, point) of the frac-contract benchmark's kind: the full
    components of 12 perturbed Steiner trees of an 8-terminal graph, mixed
    equally (N > 1)."""
    workloads, hs = perfbench_workloads()
    item = workloads.make_frac(hs, random.Random(seed), 0)
    return item.inst, item.point
