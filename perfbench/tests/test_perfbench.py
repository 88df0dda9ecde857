"""Tests of the benchmark itself: every workload runs end to end at a tiny
size, and every checker rejects a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def hs():
    return run.import_program()


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_tiny(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", str(trace), "--instances", "2")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_same_corpus(hs):
    wl = workloads.WORKLOADS["frac-contract"]
    a, b = wl.build(hs, 9, 2), wl.build(hs, 9, 2)
    assert [x.text for x in a] == [x.text for x in b]
    assert [x.point.values for x in a] == [x.point.values for x in b]


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---- every checker catches a corrupted output ---------------------------------


def _solved(hs, name):
    wl = workloads.WORKLOADS[name]
    item = wl.build(hs, 7, 1)[0]
    with workloads.Capture(hs) as capture:
        out = wl.solve(hs, item, capture)
    problems, _ = wl.check(hs, item, out, {})
    assert problems == []
    return wl, item, out


def _with_cert(out, **changes):
    cert = dict(out["cert"], **changes)
    return dict(out, cert=cert)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tree_with_an_edge_removed_is_rejected(hs, name):
    wl, item, out = _solved(hs, name)
    edges = sorted(out["tree"].edges)[1:]
    bad = dict(out, tree=SimpleNamespace(edges=frozenset(edges), cost=out["tree"].cost))
    problems, _ = wl.check(hs, item, bad, {})
    assert any("tree" in p for p in problems), problems


@pytest.mark.parametrize("name", WORKLOADS)
def test_phi_below_tree_times_n_is_rejected(hs, name):
    wl, item, out = _solved(hs, name)
    cert = out["cert"]
    low = cert["tree_cost"] * cert["N"] - Fraction(1, 1000)
    problems, _ = wl.check(hs, item, _with_cert(out, phi_initial=low), {})
    assert any("exceeds phi0" in p for p in problems), problems


def test_lp_value_off_by_a_thousandth_is_rejected(hs):
    wl, item, out = _solved(hs, "dp-dense")
    sol = out["solution"]
    off = SimpleNamespace(values=sol.values, objective=sol.objective + Fraction(1, 1000))
    problems, _ = wl.check(hs, item, dict(out, solution=off), {})
    assert any("HiGHS" in p for p in problems), problems


def test_bcr_value_off_by_a_thousandth_is_rejected(hs):
    wl, item, out = _solved(hs, "quasi-bcr")
    bcr = out["bcr"]
    off = SimpleNamespace(x=bcr.x, objective=bcr.objective + Fraction(1, 1000))
    problems, _ = wl.check(hs, item, dict(out, bcr=off), {})
    assert any("HiGHS" in p for p in problems), problems


def test_infeasible_point_is_rejected(hs):
    wl, item, out = _solved(hs, "frac-contract")
    values = dict(item.point.values)
    comp = max(values, key=lambda c: len(c.terminals))
    values[comp] *= 2
    bad = workloads.Item(item.inst, item.text,
                         hs.hyperlp.FractionalSolution(item.inst.terminals, values))
    problems, _ = wl.check(hs, bad, out, {})
    assert any("load" in p or "overloaded" in p for p in problems), problems


def test_feasibility_check_against_a_known_point():
    # three terminals: the 3-star at 1, two pairs at 1, and half a 3-star
    # plus two half pairs are feasible; all three pairs at 1 overload R,
    # all three at 1/2 leave R underloaded
    R = {1, 2, 3}
    half = Fraction(1, 2)
    assert checks.feasibility_problem(R, [({1, 2, 3}, 1)]) is None
    assert checks.feasibility_problem(R, [({1, 2}, 1), ({2, 3}, 1)]) is None
    assert checks.feasibility_problem(
        R, [({1, 2, 3}, half), ({1, 2}, half), ({2, 3}, half)]) is None
    assert checks.feasibility_problem(R, [({1, 2}, 1), ({2, 3}, 1), ({1, 3}, 1)]) is not None
    assert checks.feasibility_problem(
        R, [({1, 2}, half), ({2, 3}, half), ({1, 3}, half)]) is not None
