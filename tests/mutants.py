"""Planted defects of the package and the tests that must catch them.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

Each mutant replaces one exact text of one file under src/hypersteiner/
by a wrong one.  The script first runs every named test on a copy of
the tree as it is (they must pass), then applies each mutant to a fresh
copy of src/, tests/ and perfbench/ in a temporary directory, runs only
the mutant's tests there, and counts the mutant as killed when one
fails.  It prints one JSON line
{"killed": [...], "survived": [...]} and exits 1 if any mutant survives.
Not part of tier-1; `tests/test_mutants.py` checks in tier-1 that every
text still occurs exactly once, so a mutant cannot go stale silently
when the code moves.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# name, file under src/hypersteiner/, text, replacement, test ids
MUTANTS = [
    # walks and carried data of the contraction
    ("ancestor bit one position off", "hyperlp.py",
     "up[v] = up[p] | 1 << pos[eid]", "up[v] = up[p] | 2 << pos[eid]",
     ["tests/test_contract_alg.py::test_carried_data_matches_fresh_build"]),
    ("piece costs missing an edge", "splitting.py",
     "copy_cost = {**self.copy_cost, **_costs(pieces, cost)}",
     "copy_cost = {**self.copy_cost, **{p.id: sum(cost[e] for e in p.edge_ids[1:])"
     " for p in pieces}}",
     ["tests/test_contract_alg.py::test_carried_data_matches_fresh_build"]),
    ("F only where the witnesses lie strictly in B", "splitting.py",
     "if W <= B:", "if W < B:",
     ["tests/test_contract_alg.py::test_contract_log_totals"]),
    ("witness memo keyed on shape alone", "splitting.py",
     "k = (key(copy), tuple(map(K.__contains__, ids)))", "k = key(copy)",
     ["tests/test_splitting.py::test_witness_sets_per_shape_match_per_copy"]),
    ("z bit one position low", "hyperlp.py",
     "self.top = 1 << (r2 - 1)", "self.top = 1 << (r2 - 2)",
     ["tests/test_contract_alg.py::test_carried_data_matches_fresh_build"]),
    ("wrong gap in compress", "hyperlp.py",
     "out = out & ((1 << i) - 1) | out >> (i + 1) << i",
     "out = out & ((1 << i) - 1) | out >> i << i",
     ["tests/test_contract_alg.py::test_carried_data_matches_fresh_build"]),
    ("carried subtree masks left unmapped", "hyperlp.py",
     "X2._slots[eid] = (ci, remap[below], bit, up)",
     "X2._slots[eid] = (ci, below, bit, up)",
     ["tests/test_contract_alg.py::test_carried_data_matches_fresh_build"]),
    ("carried copy masks left unmapped", "hyperlp.py",
     "X2._masks = {c.id: remap[masks[c.id]] for c in copies}",
     "X2._masks = {c.id: masks[c.id] for c in copies}",
     ["tests/test_contract_alg.py::test_carried_data_matches_fresh_build"]),
    ("terminal map moves one member of TQ to z", "hyperlp.py",
     "terminal_of = {v: z if t in TQ else t for v, t in self.terminal_of.items()}",
     "terminal_of = {v: z if t == min(TQ) else t for v, t in self.terminal_of.items()}",
     ["tests/test_hyperlp.py::test_contract_keeps_ids_and_shapes"]),
    # the greedy, its bound and the union-find
    ("every cut a non-ancestor in the greedy", "removal_matroid.py",
     "piece &= fbelow if fbit & up else ~fbelow", "piece &= ~fbelow",
     ["tests/test_removal_matroid.py::test_greedy_equals_rank_greedy_on_contracted_graphs"]),
    ("every copy cap one unit low", "contract_alg.py",
     "allowed = np.flatnonzero(self.rank < self.pcm1[S & self.masks])[:k]",
     "allowed = np.flatnonzero(self.rank < self.pcm1[S & self.masks] - 1)[:k]",
     ["tests/test_removal_matroid.py::test_capped_bound_on_contracted_graphs"]),
    ("check mode skips the pruned greedies", "contract_alg.py",
     "if beaten and not check:", "if beaten:",
     ["tests/test_contract_alg.py::test_check_mode_catches_low_score_bound"]),
    ("union-find direction reversed", "instance.py",
     "self.parent[u] = v", "self.parent[v] = u",
     ["tests/test_hyperlp.py::test_union_find_direction_orders_pieces"]),
    ("map_back cuts only the third direction on", "splitting.py",
     "_terminal_directions(X, adj, u)[1:]", "_terminal_directions(X, adj, u)[2:]",
     ["tests/test_splitting.py::test_map_back_prunes_random_splitting"]),
    # the exact LP
    ("Bland's leaving tie reversed", "simplexq.py",
     "basis[i] < basis[pr]", "basis[i] > basis[pr]",
     ["tests/test_simplexq.py::test_bland_leaving_rule_breaks_ratio_ties"]),
    ("phase 2 prices the artificial columns", "simplexq.py",
     "_iterate(T, basis, n + ns)", "_iterate(T, basis, width)",
     ["tests/test_simplexq.py::test_basic_min"]),
    ("basic artificials not pivoted out after phase 1", "simplexq.py",
     "_pivot(T, i, j, basis)", "pass",
     ["tests/test_simplexq.py::test_phase1_pivots_out_a_basic_artificial"]),
    ("all-zero filter drops single-1 rows", "hyperlp.py",
     "if any(a)]", "if sum(a) > 1]",
     ["tests/test_hyperlp.py::test_solve_lp_exact_passes_no_all_zero_row[3-0]"]),
    # k-restricted components
    ("components one terminal too large", "components.py",
     "if bits > max_size:", "if bits > max_size + 1:",
     ["tests/test_contract_alg.py::test_k_restricted_bounds"]),
    ("components one terminal too small", "components.py",
     "if bits > max_size:", "if bits >= max_size:",
     ["tests/test_contract_alg.py::test_k_restricted_bounds"]),
]


def _copy(tmp):
    for part in ("src", "tests", "perfbench"):  # tests read perfbench's corpora
        shutil.copytree(ROOT / part, tmp / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def _pytest(tmp, tests):
    """pytest's exit code for `tests` on the tree copied to tmp: 1 when a
    test fails; a test id that names no test gives 4 or 5."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--rootdir", str(tmp), *tests],
        cwd=tmp, env=dict(os.environ, PYTHONPATH=str(tmp / "src")),
        capture_output=True, timeout=600).returncode


def run(mutant):
    """True when the mutant's tests fail on a mutated copy of the tree."""
    name, path, text, replacement, tests = mutant
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        _copy(tmp)
        target = tmp / "src" / "hypersteiner" / path
        source = target.read_text()
        if source.count(text) != 1:
            raise SystemExit("mutant %r: text not found exactly once" % name)
        target.write_text(source.replace(text, replacement))
        return _pytest(tmp, tests) == 1


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        _copy(tmp)
        if _pytest(tmp, sorted({t for m in chosen for t in m[4]})) != 0:
            raise SystemExit("the mutants' tests do not pass on the tree as it is")
    killed, survived = [], []
    for mutant in chosen:
        (killed if run(mutant) else survived).append(mutant[0])
    print(json.dumps({"killed": killed, "survived": survived}))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
