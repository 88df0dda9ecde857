import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner.instance import generate_random, render_stp
from hypersteiner import bcr_quasi, cli, contract_alg


@pytest.fixture(scope="module")
def stp_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("stp") / "a.stp"
    p.write_text(render_stp(generate_random(4, 2, 0.5, seed=17)))
    return str(p)


@pytest.fixture(scope="module")
def general_file(tmp_path_factory):
    # edge (4, 5) joins two Steiner vertices: not quasi-bipartite
    p = tmp_path_factory.mktemp("stp") / "g.stp"
    p.write_text(render_stp(generate_random(3, 2, 0.5, seed=17)))
    return str(p)


@pytest.fixture(scope="module")
def qb_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("stp") / "qb.stp"
    p.write_text(render_stp(generate_random(4, 2, 0.5, seed=18,
                                            quasi_bipartite=True)))
    return str(p)


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_lp_json(stp_file, capsys):
    code, out = _run(["lp", stp_file, "--json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["objective"]["num"] > 0
    for comp in d["components"]:
        assert set(comp) == {"terminals", "edges", "cost", "value"}


def test_run_ratio_within_bound(stp_file, capsys):
    code, out = _run(["run", stp_file, "--strategy", "dp", "--check", "--json"],
                     capsys)
    assert code == 0
    d = json.loads(out)
    assert d["ratio"]["num"] * d["bound"]["den"] <= d["bound"]["num"] * d["ratio"]["den"]


def test_run_quasi(qb_file, capsys):
    code, out = _run(["run", qb_file, "--strategy", "quasi", "--json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["bound"] == {"num": 73, "den": 60, "decimal": 73 / 60}


@pytest.mark.parametrize("cmd", ["run", "split"])
def test_quasi_strategy_on_general_graph_exit_2(general_file, cmd, capsys):
    code = cli.main([cmd, general_file, "--strategy", "quasi", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --strategy quasi needs a "
                                   "quasi-bipartite instance")


def test_bcr_decompose(qb_file, capsys):
    code, out = _run(["bcr", qb_file, "--decompose", "--check", "--json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["decomposition"]["objective"] == d["objective"]


def test_split_and_separate(stp_file, capsys):
    code, out = _run(["split", stp_file, "--json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["core_edges"]
    code, out = _run(["separate", stp_file, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["violated"] is None


def test_decompose_cmd(stp_file, capsys):
    code, out = _run(["decompose", stp_file, "--remove", "1", "--json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["h_at_full_set"] == {"num": 1, "den": 1, "decimal": 1.0}


def test_verify_suite(capsys):
    code, out = _run(["verify", "separation", "--seed", "0..3", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_bench_deterministic(capsys):
    code, out1 = _run(["bench", "--instances", "2", "--terminals", "4",
                       "--steiner", "2"], capsys)
    assert code == 0
    code, out2 = _run(["bench", "--instances", "2", "--terminals", "4",
                       "--steiner", "2"], capsys)
    assert out1 == out2


def test_bench_refuses_too_many_terminals_before_generating(capsys, monkeypatch):
    # 17 terminals are above the enumeration cap: refused before any
    # instance is generated, with enumerate_components' message
    calls = []
    monkeypatch.setattr(cli.inst_mod, "generate_random",
                        lambda *args, **kwargs: calls.append(args))
    code = cli.main(["bench", "--terminals", "17"])
    captured = capsys.readouterr()
    assert code == 2 and calls == [] and captured.out == ""
    assert captured.err.startswith(
        "error: too many terminals for component enumeration: 17 > cap 16")


def test_usage_error_exit_2():
    proc = subprocess.run([sys.executable, "-m", "hypersteiner", "--bogus"],
                          capture_output=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["lp", "STP", "--json"],
    ["bench", "--instances", "3", "--terminals", "3", "--steiner", "1",
     "--format", "csv"],
], ids=["emit", "bench"])
def test_closed_stdout_keeps_exit_code(argv, stp_file):
    """A reader that goes away before the command writes ends the output,
    not the command: exit 0 and nothing on stderr.  The child runs in
    dev mode, which would print a ResourceWarning for a file left open."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-X", "dev", "-m", "hypersteiner",
             *[stp_file if a == "STP" else a for a in argv]],
            stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


def test_identical_argv_byte_identical(stp_file):
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "hypersteiner", "run",
                               stp_file, "--strategy", "random", "--seed", "3",
                               "--json"], capture_output=True)
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


def test_bare_nodes_line_exit_2_without_traceback(tmp_path):
    p = tmp_path / "bare_nodes.stp"
    p.write_text("33D32945 STP File, STP Format Version 1.0\n"
                 "SECTION Graph\nNodes\nEdges 1\nE 1 2 3\nEND\n"
                 "SECTION Terminals\nT 1\nT 2\nEND\nEOF\n")
    proc = subprocess.run([sys.executable, "-m", "hypersteiner", "lp", str(p)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: line 3: ")


def test_k_does_not_lift_terminal_cap(tmp_path, capsys):
    # 17 terminals: full-component enumeration refuses them whatever --k
    p = tmp_path / "r17.stp"
    p.write_text(render_stp(generate_random(17, 2, 0.3, seed=3)))
    code = cli.main(["lp", str(p), "--k", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: too many terminals for component enumeration: "
                            "17 > cap 16; a component size bound (--k) does not "
                            "lift the cap\n")


def test_decompose_negative_remove_exit_2(stp_file, capsys):
    code = cli.main(["decompose", stp_file, "--remove", "-1", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --remove must be >= 0")


@pytest.mark.parametrize("spec", ["5..2", "0", "3..-1"])
def test_verify_empty_seed_range_exit_2(spec, capsys):
    code = cli.main(["verify", "separation", "--seed", spec, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "selects no seeds" in captured.err


@pytest.mark.parametrize("spec", ["abc", "1..2..3", "1..x"])
def test_verify_malformed_seed_exit_2(spec, capsys):
    code = cli.main(["verify", "separation", "--seed", spec, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --seed takes A or A..B (integers), got %r\n" % spec


@pytest.mark.parametrize("n", ["0", "-2"])
def test_bench_instances_below_one_exit_2(n, capsys):
    code = cli.main(["bench", "--instances", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --instances must be >= 1, got %s\n" % n


def test_invariant_details_json_on_stderr(qb_file, capsys, monkeypatch):
    def broken(sol, check=False):
        raise bcr_quasi.DecompositionError(
            "star with stuck capacity", {"center": 5, "H": [(5, 1), (2, 5)],
                                         "caps": {(5, 1): Rat(1, 3)}})
    monkeypatch.setattr(bcr_quasi, "natural_decomposition", broken)
    code = cli.main(["bcr", qb_file, "--decompose", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    first, second = captured.err.splitlines()
    assert first == "invariant violated: star with stuck capacity"
    assert json.loads(second) == {
        "type": "DecompositionError", "message": "star with stuck capacity",
        "details": {"center": 5, "H": [[5, 1], [2, 5]],
                    "caps": {"(5, 1)": {"num": 1, "den": 3,
                                        "decimal": 1 / 3}}}}


def test_contraction_failure_exits_1(capsys, monkeypatch):
    # an empty basis leaves Q's terminals in one piece, so the contraction
    # itself fails: an internal invariant (exit 1), not a usage error
    select = contract_alg.select_component
    monkeypatch.setattr(contract_alg, "select_component",
                        lambda split, check: (select(split, check)[0], frozenset()))
    g17 = pathlib.Path(__file__).resolve().parent / "golden" / "g17.stp"
    code = cli.main(["run", str(g17), "--check"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("invariant violated: copy ")


def test_invariant_violation_details_json_on_stderr(capsys, monkeypatch):
    # a greedy cut short of a basis: the error line, then the witness data
    # naming the terminals of the one group the greedy ran on (the first
    # in the score-bound order)
    greedy = contract_alg.greedy_max_weight_basis
    visited = []

    def cut_short(M, w, order):
        visited.append(sorted(M.Q))
        return greedy(M, w, order[:M.full_rank - 1])

    monkeypatch.setattr(contract_alg, "greedy_max_weight_basis", cut_short)
    g17 = pathlib.Path(__file__).resolve().parent / "golden" / "g17.stp"
    code = cli.main(["run", str(g17)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(visited) == 1
    message = "ground set is rank deficient: 0 < 1"
    assert captured.err.splitlines() == [
        "invariant violated: " + message,
        json.dumps({"type": "InvariantViolation", "message": message,
                    "details": {"terminals": visited[0], "basis_size": 0,
                                "full_rank": 1}}, sort_keys=True)]


_FUZZ_BASES = [render_stp(generate_random(3, 2, 0.5, seed=17)),
               render_stp(generate_random(3, 2, 0.5, seed=18,
                                          quasi_bipartite=True))]
_FUZZ_TOKEN = st.sampled_from(["0", "1", "2", "3", "4", "6", "9", "-1", "1/2",
                               "3/0", "2.5", "x", "", "E", "T", "Nodes",
                               "END", "SECTION", "Graph", "Terminals"])
# (operation, line, word or second line, token)
_FUZZ_EDIT = st.tuples(st.sampled_from(["drop", "copy", "swap", "token"]),
                       st.integers(0, 40), st.integers(0, 40), _FUZZ_TOKEN)
_FUZZ_ARGV = [["lp"], ["run", "--strategy", "dp"],
              ["run", "--strategy", "quasi"], ["bcr", "--decompose"]]


def _mutate(text, edits):
    lines = text.splitlines()
    for op, i, j, tok in edits:
        if not lines:
            break
        i %= len(lines)
        if op == "drop":
            del lines[i]
        elif op == "copy":
            lines.insert(i, lines[i])
        elif op == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[j % len(words)] = tok
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.stp"


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_FUZZ_BASES), st.lists(_FUZZ_EDIT, min_size=1, max_size=4))
def test_cli_fuzz_exits_0_or_2(fuzz_file, base, edits):
    # a malformed file is a usage error (2); a well-formed one must solve
    # (0); no input may end in a traceback or an invariant failure (1)
    fuzz_file.write_text(_mutate(base, edits))
    for argv in _FUZZ_ARGV:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([argv[0], str(fuzz_file)] + argv[1:])
        assert code in (0, 2), (argv, err.getvalue())
