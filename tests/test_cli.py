import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner.instance import generate_random, render_stp
from hypersteiner import bcr_quasi, cli


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


def test_usage_error_exit_2():
    proc = subprocess.run([sys.executable, "-m", "hypersteiner", "--bogus"],
                          capture_output=True)
    assert proc.returncode == 2


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
