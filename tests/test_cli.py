import json
import subprocess
import sys

import pytest

from hypersteiner.instance import generate_random, render_stp
from hypersteiner import cli


@pytest.fixture(scope="module")
def stp_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("stp") / "a.stp"
    p.write_text(render_stp(generate_random(4, 2, 0.5, seed=17)))
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
