"""Golden CLI outputs: the stdout and exit code of fixed commands on three
committed STP files, compared byte for byte.

Each `golden/<case>.out` holds `exit <code>` on its first line and the
command's stdout after it.  After a change that moves an output on
purpose (a tie broken another way, say), regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and name in CHANGES.md which outputs moved and why.
"""

import contextlib
import io
import pathlib

import pytest

from hypersteiner import cli
from hypersteiner.instance import generate_random, render_stp

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

INSTANCES = {
    "g17": lambda: generate_random(5, 3, 0.45, seed=17),
    "g23": lambda: generate_random(6, 4, 0.45, seed=23),
    "q18": lambda: generate_random(4, 3, 0.45, seed=18, quasi_bipartite=True),
}

# case name -> argv; the second word names a file of INSTANCES
CASES = {
    **{"lp_" + f: ["lp", f, "--json"] for f in INSTANCES},
    **{"run_dp_" + f: ["run", f, "--strategy", "dp", "--check", "--json"]
       for f in ("g17", "g23")},
    "run_dp_g17_plain": ["run", "g17"],
    **{"run_random_" + f: ["run", f, "--strategy", "random", "--seed", "5",
                           "--check", "--json"] for f in ("g17", "g23")},
    "run_quasi_q18": ["run", "q18", "--strategy", "quasi", "--check", "--json"],
    **{"split_dp_" + f: ["split", f, "--strategy", "dp", "--json"]
       for f in ("g17", "g23")},
    **{"split_random_" + f: ["split", f, "--strategy", "random", "--seed", "5",
                             "--json"] for f in ("g17", "g23")},
    "split_quasi_q18": ["split", "q18", "--strategy", "quasi", "--json"],
    **{"separate_" + f: ["separate", f, "--json"] for f in ("g17", "g23")},
    **{"decompose_" + f: ["decompose", f, "--remove", "2", "--json"]
       for f in ("g17", "g23")},
    "bcr_q18": ["bcr", "q18", "--decompose", "--check", "--json"],
    **{"verify_" + s: ["verify", s, "--seed", "0..4", "--json"]
       for s in sorted(cli.SUITES)},
}


def _output(argv):
    """`exit <code>` and the stdout of one in-process CLI run."""
    if argv[1] in INSTANCES:
        argv = [argv[0], str(GOLDEN / (argv[1] + ".stp"))] + argv[2:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return "exit %d\n%s" % (code, out.getvalue())


def test_golden_instances_match_generator():
    for name, make in INSTANCES.items():
        assert (GOLDEN / (name + ".stp")).read_text() == render_stp(make())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_cli_output(case):
    assert _output(CASES[case]) == (GOLDEN / (case + ".out")).read_text()


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    for name, make in INSTANCES.items():
        (GOLDEN / (name + ".stp")).write_text(render_stp(make()))
    for case, argv in sorted(CASES.items()):
        (GOLDEN / (case + ".out")).write_text(_output(argv))


if __name__ == "__main__":
    write_golden()
