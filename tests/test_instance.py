import pytest
from hypothesis import given, settings, strategies as st

from hypersteiner.ratio import Rat
from hypersteiner.instance import (SteinerInstance, SteinerTree, parse_stp,
                                   render_stp, generate_random, STPParseError,
                                   edge_key, orient)


def test_edge_key_orders():
    assert edge_key(5, 2) == (2, 5)
    assert edge_key(2, 5) == (2, 5)


def test_orient_forest_breadth_first():
    # two trees: 1 - 2 (edge 10), 1 - 3 (11), 3 - 4 (12); 5 - 6 (13)
    adj = {1: [(3, 11), (2, 10)], 2: [(1, 10)], 3: [(1, 11), (4, 12)],
           4: [(3, 12)], 5: [(6, 13)], 6: [(5, 13)]}
    order, parent = orient(adj, [5, 1])
    assert order == [5, 1, 6, 3, 2, 4]
    assert parent == {5: None, 1: None, 6: (5, 13), 3: (1, 11), 2: (1, 10),
                      4: (3, 12)}
    # vertices no root reaches are left out
    assert orient(adj, [2]) == ([2, 1, 3, 4], {2: None, 1: (2, 10),
                                               3: (1, 11), 4: (3, 12)})


def test_parse_basic():
    text = """33D32945 STP File, STP Format Version 1.0
SECTION Graph
Nodes 3
Edges 2
E 1 2 4
E 2 3 1/2
END
SECTION Terminals
Terminals 2
T 1
T 3
END
EOF
"""
    inst = parse_stp(text)
    assert inst.terminals == frozenset([1, 3])
    assert inst.costs[(1, 2)] == 4
    assert inst.costs[(2, 3)] == Rat(1, 2)


def test_parse_keeps_cheaper_parallel_edge():
    text = """SECTION Graph
Nodes 2
Edges 2
E 1 2 7
E 1 2 3
END
SECTION Terminals
Terminals 2
T 1
T 2
END
EOF
"""
    inst = parse_stp(text)
    assert inst.costs[(1, 2)] == 3


def test_parse_error_carries_line():
    with pytest.raises(STPParseError):
        parse_stp("SECTION Graph\nE 1 2\nEND\n")


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        SteinerInstance([1, 2, 3], {(1, 2): Rat(1)}, [1, 3])


def test_tree_validation():
    inst = SteinerInstance([1, 2, 3], {(1, 2): Rat(1), (2, 3): Rat(1),
                                       (1, 3): Rat(5)}, [1, 3])
    t = SteinerTree(inst, [(1, 2), (2, 3)])
    assert t.cost == 2
    with pytest.raises(ValueError):
        SteinerTree(inst, [(1, 2)])  # does not span the terminals
    with pytest.raises(ValueError):
        SteinerTree(inst, [(1, 2), (2, 3), (1, 3)])  # cycle


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_render_parse_roundtrip(seed):
    inst = generate_random(4, 3, 0.5, seed=seed)
    back = parse_stp(render_stp(inst))
    # identical up to the canonical relabeling 1..n
    relabel = dict(zip(sorted(inst.vertices), range(1, len(inst.vertices) + 1)))
    assert back.terminals == frozenset(relabel[t] for t in inst.terminals)
    want = {edge_key(relabel[u], relabel[v]): c for (u, v), c in inst.costs.items()}
    assert back.costs == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_generate_random_shape(seed, quasi):
    inst = generate_random(5, 4, 0.4, seed=seed, quasi_bipartite=quasi)
    assert len(inst.terminals) == 5
    assert len(inst.vertices) == 9
    if quasi:
        assert inst.is_quasi_bipartite()


def test_generate_random_deterministic():
    a = generate_random(5, 3, 0.5, seed=99)
    b = generate_random(5, 3, 0.5, seed=99)
    assert a.costs == b.costs and a.terminals == b.terminals


_BAD_NODES = """SECTION Graph
%s
E 1 2 1
E 2 3 1
END
SECTION Terminals
T 1
T 3
END
EOF
"""


@pytest.mark.parametrize("nodes_line", ["Nodes", "Nodes x", "Nodes 4", "Nodes 100000"])
def test_bad_nodes_line_names_its_line(nodes_line):
    # a missing or non-integer count, or more nodes than the edges touch
    # (an isolated vertex), is an error on the Nodes line itself
    with pytest.raises(STPParseError) as exc:
        parse_stp(_BAD_NODES % nodes_line)
    assert exc.value.lineno == 2
    assert str(exc.value).startswith("line 2: ")


def test_far_vertex_id_without_nodes_line_refused_before_building():
    # with no Nodes line the ids 1..max id would be the vertices; a far id
    # leaves most of them isolated, refused without building that set
    text = ("SECTION Graph\nE 1 2 1\nE 2 1000000000 1\nEND\n"
            "SECTION Terminals\nT 1\nT 2\nEND\nEOF\n")
    with pytest.raises(STPParseError) as exc:
        parse_stp(text)
    assert exc.value.lineno == 0
    assert str(exc.value) == ("line 0: vertex id 1000000000 with no Nodes line "
                              "exceeds the 3 vertices the edges touch")


_NUM = st.integers(0, 50)
_COST = st.one_of(
    _NUM.map(str),
    st.tuples(_NUM, _NUM).map(lambda t: "%d.%d" % t),
    st.tuples(_NUM, _NUM).map(lambda t: "%d/%d" % t),
    st.sampled_from(["x", "-3", "1/", "/2", "1.2.3", "1/2/3", "..", "E"]),
)
_ENTRY = st.tuples(st.sampled_from(["Nodes", "E", "T"]),
                   st.lists(st.one_of(_NUM.map(str), _COST), max_size=4))
_LINE = st.one_of(
    _ENTRY.map(lambda t: " ".join([t[0]] + t[1])),
    st.sampled_from(["SECTION Graph", "SECTION", "END", "EOF", "Edges 3",
                     "Terminals 2", "# note", ""]),
)
# a section head, entries and maybe an END, so most lines land inside
# the Graph and Terminals sections
_SECTION = st.tuples(st.sampled_from(["Graph", "Terminals", "Comment"]),
                     st.lists(_LINE, max_size=8), st.booleans())
_DOC = st.lists(_SECTION, max_size=4).map(
    lambda secs: [ln for name, body, end in secs
                  for ln in ["SECTION " + name] + body + (["END"] if end else [])])


@settings(max_examples=200, deadline=None)
@given(_DOC)
def test_parse_stp_fuzz_raises_only_parse_errors(lines):
    try:
        inst = parse_stp("\n".join(lines) + "\n")
    except STPParseError:
        return
    assert isinstance(inst, SteinerInstance)
