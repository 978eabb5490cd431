import numpy as np
import pytest

from hrgen import (
    EdgeListHeader,
    GeneratorParams,
    Graph,
    generate,
    read_edgelist,
    write_edgelist,
    write_metis,
)


def test_header_line_format():
    h = EdgeListHeader(n=10, m=3, seed=7, radius=12.5, alpha=0.75)
    assert h.line() == "# 10 3 7 12.5 0.75\n"


def test_roundtrip_with_header(tmp_path):
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 4)])
    h = EdgeListHeader(n=5, m=3, seed=0, radius=8.0, alpha=1.0)
    path = tmp_path / "g.edges"
    write_edgelist(g, path, header=h)
    back, h_back = read_edgelist(path)
    assert h_back == h
    assert back.n == g.n
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)


def test_roundtrip_without_header(tmp_path):
    g = Graph.from_edges(6, [(2, 5), (0, 3)])
    path = tmp_path / "plain.edges"
    write_edgelist(g, path)
    back, h = read_edgelist(path)
    assert h is None
    # headerless files cannot represent trailing isolated vertices
    assert back.n == 6
    assert np.array_equal(back.edge_array(), g.edge_array())


def test_empty_graph_roundtrip(tmp_path):
    g = Graph.from_edges(0, [])
    path = tmp_path / "empty.edges"
    write_edgelist(g, path)
    back, h = read_edgelist(path)
    assert back.n == 0 and back.m == 0 and h is None


def test_file_is_sorted_and_stable(tmp_path):
    g = Graph.from_edges(4, [(3, 1), (2, 0), (0, 1)])
    p1, p2 = tmp_path / "a", tmp_path / "b"
    write_edgelist(g, p1)
    write_edgelist(g, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines == ["0 1", "0 2", "1 3"]


def test_header_edge_count_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("# 3 2 0 1.0 1.0\n0 1\n")
    with pytest.raises(ValueError, match="announces"):
        read_edgelist(path)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("# 3 2\n0 1\n")
    with pytest.raises(ValueError, match="malformed"):
        read_edgelist(path)


@pytest.mark.parametrize(
    "body",
    [
        "0 1\n2 3 4\n5\n",
        "# 6 3 0 1.0 1.0\n0 1\n2 3 4\n5\n",
        "0 1 2 3\n",
        "0\n1\n",
        "0 1\n2 x\n",
    ],
)
def test_misshapen_edge_lines_rejected(tmp_path, body):
    # a line must hold exactly two integers; lines are not run together
    path = tmp_path / "bad.edges"
    path.write_text(body)
    with pytest.raises(ValueError):
        read_edgelist(path)


def test_generated_graph_roundtrip(tmp_path):
    g = generate(GeneratorParams(n=2000, avg_degree=8.0, gamma=3.0, seed=5))
    path = tmp_path / "big.edges"
    write_edgelist(g, path)
    back, _ = read_edgelist(path)
    assert np.array_equal(back.indices, g.indices)


def test_metis_format(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    path = tmp_path / "g.metis"
    write_metis(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "4 4"
    assert lines[1:] == ["2 3", "1 3", "1 2 4", "3"]
    # every edge appears once in each direction
    total = sum(len(l.split()) for l in lines[1:])
    assert total == 2 * g.m
