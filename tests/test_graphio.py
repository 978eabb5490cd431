from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrgen import (
    EdgeListHeader,
    GeneratorParams,
    Graph,
    generate,
    read_edgelist,
    write_edgelist,
    write_metis,
)

from hrgen import graphio
from hrgen.graph import MAX_N

from helpers import write_edgelist_lines, write_metis_lines


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
    # an m far beyond what the file can hold allocates nothing for it
    path.write_text("# 3 1000000000000000 0 1.0 1.0\n0 1\n")
    with pytest.raises(ValueError, match="announces 1000000000000000 edges, file holds 1"):
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
        "0 1\n-1 2\n",
        "0 1\n# note\n",
        "0 1\n2 3.0\n",
        "0 1234567890123456789\n",
    ],
)
def test_misshapen_edge_lines_rejected(tmp_path, body):
    # a line must hold exactly two integers; lines are not run together
    path = tmp_path / "bad.edges"
    path.write_text(body)
    with pytest.raises(ValueError):
        read_edgelist(path)


@pytest.mark.parametrize(
    "body, reason",
    [
        ("# 3 1 0 1.0 1.0\n0 3\n", "vertex id outside"),
        ("# 3 1 0 1.0 1.0\n1 1\n", "self-loops"),
        ("1 1\n", "self-loops"),
        ("# x 1 0 1.0 1.0\n0 1\n", "invalid literal"),
        ("# 3 2\n0 1\n", "malformed header"),
        ("0 1\n2 x\n", "decimal vertex ids"),
        ("0 1\n1 0\n", "duplicate"),
    ],
)
def test_content_errors_name_the_file(tmp_path, body, reason):
    path = tmp_path / "bad.edges"
    path.write_text(body)
    with pytest.raises(ValueError, match=reason) as caught:
        read_edgelist(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert isinstance(caught.value.__cause__, ValueError)


def test_blank_space_and_line_ends_accepted(tmp_path):
    path = tmp_path / "loose.edges"
    path.write_bytes(b"# 6 3 0 1.0 1.0\n 0 1\r\n\n2\t 3  \n\n4 5")
    g, h = read_edgelist(path)
    assert h.m == 3
    assert g.edge_array().tolist() == [[0, 1], [2, 3], [4, 5]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_and_reversed_lines_read_to_the_same_graph(tmp_path, seed):
    g = generate(GeneratorParams(n=300, avg_degree=6.0, gamma=3.0, seed=seed))
    rng = np.random.default_rng(seed)
    edges = g.edge_array()[rng.permutation(g.m)]
    flip = rng.random(g.m) < 0.5
    edges[flip] = edges[flip, ::-1]
    path = tmp_path / "shuffled.edges"
    path.write_text(f"# 300 {g.m} 0 1.0 1.0\n" + "".join(f"{u} {v}\n" for u, v in edges))
    back, _ = read_edgelist(path)
    assert back.n == g.n
    assert np.array_equal(back.keys, g.keys)


def test_ascending_file_with_reversed_duplicate_rejected(tmp_path):
    # every pair ascends, and the file is sorted up to its last line, which
    # repeats the first edge reversed
    path = tmp_path / "dup.edges"
    path.write_text("0 1\n0 2\n1 2\n1 0\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_edgelist(path)


def test_edge_list_round_trip_never_builds_the_csr(tmp_path):
    g = generate(
        GeneratorParams(n=2000, avg_degree=8.0, gamma=3.0, seed=5, long_range_fraction=0.1)
    )
    path = tmp_path / "g.edges"
    write_edgelist(g, path)
    back, _ = read_edgelist(path)
    for graph in (g, back):
        assert "indptr" not in vars(graph) and "indices" not in vars(graph)
    back.degrees()
    assert "indptr" in vars(back)


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


@pytest.mark.parametrize("block", [1, 4, graphio._WRITE_BLOCK])
def test_ten_digit_ids_round_trip(tmp_path, block):
    # 1- to 10-digit ids, 2**31 - 1 and 2**31 around the int32 limit; the CSR
    # of this graph would take 24 GB, so nothing here may build it
    ids = np.array([0, 9, 10, 2**31 - 1, 2**31, MAX_N - 1])
    u, v = np.triu_indices(ids.size, k=1)
    g = Graph.from_edge_arrays(MAX_N, ids[u], ids[v])
    header = EdgeListHeader(n=MAX_N, m=g.m, seed=7, radius=80.5, alpha=0.75)
    with mock.patch.object(graphio, "_WRITE_BLOCK", block):
        write_edgelist(g, tmp_path / "a", header)
    write_edgelist_lines(g, tmp_path / "b", header)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert b" 3037000498\n" in (tmp_path / "a").read_bytes()
    back, h_back = read_edgelist(tmp_path / "a")
    assert h_back == header and back == g
    for graph in (g, back):
        assert "indptr" not in vars(graph) and "indices" not in vars(graph)


@pytest.mark.parametrize("block", [5, graphio._WRITE_BLOCK])
def test_metis_digit_counts_change_inside_a_block(tmp_path, block):
    # 1-based ids 1-150 cross from 1 to 2 and from 2 to 3 digits, and
    # isolated vertices write empty lines, inside one block
    rng = np.random.default_rng(4)
    u, v = np.nonzero(np.triu(rng.random((150, 150)) < 0.03, k=1))
    g = Graph.from_edge_arrays(150, u, v)
    assert (g.degrees() == 0).any() and g.indices.max() + 1 >= 100
    with mock.patch.object(graphio, "_WRITE_BLOCK", block):
        write_metis(g, tmp_path / "a")
    write_metis_lines(g, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("dn, dm", [(1, 1), (1, 0), (0, 1), (-1, 0)])
def test_header_contradicting_graph_rejected(tmp_path, dn, dm):
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    h = EdgeListHeader(n=g.n + dn, m=g.m + dm, seed=0, radius=8.0, alpha=1.0)
    path = tmp_path / "bad.edges"
    with pytest.raises(ValueError, match="contradicts"):
        write_edgelist(g, path, header=h)
    assert not path.exists()


@given(
    st.integers(0, 400),
    st.one_of(st.integers(0, 2000), st.integers(0, 10**7)),
    st.floats(0.0, 0.05),
    st.sampled_from([1, 7, 64, graphio._WRITE_BLOCK]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_writers_match_line_by_line_oracles(
    tmp_path_factory, n, offset, density, block, seed
):
    # ids spread over many digit counts, so blocks differ in width; sparse
    # draws leave isolated vertices
    rng = np.random.default_rng(seed)
    u, v = np.nonzero(np.triu(rng.random((n, n)) < density, k=1))
    size = n + offset
    ids = np.sort(rng.choice(size, size=n, replace=False)) if n else np.zeros(0, int)
    g = Graph.from_edge_arrays(size if n else 0, ids[u], ids[v])
    header = EdgeListHeader(n=g.n, m=g.m, seed=seed, radius=12.5, alpha=0.75)
    out = tmp_path_factory.mktemp("w")
    with mock.patch.object(graphio, "_WRITE_BLOCK", block):
        write_edgelist(g, out / "a", header)
        if g.n <= 3000:
            write_metis(g, out / "c")
    write_edgelist_lines(g, out / "b", header)
    assert (out / "a").read_bytes() == (out / "b").read_bytes()
    # the reader inverts the writer, wherever its blocks cut the file
    with mock.patch.object(graphio, "_READ_BLOCK", block):
        back, h_back = read_edgelist(out / "a")
    assert h_back == header
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)
    if g.n <= 3000:
        write_metis_lines(g, out / "d")
        assert (out / "c").read_bytes() == (out / "d").read_bytes()


BLOCK = graphio._WRITE_BLOCK


@pytest.mark.parametrize(
    "n, m, with_header",
    [
        (0, 0, False),
        (7, 0, True),
        (1, 0, True),
        (1, 0, False),
        (10**6, BLOCK - 1, True),
        (10**6, BLOCK, False),
        (10**6, BLOCK + 1, True),
        (10**6, 2 * BLOCK - 1, False),
        (10**6, 2 * BLOCK, True),
        (10**6, 2 * BLOCK + 1, False),
    ],
)
def test_writer_matches_fstring_lines_at_block_boundaries(tmp_path, n, m, with_header):
    # ids of 1 to 6 digits in every block, so block widths differ
    rng = np.random.default_rng(m)
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        a, b = np.minimum(10 ** rng.uniform(0, 6, size=(2, 2 * m)), n - 1).astype(np.int64)
        keys = np.union1d(keys, (np.minimum(a, b) * n + np.maximum(a, b))[a != b])
    g = Graph(n=n, keys=np.sort(rng.permutation(keys)[:m]))
    header = EdgeListHeader(n=n, m=m, seed=3, radius=9.5, alpha=0.8) if with_header else None
    write_edgelist(g, tmp_path / "a", header)
    write_edgelist_lines(g, tmp_path / "b", header)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
