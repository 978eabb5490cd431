import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrgen import Graph
from hrgen.graph import MAX_N, index_dtype, pair_keys

from helpers import csr_lexsort, from_edges, has_edge


def test_empty_graph():
    g = from_edges(0, [])
    assert g.n == 0 and g.m == 0
    assert g.edge_array().shape == (0, 2)
    g = from_edges(3, [])
    assert g.n == 3 and g.m == 0
    assert g.degrees().tolist() == [0, 0, 0]


def test_small_graph_accessors():
    g = from_edges(4, [(2, 1), (0, 3), (1, 0)])
    assert g.n == 4
    assert g.m == 3
    assert g.degrees().tolist() == [2, 2, 1, 1]
    assert g.neighbors(0).tolist() == [1, 3]
    assert g.neighbors(2).tolist() == [1]
    assert has_edge(g, 1, 2) and has_edge(g, 2, 1)
    assert not has_edge(g, 0, 2)
    assert not has_edge(g, 3, 3)
    # canonical order: u < v, rows sorted
    assert g.edge_array().tolist() == [[0, 1], [0, 3], [1, 2]]


def test_validation():
    with pytest.raises(ValueError):
        from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        from_edges(2, [(-1, 0)])
    with pytest.raises(ValueError):
        from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1), (1, 0)])  # same edge twice
    with pytest.raises(ValueError):
        Graph.from_edge_arrays(-1, np.array([]), np.array([]))


@pytest.mark.parametrize("build", [
    lambda: Graph.from_edge_arrays(3, [0.5], [1.9]),
    lambda: Graph.from_edge_arrays(10, [1.5, 5]),
    lambda: Graph.from_edge_arrays(3, np.array([0.0]), np.array([1], dtype=np.int64)),
    lambda: Graph.from_edge_arrays(3, np.array([True]), np.array([False])),
    lambda: pair_keys(10, [1.5], [5]),
], ids=["pairs", "keys", "one-side", "bool", "pair_keys"])
def test_non_integer_ids_rejected(build):
    # not truncated to the nearest lower vertex id
    with pytest.raises(ValueError, match="must be integers"):
        build()


def test_empty_input_of_any_dtype_accepted():
    for empty in ([], np.zeros(0), np.zeros(0, dtype=np.int64)):
        assert Graph.from_edge_arrays(3, empty, empty).m == 0
        assert Graph.from_edge_arrays(3, empty).m == 0
        assert pair_keys(3, empty, empty).dtype == np.int64


@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_edge_array_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < 0.2, k=1)
    u, v = np.nonzero(mask)
    g = Graph.from_edge_arrays(n, u, v)
    assert g.m == u.size
    edges = g.edge_array()
    assert np.array_equal(edges[:, 0], u) and np.array_equal(edges[:, 1], v)
    back = Graph.from_edge_arrays(n, edges[:, 0], edges[:, 1])
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)
    deg = g.degrees()
    assert int(deg.sum()) == 2 * g.m
    for vtx in range(0, n, max(1, n // 7)):
        nbrs = g.neighbors(vtx)
        assert np.all(np.diff(nbrs) > 0)
        for w in nbrs.tolist():
            assert has_edge(g, vtx, w)


def test_edge_input_order_is_irrelevant():
    e = [(4, 0), (1, 2), (0, 1), (3, 4)]
    a = from_edges(5, e)
    b = from_edges(5, list(reversed(e)))
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.indptr, b.indptr)


def random_edge_list(n, density, seed, ascending=False):
    """A random simple edge list on n vertices, each edge in random
    orientation, in random order; or, if `ascending`, each pair as (u, v)
    with u < v, in lexicographic order, as an edge file holds them."""
    rng = np.random.default_rng(seed)
    u, v = np.nonzero(np.triu(rng.random((n, n)) < density, k=1))
    if ascending:
        return u, v
    flip = rng.random(u.size) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    order = rng.permutation(u.size)
    return u[order], v[order]


@given(st.integers(0, 200), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
@example(n=0, density=0.0, seed=0)
@example(n=7, density=0.0, seed=0)
@settings(max_examples=80, deadline=None)
def test_from_edge_arrays_matches_lexsort_oracle(n, density, seed):
    # sparse draws leave isolated vertices, including the first and the last;
    # ascending input skips the sort
    for ascending in (False, True):
        u, v = random_edge_list(n, density, seed, ascending)
        g = Graph.from_edge_arrays(n, u, v)
        indptr, indices = csr_lexsort(n, u, v)
        assert g.n == n and g.m == u.size
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        assert np.array_equal(g.keys, np.sort(keys))
        # the same graph from its keys, which are sorted in place and kept
        from_keys = Graph.from_edge_arrays(n, keys)
        assert from_keys == g and from_keys.keys is keys


@pytest.mark.parametrize("flaw", ["reversed_duplicate", "self_loop", "id_n", "id_negative"])
@given(st.integers(2, 120), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_from_edge_arrays_rejects_flawed_input(flaw, n, seed):
    for ascending in (False, True):
        u, v = random_edge_list(n, 0.2, seed, ascending)
        rng = np.random.default_rng(seed)
        if u.size == 0:
            u, v = np.array([0]), np.array([1])
        i = int(rng.integers(0, u.size))
        bad_u, bad_v = {
            "reversed_duplicate": (v[i], u[i]),
            "self_loop": (u[i], u[i]),
            "id_n": (u[i], n),
            "id_negative": (-1, v[i]),
        }[flaw]
        # placed right after its model, a reversed duplicate gives ascending
        # input two equal neighbouring keys
        at = i + 1 if ascending else int(rng.integers(0, u.size + 1))
        with pytest.raises(ValueError):
            Graph.from_edge_arrays(n, np.insert(u, at, bad_u), np.insert(v, at, bad_v))
        # as a key, a reversed pair reads as the pair itself or as a key whose
        # low part exceeds its high part
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        with pytest.raises(ValueError):
            Graph.from_edge_arrays(n, np.insert(keys, at, bad_u * n + bad_v))


def star_with_isolated_vertices():
    # a hub joined to most vertices, a few other edges, and vertices with no
    # edge at the start, in the middle and at the end
    rng = np.random.default_rng(4)
    leaves = np.setdiff1d(np.arange(1, 299), [17, 150, 151])
    u = np.concatenate((np.full(leaves.size, 17), rng.choice(leaves, 40)))
    v = np.concatenate((leaves, rng.choice(leaves, 40)))
    keep = u != v
    keys = np.unique(np.minimum(u, v)[keep] * 300 + np.maximum(u, v)[keep])
    return 300, keys // 300, keys % 300


@pytest.mark.parametrize(
    "n, u, v",
    [
        (0, [], []),
        (1, [], []),
        (6, [], []),
        (6, [0, 5, 2], [5, 2, 4]),
        star_with_isolated_vertices(),
    ],
)
def test_csr_view_is_int32_and_matches_lexsort_oracle(n, u, v):
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    g = Graph.from_edge_arrays(n, u, v)
    indptr, indices = csr_lexsort(n, u, v)
    assert g.indices.dtype == np.int32
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)


def test_index_dtype_widens_from_two_to_the_31():
    # checked on the rule alone: a graph of 2**31 vertices would need GBs
    assert index_dtype(0) is np.int32
    assert index_dtype(2**31 - 1) is np.int32
    assert index_dtype(2**31) is np.int64
    assert index_dtype(MAX_N) is np.int64


@pytest.mark.parametrize(
    "keys, message",
    [
        ([1, 2, -1], "outside"),
        ([-1, 7], "outside"),
        ([5, 16], "outside"),
        ([16, 1], "outside"),
        ([1, 4], "u >= v"),
        ([6, 1, 5], "u >= v"),
        ([1, 2, 1], "duplicate"),
    ],
)
def test_from_keys_raises_what_it_finds(keys, message):
    # n = 4: keys 0..15, u < v for 1, 2, 3, 6, 7, 11; ascending input is
    # checked without a sort, the rest after one
    with pytest.raises(ValueError, match=message):
        Graph.from_edge_arrays(4, np.array(keys))


@pytest.mark.parametrize("n", [MAX_N + 1, 2**32])
def test_from_edge_arrays_rejects_n_beyond_int64_keys(n):
    # the bound is checked before indptr (n + 1 entries) is allocated
    with pytest.raises(ValueError, match="n must be in"):
        Graph.from_edge_arrays(n, [0], [1])
    with pytest.raises(ValueError, match="n must be in"):
        Graph.from_edge_arrays(n, [1])


def test_graphs_compare_by_n_and_keys():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert g == Graph(n=3, keys=g.keys.copy())
    assert not g != Graph(n=3, keys=g.keys.copy())
    assert g != from_edges(4, [(0, 1), (1, 2)])
    assert from_edges(3, []) != from_edges(4, [])  # keys equal, n not
    assert g != from_edges(3, [(0, 1), (0, 2)])
    assert g != from_edges(3, [(0, 1)])
    assert g != (3, g.keys) and g != "graph"
    assert g.__eq__(g.keys) is NotImplemented


def test_graph_is_unhashable():
    # it holds a mutable array
    with pytest.raises(TypeError):
        hash(from_edges(3, [(0, 1), (1, 2)]))
