import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from hrgen import EdgeListHeader, GeneratorParams, ParameterDomainError
from hrgen import generate_with_stats, graphio, write_edgelist, write_metis
from hrgen.pool import WorkerPool

HAS_AFFINITY = hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity")
CPUS = sorted(os.sched_getaffinity(0)) if HAS_AFFINITY else []


def worker_affinities(pool, threads):
    """The affinity of each of `threads` distinct workers: a barrier keeps
    every task waiting until `threads` workers hold one."""
    barrier = threading.Barrier(threads, timeout=30)

    def task():
        barrier.wait()
        return frozenset(os.sched_getaffinity(0))

    futures = [pool.submit(task) for _ in range(threads)]
    return [future.result(timeout=30) for future in futures]


@pytest.fixture(scope="module")
def small_graph():
    graph, stats = generate_with_stats(
        GeneratorParams(n=3000, avg_degree=8.0, gamma=2.5, seed=5)
    )
    header = EdgeListHeader(
        n=graph.n, m=graph.m, seed=5, radius=stats.radius, alpha=stats.alpha
    )
    return graph, header


def written_files(graph, header, path, threads):
    """Bytes of the edge list and the METIS file, written in blocks of 500
    values, so both writers format many blocks in the pool."""
    with mock.patch.object(graphio, "_WRITE_BLOCK", 500):
        write_edgelist(graph, path / f"t{threads}.edges", header, threads=threads)
        write_metis(graph, path / f"t{threads}.metis", threads=threads)
    return (
        (path / f"t{threads}.edges").read_bytes(),
        (path / f"t{threads}.metis").read_bytes(),
    )


@pytest.mark.skipif(
    not 2 <= len(CPUS) <= 4, reason="needs two to four allowed CPUs to pin to"
)
def test_workers_are_pinned_to_distinct_cpus_of_the_process_mask():
    before = os.sched_getaffinity(0)
    with WorkerPool(len(CPUS)) as pool:
        seen = worker_affinities(pool, len(CPUS))
    assert pool.pinned
    assert sorted(next(iter(cpus)) for cpus in seen) == CPUS
    assert all(len(cpus) == 1 for cpus in seen)
    assert os.sched_getaffinity(0) == before


def test_fewer_threads_than_allowed_cpus_are_not_pinned(small_graph, tmp_path, monkeypatch):
    # pinned to the first CPUs of the mask, every such process would share them
    expected = written_files(*small_graph, tmp_path, 1)
    taken = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, cpus: taken.append(cpus), raising=False
    )
    with WorkerPool(2) as pool:
        assert sum(pool.map(lambda x: x, range(4))) == 6
    assert not pool.pinned
    assert written_files(*small_graph, tmp_path, 2) == expected
    assert taken == []


@pytest.mark.skipif(not HAS_AFFINITY, reason="no CPU affinity on this platform")
def test_one_thread_is_never_pinned():
    with WorkerPool(1) as pool:
        (seen,) = worker_affinities(pool, 1)
    assert not pool.pinned
    assert seen == os.sched_getaffinity(0)


@pytest.mark.skipif(
    not HAS_AFFINITY or len(CPUS) + 1 > 4, reason="needs at most three allowed CPUs"
)
def test_more_threads_than_allowed_cpus_are_not_pinned(small_graph, tmp_path):
    threads = len(CPUS) + 1
    with WorkerPool(threads) as pool:
        seen = worker_affinities(pool, threads)
    assert not pool.pinned
    assert set(seen) == {frozenset(CPUS)}
    graph, header = small_graph
    assert written_files(graph, header, tmp_path, threads) == written_files(
        graph, header, tmp_path, 1
    )


def test_one_allowed_cpu_leaves_two_threads_unpinned(monkeypatch):
    if not HAS_AFFINITY:
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with WorkerPool(2) as pool:
        assert sum(pool.map(lambda x: x, range(4))) == 6
    assert not pool.pinned


@pytest.mark.parametrize("missing", ["sched_getaffinity", "sched_setaffinity"])
def test_missing_affinity_calls_skip_pinning(small_graph, tmp_path, monkeypatch, missing):
    expected = written_files(*small_graph, tmp_path, 1)
    monkeypatch.delattr(os, missing, raising=False)
    with WorkerPool(2) as pool:
        assert sum(pool.map(lambda x: x, range(4))) == 6
    assert not pool.pinned
    assert written_files(*small_graph, tmp_path, 2) == expected


def test_failing_pin_leaves_the_pool_working(small_graph, tmp_path, monkeypatch):
    expected = written_files(*small_graph, tmp_path, 1)
    calls = []

    def refuse(pid, cpus):
        calls.append(cpus)
        raise OSError(22, "Invalid argument")

    # two allowed CPUs, so two threads try to pin wherever the test runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    with WorkerPool(2) as pool:
        assert sum(pool.map(lambda x: x, range(4))) == 6  # no BrokenThreadPool
    assert calls and not pool.pinned
    assert written_files(*small_graph, tmp_path, 2) == expected
    graph, stats = generate_with_stats(
        GeneratorParams(n=3000, avg_degree=8.0, gamma=2.5, seed=5, threads=2)
    )
    assert not stats.pinned
    assert np.array_equal(graph.keys, small_graph[0].keys)


def test_each_worker_takes_a_cpu_of_its_own_under_frequent_switches(monkeypatch):
    # four workers on a pretended four-CPU mask, more than this box has: a
    # lost update of the shared CPU iterator would give two workers one CPU
    taken = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5, 7, 9}, raising=False)
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, cpus: taken.extend(cpus), raising=False
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(4) as pool:
            barrier = threading.Barrier(4, timeout=30)
            futures = [pool.submit(barrier.wait) for _ in range(4)]
            for future in futures:
                future.result(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert pool.pinned
    assert sorted(taken) == [3, 5, 7, 9]


@pytest.mark.parametrize("threads", [2, 3])
def test_writers_are_byte_identical_for_any_thread_count(small_graph, tmp_path, threads):
    assert written_files(*small_graph, tmp_path, threads) == written_files(
        *small_graph, tmp_path, 1
    )


@pytest.mark.skipif(not HAS_AFFINITY, reason="no CPU affinity on this platform")
def test_generation_leaves_the_calling_thread_affinity_alone(tmp_path):
    before = os.sched_getaffinity(0)
    graph, stats = generate_with_stats(
        GeneratorParams(n=20_000, avg_degree=8.0, gamma=2.5, seed=1, threads=2)
    )
    with mock.patch.object(graphio, "_WRITE_BLOCK", 1000):
        write_edgelist(graph, tmp_path / "g.edges", threads=2)
    assert os.sched_getaffinity(0) == before
    assert stats.threads == 2 and stats.pinned == (len(CPUS) == 2)


@pytest.mark.parametrize("threads", [0, -1, 1.3, 1.5, True, "2"])
def test_writers_refuse_fewer_than_one_thread_before_opening_the_file(
    small_graph, tmp_path, threads
):
    # a fractional count would never fill `_write_blocks`' 2 * threads bound,
    # and so keep every block in flight
    graph, header = small_graph
    with pytest.raises(ParameterDomainError, match="threads"):
        write_edgelist(graph, tmp_path / "g.edges", header, threads=threads)
    with pytest.raises(ParameterDomainError, match="threads"):
        write_metis(graph, tmp_path / "g.metis", threads=threads)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ParameterDomainError, match="threads"):
        WorkerPool(threads)
    with pytest.raises(ParameterDomainError, match="threads"):
        GeneratorParams(n=10, avg_degree=4.0, gamma=3.0, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_writer_keeps_at_most_two_blocks_per_worker_in_flight(
    small_graph, tmp_path, threads
):
    graph, header = small_graph
    in_flight, most = [0], [0]
    lock = threading.Lock()
    format_ids = graphio._format_ids

    def counted(*args, **kwargs):
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
        return format_ids(*args, **kwargs)

    class CountingFile:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            if data[:1] != b"#":
                with lock:
                    in_flight[0] -= 1
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    opener = open
    with mock.patch.object(graphio, "_format_ids", counted), mock.patch.object(
        graphio, "open", lambda path, mode: CountingFile(opener(path, mode)), create=True
    ), mock.patch.object(graphio, "_WRITE_BLOCK", 100):
        write_edgelist(graph, tmp_path / "g.edges", header, threads=threads)
    assert graph.m > 50 * 100
    assert in_flight[0] == 0
    assert 1 <= most[0] <= 2 * threads
