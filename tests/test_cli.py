import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hrgen import GeneratorParams, cli, generate, graphio, read_edgelist
from hrgen.analysis import AnalysisReport
from hrgen.cli import main
from hrgen.graph import MAX_N


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_readable_file(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code, stdout, _ = run_cli(
        capsys,
        "generate",
        "--nodes", "1000",
        "--avg-degree", "8",
        "--gamma", "3",
        "--seed", "7",
        "--output", str(out),
    )
    assert code == 0
    assert stdout.startswith("STATS\t")
    graph, header = read_edgelist(out)
    assert header is not None
    assert header.n == 1000 and header.seed == 7
    assert graph.m == header.m
    # the file matches a library-level run with the same parameters
    direct = generate(GeneratorParams(n=1000, avg_degree=8.0, gamma=3.0, seed=7))
    assert np.array_equal(graph.indices, direct.indices)
    stats = dict(
        item.split("=") for item in stdout.splitlines()[0].split("\t")[1:]
    )
    assert int(stats["m"]) == graph.m


def test_generate_byte_identical_across_threads(tmp_path, capsys, monkeypatch):
    # small write blocks, so the writers format many blocks in the pool
    monkeypatch.setattr(graphio, "_WRITE_BLOCK", 2000)
    for fmt in ("edgelist", "metis"):
        files = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"t{threads}.{fmt}"
            code, stdout, _ = run_cli(
                capsys,
                "generate",
                "--nodes", "5000",
                "--avg-degree", "10",
                "--gamma", "2.5",
                "--seed", "3",
                "--threads", threads,
                "--format", fmt,
                "--output", str(out),
            )
            assert code == 0
            assert stats_fields(stdout)["threads"] == threads
            files.append(out.read_bytes())
        assert files[0] == files[1] == files[2]


def test_generate_metis_output(tmp_path, capsys):
    out = tmp_path / "g.metis"
    code, _, _ = run_cli(
        capsys,
        "generate",
        "--nodes", "200",
        "--radius", "6",
        "--alpha", "1",
        "--output", str(out),
        "--format", "metis",
    )
    assert code == 0
    first = out.read_text().splitlines()[0].split()
    assert first[0] == "200"


def test_generate_with_inline_analysis(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code, stdout, _ = run_cli(
        capsys,
        "generate",
        "--nodes", "500",
        "--avg-degree", "6",
        "--gamma", "3",
        "--output", str(out),
        "--analyze",
    )
    assert code == 0
    assert "\nmean_local_clustering " in stdout
    assert "\nn 500\n" in "\n" + stdout.split("STATS")[1]


def test_analyze_subcommand(tmp_path, capsys):
    out = tmp_path / "g.edges"
    run_cli(
        capsys,
        "generate",
        "--nodes", "800",
        "--avg-degree", "8",
        "--gamma", "3",
        "--output", str(out),
    )
    report_path = tmp_path / "report.txt"
    code, stdout, _ = run_cli(
        capsys, "analyze", "--input", str(out), "--output", str(report_path)
    )
    assert code == 0
    assert stdout.startswith("n 800\n")
    assert report_path.read_text() == stdout


def test_sweep_csv_structure(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys,
        "sweep",
        "--nodes-list", "300,600",
        "--degree-list", "6",
        "--gamma-list", "2.5,3.5",
        "--reps", "2",
        "--seed", "11",
        "--output", str(out),
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 4 grid cells x (2 reps + 1 mean row)
    assert len(rows) == 12
    assert "wrote 12 rows" in stdout
    for name in AnalysisReport.field_names():
        assert name in rows[0]
    mean_rows = [r for r in rows if r["rep"] == "mean"]
    assert len(mean_rows) == 4
    plain = [r for r in rows if r["rep"] != "mean"]
    assert all(r["status"] == "ok" for r in plain)
    assert {r["seed"] for r in plain} == {"11", "12"}
    cell = [r for r in plain if r["n_target"] == "300" and r["gamma"] == "2.5"]
    mean = next(
        r for r in mean_rows if r["n_target"] == "300" and r["gamma"] == "2.5"
    )
    assert float(mean["m"]) == pytest.approx(
        sum(float(r["m"]) for r in cell) / len(cell)
    )


def test_infeasible_parameters_exit_one(tmp_path, capsys):
    code, stdout, stderr = run_cli(
        capsys,
        "generate",
        "--nodes", "50",
        "--avg-degree", "45",
        "--gamma", "2.1",
        "--output", str(tmp_path / "x.edges"),
    )
    assert code == 1
    assert stderr.startswith("error:")
    assert stdout == ""


@pytest.mark.parametrize(
    "size_flags", [["--radius", "38"], ["--avg-degree", "1e-6"]]
)
def test_radius_beyond_the_poincare_disk_exits_one(tmp_path, capsys, size_flags):
    out = tmp_path / "x.edges"
    code, stdout, stderr = run_cli(
        capsys,
        "generate", "--nodes", "100", *size_flags, "--alpha", "1",
        "--output", str(out),
    )
    assert code == 1
    assert stderr.startswith("error: disk radius") and "too large" in stderr
    assert stdout == ""
    assert not out.exists()


def test_sinh_overflow_exits_one_without_a_file(tmp_path, capsys):
    out = tmp_path / "x.edges"
    code, stdout, stderr = run_cli(
        capsys,
        "generate", "--nodes", "100", "--radius", "10", "--alpha", "200",
        "--output", str(out),
    )
    assert code == 1
    assert stderr.startswith("error: alpha*R/2 = 1000 is too large")
    assert stdout == ""
    assert not out.exists()


def test_infinite_gamma_exits_one_without_a_file(tmp_path, capsys):
    out = tmp_path / "x.edges"
    code, stdout, stderr = run_cli(
        capsys,
        "generate", "--nodes", "100", "--avg-degree", "8", "--gamma", "inf",
        "--output", str(out),
    )
    assert code == 1
    assert stderr.startswith("error: gamma must be finite")
    assert stdout == ""
    assert not out.exists()


def test_n_beyond_int64_keys_exits_one_without_a_file(tmp_path, capsys):
    out = tmp_path / "x.edges"
    code, stdout, stderr = run_cli(
        capsys,
        "generate", "--nodes", str(MAX_N + 1), "--avg-degree", "16", "--gamma", "3",
        "--output", str(out),
    )
    assert code == 1
    assert stderr.startswith("error: n must be in")
    assert stdout == ""
    assert not out.exists()


STATS_KEYS = [
    "n", "m", "R", "alpha", "threads", "pinned", "t_sample_ns", "t_build_ns", "t_edges_ns",
    "t_long_range_ns", "t_write_ns",
]


def stats_fields(stdout):
    line = stdout.splitlines()[0].split("\t")
    assert line[0] == "STATS"
    return dict(field.split("=", 1) for field in line[1:])


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="peak RSS is read from /proc"
)
def test_stats_line_ends_with_write_time_and_peak_rss(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "generate", "--nodes", "300", "--avg-degree", "6", "--gamma", "3",
        "--output", str(tmp_path / "g.edges"),
    )
    assert code == 0
    stats = stats_fields(stdout)
    assert list(stats) == STATS_KEYS + ["peak_rss_mb"]
    assert int(stats["t_write_ns"]) > 0
    assert float(stats["peak_rss_mb"]) > 0.0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_stats_line_reports_threads_and_pinning(tmp_path, capsys, threads):
    code, stdout, _ = run_cli(
        capsys,
        "generate", "--nodes", "300", "--avg-degree", "6", "--gamma", "3",
        "--threads", threads, "--output", str(tmp_path / "g.edges"),
    )
    assert code == 0
    stats = stats_fields(stdout)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0
    assert stats["threads"] == threads
    assert stats["pinned"] == str(int(1 < int(threads) == cpus))


def test_stats_line_omits_peak_rss_without_proc(tmp_path, capsys, monkeypatch):
    def no_proc(path, *args, **kwargs):
        if str(path).startswith("/proc/"):
            raise FileNotFoundError(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    code, stdout, _ = run_cli(
        capsys,
        "generate", "--nodes", "300", "--avg-degree", "6", "--gamma", "3",
        "--output", str(tmp_path / "g.edges"),
    )
    assert code == 0
    assert list(stats_fields(stdout)) == STATS_KEYS


def test_no_command_imports_scipy(tmp_path):
    # hrgen runs on numpy alone: scipy is only a test dependency
    script = f"""
import sys
from hrgen.cli import main
path = {str(tmp_path / "g.edges")!r}
args = ["--nodes", "300", "--avg-degree", "6", "--gamma", "3"]
assert main(["generate", *args, "--output", path]) == 0
assert main(["generate", *args, "--format", "metis",
             "--output", {str(tmp_path / "g.metis")!r}]) == 0
assert main(["analyze", "--input", path]) == 0
assert "scipy" not in sys.modules, "hrgen loaded scipy"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("STATS\t") and "max_core" in done.stdout


def test_sweep_records_per_cell_errors(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--nodes-list", "50,400",
        "--degree-list", "45",
        "--gamma-list", "2.1",
        "--output", str(out),
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r for r in rows if r["n_target"] == "50" and r["rep"] != "mean"]
    good = [r for r in rows if r["n_target"] == "400" and r["rep"] != "mean"]
    assert all(r["status"].startswith("error:") for r in bad)
    assert all(r["status"] == "ok" for r in good)


@pytest.mark.parametrize("flag", ["--threads", "--reps"])
def test_sweep_checks_its_counts_before_any_run(tmp_path, capsys, flag):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--nodes-list", "300",
        "--degree-list", "6",
        "--gamma-list", "3",
        flag, "0",
        "--output", str(out),
    )
    assert code == 1 and "must be at least 1" in err
    assert not out.exists()


def test_missing_required_flag_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--nodes", "10", "--gamma", "3",
              "--output", str(tmp_path / "x")])
    assert exc.value.code == 2


# sha256 of files written before the writers, the CSR build and the shortcut
# sampler were vectorized; any change to the output bytes fails here.
PINNED_OUTPUTS = [
    (
        ["--avg-degree", "8", "--gamma", "3", "--threads", "1"],
        "edgelist",
        "23d21bb62eb5d2f9a05d037f116a68aa3a0aac80286ea77c20c30fed003b3fa9",
    ),
    (
        ["--avg-degree", "32", "--gamma", "2.2", "--threads", "2",
         "--long-range-fraction", "0.05"],
        "edgelist",
        "76b506f1fc4c8175156132cb352498918d819cfcf02f07693cf973801d4ccd5d",
    ),
    (
        # this graph has 8 isolated vertices, i.e. empty METIS lines
        ["--avg-degree", "8", "--gamma", "3", "--threads", "1"],
        "metis",
        "65769e18bffc2d6f4d7033716669460e60a6cc4c550ad4c0f56e76bcd81d83f7",
    ),
]


@pytest.mark.parametrize("flags, fmt, digest", PINNED_OUTPUTS)
def test_output_bytes_pinned(tmp_path, capsys, flags, fmt, digest):
    out = tmp_path / "g.out"
    code, _, _ = run_cli(
        capsys,
        "generate", "--nodes", "2000", "--seed", "5", *flags,
        "--format", fmt, "--output", str(out),
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
