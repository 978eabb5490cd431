"""Command-line front end.

Subcommands:
  generate   one graph -> edge-list or METIS file, timings on stdout
  analyze    structural measures of an edge-list file
  sweep      parameter grid -> per-run measures as CSV rows plus averages

Parameter errors exit with status 1 and a message on stderr; the STATS line
of `generate` is tab-separated key=value pairs for easy scraping. Its
`threads` is the worker count of the edge phase and the writer, and `pinned`
is 1 when each of the edge phase's workers ran on a CPU of its own. Its
`peak_rss_mb`, the process's peak resident set, is left out where
/proc/self/status does not exist.

hrgen calls no BLAS routine, so a process that starts numpy here runs
OpenBLAS with one thread: `OPENBLAS_NUM_THREADS` defaults to 1, which halves
numpy's import by not starting OpenBLAS's thread pool. A value set in the
environment is kept.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import AnalysisReport, analyze
from .errors import ParameterDomainError
from .generator import GeneratorParams, generate_with_stats
from .graphio import EdgeListHeader, read_edgelist, write_edgelist, write_metis
from .pool import check_threads


def _add_model_flags(p, with_output):
    p.add_argument("--nodes", type=int, required=True, help="number of vertices")
    group_k = p.add_mutually_exclusive_group(required=True)
    group_k.add_argument("--avg-degree", type=float, help="target average degree")
    group_k.add_argument("--radius", type=float, help="disk radius (overrides --avg-degree)")
    group_g = p.add_mutually_exclusive_group(required=True)
    group_g.add_argument("--gamma", type=float, help="degree power-law exponent (> 2)")
    group_g.add_argument("--alpha", type=float, help="radial growth parameter (> 0.5)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for the edge phase and the file writer",
    )
    p.add_argument(
        "--long-range-fraction",
        type=float,
        default=0.0,
        help="extra uniformly random edges as a fraction of m (default 0)",
    )
    if with_output:
        p.add_argument("--output", required=True, help="output file path")
        p.add_argument(
            "--format",
            choices=("edgelist", "metis"),
            default="edgelist",
            help="output file format (default edgelist)",
        )
        p.add_argument(
            "--analyze",
            action="store_true",
            help="also print the analysis report for the generated graph",
        )


def _add_grid_flags(p):
    p.add_argument("--nodes-list", required=True, help="comma-separated vertex counts")
    p.add_argument("--degree-list", required=True, help="comma-separated average degrees")
    p.add_argument("--gamma-list", required=True, help="comma-separated power-law exponents")
    p.add_argument("--reps", type=int, default=1, help="repetitions per grid cell")
    p.add_argument("--seed", type=int, default=0, help="base seed; rep i uses seed+i")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--threads", type=int, default=1, help="edge-phase worker threads")


def _params_from_args(args) -> GeneratorParams:
    return GeneratorParams(
        n=args.nodes,
        avg_degree=args.avg_degree,
        radius=args.radius,
        gamma=args.gamma,
        alpha=args.alpha,
        seed=args.seed,
        threads=args.threads,
        long_range_fraction=args.long_range_fraction,
    )


def _peak_rss_mb():
    """This process's peak resident set in MB from VmHWM, or None where
    /proc/self/status does not exist. Unlike ru_maxrss, VmHWM starts afresh
    at exec and leaves out the parent's peak."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _cmd_generate(args) -> int:
    params = _params_from_args(args)
    graph, stats = generate_with_stats(params)
    t0 = time.perf_counter_ns()
    if args.format == "edgelist":
        header = EdgeListHeader(
            n=graph.n, m=graph.m, seed=params.seed, radius=stats.radius, alpha=stats.alpha
        )
        write_edgelist(graph, args.output, header, threads=params.threads)
    else:
        write_metis(graph, args.output, threads=params.threads)
    fields = [
        ("n", stats.n),
        ("m", stats.m),
        ("R", f"{stats.radius:.10g}"),
        ("alpha", f"{stats.alpha:.10g}"),
        ("threads", stats.threads),
        ("pinned", int(stats.pinned)),
        ("t_sample_ns", stats.t_sample_ns),
        ("t_build_ns", stats.t_build_ns),
        ("t_edges_ns", stats.t_edges_ns),
        ("t_long_range_ns", stats.t_long_range_ns),
        ("t_write_ns", time.perf_counter_ns() - t0),
    ]
    peak = _peak_rss_mb()
    if peak is not None:
        fields.append(("peak_rss_mb", f"{peak:.1f}"))
    print("STATS\t" + "\t".join(f"{key}={value}" for key, value in fields))
    if args.analyze:
        print(analyze(graph).to_text(), end="")
    return 0


def _cmd_analyze(args) -> int:
    graph, _ = read_edgelist(args.input)
    report = analyze(graph)
    text = report.to_text()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _parse_list(text, conv):
    try:
        values = [conv(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterDomainError(f"bad grid value in {text!r}: {exc}") from exc
    if not values:
        raise ParameterDomainError(f"empty grid list {text!r}")
    return values


_RUN_FIELDS = ["n_target", "avg_degree_target", "gamma", "rep", "seed", "status"]
_TIMING_FIELDS = ["t_sample_ns", "t_build_ns", "t_edges_ns", "t_total_ns"]


def _grid_runs(args):
    nodes = _parse_list(args.nodes_list, int)
    degrees = _parse_list(args.degree_list, float)
    gammas = _parse_list(args.gamma_list, float)
    if args.reps < 1:
        raise ParameterDomainError("--reps must be at least 1")
    check_threads(args.threads)
    for n in nodes:
        for k in degrees:
            for g in gammas:
                yield n, k, g


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _average_row(cell_rows, fieldnames):
    """Mean of the measured fields over the successful runs of one grid cell;
    the identity columns of the cell pass through untouched."""
    out = dict(cell_rows[0])
    out["rep"] = "mean"
    out["seed"] = ""
    numeric = [name for name in fieldnames if name not in _RUN_FIELDS]
    for name in numeric:
        values = [
            float(r[name])
            for r in cell_rows
            if r.get("status") == "ok" and r.get(name) not in ("", None)
        ]
        out[name] = sum(values) / len(values) if values else ""
    out["status"] = "ok" if any(r.get("status") == "ok" for r in cell_rows) else "error"
    return out


def _cmd_sweep(args) -> int:
    report_fields = AnalysisReport.field_names()
    fieldnames = _RUN_FIELDS + ["R", "alpha"] + report_fields + _TIMING_FIELDS
    rows = []
    for n, k, g in _grid_runs(args):
        cell_rows = []
        for rep in range(args.reps):
            seed = args.seed + rep
            row = {
                "n_target": n,
                "avg_degree_target": k,
                "gamma": g,
                "rep": rep,
                "seed": seed,
                "status": "ok",
            }
            try:
                params = GeneratorParams(
                    n=n,
                    avg_degree=k,
                    gamma=g,
                    seed=seed,
                    threads=args.threads,
                )
                graph, stats = generate_with_stats(params)
                report = analyze(graph)
            except ValueError as exc:
                row["status"] = f"error: {exc}"
            else:
                row["R"] = f"{stats.radius:.10g}"
                row["alpha"] = f"{stats.alpha:.10g}"
                for name, value in report.to_dict().items():
                    row[name] = "" if value is None else value
                row["t_sample_ns"] = stats.t_sample_ns
                row["t_build_ns"] = stats.t_build_ns
                row["t_edges_ns"] = stats.t_edges_ns
                row["t_total_ns"] = stats.t_total_ns
            cell_rows.append(row)
        rows.extend(cell_rows)
        rows.append(_average_row(cell_rows, fieldnames))
    _write_csv(args.output, fieldnames, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrgen",
        description="Random hyperbolic graph generation and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate one graph and write it to a file")
    _add_model_flags(p_gen, with_output=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_ana = sub.add_parser("analyze", help="analyze an edge-list file")
    p_ana.add_argument("--input", required=True, help="edge-list file to read")
    p_ana.add_argument("--output", help="also write the report to this path")
    p_ana.set_defaults(func=_cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="grid of runs with full analysis, CSV out")
    _add_grid_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
