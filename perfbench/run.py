"""hrgen benchmark: end-to-end runs of the CLI, or one traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the one holding `src/hrgen`). With
`--trace 0` every operation runs the `hrgen` CLI in child processes, one at a
time, and is timed from process start to exit; peak RSS comes from each
child's own rusage. With `--trace 1` the operation runs in one child that
wraps each layer's public functions (see tracing.py). Operations run back to
back until S seconds of them have been measured, at least one. Every output
is checked by checks.py. The last stdout line is the result as JSON; earlier
lines starting with `#` describe the run. A record of each run, with the
machine facts, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "out"

# Set-up is repeated and its median reported, so one slow start does not move it.
SETUP_REPS = 3
# hrgen seeds tried per benchmark seed (see Typical); each is typical with
# probability ~0.3, so all of them failing has odds of about 1e-10.
CANDIDATES = 64
# No child may outlive this many seconds from benchmark start, and no new
# operation starts when its predecessor's time would overrun it.
DEADLINE_S = 165.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "edges_per_s": "edges/s", "peak_rss_mb": "MB"}

_IMPORT_AND_RUN = (
    "import json, sys\n"
    "from hrgen.cli import main\n"
    "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])], default=0))\n"
)


@dataclass(frozen=True)
class GraphArgs:
    """One `hrgen generate` command line."""

    nodes: int
    avg_degree: float
    gamma: float
    threads: int = 1
    long_range: float = 0.0

    def argv(self, seed, path):
        argv = ["generate", "--nodes", str(self.nodes), "--avg-degree", str(self.avg_degree),
                "--gamma", str(self.gamma), "--threads", str(self.threads),
                "--seed", str(seed), "--output", str(path)]
        if self.long_range:
            argv[-2:-2] = ["--long-range-fraction", str(self.long_range)]
        return argv


@dataclass(frozen=True)
class Typical:
    """Maps a benchmark seed to an hrgen seed whose graph is typical in size.

    The sum of exp(-beta * r) over the sampled radii is set by the innermost
    vertices, whose degrees set most of the cost: with beta = 1/2 it tracks
    m, with beta = 1 the sum of squared degrees that clustering pays for. At
    n = 10^5, gamma = 3 that second sum spans 3x between seeds and so did
    `analyze` (22 s to 30 s). The hrgen seed is the first of seed * CANDIDATES
    + j, j = 0, 1, ..., whose sum lies in [lo, hi], about the middle 30% of its
    distribution over 400 seeds. `radius` is the R hrgen solves for the
    graph's parameters; it only places the radii for this choice.
    """

    radius: float
    beta: float
    lo: float
    hi: float

    def pick(self, graph, seed):
        alpha = (graph.gamma - 1.0) / 2.0
        for j in range(CANDIDATES):
            candidate = seed * CANDIDATES + j
            _, r = checks.sample_coordinates(graph.nodes, alpha, self.radius, candidate)
            if self.lo <= np.exp(-self.beta * r).sum() <= self.hi:
                return candidate
        raise RuntimeError(f"no typical hrgen seed among {CANDIDATES} for seed {seed}")


@dataclass(frozen=True)
class Generate:
    """One `hrgen generate` per operation; the edge list is the output."""

    graph: GraphArgs
    typical: Typical

    def hrgen_seed(self, seed):
        return self.typical.pick(self.graph, seed)

    def setup_calls(self, seed, work):
        return []

    def op_calls(self, seed, work):
        return [self.graph.argv(seed, work / "graph.edges")]

    def check(self, seed, work, stdouts):
        """Returns (edges written, findings)."""
        found = checks.check_generated(
            work / "graph.edges", n=self.graph.nodes, avg_degree=self.graph.avg_degree,
            gamma=self.graph.gamma, seed=seed, long_range_fraction=self.graph.long_range,
            sample_seed=seed)
        stats = dict(f.split("=", 1) for f in stdouts[0].split()[1:]
                     if stdouts[0].startswith("STATS"))
        if int(stats.get("m", -1)) != found["m"]:
            raise checks.CheckError(f"STATS m={stats.get('m')}, file has {found['m']}")
        return found["m"], found


@dataclass(frozen=True)
class AnalyzePair:
    """`hrgen analyze` on each of the files that set-up generates; input i
    uses hrgen seed + i, and `typical` applies to input 0."""

    inputs: tuple
    typical: Typical

    def hrgen_seed(self, seed):
        return self.typical.pick(self.inputs[0], seed)

    def _path(self, work, i):
        return work / f"input{i}.edges"

    def setup_calls(self, seed, work):
        return [g.argv(seed + i, self._path(work, i)) for i, g in enumerate(self.inputs)]

    def op_calls(self, seed, work):
        return [["analyze", "--input", str(self._path(work, i))]
                for i in range(len(self.inputs))]

    def check(self, seed, work, stdouts):
        edges = 0
        for i, text in enumerate(stdouts):
            edges += checks.check_report(checks.parse_report(text), self._path(work, i))["m"]
        return edges, {}


WORKLOADS = {
    "gen-sparse-3e5": Generate(
        GraphArgs(300_000, 16, 3),
        Typical(21.54718284, 0.5, 12.5459, 12.5763)),
    "gen-dense-t2": Generate(
        GraphArgs(100_000, 64, 2.2, threads=2, long_range=0.05),
        Typical(20.16733446, 0.5, 21.124, 21.758)),
    # Set-up makes the larger input with two threads; the file is the same for
    # any thread count, and set-up is repeated, so this cuts its share of a run.
    "analyze-pair": AnalyzePair(
        (GraphArgs(100_000, 16, 3, threads=2), GraphArgs(5_000, 16, 3)),
        Typical(19.34971099, 1.0, 0.00488, 0.00594)),
}


class Runner:
    """Starts children with hrgen on the path and ends each one before the
    deadline."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, args, stdout_path=None):
        """Run one child to its end: (wall seconds, exit code, peak RSS in MB)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, env=self.env,
                                    cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdout_path:
                out.close()
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def setup(self, calls):
        wall, code, _ = self.spawn(["-c", _IMPORT_AND_RUN, json.dumps(calls)])
        if code != 0:
            raise RuntimeError(f"set-up exited with {code}")
        return wall


def _stdout_path(work, i):
    return work / f"call{i}.stdout"


def run_op(runner, workload, seed, traced):
    """One operation: (record dict, stdout texts)."""
    calls = workload.op_calls(seed, runner.work)
    record = {"wall_s": 0.0, "peak_rss_mb": 0.0, "code": 0}
    if traced:
        spec = runner.work / "trace.json"
        spans = runner.work / "spans.json"
        with open(spec, "w") as fh:
            json.dump({"calls": [[argv, str(_stdout_path(runner.work, i))]
                                 for i, argv in enumerate(calls)],
                       "spans": str(spans)}, fh)
        wall, code, rss = runner.spawn([str(BENCH / "tracing.py"), str(spec)])
        record.update(wall_s=wall, peak_rss_mb=rss, code=code)
        if code == 0:
            with open(spans) as fh:
                record["trace"] = json.load(fh)
    else:
        for i, argv in enumerate(calls):
            wall, code, rss = runner.spawn(["-m", "hrgen", *argv],
                                           _stdout_path(runner.work, i))
            record["wall_s"] += wall
            record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
            record["code"] = record["code"] or code
    stdouts = []
    for i in range(len(calls)):
        path = _stdout_path(runner.work, i)
        stdouts.append(path.read_text() if path.exists() else "")
    return record, stdouts


def run(workload, seed, seconds, traced, work, log=print):
    """Set up, run operations for `seconds`, check them; returns the result."""
    started = time.monotonic()
    runner = Runner(work, started + DEADLINE_S)
    work.mkdir(parents=True, exist_ok=True)
    for stale in work.iterdir():
        stale.unlink()
    seed = workload.hrgen_seed(seed)
    log(f"# hrgen seed {seed}")
    setup_calls = workload.setup_calls(seed, work)
    if traced:
        import_s = statistics.median(runner.setup([]) for _ in range(SETUP_REPS))
        if setup_calls:
            runner.setup(setup_calls)
    else:
        setup_s = statistics.median(runner.setup(setup_calls) for _ in range(SETUP_REPS))

    ops, failed, correct, busy = [], 0, True, 0.0
    while True:
        op_started = time.monotonic()
        record, stdouts = run_op(runner, workload, seed, traced)
        busy += record["wall_s"]
        if record["code"] != 0:
            failed += 1
            log(f"# op {len(ops)}: exit code {record['code']}")
        else:
            check_started = time.monotonic()
            try:
                record["edges"], findings = workload.check(seed, work, stdouts)
            except checks.CheckError as exc:
                failed += 1
                correct = False
                log(f"# op {len(ops)}: check failed: {exc}")
            else:
                record["ok"] = True
                log(f"# op {len(ops)}: wall {record['wall_s']:.3f} s, "
                    f"{record['edges']} edges, peak {record['peak_rss_mb']:.1f} MB, "
                    f"checked in {time.monotonic() - check_started:.1f} s {findings}")
        ops.append(record)
        op_time = time.monotonic() - op_started
        if busy >= seconds or time.monotonic() + op_time > started + DEADLINE_S:
            break

    good = [op for op in ops if op.get("ok")]
    if not good:
        raise RuntimeError("no operation completed and passed its checks")
    if traced:
        per_op = [tracing.layer_metrics(op["trace"], import_s) for op in good]
        metrics = {name: {"value": statistics.median(m[name] for m in per_op), "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
        log(f"# traced wall_s {statistics.median(op['wall_s'] for op in good):.4f}")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(op["wall_s"] for op in good),
            "edges_per_s": statistics.median(op["edges"] / op["wall_s"] for op in good),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in good),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}


def machine_facts():
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                      capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    mem_kb = 0
    try:
        with open("/proc/meminfo") as fh:
            mem_kb = int(fh.readline().split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "mem_gb": round(mem_kb / 2**20, 1),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "revision": revision}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hrgen" / "cli.py").is_file():
        print(f"error: no hrgen sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 // CANDIDATES:
        print(f"error: --seed must be in [0, 2**64 / {CANDIDATES})", file=sys.stderr)
        return 2
    facts = machine_facts()
    print("# machine " + json.dumps(facts))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     WORK / args.workload)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    record = dict(vars(args), machine=facts, result=result, time=time.time())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RESULTS / name, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
