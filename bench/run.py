#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the bieberbach CLI verbs.

    python3 bench/run.py --workload classify|hw|witness|all --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src only. Each
workload writes a seeded corpus of AGS files under bench/_work/, then drives
``bieberbach.cli.run_cli`` in-process: a closed loop with one client, which
sends the next query when the previous one has returned. After one untimed
pass it runs whole passes over the corpus until --seconds have elapsed,
repeating the set-up every SETUP_EVERY_S between queries, checks every
output against answers derived from the factor table in corpus.py (or
verified by oracle.py), and prints one JSON result as its last line.

Timing metrics are scaled to a host of fixed speed: between queries the
runner also times a calibration kernel, and every time of the run is
multiplied by CALIBRATION_S over the kernel's median time in the run (see
``Calibration``). The unscaled figures are printed on the ``#`` lines.

--trace 0 reports the end-to-end metrics. --trace 1 first runs one untraced
pass, then repeats the passes with wrappers on the package's functions
(tracing.py) and reports per-layer calls, self time and ratios, plus the
tracing overhead. Calls are those of the first traced pass, so they repeat
exactly for a given seed; self times are means per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

CSV_HEADER = "name,dimension,betti,holonomy_order,solvable,sylow_cyclic,verdict,chain"
# Set-ups are repeated between the timed queries, one every SETUP_EVERY_S,
# so that they meet the same host speed as the queries; a run of set-ups in
# one second at the start moved by 2x between runs.
SETUP_EVERY_S = 2.0
WITNESS_RADIUS = 2
# Elementary row moves in a random basis change. The cost of a query grows
# with the density of the conjugated matrices, so a fixed small count keeps
# the work close across seeds (with n + 1 moves the cost of classifying
# g5 x g5 varied by 40% between seeds).
BASIS_MOVES = 3
# The host is shared and its speed drifts by 20-40% over minutes, which in
# raw times reads as a change in the program. Every time a run measures is
# therefore multiplied by CALIBRATION_S / (median time of calibration_kernel
# in that run): timings read as on a host where the kernel takes 20 ms. The
# kernel runs between queries for about KERNEL_SHARE of the measured time.
# Single kernel times are too noisy to scale single queries by.
CALIBRATION_S = 0.020
KERNEL_SHARE = 0.1


@dataclass(frozen=True)
class WorkloadSpec:
    why: str
    moves: int      # elementary row moves in each random basis change
    # Conjugates of each product in the corpus. The cost of one query moves by
    # 10-30% with its conjugation (classify g5 x g5, hw-check b3 x z1), so with
    # one conjugate per product the metrics depend on the seed.
    replicas: int = 1


WORKLOADS = {
    "classify": WorkloadSpec(
        "classify --jobs 1 on each group of a dims 1-6 product catalog: holonomy closure, "
        "torsion check, Calabi reduction and the decider, with hw and witness idle",
        BASIS_MOVES, 2),
    "hw": WorkloadSpec(
        "single hw-check queries, contained and not-contained: candidate pairs, "
        "subgroup closure and 2n x 2n Diophantine systems, with calabi idle",
        BASIS_MOVES, 3),
    # A general basis change would replace the unit translations in the ball's
    # generating set and change the ball itself; signed permutations keep the
    # ball conjugate, so the work per query does not depend on the seed.
    "witness": WorkloadSpec(
        "witness-check --radius 2 on dims 1-3 conjugates: compose, inverse and "
        "extremal_points on small elements, with calabi and hw idle",
        0),
}

# (layer metrics, end-to-end metrics they should move, on, no change predicted on)
PREDICTIONS = (
    ("affine.holonomy_closure.calls/.self_s", "groups_per_s", "classify", "witness"),
    ("finite_groups.is_solvable.self_s, calabi.kernel_group.self_s, "
     "decider.decide.levels", "groups_per_s", "classify", "hw, witness"),
    ("hw.candidate_pairs.self_s, finite_groups._close_subgroup.calls",
     "query_p90_ms, queries_per_s", "hw", "classify, witness"),
    ("linalg.solve_diophantine.self_s, hw.systems.feasible_ratio",
     "query_p90_ms (not-contained queries)", "hw", "witness"),
    ("hw.verify_embedding.self_s", "query_p50_ms (contained queries)", "hw",
     "classify, witness"),
    ("affine.compose.calls/.self_s, affine.inverse.calls",
     "query_p50_ms, queries_per_s", "witness", "(also groups_per_s on classify)"),
    ("witness.extremal_points.self_s/.kept_ratio", "query_p50_ms", "witness",
     "classify, hw"),
    ("catalog.parse_group.self_s, cli.run_cli.self_s", "setup_s", "all",
     "a small share expected; if not, the harness is timing itself"),
)

END_TO_END = (("setup_s", "s"), ("groups_per_s", "1/s"), ("queries_per_s", "1/s"),
              ("query_p50_ms", "ms"), ("query_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or a broken corpus)."""


# ------------------------------------------------------------------ queries

@dataclass
class Query:
    argv: list[str]
    groups: int
    check: Callable[[str], bool]   # stdout -> matches the expected answer


def _classify_query(items, directory: Path) -> Query:
    corpus.write_items(items, directory)
    rows = sorted(items, key=lambda it: it.name)
    expected = "\n".join([CSV_HEADER] + [it.expected.csv_row(it.name) for it in rows]) + "\n"
    return Query(["classify", str(directory), "--jobs", "1"], len(items),
                 lambda out: out == expected)


def _parse_matrix(lines, n):
    rows = [[corpus.rational(t) for t in ln.split()] for ln in lines]
    if len(rows) != n + 1 or any(len(r) != n + 1 for r in rows):
        raise ValueError("bad matrix")
    return (tuple(tuple(int(e) for e in r[:n]) for r in rows[:n]),
            tuple(r[n] for r in rows[:n]))


def _hw_check(item):
    def check(out: str) -> bool:
        if not item.expected.contains_hw:
            return re.fullmatch(r"hw=not-contained\ninfeasible_systems=\d+\n", out) is not None
        lines = out.splitlines()
        n = item.group[0]
        if (len(lines) != 2 * n + 5 or lines[0] != "hw=contained" or lines[1] != "alpha:"
                or lines[n + 3] != "beta:"):
            return False
        alpha = _parse_matrix(lines[2:n + 3], n)
        beta = _parse_matrix(lines[n + 4:], n)
        lifts = oracle.holonomy(item.group)
        return (oracle.is_member(lifts, alpha) and oracle.is_member(lifts, beta)
                and oracle.is_hw_embedding(alpha, beta))
    return check


def _witness_check(item):
    def check(out: str) -> bool:
        ball = oracle.ball(item.group, WITNESS_RADIUS)
        # a diffuse group has no finite set without extremal points
        core = oracle.extremal_free_core(ball) if item.expected.non_diffuse else set()
        head = (f"ball_size={len(ball)}\ncore_size={len(core)}\n"
                f"certificate={'true' if core else 'false'}\n")
        if not out.startswith(head):
            return False
        if not core:
            return out == head
        n, _, blocks = corpus.read_blocks(out[len(head):])
        elements = [(lin, tr) for _, lin, tr in blocks]
        return (n == item.group[0] and all(kw == "elt" for kw, _, _ in blocks)
                and len(elements) == len(core) and set(elements) == core)
    return check


def build_queries(workload: str, seed: int, workdir: Path):
    """(warm-up query, corpus queries); the same seed gives the same files."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    if workload == "classify":
        warm = corpus.build_items(ROOT, [("z1",)], rng, spec.moves, "w")
        items = corpus.build_items(ROOT, corpus.CLASSIFY_PRODUCTS * spec.replicas, rng,
                                   spec.moves)
        # One group per call, so that a call's latency is that of one group
        # and can be taken as a median over the passes.
        return (_classify_query(warm, workdir / "warmup"),
                [_classify_query([item], workdir / item.name) for item in items])
    products = corpus.HW_PRODUCTS if workload == "hw" else corpus.WITNESS_PRODUCTS
    warm_keys = ("g6",) if workload == "hw" else ("z2",)
    items = (corpus.build_items(ROOT, [warm_keys], rng, spec.moves, "w")
             + corpus.build_items(ROOT, products * spec.replicas, rng, spec.moves))
    corpus.write_items(items, workdir)
    out = []
    for item in items:
        path = str(workdir / f"{item.name}.ags")
        if workload == "hw":
            out.append(Query(["hw-check", path], 1, _hw_check(item)))
        else:
            out.append(Query(["witness-check", path, "--radius", str(WITNESS_RADIUS)], 1,
                             _witness_check(item)))
    return out[0], out[1:]


# -------------------------------------------------------------- the runner

def import_cli():
    """Fresh import of bieberbach.cli from ./src, never from elsewhere."""
    if not (SRC / "bieberbach" / "cli.py").is_file():
        raise BenchError(f"package sources not found under {SRC}")
    for name in [n for n in sys.modules if n == "bieberbach" or n.startswith("bieberbach.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cli = importlib.import_module("bieberbach.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "bieberbach").resolve():
        raise BenchError(f"bieberbach imported from {cli.__file__}, not from {SRC}")
    return cli


def calibration_kernel(group) -> int:
    """Work of the package's kind done by the benchmark's own code: the
    holonomy closure of `group` in oracle.py (Fraction and small integer
    matrix arithmetic, dicts of tuples) and a dict of 20000 tuples (allocation
    over a few MB). Of the kernels tried, this one followed the package's
    speed on a shared host most closely."""
    table = {}
    for i in range(20000):
        table[(i * 7919) % 100003] = (i, i + 1)
    return len(oracle.holonomy(group)) + len(table)


class Calibration:
    """Times of the calibration kernel, taken between the measured queries of
    one run."""

    def __init__(self):
        g5 = corpus.load_factor(ROOT, "g5")
        self.group = corpus.direct_product([g5, g5])
        self.times: list[float] = []
        self.debt = 0.0     # kernel time still owed to keep KERNEL_SHARE

    def read(self, measured_s: float) -> None:
        """Run the kernel while it is owed KERNEL_SHARE of `measured_s`, and at
        least once per run, so that its runs are spread evenly over the run."""
        self.debt += KERNEL_SHARE * measured_s
        while self.debt > 0 or not self.times:
            # With the collector on, the kernel's time would grow with
            # everything else the process holds.
            gc.disable()
            try:
                start = time.perf_counter()
                calibration_kernel(self.group)
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            self.times.append(elapsed)
            self.debt -= elapsed

    def scale(self) -> float:
        """Factor that turns this run's times into times at CALIBRATION_S."""
        return CALIBRATION_S / statistics.median(self.times)


def run_query(cli, query: Query) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(query.argv)
    return code, out.getvalue(), time.perf_counter() - start


def setup(workload: str, seed: int, workdir: Path):
    """Corpus generation, AGS writing, import and one warm-up query.

    Returns (seconds, cli, queries).
    """
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    warm, queries = build_queries(workload, seed, workdir)
    cli = import_cli()
    code, out, _ = run_query(cli, warm)
    elapsed = time.perf_counter() - start
    if code != 0 or not safe_check(warm, out):
        raise BenchError(f"warm-up query {warm.argv} failed (exit {code})")
    return elapsed, cli, queries


def run_passes(cli, queries, seconds: float, after_query=None, after_pass=None):
    """Whole passes over the corpus until `seconds` have elapsed (at least one).
    `after_query(latency)` runs after each query, outside its time.

    Returns per-pass lists of (exit code, stdout, latency).
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        results = []
        for q in queries:
            results.append(run_query(cli, q))
            if after_query is not None:
                after_query(results[-1][2])
        passes.append(results)
        if after_pass is not None:
            after_pass(len(passes))
    return passes


def safe_check(query: Query, out: str) -> bool:
    try:
        return query.check(out)
    except ValueError:      # output too malformed to parse
        return False


def count_failures(queries, passes) -> int:
    """Queries with a nonzero exit or a wrong answer; each distinct output is
    checked once."""
    verdicts: dict[tuple[int, int, str], bool] = {}
    failed = 0
    for results in passes:
        for i, (code, out, _) in enumerate(results):
            key = (i, code, out)
            if key not in verdicts:
                verdicts[key] = code == 0 and safe_check(queries[i], out)
            failed += not verdicts[key]
    return failed


def _beta_cdf(x: float, a: float, b: float, steps: int = 200) -> float:
    """Regularized incomplete beta function I_x(a, b), by Simpson's rule."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t):
        if t <= 0:
            return 0.0 if a > 1 else math.exp(-log_norm)
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)
    h = x / steps
    total = pdf(0.0) + pdf(x) + sum((4 if i % 2 else 2) * pdf(i * h) for i in range(1, steps))
    return total * h / 3


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of every
    order statistic, which moves less between runs than the one or two
    order statistics that statistics.quantiles interpolates."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def timing_values(queries, passes, setups, scale: float) -> dict:
    """Timing metrics, every time multiplied by `scale`.

    Each query's latency is its median over the passes, so that a pass slowed
    by other load on the machine does not count; throughput is that of a pass
    at these latencies, and the percentiles are over the corpus's queries."""
    latencies = [scale * statistics.median(results[i][2] for results in passes)
                 for i in range(len(queries))]
    pass_s = sum(latencies)
    return {
        "setup_s": scale * statistics.median(setups),
        "groups_per_s": sum(q.groups for q in queries) / pass_s,
        "queries_per_s": len(queries) / pass_s,
        "query_p50_ms": 1000 * quantile(latencies, 0.5),
        "query_p90_ms": 1000 * quantile(latencies, 0.9),
    }


def end_to_end(queries, passes, setups, calibration: Calibration,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """The reported metrics (timings scaled to the calibration speed)."""
    calls = f"{len(queries)} queries x {len(passes)} passes"
    values = timing_values(queries, passes, setups, calibration.scale())
    values["peak_rss_mb"] = peak_rss_mb
    samples = {"setup_s": f"{len(setups)} set-ups", "groups_per_s": f"{len(passes)} passes",
               "queries_per_s": f"{len(passes)} passes",
               "query_p50_ms": calls, "query_p90_ms": calls, "peak_rss_mb": "1 process"}
    return values, samples


def traced(cli, queries, seconds: float):
    """One untraced pass, then traced passes; per-layer metrics and checks."""
    base = run_passes(cli, queries, 0)
    tracer = tracing.Tracer()
    first_calls = {}

    def after_pass(n):
        if n == 1:
            first_calls.update(tracer.calls)
    tracer.install()
    try:
        passes = run_passes(cli, queries, seconds, after_pass=after_pass)
    finally:
        tracer.uninstall()
    expected = [(code, out) for code, out, _ in base[0]]
    identical = all([(code, out) for code, out, _ in results] == expected
                    for results in passes)
    metrics = {}
    for name, unit in tracing.metric_names():
        key, _, kind = name.rpartition(".")
        if kind == "calls":
            value = first_calls.get(key, 0)
        elif kind == "self_s":
            value = tracer.self_s.get(key, 0.0) / len(passes)
        else:
            value = tracer.ratios()[name]
        metrics[name] = (value, unit)
    pass_s = statistics.median(sum(lat for _, _, lat in r) for r in passes)
    untraced_s = sum(lat for _, _, lat in base[0])
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (pass_s, "s")
    metrics["trace.overhead_s"] = (pass_s - untraced_s, "s")
    return metrics, base + passes, identical


# ---------------------------------------------------------------- metadata

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bieberbach").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": WORKLOADS[workload].why,
        "predictions": [dict(zip(("layer_metrics", "should_move", "on", "no_change_on"), row))
                        for row in PREDICTIONS],
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "commit": git_commit(), "source_sha256": source_digest(),
        "client": "closed loop, 1 client, classify --jobs 1",
        "timings_scaled_to_kernel_s": CALIBRATION_S,
    }


# -------------------------------------------------------------------- main

def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        _, cli, queries = setup(workload, seed, workdir)
        print("# meta " + json.dumps(metadata(workload, seed, seconds, trace)))
        identical = True
        if trace:
            values, passes, identical = traced(cli, queries, seconds)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        else:
            # One untimed pass warms every query up; peak RSS is read after it,
            # before the calibration kernel has allocated anything.
            start = time.perf_counter()
            passes = run_passes(cli, queries, 0)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            calibration = Calibration()
            setups = []
            next_setup = time.perf_counter()

            def after_query(latency):
                # The queries keep the modules they were built with; a set-up
                # rewrites the same files and imports the package afresh.
                nonlocal next_setup
                calibration.read(latency)
                if time.perf_counter() >= next_setup:
                    elapsed = setup(workload, seed, workdir)[0]
                    setups.append(elapsed)
                    calibration.read(elapsed)
                    next_setup = time.perf_counter() + SETUP_EVERY_S
            timed = run_passes(cli, queries, seconds - (time.perf_counter() - start),
                               after_query)
            passes += timed
            values, samples = end_to_end(queries, timed, setups, calibration, peak_rss_mb)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        attempted = len(queries) * len(passes)
        failed = count_failures(queries, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# passes={len(passes)} queries={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4f} (n={attempted})")
    if trace:
        print(f"# traced stdout identical to untraced: {identical}")
        print(f"# tracing overhead: {values['trace.overhead_s'][0]:.3f} s per pass "
              f"(untraced pass {values['trace.untraced_pass_s'][0]:.3f} s)")
    else:
        raw = timing_values(queries, timed, setups, 1.0)
        kernel_s = statistics.median(calibration.times)
        print(f"# calibration kernel: {1000 * kernel_s:.3f} ms (median of "
              f"{len(calibration.times)} runs); timings below are scaled by "
              f"{calibration.scale():.4f} to a kernel of {1000 * CALIBRATION_S:g} ms")
        for name, unit in END_TO_END:
            unscaled = f", unscaled {raw[name]:.6g}" if name in raw else ""
            print(f"# {name} = {values[name]:.6g} {unit} (n={samples[name]}{unscaled})")
    return {"correct": failed == 0 and identical, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Every workload in its own process, so that peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)],
                             capture_output=True, text=True)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            raise BenchError(f"workload {workload} exited with {res.returncode}")
        result = json.loads(res.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
