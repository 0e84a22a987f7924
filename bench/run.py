"""Benchmark of the bachelier_symmetries package.

Run from the repository root:

    python3 bench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload surface_pipeline --seed 1 --record new.jsonl
    python3 bench/run.py --compare old.jsonl new.jsonl

One process, one thread, closed loop: the next call starts only after the
previous one returned. A pass runs every generated input of the workload
once; passes repeat until ``--seconds`` have gone by, and every output is
checked against the gates in workloads.py after its pass, outside timing.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it adds one traced pass and reports the
per-layer metrics. Each metric is printed as ``name = value unit``; the last
line of standard output is the JSON result. ``--record FILE`` appends the
result with the Python version, commit, nproc and seed to FILE (one JSON
object a line), and ``--compare OLD NEW`` tabulates two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 11

# A fresh interpreter imports the package and generates the inputs, and
# prints how long that took; interpreter start-up is not part of it.
PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import bachelier_symmetries, workloads\n"
    "workloads.WORKLOADS[sys.argv[3]].generate(int(sys.argv[4]))\n"
    "print(time.perf_counter() - start)\n"
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "bachelier_symmetries" / "__init__.py").is_file():
        fail(f"no package sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import bachelier_symmetries

    if Path(bachelier_symmetries.__file__).resolve().parent.parent != SRC:
        fail(f"imported {bachelier_symmetries.__file__}, not the sources under {SRC}")


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, after one that writes bytecode."""
    cmd = [sys.executable, "-I", "-c", PROBE, str(SRC), str(BENCH), name, str(seed)]
    samples = [float(subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True,
                                    text=True).stdout)
               for _ in range(SETUP_PROBES + 1)]
    return statistics.median(samples[1:])


class Run:
    """Timings, counts and gate failures of the passes of one run."""

    def __init__(self, workload, items, ctx):
        self.workload, self.items, self.ctx = workload, items, ctx
        self.item_s = [[] for _ in items]  # per item, one time per pass
        self.pass_s = []
        self.points = self.attempted = 0
        self.failures = []

    def one_pass(self, tracing=None) -> float:
        """Run every item once, then gate the outputs; returns the pass's wall time.

        ``tracing`` is a context manager held around the timed loop only.
        """
        run, ctx, outputs = self.workload.run, self.ctx, []
        with tracing or contextlib.nullcontext():
            start = time.perf_counter()
            for index, item in enumerate(self.items):
                ctx["index"] = index
                began = time.perf_counter()
                output, points = run(item, ctx)
                self.item_s[index].append(time.perf_counter() - began)
                outputs.append(output)
                self.points += points
            elapsed = time.perf_counter() - start
        self.pass_s.append(elapsed)
        for item, output in zip(self.items, outputs):
            self.attempted += self.workload.operations(output)
            self.failures.extend(self.workload.check(item, output, ctx))
        return elapsed

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.one_pass()
            if time.perf_counter() - start >= seconds:
                return


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, setup_s: float) -> dict:
    ok = run.attempted - len(run.failures)
    # an item's time is its median over the passes, so that a burst of
    # load on the machine during one pass does not land in the tail
    item_s = [statistics.median(times) for times in run.item_s]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(run.pass_s), "s"),
        "points_per_s": (run.points / sum(run.pass_s), "1/s"),
        "item_ms_p50": (1e3 * statistics.median(item_s), "ms"),
        "item_ms_p90": (1e3 * percentile(item_s, 90), "ms"),
        "ok_ratio": (ok / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run) -> dict:
    import tracer

    untraced = statistics.median(run.pass_s)
    layers = tracer.Tracer()
    traced = run.one_pass(layers)
    metrics = layers.metrics()
    if hasattr(run.workload, "fd_residual"):
        # the timed body scans no residuals; report the FD residual at the
        # gate's sample points instead (see NOTES.md on why it is not gated)
        metrics["pde_verify.max_residual"] = (run.workload.fd_residual(run.items), "ratio")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure_workload(args) -> None:
    load_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "commit": commit(), "nproc": os.cpu_count()}
    print("# " + " ".join(f"{key}={value}" for key, value in env.items()), flush=True)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    tmpdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        run = Run(workload, workload.generate(args.seed), {"tmpdir": tmpdir})
        run.measure(args.seconds)
        if args.trace:
            metrics = per_layer(run)
        else:
            metrics = end_to_end(run, setup_s)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for line in run.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(env, **result)) + "\n")
    print(json.dumps(result))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(old_path: str, new_path: str) -> None:
    """Per workload and end-to-end metric: both sides' quartiles and a verdict.

    "worse" means the new median is worse than the old one by more than the
    metric's bound; "unresolved" means one side's own spread (quartile
    distance over median) is wider than the bound, so the runs cannot tell,
    unless every new run is better than every old one.
    """
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sides = []
    for path in (old_path, new_path):
        with open(path, encoding="utf-8") as handle:
            sides.append([json.loads(line) for line in handle if line.strip()])
    print(f"{'workload':<18} {'metric':<13} {'old q1/median/q3 (n)':>34} "
          f"{'new q1/median/q3 (n)':>34} {'worse by':>9}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old, new = ([rec["metrics"][name]["value"] for rec in side
                         if rec["workload"] == workload and not rec["trace"]]
                        for side in sides)
            if not old or not new:
                continue
            (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (nm - om) / om
            spread = max((o3 - o1) / om, (n3 - n1) / nm)
            all_better = max(sign * v for v in new) < min(sign * v for v in old)
            if worse_by > metric["bound"]:
                verdict = "worse"
            elif spread > metric["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            cells = [f"{a:.4g}/{b:.4g}/{c:.4g} ({len(v)})"
                     for (a, b, c), v in (((o1, om, o3), old), ((n1, nm, n3), new))]
            print(f"{workload:<18} {name:<13} {cells[0]:>34} {cells[1]:>34} "
                  f"{worse_by:>+9.1%}  {verdict}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("verify_all", "surface_pipeline",
                                               "greeks_highorder"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the result to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="tabulate two --record files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        measure_workload(args)
    else:
        parser.error("give --workload or --compare")


if __name__ == "__main__":
    main()
