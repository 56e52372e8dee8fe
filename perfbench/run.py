"""rosepencil benchmark: one command, three workloads, independent oracles.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and its overhead against an untraced run of the
same length.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See README.md.

Load is a closed loop with one client: problems run back to back in this
process, with one BLAS thread.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("construct", "verify-cli", "cauchy-maslov")
SETUP_PROBES = 5


def _one_blas_thread():
    """One BLAS thread, within the cap of the usable cores.  On the
    2-core reference host a second OpenBLAS worker made one problem in
    about 25 take 5 to 30 times its median (16 such spikes in 4 rounds of
    construct against 1 with a single thread), and the largest matrices
    here (N = 104) gain little from it."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(1, cores))


def _import_library():
    """Import rosepencil from ./src of this checkout, or exit 3."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(1, src)
    try:
        import rosepencil
    except ImportError as exc:
        print(f"cannot import rosepencil from {src}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not os.path.abspath(rosepencil.__file__).startswith(src + os.sep):
        print(f"rosepencil resolved outside {src}", file=sys.stderr)
        sys.exit(3)


class Stats:
    """Per-problem times and check outcomes of one measured segment."""

    def __init__(self):
        self.times = []
        self.failed = 0
        self.reasons = Counter()
        self.eig_max_dist = 0.0
        self.bytes_out = 0
        self.nonzero_exits = 0
        self.by_label = defaultdict(list)
        self.rounds = defaultdict(list)
        self.calib = []

    def add(self, label, dt, info, round_no):
        self.times.append(dt)
        self.rounds[round_no].append(dt)
        self.by_label[label].append((dt, tuple(info["reasons"])))
        if info["reasons"]:
            self.failed += 1
            self.reasons.update(info["reasons"])
        elif info.get("eig_dist") is not None:
            self.eig_max_dist = max(self.eig_max_dist, info["eig_dist"])
        self.bytes_out += info.get("bytes_out", 0)
        self.nonzero_exits += info.get("nonzero_exits", 0)

    def speed(self):
        """Host speed against the reference, from the calibrations."""
        return CALIBRATION_REF_S / statistics.median(self.calib)

    @property
    def attempted(self):
        return len(self.times)

    def problems_per_s(self):
        """Median over rounds of problems per second of timed calls;
        every round holds the same problems, so rounds are comparable
        samples and a burst of host noise moves only its own round."""
        return statistics.median(len(ts) / sum(ts) for ts in self.rounds.values())


def _check(problem, out, rng):
    try:
        return problem.check(out, rng)
    except Exception as exc:  # an oracle that cannot read the output
        traceback.print_exc(file=sys.stderr)
        return {"reasons": [f"unexplained:check-{type(exc).__name__}"]}


# The shared host runs this process up to 1.7 times slower for minutes
# at a time, which moves every wall time of a run together.  Timing
# metrics, set-up time included, are therefore reported at reference
# speed: each run measures the calibration mix below after every problem,
# and its wall times are scaled by CALIBRATION_REF_S / (median calibration
# time).  The mix does not touch the library, so a change to the library
# moves the scaled figures exactly as it moves the wall times; the
# unscaled figures are printed on the line before the result.
CALIBRATION_REF_S = 1e-3


def calibrate():
    """Seconds for a fixed mix of the kinds of work the library does: an
    interpreter loop, small complex numpy operations and small LAPACK
    factorizations."""
    import numpy as np
    t0 = time.perf_counter()
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    Z = np.eye(26, dtype=complex) + 0.01j
    for _ in range(40):
        W = Z @ Z
        s += float(np.abs(W.T - W).max())
    M = np.eye(40) * 4.0 + np.arange(1600.0).reshape(40, 40) / 1600.0
    for _ in range(5):
        np.linalg.slogdet(M)
        np.linalg.solve(M, M[:, :4])
    return time.perf_counter() - t0


def measure(wl, seconds, first_round, rng, tracer=None, min_problems=0):
    """Whole rounds, back to back, until ``seconds`` have passed and at
    least ``min_problems`` were attempted.  Returns (stats, next round
    number)."""
    stats = Stats()
    begin = time.perf_counter()
    k = first_round
    while True:
        for problem in wl.round(k):
            t0 = time.perf_counter()
            try:
                out, err = problem.run(), None
            except Exception as exc:
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.fold()
            if err is None:
                info = _check(problem, out, rng)
            else:
                info = {"reasons": [f"unexplained:raise-{type(err).__name__}"]}
            stats.add(problem.label, dt, info, k)
            stats.calib.append(calibrate())
        k += 1
        if (time.perf_counter() - begin >= seconds
                and stats.attempted >= min_problems):
            return stats, k


def probe_setup(args):
    """Median set-up time of fresh processes: from spawn to the first
    timed problem (imports, inputs from the seed, one warm-up problem)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(dt)
    return statistics.median(times)


def _summary(name, stats):
    print(f"[{name}] attempted {stats.attempted} failed {stats.failed} "
          f"reasons {dict(sorted(stats.reasons.items()))}")
    for label, rows in stats.by_label.items():
        ts = [t for t, _ in rows]
        fails = Counter(r for _, rs in rows for r in rs)
        print(f"  {label:32s} n={len(rows):4d} median {statistics.median(ts) * 1e3:9.2f} ms"
              f"  failed {sum(bool(rs) for _, rs in rows)} {dict(fails) if fails else ''}")


def end_to_end(stats, setup_s):
    """The end-to-end metrics of an untraced run, timings at reference
    speed; prints the wall-clock figures."""
    import numpy as np
    times_ms = np.array(stats.times) * 1e3
    speed = stats.speed()
    wall = {"setup_s": setup_s,
            "problems_per_s": stats.problems_per_s(),
            "problem_p50_ms": float(np.percentile(times_ms, 50)),
            "problem_p90_ms": float(np.percentile(times_ms, 90))}
    print("host speed factor", speed, "wall-clock figures", json.dumps(wall))
    return {
        "setup_s": (setup_s * speed, "s"),
        "problems_per_s": (wall["problems_per_s"] / speed, "1/s"),
        "problem_p50_ms": (wall["problem_p50_ms"] * speed, "ms"),
        "problem_p90_ms": (wall["problem_p90_ms"] * speed, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=lambda v: int(v) % 2**63, default=1,
                    help="workload seed (any integer, taken modulo 2^63)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    _one_blas_thread()
    _import_library()
    setup_s = None
    if not args.probe and args.trace == 0:
        setup_s = probe_setup(args)

    import numpy as np
    import oracles
    import workloads
    warnings.simplefilter("ignore", RuntimeWarning)

    workdir = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        rng = np.random.default_rng([args.seed, 99])
        warm_info = _check(wl.warmup, wl.warmup.run(), rng)
        if args.probe:
            print("ready", flush=True)
            return 0
        correct = not warm_info["reasons"]
        try:
            oracles.self_test()
        except AssertionError:
            traceback.print_exc(file=sys.stderr)
            correct = False

        if args.trace == 0:
            # p90 needs at least 10 problems beyond it
            stats, _ = measure(wl, args.seconds, 0, rng, min_problems=100)
            segments = [stats]
            metrics = end_to_end(stats, setup_s)
            _summary(args.workload, stats)
        else:
            metrics, segments, ok = traced_run(wl, args.seconds, rng)
            correct &= ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    reasons = Counter()
    for s in segments:
        reasons.update(s.reasons)
    if any(r.startswith("unexplained") for r in reasons):
        correct = False
    print("failures by reason:", json.dumps(dict(sorted(reasons.items()))))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def traced_run(wl, seconds, rng):
    """Half the time untraced, half traced; per-layer metrics per traced
    problem, the overhead (from problems_per_s at reference speed, as in
    the untraced run), and the hand-timed kernel figures."""
    import tracing

    untraced, k = measure(wl, seconds / 2, 0, rng)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = measure(wl, seconds / 2, k, rng, tracer)
    finally:
        tracer.uninstall()
    kernel, ok = tracing.kernel_figures()
    n = traced.attempted
    layer = tracer.metrics(n)
    layer.update(kernel)
    layer["verify.eig_max_dist"] = max(untraced.eig_max_dist, traced.eig_max_dist)
    layer["cli.bytes_out"] = traced.bytes_out / n
    layer["cli.nonzero_exits"] = traced.nonzero_exits / n
    pu = untraced.problems_per_s() / untraced.speed()
    pt = traced.problems_per_s() / traced.speed()
    layer["trace.overhead_per_s"] = pt - pu
    layer["trace.overhead_pct"] = 100.0 * (pu - pt) / pu
    out = {name: (layer[name], unit) for name, unit in tracing.UNITS.items()}
    _summary("untraced", untraced)
    _summary("traced", traced)
    return out, [untraced, traced], ok


if __name__ == "__main__":
    sys.exit(main())
