"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1, from the root of a checkout.

Every measurement runs in a fresh child process (perfbench/worker.py) with
BLAS and OpenMP pinned to one thread, one at a time except for the pair in
`traced`.  The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer spans and counts of a
traced pass.  README.md in this directory says what each metric is for.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("counterexample", "hp_check", "qf_equiv")
SETUP_REPEATS = 5
MEASURE_SPLIT = 3
CHILD_TIMEOUT_S = 170

# Per-layer counts of one traced counterexample pass, fixed by the pinned
# inputs.  A change to the library that alters them must say why.
COUNTEREXAMPLE_COUNTS = {
    "linalg.PolyMat.to_mat": 784,
    "funcfield.hilbert_symbol": 24401,
    "construct.bundle": 2,
}


def child_env(hash_seed):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def start_worker(args, mode, seconds, hash_seed=0):
    """Start one worker process; finish_worker collects its result."""
    os.makedirs(WORK, exist_ok=True)
    fd, out = tempfile.mkstemp(suffix=".json", dir=WORK)
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode, "--out", out]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(hash_seed), stdout=sys.stderr)
    return mode, proc, out


def finish_worker(worker):
    mode, proc, out = worker
    try:
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"worker {mode} ran longer than {CHILD_TIMEOUT_S} s")
        if rc != 0:
            raise SystemExit(f"worker {mode} exited with {rc}")
        with open(out, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.remove(out)


def run_worker(args, mode, seconds, hash_seed=0):
    return finish_worker(start_worker(args, mode, seconds, hash_seed))


def machine():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    """Set-up alone SETUP_REPEATS times, then up to MEASURE_SPLIT measuring
    processes, each making passes for a share of --seconds, until --seconds
    have gone, so that no single process decides a short workload's result.
    """
    setups = [run_worker(args, "setup", 0)["setup_s"] for _ in range(SETUP_REPEATS)]
    runs, t0 = [], time.perf_counter()
    while not runs or (len(runs) < MEASURE_SPLIT and time.perf_counter() - t0 < args.seconds):
        runs.append(run_worker(args, "run", args.seconds / MEASURE_SPLIT))
    setups += [r["setup_s"] for r in runs]
    passes = [p for r in runs for p in r["passes"]]
    # A pass's time is divided by the mean reference time over the pass, an
    # operation's by the mean over that operation (the pass's, if the
    # operation was too short to be sampled).
    refs = [statistics.fmean(t for op in p["ref"] for t in op) for p in passes]
    op_max = [max(w / (statistics.fmean(op) if op else r) for w, op in zip(p["wall"], p["ref"]))
              for p, r in zip(passes, refs)]
    metrics = {
        "wall_ref": metric(statistics.median(sum(p["wall"]) / r for p, r in zip(passes, refs)), "ref"),
        "op_max_ref": metric(statistics.median(op_max), "ref"),
        "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    attempted = sum(len(p["wall"]) for p in passes)
    errors = [e for r in runs for e in r["errors"]]
    seconds = {"processes": len(runs), "passes": len(passes),
               "wall_s": statistics.median(sum(p["wall"]) for p in passes), "ref_s": statistics.median(refs)}
    return attempted, errors, metrics, seconds


def traced(args):
    """Two traced passes (PYTHONHASHSEED 1 and 2) and one untraced pass.

    The first traced pass runs alongside the untraced one, so that both see
    the same host load and their difference is the tracing overhead; it
    also keeps a counterexample trace run to two pass-times.  The second
    traced pass only has to repeat the first one's counts.
    """
    pair = [start_worker(args, "trace", 0, hash_seed=1), start_worker(args, "run", 0, hash_seed=1)]
    try:
        first, plain = [finish_worker(w) for w in pair]
    finally:
        for _, proc, out in pair:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            if os.path.exists(out):
                os.remove(out)
    runs = [first, run_worker(args, "trace", 0, hash_seed=2)]
    errors = [e for r in runs + [plain] for e in r["errors"]]
    spans, counts = runs[0]["spans"], runs[0]["counts"]
    calls = [{**{k: v["calls"] for k, v in r["spans"].items()}, **r["counts"]} for r in runs]
    diff = sorted(k for k in calls[0] if calls[0][k] != calls[1][k])
    if diff:
        print(f"traced counts differ between PYTHONHASHSEED 1 and 2: {diff}", file=sys.stderr)
    if args.workload == "counterexample":
        if diff:
            errors.append(f"counterexample counts differ between processes: {diff}")
        for name, want in COUNTEREXAMPLE_COUNTS.items():
            if calls[0][name] != want:
                errors.append(f"{name} made {calls[0][name]} calls, want {want}")
    metrics = {}
    for name, row in spans.items():
        metrics[f"{name}.calls"] = metric(row["calls"], "count")
        metrics[f"{name}.s"] = metric(row["s"], "s")
        metrics[f"{name}.self_s"] = metric(row["self_s"], "s")
    for name, n in counts.items():
        metrics[f"{name}.calls"] = metric(n, "count")
    traced_wall = sum(runs[0]["passes"][0]["wall"])
    plain_wall = sum(plain["passes"][0]["wall"])
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    metrics["trace.count_mismatches"] = metric(len(diff), "count")
    attempted = sum(len(r["passes"][0]["wall"]) for r in runs + [plain])
    return attempted, errors, metrics, {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "gquadforms")):
        sys.exit(f"no gquadforms sources under {os.path.join(ROOT, 'src')}")

    attempted, errors, metrics, extra = (traced if args.trace else end_to_end)(args)
    for err in errors:
        print("FAILED:", err, file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), **extra}
    if args.workload == "counterexample":
        info["seed_note"] = "counterexample has pinned inputs and ignores the seed"
    print(json.dumps(info))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
