"""One benchmark process: set up one workload, run it through the CLI, check it.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|run|trace --out RESULT.json

`setup` imports gquadforms and writes the inputs, then stops; `run` also
runs passes over the inputs until S seconds have gone (at least one pass),
with the host sampler on; `trace` runs exactly one pass with the tracer
installed and no sampler.  Every operation
calls `gquadforms.cli.main([...])` in this process and is checked against
a value the benchmark computed without the library.  The result goes to
RESULT.json; stdout and stderr are left to the library.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
# The host's speed flips between levels about 1.35x apart within seconds
# (README.md, "Steadiness"), so while the passes run a sampler times a
# fixed piece of work every SAMPLE_EVERY_S of wall time: REF_REPEATS
# products and remainders of F_3 polynomials in plain Python (2-3 ms
# on a 2-CPU Xeon VM), the kind of work the library's kernels do.
REF_REPEATS = 6
SAMPLE_EVERY_S = 0.1


def import_library():
    """Import every gquadforms module from this checkout's src/, nothing else."""
    sys.path.insert(0, SRC)
    import gquadforms
    import gquadforms.cli

    where = os.path.dirname(os.path.abspath(gquadforms.__file__))
    if where != os.path.join(SRC, "gquadforms"):
        raise SystemExit(f"gquadforms imported from {where}, not from {SRC}")
    return gquadforms.cli.main


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def make_ops(workload, seed, workdir):
    """[(label, argv, expected exit code, output path, check(path) -> error or None)]."""
    import workloads

    ops = []
    if workload == "counterexample":
        # Pinned inputs (p = 3, default H1 and H2): the seed is ignored.
        out = os.path.join(workdir, "report.json")

        def check(path):
            with open(path, "rb") as fh:
                data = fh.read()
            sha = hashlib.sha256(data).hexdigest()
            if sha != workloads.COUNTEREXAMPLE_SHA256:
                return f"report sha256 {sha} ({len(data)} bytes) != pin"
            return None

        ops.append(("counterexample", ["counterexample", "-o", out], 0, out, check))
    elif workload == "hp_check":
        for i, (module, expect) in enumerate(workloads.hp_check_batch(seed)):
            src = os.path.join(workdir, f"module{i}.json")
            out = os.path.join(workdir, f"verdict{i}.json")
            _write(src, module)

            def check(path, expect=expect):
                got = _read(path)
                ev = got["evidence"]
                seen = {"verdict": got["verdict"], "dim_end": ev.get("dim_end"),
                        "dim_radical": ev.get("dim_radical")}
                want = dict(expect, verdict="guaranteed")
                return None if seen == want else f"got {seen}, want {want}"

            ops.append((f"hp-check module{i}", ["hp-check", src, "-o", out], 0, out, check))
    elif workload == "qf_equiv":
        for i, (f1, f2, expect) in enumerate(workloads.qf_equiv_batch(seed)):
            a = os.path.join(workdir, f"form{i}a.json")
            b = os.path.join(workdir, f"form{i}b.json")
            out = os.path.join(workdir, f"equiv{i}.json")
            _write(a, f1)
            _write(b, f2)

            def check(path, expect=expect):
                got = _read(path)
                inv = got["invariants"]
                seen = {"equivalent": got["equivalent"], "rank": inv["q1"]["rank"],
                        "rank2": inv["q2"]["rank"], "same_disc": inv["q1"]["disc"] == inv["q2"]["disc"]}
                want = {"equivalent": expect["equivalent"], "rank": expect["rank"],
                        "rank2": expect["rank"], "same_disc": True}
                return None if seen == want else f"got {seen}, want {want}"

            want_rc = 0 if expect["equivalent"] else 1
            ops.append((f"qf-equiv pair{i}", ["qf-equiv", a, b, "-o", out], want_rc, out, check))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return ops


def run_op(main, op, sampler=None):
    """(wall seconds, error or None) for one CLI call and its check.

    The time the sampler spent inside the call is not counted.
    """
    _, argv, want_rc, out, check = op
    if os.path.exists(out):
        os.remove(out)
    spent = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    try:
        rc, err = main(argv), None
    except (Exception, SystemExit):
        rc, err = None, "raised " + traceback.format_exc()
    wall = time.perf_counter() - t0 - ((sampler.spent - spent) if sampler else 0.0)
    if err is None and rc != want_rc:
        err = f"exit code {rc}, want {want_rc}"
    if err is None:
        try:
            err = check(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            err = f"unreadable output: {exc!r}"
    return wall, err


class HostSampler:
    """Times the reference work from a SIGALRM handler every SAMPLE_EVERY_S.

    `samples` holds its times; `spent` is the time spent in the handler,
    which `run_op` takes out of the operation it interrupted.
    """

    def __init__(self):
        import workloads

        self.samples = []
        self.spent = 0.0
        rng = random.Random("reference")
        f = [rng.randrange(workloads.P) for _ in range(30)] + [1]
        g = [rng.randrange(workloads.P) for _ in range(11)] + [1]
        self._work = lambda: workloads.poly_mod(workloads.poly_mul(f, f), g)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            self._work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_passes(cli_main, ops, seconds, sampler=None):
    """Whole passes over ops until `seconds` have gone; at least one.

    Each pass is {"wall": [...], "ref": [...]}: the wall time of each
    operation, and the reference times the sampler took during each one
    (empty without a sampler).
    """
    samples = sampler.samples if sampler else []
    passes, errors = [], []
    t0 = time.perf_counter()
    while True:
        wall, ref = [], []
        for op in ops:
            first = len(samples)
            w, err = run_op(cli_main, op, sampler)
            wall.append(w)
            ref.append(samples[first:])
            if err:
                errors.append(f"{op[0]}: {err}")
        passes.append({"wall": wall, "ref": ref})
        if time.perf_counter() - t0 >= seconds:
            break
    return {"passes": passes, "errors": errors}


def main():
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    cli_main = import_library()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        ops = make_ops(args.workload, args.seed, workdir)
        result = {"setup_s": time.perf_counter() - t_start}
        if args.mode == "run":
            with HostSampler() as sampler:
                result.update(run_passes(cli_main, ops, args.seconds, sampler))
        elif args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            result.update(run_passes(cli_main, ops, 0.0))
            result["spans"], result["counts"] = tracer.summary()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _write(args.out, result)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    main()
