"""sigmaflow benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.WHY``) in this process with numpy and
BLAS pinned to one thread.  Inputs come from ``--seed`` only.  After one
warm-up pass it repeats passes over the workload's fixed list of operations
until ``--seconds`` have passed, checking every output against its oracle
outside the timed calls.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over 3 to 9 fresh processes (as many as fit in 3 s)
  of ``import sigmaflow`` plus the workload's context and model builds
  (``fresh_setup.py``);
* ``wall_s``: one warm pass, the sum over operations of each one's median
  time over the passes;
* ``op_s_p50``: the median over operations of those median times;
* ``peak_rss_mb``: high-water resident memory of this process;
* ``ok_ratio``: operations that passed their oracle / operations attempted.
  A wrong exit code, an exception or an output outside tolerance fails an
  operation; the two known seed defects fail their operations every time.

The three times are calibrated (``calibrate.py``): each operation time is
rescaled by ``NOMINAL_S`` over the mean time of a fixed reference kernel
run just before and just after it, and each fresh set-up by the same
kernel run in its process.  The raw seconds are in the meta line.

``--trace 1`` prints per-layer metrics instead (``layertrace.PER_LAYER``),
in raw seconds: untraced passes for a third of the time, then traced
passes.  Counts come from one traced pass and must repeat exactly; times
are medians; the traced-minus-untraced pass time is ``trace.overhead_s``.
The coarse spans of the first traced pass are written under ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, versions, thread pinning, raw times and the outcome
of every operation.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = (3, 9)      # fresh set-up processes: at least 3, at most 9
SETUP_BUDGET_S = 3.0     # more runs only while they fit in this time
MIN_PASSES = 3
WORKLOAD_NAMES = ("verify-sweep", "point-highdim", "identities", "grid-pde")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_s_p50", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "1"))
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SIGMAFLOW_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description="sigmaflow benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_setup(workload, seed) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "fresh_setup.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_setups(workload, seed) -> list[dict]:
    start = time.perf_counter()
    runs = []
    while len(runs) < SETUP_RUNS[0] or (
            len(runs) < SETUP_RUNS[1]
            and time.perf_counter() - start < SETUP_BUDGET_S):
        runs.append(fresh_setup(workload, seed))
    return runs


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, workload, book, extra):
    import numpy
    uname = os.uname()
    return {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "threads": {v: os.environ[v] for v in PINNED},
        "outcomes": book.outcomes, "unexpected": book.unexpected, **extra,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setups, book, ops, extra):
    import calibrate
    med = statistics.median
    # median over passes of each operation's calibrated time
    per_op = [med(col) for col in zip(*(p.calibrated for p in passes))]
    values = {
        "setup_s": med(s["setup_s"] * calibrate.NOMINAL_S / s["ref_s"]
                       for s in setups),
        "wall_s": sum(per_op),
        "op_s_p50": med(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (book.attempted - book.failed) / book.attempted,
    }
    extra.update(
        raw_setup_s=[s["setup_s"] for s in setups],
        raw_pass_s=[p.wall for p in passes],
        reference_s=[med(p.refs) for p in passes],
        raw_op_median_s={op.name: med(p.times[i] for p in passes)
                         for i, op in enumerate(ops)})
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(ops, book, args, tracer, setup_snap, extra):
    import layertrace
    from measure import repeat_passes
    seconds = args.seconds
    untraced = repeat_passes(ops, book, seconds / 3, 1)
    snaps = []
    tracer.install()
    try:
        traced = repeat_passes(ops, book, 2 * seconds / 3, 2, tracer,
                               on_pass=lambda: snaps.append(tracer.snapshot()))
    finally:
        tracer.uninstall()
    if len({layertrace.exact_counts(s) for s in snaps}) != 1:
        book.unexpected.append("traced counts differ between passes")
    metrics = layertrace.layer_metrics(snaps, setup_snap)
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in untraced))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    spans = OUT / f"trace-{args.workload}-s{args.seed}.json"
    tracer.write_spans(spans)
    extra.update(passes_untraced=len(untraced), passes_traced=len(traced),
                 spans=str(spans.relative_to(ROOT)))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    for var in PINNED:  # before numpy loads, here and in the set-up processes
        os.environ[var] = "1"
    if not (ROOT / "src" / "sigmaflow" / "__init__.py").is_file():
        print("bench: no sigmaflow sources under src/ next to bench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    inp = inputs.make(args.workload, args.seed, OUT / "specs")

    import workloads
    from measure import Book, repeat_passes, run_pass
    workload = workloads.WORKLOADS[args.workload]
    tracer = setup_snap = None
    setups = []
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
        tracer.reset()
    else:
        setups = fresh_setups(args.workload, args.seed)
    state = workload.setup(inp)
    if tracer is not None:
        setup_snap = tracer.snapshot()
        tracer.uninstall()
    ops = workload.ops(inp, state)

    book = Book()
    run_pass(ops, book, counted=False)  # warm-up
    extra = {}
    if args.trace:
        metrics = per_layer(ops, book, args, tracer, setup_snap, extra)
    else:
        passes = repeat_passes(ops, book, args.seconds, MIN_PASSES)
        metrics = end_to_end(passes, setups, book, ops, extra)

    print(json.dumps({"meta": metadata(args, workload, book, extra)}))
    print(json.dumps({"correct": not book.unexpected, "attempted": book.attempted,
                      "failed": book.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
