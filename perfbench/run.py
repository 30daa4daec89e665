"""Benchmark of the spectral-deform file pipeline.

    python3 perfbench/run.py --workload acceptance --seed 7 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. With ``--trace 0`` the run measures for ``--seconds`` and the last
line of standard output is a JSON object whose metrics are every
``end_to_end`` metric of BENCHMARK.json; with ``--trace 1`` they are every
``per_layer`` metric. The line before it is a
JSON object with the run's context (machine, versions, sizes), which is
information only. Exit code 0 means every stage call succeeded and every
correctness check held; 1 means one did not; 2 means the benchmark could not
start (bad arguments, no library to import).

See perfbench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SPANS = os.path.join(ROOT, ".perfbench_spans")
WORKLOAD_NAMES = ("acceptance", "large_mesh", "wide_bundle", "smoke")

SETUP_SAMPLES = 5
# what one setup is: a fresh interpreter importing the library and starting
# BLAS; the time covers the import and the first BLAS call, not interpreter
# start-up
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import numpy, spectral_deform
a = numpy.ones((256, 256))
a @ a
print(time.perf_counter() - t0)
print(spectral_deform.__file__)
"""


def interrupt(signum, frame):
    """Unwind on SIGTERM as on Ctrl-C, so that the work directory is removed.

    Not SystemExit: a stage call treats that as argparse rejecting its
    arguments and carries on.
    """
    raise KeyboardInterrupt(f"signal {signum}")


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def measure_setup(env) -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split("\n")
    if not os.path.abspath(out[1]).startswith(SRC + os.sep):
        raise RuntimeError(f"setup probe imported spectral_deform from {out[1]}")
    return float(out[0])


def context(workload, n_vertices, solver) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["SPECTRAL_DEFORM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload.name,
        "N": n_vertices,
        "M": workload.modes,
        "S": workload.shapes,
        "queries": workload.queries,
        "solver": solver,
        "src_lines": src_lines,
        "file_io": "page-cache backed; caches are not dropped between runs",
    }


def declared_metrics() -> dict[str, list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=45.0,
                   help="how long the untraced pass measures; a traced run "
                        "makes one round of each pass instead")
    p.add_argument("--trace", choices=("0", "1"), default="0")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, interrupt)
    if not os.path.isfile(os.path.join(SRC, "spectral_deform", "__init__.py")):
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()[args.trace]

    # BLAS reads its thread count once, when numpy is first imported
    os.environ["SPECTRAL_DEFORM_THREADS"] = str(blas_threads())
    env = dict(os.environ, PYTHONPATH=SRC)
    setup_s = statistics.median(measure_setup(env) for _ in range(SETUP_SAMPLES))

    sys.path.insert(0, SRC)
    import bench  # noqa: E402  (after the thread cap)
    import tracing  # noqa: E402

    workload = bench.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    tracer = None
    try:
        # untimed: the first calls of a process are slower (lazy imports,
        # allocator and cache warm-up), so a smoke pass goes first
        warm = bench.run_pass(bench.WORKLOADS["smoke"], args.seed,
                              os.path.join(workdir, "warm"))
        t0 = time.perf_counter()
        if args.trace == "0":
            untraced = bench.run_pass(
                workload, args.seed, os.path.join(workdir, "a"),
                deadline=t0 + args.seconds)
        else:
            untraced = bench.run_pass(workload, args.seed, os.path.join(workdir, "a"))
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = bench.run_pass(
                    workload, args.seed, os.path.join(workdir, "b"), tracer)
        measured_s = time.perf_counter() - t0
    except bench.PipelineAborted as e:
        print(f"error: {e}; " + "; ".join(e.result.errors), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": e.result.attempted,
                          "failed": e.result.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == "1":
        values = bench.layer_metrics(tracer, traced, untraced, workload.queries)
        os.makedirs(SPANS, exist_ok=True)
        tracer.write(os.path.join(SPANS, f"{workload.name}-seed{args.seed}.jsonl"))
        solver = "lanczos" if values["spectral.lanczos_calls"] else "dense"
        runs = (warm, untraced, traced)
    else:
        values = bench.end_to_end_metrics(untraced)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        solver = "observed only with --trace 1"
        runs = (warm, untraced)

    missing = [m["name"] for m in declared if m["name"] not in values]
    errors = [e for r in runs for e in r.errors]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    ctx = context(workload, untraced.n_vertices, solver)
    ctx["measured_s"] = measured_s
    if args.trace == "0":
        # per-stage times whose run-to-run spread on a shared 2-vCPU host
        # exceeds any bound the benchmark may set; see perfbench/README.md
        names = {m["name"] for m in declared}
        ctx["not_gated"] = {k: {"value": v, "unit": "s"}
                            for k, v in values.items() if k not in names}
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in values
        },
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
