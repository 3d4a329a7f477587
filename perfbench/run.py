"""Run one bisectsdp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table-sandwich --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from site-packages. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones. Each run also writes its environment,
per-instance outcomes and (when traced) its spans under ``.perfbench_out/``.
See perfbench/README.md for the workloads and the metrics.
"""

import os

# BLAS threads change both the speed and the degenerate iteration counts,
# so they are pinned before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# set-up is timed this many times per run and reported as the median; half
# the probes run before the passes and half after, so that they do not all
# fall into one slow or fast stretch of the machine
SETUP_PROBES = 6

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ceiled_bound_sum": "count"}


def import_package():
    """Import bisectsdp from this checkout's src/, or exit 2 if there is none."""
    if not (SRC / "bisectsdp" / "__init__.py").is_file():
        print(f"error: no bisectsdp sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bisectsdp

    if SRC.resolve() not in Path(bisectsdp.__file__).resolve().parents:
        print(f"error: bisectsdp imported from {bisectsdp.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return bisectsdp


def blas_info() -> dict:
    """BLAS vendor, version and the thread count it reports at run time."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
    env.update(blas_info())
    return env


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter until it has imported the package
    and built the workload's instances."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def records_agree(passes: list) -> bool:
    first = [o.record for o in passes[0]]
    return all([o.record for o in outcomes] == first for outcomes in passes[1:])


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workload_names))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="only import and build the instances (times set-up)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    import_package()
    import workloads
    from layers import LAYER_UNITS, bind_layers, layer_metrics, self_times
    from tracer import Tracer

    args = parse_args(argv, workloads.WORKLOADS)
    prepare, run_pass = workloads.WORKLOADS[args.workload]
    if args.probe:
        prepare(args.seed)
        return 0

    # set-up is an end-to-end metric only; a traced run does not report it
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = [time_setup(args.workload, args.seed) for _ in range(probes)]
    state = prepare(args.seed)

    walls: list[float] = []
    passes: list[list] = []
    tracer = Tracer() if args.trace else None
    try:
        # untraced passes: at least one, then more while another still fits
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(state))
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
            if tracer or elapsed + statistics.median(walls) > args.seconds:
                break
        if tracer:
            bind_layers(tracer)
            try:
                with tracer.span("setup"):
                    traced_state = prepare(args.seed)
                with tracer.span("pass"):
                    passes.append(run_pass(traced_state))
            finally:
                tracer.restore()
    except workloads.BoundViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        done = sum(len(p) for p in passes)
        print(json.dumps({"correct": False, "attempted": done + 1, "failed": done + 1, "metrics": {}}))
        return 1

    setup += [time_setup(args.workload, args.seed) for _ in range(probes)]
    outcomes = [o for p in passes for o in p]
    last = passes[-1]
    wrong = sorted({o.name for o in outcomes if o.wrong})
    deterministic = records_agree(passes)

    if tracer:
        spans = tracer.spans()
        pass_span = next(s for s in spans if s["name"] == "pass")
        tabu = [o.checks["tabu_optimal"] for o in last if "tabu_optimal" in o.checks]
        metrics = layer_metrics(spans)
        metrics["heuristic.tabu_optimal_ratio"] = sum(tabu) / len(tabu) if tabu else 0.0
        metrics["trace.overhead_s"] = pass_span["dur"] - walls[0]
        metrics["trace.unspanned_s"] = pass_span["self"]
        units = LAYER_UNITS
        detail = {"walls_s": walls, "by_name": self_times(spans), "spans": spans}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ceiled_bound_sum": sum(o.ceiled for o in last),
        }
        units = END_TO_END_UNITS
        detail = {"walls_s": walls, "setup_runs_s": setup}

    env = environment()
    failed_checks = {o.name: [k for k, ok in o.checks.items() if not ok] for o in last if o.failed}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "wrong_reference": wrong,
        "deterministic": deterministic,
        "failed_checks": failed_checks,
        "outcomes": [{"name": o.name, "certified": o.certified, "ceiled": o.ceiled,
                      "checks": o.checks} for o in last],
        "metrics": metrics,
        **detail,
    }, indent=1))

    print("environment: " + json.dumps(env))
    if failed_checks:
        print("failed checks: " + json.dumps(failed_checks))
    print(json.dumps({
        "correct": not wrong and deterministic,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
