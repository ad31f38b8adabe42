"""polelab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload quadrature_sweep --seed 1 \
        --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics named in BENCHMARK.json (on workloads marked `paced`, times are
corrected for core speed, see pace.py); with --trace 1, alternating
untraced and traced passes give the per-layer metrics, and the spans are
written to .perfbench/spans-<workload>-<seed>.jsonl. `--workload all`
runs every workload, untraced and traced, each in its own process, and
prints every metric by name with its unit. See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from pace import Pace
from workloads import ACCURACY_KEYS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")
# fixed before numpy loads; at or below the core count of any machine
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
SETUP_CODE = """
import numpy as np
import polelab.cli as cli
import polelab.angmom, polelab.fields, polelab.gauge, polelab.interference
import polelab.vortex
from scipy.linalg import get_lapack_funcs
get_lapack_funcs(("gttrf", "gttrs"), (np.empty(0, dtype=complex),))
cli.build_parser()
"""


def _polelab_from_src():
    """True when `polelab` imports from this checkout's src/."""
    sys.path.insert(0, SRC)
    try:
        import polelab.cli
    except ImportError:
        return False
    return os.path.abspath(polelab.cli.__file__).startswith(SRC + os.sep)


def measure_setup():
    """Median wall time of a fresh interpreter importing polelab's CLI and
    the physics modules it loads lazily, and building the parser."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# machine and settings
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches():
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level in ("2", "3") and kind == "Unified":
            out[f"L{level}"] = _read(f"{base}/{index}/size")
    return out


def _blas_libraries():
    """Config string and thread count of each OpenBLAS loaded here."""
    import ctypes

    maps = _read("/proc/self/maps") or ""
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and "/" in line})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}",
                                      None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
                    entry["threads"] = get_threads()
        libs.append(entry)
    return libs


def _git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_meta(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "loaded": _blas_libraries()},
        "env": {k: os.environ.get(k) for k in THREADS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_passes(workload, ops, seconds, trace, work_dir):
    """Untraced passes, alternating with traced ones when `trace` is set,
    until one more pass would overrun `seconds`."""
    # imported here: they load numpy, which must see THREADS first
    from runner import Runner
    from tracing import Tracer, instrument

    runner = Runner(ops, work_dir)
    tracer = Tracer() if trace else None
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            tracer.start_pass(len(traced))
            with instrument(tracer):
                traced.append(runner.run_pass(tracer))
        else:
            untraced.append(runner.run_pass())
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - t0
        if (done >= workload.min_passes and (traced or not trace)
                and elapsed * (done + 1) / done > seconds):
            return untraced, traced, tracer


def end_to_end(workload, ops, untraced, setup_s, rate):
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(
            [p.seconds_in(ops, rate=rate) for p in untraced]),
        "lead_s": statistics.median(
            [p.seconds_in(ops, (workload.lead,), rate) for p in untraced]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops, untraced, traced, tracer):
    from tracing import layer_metrics

    rows = []
    for pass_id, p in enumerate(traced):
        row = layer_metrics(tracer.passes[pass_id])
        row["absim_s"] = p.seconds_in(ops, ("absim",))
        row["angmom_s"] = p.seconds_in(ops, ("angmom",))
        row["vortex_s"] = p.seconds_in(ops, ("vortex", "confine"))
        row["trace.run_s"] = p.seconds_in(ops)
        row.update({key: p.values.get(key, 0.0) for key in ACCURACY_KEYS})
        rows.append(row)
    metrics = {k: statistics.median([r[k] for r in rows]) for k in rows[0]}
    metrics["trace.overhead_s"] = metrics["trace.run_s"] \
        - statistics.median([p.seconds_in(ops) for p in untraced])
    passes = untraced + traced
    metrics["error_rate"] = sum(len(p.failures) for p in passes) \
        / (len(ops) * len(passes))
    return metrics


def write_spans(tracer, name, seed):
    path = os.path.join(WORK_ROOT, f"spans-{name}-{seed}.jsonl")
    with open(path, "w") as fh:
        for spans in tracer.passes.values():
            for s in spans:
                fh.write(json.dumps(vars(s)) + "\n")
    return path


def run_workload(name, seed, seconds, trace, spec):
    """Run one workload; returns the result object for the last stdout line."""
    workload = WORKLOADS[name]
    ops = workload.ops(seed)
    setup_s = None if trace else measure_setup()
    pace = Pace() if workload.paced and not trace else None
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work_dir, \
            pace or contextlib.nullcontext():
        untraced, traced, tracer = run_passes(workload, ops, seconds, trace,
                                              work_dir)
    passes = untraced + traced
    failed = sum(len(p.failures) for p in passes)
    if trace:
        values = per_layer(ops, untraced, traced, tracer)
        path = write_spans(tracer, name, seed)
        sys.stderr.write(f"spans written to {path}\n")
    else:
        values = end_to_end(workload, ops, untraced, setup_s,
                            pace.rate if pace else None)
    return {
        "correct": failed == 0,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if trace else "end_to_end"]},
    }


def _print_metrics(prefix, result):
    for name, metric in result["metrics"].items():
        value, unit = metric["value"], metric["unit"]
        print(f"# {prefix}{name:<36} {value:>16.6g} {unit}")


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                sys.stderr.write(f"{name} --trace {trace} exited with "
                                 f"{done.returncode}\n")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"# {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            _print_metrics("  ", result)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}:{k}": v for k, v
                                     in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    os.environ.update(THREADS)
    if not _polelab_from_src():
        sys.stderr.write(f"error: polelab sources not found under {SRC}\n")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    exec(SETUP_CODE, {})   # lazy imports belong to set-up, not the first pass
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          spec)
    print("# meta " + json.dumps(machine_meta(args.seed)))
    _print_metrics("", result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
