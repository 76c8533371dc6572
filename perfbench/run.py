#!/usr/bin/env python3
"""patrain benchmark: runs one workload, timed or traced, and checks its outputs.

    python3 perfbench/run.py --workload prior_mc --seed 0 --seconds 25 --trace 0

Run from the root of a source tree: the package is imported from its ``src/``
directory, never from an installed copy.  Each metric is printed by name with
its unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``).  The full
result, with provenance, is written to ``perfbench/out/``.
"""

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS.  The matrices are small
# (at most 2001 x 7), and with a second OpenBLAS thread on a 2-core machine a
# call waits whenever that thread shares a core with other work: run_fig4 ran
# up to 8x slower, and stayed so for as long as the scheduler kept the
# threads there.  The value found is kept for the provenance.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_ENV_FOUND = {key: os.environ[key] for key in THREAD_ENV if key in os.environ}
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402 (after the thread setting)

import harness
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
HELD_OUT_SEED = 2404  # kept for re-checking claims; not used while tuning a change
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

# End-to-end metrics in the result line of a timed run (BENCHMARK.json).
# fail_frac is carried by "failed" / "attempted"; op_ms.tail is per-layer.
REPORTED_END_TO_END = ("setup_s", "op_cal.p50", "op_cal.mean", "peak_rss_mb")

IMPORT_PROBE = "import time\nt = time.perf_counter()\nimport patrain\nprint(time.perf_counter() - t)"


def _probe(python, env, args):
    return subprocess.run(
        [python, *args], env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )


def import_seconds(python, env):
    """``import patrain`` in a fresh interpreter, timed inside it."""
    return float(_probe(python, env, ["-c", IMPORT_PROBE]).stdout)


def import_layer_ms(python, env):
    """Median over probes of interpreter start and the import shares (ms)."""
    interpreter, shares = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _probe(python, env, ["-c", "pass"])
        interpreter.append((time.perf_counter() - start) * 1e3)
        stderr = _probe(python, env, ["-X", "importtime", "-c", "import patrain"]).stderr
        shares.append(spans.importtime_ms(stderr))
    return {
        "import.interpreter_ms": statistics.median(interpreter),
        **{f"import.{name}_ms": statistics.median([s[name] for s in shares]) for name in ("numpy", "scipy", "patrain")},
    }


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "patrain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas():
    """BLAS library name and the thread count in effect."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        name = None
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # no procfs: the thread count stays unknown
        libraries = []
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return name, threads


def provenance(seed):
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas_name, blas_threads = _blas()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas_name,
        "blas_threads": blas_threads,
        "thread_env": {key: os.environ[key] for key in THREAD_ENV if key in os.environ},
        "thread_env_found": THREAD_ENV_FOUND,
    }


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; held-out seed for re-checking claims: {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced run giving the per-layer metrics; untraced and traced cycles of ops alternate",
    )
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def per_layer(loop, workload, tracer, import_layer):
    """Per-layer metrics of a traced run, with their notes."""
    untraced = [ms for ms, traced in zip(loop.op_ms, loop.traced) if not traced]
    n_traced = sum(loop.traced)
    # Each traced op against the same op of the untraced cycle before it.
    pairs = [loop.op_ms[i] - loop.op_ms[i - workload.cycle] for i, traced in enumerate(loop.traced) if traced]
    value, percentile, beyond, n = harness.tail(untraced)
    values = {
        **import_layer,
        "op_ms.tail": value,
        "trace.overhead_ms": statistics.median(pairs) if pairs else 0.0,
        **spans.span_metrics(tracer.spans, max(n_traced, 1)),
        "design.exchange.logdet_gap_max": 0.0,
        **workload.extra(loop),
    }
    notes = {
        "op_ms.tail": f"untraced ops: p{percentile:.1f}, {beyond} samples beyond, {n} samples",
        "trace.overhead_ms": f"median over {len(pairs)} traced ops of traced minus untraced time of the same op",
    }
    return {name: (values[name], unit, notes.get(name, "")) for name, unit in spans.PER_LAYER_UNITS.items()}


def main(argv=None):
    load_before = os.getloadavg()
    if not (SRC / "patrain" / "__init__.py").is_file():
        print(f"error: no patrain sources under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import patrain

    if Path(patrain.__file__).resolve().parent != SRC / "patrain":
        print(f"error: imported patrain from {patrain.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = workloads.Env(sys.executable, child_env, workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, env)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            # In-process workloads pay `import patrain` once; a fresh
            # interpreter measures it again on every repeat.
            imported = import_seconds(env.python, child_env) if workload.in_process else 0.0
            start = time.perf_counter()
            workload.setup()
            setup_times.append(imported + time.perf_counter() - start)
        setup_s = statistics.median(setup_times)
        if args.trace:
            tracer = spans.Tracer()
            import_layer = import_layer_ms(env.python, child_env)
        else:
            tracer = None
        kernel = None if args.trace else workload.calibration_kernel
        loop = harness.closed_loop(workload.op, workload.check, args.seconds, workload.cycle, tracer, kernel)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if args.trace:
        printed = per_layer(loop, workload, tracer, import_layer)
    else:
        printed = harness.end_to_end(loop, setup_s, peak_rss_mb)
    result = {
        "workload": {
            "name": workload.name, "why": workload.why, "op": workload.op_text,
            "load": "closed loop, 1 client, 1 process" + ("" if workload.in_process else ", 1 child per op"),
        },
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "load_average": {"before": load_before, "after": os.getloadavg()},
        "setup_times_s": setup_times,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "traced_ops": sum(loop.traced),
        "op_ms": loop.op_ms,
        "cal_ms": loop.cal_ms,
        "misses": [m for misses in loop.misses for m in misses][:20],
        "metrics": {name: {"value": v, "unit": u, "note": note} for name, (v, u, note) in printed.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(result, handle, indent=1)

    print(f"# {workload.name}: {workload.op_text}")
    for name, (value, unit, note) in printed.items():
        print(f"{name:<40} {value:>14.6g} {unit:<6} {note}")
    for miss in result["misses"]:
        print(f"miss: {miss}")
    names = spans.PER_LAYER_UNITS if args.trace else REPORTED_END_TO_END
    line = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": printed[name][0], "unit": printed[name][1]} for name in names},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
