"""adawavenet benchmark: one workload per process.

    python3 perfbench/run.py --workload train_c7 --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from ``src/`` next to
this directory. With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json untraced; with ``--trace 1`` it runs a warm-up unit, one
traced unit and one untraced unit, and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""
import os
import time

T_START = time.perf_counter()
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:         # before numpy is imported, here or by the library
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library():
    src = ROOT / "src"
    if not (src / "adawavenet" / "__init__.py").is_file():
        fail(f"library sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import adawavenet
    if Path(adawavenet.__file__).resolve().parent != src / "adawavenet":
        fail(f"imported adawavenet from {adawavenet.__file__}, not {src}")
    import spans
    import workloads
    return spans, workloads


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as fh:
        return json.load(fh)


# -- provenance ------------------------------------------------------------------

def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD from the .git directory, read without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "adawavenet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args, numpy_version):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "blas_threads": blas_threads(),
            "blas_env": {v: os.environ[v] for v in BLAS_ENV},
            "git_commit": git_commit(), "source_sha256": source_digest()}


# -- the run ---------------------------------------------------------------------

class Checks:
    """Operations attempted and failed; a failure is an exception or a
    failed correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, operations: int, problems: list[str]):
        self.attempted += operations
        self.failed += min(len(problems), operations)
        self.messages.extend(problems)


def check_unit(unit, units, checks):
    checks.record(unit.operations, unit.problems)
    if units and unit.quality != units[0].quality:
        checks.record(1, [f"unit {len(units)} quality {unit.quality} != "
                          f"{units[0].quality}: not deterministic"])
    units.append(unit)


def run_untraced(W, w, args, checks, t_import):
    setups = []
    for _ in range(w.setup_repeats):
        t0 = time.perf_counter()
        setup = W.set_up(w, args.seed, str(OUT))
        setups.append(time.perf_counter() - t0)
    checks.record(w.setup_repeats, [])
    # Start the timed loop with the collector's counts at zero: set-up
    # allocates a seed-dependent number of objects (k-means iterations), and
    # otherwise the collections, and with them the peak RSS, fall at
    # different points of the loop from one seed to the next.
    gc.collect()
    # Work units alternate with bursts of the latency probe, so that both
    # metrics sample the whole run rather than one end of it. Every unit
    # leaves the same parameters, so the probe's reference is taken once,
    # after the first.
    units, probe = [], None
    t0 = time.perf_counter()
    while (len(units) < w.min_units or len(probe.latencies) < w.min_latency
           or time.perf_counter() - t0 < args.seconds):
        try:
            check_unit(W.run_unit(w, setup), units, checks)
            probe = probe or W.LatencyProbe(w, setup)
            checks.record(w.burst, probe.run(w.burst))
        except Exception:   # a library error is a failed operation, not a crash
            checks.record(1, [traceback.format_exc()])
            break
    if probe is None or not probe.latencies:
        fail("no timed operation succeeded:\n" + "\n".join(checks.messages), 1)
    latencies = probe.latencies
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    # Totals and means rather than medians: the host alternates between a
    # fast and a slow phase, and a median over samples from both jumps
    # between the two as their shares shift, while a mean moves in step.
    metrics = {
        "windows_per_s": (sum(u.windows for u in units)
                          / sum(u.seconds for u in units)),
        "latency_ms_mean": 1e3 * statistics.fmean(latencies),
        "latency_ms_p90": 1e3 * q[89],
        "setup_s": t_import + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "quality_mse": units[0].quality[0],
    }
    info = {"units": len(units), "unit_windows": units[0].windows,
            "unit_s": [u.seconds for u in units],
            "latency_samples": len(latencies),
            "latency_ms_p50": 1e3 * statistics.median(latencies),
            "latency_ms_p95": 1e3 * q[94], "latency_ms_p99": 1e3 * q[98],
            "timed_s": time.perf_counter() - t0,
            "setup_repeats": len(setups), "import_s": t_import,
            "setup_runs_s": setups}
    return metrics, info


def run_traced(W, SP, w, args, checks):
    tracer = SP.Tracer(w.kind, w.tags)
    tracer.install()
    try:
        setup = W.set_up(w, args.seed, str(OUT))
    finally:
        tracer.uninstall()
    checks.record(1, [])
    warmup = W.run_unit(w, setup)
    tracer.install()
    start = time.perf_counter()
    try:
        traced = W.run_unit(w, setup)
    finally:
        end = time.perf_counter()
        tracer.uninstall()
    plain = W.run_unit(w, setup)
    for unit in (warmup, traced, plain):
        checks.record(unit.operations, unit.problems)
    checks.record(1, [] if traced.quality == plain.quality == warmup.quality else
                  [f"traced quality {traced.quality} != untraced {plain.quality}"])
    unbound = tracer.unbound()
    checks.record(len(tracer.expected), [f"no span recorded for {name}"
                                         for name in unbound])
    metrics = SP.layer_metrics(tracer, (start, end))
    metrics["trace.overhead"] = ((plain.windows / plain.seconds)
                                 / (traced.windows / traced.seconds))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{w.name}-seed{args.seed}.csv"
    SP.write_spans(str(path), tracer.spans)
    info = {"spans": len(tracer.spans), "spans_file": str(path.relative_to(ROOT)),
            "steps": tracer.n_steps, "unbound": unbound}
    return metrics, info


def main():
    spec = load_spec()
    names = [wl["name"] for wl in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the self-test")
    args = parser.parse_args()

    SP, W = import_library()
    import numpy
    t_import = time.perf_counter() - T_START
    w = W.WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    if args.trace:
        values, info = run_traced(W, SP, w, args, checks)
        wanted = spec["per_layer"]
    else:
        values, info = run_untraced(W, w, args, checks, t_import)
        values["success_ratio"] = (checks.attempted - checks.failed) / checks.attempted
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value computed for {missing}", code=3)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for message in checks.messages[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    record = {"stamp": stamp(args, numpy.__version__), "info": info,
              "metrics": metrics, "attempted": checks.attempted,
              "failed": checks.failed}
    with open(OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"stamp": record["stamp"], "info": info}))
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
