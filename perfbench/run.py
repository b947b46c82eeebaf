"""qreality benchmark: end-to-end metrics per workload, or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pair_min --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: pair_min, sweep, verify, oracle (see workloads.py and NOTES.md);
``all`` runs each one in its own process and prints every table.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of tracer.py, and the tracing overhead measured on the same
ops.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every op passed its check, 1 when one did not, and 2 on a usage error or
when ``src/qreality`` is missing.

The library is driven from this one process by a closed loop with one
client.  OpenBLAS is held to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pair_min", "sweep", "verify", "oracle")
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is their median
PROBE_TIMEOUT_S = 120
DIGEST_OPS = 4  # traced ops whose counts form the printed digest

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "ok_ops": "share",
}

# (metric, unit, record field, span or counter name); values are per traced op.
PER_LAYER = (
    ("kernels.pair_grid_s", "s/op", "total", "kernels.pair_grid"),
    ("kernels.grid_cells", "count/op", "counts", "kernels.grid_cells"),
    ("kernels.bloch_s", "s/op", "total", "kernels.bloch"),
    ("kernels.value_calls", "count/op", "calls", "kernels.value"),
    ("kernels.value_s", "s/op", "total", "kernels.value"),
    ("kernels.side_grid_s", "s/op", "total", "kernels.side_grid"),
    ("optimize.minimize_pair_self_s", "s/op", "self", "optimize.minimize_pair"),
    ("optimize.refine_s", "s/op", "total", "optimize.refine"),
    ("optimize.refine_self_s", "s/op", "self", "optimize.refine"),
    ("optimize.refine_nfev", "count/op", "counts", "optimize.refine_nfev"),
    ("optimize.minimize_single_s", "s/op", "total", "optimize.minimize_single"),
    ("optimize.brute_force_s", "s/op", "total", "optimize.brute_force"),
    ("optimize.brute_force_self_s", "s/op", "self", "optimize.brute_force"),
    ("measures.dephase_calls", "count/op", "calls", "measures.dephase"),
    ("measures.dephase_s", "s/op", "total", "measures.dephase"),
    ("measures.entropy_calls", "count/op", "calls", "measures.entropy"),
    ("measures.entropy_s", "s/op", "total", "measures.entropy"),
    ("measures.nonlocality_s", "s/op", "total", "measures.nonlocality"),
    ("measures.mutual_information_s", "s/op", "total", "measures.mutual_information"),
    ("measures.discord_like_s", "s/op", "total", "measures.discord_like"),
    ("measures.concurrence_s", "s/op", "total", "measures.concurrence"),
    ("linalg.density_matrix_count", "count/op", "calls", "linalg.density_matrix"),
    ("linalg.density_matrix_s", "s/op", "total", "linalg.density_matrix"),
    ("linalg.partial_trace_calls", "count/op", "calls", "linalg.partial_trace"),
    ("linalg.partial_trace_s", "s/op", "total", "linalg.partial_trace"),
    ("observables.qubit_basis_s", "s/op", "total", "observables.qubit_basis"),
    ("observables.lift_s", "s/op", "total", "observables.lift"),
    ("states.build_s", "s/op", "total", "states.build"),
    ("sweep.row_self_s", "s/op", "self", "sweep.row"),
    ("verify.run_suite_s", "s/op", "total", "verify.run_suite"),
    ("verify.cases", "count/op", "counts", "verify.cases"),
    ("cli.main_self_s", "s/op", "self", "cli.main"),
)


class UsageError(Exception):
    pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def set_up(name: str, seed: int):
    """Import qreality, build the workload's inputs, run one warm-up op.

    Returns the workload, the set-up seconds and the warm-up check's verdict
    (checked after the clock stops).  Set-up is mostly loading files and
    libraries, which the calibration kernel does not track, so it is not scaled.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qreality

    if not Path(qreality.__file__).resolve().is_relative_to(SRC.resolve()):
        raise UsageError(f"imported qreality from {qreality.__file__}, not {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    spec = workload.warmup_spec()
    out = workload.run(spec)
    setup_s = time.perf_counter() - t0
    return workload, setup_s, _verdict(workload, spec, out)


def _probe_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def machine_info() -> dict:
    import numpy
    import scipy
    from qreality import kernels

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.backend(),
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> str:
    # Ask each OpenBLAS this process loaded (numpy's and scipy's) directly.
    import ctypes

    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            found = re.search(r"(/\S*openblas\S*\.so\S*)", line)
            if found:
                libs.add(found.group(1))
    threads = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads.append(str(fn()))
                break
    if not threads:
        return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"
    return ",".join(threads)


# --------------------------------------------------------------------------
# timed loops
# --------------------------------------------------------------------------

def _run_op(workload, spec):
    t0 = time.perf_counter()
    try:
        out = workload.run(spec)
    except Exception as exc:  # an op that raises counts as failed
        out = exc
    return out, time.perf_counter() - t0


def _closed_loop(workload, seconds, step):
    """Run ``step(i)`` for i = 0, 1, ... in whole cycles of the op mix.

    A new cycle starts only if, at the mean cycle time so far, it ends within
    ``seconds``; at least one cycle runs.  Returns the loop's wall seconds.
    """
    start = time.perf_counter()
    i = 0
    while True:
        if i and i % workload.cycle == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (i + workload.cycle) / i > seconds:
                return elapsed
        step(i)
        i += 1


def _verdict(workload, spec, out):
    """None when the op's output passed its check, else what went wrong."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    try:
        return workload.check(spec, out)
    except Exception as exc:  # a check that cannot finish fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def end_to_end(workload, seconds, setup_s, name, seed):
    """Untraced closed loop; each op's latency is scaled by the calibration
    measured right before and right after it."""
    from calibration import Calibration, scale

    calibration = Calibration()
    specs, outs, raw, scaled = [], [], [], []
    before = calibration.measure()

    def step(i):
        nonlocal before
        spec = workload.spec(i)
        out, dt = _run_op(workload, spec)
        after = calibration.measure()
        specs.append(spec)
        outs.append(out)
        raw.append(dt)
        scaled.append(dt * scale(before, after))
        before = after

    wall = _closed_loop(workload, seconds, step)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [(s, v) for s, o in zip(specs, outs)
                if (v := _verdict(workload, s, o)) is not None]

    setups = [setup_s] + [_probe_setup(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    n = len(scaled)
    lat_ms = [x * 1e3 for x in scaled]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(scaled),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
        "ok_ops": (n - len(failures)) / n,
    }
    raw_ms = [x * 1e3 for x in raw]
    lines = [
        f"ops={n} failed={len(failures)} wall_s={wall:.3f}",
        f"latency samples: {n}; {sum(1 for x in lat_ms if x > values['op_p90_ms'])} "
        f"above op_p90_ms",
        f"set-ups (s): {', '.join(f'{s:.4f}' for s in setups)}",
        f"raw (unscaled): ops_per_s={n / sum(raw):.4f} op_p50_ms={statistics.median(raw_ms):.3f} "
        f"op_p90_ms={statistics.quantiles(raw_ms, n=10)[8]:.3f}; "
        f"mean host speed {sum(scaled) / sum(raw):.3f} x reference",
    ]
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return n, failures, metrics, lines


def traced(workload, seconds):
    """Each op runs untraced and traced, in alternating order, between two
    calibrations.  The traced run's spans give the per-layer metrics (scaled
    like op latencies), the pair of timings gives the tracing overhead."""
    from calibration import Calibration, scale
    from tracer import Tracer, cross_check

    calibration = Calibration()
    tracer = Tracer()
    failures, records = [], []
    plain_s = traced_s = 0.0
    before = calibration.measure()

    def run_traced(spec):
        tracer.install()
        try:
            out, dt = _run_op(workload, spec)
        finally:
            tracer.uninstall()
        return out, dt, tracer.take()

    def step(i):
        nonlocal plain_s, traced_s, before
        spec = workload.spec(i)
        if i % 2 == 0:
            plain, plain_dt = _run_op(workload, spec)
            out, dt, record = run_traced(spec)
        else:
            out, dt, record = run_traced(spec)
            plain, plain_dt = _run_op(workload, spec)
        after = calibration.measure()
        factor = scale(before, after)
        before = after
        plain_s += plain_dt * factor
        traced_s += dt * factor
        for field in ("total", "self"):
            record[field] = Counter({k: v * factor for k, v in record[field].items()})
        problem = _verdict(workload, spec, out)
        if problem is None:
            problems = cross_check(record, workload.expected_calls(spec))
            if not isinstance(plain, Exception) and workload.key(plain) != workload.key(out):
                problems.append("traced output differs from untraced output")
            problem = "; ".join(problems) or None
        if problem is not None:
            failures.append((spec, problem))
        records.append(record)

    _closed_loop(workload, seconds, step)
    n = len(records)

    # The counts of op 0 must repeat exactly when it runs again.
    _, _, again = run_traced(workload.spec(0))
    if _counts(again) != _counts(records[0]):
        failures.append((workload.spec(0), "counts of op 0 changed on a repeat run"))

    sums = {field: Counter() for field in ("total", "self", "calls", "counts")}
    for record in records:
        for field, counter in sums.items():
            counter.update(record[field])
    metrics = {}
    for metric, unit, field, key in PER_LAYER:
        metrics[metric] = {"value": sums[field][key] / n, "unit": unit}
    metrics["trace.traced_ops_per_s"] = {"value": n / traced_s, "unit": "1/s"}
    metrics["trace.untraced_ops_per_s"] = {"value": n / plain_s, "unit": "1/s"}
    metrics["trace.slowdown"] = {"value": traced_s / plain_s, "unit": "ratio"}

    digest_ops = [_counts(r) for r in records[:DIGEST_OPS]]
    digest = hashlib.sha256(json.dumps(digest_ops, sort_keys=True).encode()).hexdigest()
    lines = [
        f"traced ops={n} failed={len(failures)}",
        f"tracing overhead: {n / traced_s:.4f} ops/s traced vs {n / plain_s:.4f} "
        f"ops/s untraced on the same ops ({traced_s / plain_s - 1.0:+.2%} time)",
        f"counts digest of the first {len(digest_ops)} ops: {digest[:16]}",
    ]
    return n, failures, metrics, lines


def _counts(record) -> dict:
    return {"calls": dict(record["calls"]), "counts": dict(record["counts"])}


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_one(args) -> int:
    workload, setup_s, warmup_problem = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0 if warmup_problem is None else 1
    info = machine_info()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cycle={workload.cycle}")
    if args.trace:
        n, failures, metrics, lines = traced(workload, args.seconds)
    else:
        n, failures, metrics, lines = end_to_end(
            workload, args.seconds, setup_s, args.workload, args.seed)
    if warmup_problem is not None:
        failures.append((workload.warmup_spec(), warmup_problem))
    for line in lines:
        print(line)
    for metric, m in metrics.items():
        print(f"  {metric:<32} {m['value']:>16.6g} {m['unit']}")
    for spec, problem in failures[:10]:
        print(f"FAILED {spec}: {problem}", file=sys.stderr)
    correct = not failures
    print(_result_line(correct, n, len(failures), metrics))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        sys.stderr.write(proc.stderr)
        if not lines or proc.returncode not in (0, 1):
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if not (SRC / "qreality" / "__init__.py").is_file():
            raise UsageError(f"{SRC / 'qreality'} not found; run from a qreality checkout")
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
