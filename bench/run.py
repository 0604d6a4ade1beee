"""gcurkit benchmark: one seeded workload per run, closed loop, one caller.

Usage, from the root of a checkout:

    python3 bench/run.py --workload recovery --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with no tracer attached.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics (per traced op) plus the tracing overhead. The library is
imported from ``src/`` of the checkout; thread settings are left as the user
has them and only recorded. The last line of standard output is the result
as one JSON object.
"""

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "gcurkit"
# Set-up runs at least SETUP_REPS times and, when it is quick, until
# SETUP_MIN_S has been spent on it, so that setup_s is a median of many.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GCURKIT_THREADS")

# Per-layer metrics reported by a traced run, per traced op. The span name
# is <module>.<function>; "bytes" is computed from array sizes for matkit
# (in_bytes_computed) and from file sizes for io.
LAYER_STATS = {
    "matkit.as_matrix": ("calls",),
    "matkit.require_finite": ("calls", "busy_s"),
    "matkit.svd": ("calls", "busy_s", "self_s", "in_bytes_computed"),
    "matkit.thin_qr": ("calls", "busy_s", "self_s", "in_bytes_computed"),
    "matkit.lstsq": ("calls", "busy_s", "self_s", "in_bytes_computed"),
    "matkit.spectral_norm": ("calls", "busy_s", "self_s", "in_bytes_computed"),
    "matkit.smallest_singular_value": ("calls", "busy_s", "self_s", "in_bytes_computed"),
    "matkit.max_principal_angle": ("calls", "busy_s", "self_s", "in_bytes_computed"),
    "gsvd.gsvd": ("calls", "busy_s", "self_s"),
    "gsvd.truncated_pair": ("calls", "busy_s"),
    "deim.deim_select": ("calls", "busy_s", "self_s"),
    "deim.eta": ("calls", "busy_s"),
    "deim.interp_project": ("calls", "busy_s"),
    "deim.as_indices": ("calls",),
    "curfac.middle_matrix": ("calls", "busy_s", "self_s"),
    "gcur.gcur": ("calls", "busy_s", "self_s"),
    "gcur.evaluate_bounds": ("calls", "busy_s", "self_s"),
    "synth.lowrank_gapped": ("calls", "busy_s"),
    "synth.colored_noise": ("calls", "busy_s", "self_s"),
    "experiments.noise_recovery": ("calls", "busy_s", "self_s"),
    "experiments.intro_angles": ("calls", "busy_s", "self_s"),
    "io.read_matrix": ("calls", "busy_s", "bytes", "MB_per_s"),
    "io.write_matrix_market": ("calls", "busy_s", "bytes", "MB_per_s"),
    "io.write_report": ("calls", "busy_s", "bytes"),
    "cli.main": ("calls", "busy_s", "self_s"),
}
STAT_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "bytes": "B",
    "in_bytes_computed": "B", "MB_per_s": "MB/s",
}


def load_library():
    """Import a fresh copy of gcurkit from the checkout's ``src/``."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"bench: no {PACKAGE} sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gk = importlib.import_module(PACKAGE)
    if not Path(gk.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported {gk.__file__}, not the checkout's copy")
    mods = {"gk": gk}
    for layer in ("experiments", "synth", "cli", "io"):
        mods[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
    return types.SimpleNamespace(**mods)


def git_commit():
    """The checkout's commit from .git, or None outside a git checkout."""
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
    return None


def provenance(seed):
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]()
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPS or (
            sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS
        ):
            gc.collect()
            t0 = perf_counter()
            lib = load_library()
            wl.setup(lib, seed, str(workdir))
            setup_s.append(perf_counter() - t0)
        tracer = Tracer(PACKAGE) if trace else None

        op_s, ok_s, traced_s, untraced_s = [], [], [], []
        attempted = failed = 0
        op_time = 0.0
        while op_time < seconds or (trace and attempted < 2):
            i = attempted
            attempted += 1
            traced = trace and i % 2 == 1
            problems = []
            t0 = perf_counter()
            try:  # a failed op or check must not end the run
                with tracer.attached(i) if traced else contextlib.nullcontext():
                    out = wl.op(i)
            except Exception:
                problems.append(traceback.format_exc())
            dt = perf_counter() - t0
            if not problems:
                try:
                    problems = wl.check(i, out)
                except Exception:
                    problems.append(traceback.format_exc())
            op_time += dt
            op_s.append(dt)
            if problems:
                failed += 1
                print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
                continue
            ok_s.append(dt)
            (traced_s if traced else untraced_s).append(dt)
        final_problems = wl.final_check() if failed < attempted else ["every op failed"]
        for p in final_problems:
            print(f"output check failed: {p}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    median = statistics.median
    if trace:
        metrics = layer_metrics(tracer)
        overhead = median(traced_s) / median(untraced_s) - 1.0 if traced_s and untraced_s else float("nan")
        metrics["trace.overhead_frac"] = (overhead, "frac")
    else:
        metrics = {
            "trials_per_s": (wl.trials_per_op * len(ok_s) / op_time, "1/s"),
            "op_p50_s": (median(ok_s) if ok_s else float("nan"), "s"),
            "setup_s": (median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    info = {
        "workload": name,
        "trace": trace,
        "op_samples": len(ok_s),
        "traced_ops": tracer.ops() if trace else 0,
        "op_s": op_s,
        "op_time_s": op_time,
        "failed_frac": failed / attempted,
        "setup_samples_s": setup_s,
        "provenance": provenance(seed),
    }
    if not trace and ok_s:
        info.update({k: {"value": v, "unit": u} for k, (v, u) in wl.extra_metrics().items()})
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print(f"{name} failed_frac = {failed / attempted:.6g} frac ({failed}/{attempted} ops)")
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": failed == 0 and not final_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer):
    ops = tracer.ops()
    out = {}
    for span, stats in LAYER_STATS.items():
        calls, busy, own, nbytes = tracer.totals(span)
        values = {
            "calls": tracer.calls_per_op(span),
            "busy_s": busy / ops,
            "self_s": own / ops,
            "bytes": nbytes / ops,
            "in_bytes_computed": nbytes / ops,
            "MB_per_s": nbytes / busy / 1e6 if busy else 0.0,
        }
        for stat in stats:
            out[f"{span}.{stat}"] = (values[stat], STAT_UNITS[stat])
    return out


def run_all(args):
    """Run every workload, each in its own process so peak RSS is its own."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in declared[key]}
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode or not lines:
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
        if set(results[name]["metrics"]) != expected:
            raise SystemExit(f"bench: {name} metrics differ from BENCHMARK.json {key}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
