"""Self-test of the tracer: exact span counts for one op of each workload.

The expected counts were worked out by reading the library code, following
every call from the workload's entry point. A binding the tracer fails to
patch (a name re-bound by ``from .x import y``, or a package re-export)
shows up as a count that is too low. Also checks that attaching patches
every binding of every public layer function and detaching restores them.

Run from the root of a checkout (takes about 20 s):

    python3 bench/selftest.py
"""

import contextlib
import shutil
import sys
import types

from run import PACKAGE, ROOT, load_library
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

WORKDIR = ROOT / ".bench_work" / "selftest"

EXPECTED = {
    # noise_recovery, 2 trials x 3 eps x 4 k. Per trial: 1 lowrank_gapped;
    # per eps 1 colored_noise (1 toeplitz_chol, 2 spectral_norm), 1 svd,
    # 1 gsvd, 4 deim_select; per (eps, k) 2 middle_matrix, 1 truncated_pair
    # and 4 error norms; plus 1 spectral_norm of the clean matrix.
    "recovery": {
        "experiments.noise_recovery": 1,
        "experiments.thread_count": 1,
        "synth.lowrank_gapped": 2,
        "synth.colored_noise": 6,
        "synth.toeplitz_chol": 6,
        "matkit.require_finite": 2,
        "matkit.as_matrix": 404,
        "matkit.spectral_norm": 110,
        "matkit.svd": 6,
        "matkit.thin_qr": 6,
        "matkit.lstsq": 96,
        "gsvd.gsvd": 6,
        "gsvd.truncated_pair": 24,
        "gsvd.truncate": 24,
        "deim.deim_select": 24,
        "deim.as_indices": 96,
        "curfac.middle_matrix": 48,
    },
    # gcur (1 gsvd, 3 deim_select, 2 middle_matrix) then evaluate_bounds,
    # which computes the GSVD a second time.
    "pair": {
        "gcur.gcur": 1,
        "gcur.evaluate_bounds": 1,
        "gsvd.gsvd": 2,
        "gsvd.truncate": 1,
        "matkit.as_matrix": 44,
        "matkit.thin_qr": 3,
        "matkit.lstsq": 6,
        "matkit.spectral_norm": 8,
        "matkit.smallest_singular_value": 2,
        "deim.deim_select": 3,
        "deim.eta": 2,
        "deim.interp_project": 2,
        "deim.as_indices": 8,
        "curfac.middle_matrix": 2,
    },
    # `gcur --bounds` (2 reads, 2 gsvd, 3 deim_select, 12 norms) then
    # `gsvd --factors-out` (2 reads, 1 gsvd, 8 norms, 5 factor files).
    "cli": {
        "cli.main": 2,
        "cli.build_parser": 2,
        "cli.cmd_gcur": 1,
        "cli.cmd_gsvd": 1,
        "io.read_matrix": 4,
        "io.read_matrix_market": 4,
        "io.write_matrix_market": 5,
        "io.write_report": 2,
        "io.report_json": 2,
        "matkit.require_finite": 4,
        "matkit.as_matrix": 67,
        "matkit.spectral_norm": 20,
        "matkit.smallest_singular_value": 3,
        "matkit.thin_qr": 4,
        "matkit.lstsq": 6,
        "gsvd.gsvd": 3,
        "gsvd.truncate": 3,
        "gsvd.truncated_pair": 1,
        "gcur.gcur": 1,
        "gcur.evaluate_bounds": 1,
        "gcur.reconstruct_a": 1,
        "gcur.reconstruct_b": 1,
        "deim.deim_select": 3,
        "deim.eta": 2,
        "deim.interp_project": 2,
        "deim.as_indices": 8,
        "curfac.middle_matrix": 2,
    },
    # intro_angles, 3 eps x 1000 trials. Per trial: 1 spectral_norm, 1 svd,
    # 1 gsvd (2 as_matrix + 1 thin_qr) and 2 max_principal_angle (2
    # as_matrix each); plus 1 svd and 1 spectral_norm of the fixture.
    "angles": {
        "experiments.intro_angles": 1,
        "experiments.thread_count": 1,
        "matkit.svd": 3001,
        "matkit.spectral_norm": 3001,
        "matkit.max_principal_angle": 6000,
        "matkit.as_matrix": 27002,
        "gsvd.gsvd": 3000,
        "matkit.thin_qr": 3000,
    },
}


def check_bindings(tracer):
    """Every binding is a wrapper while attached and the original after."""
    public = {
        obj
        for layer in LAYERS
        for attr, obj in vars(sys.modules[f"{PACKAGE}.{layer}"]).items()
        if isinstance(obj, types.FunctionType)
        and obj.__module__ == f"{PACKAGE}.{layer}"
        and not attr.startswith("_")
    }
    bindings = [
        (mod, attr)
        for name, mod in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
        for attr, obj in vars(mod).items()
        if isinstance(obj, types.FunctionType) and obj in public
    ]
    problems = []
    with tracer.attached("bindings"):
        for mod, attr in bindings:
            if not getattr(getattr(mod, attr), "__bench_traced__", False):
                problems.append(f"{mod.__name__}.{attr} not patched")
    for mod, attr in bindings:
        if getattr(getattr(mod, attr), "__bench_traced__", False):
            problems.append(f"{mod.__name__}.{attr} not restored")
    if not any(mod.__name__ == PACKAGE and attr == "gsvd" for mod, attr in bindings):
        problems.append("package re-export gcurkit.gsvd not found")
    return problems


def check_workload(name, lib, tracer):
    wl = WORKLOADS[name]()
    wl.setup(lib, 0, str(WORKDIR / name))
    tracer.reset()
    with tracer.attached(0):
        out = wl.op(0)
    problems = [f"output check: {p}" for p in wl.check(0, out)]
    got = {span: st[0] for span, st in tracer.per_op[0].items()}
    want = EXPECTED[name]
    for span in sorted(set(got) | set(want)):
        if got.get(span, 0) != want.get(span, 0):
            problems.append(f"{span}.calls = {got.get(span, 0)}, expected {want.get(span, 0)}")
    return problems


def main():
    lib = load_library()
    tracer = Tracer(PACKAGE)
    results = {"bindings": check_bindings(tracer)}
    try:
        for name in WORKLOADS:
            results[name] = check_workload(name, lib, tracer)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()
    for name, problems in results.items():
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
