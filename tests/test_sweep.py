"""Table-driven sweep of degenerate inputs over the public matrix routines.

Every export of ``gcurkit.__all__`` that takes a matrix, plus
``curfac.middle_matrix`` and ``curfac.projection_error``, is called with
each of its matrix arguments in turn spoiled: one NaN, +inf or -inf entry
at a seeded position, or the whole matrix zero, times 1e-310 (subnormal)
or times 1e300. The other arguments stay clean, and GCUR factors are
built from the clean pair. Each call must return finite output or raise a
GcurkitError subclass; a RuntimeWarning fails the call, and only the
UserWarning on a degenerate spectrum is allowed. A NaN or +-inf spoil must
raise the one boundary error, ContractViolationError "<name> contains
non-finite entries" (``matkit.as_matrix``).
"""

import warnings

import numpy as np
import pytest

import gcurkit as gk
from gcurkit import curfac
from gcurkit.errors import ContractViolationError, GcurkitError

_rng = np.random.default_rng(0)
A, B = _rng.standard_normal((20, 6)), _rng.standard_normal((9, 6))
F = gk.gcur(A, B, 3)
F_ONLY_A = gk.gcur_only_a(A, B, 3)
U = A[:, :3].copy()
S = gk.deim_select(U, 3)
Q = np.linalg.qr(_rng.standard_normal((6, 3)))[0]
RCHOL = gk.toeplitz_chol(6, 0.9)

# name -> (function, clean arguments); every 2-D array argument is swept
CASES = {
    "deim_cur": (gk.deim_cur, (A, 3)),
    "interpolative-column": (gk.interpolative, (A, 3, "column")),
    "interpolative-row": (gk.interpolative, (A, 3, "row")),
    "deim_select": (gk.deim_select, (U, 3)),
    "eta": (gk.eta, (U, S)),
    "interp_project-left": (gk.interp_project, (U, S, A)),
    "interp_project-right": (gk.interp_project, (U, S, A.T.copy(), "right")),
    "gcur": (gk.gcur, (A, B, 3)),
    "gcur_only_a": (gk.gcur_only_a, (A, B, 3)),
    "evaluate_bounds": (gk.evaluate_bounds, (A, B, F)),
    "evaluate_bounds-only_a": (gk.evaluate_bounds, (A, B, F_ONLY_A)),
    "reconstruct_a": (gk.reconstruct_a, (A, F)),
    "reconstruct_b": (gk.reconstruct_b, (B, F)),
    "relative_errors-cur": (gk.relative_errors, (A, B, F, "cur")),
    "relative_errors-column": (gk.relative_errors, (A, B, F, "column")),
    "relative_errors-row": (gk.relative_errors, (A, B, F, "row")),
    "relative_errors-only_a": (gk.relative_errors, (A, B, F_ONLY_A, "cur")),
    "svd_subspace_gap": (gk.svd_subspace_gap, (A, Q)),
    "gsvd": (gk.gsvd, (A, B)),
    "gsvd_diagnostics": (gk.gsvd_diagnostics, (A, B, 3)),
    "max_principal_angle": (gk.max_principal_angle, (Q, Q[:, ::-1].copy())),
    "spectral_norm": (gk.spectral_norm, (A,)),
    "svd": (gk.svd, (A,)),
    "thin_qr": (gk.thin_qr, (A,)),
    "colored_noise": (gk.colored_noise, (A, gk.NoiseModel(0.1, seed=1))),
    "perturb_chol": (gk.perturb_chol, (RCHOL, 1)),
    "middle_matrix": (curfac.middle_matrix, (A, F.p, S)),
    "projection_error-column": (curfac.projection_error, (A, F.p, "column")),
    "projection_error-row": (curfac.projection_error, (A, S, "row")),
}

SPOILS = ["nan", "inf", "-inf", "zero", "1e-310", "1e300"]


def _spoiled(x, spoil, seed):
    if spoil == "zero":
        return np.zeros_like(x)
    if spoil in ("1e-310", "1e300"):
        return x * float(spoil)
    y = x.copy()
    i, j = (int(np.random.default_rng(seed).integers(d)) for d in x.shape)
    y[i, j] = float(spoil)
    return y


def _finite(out):
    if out is None or isinstance(out, (bool, int, str, np.bool_, np.integer)):
        return True
    if isinstance(out, dict):
        return all(_finite(v) for v in out.values())
    if isinstance(out, (tuple, list)):
        return all(_finite(v) for v in out)
    return bool(np.isfinite(np.asarray(out, dtype=np.float64)).all())


_PARAMS = [
    pytest.param(name, pos, spoil, id=f"{name}-arg{pos}-{spoil}")
    for name, (_, args) in CASES.items()
    for pos, arg in enumerate(args)
    if isinstance(arg, np.ndarray) and arg.ndim == 2
    for spoil in SPOILS
]


def test_every_public_matrix_routine_is_swept():
    takes_a_matrix = {fn.__name__ for fn, _ in CASES.values()}
    exports = {name for name in gk.__all__ if callable(getattr(gk, name))}
    classes = {name for name in exports if isinstance(getattr(gk, name), type)}
    no_matrix = {"lowrank_gapped", "lowrank_sparse", "toeplitz_chol", "subgroup_data"}
    assert exports - classes - no_matrix == takes_a_matrix - {
        "middle_matrix", "projection_error"
    }


@pytest.mark.parametrize("name,pos,spoil", _PARAMS)
def test_spoiled_input_gives_finite_output_or_a_gcurkit_error(name, pos, spoil):
    fn, args = CASES[name]
    call = list(args)
    call[pos] = _spoiled(args[pos], spoil, [pos, SPOILS.index(spoil), len(name)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # a degenerate spectrum
        try:
            out = fn(*call)
        except GcurkitError:
            return
    assert _finite(out), f"{name} returned non-finite output"


@pytest.mark.parametrize(
    "name,pos,spoil", [p for p in _PARAMS if p.values[2] in ("nan", "inf", "-inf")]
)
def test_non_finite_input_raises_one_error_at_the_boundary(name, pos, spoil):
    # a NaN or +-inf entry in any matrix argument is refused before any work,
    # with one class and one message, whichever routine it is given to
    fn, args = CASES[name]
    call = list(args)
    call[pos] = _spoiled(args[pos], spoil, [pos, SPOILS.index(spoil), len(name)])
    with pytest.raises(ContractViolationError, match="contains non-finite entries$"):
        fn(*call)
