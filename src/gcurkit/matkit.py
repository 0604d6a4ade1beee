"""Dense-matrix conventions and the factorization primitives everything else uses.

A matrix is a plain 2-D float64 numpy array. Column-major (Fortran) order is
the canonical storage layout, matching the column-major data section of the
Matrix Market array format so that file round-trips are bit-stable. Helpers
accept any layout and convert on entry; all operations here are pure
functions of their inputs.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    ConvergenceError,
    DimensionError,
    SingularMatrixError,
)

# Singular values at or below RANK_TOL * psi_max count as zero, everywhere.
RANK_TOL = 1e-12

# Orthonormality of user-supplied bases is checked to this tolerance.
ORTHO_TOL = 1e-8


def _negligible(x, psi_max):
    """The one rank rule: x counts as zero next to psi_max when
    x <= RANK_TOL * psi_max. Relative, so it does not depend on scale."""
    return x <= RANK_TOL * psi_max


def _require_full_rank(a, error, what):
    """Raise ``error`` when A is numerically rank deficient (psi_min negligible)."""
    psi = np.linalg.svd(a, compute_uv=False)
    if _negligible(psi[-1], psi[0]):
        raise error(
            f"{what} is rank deficient "
            f"(psi_min = {psi[-1]:.3e} <= {RANK_TOL:g} * psi_max)"
        )


def as_matrix(a, name="matrix"):
    """Validate ``a`` as a nonempty 2-D real matrix and return it as float64."""
    out = np.asfortranarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={out.ndim}")
    if out.shape[0] == 0 or out.shape[1] == 0:
        raise DimensionError(f"{name} must be nonempty, got shape {out.shape}")
    return out


def require_finite(a, name="matrix"):
    """Reject NaN/Inf entries; used on generator output and file ingestion."""
    if not np.isfinite(a).all():
        raise ContractViolationError(f"{name} contains non-finite entries")
    return a


class SvdFactors(NamedTuple):
    """A = W @ diag(psi) @ Z.T with orthonormal-column W, Z and psi >= 0 nonincreasing."""

    W: np.ndarray
    psi: np.ndarray
    Z: np.ndarray


class QrFactors(NamedTuple):
    """A = Q @ T with orthonormal-column Q and upper-triangular T, diag(T) >= 0."""

    Q: np.ndarray
    T: np.ndarray


def svd(a):
    """Full (thin) singular value decomposition of a nonempty matrix.

    Returns rank r = min(m, n) factors; delegates to the LAPACK dense kernel.
    """
    a = as_matrix(a, "A")
    try:
        w, psi, zt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"SVD iteration did not converge for {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    return SvdFactors(w, psi, zt.T)


def thin_qr(a):
    """Thin QR factorization A = Q @ T (rows >= cols) with nonnegative diag(T).

    The sign convention makes factor comparisons deterministic across runs.
    """
    a = as_matrix(a, "A")
    m, n = a.shape
    if m < n:
        raise DimensionError(f"thin QR needs rows >= cols, got {m}x{n}")
    q, t = np.linalg.qr(a)
    d = np.sign(np.diag(t))
    d[d == 0] = 1.0
    q *= d
    t *= d[:, None]
    return QrFactors(q, t)


def lstsq(a, b):
    """Minimum-norm least-squares solution X of A @ X ~= B, column-wise.

    Uses an orthogonal (SVD-based) solver; never forms normal equations.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(
            f"lstsq needs equal row counts, got {a.shape[0]} and {b.shape[0]}"
        )
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    return x


def pinv_apply(a, b, side="left"):
    """Apply the pseudoinverse of A to B: ``A^+ @ B`` (left) or ``B @ A^+`` (right).

    A must be full rank to working tolerance; realized as least-squares solves
    on A or A.T rather than by explicit inversion.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    _require_full_rank(a, SingularMatrixError, "A")
    if side == "left":
        if a.shape[0] != b.shape[0]:
            raise DimensionError(
                f"left apply needs A.rows == B.rows, got {a.shape[0]} and {b.shape[0]}"
            )
        return lstsq(a, b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"right apply needs A.cols == B.cols, got {a.shape[1]} and {b.shape[1]}"
        )
    return lstsq(a.T, b.T).T


def _check_orthonormal(u, name):
    g = u.T @ u - np.eye(u.shape[1])
    if np.max(np.abs(g)) > ORTHO_TOL:
        raise ContractViolationError(
            f"{name} does not have orthonormal columns (deviation {np.max(np.abs(g)):.2e})"
        )


def max_principal_angle(u1, u2):
    """Largest principal angle, in radians, between the column spans of U1 and U2.

    Computed as arcsin of the spectral norm of (I - U1 U1^T) U2; symmetric in
    its arguments when both span subspaces of equal dimension.
    """
    u1 = as_matrix(u1, "U1")
    u2 = as_matrix(u2, "U2")
    if u1.shape[0] != u2.shape[0]:
        raise DimensionError(
            f"subspace bases live in different spaces: {u1.shape[0]} vs {u2.shape[0]} rows"
        )
    if u1.shape[1] != u2.shape[1]:
        raise DimensionError(
            f"subspaces have different dimensions: {u1.shape[1]} vs {u2.shape[1]} columns"
        )
    _check_orthonormal(u1, "U1")
    _check_orthonormal(u2, "U2")
    r = u2 - u1 @ (u1.T @ u2)
    s = np.linalg.svd(r, compute_uv=False)
    return float(np.arcsin(min(1.0, float(s[0]))))


def _lambda_max(gram):
    """Largest eigenvalue of a symmetric positive semidefinite Gram matrix.

    Raises ConvergenceError on a non-finite Gram (the symmetric eigensolver
    returns finite garbage on NaN input instead of failing) or when the
    eigensolver does not converge.
    """
    if not np.isfinite(gram).all():
        raise ConvergenceError(
            f"{gram.shape[0]}x{gram.shape[0]} Gram matrix has non-finite entries"
        )
    try:
        return float(np.linalg.eigvalsh(gram)[-1])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigenvalue iteration did not converge for {gram.shape[0]}x{gram.shape[0]} Gram"
        ) from exc


def spectral_norm(a):
    """2-norm of a matrix: its largest singular value.

    Computed as s * sqrt(lambda_max(G)), where s = max|a_ij| and G is the
    Gram matrix of A / s on its smaller side, read with a symmetric
    eigensolver: one Gram product and a small eigenproblem instead of a full
    SVD. Dividing by s first keeps G's entries within [0, max(m, n)], so the
    square neither underflows nor overflows for any finite A (without it,
    entries near 1e-170 square to zero and entries near 1e155 to Inf).
    The eigensolver's error is relative to ||G|| = lambda_max, so sigma_max
    keeps full relative accuracy. Only sigma_max is read this way: squaring
    loses the small singular values, which the rank rule and
    smallest_singular_value need, so those keep the SVD.
    """
    a = as_matrix(a, "A")
    # max|a_ij| without an |A| temporary; NaN anywhere makes both ends NaN
    scale = max(float(a.max()), -float(a.min()))
    if not math.isfinite(scale):
        raise ConvergenceError(
            f"spectral norm of a {a.shape[0]}x{a.shape[1]} matrix with non-finite entries"
        )
    if scale == 0.0:
        return 0.0
    x = a / scale
    gram = x.T @ x if x.shape[0] >= x.shape[1] else x @ x.T
    return scale * math.sqrt(_lambda_max(gram))


def smallest_singular_value(a):
    """Smallest singular value of a matrix (over min(m, n))."""
    a = as_matrix(a, "A")
    return float(np.linalg.svd(a, compute_uv=False)[-1])
