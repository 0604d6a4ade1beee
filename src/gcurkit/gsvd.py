"""Generalized singular value decomposition of a matrix pair.

For A (m x n, m >= n) and B (d x n, d >= n) the reduced factorization is

    A = U @ diag(gamma) @ Y.T,    B = V @ diag(sigma) @ Y.T,

with orthonormal-column U (m x n) and V (d x n), nonsingular Y (n x n), and
gamma_i^2 + sigma_i^2 = 1. Pairs are ordered so the ratios gamma_i/sigma_i
are nonincreasing; directions with sigma_i = 0 (ratio +inf) come first.

The computation stacks [A; B], takes a thin QR, and reads both factor sets
off an SVD of the top block, so the cross products A.T @ A and B.T @ B are
never formed. A taller than wide (m > n) is first reduced to its n x n
triangle, A = Q_A R_A: the steps above run on [R_A; B], whose top block is
n x n instead of m x n, and U is lifted as Q_A U' at the end (the QR
preprocessing of LAPACK's xGGSVP3). Q_A is never formed: U' is lifted by
applying A's Householder reflectors (``matkit._triangle_and_lift``), the
same reduction ``gcur`` makes. A square A skips the reduction.

``gsvd_diagnostics`` runs that same reduction and returns the factors with
the numbers the ``gcurkit gsvd`` command reports: both reconstruction
residuals and, for a truncation rank k, the sandwich
gamma_{k+1} psi_min(Y_tail) <= ||A - A_k|| <= gamma_{k+1} ||Y_tail||. A's
residuals lie in range(A) = range(Q_A), so they are scored on R_A and U',
factors the GSVD already holds, with ||A|| = ||R_A||; no m x n residual is
formed. They differ from an explicit m x n computation at rounding level.

``gsvd`` takes one 2-D pair. Its core, ``_stacked_gsvd``, which runs the
steps above on a square or reduced A, also takes stacks of pairs with leading
axes (A of shape ``(..., m, n)``, B of shape ``(..., d, n)`` or one 2-D B
shared by every pair) and factors all of them with one stacked QR and one
stacked SVD, each pair with the bits it gets alone; the intro-angles
experiment runs its trials that way.
"""

from typing import NamedTuple, Optional

import numpy as np

from . import matkit
from .errors import DimensionError, FullRankError
from .matkit import _negligible, _require_full_rank, _require_truncation_rank, as_matrix


class GsvdFactors(NamedTuple):
    """Reduced GSVD of a pair, ordered by nonincreasing gamma/sigma."""

    U: np.ndarray
    V: np.ndarray
    Y: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray

    @property
    def ratios(self):
        """gamma_i / sigma_i with +inf where sigma_i is numerically zero."""
        out = np.full_like(self.gamma, np.inf)
        ok = ~_negligible(self.sigma, 1.0)
        out[ok] = self.gamma[ok] / self.sigma[ok]
        return out


class TruncationSandwich(NamedTuple):
    """gamma_{k+1} psi_min(Y_tail) <= ||A - A_k|| <= gamma_{k+1} ||Y_tail||, checked."""

    gamma_next: float
    lower: float
    observed: float
    upper: float
    holds: bool


class GsvdDiagnostics(NamedTuple):
    """GSVD factors of a pair with their residuals; see :func:`gsvd_diagnostics`."""

    factors: GsvdFactors
    residual_a: float
    residual_b: float
    rel_residual_a: float
    rel_residual_b: float
    sandwich: Optional[TruncationSandwich]


def _orthonormal_completion(v_good, d, count):
    """Deterministic orthonormal columns spanning part of range(v_good)'s complement."""
    if v_good.shape[1] == 0:
        return np.eye(d, count)
    u_full, _, _ = np.linalg.svd(v_good, full_matrices=True)
    return u_full[:, v_good.shape[1] : v_good.shape[1] + count]


def _require_pair(a, b):
    """Validate (A, B) as a pair ``gsvd`` factors; return both as float64 matrices."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    m, n = a.shape
    d, nb = b.shape
    if nb != n:
        raise DimensionError(f"A and B must share column counts, got {n} and {nb}")
    if m < n:
        raise DimensionError(f"A needs rows >= cols, got {m}x{n}")
    if d < n:
        raise DimensionError(f"B needs rows >= cols, got {d}x{n}")
    return a, b


def _reduced_gsvd(a, b):
    """GSVD of (R_A, B) for a validated pair, with R_A and the lift of U'.

    A tall A is reduced to its triangle, [A; B] = diag(Q_A, I) [R_A; B], so
    both stacks share the triangle T0; lift is None for a square A, which is
    its own R_A.
    """
    if a.shape[0] > a.shape[1]:
        r_a, lift = matkit._triangle_and_lift(a)
        return _stacked_gsvd(r_a, b), r_a, lift
    return _stacked_gsvd(a, b), a, None


def gsvd(a, b):
    """Reduced GSVD of the pair (A, B); see the module docstring for the form.

    Raises DimensionError unless A and B share a column count n with at least
    n rows each, ContractViolationError for a NaN or +-inf entry in either
    (``matkit.as_matrix``), and FullRankError when the stacked pair [A; B] is
    column-rank deficient (then no nonsingular Y exists). A rank-deficient B
    with a full-rank stack is handled: those directions get sigma = 0, sort
    first, and their V columns are completed by orthogonalization.
    """
    f, _, lift = _reduced_gsvd(*_require_pair(a, b))
    return f if lift is None else f._replace(U=lift(f.U))


def gsvd_diagnostics(a, b, k):
    """The GSVD of (A, B) with its reconstruction residuals and, for a
    truncation rank k (None for none), the truncation sandwich.

    Returns the factors of :func:`gsvd`, bit for bit, with

    - ``residual_a`` = ||A - U diag(gamma) Y^T|| and ``residual_b`` =
      ||B - V diag(sigma) Y^T||, and each divided by max(1, ||A||) or
      max(1, ||B||);
    - ``sandwich``: gamma_{k+1} psi_min(Y_tail) <= ||A - A_k|| <=
      gamma_{k+1} ||Y_tail||, checked to within 1e-9 * max(1, ||A||).

    A's numbers are scored on the triangle the GSVD already reduced a tall
    A to: A = Q_A R_A and U = Q_A U', so A - U diag(gamma) Y^T and A - A_k
    are Q_A times n x n matrices built from R_A and U', and ||A|| = ||R_A||.
    They differ from the explicit m x n residuals at rounding level (U' is
    not lifted first). B's numbers are taken on B itself. k is checked
    (1 <= k < n) before the factorization.
    """
    a, b = _require_pair(a, b)
    if k is not None:
        _require_truncation_rank(k, a.shape[1])
    f, r_a, lift = _reduced_gsvd(a, b)
    norm_a = matkit.spectral_norm(r_a)
    res_a = matkit.spectral_norm(r_a - f.U @ (f.gamma[:, None] * f.Y.T))
    res_b = matkit.spectral_norm(b - f.V @ (f.sigma[:, None] * f.Y.T))
    rel_a = res_a / max(1.0, norm_a)
    rel_b = res_b / max(1.0, matkit.spectral_norm(b))
    sandwich = None
    if k is not None:
        gamma_next = float(f.gamma[k])
        # A_k = U_k diag(gamma_k) Y_k^T, with U' in place of U for a tall A
        observed = matkit.spectral_norm(r_a - f.U[:, :k] @ (f.gamma[:k, None] * f.Y[:, :k].T))
        psi_tail = np.linalg.svd(f.Y[:, k:], compute_uv=False)
        lower, upper = gamma_next * float(psi_tail[-1]), gamma_next * float(psi_tail[0])
        tol = 1e-9 * max(1.0, norm_a)
        holds = bool(lower <= observed + tol and observed <= upper + tol)
        sandwich = TruncationSandwich(gamma_next, lower, observed, upper, holds)
    if lift is not None:
        f = f._replace(U=lift(f.U))
    return GsvdDiagnostics(f, res_a, res_b, rel_a, rel_b, sandwich)


def _stacked_gsvd(a, b):
    """GSVD of a validated pair from one thin QR of the stack [A; B], with
    U read off the SVD of its top block, so U has A's m rows. A and B may
    carry leading stack axes (see the module docstring)."""
    m, n = a.shape[-2:]
    d = b.shape[-2]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    stack = np.empty((*batch, n, m + d)).swapaxes(-1, -2)  # column-major pairs
    stack[..., :m, :] = a
    stack[..., m:, :] = b
    q0, t0 = matkit._thin_qr(stack)
    del stack  # (m + d) x n floats per pair the SVD below does not need
    _require_full_rank(t0, FullRankError, "stacked pair [A; B]")

    u, gamma, wt = np.linalg.svd(q0[..., :m, :], full_matrices=False)
    w = wt.swapaxes(-1, -2)
    gamma = np.clip(gamma, 0.0, 1.0)

    # Columns of q0[m:] @ w are sigma_i * v_i; for sigma_i ~ 0 the direction
    # is meaningless and V is completed orthonormally instead. The rank rule
    # reads sigma against 1, the scale that gamma^2 + sigma^2 = 1 gives it.
    vs = q0[..., m:, :] @ w
    sigma = np.linalg.norm(vs, axis=-2)
    good = ~_negligible(sigma, 1.0)
    v = vs / np.where(good, sigma, 1.0)[..., None, :]
    if not good.all():
        for v_i, good_i in zip(v.reshape(-1, d, n), good.reshape(-1, n)):
            if not good_i.all():
                fill = _orthonormal_completion(v_i[:, good_i], d, int((~good_i).sum()))
                v_i[:, ~good_i] = fill

    y = t0.swapaxes(-1, -2) @ w
    return GsvdFactors(u, v, y, gamma, sigma)
