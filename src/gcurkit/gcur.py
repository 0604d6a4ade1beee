"""Generalized CUR decomposition of a matrix pair, plus its error diagnostics.

The factorization jointly approximates A (m x n) and B (d x n) by actual
rows and columns,

    A ~= A[:, p] @ M_A @ A[s_A, :],    B ~= B[:, p] @ M_B @ B[s_B, :],

where the *same* column indices p are used for both matrices. Indices come
from greedy interpolation-index selection on the generalized singular vector
matrices: p from Y, s_A from U, s_B from V, ordered by nonincreasing
generalized singular value ratios. Middle matrices are the pseudoinverse
products that minimize the Frobenius reconstruction error for the chosen
indices, computed from one thin QR of the column factor and one of the
transposed row factor (see :func:`gcurkit.curfac.middle_matrix`).
"""

from typing import NamedTuple, Optional

import numpy as np

from . import curfac, deim, matkit
from .errors import DimensionError
from .gsvd import _require_truncation_rank, gsvd, truncate, truncated_pair


class GcurFactors(NamedTuple):
    """Coupled index sets and middle matrices of a rank-k generalized CUR.

    ``ratio_gap`` records gamma_k/sigma_k - gamma_{k+1}/sigma_{k+1} at the
    truncation cut, surfacing near-degeneracy of the selection.

    ``U_k``, ``Y`` and ``gamma`` are the parts of the pair's GSVD that
    :func:`evaluate_bounds` reads, so it need not compute the GSVD again:
    ``U_k`` is an owned copy of the leading ``s_a.size`` columns of U
    (m x k), ``Y`` the full n x n factor and ``gamma`` all n values. They
    take m*k + n*n + n floats; the m x n U and d x n V are not kept.
    """

    p: np.ndarray
    s_a: np.ndarray
    s_b: Optional[np.ndarray]
    M_a: np.ndarray
    M_b: Optional[np.ndarray]
    k: int
    ratio_gap: float
    U_k: np.ndarray
    Y: np.ndarray
    gamma: np.ndarray


class BoundReport(NamedTuple):
    """Every quantity of the rank-k approximation error bound, plus checks.

    ``checks`` maps each inequality to a bool: the two-sided interpolation
    bounds for columns and rows, the one-sided orthogonal-projection bounds,
    and the final C M R bound
    ``observed_error <= gamma_next * (eta_p * norm_t22 + eta_s * norm_t_hat)``.
    """

    gamma_next: float
    eta_p: float
    eta_s: float
    norm_t22: float
    norm_t_hat: float
    psi_min_t22: float
    psi_min_t_hat: float
    interp_col_error: float
    interp_row_error: float
    proj_col_error: float
    proj_row_error: float
    observed_error: float
    bound: float
    checks: dict


class TruncationSandwich(NamedTuple):
    """gamma_{k+1} psi_min(Y_tail) <= ||A - A_k|| <= gamma_{k+1} ||Y_tail||, checked."""

    gamma_next: float
    lower: float
    observed: float
    upper: float
    holds: bool


class SubspaceGap(NamedTuple):
    """||A (I - Q Q^T)||^2 with its lower bound and two upper bounds."""

    lower: float
    value: float
    upper_coarse: float
    upper_refined: float


def _ratio_gap(factors, k):
    ratios = factors.ratios
    if k >= ratios.size:
        return float("nan")
    return float(ratios[k - 1] - ratios[k])


def _gcur(a, b, k, k_rows, k_cols, with_b):
    a = matkit.as_matrix(a, "A")
    b = matkit.as_matrix(b, "B")
    k_rows = k if k_rows is None else k_rows
    k_cols = k if k_cols is None else k_cols
    kmax = max(k_rows, k_cols)
    n = a.shape[1]
    if not 1 <= kmax < n:
        raise DimensionError(f"rank must satisfy 1 <= k < n = {n}, got {kmax}")
    f = gsvd(a, b)
    u_k = np.array(f.U[:, :k_rows], order="F")
    p = deim.deim_select(f.Y[:, :k_cols], k_cols)
    s_a = deim.deim_select(u_k, k_rows)
    m_a = curfac.middle_matrix(a, p, s_a, "A")
    s_b = m_b = None
    if with_b:
        s_b = deim.deim_select(f.V[:, :k_rows], k_rows)
        m_b = curfac.middle_matrix(b, p, s_b, "B")
    return GcurFactors(
        p, s_a, s_b, m_a, m_b, kmax, _ratio_gap(f, kmax), u_k, f.Y, f.gamma
    )


def gcur(a, b, k, *, k_rows=None, k_cols=None):
    """Rank-k generalized CUR of the pair (A, B); see the module docstring.

    The three index selections are independent of each other; B's rows share
    nothing with A's beyond the common column index vector p.
    """
    return _gcur(a, b, k, k_rows, k_cols, with_b=True)


def gcur_only_a(a, b, k, *, k_rows=None, k_cols=None):
    """Like :func:`gcur` but skips B's row selection and middle matrix.

    Saves the V-side work when only the approximation of A is wanted;
    p, s_a and M_a match :func:`gcur` exactly.
    """
    return _gcur(a, b, k, k_rows, k_cols, with_b=False)


def reconstruct_a(a, factors):
    """Materialize the rank-k approximation of A from its GCUR factors."""
    a = matkit.as_matrix(a, "A")
    return a[:, factors.p] @ factors.M_a @ a[factors.s_a, :]


def reconstruct_b(b, factors):
    """Materialize the rank-k approximation of B from its GCUR factors."""
    if factors.s_b is None or factors.M_b is None:
        raise DimensionError("factors carry no B-side data (built with gcur_only_a)")
    b = matkit.as_matrix(b, "B")
    return b[:, factors.p] @ factors.M_b @ b[factors.s_b, :]


def evaluate_bounds(a, b, factors, tol_scale=1e-9):
    """Evaluate all approximation-error inequalities for GCUR factors of (A, B).

    Does not compute the GSVD: it reads U_k, Y and gamma from ``factors``,
    which must come from :func:`gcur` or :func:`gcur_only_a` on this same
    pair. Factors whose U_k or Y do not match A's row count or the column
    count n raise DimensionError; factors of another pair with the same
    shapes give wrong bounds. Takes the thin QR of Y to get the orthonormal
    column basis Q_k and the triangular blocks T22 (trailing square block)
    and T_hat (trailing column block), and checks each inequality to within
    ``tol_scale * ||A||``.

    The interpolatory errors are sandwiched as

        gamma_{k+1} * psi_min(T22)   <= ||A - A P|| <= gamma_{k+1} * ||T22||  * eta_p,
        gamma_{k+1} * psi_min(T_hat) <= ||A - S A|| <= gamma_{k+1} * ||T_hat|| * eta_s.

    The eta constants appear only on the upper sides: an oblique projector
    can only grow the orthogonal residual (its complement acts as the
    identity on that range), so the lower sides hold without them.
    """
    a = matkit.as_matrix(a, "A")
    b = matkit.as_matrix(b, "B")
    k = int(factors.p.size)
    if factors.s_a.size != k:
        raise DimensionError(
            "bound evaluation needs equal numbers of selected rows and columns"
        )
    m, n = a.shape
    if b.shape[1] != n:
        raise DimensionError(
            f"A and B must share column counts, got {n} and {b.shape[1]}"
        )
    u_k, y = factors.U_k, factors.Y
    if u_k.shape != (m, k) or y.shape != (n, n) or factors.gamma.shape != (n,):
        raise DimensionError(
            f"carried GSVD factors (U_k {u_k.shape}, Y {y.shape}) do not match "
            f"A ({m}x{n}) at k={k}; compute the factors with gcur on this pair"
        )
    _require_truncation_rank(k, n)
    q, t_full = matkit.thin_qr(y)
    q_k = q[:, :k]
    t22 = t_full[k:, k:]
    t_hat = t_full[:, k:]

    eta_p = deim.eta(q_k, factors.p)
    eta_s = deim.eta(u_k, factors.s_a)
    gamma_next = float(factors.gamma[k])
    norm_t22 = matkit.spectral_norm(t22)
    psi_min_t22 = matkit.smallest_singular_value(t22)
    norm_t_hat = matkit.spectral_norm(t_hat)
    psi_min_t_hat = matkit.smallest_singular_value(t_hat)

    interp_col = matkit.spectral_norm(
        a - deim.interp_project(q_k, factors.p, a, side="right")
    )
    interp_row = matkit.spectral_norm(
        a - deim.interp_project(u_k, factors.s_a, a, side="left")
    )
    _, proj_col = curfac.projection_error(a, factors.p, "column")
    _, proj_row = curfac.projection_error(a, factors.s_a, "row")
    observed = curfac.cur_error(a, factors.p, factors.M_a, factors.s_a)
    bound = gamma_next * (eta_p * norm_t22 + eta_s * norm_t_hat)

    tol = tol_scale * matkit.spectral_norm(a)
    checks = {
        "interp_cols_upper": interp_col <= gamma_next * norm_t22 * eta_p + tol,
        "interp_cols_lower": gamma_next * psi_min_t22 <= interp_col + tol,
        "interp_rows_upper": interp_row <= gamma_next * norm_t_hat * eta_s + tol,
        "interp_rows_lower": gamma_next * psi_min_t_hat <= interp_row + tol,
        "proj_cols_upper": proj_col <= gamma_next * norm_t22 * eta_p + tol,
        "proj_rows_upper": proj_row <= gamma_next * norm_t_hat * eta_s + tol,
        "cur_upper": observed <= bound + tol,
    }
    return BoundReport(
        gamma_next=gamma_next,
        eta_p=eta_p,
        eta_s=eta_s,
        norm_t22=norm_t22,
        norm_t_hat=norm_t_hat,
        psi_min_t22=psi_min_t22,
        psi_min_t_hat=psi_min_t_hat,
        interp_col_error=float(interp_col),
        interp_row_error=float(interp_row),
        proj_col_error=float(proj_col),
        proj_row_error=float(proj_row),
        observed_error=float(observed),
        bound=float(bound),
        checks=checks,
    )


def truncation_sandwich(a, factors, k, norm_a):
    """Check the rank-k GSVD truncation error of A against its two-sided bound.

    ``norm_a`` is ||A||; the checks hold to within ``1e-9 * max(1, ||A||)``.
    """
    a = matkit.as_matrix(a, "A")
    y_tail = truncate(factors, k).Y_tail
    a_k, _ = truncated_pair(factors, k)
    gamma_next = float(factors.gamma[k])
    observed = matkit.spectral_norm(a - a_k)
    lower = gamma_next * matkit.smallest_singular_value(y_tail)
    upper = gamma_next * matkit.spectral_norm(y_tail)
    tol = 1e-9 * max(1.0, norm_a)
    holds = bool(lower <= observed + tol and observed <= upper + tol)
    return TruncationSandwich(gamma_next, lower, observed, upper, holds)


def svd_subspace_gap(a, q_k):
    """Squared 2-norm of A restricted to the complement of span(Q_k), bounded.

    Returns (lower, value, upper_coarse, upper_refined):

    - lower: psi_{k+1}(A)^2, attained when Q_k spans the top right singular
      vectors;
    - value: ||A (I - Q_k Q_k^T)||^2 exactly;
    - upper_coarse: psi_{k+1}^2 + ||A||^2 * sin^2(max principal angle between
      span(Q_k) and the top-k right singular subspace);
    - upper_refined: psi_{k+1}^2 + sum_j psi_j^2 sin^2(z_j, span(Q_k)) over
      the top-k right singular directions individually.
    """
    a = matkit.as_matrix(a, "A")
    q_k = matkit.as_matrix(q_k, "Q_k")
    if q_k.shape[0] != a.shape[1]:
        raise DimensionError(
            f"Q_k needs {a.shape[1]} rows to match A's columns, got {q_k.shape[0]}"
        )
    matkit._check_orthonormal(q_k, "Q_k")
    k = q_k.shape[1]
    f = matkit.svd(a)
    psi_next = float(f.psi[k]) if k < f.psi.size else 0.0
    lower = psi_next**2
    value = matkit.spectral_norm(a - (a @ q_k) @ q_k.T) ** 2

    z_k = f.Z[:, :k]
    resid = z_k - q_k @ (q_k.T @ z_k)
    sin_max = min(1.0, float(np.linalg.svd(resid, compute_uv=False)[0]))
    upper_coarse = lower + matkit.spectral_norm(a) ** 2 * sin_max**2
    sin_each = np.minimum(1.0, np.linalg.norm(resid, axis=0))
    upper_refined = lower + float(np.sum(f.psi[:k] ** 2 * sin_each**2))
    return SubspaceGap(lower, value, upper_coarse, upper_refined)
