"""CUR decomposition of a single matrix with greedy interpolation indices.

A ~= C @ M @ R where C = A[:, p] and R = A[s, :] are actual columns and rows
of A. The middle matrix M = C^+ A R^+ minimizes ||A - C M R|| over M for the
given index choice; it is computed from one thin QR of C and one of R.T,
as T_c^-1 (Q_c^T A Q_r) T_r^-T with k x k triangular solves, never by
inverting C.T @ C. A caller that holds the triangle of A = Q T passes T in
place of A for the column side, so C's QR and the core have n rows, not m.
A middle matrix or one-sided projection factor that is not finite (both
scale as 1/||A||, so they overflow for an A of subnormal scale) raises
SingularMatrixError.

``deim_cur`` also returns ||A - C M R|| / ||A||, scored on factors it already
holds: the SVD it selects the indices from, on which the residual is a
min(m, n)-square matrix and ||A|| = psi_1. It differs from an explicit m x n
computation at rounding level. ``_residual_norm`` is the one CUR-residual
routine; ``gcur`` scores its errors and bounds through it too.
"""

import warnings
from typing import NamedTuple

import numpy as np

from . import deim, matkit
from .errors import FullRankError, SingularMatrixError
from .matkit import _negligible, _require_full_rank, _require_truncation_rank, as_matrix


class CurFactors(NamedTuple):
    """Column indices p, row indices s, the middle matrix M and the relative
    2-norm error ||A - C M R|| / ||A||.

    C and R are referenced by index only; materialize them as A[:, p] and
    A[s, :] when needed.
    """

    p: np.ndarray
    s: np.ndarray
    M: np.ndarray
    rel_error: float


class InterpolativeFactors(NamedTuple):
    """One-sided (interpolative) decomposition: indices, factor, relative error."""

    indices: np.ndarray
    factor: np.ndarray
    rel_error: float


def _require_enough_rows(rows, vectors, what):
    """More selected vectors than their dimension cannot have full rank."""
    if rows < vectors:
        raise FullRankError(
            f"{what} is rank deficient ({vectors} vectors in {rows} dimensions)"
        )


def _nested_middle_matrices(x, p, a_s, sizes, name="A"):
    """Middle matrices for nested index prefixes, from one QR per side.

    Returns (middles, Q_c, Q_r): C^+ A R^+ for C = A[:, p[:kc]],
    R = A_s[:kr, :] for every (kc, kr) in ``sizes``, where A_s = A[s, :]
    holds the longest row selection, and the orthonormal bases Q_c of
    x[:, p] and Q_r of A_s^T that it factors, for a caller that scores the
    orthogonal projections onto them (``_projection_error``). The column
    factor comes from ``x``: A itself, or a triangle with A = Q x for some
    orthonormal-column Q (the T of a thin QR of A). Then C = Q x[:, p] and
    Q^T Q = I give C^+ = x[:, p]^+ Q^T, so C^+ A R^+ = x[:, p]^+ x A_s^+,
    and a tall A needs no m-row work here. The leading kc columns of Q_c
    and the leading kc x kc block of T_c are a thin QR of x[:, p[:kc]], so
    one factorization of x[:, p] and one of A_s^T, plus one core
    Q_c^T x Q_r, serve every prefix: M = T_c^-1 (Q_c^T x Q_r) T_r^-T on the
    leading blocks. The rank rule runs on each leading block. x and A_s
    must be float64 matrices and p a valid index vector.
    """
    col, row = f"column factor {name}[:, p]", f"row factor {name}[s, :]"
    _require_enough_rows(x.shape[0], p.size, col)
    _require_enough_rows(a_s.shape[1], a_s.shape[0], row)
    q_c, t_c = matkit.thin_qr(x[:, p])
    q_r, t_r = matkit.thin_qr(a_s.T)
    core = (q_c.T @ x) @ q_r
    out = []
    for kc, kr in sizes:
        tc, tr = t_c[:kc, :kc], t_r[:kr, :kr]
        _require_full_rank(tc, FullRankError, col)
        _require_full_rank(tr, FullRankError, row)
        m = np.linalg.solve(tc, core[:kc, :kr])  # T_c^-1 Q_c^T x Q_r
        m = np.linalg.solve(tr, m.T).T
        # written so that NaN fails it too, not only an overflow to inf
        if not np.isfinite(m).all():
            raise SingularMatrixError(
                f"middle matrix of {name} is not finite: the inverses of {col} "
                f"and {row} overflow at this scale, or {name} is not finite"
            )
        out.append(m)
    return out, q_c, q_r


def middle_matrix(a, p, s):
    """Middle matrix C^+ A R^+ for C = A[:, p], R = A[s, :] (Frobenius-optimal).

    With C = Q_c T_c and R^T = Q_r T_r, C^+ A R^+ = T_c^-1 (Q_c^T A Q_r) T_r^-T.
    """
    a = as_matrix(a, "A")
    p = deim.as_indices(p, a.shape[1], "p")
    s = deim.as_indices(s, a.shape[0], "s")
    (middle,), _, _ = _nested_middle_matrices(a, p, a[s, :], [(p.size, s.size)])
    return middle


def _warn_if_degenerate(psi, k):
    if k < psi.size and _negligible(psi[k - 1] - psi[k], psi[0]):
        warnings.warn(
            f"singular values {k} and {k + 1} coincide to working precision; "
            "index selection is still deterministic but not unique",
            stacklevel=3,
        )


def deim_cur(a, k):
    """Rank-k CUR of A with k rows from the left and k columns from the
    right singular vectors, so M is k x k.

    ``rel_error`` is ||A - C M R|| / ||A||, scored on the SVD that selected
    the indices, A = W diag(psi) Z^T, with ||A|| = psi_1; no m x n residual
    is formed (module docstring).

    A degenerate spectrum at the cut emits a warning; selection proceeds
    deterministically.
    """
    a = as_matrix(a, "A")
    _require_truncation_rank(k, min(a.shape))
    f = matkit.svd(a)
    _warn_if_degenerate(f.psi, k)
    p = deim.deim_select(f.Z[:, :k], k)
    s = deim.deim_select(f.W[:, :k], k)
    (middle,), _, _ = _nested_middle_matrices(a, p, a[s, :], [(k, k)])
    # A = W diag(psi) Z^T. A tall A has A - C M R = W (T - T[:, p] M A[s, :])
    # with T = diag(psi) Z^T; a wide A has its transpose, (A - C M R)^T =
    # Z (T - T[:, s] M^T A[:, p]^T) with T = diag(psi) W^T. Either way the
    # residual is r x r, r = min(m, n).
    if a.shape[0] >= a.shape[1]:
        err = _residual_norm(f.psi[:, None] * f.Z.T, p, middle, a[s, :], "cur", "A")
    else:
        err = _residual_norm(f.psi[:, None] * f.W.T, s, middle.T, a[:, p].T, "cur", "A")
    return CurFactors(p, s, middle, float(err / f.psi[0]))


def _projection(x, factor, mode, what):
    """Orthogonal projection of X onto a column or row factor, and its error.

    mode="column": C = ``factor`` shares X's rows; returns (C^+ X,
    ||X - C C^+ X||). mode="row": R = ``factor`` shares X's columns; returns
    (X R^+, ||X - X R^+ R||). One thin QR, C = Q T (or R^T = Q T), gives
    C^+ X = T^-1 Q^T X and C C^+ = Q Q^T (X R^+ = X Q T^-T, R^+ R = Q Q^T).
    The rank rule runs once, on T, and names the factor ``what``. A
    projection that is not finite (it scales as 1/||factor||, so it
    overflows for a factor of subnormal scale) raises SingularMatrixError.
    """
    basis = factor if mode == "column" else factor.T
    _require_enough_rows(basis.shape[0], basis.shape[1], what)
    q, t = matkit.thin_qr(basis)
    _require_full_rank(t, FullRankError, what)
    if mode == "column":
        qx = q.T @ x
        proj, resid = np.linalg.solve(t, qx), x - q @ qx
    else:
        xq = x @ q
        proj, resid = np.linalg.solve(t, xq.T).T, x - xq @ q.T
    # written so that NaN fails it too, not only an overflow to inf
    if not np.isfinite(proj).all():
        raise SingularMatrixError(
            f"projection onto {what} is not finite: its inverse overflows "
            "at this scale, or the projected matrix is not finite"
        )
    return proj, matkit.spectral_norm(resid)


def _projection_error(x, q, mode):
    """The error of ``_projection`` from a basis Q it already took: Q of C
    (mode "column") or of R^T ("row"), with the same products and bits."""
    if mode == "column":
        return matkit.spectral_norm(x - q @ (q.T @ x))
    return matkit.spectral_norm(x - (x @ q) @ q.T)


def _residual_norm(x, p, m, x_s, mode, name):
    """||X - X[:, p] M X_s|| for mode "cur", or the error of the orthogonal
    projection of X onto the columns X[:, p] ("column") or the rows X_s ("row").

    The one CUR-residual routine: ``deim_cur``, ``gcur.relative_errors`` and
    ``gcur.evaluate_bounds`` all score through it.
    """
    if mode == "cur":
        return matkit.spectral_norm(x - x[:, p] @ m @ x_s)
    if mode == "column":
        return _projection(x, x[:, p], mode, f"column factor {name}[:, p]")[1]
    return _projection(x, x_s, mode, f"row factor {name}[s, :]")[1]


def projection_error(a, indices, mode):
    """One-sided projection of A onto actual columns or rows, and its error.

    mode="column" takes C = A[:, indices] and returns (C^+ A, ||A - C C^+ A||);
    mode="row" takes R = A[indices, :] and returns (A R^+, ||A - (A R^+) R||).
    The error is absolute, in the 2-norm; callers pick the normaliser. Both
    come from one thin QR of C (or R^T); a factor that fails the rank rule
    raises FullRankError. Indices that are not distinct integers in range
    (n columns or m rows) raise DimensionError, as in :func:`middle_matrix`.
    """
    a = as_matrix(a, "A")
    if mode == "column":
        p = deim.as_indices(indices, a.shape[1], "p")
        return _projection(a, a[:, p], mode, "column factor A[:, p]")
    s = deim.as_indices(indices, a.shape[0], "s")
    return _projection(a, a[s, :], mode, "row factor A[s, :]")


def interpolative(a, k, mode="column"):
    """One-sided decomposition: A ~= C @ (C^+ A) or A ~= (A R^+) @ R.

    mode="column" keeps k actual columns, mode="row" keeps k actual rows; the
    reported relative error is ||A - reconstruction|| / ||A|| in the 2-norm.
    """
    if mode not in ("column", "row"):
        raise ValueError(f"mode must be 'column' or 'row', got {mode!r}")
    a = as_matrix(a, "A")
    _require_truncation_rank(k, min(a.shape))
    f = matkit.svd(a)
    _warn_if_degenerate(f.psi, k)
    scale = max(f.psi[0], np.finfo(float).tiny)
    basis = f.Z if mode == "column" else f.W
    idx = deim.deim_select(basis[:, :k], k)
    factor, err = projection_error(a, idx, mode)
    return InterpolativeFactors(idx, factor, float(err / scale))
