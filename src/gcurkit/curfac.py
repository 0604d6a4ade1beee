"""CUR decomposition of a single matrix with greedy interpolation indices.

A ~= C @ M @ R where C = A[:, p] and R = A[s, :] are actual columns and rows
of A. The middle matrix M = C^+ A R^+ minimizes ||A - C M R|| over M for the
given index choice; it is computed from one thin QR of C and one of R.T,
as T_c^-1 (Q_c^T A Q_r) T_r^-T with k x k triangular solves, never by
inverting C.T @ C. A caller that holds the triangle of A = Q T passes T in
place of A for the column side, so C's QR and the core have n rows, not m.
"""

import warnings
from typing import NamedTuple

import numpy as np

from . import deim, matkit
from .errors import FullRankError
from .matkit import _negligible, _require_full_rank, _require_truncation_rank, as_matrix


class CurFactors(NamedTuple):
    """Column indices p, row indices s, and the middle matrix M.

    C and R are referenced by index only; materialize them as A[:, p] and
    A[s, :] when needed.
    """

    p: np.ndarray
    s: np.ndarray
    M: np.ndarray


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

    Returns C^+ A R^+ for C = A[:, p[:kc]], R = A_s[:kr, :] for every
    (kc, kr) in ``sizes``, where A_s = A[s, :] holds the longest row
    selection. The column factor comes from ``x``: A itself, or a triangle
    with A = Q x for some orthonormal-column Q (the T of a thin QR of A).
    Then C = Q x[:, p] and Q^T Q = I give C^+ = x[:, p]^+ Q^T, so
    C^+ A R^+ = x[:, p]^+ x A_s^+, and a tall A needs no m-row work here.
    The leading kc columns of Q_c and the leading kc x kc block of T_c are
    a thin QR of x[:, p[:kc]], so one factorization of x[:, p] and one of
    A_s^T, plus one core Q_c^T x Q_r, serve every prefix:
    M = T_c^-1 (Q_c^T x Q_r) T_r^-T on the leading blocks. The rank rule
    runs on each leading block. x and A_s must be float64 matrices and p a
    valid index vector.
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
        out.append(np.linalg.solve(tr, m.T).T)
    return out


def middle_matrix(a, p, s, name="A"):
    """Middle matrix C^+ A R^+ for C = A[:, p], R = A[s, :] (Frobenius-optimal).

    With C = Q_c T_c and R^T = Q_r T_r, C^+ A R^+ = T_c^-1 (Q_c^T A Q_r) T_r^-T.
    """
    a = as_matrix(a, name)
    p = deim.as_indices(p, a.shape[1], "p")
    s = deim.as_indices(s, a.shape[0], "s")
    return _nested_middle_matrices(a, p, a[s, :], [(p.size, s.size)], name)[0]


def _warn_if_degenerate(psi, k):
    if k < psi.size and _negligible(psi[k - 1] - psi[k], psi[0]):
        warnings.warn(
            f"singular values {k} and {k + 1} coincide to working precision; "
            "index selection is still deterministic but not unique",
            stacklevel=3,
        )


def deim_cur(a, k, *, k_rows=None, k_cols=None):
    """Rank-k CUR of A with rows from the left and columns from the right
    singular vectors.

    ``k_rows``/``k_cols`` override the shared default k, in which case M is
    rectangular (k_cols x k_rows). A degenerate spectrum at either cut emits a
    warning; selection proceeds deterministically.
    """
    a = as_matrix(a, "A")
    k_rows = k if k_rows is None else k_rows
    k_cols = k if k_cols is None else k_cols
    kmax = max(k_rows, k_cols)
    _require_truncation_rank(kmax, min(a.shape))
    f = matkit.svd(a)
    _warn_if_degenerate(f.psi, kmax)
    p = deim.deim_select(f.Z[:, :k_cols], k_cols)
    s = deim.deim_select(f.W[:, :k_rows], k_rows)
    middle = _nested_middle_matrices(a, p, a[s, :], [(k_cols, k_rows)])[0]
    return CurFactors(p, s, middle)


def reconstruct(a, factors):
    """Materialize C @ M @ R for CUR factors of A."""
    a = as_matrix(a, "A")
    return a[:, factors.p] @ factors.M @ a[factors.s, :]


def cur_error(a, p, m, s):
    """Absolute 2-norm error ||A - A[:, p] @ M @ A[s, :]|| of a CUR approximation."""
    a = as_matrix(a, "A")
    return matkit.spectral_norm(a - a[:, p] @ m @ a[s, :])


def _projection(x, factor, mode, what):
    """Orthogonal projection of X onto a column or row factor, and its error.

    mode="column": C = ``factor`` shares X's rows; returns (C^+ X,
    ||X - C C^+ X||). mode="row": R = ``factor`` shares X's columns; returns
    (X R^+, ||X - X R^+ R||). One thin QR, C = Q T (or R^T = Q T), gives
    C^+ X = T^-1 Q^T X and C C^+ = Q Q^T (X R^+ = X Q T^-T, R^+ R = Q Q^T).
    The rank rule runs once, on T, and names the factor ``what``.
    """
    basis = factor if mode == "column" else factor.T
    _require_enough_rows(basis.shape[0], basis.shape[1], what)
    q, t = matkit.thin_qr(basis)
    _require_full_rank(t, FullRankError, what)
    if mode == "column":
        qx = q.T @ x
        return np.linalg.solve(t, qx), matkit.spectral_norm(x - q @ qx)
    xq = x @ q
    return np.linalg.solve(t, xq.T).T, matkit.spectral_norm(x - xq @ q.T)


def projection_error(a, indices, mode, name="A"):
    """One-sided projection of A onto actual columns or rows, and its error.

    mode="column" takes C = A[:, indices] and returns (C^+ A, ||A - C C^+ A||);
    mode="row" takes R = A[indices, :] and returns (A R^+, ||A - (A R^+) R||).
    The error is absolute, in the 2-norm; callers pick the normaliser. Both
    come from one thin QR of C (or R^T); a factor that fails the rank rule
    raises FullRankError.
    """
    a = as_matrix(a, name)
    if mode == "column":
        return _projection(a, a[:, indices], mode, f"column factor {name}[:, p]")
    return _projection(a, a[indices, :], mode, f"row factor {name}[s, :]")


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
