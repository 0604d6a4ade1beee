"""Greedy interpolation-index selection and interpolatory-projector utilities.

Indices are 0-based ndarrays internally; the CLI reports them 1-based.
Selection matrices are never materialized: every "S^T X" is a row gather.
"""

import numpy as np

from .errors import DependentBasisError, DimensionError, SingularMatrixError
from .matkit import _require_full_rank, as_matrix

# deim_select eliminates this many columns between two trailing updates
_BLOCK = 32


def as_indices(indices, extent, name="indices"):
    """Validate an index vector: 1-D, integer, distinct, within [0, extent)."""
    s = np.atleast_1d(np.asarray(indices))
    if s.ndim != 1 or s.size == 0:
        raise DimensionError(f"{name} must be a nonempty 1-D sequence")
    if not np.issubdtype(s.dtype, np.integer):
        raise DimensionError(f"{name} must be integers, got dtype {s.dtype}")
    s = s.astype(np.int64)
    if np.unique(s).size != s.size:
        raise DimensionError(f"{name} must be duplicate-free")
    if s.min() < 0 or s.max() >= extent:
        raise DimensionError(f"{name} out of range for extent {extent}")
    return s


def deim_select(basis, k):
    """Select k interpolation indices from the columns of a basis matrix.

    The first index is the argmax of |basis[:, 0]|. Each later step j
    interpolates column j at the rows selected so far, subtracts the
    interpolant, and takes the argmax of the residual magnitude. Ties
    resolve to the smallest index (forward argmax scan), and the residual
    is exactly 0 on the rows already selected.

    That residual is column j after j steps of Gaussian elimination with
    partial pivoting on the basis (Chaturantabut & Sorensen 2010): the
    interpolant u_{:j} c with c = u[s, :j]^-1 u[s, j] is what the first j
    eliminations subtract, so the greedy argmax is the pivot search and the
    selected rows are the pivot rows. So one elimination pass selects all k
    indices, with no j x j solve per step. It runs on a Fortran-order copy
    of the first k columns, in blocks of ``_BLOCK`` columns: inside a block
    each column takes the updates of the block's earlier pivots as one
    matrix-vector product (left-looking), and each pivot's row of U is
    formed for every later column (Crout); after a block the later columns
    take its update as one GEMM. The residuals agree with those of per-step
    solves to rounding, so the indices agree too unless two residual
    entries tie to rounding.

    The rank rule (``matkit.RANK_TOL``) runs once, on the final k x k block
    ``basis[s, :k]``: its determinant is, up to sign, the product of the
    pivots, so a rank-deficient intermediate block shows up there. Raises
    DependentBasisError when that block fails the rule or a pivot is
    exactly 0; the message names the first step whose selected block fails
    the rule. A non-finite basis fails the rule with ConvergenceError.
    Raises DimensionError when k exceeds the column count.
    """
    u = as_matrix(basis, "basis")
    m, r = u.shape
    if r > m:
        raise DimensionError(f"basis needs rows >= cols, got {m}x{r}")
    if not 1 <= k <= r:
        raise DimensionError(f"k={k} outside 1..{r} (columns available)")
    # column j becomes its residual, then its multipliers (column j of L)
    f = np.array(u[:, :k], order="F")
    t = np.empty((min(_BLOCK, k), k))  # the current block's rows of U
    s = np.empty(k, dtype=np.int64)
    # a non-finite basis makes NaNs here; the rank rule below rejects it
    with np.errstate(all="ignore"):
        for b0 in range(0, k, _BLOCK):
            b1 = min(b0 + _BLOCK, k)
            for j in range(b0, b1):
                i = j - b0
                col = f[:, j]
                if i:
                    col -= f[:, b0:j] @ t[:i, j]
                    col[s[b0:j]] = 0.0
                s[j] = piv_row = int(np.argmax(np.abs(col)))
                piv = col[piv_row]
                if piv == 0.0:
                    _name_dependent_step(u, s[: j + 1], k)
                t[i, j + 1 :] = f[piv_row, j + 1 :] - f[piv_row, b0:j] @ t[:i, j + 1 :]
                col /= piv
            if b1 < k:
                f[:, b1:] -= f[:, b0:b1] @ t[: b1 - b0, b1:]
                f[s[b0:b1], b1:] = 0.0
    try:
        _require_full_rank(u[s, :k], DependentBasisError, f"selected {k}x{k} block")
    except DependentBasisError:
        _name_dependent_step(u, s, k)
    return s


def _name_dependent_step(u, s, k):
    """Raise DependentBasisError naming the first step whose block fails the rule.

    Runs only on the error path. The j x j block is used at step j + 1; the
    k x k block is the final selection.
    """
    for j in range(1, s.size + 1):
        where = f"at step {j + 1}" if j < k else f"after step {j}, the last"
        _require_full_rank(
            u[s[:j], :j], DependentBasisError, f"selected {j}x{j} submatrix {where}"
        )
    raise DependentBasisError(
        f"selected {s.size}x{s.size} submatrix at step {s.size + 1} is singular"
    )


def _selected_block(basis, indices):
    u = as_matrix(basis, "basis")
    s = as_indices(indices, u.shape[0])
    if s.size != u.shape[1]:
        raise DimensionError(
            f"need a square selected block: {s.size} indices for {u.shape[1]} columns"
        )
    sub = u[s, :]
    psi = _require_full_rank(sub, SingularMatrixError, "selected basis submatrix")
    return u, s, sub, psi


def interp_project(basis, indices, x, side="left"):
    """Apply the interpolatory projector built from (basis, indices) to X.

    side="left" computes P X = basis @ basis[s, :]^-1 @ X[s, :]; the result
    agrees with X on the selected rows. side="right" computes X P with the
    analogous projector acting on columns, so the selected columns of X are
    reproduced exactly.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    u, s, sub, _ = _selected_block(basis, indices)
    x = as_matrix(x, "X")
    if side == "left":
        if x.shape[0] != u.shape[0]:
            raise DimensionError(
                f"X needs {u.shape[0]} rows to match the basis, got {x.shape[0]}"
            )
        return u @ np.linalg.solve(sub, x[s, :])
    if x.shape[1] != u.shape[0]:
        raise DimensionError(
            f"X needs {u.shape[0]} columns to match the basis, got {x.shape[1]}"
        )
    return x[:, s] @ np.linalg.solve(sub.T, u.T)


def eta(basis, indices):
    """Error constant of the interpolatory projector: ||basis[s, :]^-1||.

    For an orthonormal basis this equals the projector's norm. It reads
    psi_min from the singular values the rank rule already computed.
    """
    psi = _selected_block(basis, indices)[3]
    return float(1.0 / psi[-1])
