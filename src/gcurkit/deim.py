"""Greedy interpolation-index selection and interpolatory-projector utilities.

Indices are 0-based ndarrays internally; the CLI reports them 1-based.
Selection matrices are never materialized: every "S^T X" is a row gather.
"""

import numpy as np

from .errors import DependentBasisError, DimensionError, SingularMatrixError
from .matkit import _require_full_rank, as_matrix


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

    The first index is the argmax of |basis[:, 0]|. Each later step solves the
    selected (j x j) subsystem for the interpolation coefficients, subtracts
    the interpolant from the next column, and takes the argmax of the residual
    magnitude. Ties resolve to the smallest index (forward argmax scan).

    The rank rule (``matkit.RANK_TOL``) runs once, on the final k x k block
    ``basis[s, :k]``: its determinant is, up to sign, the product of the
    pivots |residual[s_j]|, so a rank-deficient intermediate block shows up
    there. Raises DependentBasisError when that block fails the rule or a
    solve meets an exactly singular block; the message names the first step
    whose selected block fails the rule. Raises DimensionError when k
    exceeds the column count.
    """
    u = as_matrix(basis, "basis")
    m, r = u.shape
    if r > m:
        raise DimensionError(f"basis needs rows >= cols, got {m}x{r}")
    if not 1 <= k <= r:
        raise DimensionError(f"k={k} outside 1..{r} (columns available)")
    s = np.empty(k, dtype=np.int64)
    s[0] = int(np.argmax(np.abs(u[:, 0])))
    for j in range(1, k):
        try:
            c = np.linalg.solve(u[s[:j], :j], u[s[:j], j])
        except np.linalg.LinAlgError:
            _name_dependent_step(u, s[:j], k)
        resid = u[:, j] - u[:, :j] @ c
        s[j] = int(np.argmax(np.abs(resid)))
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
