"""Greedy interpolation-index selection and interpolatory-projector utilities.

Indices are 0-based ndarrays internally; the CLI reports them 1-based.
Selection matrices are never materialized: every "S^T X" is a row gather.
"""

import numpy as np

from .errors import DependentBasisError, DimensionError, SingularMatrixError
from .matkit import _is_integer, _require_full_rank, as_matrix


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
    of the first k columns: each column takes the updates of all earlier
    pivots as one matrix-vector product (left-looking), and each pivot's row
    of U is formed for every later column (Crout). The residuals agree with
    those of per-step solves to rounding, so the indices agree too unless
    two residual entries tie to rounding.

    The rank rule (``matkit.RANK_TOL``) runs once, on the final k x k block
    ``basis[s, :k]``: its determinant is, up to sign, the product of the
    pivots, so a rank-deficient intermediate block shows up there. Raises
    DependentBasisError when that block fails the rule or a pivot is
    exactly 0; the message names the first step whose selected block fails
    the rule. A basis with a NaN or inf entry raises ContractViolationError
    (``as_matrix``) before any elimination. Raises DimensionError when k is
    not an integer or exceeds the column count.
    """
    u = as_matrix(basis, "basis")
    m, r = u.shape
    if r > m:
        raise DimensionError(f"basis needs rows >= cols, got {m}x{r}")
    if not _is_integer(k) or not 1 <= k <= r:
        raise DimensionError(f"k={k!r} outside 1..{r} (columns available)")
    # column j becomes its residual, then its multipliers (column j of L)
    f = np.array(u[:, :k], order="F")
    t = np.empty((k, k))  # the pivots' rows of U
    s = np.empty(k, dtype=np.int64)
    # a finite basis can still overflow here; the rank rule below rejects it
    with np.errstate(all="ignore"):
        for j in range(k):
            col = f[:, j]
            col -= f[:, :j] @ t[:j, j]
            col[s[:j]] = 0.0
            s[j] = piv_row = int(np.argmax(np.abs(col)))
            piv = col[piv_row]
            if piv == 0.0:
                _name_dependent_step(u, s[: j + 1], k)
            t[j, j + 1 :] = f[piv_row, j + 1 :] - f[piv_row, :j] @ t[:j, j + 1 :]
            col /= piv
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
    """Validate a basis and its indices; return the basis, the indices, the
    selected square block and its singular values, after the rank rule on
    that block."""
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

    A basis or an X with a NaN or inf entry anywhere raises
    ContractViolationError (``as_matrix``). A solve with the selected block
    that is not finite (it scales as 1/||basis||, so it overflows for a
    basis of subnormal scale) raises SingularMatrixError, as a middle matrix
    does.
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
        return u @ _finite_solve(sub, x[s, :])
    if x.shape[1] != u.shape[0]:
        raise DimensionError(
            f"X needs {u.shape[0]} columns to match the basis, got {x.shape[1]}"
        )
    return x[:, s] @ _finite_solve(sub.T, u.T)


def _finite_solve(sub, rhs):
    out = np.linalg.solve(sub, rhs)
    if not np.isfinite(out).all():
        raise SingularMatrixError(
            "interpolatory projector is not finite: the inverse of the selected "
            "basis submatrix overflows at this scale"
        )
    return out


def eta(basis, indices):
    """Error constant of the interpolatory projector: ||basis[s, :]^-1||.

    For an orthonormal basis this equals the projector's norm. It reads
    psi_min from the singular values the rank rule already computed. A basis
    with a NaN or inf entry raises ContractViolationError (``as_matrix``),
    and a psi_min whose inverse overflows (a basis of subnormal scale)
    SingularMatrixError.
    """
    # a Python float division overflows to inf without numpy's warning
    inv = 1.0 / float(_selected_block(basis, indices)[3][-1])
    if inv == np.inf:
        raise SingularMatrixError(
            "error constant is not finite: the inverse of the selected basis "
            "submatrix overflows at this scale"
        )
    return inv
