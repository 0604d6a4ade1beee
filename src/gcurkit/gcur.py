"""Generalized CUR decomposition of a matrix pair, plus its error diagnostics.

The factorization jointly approximates A (m x n) and B (d x n) by actual
rows and columns,

    A ~= A[:, p] @ M_A @ A[s_A, :],    B ~= B[:, p] @ M_B @ B[s_B, :],

where the *same* column indices p are used for both matrices. Indices come
from greedy interpolation-index selection on the generalized singular vector
matrices: p from Y, s_A from U, s_B from V, ordered by nonincreasing
generalized singular value ratios. All three select k indices, one rank k
for the whole factorization, each in one unblocked, left-looking
elimination pass (see :func:`gcurkit.deim.deim_select`). Middle matrices
are the pseudoinverse products that minimize the Frobenius reconstruction
error for the chosen indices, computed from one thin QR of the column
factor and one of the transposed row factor (see
:func:`gcurkit.curfac.middle_matrix`).

Both matrices are reduced as ``gsvd`` reduces them: a taller than wide
X (A with m > n, B with d > n) once to its n x n triangle, X = Q_X R_X,
and so is a square B with an entry below its diagonal; a square A, and an
upper-triangular B, is its own R_X. The GSVD runs on (R_A, R_B), so U = Q_A U'
and V = Q_B V' with U' and V' n x n. One routine, ``_side``, builds
either side from its matrix X, R_X, the lift of Q_X and the k leading
columns of U' or V'. Only two of its steps need X's rows: the lifted
basis Q_X U'_k (or Q_X V'_k), applied from the Householder reflectors
without forming Q_X, and the row selection that DEIM reads from it. The
middle matrix takes its column factor from R_X (since
X[:, p] = Q_X R_X[:, p], C^+ X R^+ = R_X[:, p]^+ R_X X_s^+ with
X_s = X[s, :]), so its QR and core have n rows. Every residual that
:func:`evaluate_bounds` and :func:`relative_errors` measure for X lies in
range(Q_X) too: each is Q_X times an n x n matrix built from R_X, the
side's basis and X_s, and Q_X preserves the 2-norm, so ||X|| = ||R_X||
as well. So the errors and bounds of both sides are scored on n x n
matrices, and no m x n or d x n residual is formed.

Each factorization runs once per pair. The thin QRs that each middle
matrix is built from, of R_A[:, p] and A_s^T for M_A and of R_B[:, p] and
B_s^T (B_s = B[s_B, :]) for M_B, also give the orthonormal bases of the
one-sided projections that :func:`evaluate_bounds` and
:func:`relative_errors` score, so :func:`gcur` keeps all four (Q_p and Q_s
for A, Qb_p and Qb_s for B) and the scorers take no QR of those factors
again. One routine scores either side, from its triangle (R_A or R_B), its
indices, its middle matrix, its selected rows and its two bases.
"""

from typing import NamedTuple, Optional

import numpy as np

from . import curfac, deim, matkit
from .curfac import _residual_norm
from .errors import ContractViolationError, DimensionError
from .gsvd import _reduced_gsvd, _require_pair

# evaluate_bounds and relative_errors accept A when its column norms match the
# carried R_a's to this fraction of A's largest; Householder QR keeps them to
# a few ulps.
_COLUMN_NORM_TOL = 1e-10

# evaluate_bounds checks each inequality to within this fraction of ||A||.
_BOUND_TOL = 1e-9


class GcurFactors(NamedTuple):
    """Coupled index sets and middle matrices of a rank-k generalized CUR.

    ``p``, ``s_a`` and ``s_b`` each hold k indices, so ``M_a`` and ``M_b``
    are k x k.

    ``ratio_gap`` records gamma_k/sigma_k - gamma_{k+1}/sigma_{k+1} at the
    truncation cut, surfacing near-degeneracy of the selection. It is 0 when
    both ratios are +inf (sigma_k = sigma_{k+1} = 0, a rank-deficient B), and
    +inf when only gamma_k/sigma_k is.

    The remaining fields are what :func:`evaluate_bounds` and
    :func:`relative_errors` read, so they need not factor A or compute the
    GSVD again. ``U_k`` holds the leading k columns of U (m x k), ``Y`` the
    full n x n factor and ``gamma`` all n values. ``R_a`` is the n x n
    triangle of A = Q_A R_A (a copy of A when m = n), and ``Ur_k`` is U_k
    in its coordinates (n x k), so U_k = Q_A Ur_k. ``A_s`` is A[s_a, :]
    (k x n), the rows M_a was built from. ``Q_p`` and ``Q_s`` (n x k each)
    are the orthonormal bases of R_a[:, p] and of A_s^T that M_a's thin QRs
    formed. B's side carries the same: ``R_b`` is the n x n triangle of
    B = Q_B R_B (a copy of B when B is an upper triangle), ``V_k`` the
    leading k columns of V (d x k) that s_b was selected from, ``B_s`` is
    B[s_b, :] (k x n), and ``Qb_p`` and ``Qb_s`` (n x k each) are the
    bases of R_b[:, p] and of B_s^T that M_b's thin QRs formed, so the
    projections scored for either
    side need no QR of their own. They take m*k + d*k + 3*n*n + 7*n*k + n
    floats, each array owned; Q_A and Q_B are never formed, and the m x n U
    and the d x n V are not kept. :func:`gcur_only_a` sets ``s_b``,
    ``M_b``, ``Qb_p``, ``Qb_s``, ``B_s``, ``R_b`` and ``V_k`` to None, and
    its factors take d*k + n*n + 3*n*k floats fewer.
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
    R_a: np.ndarray
    Ur_k: np.ndarray
    A_s: np.ndarray
    Q_p: np.ndarray
    Q_s: np.ndarray
    Qb_p: Optional[np.ndarray]
    Qb_s: Optional[np.ndarray]
    B_s: Optional[np.ndarray]
    R_b: Optional[np.ndarray]
    V_k: Optional[np.ndarray]


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


class SubspaceGap(NamedTuple):
    """||A (I - Q Q^T)||^2 with its lower bound and two upper bounds."""

    lower: float
    value: float
    upper_coarse: float
    upper_refined: float


def _ratio_gap(factors, k):
    ratios = factors.ratios
    if ratios[k] == np.inf:
        return 0.0  # the cut splits a tie of sigma = 0 pairs, both ratios +inf
    return float(ratios[k - 1] - ratios[k])


def _side(x, reduced, basis_k, p, name):
    """One side of a GCUR, for either matrix X = Q R of the pair, from the
    side's k leading GSVD vectors in R's coordinates (U'_k or V'_k). It pops
    its (R, lift of Q) off the front of ``reduced`` (``gsvd._reduce``), so
    that a tall X's reflectors go once the basis is lifted. Returns, each
    array owned, (R, W_k, s, X_s, M, Q_c, Q_r): the lifted basis
    W_k = Q basis_k, the rows s DEIM selects from it, X_s = X[s, :], and the
    middle matrix M with the bases Q_c of R[:, p] and Q_r of X_s^T that it
    was built from."""
    r, lift = reduced.pop(0)
    w_k = lift(basis_k)
    del lift  # the last reference to a tall X's reflectors
    s = deim.deim_select(w_k, p.size)
    x_s = x[s, :]
    # a square A and an upper-triangular B are their own R; the factors own their arrays
    r = r.copy() if r is x else r
    (m,), q_c, q_r = curfac._nested_middle_matrices(r, p, x_s, [(p.size, p.size)], name)
    return r, w_k, s, x_s, m, q_c, q_r


def _gcur(a, b, k, with_b):
    a, b = _require_pair(a, b)
    matkit._require_truncation_rank(k, a.shape[1])
    # gsvd's reduction, but only U_k and V_k are lifted
    f, reduced = _reduced_gsvd(a, b)
    p = deim.deim_select(f.Y[:, :k], k)
    ur_k = f.U[:, :k].copy()
    r_a, u_k, s_a, a_s, m_a, q_p, q_s = _side(a, reduced, ur_k, p, "A")
    b_side = _side(b, reduced, f.V[:, :k], p, "B") if with_b else (None,) * 7
    r_b, v_k, s_b, b_s, m_b, qb_p, qb_s = b_side
    return GcurFactors(
        p, s_a, s_b, m_a, m_b, k, _ratio_gap(f, k), u_k, f.Y, f.gamma, r_a, ur_k, a_s,
        q_p, q_s, qb_p, qb_s, b_s, r_b, v_k,
    )


def gcur(a, b, k):
    """Rank-k generalized CUR of the pair (A, B); see the module docstring.

    The three index selections are independent of each other; B's rows share
    nothing with A's beyond the common column index vector p.
    """
    return _gcur(a, b, k, with_b=True)


def gcur_only_a(a, b, k):
    """Like :func:`gcur` but skips B's row selection and middle matrix.

    Saves the V-side work when only the approximation of A is wanted;
    p, s_a and M_a match :func:`gcur` exactly.
    """
    return _gcur(a, b, k, with_b=False)


def _reconstruct(x, shape, p, m, s, x_s, name):
    """X[:, p] M X_s for an X of the ``shape`` the factors were computed
    from, whose rows X[s, :] are the carried X_s. An X of another shape
    raises DimensionError; other rows, or a product beyond float64's range,
    ContractViolationError."""
    x = matkit.as_matrix(x, name)
    if x.shape != shape:
        raise DimensionError(
            f"{name} is {x.shape[0]}x{x.shape[1]}, but the factors were computed "
            f"from a {shape[0]}x{shape[1]} {name}"
        )
    _require_rows_of(x, s, x_s, name)
    with matkit._representable(f"the rank-k approximation of {name}"):
        return x[:, p] @ m @ x_s


def reconstruct_a(a, factors):
    """Materialize the rank-k approximation of A from its GCUR factors.

    An A of another shape than the one the factors came from raises
    DimensionError; a non-finite A (``matkit.as_matrix``), an A whose rows
    A[s_a, :] are not the carried A_s bit for bit, or an approximation
    beyond float64's range, raises ContractViolationError.
    """
    f = factors
    return _reconstruct(a, (f.U_k.shape[0], f.Y.shape[0]), f.p, f.M_a, f.s_a, f.A_s, "A")


def reconstruct_b(b, factors):
    """Materialize the rank-k approximation of B from its GCUR factors.

    Raises as :func:`reconstruct_a` does, with B_s for A_s, and
    DimensionError for factors from :func:`gcur_only_a`.
    """
    f = factors
    if f.s_b is None:
        raise DimensionError("factors carry no B-side data (built with gcur_only_a)")
    return _reconstruct(b, (f.V_k.shape[0], f.Y.shape[0]), f.p, f.M_b, f.s_b, f.B_s, "B")


def _require_columns_of(a, r_a):
    """R_a of A = Q_A R_A keeps A's column norms; raise when they differ.

    Both are divided by s = max|a_ij| first, as ``matkit._spectral_norm``
    scales, so the squares neither overflow nor underflow at any finite
    scale of A. A mismatch means the factors were computed from another
    matrix of the same shape.
    """
    scale = max(float(a.max()), -float(a.min())) or 1.0
    x = a / scale
    norms_a = np.sqrt(np.einsum("ij,ij->j", x, x))
    # a carried R_a far larger than A can overflow here; the test below fails it
    with np.errstate(over="ignore", invalid="ignore"):
        x = r_a / scale
        gap = float(np.max(np.abs(norms_a - np.sqrt(np.einsum("ij,ij->j", x, x)))))
    # written so that a NaN or inf gap (a non-finite carried R_a) fails the test too
    if not gap <= _COLUMN_NORM_TOL * float(np.max(norms_a)):
        raise ContractViolationError(
            f"column norms of A and of the carried triangle R_a differ by "
            f"{gap * scale:.3e}; compute the factors with gcur on this pair"
        )


def _require_rows_of(x, s, x_s, name):
    """The carried rows X_s must be X[s, :] bit for bit; raise otherwise.

    Catches an A whose rows were permuted: it keeps the column norms and
    the triangle R_a, yet the bounds would read the wrong rows. B has no
    other check that the factors came from it.
    """
    if not np.array_equal(x[s, :].view(np.uint64), x_s.view(np.uint64)):
        side = name.lower()
        raise ContractViolationError(
            f"rows {name}[s_{side}, :] differ from the carried {name}_s; compute "
            "the factors with gcur on this pair"
        )


def _require_factors_of(a, b, factors):
    """Validate (A, B) and check that ``factors`` came from gcur on this pair.

    Returns A and B as float64 matrices. A pair that ``gsvd`` would reject,
    or carried arrays whose shapes do not fit A (m x n) and, for factors
    with B's side, B (d x n) at k = p.size, raise DimensionError. An R_a
    without A's column norms, or an A_s that is not A[s_a, :] bit for bit,
    raises ContractViolationError.
    """
    a, b = _require_pair(a, b)
    (m, n), d = a.shape, b.shape[0]
    k = factors.p.size
    want = {"s_a": (k,), "U_k": (m, k), "Ur_k": (n, k), "R_a": (n, n), "A_s": (k, n),
            "Y": (n, n), "gamma": (n,), "Q_p": (n, k), "Q_s": (n, k)}
    if factors.s_b is not None:
        want.update(V_k=(d, k), R_b=(n, n), Qb_p=(n, k), Qb_s=(n, k), B_s=(k, n))
    bad = [f"{name} {getattr(factors, name).shape}" for name, shape in want.items()
           if getattr(factors, name).shape != shape]
    if bad:
        raise DimensionError(
            f"carried GSVD factors ({', '.join(bad)}) do not match A ({m}x{n}) "
            f"and B ({d}x{n}) at k={k}; compute the factors with gcur on this pair"
        )
    matkit._require_truncation_rank(k, n)
    _require_columns_of(a, factors.R_a)
    _require_rows_of(a, factors.s_a, factors.A_s, "A")
    return a, b


def _side_error(x, p, m, x_s, q_c, q_r, mode):
    """The absolute 2-norm error of one side X ~= X[:, p] M X_s of a GCUR:
    the CUR residual (mode "cur"), or the orthogonal projection of X onto
    X[:, p] ("column") or onto X_s ("row"), read from the bases Q_c and Q_r
    that the side's middle matrix formed in gcur, whose triangles passed the
    rank rule there; no QR is taken. Each side passes its triangle, R_a or
    R_b, as X."""
    if mode == "cur":
        return _residual_norm(x, p, m, x_s)
    return curfac._projection_error(x, q_c if mode == "column" else q_r, mode)


def relative_errors(a, b, factors, mode="cur"):
    """Relative 2-norm errors (err_a, err_b) of GCUR factors of (A, B).

    mode="cur" scores ||A - A[:, p] M_a A[s_a, :]|| / ||A||; "column" and
    "row" score the one-sided projection of A onto A[:, p] or A[s_a, :],
    and likewise for B with p and s_b. Both sides are scored by one routine,
    each on its carried n x n triangle, as in :func:`evaluate_bounds`
    (module docstring), with ||A|| = ||R_a|| and ||B|| = ||R_b||. The
    projections read the carried bases (Q_p and Q_s for A, Qb_p and Qb_s
    for B) and take no QR. err_b is None for factors from
    :func:`gcur_only_a`. The factors must come from this same pair, checked
    as in :func:`evaluate_bounds`, and a B whose row count differs from
    theirs raises DimensionError; for factors with B's side, a B whose rows
    B[s_b, :] are not the carried B_s bit for bit (a zero B, say: B_s has
    full row rank) cannot have produced them and raises
    ContractViolationError, as a non-finite A or B does
    (``matkit.as_matrix``). A residual beyond float64's range raises
    ContractViolationError.
    """
    if mode not in ("cur", "column", "row"):
        raise ValueError(f"mode must be 'cur', 'column' or 'row', got {mode!r}")
    _, b = _require_factors_of(a, b, factors)
    f = factors
    err_a = _side_error(f.R_a, f.p, f.M_a, f.A_s, f.Q_p, f.Q_s, mode)
    err_a /= matkit.spectral_norm(f.R_a)
    if f.s_b is None:
        return err_a, None
    _require_rows_of(b, f.s_b, f.B_s, "B")
    err_b = _side_error(f.R_b, f.p, f.M_b, f.B_s, f.Qb_p, f.Qb_s, mode)
    return err_a, err_b / matkit.spectral_norm(f.R_b)


def evaluate_bounds(a, b, factors):
    """Evaluate all approximation-error inequalities for GCUR factors of (A, B).

    Does not factor A or compute the GSVD: it reads R_a, U_k, Ur_k, A_s,
    Q_p, Q_s, Y and gamma from ``factors``, which must come from
    :func:`gcur` or :func:`gcur_only_a` on this same pair. Factors whose
    arrays do not match A's row count, B's (for factors from :func:`gcur`),
    the column count n or k = p.size raise DimensionError. Factors whose R_a
    does not have A's column norms (to 1e-10 of A's largest, at any finite
    scale of A), or whose A_s is not A[s_a, :] bit for bit, raise
    ContractViolationError. Its one QR is the thin QR of Y, for the
    orthonormal column basis Q_k and the triangular blocks T22 (trailing
    square block) and T_hat (trailing column block), whose norms and
    smallest singular values come from one SVD each; the two orthogonal
    projections read the bases of R_a[:, p] and A_s^T that gcur formed for
    M_a, and whose triangles passed the rank rule there. It checks each
    inequality to within 1e-9 * ||A||, with ||A|| = ||R_a||.

    The interpolatory errors are sandwiched as

        gamma_{k+1} * psi_min(T22)   <= ||A - A P|| <= gamma_{k+1} * ||T22||  * eta_p,
        gamma_{k+1} * psi_min(T_hat) <= ||A - S A|| <= gamma_{k+1} * ||T_hat|| * eta_s.

    The eta constants appear only on the upper sides: an oblique projector
    can only grow the orthogonal residual (its complement acts as the
    identity on that range), so the lower sides hold without them.

    All five residual norms are taken on n x n matrices (module docstring).
    With r = R_a, A_s = A[s_a, :], r[:, p] = Q_p T_p and A_s^T = Q_s T_s:

        ||A - A P||           = ||r - r[:, p] Q_k[p, :]^-T Q_k^T||
        ||A - S A||           = ||r - Ur_k U_k[s_a, :]^-1 A_s||
        ||A - C C^+ A||       = ||(I - Q_p Q_p^T) r||
        ||A - A R^+ R||       = ||r (I - Q_s Q_s^T)||
        ||A - C M_a R||       = ||r - r[:, p] M_a A_s||
    """
    _require_factors_of(a, b, factors)
    k = factors.p.size
    u_k, ur_k, r, a_s = factors.U_k, factors.Ur_k, factors.R_a, factors.A_s
    p, s = factors.p, factors.s_a
    q, t_full = matkit.thin_qr(factors.Y)
    q_k = q[:, :k]
    t22 = t_full[k:, k:]
    t_hat = t_full[:, k:]

    eta_p = deim.eta(q_k, p)
    eta_s = deim.eta(u_k, s)
    gamma_next = float(factors.gamma[k])
    psi_t22 = np.linalg.svd(t22, compute_uv=False)
    psi_t_hat = np.linalg.svd(t_hat, compute_uv=False)
    norm_t22, psi_min_t22 = float(psi_t22[0]), float(psi_t22[-1])
    norm_t_hat, psi_min_t_hat = float(psi_t_hat[0]), float(psi_t_hat[-1])

    interp_col = matkit.spectral_norm(r - r[:, p] @ np.linalg.solve(q_k[p, :].T, q_k.T))
    interp_row = matkit.spectral_norm(r - ur_k @ np.linalg.solve(u_k[s, :], a_s))
    proj_col, proj_row, observed = (
        _side_error(r, p, factors.M_a, a_s, factors.Q_p, factors.Q_s, mode)
        for mode in ("column", "row", "cur")
    )
    bound = gamma_next * (eta_p * norm_t22 + eta_s * norm_t_hat)
    tol = _BOUND_TOL * matkit.spectral_norm(r)
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
    z_k = f.Z[:, :k]
    resid = z_k - q_k @ (q_k.T @ z_k)
    sin_max = min(1.0, float(np.linalg.svd(resid, compute_uv=False)[0]))
    sin_each = np.minimum(1.0, np.linalg.norm(resid, axis=0))
    with matkit._representable("the squared subspace gap of A"):
        lower = psi_next**2
        value = matkit.spectral_norm(a - (a @ q_k) @ q_k.T) ** 2
        upper_coarse = lower + matkit.spectral_norm(a) ** 2 * sin_max**2
        upper_refined = lower + float(np.sum(f.psi[:k] ** 2 * sin_each**2))
        gap = SubspaceGap(lower, value, upper_coarse, upper_refined)
        # a sum of finite Python floats overflows to inf without raising
        if not np.isfinite(gap).all():
            raise OverflowError
    return gap
