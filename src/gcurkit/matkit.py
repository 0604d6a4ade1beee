"""Dense-matrix conventions and the factorization primitives everything else uses.

A matrix is a plain 2-D float64 numpy array, and its storage order is the
caller's: ``as_matrix`` validates without copying a float64 array of either
order, and every LAPACK routine numpy calls copies its input into its own
column-major buffer anyway. BLAS products read the layout they are given,
which can move the last bits of a result. Only Matrix Market files are
column-major, and ``gcurkit.io`` reads and writes that layout. All
operations here are pure functions of their inputs.

``thin_qr`` forms the whole Q of a thin QR, and runs only where that Q is
read: the column and row factors in ``curfac._nested_middle_matrices``
(whose Q's ``gcur`` keeps for the projections of both sides) and
``curfac._projection``, Y's QR in ``gcur.evaluate_bounds``, and in
``experiments`` the QR of the low-rank generators' n x 50 factor Y, whose
Q is the noise-recovery scorer's basis of A's rows, and
(``_factor_in_basis``) the QR of each noise-recovery K_eps, which has
min(m, n + 50) rows, not m. A caller that needs only the
triangle, or Q applied to a few columns, uses ``_triangle_and_lift``,
which keeps the Householder reflectors in compact WY form instead of
forming Q, for a matrix of any shape: the reduction of a tall A in
``gsvd`` and ``gcur``, ``synth._core_svd`` (the 50 x 50 core of the
low-rank generators' factors, which ``lowrank_gapped``'s gap check
reads), the noise-recovery scorer's per-reconstruction triangle, and the
noise-recovery trial's one QR of [G, F], which lifts the left vectors of
every eps to m rows and reads the noise's selected rows through the
lift's row-gather form. The QR of the stacked pair in ``gsvd``, whose top
block is B's triangle, is ``_triangle_on_top_qr``: it forms Q from the
reflectors' compact-WY factor by products, with no xORGQR.

Input is validated once, at the public boundary: every public function of
the package passes each matrix argument through ``as_matrix``, which rejects
any ndim but 2, an empty matrix (DimensionError) and a NaN or +-inf entry
(ContractViolationError "<name> contains non-finite entries"). Past that
point a non-finite value is an intermediate that overflowed, and the checks
on results (a spectrum, a solve, a product) raise for it. A public function
here validates and then calls a private core.
The cores ``_svd``, ``_thin_qr`` (with the sign fix ``_diag_signs``),
``_triangle_on_top_qr`` and ``_wy_factor``, ``_spectral_norm`` and
``_lambda_max``, ``_max_principal_angle`` and ``_check_orthonormal``, and
``_require_full_rank`` also take a stack of
matrices with leading axes (shape ``(..., m, n)``) and factor every matrix
of the stack in one numpy call. numpy's stacked LAPACK and matmul calls give
each matrix the bits it gets alone, so a stack changes no result; the
intro-angles experiment runs its trials that way. A core that rejects its
input (a rank test, a non-finite scale or spectrum) raises for the whole
stack. The cores do not call ``as_matrix``, so ``_svd`` and
``_spectral_norm`` keep their own finiteness checks.
"""

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    ConvergenceError,
    DimensionError,
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
    """Raise ``error`` when A is numerically rank deficient (psi_min negligible).

    Returns A's singular values, nonincreasing, for callers that need them.
    On a stack, raises when any matrix is, naming the first. An A that
    overflowed on its way here raises ConvergenceError: its SVD either does
    not converge or, with an inf entry, returns NaN singular values, which
    no comparison would flag.
    """
    try:
        psi = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge in the rank test of {what}") from exc
    if not np.isfinite(psi).all():
        raise ConvergenceError(f"non-finite singular values in the rank test of {what}")
    deficient = _negligible(psi[..., -1], psi[..., 0])
    if deficient.any():
        first = psi[deficient][0]
        raise error(
            f"{what} is rank deficient "
            f"(psi_min = {first[-1]:.3e} <= {RANK_TOL:g} * psi_max)"
        )
    return psi


def as_matrix(a, name="matrix"):
    """Validate ``a`` as a nonempty, finite 2-D real matrix; return it as float64.

    The one input check of the package (module docstring). A float64 array
    comes back as itself, in its own storage order; anything else is
    converted once. Raises DimensionError for another ndim or an empty
    matrix, and ContractViolationError naming ``name`` for a NaN or +-inf
    entry.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionError(f"{name} must be nonempty, got shape {a.shape}")
    return require_finite(a, name)


def _is_integer(k):
    """A Python or numpy integer that is not a bool: a valid rank or count."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _require_truncation_rank(k, n):
    """A rank-k truncation of n directions needs an integer k with 1 <= k < n
    (a nonempty tail)."""
    if not _is_integer(k) or not 1 <= k < n:
        raise DimensionError(f"truncation rank must satisfy 1 <= k < {n}, got {k!r}")


def require_finite(a, name="matrix"):
    """Reject a NaN or +-inf entry of a nonempty array; return the array.

    max and min propagate NaN and show an inf at one end, so no bool
    temporary of A's size is formed.
    """
    if not (np.isfinite(a.max()) and np.isfinite(a.min())):
        raise ContractViolationError(f"{name} contains non-finite entries")
    return a


@contextmanager
def _representable(what):
    """Run arithmetic on finite float64 operands; numpy's overflow (or the
    inf - inf it leads to) and Python's ``OverflowError`` (a float ``**``)
    raise ContractViolationError naming ``what`` instead of a RuntimeWarning
    or a bare OverflowError. Finite results keep their bits."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise ContractViolationError(f"{what} is not representable in float64") from None


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
    A non-finite A raises ContractViolationError (``as_matrix``).
    """
    return _svd(as_matrix(a, "A"))


def _svd(a):
    # checked first, for a stack that bypasses as_matrix: with an inf entry
    # (a noisy stack that overflowed, say), numpy's SVD can iterate forever
    # (20x6 with one inf, 2-core x86) instead of returning NaN
    if not np.isfinite(a).all():
        raise ConvergenceError(
            f"SVD of a {a.shape[-2]}x{a.shape[-1]} matrix with non-finite entries"
        )
    try:
        w, psi, zt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"SVD iteration did not converge for {a.shape[-2]}x{a.shape[-1]} matrix"
        ) from exc
    # a finite A whose largest singular value is beyond float64's range
    if not np.isfinite(psi).all():
        raise ConvergenceError(
            f"SVD of a {a.shape[-2]}x{a.shape[-1]} matrix: singular values overflow"
        )
    return SvdFactors(w, psi, zt.swapaxes(-1, -2))


def thin_qr(a):
    """Thin QR factorization A = Q @ T (rows >= cols) with nonnegative diag(T).

    The sign convention makes factor comparisons deterministic across runs.
    A non-finite A raises ContractViolationError (``as_matrix``); a finite A
    whose triangle overflows (column norms beyond float64's range), which
    numpy's QR returns without raising, raises ConvergenceError.
    """
    a = as_matrix(a, "A")
    m, n = a.shape
    if m < n:
        raise DimensionError(f"thin QR needs rows >= cols, got {m}x{n}")
    out = _thin_qr(a)
    if not np.isfinite(out.T).all():
        raise ConvergenceError(f"thin QR of a {m}x{n} matrix: the triangle overflows")
    return out


def _thin_qr(a):
    q, t = np.linalg.qr(a)
    d = _diag_signs(t)
    q *= d[..., None, :]
    t *= d[..., :, None]
    return QrFactors(q, t)


def _diag_signs(t):
    """Signs that make diag(T) nonnegative; a zero diagonal entry keeps +1."""
    d = np.sign(np.diagonal(t, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return d


def _triangle_and_lift(a):
    """The triangle T of A = Q T and a map X -> Q @ X that never forms Q.

    For a float64 A (m x n) with p = min(m, n), returns (T, lift): T is
    p x n and upper trapezoidal with a nonnegative diagonal, and Q (m x p)
    has orthonormal columns. On a tall or square A, T has the bits of
    ``thin_qr(a).T``: both come from the same Householder QR (LAPACK
    xGEQRF) and the same sign fix T = D T0, so Q = Q0 D. A wide A gives the
    p x p orthogonal Q of ``np.linalg.qr(a, mode="complete")`` and its
    R, up to the same signs. ``lift(x)`` maps a p x k X to Q @ X (m x k,
    Fortran order), equal to ``thin_qr(a).Q @ x`` to rounding. It applies
    the p reflectors H_i = I - tau_i v_i v_i^T in compact WY form
    (Schreiber & Van Loan 1989), H_1 ... H_p = I - V S V^T with the factor
    S that ``_wy_factor`` builds from V^T V and tau, so

        Q @ X = [D X; 0] - V S (V_1^T D X),   V_1 = V[:p, :].

    S is built at the first call and kept, and each call is then three
    thin products, against forming all of Q (xORGQR, about 4mp^2 flops)
    and multiplying by it. V's unit diagonal and the zeros above it are
    set at the first call too, so a caller that reads only T pays for the
    QR and for V's copy in Fortran order (none for a Fortran-order A). A
    reflector with tau = 0 (the last one of a square or wide A, say) is
    the identity, and S has a zero row and column for it. A Fortran-order
    A is factored without a copy of its own beyond the one numpy's QR
    makes, and V overwrites that copy. ``thin_qr`` stays the routine for
    callers that need all of Q.

    ``lift(x, gather=True)`` is the row-gather form: it returns a function
    that maps row indices s to (Q @ X)[s, :], from rows s of V, without
    forming Q @ X. Its two products with V_1^T and S run at this call,
    not once per s.
    """
    p = min(a.shape)
    h, tau = np.linalg.qr(a, mode="raw")
    # m x n: T0 on and above the diagonal, the reflectors below it. h comes
    # back in A's storage order, and the lift's BLAS products would differ
    # in the last bits between orders; one order makes them independent of A's.
    v = np.asfortranarray(h.T)
    t = np.triu(v[:p])
    d = _diag_signs(t[:, :p])
    t *= d[:, None]
    v = v[:, :p]
    s = None

    def lift(x, gather=False):
        nonlocal s
        if s is None:
            v[np.triu_indices(p, 1)] = 0.0
            np.fill_diagonal(v, 1.0)
            s = _wy_factor(v.T @ v, tau)
        dx = d[:, None] * x
        w = s @ (v[:p].T @ dx)
        if gather:

            def rows(idx):
                out = v[idx] @ w
                np.negative(out, out=out)
                top = idx < p
                out[top] += dx[idx[top]]
                return out

            return rows
        out = np.matmul(v, w, order="F")
        np.negative(out, out=out)
        out[:p] += dx
        return out

    return t, lift


# Columns per leaf of the recursions in _wy_factor and _triangle_on_top_qr.
_LEAF = 40
# Up to this many columns _wy_factor's recursion runs down to single
# columns: on a stack of tiny matrices (intro-angles' 3 x 3 pairs) its few
# products cost less than a LAPACK solve per matrix.
_SMALL = 4


def _wy_factor(gram, tau, out=None):
    """The compact-WY factor S of n Householder reflectors, for a stack too.

    Reflectors H_i = I - tau_i w_i w_i^T with Gram matrix G = W^T W
    multiply to H_1 ... H_n = I - W S W^T, where S is upper triangular
    and S^-1 = striu(G) + diag(1/tau) (the UT transform, Joffrain et al.
    2006); only the strict upper triangle of G is read. S is found by the
    2x2 block recursion S = [S_1, -S_1 G_12 S_2; 0, S_2] on column
    halves (Elmroth & Gustavson 2000), written into ``out`` (a new zero
    array by default). It ends at single columns, S = tau, for at most
    ``_SMALL`` columns, and a leaf of ``_SMALL`` + 1 to ``_LEAF`` columns
    solves (I + D N) S = D with D = diag(tau) and N = striu(G), since
    S^-1 = D^-1 (I + D N). That system is unit upper triangular, so a
    reflector with tau = 0, the identity, needs no division and gets a
    zero row and column of S. A non-finite leaf (from a QR that
    overflowed) gives NaN, for the caller's check on its triangle, not a
    solve on NaN.
    """
    n = tau.shape[-1]
    out = np.zeros(gram.shape) if out is None else out
    if n == 1:
        out[..., 0, 0] = tau[..., 0]
        return out
    if n > _LEAF or n <= _SMALL:
        h = n // 2
        _wy_factor(gram[..., :h, :h], tau[..., :h], out[..., :h, :h])
        _wy_factor(gram[..., h:, h:], tau[..., h:], out[..., h:, h:])
        _wy_join(out, h, gram[..., :h, h:])
        return out
    lhs = np.triu(gram, 1) * tau[..., :, None] + np.eye(n)
    if np.isfinite(lhs).all():
        out[...] = np.linalg.solve(lhs, tau[..., None, :] * np.eye(n))
    else:
        out[...] = np.nan
    return out


def _wy_join(s, k, g12):
    """Set S's upper right block to -S_1 G_12 S_2 from its diagonal blocks
    S_1 (k x k) and S_2: the S of two sets of reflectors, one after the
    other, with Gram block G_12 between them."""
    s1, s2 = s[..., :k, :k], s[..., k:, k:]
    np.negative((s1 @ g12) @ s2, out=s[..., :k, k:])


def _triangle_on_top_qr(t, x):
    """Thin QR [T; X] = Q R of an upper-triangular T (n x n) on top of any
    X (m x n), without xORGQR; T and X may carry leading stack axes.

    Returns ``QrFactors`` with Q of shape (..., n + m, n), column-major per
    matrix, and R with a nonnegative diagonal. T and X are work arrays,
    overwritten. The rows of T below column j's diagonal are zero and stay
    so, hence the reflectors have the form [e_j; x_j] (LAPACK's xTPQRT);
    X is overwritten by their m x n part V, and their product is
    I - [I; V] S [I; V]^T with S = ``_wy_factor`` of V^T V. The QR
    recurses on column halves: factor the left half, apply its reflectors
    to the right half, factor that, and join the two S factors; a leaf of
    at most ``_LEAF`` columns is numpy's raw QR (xGEQRF) of its own stack.
    With the sign fix D of R's diagonal, Q = [(I - S) D; -V S D], one
    product into one array. A stack is factored in one call per step, each
    matrix with the bits it gets alone. A non-finite T or X, or a QR that
    overflows, gives a non-finite R, for the caller to reject.
    """
    n, m = t.shape[-1], x.shape[-2]
    s = np.zeros(t.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        _stack_reflectors(t, x, s)
        d = _diag_signs(t)
        q = np.empty((*x.shape[:-2], n, n + m)).swapaxes(-1, -2)
        np.matmul(x, s, out=q[..., n:, :])
        np.subtract(s, np.eye(n), out=q[..., :n, :])
        q *= -d[..., None, :]
        t *= d[..., :, None]
    return QrFactors(q, t)


def _stack_reflectors(t, v, s):
    """The recursion of ``_triangle_on_top_qr``, in place: T becomes R,
    X becomes V, and the reflectors' S factor is written into s."""
    n = t.shape[-1]
    if n <= _LEAF:
        h, tau = np.linalg.qr(np.concatenate((t, v), axis=-2), mode="raw")
        h = h.swapaxes(-1, -2)
        # below the diagonal, T's rows of the reflectors are exact zeros
        t[...] = h[..., :n, :]
        v[...] = h[..., n:, :]
        _wy_factor(v.swapaxes(-1, -2) @ v, tau, s)
        return
    k = n // 2
    _stack_reflectors(t[..., :k, :k], v[..., :, :k], s[..., :k, :k])
    v1t = v[..., :, :k].swapaxes(-1, -2)
    # the left reflectors' Q^T on the right half: rows k: of T are untouched
    w = s[..., :k, :k].swapaxes(-1, -2) @ (t[..., :k, k:] + v1t @ v[..., :, k:])
    t[..., :k, k:] -= w
    v[..., :, k:] -= v[..., :, :k] @ w
    _stack_reflectors(t[..., k:, k:], v[..., :, k:], s[..., k:, k:])
    _wy_join(s, k, v1t @ v[..., :, k:])


def _check_orthonormal(u, name):
    # an overflow makes the deviation inf or NaN, which fails the test below
    with np.errstate(over="ignore", invalid="ignore"):
        g = u.swapaxes(-1, -2) @ u - np.eye(u.shape[-1])
    deviation = np.max(np.abs(g), axis=(-2, -1))
    # written so that a NaN deviation fails the test too
    if not np.all(deviation <= ORTHO_TOL):
        raise ContractViolationError(
            f"{name} does not have orthonormal columns (deviation {np.max(deviation):.2e})"
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
    return float(_max_principal_angle(u1, u2))


def _max_principal_angle(u1, u2):
    r = u2 - u1 @ (u1.swapaxes(-1, -2) @ u2)
    s = np.linalg.svd(r, compute_uv=False)[..., 0]
    return np.arcsin(np.minimum(1.0, s))


def _lambda_max(gram):
    """Largest eigenvalue of a symmetric positive semidefinite Gram matrix.

    Raises ConvergenceError on a non-finite Gram (the symmetric eigensolver
    returns finite garbage on NaN input instead of failing) or when the
    eigensolver does not converge.
    """
    n = gram.shape[-1]
    if not np.isfinite(gram).all():
        raise ConvergenceError(f"{n}x{n} Gram matrix has non-finite entries")
    try:
        return np.linalg.eigvalsh(gram)[..., -1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigenvalue iteration did not converge for {n}x{n} Gram"
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
    loses the small singular values, which the rank rule needs, so it keeps
    the SVD. A finite A whose norm is beyond float64's range (a 20x6
    standard-normal A times 5e307, say) raises ConvergenceError, as its SVD
    does, for a stack as for one matrix.
    """
    return float(_spectral_norm(as_matrix(a, "A")))


def _spectral_norm(a):
    m, n = a.shape[-2:]
    # max|a_ij| without an |A| temporary; NaN anywhere makes both ends NaN
    scale = np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1)))
    if not np.isfinite(scale).all():
        raise ConvergenceError(
            f"spectral norm of a {m}x{n} matrix with non-finite entries"
        )
    zero = scale == 0.0
    x = a / np.where(zero, 1.0, scale)[..., None, None]
    xt = x.swapaxes(-1, -2)
    gram = xt @ x if m >= n else x @ xt
    # a finite A whose largest singular value is beyond float64's range
    with np.errstate(over="ignore"):
        norm = np.where(zero, 0.0, scale * np.sqrt(_lambda_max(gram)))
    if not np.isfinite(norm).all():
        raise ConvergenceError(f"spectral norm of a {m}x{n} matrix overflows")
    return norm
