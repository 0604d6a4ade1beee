"""Dense-matrix conventions and the factorization primitives everything else uses.

A matrix is a plain 2-D float64 numpy array, and its storage order is the
caller's: ``as_matrix`` validates without copying a float64 array of either
order, and every LAPACK routine numpy calls copies its input into its own
column-major buffer anyway. BLAS products read the layout they are given,
which can move the last bits of a result. Only Matrix Market files are
column-major, and ``gcurkit.io`` reads and writes that layout. All
operations here are pure functions of their inputs.

``thin_qr`` forms the whole Q of a thin QR, and runs only where that Q is
read: the QR of the stacked pair in ``gsvd``, the column and row factors in
``curfac._nested_middle_matrices`` (whose Q's ``gcur`` keeps for the
projections of both sides) and ``curfac._projection``, Y's QR in
``gcur.evaluate_bounds``, and in ``experiments`` the QR of the low-rank
generators' n x 50 factor Y, whose Q is the noise-recovery scorer's basis
of A's rows, and (``_factor_in_basis``) the QR of each noise-recovery
K_eps, which has min(m, n + 50) rows, not m. A caller that needs only the
triangle, or Q applied to a few columns, uses ``_triangle_and_lift``,
which keeps the Householder reflectors in compact WY form instead of
forming Q, for a matrix of any shape: the reduction of a tall A in
``gsvd`` and ``gcur``, ``synth._core_svd`` (the 50 x 50 core of the
low-rank generators' factors, which ``lowrank_gapped``'s gap check
reads), the noise-recovery scorer's per-reconstruction triangle, and the
noise-recovery trial's one QR of [G, F], which lifts the left vectors of
every eps to m rows and reads the noise's selected rows through the
lift's row-gather form.

Input is validated once, at the public boundary: every public function of
the package passes each matrix argument through ``as_matrix``, which rejects
any ndim but 2, an empty matrix (DimensionError) and a NaN or +-inf entry
(ContractViolationError "<name> contains non-finite entries"). Past that
point a non-finite value is an intermediate that overflowed, and the checks
on results (a spectrum, a solve, a product) raise for it. A public function
here validates and then calls a private core.
The cores ``_svd``, ``_thin_qr`` (with the sign fix ``_diag_signs``),
``_spectral_norm`` and ``_lambda_max``, ``_max_principal_angle`` and
``_check_orthonormal``, and ``_require_full_rank`` also take a stack of
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
    (Schreiber & Van Loan 1989), H_1 ... H_p = I - V S V^T with
    S^-1 = striu(V^T V) + diag(1/tau) (the UT transform, Joffrain et al.
    2006), so

        Q @ X = [D X; 0] - V S (V_1^T D X),   V_1 = V[:p, :].

    That is one m x p Gram, taken at the first call and kept, and two thin
    products per call, against forming all of Q (xORGQR, about 4mp^2
    flops) and multiplying by it. V's unit diagonal and the zeros above it
    are set at the first call too, so a caller that reads only T pays for
    the QR and for V's copy in Fortran order (none for a Fortran-order A).
    A reflector with tau = 0 (the last one of a square or wide A, say) is
    the identity and is left out. A Fortran-order A is factored without a
    copy of its own beyond the one numpy's QR makes, and V overwrites that
    copy. ``thin_qr`` stays the routine for callers that need all of Q.

    ``lift(x, gather=True)`` is the row-gather form: it returns a function
    that maps row indices s to (Q @ X)[s, :], from rows s of V, without
    forming Q @ X. Its one solve runs at this call, not once per s.
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
    s_inv = None

    def lift(x, gather=False):
        nonlocal v, tau, s_inv
        if s_inv is None:
            v[np.triu_indices(p, 1)] = 0.0
            np.fill_diagonal(v, 1.0)
            keep = tau != 0.0
            if not keep.all():
                v, tau = v[:, keep], tau[keep]
            s_inv = np.triu(v.T @ v, 1)
            s_inv[np.diag_indices_from(s_inv)] = 1.0 / tau
        dx = d[:, None] * x
        w = np.linalg.solve(s_inv, v[:p].T @ dx)
        if gather:

            def rows(s):
                out = v[s] @ w
                np.negative(out, out=out)
                top = s < p
                out[top] += dx[s[top]]
                return out

            return rows
        out = np.matmul(v, w, order="F")
        np.negative(out, out=out)
        out[:p] += dx
        return out

    return t, lift


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
