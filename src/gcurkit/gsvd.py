"""Generalized singular value decomposition of a matrix pair.

For A (m x n, m >= n) and B (d x n, d >= n) the reduced factorization is

    A = U @ diag(gamma) @ Y.T,    B = V @ diag(sigma) @ Y.T,

with orthonormal-column U (m x n) and V (d x n), nonsingular Y (n x n), and
gamma_i^2 + sigma_i^2 = 1. Pairs are ordered so the ratios gamma_i/sigma_i
are nonincreasing; directions with sigma_i = 0 (ratio +inf) come first.

The computation stacks the pair, takes a thin QR, and reads both factor
sets off an SVD of A's block of Q, so the cross products A.T @ A and B.T @ B
are never formed. Each matrix of the pair is first reduced the same way
(``_reduce``): a taller than wide X (A with m > n, B with d > n) to its
n x n triangle, X = Q_X R_X, and so is a square B with an entry below its
diagonal; a square A, and a B that is already an upper triangle, are
their own R_X. The steps above run on the 2n x n stack [R_B; R_A], whose
top block is a triangle, so its QR is ``matkit._triangle_on_top_qr``:
reflectors [e_j; x_j] and Q from two products, with no xORGQR. U and V
are lifted as Q_A U' and Q_B V' at the end (the QR preprocessing of
LAPACK's xGGSVP3). Q_A and Q_B are never formed: U' and V' are lifted by
applying each matrix's Householder reflectors
(``matkit._triangle_and_lift``), the same reduction ``gcur`` makes.

Before the stacked QR the smaller of R_A and R_B is scaled up by an exact
power of two to the binary exponent of the other's largest entry, and the
factors are mapped back in O(n) (``_balance``, ``_stacked_gsvd``); LAPACK's
xGGSVD3 scales its tolerances by ||A|| and ||B|| for the same reason.
Unbalanced, a pair with ||A|| far from ||B|| gets gamma and sigma with an
absolute floor near eps * ||[A; B]|| and a V that is not orthonormal.

``gsvd_diagnostics`` runs that same reduction and returns the factors with
the numbers the ``gcurkit gsvd`` command reports: both reconstruction
residuals and, for a truncation rank k, the sandwich
gamma_{k+1} psi_min(Y_tail) <= ||A - A_k|| <= gamma_{k+1} ||Y_tail||.
A's residuals lie in range(Q_A) and B's in range(Q_B), so they are scored
on R_A and U', and on R_B and V', factors the GSVD already holds, with
||A|| = ||R_A|| and ||B|| = ||R_B||; no m x n or d x n residual is formed.
For a tall matrix they differ from an explicit computation at rounding
level.

``gsvd`` takes one 2-D pair. Its core, ``_stacked_gsvd``, which runs the
steps above on a square A and an upper-triangular B, or on reduced
matrices, also takes stacks of pairs with leading axes (A of shape
``(..., m, n)``, B of shape ``(..., n, n)`` or one 2-D B shared by every
pair) and factors all of them with one stacked QR and one stacked SVD, each
pair with its own balance and the bits it gets alone; the intro-angles
experiment runs its trials that way, with the noise's Cholesky factor as B.
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
        """gamma_i / sigma_i, +inf where sigma_i = 0 (B lacks rank there) or
        where the ratio is beyond float64's range."""
        out = np.full_like(self.gamma, np.inf)
        ok = self.sigma != 0.0
        with np.errstate(over="ignore"):
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


def _reduce(x, triangle=False):
    """(R, lift) for a validated matrix x = Q R of a pair: the n x n triangle
    of a tall x and the map X -> Q X from its Householder reflectors
    (``matkit._triangle_and_lift``), or a square x itself with a lift that
    copies. With ``triangle`` (B's side, the top block of the stacked QR), a
    square x with an entry below its diagonal is reduced too."""
    if x.shape[0] > x.shape[1] or (triangle and np.tril(x, -1).any()):
        return matkit._triangle_and_lift(x)
    return x, np.copy


def _reduced_gsvd(a, b):
    """GSVD of (R_A, R_B) for a validated pair, with [(R_A, lift), (R_B, lift)].

    [A; B] = diag(Q_A, Q_B) [R_A; R_B], so both stacks share the triangle
    T0, and U = Q_A U', V = Q_B V' for the factors U', V' (n x n each)
    returned here. R_B is upper triangular. The (R, lift) pairs come in a
    list, from which ``gcur`` pops each, so that A's m x n reflectors go
    once U_k is lifted.
    """
    sides = [_reduce(a), _reduce(b, triangle=True)]
    return _stacked_gsvd(sides[0][0], sides[1][0]), sides


def gsvd(a, b):
    """Reduced GSVD of the pair (A, B); see the module docstring for the form.

    Raises DimensionError unless A and B share a column count n with at least
    n rows each, ContractViolationError for a NaN or +-inf entry in either
    (``matkit.as_matrix``), and FullRankError when the stacked pair [A; B] is
    column-rank deficient (then no nonsingular Y exists). A rank-deficient B
    with a full-rank stack is handled: those directions get sigma = 0, sort
    first, and their V columns are completed by orthogonalization.
    """
    f, ((_, lift_a), (_, lift_b)) = _reduced_gsvd(*_require_pair(a, b))
    return f._replace(U=lift_a(f.U), V=lift_b(f.V))


def gsvd_diagnostics(a, b, k):
    """The GSVD of (A, B) with its reconstruction residuals and, for a
    truncation rank k (None for none), the truncation sandwich.

    Returns the factors of :func:`gsvd`, bit for bit, with

    - ``residual_a`` = ||A - U diag(gamma) Y^T|| and ``residual_b`` =
      ||B - V diag(sigma) Y^T||, and each divided by max(1, ||A||) or
      max(1, ||B||);
    - ``sandwich``: gamma_{k+1} psi_min(Y_tail) <= ||A - A_k|| <=
      gamma_{k+1} ||Y_tail||, checked to within 1e-9 * max(1, ||A||).

    Each matrix's numbers are scored on the triangle the GSVD already
    reduced it to: A = Q_A R_A and U = Q_A U', so A - U diag(gamma) Y^T and
    A - A_k are Q_A times n x n matrices built from R_A and U', and
    ||A|| = ||R_A||; likewise B - V diag(sigma) Y^T is Q_B times one built
    from R_B and V'. For a tall matrix they differ from the explicit
    residuals at rounding level (U' and V' are not lifted first). k is
    checked (1 <= k < n) before the factorization.
    """
    a, b = _require_pair(a, b)
    if k is not None:
        _require_truncation_rank(k, a.shape[1])
    f, ((r_a, lift_a), (r_b, lift_b)) = _reduced_gsvd(a, b)
    norm_a = matkit.spectral_norm(r_a)
    res_a = matkit.spectral_norm(r_a - f.U @ (f.gamma[:, None] * f.Y.T))
    res_b = matkit.spectral_norm(r_b - f.V @ (f.sigma[:, None] * f.Y.T))
    rel_a = res_a / max(1.0, norm_a)
    rel_b = res_b / max(1.0, matkit.spectral_norm(r_b))
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
    f = f._replace(U=lift_a(f.U), V=lift_b(f.V))
    return GsvdDiagnostics(f, res_a, res_b, rel_a, rel_b, sandwich)


def _balance(a, b):
    """Exponents (e_a, e_b), one per pair, that scale A by 2^e_a and B by
    2^e_b to the same binary exponent of max|x_ij|: the smaller matrix is
    scaled up, never the larger down into subnormals, and the other
    exponent is 0. A zero (or non-finite) matrix leaves its pair as it is."""

    def exponent(x):
        top = np.abs(x).max(axis=(-2, -1))
        return np.frexp(top)[1], np.isfinite(top) & (top > 0.0)

    (e_a, ok_a), (e_b, ok_b) = exponent(a), exponent(b)
    e = np.where(ok_a & ok_b, e_b - e_a, 0)
    return np.maximum(e, 0), np.maximum(-e, 0)


def _stacked_gsvd(a, b):
    """GSVD of a validated pair whose B is an n x n upper triangle (A is
    m x n, any), from one thin QR of the balanced stack [2^e_b B; 2^e_a A]
    (``_balance``, ``matkit._triangle_on_top_qr``), with U read off the SVD
    of A's block, so U has A's m rows and V n rows. It reduces neither
    matrix. A and B may carry leading stack axes (see the module
    docstring).

    With gamma', sigma' and Y' of the balanced pair, g = 2^-e_a gamma'
    and h = 2^-e_b sigma' are A's and B's values up to the common factor
    d = hypot(g, h), so gamma = g/d, sigma = h/d and Y = Y' diag(d); U and
    V are those of the balanced pair. Each of g and h is a value of at most
    1 scaled down, or left alone, so neither overflows. The rank rule of
    sigma reads sigma' against 1, the scale gamma'^2 + sigma'^2 = 1 gives
    it, and sets sigma to exactly 0 where it holds, so ``ratios`` reads
    +inf only where B lacks rank.
    """
    m, n = a.shape[-2:]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    e_a, e_b = _balance(a, b)
    # work arrays the QR overwrites, column-major per pair
    t = np.ldexp(b, e_b[..., None, None], out=np.empty((*batch, n, n)).swapaxes(-1, -2))
    x = np.ldexp(a, e_a[..., None, None], out=np.empty((*batch, n, m)).swapaxes(-1, -2))
    q0, t0 = matkit._triangle_on_top_qr(t, x)
    del x  # the reflectors Q0 was built from
    _require_full_rank(t0, FullRankError, "stacked pair [A; B]")

    u, gamma, wt = np.linalg.svd(q0[..., n:, :], full_matrices=False)
    w = wt.swapaxes(-1, -2)
    gamma = np.clip(gamma, 0.0, 1.0)

    # Columns of B's block of q0 times w are sigma_i * v_i; for sigma_i ~ 0
    # the direction is meaningless and V is completed orthonormally instead.
    v = q0[..., :n, :] @ w
    del q0
    sigma = np.linalg.norm(v, axis=-2)
    good = ~_negligible(sigma, 1.0)
    v /= np.where(good, sigma, 1.0)[..., None, :]
    if not good.all():
        for v_i, good_i in zip(v.reshape(-1, n, n), good.reshape(-1, n)):
            if not good_i.all():
                fill = _orthonormal_completion(v_i[:, good_i], n, int((~good_i).sum()))
                v_i[:, ~good_i] = fill

    y = t0.swapaxes(-1, -2) @ w
    g = np.ldexp(gamma, -e_a[..., None])
    h = np.ldexp(np.where(good, sigma, 0.0), -e_b[..., None])
    d = np.hypot(g, h)
    y *= d[..., None, :]
    return GsvdFactors(u, v, y, g / d, h / d)
