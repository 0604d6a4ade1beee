"""Generalized singular value decomposition of a matrix pair.

For A (m x n, m >= n) and B (d x n, d >= n) the reduced factorization is

    A = U @ diag(gamma) @ Y.T,    B = V @ diag(sigma) @ Y.T,

with orthonormal-column U (m x n) and V (d x n), nonsingular Y (n x n), and
gamma_i^2 + sigma_i^2 = 1. Pairs are ordered so the ratios gamma_i/sigma_i
are nonincreasing; directions with sigma_i = 0 (ratio +inf) come first.

The computation stacks [A; B], takes a thin QR, and reads both factor sets
off an SVD of the top block, so the cross products A.T @ A and B.T @ B are
never formed. A taller than wide (m > n) is first reduced to its n x n
triangle, A = Q_A R_A: the steps above run on [R_A; B], whose top block is
n x n instead of m x n, and U is lifted as Q_A U' at the end (the QR
preprocessing of LAPACK's xGGSVP3). A square A skips the reduction.
"""

from typing import NamedTuple

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
        """gamma_i / sigma_i with +inf where sigma_i is numerically zero."""
        out = np.full_like(self.gamma, np.inf)
        ok = ~_negligible(self.sigma, 1.0)
        out[ok] = self.gamma[ok] / self.sigma[ok]
        return out


class TruncatedGsvd(NamedTuple):
    """Leading-k slices of a GsvdFactors plus the trailing complements."""

    U_k: np.ndarray
    V_k: np.ndarray
    Y_k: np.ndarray
    gamma_k: np.ndarray
    sigma_k: np.ndarray
    U_tail: np.ndarray
    V_tail: np.ndarray
    Y_tail: np.ndarray
    gamma_tail: np.ndarray
    sigma_tail: np.ndarray


def _orthonormal_completion(v_good, d, count):
    """Deterministic orthonormal columns spanning part of range(v_good)'s complement."""
    if v_good.shape[1] == 0:
        return np.eye(d, count)
    u_full, _, _ = np.linalg.svd(v_good, full_matrices=True)
    return u_full[:, v_good.shape[1] : v_good.shape[1] + count]


def gsvd(a, b):
    """Reduced GSVD of the pair (A, B); see the module docstring for the form.

    Raises DimensionError unless A and B share a column count n with at least
    n rows each, and FullRankError when the stacked pair [A; B] is column-rank
    deficient (then no nonsingular Y exists). A rank-deficient B with a
    full-rank stack is handled: those directions get sigma = 0, sort first,
    and their V columns are completed by orthogonalization.
    """
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

    q_a = None
    if m > n:
        # [A; B] = diag(Q_A, I) [R_A; B], so both share the triangle T0
        q_a, a = matkit.thin_qr(a)
    top = a.shape[0]
    stack = np.empty((top + d, n), order="F")
    stack[:top] = a
    stack[top:] = b
    q0, t0 = matkit.thin_qr(stack)
    del stack  # (top + d) x n floats the SVD below does not need
    _require_full_rank(t0, FullRankError, "stacked pair [A; B]")

    q1 = q0[:top]
    q2 = q0[top:]
    u, gamma, wt = np.linalg.svd(q1, full_matrices=False)
    if q_a is not None:
        u = q_a @ u
    w = wt.T
    gamma = np.clip(gamma, 0.0, 1.0)

    # Columns of q2 @ w are sigma_i * v_i; for sigma_i ~ 0 the direction is
    # meaningless and V is completed orthonormally instead. The rank rule
    # reads sigma against 1, the scale that gamma^2 + sigma^2 = 1 gives it.
    vs = q2 @ w
    sigma = np.linalg.norm(vs, axis=0)
    v = np.empty((d, n))
    good = ~_negligible(sigma, 1.0)
    v[:, good] = vs[:, good] / sigma[good]
    if not good.all():
        fill = _orthonormal_completion(v[:, good], d, int((~good).sum()))
        v[:, ~good] = fill

    y = t0.T @ w
    return GsvdFactors(u, v, y, gamma, sigma)


def residuals(a, b, factors):
    """Absolute 2-norm residuals ||A - U diag(gamma) Y^T|| and ||B - V diag(sigma) Y^T||."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    res_a = matkit.spectral_norm(a - factors.U @ (factors.gamma[:, None] * factors.Y.T))
    res_b = matkit.spectral_norm(b - factors.V @ (factors.sigma[:, None] * factors.Y.T))
    return res_a, res_b


def truncate(factors, k):
    """Split GSVD factors into the leading-k part and the trailing complement.

    The leading part reconstructs the rank-k approximation
    A_k = U_k @ diag(gamma_k) @ Y_k.T, and A - A_k equals the product of the
    trailing factors exactly.
    """
    _require_truncation_rank(k, factors.Y.shape[0])
    return TruncatedGsvd(
        U_k=factors.U[:, :k],
        V_k=factors.V[:, :k],
        Y_k=factors.Y[:, :k],
        gamma_k=factors.gamma[:k],
        sigma_k=factors.sigma[:k],
        U_tail=factors.U[:, k:],
        V_tail=factors.V[:, k:],
        Y_tail=factors.Y[:, k:],
        gamma_tail=factors.gamma[k:],
        sigma_tail=factors.sigma[k:],
    )


def truncated_pair(factors, k):
    """Rank-k reconstructions (A_k, B_k) from GSVD factors."""
    t = truncate(factors, k)
    a_k = t.U_k @ (t.gamma_k[:, None] * t.Y_k.T)
    b_k = t.V_k @ (t.sigma_k[:, None] * t.Y_k.T)
    return a_k, b_k
