"""Seeded generators for the synthetic test objects used by the experiments.

Every generator is a pure function of its parameters and seed: the same seed
gives a bit-identical result. Seeds are anything ``numpy.random.default_rng``
accepts, including ``SeedSequence`` children, which is how the experiment
harness splits streams across trials.

The low-rank test matrices are also independent of the BLAS thread count:
A = F Y^T is formed by ``np.einsum`` without ``optimize``, which runs
numpy's own summation loop. ``F @ Y.T`` is about ten times faster, but the
BLAS splits that product differently on one thread and on two, and A's last
bits, and with them the GSVD-derived indices of the experiments, would
change with the thread count. The same contraction of a subset of F's rows
gives those rows of A bit for bit. The noise-recovery trial relies on that:
it holds the factors and the raw draw G of :func:`colored_noise`, takes one
QR of [G, F], and reads A's rows from F's without forming A or E (see
``gcurkit.experiments``).
"""

from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import ContractViolationError, DimensionError, SingularMatrixError
from .matkit import as_matrix, require_finite

#: Group names of the four-subgroup target data set, in row-block order.
SUBGROUP_NAMES = ("blue", "yellow", "orange", "purple")


@dataclass(frozen=True)
class NoiseModel:
    """Additive colored-noise description: covariance plus relative level.

    The covariance of the noise rows is Toeplitz with entries rho^|i-j|.
    ``epsilon`` is the relative noise level: the generated perturbation
    satisfies ||E|| = epsilon * ||A|| in the 2-norm.
    """

    epsilon: float
    seed: object = 0
    rho: float = 0.99

    def __post_init__(self):
        if self.epsilon < 0:
            raise ContractViolationError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 < self.rho < 1.0:
            raise ContractViolationError(f"rho must be in (0, 1), got {self.rho}")


@dataclass(frozen=True)
class SubgroupSpec:
    """Size and seed of the four-subgroup target/background data sets.

    The default gives 400 target points in 30 features; see
    :func:`subgroup_data` for the feature blocks.
    """

    points_per_group: int = 100
    seed: object = 0

    def __post_init__(self):
        if self.points_per_group < 1:
            raise ContractViolationError("points_per_group must be positive")


def _sparse_uniform(rng, n):
    # sprand-style vector: uniform(0, 1) values at independently chosen
    # positions of density 0.025, at least one nonzero enforced so no factor
    # collapses.
    mask = rng.random(n) < 0.025
    if not mask.any():
        mask[rng.integers(n)] = True
    out = np.zeros(n)
    out[mask] = rng.random(int(mask.sum()))
    return out


def lowrank_sparse(m, n, seed):
    """Sparse nonnegative rank-<=50 matrix X diag(coeff) Y^T.

    Leading ten components carry weights 2/j, the remaining forty 1/j; the
    factor vectors have expected density 0.025 with uniform nonnegative
    nonzeros. Built by one contraction of the factors (:func:`_lowrank`).
    """
    return _contract(*_lowrank("sparse", m, n, seed))


def lowrank_gapped(m, n, seed):
    """Dense rank-<=50 matrix X diag(coeff) Y^T with a deliberate spectral gap.

    X and Y have standard normal columns; the leading ten components carry
    weights 1000/j against 1/j for the rest, producing a drop of at least
    10x between the 10th and 11th singular values. The gap is checked on
    the 50 x 50 core of the factors (:func:`_core_svd`), not on an m x n
    SVD. Built by one contraction of the factors (:func:`_lowrank`).
    """
    return _contract(*_lowrank("gapped", m, n, seed))


def _lowrank(kind, m, n, seed):
    """The factors (F, Y) of a rank-<=50 test matrix A = F Y^T.

    The one builder behind :func:`lowrank_sparse` (``kind="sparse"``) and
    :func:`lowrank_gapped` (``kind="gapped"``), which contract the factors
    (:func:`_contract`); the noise-recovery trial reads the factors alone.
    The generator draws x_j, then y_j, for j = 1..50, into the columns of
    X (m x 50) and Y (n x 50), and F = X diag(coeff). A ``kind="gapped"``
    build raises ContractViolationError when psi_10 < 10 psi_11, read from
    the core SVD of its factors (:func:`_core_svd`).
    """
    if min(m, n) < 50:
        raise DimensionError(f"need min(m, n) >= 50 for a rank-50 build, got {m}x{n}")
    j = np.arange(1, 51)
    if kind == "sparse":
        coeff = np.where(j <= 10, 2.0, 1.0) / j
        draw = _sparse_uniform
    else:
        coeff = np.where(j <= 10, 1000.0, 1.0) / j
        draw = lambda rng, size: rng.standard_normal(size)
    rng = np.random.default_rng(seed)
    f, y = np.empty((m, 50)), np.empty((n, 50))
    for col in range(50):
        f[:, col] = draw(rng, m)
        y[:, col] = draw(rng, n)
    f *= coeff
    if kind == "gapped":
        psi = _core_svd(f, y).psi
        if psi[9] < 10.0 * psi[10]:
            raise ContractViolationError(
                f"spectral gap psi_10/psi_11 = {psi[9] / psi[10]:.2f} < 10"
            )
    return f, y


def _contract(f, y):
    """A = F Y^T as ``np.einsum("ij,kj->ik", F, Y)``: the 50 terms are summed
    in numpy's own loop, with no BLAS call, so A's bits do not depend on the
    BLAS thread count. Rows F[s] give A[s] bit for bit."""
    return require_finite(np.einsum("ij,kj->ik", f, y), "generated matrix")


def _core_svd(f, y):
    """SVD of the core of A = F Y^T, for the gapped build's gap check.

    With F = Q_F T_F and Y = Q_Y T_Y (``matkit._triangle_and_lift``),
    A = Q_F (T_F T_Y^T) Q_Y^T, so the j x j core T_F T_Y^T of j-column
    factors has A's nonzero singular values. Neither Q is formed, and no
    m x n work is done. Returns ``matkit.svd`` of the core.
    """
    t_f = matkit._triangle_and_lift(f)[0]
    t_y = matkit._triangle_and_lift(y)[0]
    return matkit.svd(t_f @ t_y.T)


def toeplitz_chol(n, rho):
    """Upper-triangular Cholesky factor of the Toeplitz covariance rho^|i-j|."""
    if n < 1:
        raise DimensionError(f"n must be positive, got {n}")
    if not 0.0 < rho < 1.0:
        raise ContractViolationError(f"rho must be in (0, 1), got {rho}")
    idx = np.arange(n)
    cov = rho ** np.abs(idx[:, None] - idx[None, :])
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:  # cannot occur for rho in (0, 1)
        raise SingularMatrixError("Toeplitz covariance is not positive definite") from exc
    return lower.T.copy()


def colored_noise(a, model):
    """Perturb A with correlated Gaussian noise of relative 2-norm ``epsilon``.

    Draws G (m x n) with standard normal entries from
    ``default_rng(model.seed)``, correlates the rows as G @ R with R the
    covariance's Cholesky factor, and scales so that
    ||E|| = epsilon * ||A||. Returns (A + E, E, R).
    """
    a = as_matrix(a, "A")
    m, n = a.shape
    rchol = toeplitz_chol(n, model.rho)
    e = np.random.default_rng(model.seed).standard_normal((m, n)) @ rchol
    if model.epsilon == 0.0:
        e = np.zeros_like(a)
    else:
        # scaled in place: G R, E and A + E are never held at once
        e *= model.epsilon * matkit.spectral_norm(a) / matkit.spectral_norm(e)
    return a + e, e, rchol


def perturb_chol(rchol, seed):
    """Scale the off-diagonal entries of a Cholesky factor by uniform [0.9, 1.1].

    The diagonal is untouched, so the result stays upper triangular with a
    positive diagonal and hence full rank.
    """
    rchol = as_matrix(rchol, "Rchol")
    n = rchol.shape[0]
    if rchol.shape[1] != n:
        raise DimensionError(f"Cholesky factor must be square, got {rchol.shape}")
    if np.any(np.tril(rchol, -1) != 0.0):
        raise ContractViolationError("Cholesky factor must be upper triangular")
    require_finite(rchol, "Rchol")
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.9, 1.1, size=rchol.shape)
    out = rchol.copy()
    off = ~np.eye(n, dtype=bool)
    out[off] *= factors[off]
    return out


def subgroup_data(spec, center=False):
    """Four-subgroup target matrix A, background matrix B, and row labels.

    A has ``4 * points_per_group`` rows and 30 features in three blocks of
    ten, standard normal but for the first block's standard deviation of
    10, which is high-variance for everyone. Group membership shifts the
    means: block 2 by 6 for the groups (yellow, purple), block 3 by 3 for
    (orange, purple). B has the same shape, with zero-mean blocks of
    standard deviations 10, 3 and 1 and no group structure.
    ``center=True`` subtracts each column's mean from both matrices. Labels
    are integers 0..3 indexing ``SUBGROUP_NAMES``.
    """
    g = spec.points_per_group
    rows = 4 * g
    rng = np.random.default_rng(spec.seed)

    a = rng.standard_normal((rows, 30))
    a[:, 0:10] *= 10.0
    labels = np.repeat(np.arange(4), g)
    # per-group means of blocks 2 and 3, in SUBGROUP_NAMES order
    block2_means = (0.0, 6.0, 0.0, 6.0)
    block3_means = (0.0, 0.0, 3.0, 3.0)
    for grp in range(4):
        sel = labels == grp
        a[sel, 10:20] += block2_means[grp]
        a[sel, 20:30] += block3_means[grp]

    b = rng.standard_normal((rows, 30))
    b[:, 0:10] *= 10.0
    b[:, 10:20] *= 3.0

    if center:
        a = a - a.mean(axis=0)
        b = b - b.mean(axis=0)
    require_finite(a, "target matrix")
    require_finite(b, "background matrix")
    return a, b, labels
