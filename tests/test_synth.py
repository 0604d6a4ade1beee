import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gcurkit import matkit, synth
from gcurkit.errors import ContractViolationError, DimensionError
from gcurkit.synth import (
    NoiseModel,
    SubgroupSpec,
    colored_noise,
    lowrank_gapped,
    lowrank_sparse,
    perturb_chol,
    subgroup_data,
    toeplitz_chol,
)

def test_sparse_rank_and_nonnegativity():
    a = lowrank_sparse(80, 60, seed=0)
    assert np.all(a >= 0)
    psi = np.linalg.svd(a, compute_uv=False)
    assert psi[50] <= 1e-10 * psi[0]


def _sparse_rank_one_loop(m, n, seed):
    """Reference: the rank-one construction, one product per term, drawing
    x_j then y_j; returns A and the factor columns X, Y."""
    rng = np.random.default_rng(seed)
    a = np.zeros((m, n))
    x, y = np.empty((m, 50)), np.empty((n, 50))
    for j in range(1, 51):
        coeff = 2.0 / j if j <= 10 else 1.0 / j
        x[:, j - 1] = synth._sparse_uniform(rng, m)
        y[:, j - 1] = synth._sparse_uniform(rng, n)
        a += coeff * np.outer(x[:, j - 1], y[:, j - 1])
    return a, x, y


SPARSE_COEFF = np.array([2.0 / j if j <= 10 else 1.0 / j for j in range(1, 51)])
GAPPED_COEFF = np.array([1000.0 / j if j <= 10 else 1.0 / j for j in range(1, 51)])


def _assert_within_rounding_of_loop(a, a_ref, x, y, coeff):
    # both sum 50 terms in some order: each entry within a few ulps of the
    # sum of the terms' magnitudes, sum_j |coeff_j x_ij y_kj|
    tol = 100 * np.finfo(float).eps * (np.abs(x * coeff) @ np.abs(y).T)
    assert np.all(np.abs(a - a_ref) <= tol)


def test_sparse_determinism_and_dimension_guard():
    a1 = lowrank_sparse(60, 55, seed=123)
    a2 = lowrank_sparse(60, 55, seed=123)
    assert np.array_equal(a1, a2)
    a_ref, x, y = _sparse_rank_one_loop(60, 55, 123)
    _assert_within_rounding_of_loop(a1, a_ref, x, y, SPARSE_COEFF)
    assert not np.array_equal(a1, lowrank_sparse(60, 55, seed=124))
    with pytest.raises(DimensionError):
        lowrank_sparse(40, 60, seed=0)


def test_gapped_spectrum_and_determinism():
    a = lowrank_gapped(120, 60, seed=5)
    psi = np.linalg.svd(a, compute_uv=False)
    assert psi[9] >= 10.0 * psi[10]
    assert psi[50] <= 1e-10 * psi[0]
    assert np.array_equal(a, lowrank_gapped(120, 60, seed=5))


def _gapped_rank_one_loop(m, n, seed):
    """Reference: the rank-one construction, drawing x_j then y_j."""
    rng = np.random.default_rng(seed)
    a = np.zeros((m, n))
    x, y = np.empty((m, 50)), np.empty((n, 50))
    for j in range(1, 51):
        coeff = 1000.0 / j if j <= 10 else 1.0 / j
        x[:, j - 1], y[:, j - 1] = rng.standard_normal(m), rng.standard_normal(n)
        a += coeff * np.outer(x[:, j - 1], y[:, j - 1])
    return a, x, y


@pytest.mark.parametrize("m,n,seed", [(120, 60, 5), (60, 130, 6), (50, 50, 7)])
def test_gapped_bits_and_spectrum_from_its_core(m, n, seed):
    a_ref, x, y = _gapped_rank_one_loop(m, n, seed)
    a = lowrank_gapped(m, n, seed)
    _assert_within_rounding_of_loop(a, a_ref, x, y, GAPPED_COEFF)
    # the 50 x 50 core T_X diag(coeff) T_Y^T has A's nonzero singular values
    core = (matkit.thin_qr(x).T * GAPPED_COEFF) @ matkit.thin_qr(y).T.T
    psi_core = np.linalg.svd(core, compute_uv=False)
    psi = np.linalg.svd(a, compute_uv=False)[:50]
    assert np.max(np.abs(psi_core - psi)) <= 1e-13 * psi[0]
    assert psi_core[9] / psi_core[10] == pytest.approx(psi[9] / psi[10], rel=1e-10)
    # so does the core of the factors the generator contracts, F = X diag(coeff)
    got = synth._core_svd(x * GAPPED_COEFF, y)
    assert np.max(np.abs(got.psi - psi)) <= 1e-13 * psi[0]


@pytest.mark.parametrize(
    "kind,loop,coeff",
    [("gapped", _gapped_rank_one_loop, GAPPED_COEFF),
     ("sparse", _sparse_rank_one_loop, SPARSE_COEFF)],
)
@pytest.mark.parametrize("m,n,seed", [(120, 60, 5), (60, 130, 6)])
def test_lowrank_factors_follow_the_draw_sequence(kind, loop, coeff, m, n, seed):
    # F = X diag(coeff) and Y hold the draws x_1, y_1, ..., x_50, y_50 bit
    # for bit, A is their one contraction, and the public generator returns
    # that A
    a_ref, x, y = loop(m, n, seed)
    f, y_got = synth._lowrank(kind, m, n, seed)
    assert np.array_equal(f, x * coeff)
    assert np.array_equal(y_got, y)
    public = lowrank_gapped if kind == "gapped" else lowrank_sparse
    a = public(m, n, seed)
    assert np.array_equal(a, np.einsum("ij,kj->ik", f, y_got))
    assert a.flags.c_contiguous


_SHA_SCRIPT = """
import hashlib
from gcurkit import synth
for gen in (synth.lowrank_gapped, synth.lowrank_sparse):
    print(hashlib.sha256(gen(2000, 300, 5).tobytes()).hexdigest())
"""


def test_lowrank_bits_do_not_depend_on_blas_threads():
    # the thread variables are read when numpy loads, so each count runs in
    # a fresh interpreter
    src = str(Path(synth.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _SHA_SCRIPT], env=env, capture_output=True,
            text=True, check=True,
        )
        digests.append(out.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


def test_toeplitz_chol_small_cases():
    assert np.allclose(toeplitz_chol(1, 0.5), [[1.0]])
    r = toeplitz_chol(2, 0.8)
    assert np.allclose(r, [[1.0, 0.8], [0.0, 0.6]], atol=1e-12)


@pytest.mark.parametrize("n,rho", [(5, 0.3), (40, 0.99), (3, 0.9)])
def test_toeplitz_chol_roundtrip(n, rho):
    r = toeplitz_chol(n, rho)
    idx = np.arange(n)
    target = rho ** np.abs(idx[:, None] - idx[None, :])
    assert np.max(np.abs(r.T @ r - target)) <= 1e-10
    assert np.all(np.diag(r) > 0)
    assert np.max(np.abs(np.tril(r, -1))) == 0.0


def test_toeplitz_chol_domain():
    with pytest.raises(ContractViolationError):
        toeplitz_chol(4, 1.0)
    with pytest.raises(DimensionError):
        toeplitz_chol(0, 0.5)


def test_noise_model_validation():
    with pytest.raises(ContractViolationError):
        NoiseModel(epsilon=-0.1)
    with pytest.raises(ContractViolationError):
        NoiseModel(epsilon=0.1, rho=1.5)


def test_colored_noise_zero_epsilon():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 6))
    noisy, e, rchol = colored_noise(a, NoiseModel(epsilon=0.0, seed=1, rho=0.9))
    assert np.array_equal(noisy, a)
    assert np.all(e == 0)
    assert rchol.shape == (6, 6)


def test_colored_noise_norm_ratio():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 8))
    for eps in (0.05, 0.2):
        _, e, _ = colored_noise(a, NoiseModel(epsilon=eps, seed=2, rho=0.8))
        ratio = matkit.spectral_norm(e) / matkit.spectral_norm(a)
        assert ratio == pytest.approx(eps, abs=1e-12)


def _restated_lowrank(kind, m, n, seed):
    """lowrank_<kind> as it was built when it also returned its factors to
    the noise-recovery trial: the draw loop, F = X diag(coeff), and one
    einsum contraction."""
    j = np.arange(1, 51)
    big = 1000.0 if kind == "gapped" else 2.0
    coeff = np.where(j <= 10, big, 1.0) / j
    rng = np.random.default_rng(seed)
    f, y = np.empty((m, 50)), np.empty((n, 50))
    for col in range(50):
        if kind == "gapped":
            f[:, col], y[:, col] = rng.standard_normal(m), rng.standard_normal(n)
        else:
            f[:, col] = synth._sparse_uniform(rng, m)
            y[:, col] = synth._sparse_uniform(rng, n)
    f *= coeff
    return np.einsum("ij,kj->ik", f, y)


def _restated_colored_noise(a, model):
    """colored_noise as it was built on its former helper for (E, R)."""
    m, n = a.shape
    rchol = toeplitz_chol(n, model.rho)
    f = np.random.default_rng(model.seed).standard_normal((m, n)) @ rchol
    if model.epsilon == 0.0:
        e = np.zeros_like(a)
    else:
        norm_a = matkit.spectral_norm(a)
        e = (model.epsilon * norm_a / matkit.spectral_norm(f)) * f
    return a + e, e, rchol


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("kind", ["gapped", "sparse"])
@pytest.mark.parametrize("m,n,seed", [(120, 60, 3), (60, 130, 6), (300, 50, 11)])
def test_public_generators_keep_their_bits(kind, m, n, seed):
    # the trial reads the factors alone now; lowrank_* and colored_noise
    # still return the bits of the algorithm restated here
    public = lowrank_gapped if kind == "gapped" else lowrank_sparse
    a = public(m, n, seed)
    assert np.array_equal(_bits(a), _bits(_restated_lowrank(kind, m, n, seed)))
    for eps in (1.0, 0.1, 0.0):
        model = NoiseModel(epsilon=eps, seed=seed + 1, rho=0.99)
        for got, want in zip(colored_noise(a, model), _restated_colored_noise(a, model)):
            assert np.array_equal(_bits(got), _bits(want))


def test_colored_noise_covariance_structure():
    # E is a scalar multiple of G @ Rchol, so its row covariance is
    # proportional to the Toeplitz target; compare after trace-matching.
    a = np.ones((20000, 10))
    _, e, _ = colored_noise(a, NoiseModel(epsilon=1.0, seed=3, rho=0.9))
    emp = e.T @ e / e.shape[0]
    idx = np.arange(10)
    target = 0.9 ** np.abs(idx[:, None] - idx[None, :])
    emp *= np.trace(target) / np.trace(emp)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel <= 0.05


def test_perturb_chol_diagonal_only_matrix_unchanged():
    r = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(perturb_chol(r, seed=0), r)


def test_perturb_chol_range_and_determinism():
    r = toeplitz_chol(12, 0.95)
    p1 = perturb_chol(r, seed=42)
    p2 = perturb_chol(r, seed=42)
    assert np.array_equal(p1, p2)
    assert np.array_equal(np.diag(p1), np.diag(r))
    mask = (np.triu(np.ones_like(r), 1) > 0) & (r != 0)
    ratios = p1[mask] / r[mask]
    assert np.all(ratios >= 0.9) and np.all(ratios <= 1.1)
    # still full rank: positive diagonal of a triangular matrix
    assert np.linalg.matrix_rank(p1) == 12


def test_perturb_chol_rejects_non_triangular():
    with pytest.raises(ContractViolationError):
        perturb_chol(np.ones((3, 3)), seed=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [(0, 0), (0, 3)])
def test_perturb_chol_rejects_non_finite_input(pos, bad):
    # on the diagonal or above it, a non-finite entry would pass into the
    # factor (the diagonal as it is, the rest scaled)
    r = np.triu(np.random.default_rng(0).standard_normal((5, 5))) + 3 * np.eye(5)
    r[pos] = bad
    with pytest.raises(ContractViolationError, match="Rchol contains non-finite"):
        perturb_chol(r, seed=0)


def test_subgroup_shapes_and_labels():
    a, b, labels = subgroup_data(SubgroupSpec(seed=0))
    assert a.shape == (400, 30)
    assert b.shape == (400, 30)
    assert labels.shape == (400,)
    assert np.array_equal(np.unique(labels), [0, 1, 2, 3])
    a50, b50, l50 = subgroup_data(SubgroupSpec(points_per_group=50, seed=0))
    assert a50.shape == (200, 30) and b50.shape == (200, 30) and l50.size == 200


def test_subgroup_block_means():
    a, _, labels = subgroup_data(SubgroupSpec(seed=1))
    band = 3.0 / np.sqrt(200.0)
    offset_groups = np.isin(labels, [1, 3])  # yellow and purple rows
    block2 = a[offset_groups, 10:20]
    assert abs(block2.mean() - 6.0) <= 3 * band
    plain = a[~offset_groups, 10:20]
    assert abs(plain.mean()) <= 3 * band
    block3_shift = a[np.isin(labels, [2, 3]), 20:30]
    assert abs(block3_shift.mean() - 3.0) <= 3 * band


def test_subgroup_background_variances():
    _, b, _ = subgroup_data(SubgroupSpec(seed=2))
    for cols, var in ((slice(0, 10), 100.0), (slice(10, 20), 9.0), (slice(20, 30), 1.0)):
        emp = b[:, cols].var()
        assert abs(emp - var) <= 0.1 * var


def test_subgroup_centering():
    a, b, _ = subgroup_data(SubgroupSpec(seed=3), center=True)
    assert np.max(np.abs(a.mean(axis=0))) <= 1e-12
    assert np.max(np.abs(b.mean(axis=0))) <= 1e-12


def test_subgroup_determinism():
    a1, b1, _ = subgroup_data(SubgroupSpec(seed=9))
    a2, b2, _ = subgroup_data(SubgroupSpec(seed=9))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
