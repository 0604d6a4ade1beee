import numpy as np
import pytest

from gcurkit import matkit
from gcurkit.errors import (
    ContractViolationError,
    ConvergenceError,
    DimensionError,
    FullRankError,
)
from gcurkit.gsvd import _stacked_gsvd, gsvd, gsvd_diagnostics


def truncated_a(factors, k):
    """Rank-k reconstruction A_k = U_k diag(gamma_k) Y_k^T from GSVD factors."""
    return factors.U[:, :k] @ (factors.gamma[:k, None] * factors.Y[:, :k].T)


def check_invariants(a, b, f, recon_tol=1e-9, ortho_tol=1e-10):
    n = a.shape[1]
    assert np.max(np.abs(f.gamma**2 + f.sigma**2 - 1.0)) <= 1e-12
    ratios = f.ratios
    finite = ratios[np.isfinite(ratios)]
    assert np.all(np.diff(finite) <= 1e-12)
    if not np.isfinite(ratios).all():
        # infinite ratios (sigma == 0) must all sort before the finite ones
        assert np.all(np.isinf(ratios[: np.sum(np.isinf(ratios))]))
    assert matkit.spectral_norm(a - f.U @ (f.gamma[:, None] * f.Y.T)) <= recon_tol * max(
        1.0, matkit.spectral_norm(a)
    )
    assert matkit.spectral_norm(b - f.V @ (f.sigma[:, None] * f.Y.T)) <= recon_tol * max(
        1.0, matkit.spectral_norm(b)
    )
    assert np.max(np.abs(f.U.T @ f.U - np.eye(n))) <= ortho_tol
    assert np.max(np.abs(f.V.T @ f.V - np.eye(n))) <= ortho_tol
    sv = np.linalg.svd(f.Y, compute_uv=False)
    assert sv[-1] > 1e-12 * sv[0]


@pytest.mark.parametrize("seed", range(20))
def test_identity_b_reduces_to_svd(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, 30))
    n = int(rng.integers(2, min(m, 10) + 1))
    a = rng.standard_normal((m, n))
    f = gsvd(a, np.eye(n))
    check_invariants(a, np.eye(n), f)
    psi = matkit.svd(a).psi
    assert np.allclose(f.gamma, psi / np.sqrt(1.0 + psi**2), atol=1e-10)
    assert np.allclose(f.ratios, psi, atol=1e-9 * max(1.0, psi[0]))
    # left vectors match the singular vectors up to column sign
    w = matkit.svd(a).W
    signs = np.sign(np.sum(w * f.U, axis=0))
    assert np.allclose(f.U, w * signs, atol=1e-8)


def test_diagonal_pair_example():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 20.0, 300.0])
    f = gsvd(a, b)
    check_invariants(a, b, f)
    assert np.allclose(f.ratios, [1.0, 0.1, 0.01], atol=1e-10)
    assert f.gamma[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_zero_a_gives_zero_gammas():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((6, 4))
    a = np.zeros((5, 4))
    f = gsvd(a, b)
    assert np.allclose(f.gamma, 0.0, atol=1e-12)
    assert np.allclose(f.sigma, 1.0, atol=1e-12)
    check_invariants(a, b, f)


def test_rank_deficient_b_with_full_stack():
    # B misses one direction that A covers: sigma = 0 there, ratio +inf first
    a = np.eye(2)
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    f = gsvd(a, b)
    assert np.isinf(f.ratios[0])
    assert f.sigma[0] <= 1e-12
    assert np.max(np.abs(f.V.T @ f.V - np.eye(2))) <= 1e-10
    assert matkit.spectral_norm(a - f.U @ (f.gamma[:, None] * f.Y.T)) <= 1e-9
    assert matkit.spectral_norm(b - f.V @ (f.sigma[:, None] * f.Y.T)) <= 1e-9


def test_rank_deficient_stack_errors():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(FullRankError):
        gsvd(a, b)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        gsvd(np.ones((2, 3)), np.ones((3, 3)))  # m < n
    with pytest.raises(DimensionError):
        gsvd(np.ones((3, 3)), np.ones((2, 3)))  # d < n
    with pytest.raises(DimensionError):
        gsvd(np.ones((3, 3)), np.ones((3, 2)))  # column mismatch


def test_truncate_partition_identity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 5))
    b = rng.standard_normal((7, 5))
    f = gsvd(a, b)
    k = 4
    a_k = truncated_a(f, k)
    tail = f.U[:, k:] @ (f.gamma[k:, None] * f.Y[:, k:].T)
    # A - A_k equals the trailing factor product exactly (same arithmetic path)
    assert matkit.spectral_norm((a - a_k) - tail) <= 1e-9 * matkit.spectral_norm(a)


def test_truncate_diag_example_k1():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 20.0, 300.0])
    a_1 = truncated_a(gsvd(a, b), 1)
    assert np.allclose(a_1, np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_truncate_bounds_errors():
    # the truncation rank must satisfy 1 <= k < n, and it is checked before
    # the factorization, which fails on this zero pair
    zero = np.zeros((3, 3))
    for k in (0, 3):
        with pytest.raises(DimensionError, match="truncation rank"):
            gsvd_diagnostics(zero, zero, k)
    with pytest.raises(FullRankError, match="stacked pair"):
        gsvd_diagnostics(zero, zero, 1)


@pytest.mark.parametrize("seed", range(10))
def test_prop1_sandwich(seed):
    rng = np.random.default_rng(50 + seed)
    a = rng.standard_normal((10, 4))
    b = rng.standard_normal((10, 4))
    f = gsvd(a, b)
    for k in range(1, 4):
        y_tail = f.Y[:, k:]
        err = matkit.spectral_norm(a - truncated_a(f, k))
        gamma_next = f.gamma[k]
        lo = gamma_next * np.linalg.svd(y_tail, compute_uv=False)[-1]
        hi = gamma_next * matkit.spectral_norm(y_tail)
        tol = 1e-9 * max(1.0, matkit.spectral_norm(a))
        assert lo <= err + tol
        assert err <= hi + tol


@pytest.mark.parametrize("seed", range(8))
def test_similarity_identity(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.standard_normal((8, 4))
    b = rng.standard_normal((8, 4))
    f = gsvd(a, b)
    product = (a.T @ a) @ np.linalg.inv(b.T @ b)
    eigs = np.sort(np.linalg.eigvals(product).real)[::-1]
    ratios_sq = np.sort(f.ratios**2)[::-1]
    assert np.allclose(eigs, ratios_sq, rtol=1e-6)


def test_scale_equivariance_of_ratios():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((9, 5))
    b = rng.standard_normal((8, 5))
    base = gsvd(a, b).ratios
    for c in (0.1, 3.0, 250.0):
        scaled = gsvd(c * a, b).ratios
        assert np.allclose(scaled, c * base, rtol=1e-9)


@pytest.mark.parametrize(
    "m,d,n", [(12, 9, 6), (40, 25, 12), (200, 60, 30), (80, 200, 30)]
)
def test_invariants_rectangular(m, d, n):
    rng = np.random.default_rng(m * 1000 + d * 10 + n)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal((d, n))
    check_invariants(a, b, gsvd(a, b))


def _signed_qr(x):
    """np.linalg.qr with diag(T) >= 0, signs flipped into new arrays."""
    q, t = np.linalg.qr(np.asfortranarray(x))
    dg = np.sign(np.diag(t))
    dg[dg == 0] = 1.0
    return q * dg, t * dg[:, None]


def gsvd_vstack_reference(a, b):
    """The unreduced algorithm for pairs with full-rank B: [A; B] built whole
    by np.vstack, one QR, and the SVD of its m x n top block."""
    m = a.shape[0]
    q, t = _signed_qr(np.vstack((a, b)))
    u, gamma, wt = np.linalg.svd(q[:m], full_matrices=False)
    vs = q[m:] @ wt.T
    sigma = np.linalg.norm(vs, axis=0)
    return u, vs / sigma, t.T @ wt.T, np.clip(gamma, 0.0, 1.0), sigma


def gsvd_reduced_reference(a, b):
    """Reduce-then-stack reference: A = Q_A R_A, the unreduced algorithm on
    [R_A; B], then U lifted as Q_A U' from A's Householder reflectors."""
    r_a, lift = matkit._triangle_and_lift(a)
    u, v, y, gamma, sigma = gsvd_vstack_reference(r_a, b)
    return lift(u), v, y, gamma, sigma


@pytest.mark.parametrize("order_b", ["C", "F"])
@pytest.mark.parametrize("order_a", ["C", "F"])
@pytest.mark.parametrize("m,d,n", [(12, 9, 6), (500, 150, 120)])
def test_stack_matches_vstack_reference_bitwise(m, d, n, order_a, order_b):
    rng = np.random.default_rng(m + d + n)
    a = np.array(rng.standard_normal((m, n)), order=order_a)
    b = np.array(rng.standard_normal((d, n)), order=order_b)
    a_in, b_in = a.copy(), b.copy()
    f = gsvd(a, b)
    for got, want in zip(f, gsvd_reduced_reference(a, b)):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(a, a_in) and np.array_equal(b, b_in)
    # the lift agrees with forming Q_A and multiplying, U = Q_A U', to rounding
    q_a, r_a = _signed_qr(a)
    u_formed = q_a @ gsvd_vstack_reference(r_a, b)[0]
    assert np.max(np.abs(f.U - u_formed)) <= 1e-14 * np.max(np.abs(f.U))


def test_tall_a_reaches_no_thin_qr(monkeypatch):
    # A (m x n, m > n) is reduced by its reflectors: the only thin QR is of
    # the (n + d) x n stack [R_A; B], and no m-row array reaches the thin QR
    # core that thin_qr and the GSVD core share
    m, d, n = 90, 50, 30
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((m, n)), rng.standard_normal((d, n))
    seen = []
    thin_qr = matkit._thin_qr

    def spy(x):
        seen.append(np.shape(x))
        return thin_qr(x)

    monkeypatch.setattr(matkit, "_thin_qr", spy)
    f = gsvd(a, b)
    assert seen == [(n + d, n)]
    check_invariants(a, b, f)


def test_square_a_skips_reduction_bitwise():
    # square A is not reduced: the unreduced algorithm's bits exactly
    intro_a = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 2.0], [1.0, 1.0, 2.0]])
    intro_cov = np.array([[1.0, 0.8, 0.3], [0.8, 1.0, 0.8], [0.3, 0.8, 1.0]])
    rng = np.random.default_rng(120)
    pairs = [
        (intro_a, np.linalg.cholesky(intro_cov).T),
        (rng.standard_normal((120, 120)), rng.standard_normal((150, 120))),
    ]
    for a, b in pairs:
        for got, want in zip(gsvd(a, b), gsvd_vstack_reference(a, b)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "m,d,n,rank_b", [(200, 40, 40, 40), (200, 90, 40, 40), (150, 60, 40, 35)]
)
def test_reduction_matches_unreduced_values(m, d, n, rank_b):
    # d = n, d > n, and a rank-deficient B whose sigma = 0 columns sort first
    rng = np.random.default_rng(m + d + n + rank_b)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal((d, rank_b)) @ rng.standard_normal((rank_b, n))
    f = gsvd(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, _, gamma, sigma = gsvd_vstack_reference(a, b)
        ratios = gamma / sigma
    ok = sigma > 1e-6
    assert int((~ok).sum()) == n - rank_b
    assert np.all(f.sigma[~ok] <= 1e-12)
    assert np.all(np.isinf(f.ratios[: n - rank_b]))
    for got, want in ((f.gamma, gamma), (f.sigma, sigma), (f.ratios, ratios)):
        assert np.allclose(got[ok], want[ok], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shared_b", [True, False])
def test_stacked_core_matches_each_pair_bitwise(shared_b):
    # the core factors a stack of square pairs, against one shared B or a
    # stack of Bs, with the bits gsvd gives each pair; pair 4's B is rank
    # deficient, so its sigma = 0 column is completed inside the stack
    rng = np.random.default_rng(40)
    n, d = 4, 6
    a = rng.standard_normal((6, n, n))
    b = rng.standard_normal((d, n)) if shared_b else rng.standard_normal((6, d, n))
    if not shared_b:
        b[4] = rng.standard_normal((d, n - 1)) @ rng.standard_normal((n - 1, n))
    f = _stacked_gsvd(a, b)
    for i in range(len(a)):
        for got, want in zip(f, gsvd(a[i], b if shared_b else b[i])):
            assert got[i].tobytes() == want.tobytes()
    if not shared_b:
        assert f.sigma[4, 0] <= 1e-12 and np.all(f.sigma[np.arange(6) != 4] > 1e-3)


def test_stacked_core_rejects_a_stack_with_a_rank_deficient_pair():
    rng = np.random.default_rng(41)
    a, b = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 5, 4))
    a[1, :, 2] = 0.0
    b[1, :, 2] = 0.0
    with pytest.raises(FullRankError, match="stacked pair"):
        _stacked_gsvd(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_contract_violation(bad):
    # refused at the boundary; a stacked pair that bypasses it fails the SVD
    # of its rank test, which ends in ConvergenceError, not in numpy's bare
    # LinAlgError
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((20, 6)), rng.standard_normal((9, 6))
    a[3, 2] = bad
    with pytest.raises(ContractViolationError, match="A contains non-finite entries"):
        gsvd(a, b)
    with pytest.raises(ContractViolationError, match="B contains non-finite entries"):
        gsvd(b, a)
    with pytest.raises(ConvergenceError, match="stacked pair"):
        _stacked_gsvd(a, b)


@pytest.mark.parametrize("m", [40, 200])
def test_gsvd_diagnostics_factors_and_square_residuals(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, 40)) * np.logspace(0, -3, 40)
    b = rng.standard_normal((120, 40))
    g = gsvd_diagnostics(a, b, 8)
    f = gsvd(a, b)
    for name in f._fields:  # the factors of gsvd, bit for bit
        assert getattr(g.factors, name).tobytes() == getattr(f, name).tobytes()
    assert g.residual_b == matkit.spectral_norm(b - f.V @ (f.sigma[:, None] * f.Y.T))
    assert g.sandwich.holds and g.sandwich.gamma_next == f.gamma[8]
    if m == 40:  # a square A is its own triangle: the explicit bits
        assert g.residual_a == matkit.spectral_norm(a - f.U @ (f.gamma[:, None] * f.Y.T))
        assert g.sandwich.observed == matkit.spectral_norm(a - truncated_a(f, 8))
    assert gsvd_diagnostics(a, b, None).sandwich is None
