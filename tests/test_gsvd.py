import importlib

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
    by np.vstack, one LAPACK QR, and the SVD of its m x n top block; no
    balance. Read for values only."""
    m = a.shape[0]
    q, t = _signed_qr(np.vstack((a, b)))
    u, gamma, wt = np.linalg.svd(q[:m], full_matrices=False)
    vs = q[m:] @ wt.T
    sigma = np.linalg.norm(vs, axis=0)
    return u, vs / sigma, t.T @ wt.T, np.clip(gamma, 0.0, 1.0), sigma


def gsvd_balanced_reference(a, r_b):
    """The algorithm on a square A and an upper-triangular R_B with full
    rank, written out: the power-of-two balance from max-abs exponents, the
    triangle-on-top QR of [R_B'; A'], the SVD of A's block, V from B's
    block, and the map back to the unscaled pair."""
    n = a.shape[1]
    e_a, e_b = (int(np.frexp(np.max(np.abs(x)))[1]) for x in (a, r_b))
    up_a, up_b = max(e_b - e_a, 0), max(e_a - e_b, 0)
    q, t = matkit._triangle_on_top_qr(
        np.asfortranarray(np.ldexp(r_b, up_b)), np.asfortranarray(np.ldexp(a, up_a))
    )
    u, gamma, wt = np.linalg.svd(q[n:], full_matrices=False)
    vs = q[:n] @ wt.T
    sigma = np.linalg.norm(vs, axis=0)
    g, h = np.ldexp(np.clip(gamma, 0.0, 1.0), -up_a), np.ldexp(sigma, -up_b)
    d = np.hypot(g, h)
    return u, vs / sigma, (t.T @ wt.T) * d, g / d, h / d


def reduced(x, triangle=False):
    """(R, lift) of X = Q R from X's Householder reflectors for a tall X,
    and with ``triangle`` for a square X with an entry below its diagonal;
    otherwise X is its own R."""
    if x.shape[0] > x.shape[1] or (triangle and np.tril(x, -1).any()):
        return matkit._triangle_and_lift(x)
    return x, lambda u: u


def gsvd_reduced_reference(a, b):
    """Reduce-then-stack reference: each tall X = Q_X R_X, and a dense
    square B too, the balanced algorithm on (R_A, R_B), then U and V lifted
    as Q_A U' and Q_B V' from the reflectors."""
    (r_a, lift_a), (r_b, lift_b) = reduced(a), reduced(b, triangle=True)
    u, v, y, gamma, sigma = gsvd_balanced_reference(r_a, r_b)
    return lift_a(u), lift_b(v), y, gamma, sigma


@pytest.mark.parametrize("order_b", ["C", "F"])
@pytest.mark.parametrize("order_a", ["C", "F"])
@pytest.mark.parametrize("m,d,n", [(12, 9, 6), (500, 150, 120)])
def test_stack_matches_balanced_reference_bitwise(m, d, n, order_a, order_b):
    rng = np.random.default_rng(m + d + n)
    a = np.array(rng.standard_normal((m, n)), order=order_a)
    b = np.array(rng.standard_normal((d, n)), order=order_b)
    a_in, b_in = a.copy(), b.copy()
    f = gsvd(a, b)
    for got, want in zip(f, gsvd_reduced_reference(a, b)):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(a, a_in) and np.array_equal(b, b_in)
    # the lifts agree with forming Q_A and Q_B and multiplying, U = Q_A U'
    # and V = Q_B V', to rounding
    (q_a, r_a), (q_b, r_b) = _signed_qr(a), _signed_qr(b)
    u, v = gsvd_balanced_reference(r_a, r_b)[:2]
    assert np.max(np.abs(f.U - q_a @ u)) <= 1e-14 * np.max(np.abs(f.U))
    assert np.max(np.abs(f.V - q_b @ v)) <= 1e-14 * np.max(np.abs(f.V))


def test_tall_a_reaches_no_thin_qr(monkeypatch):
    # A (m x n, m > n) and B (d x n, d > n) are reduced by their reflectors:
    # the only QR after that is the triangle-on-top QR of the 2n x n stack
    # [R_B; R_A], and nothing reaches the thin QR core (xORGQR) at all
    m, d, n = 90, 50, 30
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((m, n)), rng.standard_normal((d, n))
    seen, stacked = [], []
    thin_qr, stack_qr = matkit._thin_qr, matkit._triangle_on_top_qr

    def spy(x):
        seen.append(np.shape(x))
        return thin_qr(x)

    def spy_stack(t, x):
        stacked.append((np.shape(t), np.shape(x)))
        return stack_qr(t, x)

    monkeypatch.setattr(matkit, "_thin_qr", spy)
    monkeypatch.setattr(matkit, "_triangle_on_top_qr", spy_stack)
    f = gsvd(a, b)
    assert seen == [] and stacked == [((n, n), (n, n))]
    check_invariants(a, b, f)


def test_square_a_skips_reduction_bitwise():
    # square A is not reduced: the balanced algorithm's bits exactly, on
    # (A, B) for an upper-triangular B, on (A, R_B) for a tall one and for
    # a dense square one
    intro_a = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 2.0], [1.0, 1.0, 2.0]])
    intro_cov = np.array([[1.0, 0.8, 0.3], [0.8, 1.0, 0.8], [0.3, 0.8, 1.0]])
    rng = np.random.default_rng(120)
    pairs = [
        (intro_a, np.linalg.cholesky(intro_cov).T),
        (rng.standard_normal((120, 120)), rng.standard_normal((150, 120))),
        (rng.standard_normal((40, 40)), rng.standard_normal((40, 40))),
    ]
    for a, b in pairs:
        for got, want in zip(gsvd(a, b), gsvd_reduced_reference(a, b)):
            assert got.tobytes() == want.tobytes()


def test_dense_square_b_is_reduced_to_its_triangle():
    # B's triangle is the top block of the stacked QR: a square B with an
    # entry below its diagonal is reduced and V lifted, an upper-triangular
    # one enters as itself
    rng = np.random.default_rng(121)
    a, b = rng.standard_normal((30, 8)), rng.standard_normal((8, 8))
    check_invariants(a, b, gsvd(a, b))
    r_b, _ = matkit._triangle_and_lift(b)
    assert gsvd(a, b).gamma.tobytes() == gsvd(a, r_b).gamma.tobytes()
    triangle = np.triu(b)
    r, lift = importlib.import_module("gcurkit.gsvd")._reduce(triangle, triangle=True)
    assert r is triangle and lift is np.copy


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
    # deficient, so its sigma = 0 column is completed inside the stack. The
    # core does not reduce: a tall B (d = 6) and a dense square B (d = 4)
    # enter as their triangles R_B, and V as Q_B V', as gsvd reduces them;
    # A's pair 0 is scaled by 1e-300 and B's pair 1 by 1e30, so the pairs of
    # one stack get different balance exponents
    n = 4
    for d in (6, 4):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((6, n, n))
        b = rng.standard_normal((d, n)) if shared_b else rng.standard_normal((6, d, n))
        if not shared_b:
            b[4] = rng.standard_normal((d, n - 1)) @ rng.standard_normal((n - 1, n))
            a[0] *= 1e-300
            b[1] *= 1e30
        bs = [b] * 6 if shared_b else list(b)
        sides = [reduced(b_i, triangle=True) for b_i in bs]
        f = _stacked_gsvd(a, sides[0][0] if shared_b else np.stack([r for r, _ in sides]))
        for i, (_, lift_b) in enumerate(sides):
            u, v, y, gamma, sigma = (x[i] for x in f)
            for got, want in zip((u, lift_b(v), y, gamma, sigma), gsvd(a[i], bs[i])):
                assert got.tobytes() == want.tobytes()
        if not shared_b:
            assert f.sigma[4, 0] <= 1e-12 and np.all(f.sigma[np.arange(6) != 4] > 1e-3)


def test_stacked_core_rejects_a_stack_with_a_rank_deficient_pair():
    rng = np.random.default_rng(41)
    a, b = rng.standard_normal((3, 4, 4)), np.triu(rng.standard_normal((3, 4, 4)))
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
        _stacked_gsvd(a, np.triu(b[:6]))


@pytest.mark.parametrize("m", [40, 200])
def test_gsvd_diagnostics_factors_and_square_residuals(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, 40)) * np.logspace(0, -3, 40)
    b = rng.standard_normal((120, 40))
    g = gsvd_diagnostics(a, b, 8)
    f = gsvd(a, b)
    for name in f._fields:  # the factors of gsvd, bit for bit
        assert getattr(g.factors, name).tobytes() == getattr(f, name).tobytes()
    # B's residual is scored on its triangle: it agrees with the explicit d-row
    # one to 1e-14 ||B||, as A's does for a tall A
    norm_b = matkit.spectral_norm(b)
    explicit_b = matkit.spectral_norm(b - f.V @ (f.sigma[:, None] * f.Y.T))
    assert abs(g.residual_b - explicit_b) <= 1e-14 * norm_b
    assert g.sandwich.holds and g.sandwich.gamma_next == f.gamma[8]
    if m == 40:  # a square A is its own triangle: the explicit bits
        assert g.residual_a == matkit.spectral_norm(a - f.U @ (f.gamma[:, None] * f.Y.T))
        assert g.sandwich.observed == matkit.spectral_norm(a - truncated_a(f, 8))
    assert gsvd_diagnostics(a, b, None).sandwich is None


_SCALES = (1e-300, 1e-20, 1e-8, 1.0, 1e8, 1e20, 1e300)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("s", _SCALES)
def test_balance_keeps_every_scale_of_the_pair(s, side):
    # the pair is balanced by a power of two before the stacked QR, so s * A
    # (or s * B) gets s (or 1/s) times the ratios of s = 1 to a few eps, U and
    # V stay orthonormal, and both residuals stay at rounding level; without
    # the balance the ratios were off by 1e-8 at s = 1e-8 and by 0.55 at 1e8,
    # and every sigma read 0 from s = 1e12 on
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((20, 6)), rng.standard_normal((9, 6))
    base = gsvd(a, b).ratios
    if side == "A":
        a, want = s * a, s * base
    else:
        b, want = s * b, base / s
    f = gsvd(a, b)
    eps = np.finfo(float).eps
    assert np.max(np.abs(f.ratios - want) / want) <= 64 * eps
    for x in (f.U, f.V):
        assert np.max(np.abs(x.T @ x - np.eye(6))) <= 1e-13
    for x, left, values in ((a, f.U, f.gamma), (b, f.V, f.sigma)):
        residual = matkit.spectral_norm(x - left @ (values[:, None] * f.Y.T))
        assert residual <= 64 * eps * matkit.spectral_norm(x)


def test_balance_keeps_v_orthonormal_on_a_desk_gapped_pair():
    # ||A|| / ||B|| = 6.8e4 on the paper's desk pairs: unbalanced, V's leading
    # 30 columns, which s_b is selected from, were orthonormal only to 9.4e-3
    from gcurkit import gcur, synth

    a = synth.lowrank_gapped(2000, 300, 102)
    noisy = a + 0.1 * np.random.default_rng(1).standard_normal((2000, 300))
    f = gcur(noisy, synth.toeplitz_chol(300, 0.99), 30)
    assert np.max(np.abs(f.V_k.T @ f.V_k - np.eye(30))) <= 1e-10
