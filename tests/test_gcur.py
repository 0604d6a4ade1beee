import time
import warnings

import numpy as np
import pytest

from gcurkit import curfac, deim, matkit
from gcurkit.curfac import deim_cur, middle_matrix
from gcurkit.errors import ContractViolationError, DimensionError
from gcurkit.gcur import (
    evaluate_bounds,
    gcur,
    gcur_only_a,
    reconstruct_a,
    reconstruct_b,
    relative_errors,
    svd_subspace_gap,
)
from gcurkit.gsvd import gsvd


def min_ratio_gap(a, b):
    r = gsvd(a, b).ratios
    r = r[np.isfinite(r)]
    return np.min(r[:-1] - r[1:])


def test_diagonal_pair_rank_one():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 20.0, 300.0])
    f = gcur(a, b, 1)
    assert f.p.tolist() == [0]
    assert f.s_a.tolist() == [0]
    assert f.s_b.tolist() == [0]


@pytest.mark.parametrize("seed", range(30))
def test_identity_b_matches_single_matrix_cur(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 40))
    n = int(rng.integers(4, min(m, 15) + 1))
    k = int(rng.integers(1, n))
    a = rng.standard_normal((m, n))
    g = gcur(a, np.eye(n), k)
    c = deim_cur(a, k)
    assert np.array_equal(g.p, c.p)
    assert np.array_equal(g.s_a, c.s)


@pytest.mark.parametrize("seed", range(20))
def test_square_b_matches_cur_of_a_binv(seed):
    rng = np.random.default_rng(2000 + seed)
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal((8, 8))
    if min_ratio_gap(a, b) <= 1e-3:
        pytest.skip("generalized values too close for index comparison")
    k = int(rng.integers(1, 5))
    g = gcur(a, b, k)
    oracle = deim_cur(a @ np.linalg.inv(b), k)
    assert np.array_equal(g.s_a, oracle.s)
    assert np.array_equal(g.s_b, oracle.p)


@pytest.mark.parametrize("seed", range(20))
def test_tall_b_matches_cur_of_a_bpinv(seed):
    rng = np.random.default_rng(3000 + seed)
    a = rng.standard_normal((15, 6))
    b = rng.standard_normal((11, 6))
    if min_ratio_gap(a, b) <= 1e-3:
        pytest.skip("generalized values too close for index comparison")
    k = int(rng.integers(1, 4))
    g = gcur(a, b, k)
    oracle = deim_cur(a @ np.linalg.pinv(b), k)
    assert np.array_equal(g.s_a, oracle.s)
    assert np.array_equal(g.s_b, oracle.p)


def test_only_a_variant_matches_full():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 9))
    b = rng.standard_normal((15, 9))
    full = gcur(a, b, 4)
    only = gcur_only_a(a, b, 4)
    assert np.array_equal(full.p, only.p)
    assert np.array_equal(full.s_a, only.s_a)
    assert np.max(np.abs(full.M_a - only.M_a)) == 0.0
    assert only.s_b is None and only.M_b is None
    with pytest.raises(DimensionError):
        reconstruct_b(b, only)


@pytest.mark.parametrize("scale", [0.01, 1.0, 47.0])
def test_scaling_invariance_of_selections(scale):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((18, 7))
    b = rng.standard_normal((12, 7))
    base = gcur(a, b, 3)
    scaled = gcur(scale * a, b, 3)
    assert np.array_equal(base.p, scaled.p)
    assert np.array_equal(base.s_a, scaled.s_a)
    assert np.array_equal(base.s_b, scaled.s_b)


def test_middle_matrices_reproducible_and_coupled():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((16, 8))
    b = rng.standard_normal((10, 8))
    f = gcur(a, b, 3)
    assert np.max(np.abs(middle_matrix(a, f.p, f.s_a) - f.M_a)) <= 1e-9
    # the identical p indexes both matrices' columns
    assert np.max(np.abs(middle_matrix(b, f.p, f.s_b) - f.M_b)) <= 1e-9


def test_rank_bounds():
    with pytest.raises(DimensionError):
        gcur(np.eye(4), np.eye(4), 4)


def test_reconstructions_have_right_shapes():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((14, 6))
    b = rng.standard_normal((9, 6))
    f = gcur(a, b, 2)
    assert reconstruct_a(a, f).shape == a.shape
    assert reconstruct_b(b, f).shape == b.shape
    assert np.isfinite(f.ratio_gap)


@pytest.mark.parametrize("build", [gcur, gcur_only_a])
def test_ratio_gap_is_zero_where_the_cut_splits_sigma_zero_pairs(build):
    # a rank-3 B leaves three pairs with sigma = 0 and ratio +inf; a cut
    # between two of them splits a tie, and the cut after them is a full gap
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 6))
    b = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 6))
    assert [build(a, b, k).ratio_gap for k in (1, 2, 3)] == [0.0, 0.0, np.inf]


@pytest.mark.parametrize("seed", range(15))
def test_bound_checks_pass_on_random_pairs(seed):
    rng = np.random.default_rng(500 + seed)
    a = rng.standard_normal((30, 8))
    b = rng.standard_normal((30, 8))
    f = gcur(a, b, 3)
    rep = evaluate_bounds(a, b, f)
    assert all(rep.checks.values()), rep.checks
    assert rep.observed_error <= rep.bound + 1e-9 * matkit.spectral_norm(a)


def evaluate_bounds_fresh_gsvd(a, b, factors):
    """Reference: every bound quantity from a fresh factorization of (A, B).

    Takes A = Q_A R_A and the GSVD of (R_A, B) again, lifts U_k with the
    reflectors of A's QR, then scores the five residuals on R_A with the
    same n x n formulas as evaluate_bounds. Both ends of T22 and of T_hat
    come from one SVD each.
    """
    k = factors.p.size
    p, s = factors.p, factors.s_a
    m, n = a.shape
    if m > n:
        r, lift = matkit._triangle_and_lift(matkit.as_matrix(a))
    else:
        r, lift = a, None
    f = gsvd(r, b)
    ur_k = f.U[:, :k]
    u_k = ur_k if lift is None else lift(ur_k)
    q, t_full = matkit.thin_qr(f.Y)
    q_k, t22, t_hat = q[:, :k], t_full[k:, k:], t_full[:, k:]
    eta_p = deim.eta(q_k, p)
    eta_s = deim.eta(u_k, s)
    gamma_next = float(f.gamma[k])
    psi_t22 = np.linalg.svd(t22, compute_uv=False)
    psi_t_hat = np.linalg.svd(t_hat, compute_uv=False)
    norm_t22, psi_min_t22 = psi_t22[0], psi_t22[-1]
    norm_t_hat, psi_min_t_hat = psi_t_hat[0], psi_t_hat[-1]
    a_s = a[s, :]
    interp_col = matkit.spectral_norm(
        r - r[:, p] @ np.linalg.solve(q_k[p, :].T, q_k.T)
    )
    interp_row = matkit.spectral_norm(r - ur_k @ np.linalg.solve(u_k[s, :], a_s))
    q_c = matkit.thin_qr(r[:, p]).Q
    proj_col = matkit.spectral_norm(r - q_c @ (q_c.T @ r))
    q_r = matkit.thin_qr(a_s.T).Q
    proj_row = matkit.spectral_norm(r - (r @ q_r) @ q_r.T)
    observed = matkit.spectral_norm(r - r[:, p] @ factors.M_a @ a_s)
    bound = gamma_next * (eta_p * norm_t22 + eta_s * norm_t_hat)
    tol = 1e-9 * matkit.spectral_norm(r)
    checks = {
        "interp_cols_upper": interp_col <= gamma_next * norm_t22 * eta_p + tol,
        "interp_cols_lower": gamma_next * psi_min_t22 <= interp_col + tol,
        "interp_rows_upper": interp_row <= gamma_next * norm_t_hat * eta_s + tol,
        "interp_rows_lower": gamma_next * psi_min_t_hat <= interp_row + tol,
        "proj_cols_upper": proj_col <= gamma_next * norm_t22 * eta_p + tol,
        "proj_rows_upper": proj_row <= gamma_next * norm_t_hat * eta_s + tol,
        "cur_upper": observed <= bound + tol,
    }
    values = (
        gamma_next, eta_p, eta_s, norm_t22, norm_t_hat, psi_min_t22, psi_min_t_hat,
        interp_col, interp_row, proj_col, proj_row, observed, bound,
    )
    return [float(v).hex() for v in values], checks


@pytest.mark.parametrize("only_a", [False, True])
@pytest.mark.parametrize(
    "seed,m,d,n,k", [(0, 30, 30, 8, 3), (1, 200, 60, 40, 1), (2, 400, 120, 120, 30)]
)
def test_bounds_match_fresh_gsvd_reference_bitwise(seed, m, d, n, k, only_a):
    rng = np.random.default_rng(1500 + seed)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal((d, n))
    run = gcur_only_a if only_a else gcur
    f = run(a, b, k)
    rep = evaluate_bounds(a, b, f)
    values, checks = evaluate_bounds_fresh_gsvd(a, b, f)
    assert [float(v).hex() for v in rep[:-1]] == values
    assert rep.checks == checks
    # the storage order of A or of B changes no bit: each side goes through
    # its owned triangle
    modes = ("cur", "column", "row")
    errors = [relative_errors(a, b, f, mode) for mode in modes]
    names = ("p", "s_a", "s_b", "M_a", "M_b", "U_k", "R_a", "R_b", "V_k", "Qb_p", "Qb_s")
    for order_a in ("C", "F"):
        for order_b in ("C", "F"):
            a_o, b_o = np.asarray(a, order=order_a), np.asarray(b, order=order_b)
            f_o = run(a_o, b_o, k)
            for name in names:
                want, got = getattr(f, name), getattr(f_o, name)
                assert (got is None and want is None) or got.tobytes() == want.tobytes()
            assert evaluate_bounds(a_o, b_o, f_o) == rep
            for mode, err in zip(modes, errors):
                assert relative_errors(a_o, b_o, f_o, mode) == err


def cur_error(a, p, m, s):
    """Absolute 2-norm error ||A - A[:, p] @ M @ A[s, :]|| of a CUR approximation."""
    return matkit.spectral_norm(a - a[:, p] @ m @ a[s, :])


def explicit_errors(x, p, s, m):
    """Column and row projection errors and the CUR error, from m x n residuals."""
    c, r = x[:, p], x[s, :]
    return {
        "column": matkit.spectral_norm(x - c @ np.linalg.lstsq(c, x, rcond=None)[0]),
        "row": matkit.spectral_norm(x - np.linalg.lstsq(r.T, x.T, rcond=None)[0].T @ r),
        "cur": cur_error(x, p, m, s),
    }


def explicit_residual_norms(a, factors):
    """The five residual norms from m x n residuals of A itself."""
    k = factors.p.size
    q_k = matkit.thin_qr(factors.Y).Q[:, :k]
    errors = explicit_errors(a, factors.p, factors.s_a, factors.M_a)
    return (
        matkit.spectral_norm(a - deim.interp_project(q_k, factors.p, a, side="right")),
        matkit.spectral_norm(a - deim.interp_project(factors.U_k, factors.s_a, a)),
        errors["column"],
        errors["row"],
        errors["cur"],
    )


def exact_rank(rng, m, n, rank):
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


@pytest.mark.parametrize("only_a", [False, True])
@pytest.mark.parametrize(
    "case,m,n,k",
    [
        ("tall", 300, 40, 12),
        ("tall", 120, 30, 1),
        ("square", 40, 40, 9),
        ("square", 25, 25, 1),
        ("exact-rank", 200, 30, 6),
    ],
)
def test_bound_residuals_match_explicit_formulas(case, m, n, k, only_a):
    rng = np.random.default_rng(len(case) * 1000 + m + n + k)
    if case == "exact-rank":
        a = exact_rank(rng, m, n, k) + 1e-6 * exact_rank(rng, m, n, n - 2)
    else:
        a = rng.standard_normal((m, n)) * np.logspace(0, -3, n)
    b = rng.standard_normal((n + 10, n))
    f = (gcur_only_a if only_a else gcur)(a, b, k)
    rep = evaluate_bounds(a, b, f)
    got = (
        rep.interp_col_error,
        rep.interp_row_error,
        rep.proj_col_error,
        rep.proj_row_error,
        rep.observed_error,
    )
    want = explicit_residual_norms(a, f)
    norm_a = matkit.spectral_norm(a)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * norm_a, (got, want)
    assert all(rep.checks.values()), rep.checks
    # relative_errors scores each side on its matrix's triangle. Near exact
    # rank the errors sit near the rounding level of ||A||, so there they
    # match to 1e-12 of ||A||, like the residuals above, not of themselves.
    want_a = dict(zip(("column", "row", "cur"), want[2:]))
    want_b = None if only_a else explicit_errors(b, f.p, f.s_b, f.M_b)
    norm_b = matkit.spectral_norm(b)
    abs_a = 1e-12 if case == "exact-rank" else 0
    for mode in ("cur", "column", "row"):
        err_a, err_b = relative_errors(a, b, f, mode)
        assert err_a == pytest.approx(want_a[mode] / norm_a, rel=1e-12, abs=abs_a)
        if only_a:
            assert err_b is None
        else:
            assert err_b == pytest.approx(want_b[mode] / norm_b, rel=1e-12, abs=0)


def test_carried_u_k_owns_its_data():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((50, 12))
    f = gcur(a, rng.standard_normal((20, 12)), 4)
    for x in (f.U_k, f.Ur_k, f.R_a, f.A_s, f.Q_p, f.Q_s):
        assert x.base is None and x.flags.owndata
    assert f.U_k.shape == (50, 4) and f.Y.shape == (12, 12) and f.gamma.shape == (12,)
    assert f.R_a.shape == (12, 12) and f.Ur_k.shape == (12, 4)
    assert f.A_s.shape == (4, 12)
    assert f.Q_p.shape == f.Q_s.shape == (12, 4)


@pytest.mark.parametrize("m,k", [(50, 4), (50, 1), (12, 4)])
def test_carried_u_k_is_lifted_from_the_triangle(m, k):
    rng = np.random.default_rng(16 + m + k)
    a = rng.standard_normal((m, 12))
    b = rng.standard_normal((20, 12))
    f = gcur(a, b, k)
    if m > 12:
        q_a, r_a = matkit.thin_qr(a)
        assert np.array_equal(f.R_a, r_a)
        # lifted by the reflectors, without forming Q_A
        assert np.max(np.abs(q_a @ f.Ur_k - f.U_k)) <= 1e-14
    else:
        assert np.array_equal(f.R_a, a)
        assert np.array_equal(f.Ur_k, f.U_k)
        assert not np.shares_memory(f.Ur_k, f.U_k)
    # the lifted U_k spans the leading directions of the pair's own GSVD
    u = gsvd(a, b).U[:, :k]
    assert np.allclose(f.U_k, u, atol=1e-12)


def test_each_side_drops_its_reflectors_once_its_basis_is_lifted(monkeypatch):
    # a tall A's m x n reflectors are not held while s_a is selected and M_a
    # built, nor a tall B's d x n ones while s_b is
    import sys
    import weakref

    gsvd_module = sys.modules["gcurkit.gsvd"]
    lifts, alive = [], []
    reduce, select = gsvd_module._reduce, deim.deim_select

    def spy_reduce(x):
        r, lift = reduce(x)
        lifts.append(weakref.ref(lift))
        return r, lift

    def spy_select(basis, k):
        alive.append([ref() is not None for ref in lifts])
        return select(basis, k)

    monkeypatch.setattr(gsvd_module, "_reduce", spy_reduce)
    monkeypatch.setattr(deim, "deim_select", spy_select)
    rng = np.random.default_rng(0)
    gcur(rng.standard_normal((50, 8)), rng.standard_normal((20, 8)), 3)
    # selections of p, s_a and s_b, in that order
    assert alive == [[True, True], [False, True], [False, False]]


def test_bounds_reject_factors_of_another_shape():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((30, 8))
    b = rng.standard_normal((20, 8))
    f = gcur(a, b, 3)
    with pytest.raises(DimensionError, match="carried GSVD factors"):
        evaluate_bounds(rng.standard_normal((31, 8)), b, f)  # other row count
    with pytest.raises(DimensionError, match="carried GSVD factors"):
        evaluate_bounds(rng.standard_normal((30, 9)), rng.standard_normal((20, 9)), f)
    with pytest.raises(DimensionError, match="share column counts"):
        evaluate_bounds(a, rng.standard_normal((20, 9)), f)
    with pytest.raises(DimensionError, match="carried GSVD factors"):
        relative_errors(rng.standard_normal((31, 8)), b, f)
    # carried projection bases of another shape
    for bad in (f._replace(Q_p=f.Q_p[:, :2]), f._replace(Q_s=f.Q_s.T.copy())):
        with pytest.raises(DimensionError, match="carried GSVD factors"):
            evaluate_bounds(a, b, bad)
        for mode in ("column", "row"):
            with pytest.raises(DimensionError, match="carried GSVD factors"):
                relative_errors(a, b, bad, mode)
    with pytest.raises(ValueError, match="mode must be"):
        relative_errors(a, b, f, "oblique")


@pytest.mark.parametrize("only_a", [False, True])
@pytest.mark.parametrize("m,n,k", [(60, 12, 5), (12, 12, 4), (300, 40, 12)])
def test_scorers_reuse_the_carried_bases(monkeypatch, m, n, k, only_a):
    # evaluate_bounds takes one QR, of Y; the projections of both sides read
    # the bases gcur kept for M_a and M_b and give the bits of a fresh QR of
    # each factor
    rng = np.random.default_rng(20 + m + k)
    a = rng.standard_normal((m, n)) * np.logspace(0, -2, n)
    b = rng.standard_normal((n + 5, n))
    f = (gcur_only_a if only_a else gcur)(a, b, k)
    norm_r = matkit.spectral_norm(f.R_a)
    fresh = {
        "column": curfac._projection(f.R_a, f.R_a[:, f.p], "column", "C")[1],
        "row": curfac._projection(f.R_a, f.A_s, "row", "R")[1],
    }
    factored = []
    thin_qr = matkit.thin_qr

    def counted(x):
        factored.append(x)
        return thin_qr(x)

    monkeypatch.setattr(matkit, "thin_qr", counted)
    rep = evaluate_bounds(a, b, f)
    assert len(factored) == 1 and factored[0] is f.Y
    assert rep.proj_col_error == fresh["column"]
    assert rep.proj_row_error == fresh["row"]
    factored.clear()
    for mode in ("column", "row"):
        err_a, _ = relative_errors(a, b, f, mode)
        assert err_a == fresh[mode] / norm_r
    # B's projections read the carried Qb_p and Qb_s, so no side takes a QR
    assert not factored


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d,n,k", [(9, 6, 3), (70, 60, 20)])
def test_b_side_carries_the_bases_of_its_middle_matrix(order, d, n, k):
    # Qb_p and Qb_s are the Q's of fresh QRs of R_b[:, p] and B[s_b, :]^T,
    # and B's projections read them with the bits of a fresh projection of
    # B's triangle R_b
    rng = np.random.default_rng(30 + d)
    a = rng.standard_normal((d + 11, n))
    b = np.asarray(rng.standard_normal((d, n)), order=order)
    f = gcur(a, b, k)
    assert f.Qb_p.shape == (n, k) and f.Qb_s.shape == (n, k)
    assert f.R_b.shape == (n, n) and f.V_k.shape == (d, k)
    for x in (f.Qb_p, f.Qb_s, f.R_b, f.V_k):
        assert x.base is None and x.flags.owndata
    b_s = b[f.s_b, :]
    assert np.array_equal(f.Qb_p, matkit.thin_qr(f.R_b[:, f.p]).Q)
    assert np.array_equal(f.Qb_s, matkit.thin_qr(b_s.T).Q)
    norm_b = matkit.spectral_norm(f.R_b)
    fresh = {
        "column": curfac._projection(f.R_b, f.R_b[:, f.p], "column", "C")[1],
        "row": curfac._projection(f.R_b, b_s, "row", "R")[1],
    }
    for mode, err in fresh.items():
        assert relative_errors(a, b, f, mode)[1] == err / norm_b
    assert np.array_equal(f.B_s, b_s)
    only_a = gcur_only_a(a, b, k)
    for name in ("Qb_p", "Qb_s", "B_s", "R_b", "V_k"):
        assert getattr(only_a, name) is None
    assert len(f) == len(only_a) == 20


@pytest.mark.parametrize("m", [30, 8])
def test_bounds_reject_a_foreign_matrix_of_the_same_shape(m):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((m, 8))
    b = rng.standard_normal((20, 8))
    f = gcur(a, b, 3)
    with pytest.raises(ContractViolationError, match="column norms"):
        evaluate_bounds(rng.standard_normal((m, 8)), b, f)
    with pytest.raises(ContractViolationError, match="column norms"):
        evaluate_bounds(2.0 * a, b, f)
    # the same A in another storage order is the same matrix
    assert evaluate_bounds(np.ascontiguousarray(a), b, f) == evaluate_bounds(a, b, f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_bounds_reject_a_non_finite_or_huge_carried_triangle(bad):
    # an inf in the carried R_a made the gap and its scale both inf, so the
    # check passed and numpy warned in a later matmul instead
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((20, 6)), rng.standard_normal((9, 6))
    f = gcur(a, b, 3)
    r_a = f.R_a.copy()
    r_a[0, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match="column norms"):
            evaluate_bounds(a, b, f._replace(R_a=r_a))


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e307])
def test_same_pair_check_holds_at_any_finite_scale(scale):
    # squaring A's entries overflowed from a column norm of about 1.3e154
    # on, and the check refused the factors gcur had just built from A
    rng = np.random.default_rng(0)
    a, b = scale * rng.standard_normal((20, 6)), rng.standard_normal((9, 6))
    f = gcur(a, b, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(evaluate_bounds(a, b, f).checks.values())
        for mode in ("cur", "column", "row"):
            assert np.isfinite(relative_errors(a, b, f, mode)).all()
        with pytest.raises(ContractViolationError, match="column norms"):
            evaluate_bounds(2.0 * a, b, f)


@pytest.mark.parametrize("only_a", [False, True])
@pytest.mark.parametrize("m", [20, 8])
def test_bounds_and_errors_reject_a_nan_a(m, only_a):
    # a NaN or +-inf anywhere in A, even outside the selected rows, is
    # refused at the boundary instead of scoring the factors of the clean A
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, 6))
    b = rng.standard_normal((9, 6))
    f = (gcur_only_a if only_a else gcur)(a, b, 3)
    row = next(i for i in range(m) if i not in f.s_a)
    for bad in (np.nan, np.inf, -np.inf):
        a_bad = a.copy()
        a_bad[row, 2] = bad
        with pytest.raises(ContractViolationError, match="A contains non-finite entries"):
            evaluate_bounds(a_bad, b, f)
        for mode in ("cur", "column", "row"):
            with pytest.raises(ContractViolationError, match="A contains non-finite entries"):
                relative_errors(a_bad, b, f, mode)


@pytest.mark.parametrize("mode", ["cur", "column", "row"])
@pytest.mark.parametrize("bad", ["zero", np.nan, np.inf, -np.inf])
def test_errors_reject_a_b_that_cannot_have_produced_the_factors(bad, mode):
    # 0*B used to end in a bare ZeroDivisionError, and a NaN or +-inf entry
    # in a RuntimeWarning and then ConvergenceError or SingularMatrixError
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((20, 6)), rng.standard_normal((9, 6))
    f = gcur(a, b, 3)
    if bad == "zero":
        b_bad, match = 0.0 * b, r"rows B\[s_b, :\] differ"
    else:
        b_bad, match = b.copy(), "B contains non-finite entries"
        b_bad[4, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match=match):
            relative_errors(a, b_bad, f, mode)
        err_a, err_b = relative_errors(a, b, f, mode)
    assert np.isfinite(err_a) and np.isfinite(err_b)


@pytest.mark.parametrize("only_a", [False, True])
@pytest.mark.parametrize("m", [30, 8])
def test_bounds_reject_row_permuted_a(m, only_a):
    # A[perm] keeps A's column norms and triangle; only the rows tell
    rng = np.random.default_rng(18)
    a = rng.standard_normal((m, 8))
    b = rng.standard_normal((20, 8))
    f = (gcur_only_a if only_a else gcur)(a, b, 3)
    assert np.array_equal(f.A_s, a[f.s_a, :])
    with pytest.raises(ContractViolationError, match="carried A_s"):
        evaluate_bounds(a[::-1], b, f)
    for mode in ("cur", "column", "row"):
        with pytest.raises(ContractViolationError, match="carried A_s"):
            relative_errors(a[::-1], b, f, mode)
    assert all(evaluate_bounds(a, b, f).checks.values())


@pytest.mark.parametrize("m", [12, 40])
def test_middle_matrix_of_a_from_the_triangle(m):
    rng = np.random.default_rng(19 + m)
    a = rng.standard_normal((m, 12))
    f = gcur(a, rng.standard_normal((20, 12)), 5)
    want = middle_matrix(a, f.p, f.s_a)
    if m == 12:  # a square A is its own triangle: the bits of middle_matrix
        assert f.M_a.tobytes() == want.tobytes()
    else:
        assert np.linalg.norm(f.M_a - want) <= 1e-12 * np.linalg.norm(want)


def test_bounds_exact_rank_case():
    rng = np.random.default_rng(77)
    k = 3
    a = rng.standard_normal((12, k)) @ rng.standard_normal((k, 7))
    f = gcur(a, np.eye(7), k)
    rep = evaluate_bounds(a, np.eye(7), f)
    scale = matkit.spectral_norm(a)
    assert rep.observed_error <= 1e-10 * max(1.0, scale)
    assert rep.gamma_next <= 1e-10
    assert all(rep.checks.values())


def test_bounds_diag_full_truncation():
    a = np.diag([5.0, 3.0, 1.0, 0.5])
    f = gcur(a, np.eye(4), 3)
    rep = evaluate_bounds(a, np.eye(4), f)
    assert all(rep.checks.values())
    assert rep.observed_error <= rep.bound + 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["A", "B"])
def test_reconstruct_rejects_non_finite_input(side, bad):
    # a non-finite entry where the reconstruction reads it (row s[0],
    # column p[0]) raises instead of returning NaN or warning in matmul
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 6))
    b = rng.standard_normal((9, 6))
    f = gcur(a, b, 3)
    assert np.array_equal(reconstruct_a(a, f), a[:, f.p] @ f.M_a @ a[f.s_a, :])
    assert np.array_equal(reconstruct_b(b, f), b[:, f.p] @ f.M_b @ b[f.s_b, :])
    if side == "A":
        a[f.s_a[0], f.p[0]] = bad
        with pytest.raises(ContractViolationError, match="A contains non-finite"):
            reconstruct_a(a, f)
    else:
        b[f.s_b[0], f.p[0]] = bad
        with pytest.raises(ContractViolationError, match="B contains non-finite"):
            reconstruct_b(b, f)


@pytest.mark.filterwarnings("error")
def test_products_beyond_float64_raise():
    # middle matrices scaled by 1e308 make C M R overflow in matmul: a
    # GcurkitError that says so, not a RuntimeWarning. A * 1e300 and
    # B * 1e300 overflowed the same way until the carried rows A_s and B_s
    # were checked; they now fail that check first. At unit scale the bits
    # are the plain products'
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((20, 6)), rng.standard_normal((9, 6))
    f = gcur(a, b, 3)
    huge = f._replace(M_a=f.M_a * 1e308, M_b=f.M_b * 1e308)
    for call in (
        lambda: reconstruct_a(a, huge),
        lambda: reconstruct_b(b, huge),
        lambda: relative_errors(a, b, huge),
    ):
        with pytest.raises(ContractViolationError, match="not representable in float64"):
            call()
    for call in (
        lambda: reconstruct_a(a * 1e300, f),
        lambda: reconstruct_b(b * 1e300, f),
        lambda: relative_errors(a, b * 1e300, f),
    ):
        with pytest.raises(ContractViolationError, match="differ from the carried"):
            call()
    assert np.array_equal(reconstruct_a(a, f), a[:, f.p] @ f.M_a @ a[f.s_a, :])
    assert np.array_equal(reconstruct_b(b, f), b[:, f.p] @ f.M_b @ b[f.s_b, :])
    # err_b is scored on B's triangle: it agrees with the explicit d-row
    # error to 1e-14 ||B|| (relative: to 1e-14)
    err_b = matkit.spectral_norm(b - b[:, f.p] @ f.M_b @ b[f.s_b, :])
    assert abs(relative_errors(a, b, f)[1] - err_b / matkit.spectral_norm(b)) <= 1e-14


def test_a_foreign_matrix_of_the_same_shape_is_not_scored_or_rebuilt():
    # factors of (A, B) used to score a same-shape B2 silently (err_b 1.534
    # in "cur" mode, against 0.896 for B; 0.856 and 0.836 in the projection
    # modes) and to rebuild it; B with its rows reversed scored 1.687. The
    # carried B_s = B[s_b, :] now has to match bit for bit, as A_s does
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((20, 6)), rng.standard_normal((9, 6))
    f = gcur(a, b, 3)
    for other in (np.random.default_rng(5).standard_normal((9, 6)), b[::-1]):
        for mode in ("cur", "column", "row"):
            with pytest.raises(ContractViolationError, match=r"rows B\[s_b, :\] differ"):
                relative_errors(a, other, f, mode)
        with pytest.raises(ContractViolationError, match=r"rows B\[s_b, :\] differ"):
            reconstruct_b(other, f)
    with pytest.raises(ContractViolationError, match=r"rows A\[s_a, :\] differ"):
        reconstruct_a(np.random.default_rng(5).standard_normal((20, 6)), f)
    # the same B in another storage order is the same matrix
    same = np.asfortranarray(b)
    assert relative_errors(a, same, f) == relative_errors(a, b, f)
    assert np.array_equal(reconstruct_b(same, f), reconstruct_b(b, f))


@pytest.mark.parametrize("side,rows", [("A", 10), ("A", 30), ("B", 6), ("B", 12)])
def test_a_matrix_of_another_row_count_raises(side, rows):
    # the factors came from a 20x6 A and a 9x6 B; fewer rows used to end in
    # a bare IndexError (s_a = [13, 12, 6], s_b = [5, 0, 6]) and more rows
    # in a silent score or reconstruction of a matrix they never saw
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((20, 6)), rng.standard_normal((9, 6))
    f = gcur(a, b, 3)
    assert f.s_a.tolist() == [13, 12, 6] and f.s_b.tolist() == [5, 0, 6]
    other = np.random.default_rng(1).standard_normal((rows, 6))
    if side == "A":
        with pytest.raises(DimensionError, match=f"A is {rows}x6, but .* a 20x6 A"):
            reconstruct_a(other, f)
        return
    with pytest.raises(DimensionError, match=f"B is {rows}x6, but .* a 9x6 B"):
        reconstruct_b(other, f)
    for mode in ("cur", "column", "row"):
        with pytest.raises(DimensionError, match=r"carried GSVD factors \(V_k \(9, 3\)\)"):
            relative_errors(a, other, f, mode)
    # factors without B's side score A alone, whatever B's row count
    assert relative_errors(a, other, gcur_only_a(a, b, 3))[1] is None


def test_subspace_gap_optimal_basis():
    rng = np.random.default_rng(91)
    a = rng.standard_normal((10, 6))
    z = matkit.svd(a).Z[:, :2]
    gap = svd_subspace_gap(a, z)
    psi = matkit.svd(a).psi
    assert gap.value == pytest.approx(psi[2] ** 2, rel=1e-9)
    assert gap.upper_refined == pytest.approx(gap.lower, rel=1e-9)


def test_subspace_gap_diag_example():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 20.0, 300.0])
    g = gsvd(a, b)
    q1 = matkit.thin_qr(g.Y[:, :1]).Q
    # leading right generalized direction is +-e1; leading right singular is +-e3
    assert abs(q1[0, 0]) == pytest.approx(1.0, abs=1e-12)
    z1 = matkit.svd(a).Z[:, :1]
    assert abs(z1[2, 0]) == pytest.approx(1.0, abs=1e-12)
    assert matkit.max_principal_angle(q1, z1) == pytest.approx(np.pi / 2, abs=1e-10)
    gap = svd_subspace_gap(a, q1)
    assert gap.value == pytest.approx(9.0, abs=1e-10)
    assert gap.lower == pytest.approx(4.0, abs=1e-10)
    assert gap.lower <= gap.value <= gap.upper_coarse + 1e-12
    assert gap.value <= gap.upper_refined + 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_subspace_gap_sandwich_random(seed):
    rng = np.random.default_rng(800 + seed)
    a = rng.standard_normal((12, 7))
    q = np.linalg.qr(rng.standard_normal((7, 3)))[0]
    gap = svd_subspace_gap(a, q)
    assert gap.lower <= gap.value + 1e-10
    assert gap.value <= gap.upper_coarse + 1e-10
    assert gap.value <= gap.upper_refined + 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_subspace_gap_rejects_unrepresentable_squares(scale):
    # psi^2 of A * 1e154 and beyond overflows float64: a GcurkitError, not a
    # bare OverflowError; one decade lower the gap is finite and scales
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 6))
    q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    with pytest.raises(ContractViolationError, match="not representable in float64"):
        svd_subspace_gap(a * scale, q)
    small = svd_subspace_gap(a * 1e153, q)
    unit = svd_subspace_gap(a, q)
    assert np.isfinite(small).all()
    assert small.value == pytest.approx(unit.value * 1e306, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_subspace_gap_rejects_a_bound_that_sums_to_inf():
    # every square is finite, but psi_2^2 + ||A||^2 sin^2 is not
    a = np.diag([1.3e154, 1.3e154, 1.0])
    with pytest.raises(ContractViolationError, match="not representable in float64"):
        svd_subspace_gap(a, np.array([[0.0], [0.0], [1.0]]))


@pytest.mark.slow
def test_only_a_is_faster_at_scale():
    # interleaved best-of-5 minima; k large enough that the skipped B-side
    # work dominates scheduler noise
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2000, 300))
    b = rng.standard_normal((2000, 300))
    k = 100
    t_full, t_only = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        gcur(a, b, k)
        t_full.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        gcur_only_a(a, b, k)
        t_only.append(time.perf_counter() - t0)
    assert min(t_only) < min(t_full)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_contract_violation(bad):
    # refused at the boundary, before gcur's GSVD of (R_A, B) would fail its
    # rank test's SVD (ConvergenceError there, not numpy's bare LinAlgError)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((20, 6)), rng.standard_normal((9, 6))
    a[3, 2] = bad
    for run in (gcur, gcur_only_a):
        with pytest.raises(ContractViolationError, match="A contains non-finite entries"):
            run(a, b, 3)
        with pytest.raises(ContractViolationError, match="B contains non-finite entries"):
            run(b, a, 3)
