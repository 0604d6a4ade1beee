import re
import warnings

import numpy as np
import pytest

from gcurkit import curfac, deim, gcur, matkit
from gcurkit.curfac import deim_cur, interpolative, middle_matrix
from gcurkit.errors import (
    ContractViolationError,
    DimensionError,
    FullRankError,
    SingularMatrixError,
)


def reconstruct(a, factors):
    """Materialize C @ M @ R for CUR factors of A."""
    return a[:, factors.p] @ factors.M @ a[factors.s, :]


def test_diagonal_case():
    a = np.diag([3.0, 2.0, 1.0])
    f = deim_cur(a, 2)
    assert f.p.tolist() == [0, 1]
    assert f.s.tolist() == [0, 1]
    assert matkit.spectral_norm(a - reconstruct(a, f)) == pytest.approx(1.0, abs=1e-10)


def test_rank_one_exactness():
    a = np.outer([4.0, 2.0], [2.0, 1.0])
    f = deim_cur(a, 1)
    assert f.p.tolist() == [0]
    assert f.s.tolist() == [0]
    assert matkit.spectral_norm(a - reconstruct(a, f)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_projection_error_triangle_bound(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((15, 9))
    f = deim_cur(a, 4)
    c = a[:, f.p]
    r = a[f.s, :]
    err = matkit.spectral_norm(a - reconstruct(a, f))
    col_resid = matkit.spectral_norm(a - c @ np.linalg.lstsq(c, a, rcond=None)[0])
    row_resid = matkit.spectral_norm(a - np.linalg.lstsq(r.T, a.T, rcond=None)[0].T @ r)
    assert err <= col_resid + row_resid + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_projection_factor_residual_optimality(seed):
    # C^+ A minimizes ||C X - A|| over X, and A R^+ minimizes ||X R - A||
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((12, 7))
    idx = rng.permutation(7)[:3]
    x, err = curfac.projection_error(a, idx, "column")
    c = a[:, idx]
    assert matkit.spectral_norm(c @ x - a) == pytest.approx(err, rel=1e-12)
    for _ in range(100):
        x_pert = x + 1e-3 * rng.standard_normal(x.shape)
        assert err <= matkit.spectral_norm(c @ x_pert - a) + 1e-12
    rows = rng.permutation(12)[:3]
    y, err = curfac.projection_error(a, rows, "row")
    r = a[rows, :]
    for _ in range(100):
        y_pert = y + 1e-3 * rng.standard_normal(y.shape)
        assert err <= matkit.spectral_norm(y_pert @ r - a) + 1e-12


def test_projection_factors_match_pseudoinverse():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((9, 6))
    x, _ = curfac.projection_error(a, [4, 0, 2], "column")
    assert np.allclose(x, np.linalg.pinv(a[:, [4, 0, 2]]) @ a, atol=1e-12)
    y, _ = curfac.projection_error(a, [1, 7], "row")
    assert np.allclose(y, a @ np.linalg.pinv(a[[1, 7], :]), atol=1e-12)


def test_projection_error_rejects_rank_deficient_factor():
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 3.0]])
    with pytest.raises(FullRankError, match=re.escape("column factor A[:, p] is rank deficient")):
        curfac.projection_error(a, [0, 1], "column")
    with pytest.raises(FullRankError, match=re.escape("row factor A[s, :] is rank deficient")):
        curfac.projection_error(a.T, [0, 1], "row")
    with pytest.raises(FullRankError, match="rank deficient"):
        curfac.projection_error(a[:2], [0, 1, 2], "column")  # more columns than rows


@pytest.mark.parametrize("mode, extent", [("column", 6), ("row", 20)])
def test_projection_error_validates_indices(mode, extent):
    # a negative index used to wrap to the last column, and an index past the
    # end or a float index ended in a bare IndexError
    a = np.random.default_rng(0).standard_normal((20, 6))
    for bad in ([-1, 0], [99], [1.5], [extent], [0, 0], []):
        with pytest.raises(DimensionError):
            curfac.projection_error(a, bad, mode)
    factor, err = curfac.projection_error(a, [extent - 1, 0], mode)
    sel = a[:, [extent - 1, 0]] if mode == "column" else a[[extent - 1, 0], :]
    want = np.linalg.pinv(sel) @ a if mode == "column" else a @ np.linalg.pinv(sel)
    assert np.allclose(factor, want, atol=1e-12) and np.isfinite(err)


@pytest.mark.parametrize("seed", range(6))
def test_middle_matrix_optimality(seed):
    # the pseudoinverse middle matrix minimizes the Frobenius-norm error
    rng = np.random.default_rng(40 + seed)
    a = rng.standard_normal((12, 8))
    f = deim_cur(a, 3)
    base = np.linalg.norm(a - reconstruct(a, f))
    c = a[:, f.p]
    r = a[f.s, :]
    for _ in range(100):
        m_pert = f.M + 1e-3 * rng.standard_normal(f.M.shape)
        assert base <= np.linalg.norm(a - c @ m_pert @ r) + 1e-12


def test_middle_matrix_reproducible():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 7))
    f = deim_cur(a, 3)
    again = middle_matrix(a, f.p, f.s)
    assert np.max(np.abs(again - f.M)) <= 1e-9


@pytest.mark.parametrize("shape", [(30, 12), (12, 30)])
def test_middle_matrix_matches_pseudoinverse_product(shape):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(shape)
    m, n = shape
    for k in (1, 5, min(m, n) - 1):
        p = rng.choice(n, k, replace=False)
        s = rng.choice(m, k, replace=False)
        ref = np.linalg.pinv(a[:, p]) @ a @ np.linalg.pinv(a[s, :])
        got = middle_matrix(a, p, s)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_middle_matrix_rejects_duplicated_column_or_row():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((20, 10))
    a[:, 3] = a[:, 0]
    with pytest.raises(FullRankError, match=r"^column factor A\[:, p\]"):
        middle_matrix(a, [0, 3], [1, 2])
    a = rng.standard_normal((20, 10))
    a[5, :] = a[2, :]
    with pytest.raises(FullRankError, match=r"^row factor A\[s, :\]"):
        middle_matrix(a, [0, 3], [2, 5])


def _deim_prefixes(a, kmax):
    f = matkit.svd(a)
    return deim.deim_select(f.Z[:, :kmax], kmax), deim.deim_select(f.W[:, :kmax], kmax)


def test_nested_middle_matrices_match_each_prefix():
    a = np.random.default_rng(11).standard_normal((80, 50))
    p, s = _deim_prefixes(a, 12)
    ks = (1, 3, 7, 12)
    got, _, _ = curfac._nested_middle_matrices(a, p, a[s, :], [(k, k) for k in ks])
    for k, m in zip(ks, got):
        want = middle_matrix(a, p[:k], s[:k])
        assert m.shape == (k, k)
        assert np.linalg.norm(m - want) <= 1e-12 * np.linalg.norm(want)
    # the full-length case is middle_matrix itself, bit for bit
    assert got[-1].tobytes() == middle_matrix(a, p, s).tobytes()


@pytest.mark.parametrize(
    "side,what", [("column", "column factor A[:, p]"), ("row", "row factor A[s, :]")]
)
def test_nested_middle_matrices_reject_dependent_prefix(side, what):
    rng = np.random.default_rng(12)
    a = rng.standard_normal((40, 30))
    p, s = np.array([4, 9, 17, 21, 2]), np.array([8, 1, 30, 12, 5])
    if side == "column":
        a[:, 17] = a[:, 4]  # p[:3] is dependent
    else:
        a[30, :] = 2.0 * a[8, :]  # s[:3] is dependent
    curfac._nested_middle_matrices(a, p, a[s, :], [(2, 2)])  # shorter prefixes stay valid
    for call in (
        lambda: middle_matrix(a, p[:3], s[:3]),
        lambda: curfac._nested_middle_matrices(a, p, a[s, :], [(2, 2), (3, 3), (5, 5)]),
    ):
        with pytest.raises(FullRankError, match=rf"^{re.escape(what)} is rank deficient"):
            call()


@pytest.mark.parametrize("m,n,k", [(80, 50, 12), (51, 50, 1), (300, 40, 39)])
def test_nested_middle_matrices_from_the_triangle(m, n, k):
    # with A = Q R, the column side on R gives A's middle matrices
    a = np.random.default_rng(m + n + k).standard_normal((m, n))
    p, s = _deim_prefixes(a, k)
    r = matkit.thin_qr(a).T
    ks = sorted({1, max(1, k // 2), k})
    got, _, _ = curfac._nested_middle_matrices(r, p, a[s, :], [(j, j) for j in ks])
    for j, m_j in zip(ks, got):
        want = middle_matrix(a, p[:j], s[:j])
        assert np.linalg.norm(m_j - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "side,what", [("column", "column factor A[:, p]"), ("row", "row factor A[s, :]")]
)
def test_nested_middle_matrices_from_the_triangle_name_the_factor(side, what):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((60, 30))
    p, s = np.array([4, 9, 17, 21, 2]), np.array([8, 1, 50, 12, 5])
    if side == "column":
        a[:, 17] = a[:, 4]
    else:
        a[50, :] = 2.0 * a[8, :]
    r = matkit.thin_qr(a).T
    with pytest.raises(FullRankError, match=rf"^{re.escape(what)} is rank deficient"):
        curfac._nested_middle_matrices(r, p, a[s, :], [(5, 5)])


def test_middle_matrix_rejects_more_columns_than_rows():
    a = np.random.default_rng(4).standard_normal((3, 10))
    with pytest.raises(FullRankError, match=r"^column factor A\[:, p\]"):
        middle_matrix(a, [0, 1, 2, 4], [0, 1])


def test_rank_bounds_error():
    with pytest.raises(DimensionError):
        deim_cur(np.eye(4), 4)


@pytest.mark.parametrize("select", [deim_cur, interpolative])
def test_degenerate_spectrum_warns(select):
    # the warning names the public function's caller, here this file
    with pytest.warns(UserWarning, match="coincide") as record:
        select(np.eye(5), 2)
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("scale", [1.0, 1e-13])
def test_rank_and_degeneracy_tests_are_scale_invariant(scale):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 10))
    b = rng.standard_normal((12, 10))
    ref = gcur(a, b, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = gcur(scale * a, b, 4)
        cols = interpolative(scale * a, 4, mode="column")
        rows = interpolative(scale * a, 4, mode="row")
    assert f.p.tolist() == ref.p.tolist()
    assert f.s_a.tolist() == ref.s_a.tolist()
    assert cols.indices.tolist() == interpolative(a, 4, mode="column").indices.tolist()
    assert rows.indices.tolist() == interpolative(a, 4, mode="row").indices.tolist()


def test_interpolative_column_diag():
    a = np.diag([3.0, 2.0, 1.0])
    out = interpolative(a, 2, mode="column")
    assert out.indices.tolist() == [0, 1]
    assert np.allclose(out.factor, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-12)


def test_interpolative_spanning_case_exact():
    rng = np.random.default_rng(3)
    basis = rng.standard_normal((10, 3))
    coeff = rng.standard_normal((3, 8))
    a = basis @ coeff
    out = interpolative(a, 3, mode="column")
    assert out.rel_error <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_projection_bounds_via_identity_pair(seed):
    # projection-error components checked through the pair bound evaluator
    # with an identity second matrix
    from gcurkit.gcur import evaluate_bounds, gcur

    rng = np.random.default_rng(600 + seed)
    a = rng.standard_normal((16, 7))
    f = gcur(a, np.eye(7), 3)
    rep = evaluate_bounds(a, np.eye(7), f)
    assert rep.checks["proj_cols_upper"]
    assert rep.checks["proj_rows_upper"]


@pytest.mark.parametrize("seed", range(8))
def test_row_mode_mirrors_column_mode_on_transpose(seed):
    rng = np.random.default_rng(80 + seed)
    a = rng.standard_normal((11, 7))
    rows = interpolative(a, 3, mode="row")
    cols_of_t = interpolative(a.T, 3, mode="column")
    assert np.array_equal(rows.indices, cols_of_t.indices)


def _fixture_pair():
    rng = np.random.default_rng(0)
    return rng.standard_normal((20, 6)), rng.standard_normal((9, 6))


def test_subnormal_scale_raises_instead_of_a_non_finite_middle_matrix():
    # M scales as 1 / ||A||: at 1e-310 it overflows (to NaN here), at 1e-300
    # it is about 1e299 and finite
    a, b = _fixture_pair()
    with pytest.raises(SingularMatrixError, match=re.escape("middle matrix of A")):
        gcur(a * 1e-310, b, 3)
    with pytest.raises(SingularMatrixError, match=re.escape("middle matrix of A")):
        deim_cur(a * 1e-310, 3)
    f = gcur(a * 1e-300, b, 3)
    assert np.isfinite(f.M_a).all() and np.isfinite(f.M_b).all()
    c = deim_cur(a * 1e-300, 3)
    assert np.isfinite(c.M).all() and np.isfinite(c.rel_error)


@pytest.mark.parametrize("mode", ["column", "row"])
def test_subnormal_scale_raises_instead_of_a_non_finite_projection(mode):
    # C^+ A and A R^+ scale as 1 / ||A|| too: at 1e-310 the factor overflows
    # (to NaN here), at 1e-300 it is finite
    a, _ = _fixture_pair()
    what = "column factor A[:, p]" if mode == "column" else "row factor A[s, :]"
    match = re.escape(f"projection onto {what} is not finite")
    with pytest.raises(SingularMatrixError, match=match):
        interpolative(a * 1e-310, 3, mode)
    idx = interpolative(a, 3, mode).indices
    with pytest.raises(SingularMatrixError, match=match):
        curfac.projection_error(a * 1e-310, idx, mode)
    for scale in (1e-300, 1e-305, 1e-308):
        f = interpolative(a * scale, 3, mode)
        assert np.isfinite(f.factor).all() and np.isfinite(f.rel_error)


def test_middle_matrix_rejects_nan_that_reaches_only_the_core():
    # a NaN outside the selected rows and columns would pass both rank tests
    # and spoil only the core Q_c^T A Q_r; it is refused at the boundary
    a, _ = _fixture_pair()
    a[10, 5] = np.nan
    with pytest.raises(ContractViolationError, match="A contains non-finite entries"):
        middle_matrix(a, [0, 1, 2], [0, 1, 2])


@pytest.mark.parametrize("shape", [(200, 40), (40, 40), (40, 200), (12, 6)])
def test_deim_cur_rel_error_matches_explicit_residual(shape):
    # scored on the SVD's min(m, n)-square factor with ||A|| = psi_1; against
    # ||A - A[:, p] M A[s, :]|| / ||A|| from the m x n residual it agrees to
    # rel 1e-12 (a few ulps of the error in practice)
    rng = np.random.default_rng(shape[0] + shape[1])
    a = rng.standard_normal(shape) * np.logspace(0, -2, shape[1])
    f = deim_cur(a, 5)
    want = matkit.spectral_norm(a - a[:, f.p] @ f.M @ a[f.s, :]) / matkit.spectral_norm(a)
    assert f.rel_error == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("seed", range(40))
def test_storage_order_of_a_changes_no_bit(seed):
    # the products that see the caller's array read it in one order
    # (Fortran, the order the readers return), so C and F copies of one A
    # give the same bits, as gcur's factors do
    rng = np.random.default_rng(3000 + seed)
    m, n = int(rng.integers(8, 40)), int(rng.integers(6, 20))
    a = rng.standard_normal((m, n)) if seed % 2 else rng.standard_normal((n, m)).T
    k = (1, 2, 5)[seed % 3]
    p = deim.deim_select(rng.standard_normal((n, k)), k)
    s = deim.deim_select(rng.standard_normal((m, k)), k)
    runs = []
    for x in (np.ascontiguousarray(a), np.asfortranarray(a)):
        out = [*curfac.deim_cur(x, k), curfac.middle_matrix(x, p, s)]
        for mode, idx in (("column", p), ("row", s)):
            out += [*curfac.interpolative(x, k, mode), *curfac.projection_error(x, idx, mode)]
        runs.append([np.asarray(v).tobytes() for v in out])
    assert runs[0] == runs[1]
