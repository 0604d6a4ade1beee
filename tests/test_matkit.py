import math
import re
import warnings

import numpy as np
import pytest

import gcurkit as gk
from gcurkit import experiments, matkit
from gcurkit.gsvd import gsvd, gsvd_diagnostics
from gcurkit.errors import (
    ContractViolationError,
    ConvergenceError,
    DimensionError,
)

_rng = np.random.default_rng(0)
_A, _B = _rng.standard_normal((20, 6)), _rng.standard_normal((9, 6))


def test_svd_identity():
    f = matkit.svd(np.eye(3))
    assert np.allclose(f.psi, [1.0, 1.0, 1.0], atol=1e-14)


def test_svd_diagonal_sorted_with_axis_vectors():
    f = matkit.svd(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(f.psi, [3.0, 2.0, 1.0], atol=1e-14)
    # singular vectors are signed permutations of the axes
    for mat in (f.W, f.Z):
        assert np.allclose(np.abs(mat), np.abs(mat).round(), atol=1e-12)
        assert np.allclose(np.abs(mat).sum(axis=0), 1.0, atol=1e-12)
    # order: axis of value 3 first, 2 second, 1 third
    assert np.argmax(np.abs(f.W[:, 0])) == 0
    assert np.argmax(np.abs(f.W[:, 1])) == 2
    assert np.argmax(np.abs(f.W[:, 2])) == 1


def test_svd_rank_one_symmetric():
    # eigenvalues of A^T A = [[20,10],[10,5]] are (25, 0), so psi = (5, 0)
    f = matkit.svd(np.array([[4.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(f.psi, [5.0, 0.0], atol=1e-12)


def test_svd_rejects_empty():
    with pytest.raises(DimensionError):
        matkit.svd(np.zeros((0, 3)))


@pytest.mark.parametrize("order", ["C", "F"])
def test_as_matrix_returns_a_float64_array_itself(order):
    a = np.asarray(np.arange(12.0).reshape(3, 4), order=order)
    assert matkit.as_matrix(a) is a
    got = matkit.as_matrix(np.asarray(a, dtype=np.int32, order=order))
    assert got.dtype == np.float64 and np.array_equal(got, a)


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 3))])
def test_as_matrix_rejects_all_but_nonempty_2d(bad):
    with pytest.raises(DimensionError, match="M must be"):
        matkit.as_matrix(bad, "M")


def test_thin_qr_two_vector():
    f = matkit.thin_qr(np.array([[3.0], [4.0]]))
    assert np.allclose(f.Q, [[0.6], [0.8]], atol=1e-14)
    assert np.allclose(f.T, [[5.0]], atol=1e-14)


def test_thin_qr_already_triangular():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    f = matkit.thin_qr(a)
    assert np.allclose(f.Q, np.eye(2), atol=1e-14)
    assert np.allclose(f.T, a, atol=1e-14)


def test_thin_qr_orthonormal_input_gives_sign_matrix():
    rng = np.random.default_rng(3)
    q0 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    f = matkit.thin_qr(q0)
    d = np.diag(f.T)
    assert np.allclose(np.abs(d), 1.0, atol=1e-12)
    assert np.allclose(f.T, np.diag(d), atol=1e-12)
    assert np.allclose(f.Q, q0 * d, atol=1e-12)
    assert np.all(np.diag(f.T) >= 0)


def test_thin_qr_rejects_wide():
    with pytest.raises(DimensionError):
        matkit.thin_qr(np.ones((2, 3)))


def _lift_case(case, rng):
    if case == "zero-below-n":  # A = [T; 0]: every reflector has tau = 0
        return np.vstack([np.triu(rng.standard_normal((6, 6))), np.zeros((9, 6))])
    a = rng.standard_normal((15, 6))
    if case == "zero-below-diagonal":  # column 0 needs no reflector
        a[1:, 0] = 0.0
        a[0, 0] = -2.0
    elif case == "zero-column":  # rank deficient: diag(T) has a zero
        a[:, 2] = 0.0
    elif case == "m-is-n-plus-1":
        a = a[:7]
    return a


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize(
    "case",
    ["random", "zero-below-n", "zero-below-diagonal", "zero-column", "m-is-n-plus-1"],
)
def test_triangle_and_lift_match_thin_qr(case, k, order):
    rng = np.random.default_rng(len(case) + k)
    a = np.asarray(_lift_case(case, rng), order=order)
    n = a.shape[1]
    x = np.linalg.qr(rng.standard_normal((n, k)))[0]  # orthonormal, like U'_k
    t, lift = matkit._triangle_and_lift(a)
    q_ref, t_ref = matkit.thin_qr(a)
    assert np.array_equal(t, t_ref)  # same Householder QR, same bits
    qx = lift(x)
    assert qx.shape == (a.shape[0], k) and qx.flags.f_contiguous and qx.flags.owndata
    assert np.max(np.abs(qx - q_ref @ x)) <= 1e-14
    q = lift(np.eye(n))
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-14
    assert np.max(np.abs(q @ t - a)) <= 1e-14 * np.max(np.abs(a))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "shape",
    [(15, 6), (6, 6), (6, 15), (1, 4), (60, 110)],
    ids=["tall", "square", "wide", "one-row", "wide-60x110"],
)
def test_triangle_and_lift_match_complete_qr(shape, order):
    # p = min(m, n) reflectors for any shape: T is the p x n R of numpy's
    # complete QR and lift(X) is Q[:, :p] @ X, both up to the sign fix that
    # makes diag(T) nonnegative. A square or wide A ends in a tau = 0
    # reflector, the identity, which gets a zero row and column of S
    rng = np.random.default_rng(shape[0] * shape[1])
    a = np.asarray(rng.standard_normal(shape), order=order)
    p = min(shape)
    if shape[0] <= shape[1]:
        assert np.linalg.qr(a, mode="raw")[1][-1] == 0.0
    q_ref, r_ref = np.linalg.qr(a, mode="complete")
    d = np.sign(np.diag(r_ref))
    d[d == 0] = 1.0
    q_ref, r_ref = q_ref[:, :p] * d, r_ref[:p] * d[:, None]
    t, lift = matkit._triangle_and_lift(a)
    assert t.shape == (p, shape[1])
    assert np.array_equal(t, r_ref)
    assert np.all(np.diag(t) >= 0.0)
    x = rng.standard_normal((p, 3))
    qx = lift(x)
    assert qx.shape == (shape[0], 3) and qx.flags.f_contiguous
    assert np.max(np.abs(qx - q_ref @ x)) <= 1e-14 * np.max(np.abs(x)) * p
    q = lift(np.eye(p))
    assert np.max(np.abs(q - q_ref)) <= 1e-14
    assert np.max(np.abs(q.T @ q - np.eye(p))) <= 1e-14
    assert np.max(np.abs(q @ t - a)) <= 1e-14 * np.max(np.abs(a)) * p
    # the lift's Gram is taken once: a second call gives the same bits
    assert np.array_equal(lift(x), qx)
    # the row-gather form gives rows of Q @ X, above and below row p, in
    # any order and with repeats
    rows = lift(x, gather=True)
    s = np.concatenate([np.arange(shape[0])[::-1], [0, shape[0] - 1]])
    assert np.max(np.abs(rows(s) - qx[s])) <= 1e-15 * np.max(np.abs(x)) * p
    assert rows(s[:0]).shape == (0, 3)


def test_max_principal_angle_examples():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    diag = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert matkit.max_principal_angle(e1, e1) == pytest.approx(0.0, abs=1e-12)
    assert matkit.max_principal_angle(e1, e2) == pytest.approx(np.pi / 2, abs=1e-12)
    assert matkit.max_principal_angle(e1, diag) == pytest.approx(np.pi / 4, abs=1e-12)


def test_max_principal_angle_rejects_non_orthonormal():
    with pytest.raises(ContractViolationError):
        matkit.max_principal_angle(np.array([[2.0], [0.0]]), np.array([[1.0], [0.0]]))


def test_max_principal_angle_rejects_a_nan_basis():
    # a NaN basis is refused at the boundary instead of reaching the SVD as
    # a bare LinAlgError; the orthonormality check on its own (which the
    # stacked intro-angles bases reach without as_matrix) fails a NaN
    # deviation too
    basis, nan = np.eye(3)[:, :2], np.full((3, 2), np.nan)
    with pytest.raises(ContractViolationError, match="U2 contains non-finite entries"):
        matkit.max_principal_angle(basis, nan)
    with pytest.raises(ContractViolationError, match="U1 contains non-finite entries"):
        matkit.max_principal_angle(nan, basis)
    with pytest.raises(ContractViolationError, match="U does not have orthonormal"):
        matkit._check_orthonormal(nan, "U")


@pytest.mark.filterwarnings("error")
def test_max_principal_angle_rejects_a_basis_whose_gram_overflows():
    # Q * 1e300 squares beyond float64 in the orthonormality check's Gram:
    # the inf deviation fails the check, with no overflow warning first
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 3)))[0]
    with pytest.raises(ContractViolationError, match="U1 does not have orthonormal"):
        matkit.max_principal_angle(q * 1e300, q)
    with pytest.raises(ContractViolationError, match="U2 does not have orthonormal"):
        matkit.max_principal_angle(q, q * 1e300)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svd_rejects_non_finite_input_before_lapack(monkeypatch, bad):
    # numpy's SVD of this 20x6 matrix with an inf at (1, 0) never returns,
    # so a non-finite matrix must not reach it: svd refuses it at the
    # boundary, and so does the core, which stacks reach without as_matrix
    def no_lapack(*args, **kwargs):
        raise AssertionError("the SVD ran on a non-finite matrix")

    a = np.random.default_rng(0).standard_normal((20, 6))
    a[1, 0] = bad
    monkeypatch.setattr(np.linalg, "svd", no_lapack)
    with pytest.raises(ContractViolationError, match="A contains non-finite entries"):
        matkit.svd(a)
    with pytest.raises(ConvergenceError, match="20x6 matrix with non-finite entries"):
        matkit._svd(a)


@pytest.mark.parametrize("seed", range(8))
def test_max_principal_angle_symmetry(seed):
    rng = np.random.default_rng(seed)
    u1 = np.linalg.qr(rng.standard_normal((9, 3)))[0]
    u2 = np.linalg.qr(rng.standard_normal((9, 3)))[0]
    a12 = matkit.max_principal_angle(u1, u2)
    a21 = matkit.max_principal_angle(u2, u1)
    assert abs(a12 - a21) <= 1e-12


def test_spectral_norm_examples():
    assert matkit.spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert matkit.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    row = np.array([[0.2, -0.9, 0.1]])
    assert matkit.spectral_norm(row) == pytest.approx(np.sqrt(0.86), abs=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("scale", [1e-160, 1e-13, 1.0, 1e150, 1e160])
@pytest.mark.parametrize("shape", [(2000, 300), (300, 2000), (40, 40), (1, 7), (7, 1), (3, 3)])
def test_spectral_norm_matches_svd(shape, scale, order):
    # the Gram eigenvalue route must keep sigma_max's relative accuracy at
    # scales where an unscaled Gram matrix underflows or overflows
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    x = np.asarray(scale * x, order=order)
    ref = np.linalg.svd(x, compute_uv=False)[0]
    assert abs(matkit.spectral_norm(x) - ref) <= 1e-13 * ref


def test_spectral_norm_of_zeros_is_zero():
    for shape in [(5, 3), (3, 5), (1, 1)]:
        assert matkit.spectral_norm(np.zeros(shape)) == 0.0


@pytest.mark.parametrize("signs", ["mixed", "positive", "negative"])
@pytest.mark.parametrize("shape", [(9, 5), (5, 9), (1, 4)])
def test_spectral_norm_bits_match_abs_scale_reference(shape, signs):
    # scale = max(max a, -min a) must equal max|a| bit for bit, whichever
    # sign the largest magnitude has
    x = np.random.default_rng(shape[0]).standard_normal(shape)
    if signs != "mixed":
        x = (1.0 if signs == "positive" else -1.0) * np.abs(x)
    scale = float(np.abs(x).max())
    y = x / scale
    gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
    want = scale * math.sqrt(np.linalg.eigvalsh(gram)[-1])
    assert matkit.spectral_norm(x) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_norm_rejects_non_finite(bad):
    x = np.ones((6, 4))
    x[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match="A contains non-finite entries"):
            matkit.spectral_norm(x)
        with pytest.raises(ConvergenceError, match="6x4 matrix with non-finite entries"):
            matkit._spectral_norm(x)


def test_spectral_norm_that_overflows_raises():
    # a finite A whose norm is beyond float64's range used to give inf with a
    # RuntimeWarning; its SVD raises, and so does every stack that holds it
    x = np.random.default_rng(0).standard_normal((20, 6)) * 5e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="spectral norm of a 20x6 matrix overflows"):
            matkit.spectral_norm(x)
        with pytest.raises(ConvergenceError, match="singular values overflow"):
            matkit.svd(x)
        with pytest.raises(ConvergenceError, match="spectral norm of a 20x6 matrix overflows"):
            matkit._spectral_norm(np.stack([x / 5e307, x]))
        assert matkit.spectral_norm(x / 10.0) > 1e307


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, (np.inf, -np.inf), (np.nan, -np.inf)])
@pytest.mark.parametrize("pos", [(0, 0), (5, 3), (0, 3), (5, 0)])
@pytest.mark.parametrize("fill", [1.0, -1.0])
def test_spectral_norm_rejects_non_finite_anywhere(bad, pos, fill):
    # as_matrix and the core's scale both read max(a) and min(a): a
    # non-finite entry at either end of the storage, among entries of either
    # sign, must still be refused by each
    x = np.full((6, 4), fill)
    if isinstance(bad, tuple):
        x[pos], x[5 - pos[0], 3 - pos[1]] = bad
    else:
        x[pos] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match="A contains non-finite entries"):
            matkit.spectral_norm(x)
        with pytest.raises(ConvergenceError, match="6x4 matrix with non-finite entries"):
            matkit._spectral_norm(x)


@pytest.mark.parametrize("factor", [matkit.svd, matkit.thin_qr])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factorizations_reject_non_finite(factor, bad):
    # numpy's SVD fails on a NaN entry but returns NaN factors for an inf
    # one, and its QR returns NaN factors for either: as_matrix refuses both
    x = np.ones((6, 4))
    x[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match="A contains non-finite entries"):
            factor(x)


@pytest.mark.filterwarnings("error")
def test_thin_qr_rejects_a_triangle_that_overflows():
    # a finite A whose column norms exceed float64's range: numpy's QR
    # returns an inf triangle without raising or warning
    with pytest.raises(ConvergenceError, match="4x2 matrix: the triangle overflows"):
        matkit.thin_qr(np.full((4, 2), 1.5e308))


@pytest.mark.parametrize("k", [2.0, 2.5, np.float64(2.0), "2", True])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: gk.gcur(_A, _B, k),
        lambda k: gk.gcur_only_a(_A, _B, k),
        lambda k: gk.deim_select(_A[:, :3], k),
        lambda k: gk.deim_cur(_A, k),
        lambda k: gk.interpolative(_A, k),
        lambda k: gk.gsvd_diagnostics(_A, _B, k),
        lambda k: experiments.noise_recovery(m=60, n=50, k_values=(k,), trials=1),
    ],
    ids=["gcur", "gcur_only_a", "deim_select", "deim_cur", "interpolative",
         "gsvd_diagnostics", "noise_recovery"],
)
def test_a_rank_that_is_not_an_integer_raises_dimension_error(call, k):
    # a float, string or bool k used to end in a bare TypeError or IndexError
    with pytest.raises(DimensionError, match=re.escape(repr(k))):
        call(k)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lambda_max_rejects_non_finite_gram(bad):
    # eigvalsh alone returns finite values for diag(nan, 1, 1)
    with pytest.raises(ConvergenceError, match="non-finite"):
        matkit._lambda_max(np.diag([bad, 1.0, 1.0]))
    assert matkit._lambda_max(np.diag([0.5, 2.0, 1.0])) == 2.0


@pytest.mark.parametrize("seed", range(12))
def test_factorization_reconstruction_invariants(seed):
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(2, 51))
    n = int(rng.integers(2, 51))
    a = rng.standard_normal((m, n))
    norm_a = matkit.spectral_norm(a)

    f = matkit.svd(a)
    assert matkit.spectral_norm(a - f.W @ (f.psi[:, None] * f.Z.T)) <= 1e-10 * norm_a
    assert np.max(np.abs(f.W.T @ f.W - np.eye(f.W.shape[1]))) <= 1e-12
    assert np.max(np.abs(f.Z.T @ f.Z - np.eye(f.Z.shape[1]))) <= 1e-12
    assert np.all(np.diff(f.psi) <= 1e-15)
    assert np.all(f.psi >= 0)

    if m >= n:
        q = matkit.thin_qr(a)
        assert matkit.spectral_norm(a - q.Q @ q.T) <= 1e-10 * norm_a
        assert np.max(np.abs(np.tril(q.T, -1))) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        matkit.svd,
        matkit.thin_qr,
        matkit.spectral_norm,
        lambda x: matkit.max_principal_angle(x, x),
        lambda x: gsvd(x, x),
        lambda x: gsvd_diagnostics(x, x, None),
    ],
)
def test_public_functions_reject_stacks(call):
    # the cores take a leading stack axis; the public functions stay 2-D
    with pytest.raises(DimensionError, match="must be 2-D, got ndim=3"):
        call(np.tile(np.eye(3), (2, 1, 1)))


def _column_major(x):
    """A copy of x with each matrix of the stack in column-major order, the
    layout the GSVD hands the triangle-on-top QR."""
    out = np.empty((*x.shape[:-2], x.shape[-1], x.shape[-2])).swapaxes(-1, -2)
    out[...] = x
    return out


def _triangle_stack(rng, n, m, batch=()):
    t = np.triu(rng.standard_normal((*batch, n, n))) + 2.0 * np.eye(n)
    return t, rng.standard_normal((*batch, m, n))


@pytest.mark.parametrize("m_rows", ["n", "2000"])
@pytest.mark.parametrize("n", [3, 30, 300])
def test_triangle_on_top_qr_quality(n, m_rows):
    # [T; X] = Q0 T0 to rounding, Q0 orthonormal, and T0 the R of LAPACK's
    # QR of the whole stack after the same sign fix
    rng = np.random.default_rng(n)
    m = n if m_rows == "n" else 2000
    t, x = _triangle_stack(rng, n, m)
    stack = np.vstack((t, x))
    q0, t0 = matkit._triangle_on_top_qr(_column_major(t), _column_major(x))
    assert q0.shape == (n + m, n) and q0.flags.f_contiguous
    norm = np.linalg.norm(stack, 2)
    assert np.linalg.norm(q0 @ t0 - stack, 2) <= 1e-14 * norm
    assert np.max(np.abs(q0.T @ q0 - np.eye(n))) <= 1e-14
    assert np.array_equal(t0, np.triu(t0)) and np.all(np.diag(t0) >= 0.0)
    r = _head_thin_qr(stack)[1]
    assert np.max(np.abs(t0 - r)) <= 1e-13 * np.max(np.abs(r))


@pytest.mark.parametrize("n", [3, 100])
def test_triangle_on_top_qr_stack_matches_each_pair_bitwise(n):
    rng = np.random.default_rng(n + 1)
    t, x = _triangle_stack(rng, n, n + 5, batch=(4,))
    q, r = matkit._triangle_on_top_qr(_column_major(t), _column_major(x))
    for i in range(4):
        q_i, r_i = matkit._triangle_on_top_qr(_column_major(t[i]), _column_major(x[i]))
        assert q[i].tobytes() == q_i.tobytes() and r[i].tobytes() == r_i.tobytes()


@pytest.mark.parametrize("n", [6, 100])
def test_triangle_on_top_qr_takes_identity_reflectors(n):
    # a zero column, and a column of T whose X part is zero, give tau = 0
    # reflectors (the identity): no division by zero and no RuntimeWarning,
    # and a column that repeats another (rank deficient) is factored too
    rng = np.random.default_rng(n + 2)
    t, x = _triangle_stack(rng, n, 2 * n)
    t[:, 2], x[:, 2] = 0.0, 0.0
    x[:, n - 2] = 0.0
    t[:, n - 1], x[:, n - 1] = t[:, 1], x[:, 1]
    stack = np.vstack((t, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q0, t0 = matkit._triangle_on_top_qr(_column_major(t), _column_major(x))
    assert t0[2, 2] == 0.0
    assert np.max(np.abs(q0 @ t0 - stack)) <= 1e-14 * np.max(np.abs(stack)) * n
    assert np.max(np.abs(q0.T @ q0 - np.eye(n))) <= 1e-14


def test_wy_factor_keeps_what_tau_zero_leaves_out():
    # S of reflectors with a tau = 0 one, the identity, is the S of the
    # others with a zero row and column inserted
    h, tau = np.linalg.qr(np.random.default_rng(5).standard_normal((90, 50)), mode="raw")
    w = np.tril(h.T, -1) + np.eye(90, 50)  # the reflectors' vectors, unit diagonal
    tau[17] = 0.0
    s = matkit._wy_factor(w.T @ w, tau)
    assert np.all(s[17] == 0.0) and np.all(s[:, 17] == 0.0)
    keep = np.arange(50) != 17
    w_k = w[:, keep]
    s_k = matkit._wy_factor(w_k.T @ w_k, tau[keep])
    assert np.max(np.abs(s[np.ix_(keep, keep)] - s_k)) <= 1e-13 * np.max(np.abs(s_k))
    # S^-1 = striu(W^T W) + diag(1/tau) on the kept reflectors
    s_inv = np.triu(w_k.T @ w_k, 1) + np.diag(1.0 / tau[keep])
    assert np.max(np.abs(s_k @ s_inv - np.eye(49))) <= 1e-12


def _head_thin_qr(a):
    """Reference: the 2-D thin QR with its sign fix, as written before the
    cores took a stack axis."""
    q, t = np.linalg.qr(a)
    d = np.sign(np.diag(t))
    d[d == 0] = 1.0
    q *= d
    t *= d[:, None]
    return q, t


def _head_spectral_norm(a):
    """Reference: the 2-D spectral norm, as written before the cores took a
    stack axis."""
    scale = max(float(a.max()), -float(a.min()))
    x = a / scale
    gram = x.T @ x if x.shape[0] >= x.shape[1] else x @ x.T
    return scale * math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(200, 40), (40, 40), (40, 200)])
def test_thin_qr_and_spectral_norm_keep_their_2d_bits(shape, order):
    a = np.asarray(np.random.default_rng(shape[1]).standard_normal(shape), order=order)
    assert matkit.spectral_norm(a) == _head_spectral_norm(a)
    if shape[0] >= shape[1]:
        for got, want in zip(matkit.thin_qr(a), _head_thin_qr(a)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(3, 3), (6, 3), (9, 4), (4, 9)])
def test_stacked_cores_match_the_public_functions_bitwise(shape):
    # one stacked call gives every matrix the bits the 2-D function gives it
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal((7, *shape))
    x[2] = 0.0  # a zero matrix has norm 0 inside a stack too
    norms = matkit._spectral_norm(x)
    svd = matkit._svd(x)
    for i, xi in enumerate(x):
        assert norms[i] == matkit.spectral_norm(xi)
        for got, want in zip(svd, matkit.svd(xi)):
            assert got[i].tobytes() == want.tobytes()
    if shape[0] >= shape[1]:
        x[2] = rng.standard_normal(shape)
        qr = matkit._thin_qr(x)
        u = qr.Q
        angles = matkit._max_principal_angle(u[0], u)
        for i, xi in enumerate(x):
            for got, want in zip(qr, matkit.thin_qr(xi)):
                assert got[i].tobytes() == want.tobytes()
            assert angles[i] == matkit.max_principal_angle(u[0], u[i])


def test_stacked_checks_reject_the_whole_stack():
    u = np.tile(np.eye(4)[:, :2], (5, 1, 1))
    matkit._check_orthonormal(u, "U")
    u[3, 0, 0] = 2.0
    with pytest.raises(ContractViolationError, match="U does not have orthonormal"):
        matkit._check_orthonormal(u, "U")
    x = np.tile(np.eye(3), (4, 1, 1))
    x[2, :, 1] = 0.0
    with pytest.raises(ContractViolationError, match="psi_min = 0.000e\\+00"):
        matkit._require_full_rank(x, ContractViolationError, "M")
    x[2, 1, 1] = np.nan
    with pytest.raises(ConvergenceError, match="3x3 matrix with non-finite entries"):
        matkit._spectral_norm(x)
