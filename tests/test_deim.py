import re
import warnings

import numpy as np
import pytest

from gcurkit import matkit, synth
from gcurkit.deim import deim_select, eta, interp_project
from gcurkit.errors import (
    ContractViolationError,
    DependentBasisError,
    DimensionError,
    GcurkitError,
    SingularMatrixError,
)
from gcurkit.gcur import gcur
from gcurkit.gsvd import gsvd


def deim_select_per_step(basis, k):
    """Reference: the rank rule on every selected j x j block before its solve."""
    u = matkit.as_matrix(basis, "basis")
    s = np.empty(k, dtype=np.int64)
    s[0] = int(np.argmax(np.abs(u[:, 0])))
    for j in range(1, k):
        sub = u[s[:j], :j]
        matkit._require_full_rank(
            sub, DependentBasisError, f"selected {j}x{j} submatrix at step {j + 1}"
        )
        c = np.linalg.solve(sub, u[s[:j], j])
        resid = u[:, j] - u[:, :j] @ c
        s[j] = int(np.argmax(np.abs(resid)))
    return s


def test_identity_columns_select_in_order():
    u = np.eye(6)[:, :4]
    assert deim_select(u, 4).tolist() == [0, 1, 2, 3]


def test_single_column_argmax():
    u = np.array([[0.2], [-0.9], [0.1]])
    assert deim_select(u, 1).tolist() == [1]


def test_hand_worked_two_columns():
    # step 1 picks row 0; step 2: c = 0, residual (0, 1, 0.5) picks row 1
    u = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert deim_select(u, 2).tolist() == [0, 1]


def test_tie_takes_smallest_index():
    u = np.array([[0.5], [0.5], [-0.5]])
    assert deim_select(u, 1).tolist() == [0]


def test_k_exceeding_columns_errors():
    with pytest.raises(DimensionError):
        deim_select(np.eye(3)[:, :2], 3)


def test_dependent_basis_errors_with_step_number():
    # columns independent, but the selected 2x2 block is nearly singular
    u = np.array(
        [
            [1.0, 1.0, 0.3],
            [1.0, 1.0, 0.1],
            [0.0, 1e-15, 0.9],
        ]
    )
    with pytest.raises(DependentBasisError, match="step 3"):
        deim_select(u, 3)


def test_dependent_last_column_errors():
    # the third column is 2*e0 + 3*e1 on every row: the per-step rule never
    # sees the final 3x3 block and returns a duplicate index
    u = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0], [0.0, 0.0, 0.0], [0.5, 0.5, 2.5]])
    assert deim_select_per_step(u, 3).tolist() == [0, 1, 0]
    with pytest.raises(DependentBasisError, match="3x3 submatrix after step 3"):
        deim_select(u, 3)


def test_zero_column_errors():
    with pytest.raises(DependentBasisError, match="1x1 submatrix"):
        deim_select(np.zeros((4, 1)), 1)
    u = np.eye(5)[:, :3].copy()
    u[:, 1] = 0.0
    with pytest.raises(DependentBasisError, match="step 3"):
        deim_select(u, 3)


@pytest.mark.parametrize("k", [1, 5, 30, 31, 32, 33, 64, 65, 100, 299])
@pytest.mark.parametrize("seed", range(3))
def test_matches_per_step_reference_on_orthonormal_bases(seed, k):
    rng = np.random.default_rng(900 + seed)
    u = np.linalg.qr(rng.standard_normal((300, k)))[0]
    assert np.array_equal(deim_select(u, k), deim_select_per_step(u, k))


@pytest.fixture(scope="module", params=[0, 1])
def gsvd_bases(request):
    seed = request.param
    a = synth.lowrank_gapped(600, 150, 40 + seed)
    noisy, _, rchol = synth.colored_noise(
        a, synth.NoiseModel(epsilon=0.1, seed=50 + seed, rho=0.99)
    )
    f = gsvd(noisy, rchol)
    return {"U": f.U, "V": f.V, "Y": f.Y}


@pytest.mark.parametrize("k", [1, 5, 30, 31, 32, 33, 64, 65, 100, 149])
@pytest.mark.parametrize("name", ["U", "V", "Y"])
def test_matches_per_step_reference_on_gsvd_bases(gsvd_bases, name, k):
    basis = gsvd_bases[name][:, :k]
    assert np.array_equal(deim_select(basis, k), deim_select_per_step(basis, k))


def test_matches_per_step_reference_on_lifted_u_k():
    # the m x k U_k that gcur lifts from the triangle of a tall noisy A
    a = synth.lowrank_gapped(2000, 300, 44)
    noisy, _, rchol = synth.colored_noise(
        a, synth.NoiseModel(epsilon=0.1, seed=54, rho=0.99)
    )
    u_k = gcur(noisy, rchol, 100).U_k
    assert u_k.shape == (2000, 100)
    assert np.array_equal(deim_select(u_k, 100), deim_select_per_step(u_k, 100))


@pytest.mark.parametrize("k", [7, 40])
def test_storage_order_does_not_matter(k):
    rng = np.random.default_rng(910 + k)
    u = np.linalg.qr(rng.standard_normal((120, k)))[0]
    c, f = np.ascontiguousarray(u), np.asfortranarray(u)
    assert c.flags.c_contiguous and f.flags.f_contiguous
    assert np.array_equal(deim_select(c, k), deim_select(f, k))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_basis_raises_without_warning(bad):
    # an inf makes the rank test's SVD return NaN singular values without
    # raising; that spectrum must fail the rule, not pass it
    u = np.eye(5)[:, :3].copy()
    u[4, 1] = bad
    calls = (
        lambda: deim_select(u, 3),
        lambda: eta(u, [0, 4, 1]),
        lambda: interp_project(u, [0, 4, 1], np.ones((5, 2))),
    )
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GcurkitError):
                call()


def _unit_pair():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 6))
    u = a[:, :3].copy()
    s = deim_select(u, 3)
    assert s.tolist() == [2, 13, 10]
    return a, u, s


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_basis_in_an_unselected_row_raises(bad):
    # row 1 is not selected, so neither the rank rule nor the solve reads
    # it; the projector would still carry it into every row of its result
    a, u, s = _unit_pair()
    u[1, 2] = bad
    for call in (
        lambda: interp_project(u, s, a),
        lambda: interp_project(u, s, a.T.copy(), "right"),
        lambda: eta(u, s),
    ):
        with pytest.raises(ContractViolationError, match="basis contains non-finite"):
            call()
    x = a.copy()
    x[s[0], 0] = bad  # a non-finite X is rejected as well
    with pytest.raises(ContractViolationError, match="X contains non-finite"):
        interp_project(a[:, :3], s, x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-300, 1e-305, 1e-310])
def test_subnormal_scale_basis(scale):
    # eta = 1/psi_min and the projector's solve scale as 1/scale: at 1e-310
    # they overflow and raise; above it they keep the bits of the plain formulas
    a, u, s = _unit_pair()
    v = u * scale
    sub = v[s, :]
    if scale == 1e-310:
        with pytest.raises(SingularMatrixError, match="error constant is not finite"):
            eta(v, s)
        for call in (lambda: interp_project(v, s, a),
                     lambda: interp_project(v, s, a.T.copy(), "right")):
            with pytest.raises(SingularMatrixError, match="projector is not finite"):
                call()
        return
    assert eta(v, s) == float(1.0 / np.linalg.svd(sub, compute_uv=False)[-1])
    left = interp_project(v, s, a)
    assert np.array_equal(left, v @ np.linalg.solve(sub, a[s, :]))
    right = interp_project(v, s, a.T.copy(), "right")
    assert np.array_equal(right, a.T[:, s] @ np.linalg.solve(sub.T, v.T))
    assert np.isfinite(left).all() and np.isfinite(right).all()


def _step_of(call):
    with pytest.raises(DependentBasisError) as info:
        call()
    return re.search(r"step (\d+)", str(info.value)).group(1)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("j", [1, 3, 6])
def test_dependent_bases_error_at_reference_step(j, exact):
    # column j is a combination of the columns before it (exactly, or up to
    # a 1e-15 perturbation), so the (j+1)x(j+1) block fails the rule
    rng = np.random.default_rng(60 + j)
    u = np.linalg.qr(rng.standard_normal((40, 10)))[0]
    u[:, j] = u[:, :j] @ rng.standard_normal(j)
    if not exact:
        u[:, j] += 1e-15 * rng.standard_normal(40)
    expected = _step_of(lambda: deim_select_per_step(u, 10))
    assert expected == str(j + 2)
    assert _step_of(lambda: deim_select(u, 10)) == expected


@pytest.mark.parametrize("seed", range(20))
def test_sign_invariance(seed):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((15, 5)))[0]
    base = deim_select(u, 5)
    flips = np.where(rng.random(5) < 0.5, -1.0, 1.0)
    assert np.array_equal(deim_select(u * flips, 5), base)


@pytest.mark.parametrize("seed", range(20))
def test_prefix_property(seed):
    rng = np.random.default_rng(100 + seed)
    u = np.linalg.qr(rng.standard_normal((20, 6)))[0]
    full = deim_select(u, 6)
    for j in range(1, 6):
        assert np.array_equal(deim_select(u[:, :j], j), full[:j])


@pytest.mark.parametrize("seed", range(20))
def test_selected_submatrix_nonsingular(seed):
    rng = np.random.default_rng(300 + seed)
    u = np.linalg.qr(rng.standard_normal((25, 7)))[0]
    s = deim_select(u, 7)
    assert np.linalg.svd(u[s, :], compute_uv=False)[-1] > 1e-12


def test_interpolation_identity_exact_rows():
    rng = np.random.default_rng(4)
    u = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    s = deim_select(u, 3)
    x = rng.standard_normal((10, 5))
    projected = interp_project(u, s, x, side="left")
    assert np.max(np.abs(projected[s, :] - x[s, :])) <= 1e-12


def test_projector_fixes_its_range():
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    s = deim_select(u, 4)
    x = u @ rng.standard_normal((4, 6))
    assert np.allclose(interp_project(u, s, x, side="left"), x, atol=1e-10)


def test_rank_one_projector_arithmetic():
    u = np.array([[0.0], [1.0], [0.0]])
    x = np.array([[5.0], [7.0], [9.0]])
    out = interp_project(u, np.array([1]), x, side="left")
    assert np.allclose(out, [[0.0], [7.0], [0.0]], atol=1e-14)


def test_right_side_reproduces_selected_columns():
    rng = np.random.default_rng(6)
    basis = np.linalg.qr(rng.standard_normal((9, 3)))[0]
    s = deim_select(basis, 3)
    x = rng.standard_normal((4, 9))
    out = interp_project(basis, s, x, side="right")
    assert np.max(np.abs(out[:, s] - x[:, s])) <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_projector_is_basis_independent(seed):
    rng = np.random.default_rng(700 + seed)
    u = rng.standard_normal((14, 4))  # deliberately non-orthonormal
    q = np.linalg.qr(u)[0]  # orthonormal basis of the same range
    s = deim_select(u, 4)
    x = rng.standard_normal((14, 6))
    via_u = interp_project(u, s, x, side="left")
    via_q = interp_project(q, s, x, side="left")
    assert np.max(np.abs(via_u - via_q)) <= 1e-9


def test_interp_project_singular_block_errors():
    u = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        interp_project(u, np.array([0, 1]), np.zeros((3, 2)), side="left")


def test_eta_identity_and_orthogonal():
    assert eta(np.eye(5)[:, :3], np.array([0, 1, 2])) == pytest.approx(1.0)
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    assert eta(q, np.array([0, 1, 2, 3])) == pytest.approx(1.0, abs=1e-12)


def test_eta_single_column():
    assert eta(np.array([[0.8], [0.6]]), np.array([0])) == pytest.approx(1.25)


def test_index_validation():
    u = np.eye(4)[:, :2]
    with pytest.raises(DimensionError):
        interp_project(u, np.array([0, 0]), np.zeros((4, 1)))  # duplicates
    with pytest.raises(DimensionError):
        interp_project(u, np.array([0, 9]), np.zeros((4, 1)))  # out of range
    with pytest.raises(DimensionError):
        interp_project(u, np.array([0.5, 1.5]), np.zeros((4, 1)))  # non-integer
