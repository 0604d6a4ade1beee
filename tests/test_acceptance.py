"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. The full-size
noise-recovery reproduction is opt-in: ``-m paperscale``.
"""

import json
import time

import numpy as np
import pytest

from gcurkit import experiments, matkit
from gcurkit.cli import main
from gcurkit.curfac import deim_cur
from gcurkit.deim import deim_select, interp_project
from gcurkit.gcur import evaluate_bounds, gcur, svd_subspace_gap
from gcurkit.gsvd import gsvd
from gcurkit import io as gio


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


# -- 1. GSVD contract suite ---------------------------------------------------


def test_acceptance_01_gsvd_contract_suite():
    t0 = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(2, 31))
        m = int(rng.integers(n, 121))
        d = int(rng.integers(n, 121))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((d, n))
        f = gsvd(a, b)
        assert np.max(np.abs(f.gamma**2 + f.sigma**2 - 1.0)) <= 1e-12
        assert matkit.spectral_norm(
            a - f.U @ (f.gamma[:, None] * f.Y.T)
        ) <= 1e-9 * max(1.0, matkit.spectral_norm(a))
        assert matkit.spectral_norm(
            b - f.V @ (f.sigma[:, None] * f.Y.T)
        ) <= 1e-9 * max(1.0, matkit.spectral_norm(b))
        assert np.max(np.abs(f.U.T @ f.U - np.eye(n))) <= 1e-10
        assert np.max(np.abs(f.V.T @ f.V - np.eye(n))) <= 1e-10
        ratios = f.ratios[np.isfinite(f.ratios)]
        assert np.all(np.diff(ratios) <= 1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"contract suite took {elapsed:.1f}s"
    _report(1, f"200 random pairs satisfy all factor invariants in {elapsed:.1f}s")


# -- 2. Diagonal pair example -------------------------------------------------


def test_acceptance_02_diagonal_pair_example():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 20.0, 300.0])
    f = gsvd(a, b)
    assert np.max(np.abs(f.ratios - np.array([1.0, 0.1, 0.01]))) <= 1e-10
    q1 = matkit.thin_qr(f.Y[:, :1]).Q
    z1 = matkit.svd(a).Z[:, :1]
    assert abs(abs(q1[0, 0]) - 1.0) <= 1e-12  # leading pair direction = +-e1
    assert abs(abs(z1[2, 0]) - 1.0) <= 1e-12  # leading singular direction = +-e3
    angle = matkit.max_principal_angle(q1, z1)
    assert abs(np.sin(angle) - 1.0) <= 1e-10
    gap = svd_subspace_gap(a, q1)
    assert abs(gap.value - 9.0) <= 1e-10
    _report(2, "diag pair gives ratios (1, 0.1, 0.01) and orthogonal leading bases")


# -- 3. Index equivalence through explicit quotients --------------------------


def _gapped_pair(seed_base, shape_a, shape_b, min_gap=1e-3):
    """Deterministically walk seeds until the ratio gaps clear ``min_gap``."""
    offset = 0
    while True:
        rng = np.random.default_rng(seed_base + offset)
        a = rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b)
        r = gsvd(a, b).ratios
        r = r[np.isfinite(r)]
        if np.min(r[:-1] - r[1:]) > min_gap:
            return a, b, rng
        offset += 1_000_000


def test_acceptance_03_quotient_equivalence():
    t0 = time.perf_counter()
    for seed in range(100):
        a, b, rng = _gapped_pair(20_000 + seed, (12, 8), (8, 8))
        k = int(rng.integers(1, 5))
        g = gcur(a, b, k)
        oracle = deim_cur(a @ np.linalg.inv(b), k)
        assert np.array_equal(g.s_a, oracle.s)
        assert np.array_equal(g.s_b, oracle.p)
    for seed in range(100):
        a, b, rng = _gapped_pair(30_000 + seed, (15, 6), (11, 6))
        k = int(rng.integers(1, 4))
        g = gcur(a, b, k)
        oracle = deim_cur(a @ np.linalg.pinv(b), k)
        assert np.array_equal(g.s_a, oracle.s)
        assert np.array_equal(g.s_b, oracle.p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    _report(3, f"200 quotient-oracle index comparisons exact in {elapsed:.1f}s")


# -- 4. Identity second matrix reduction --------------------------------------


def test_acceptance_04_identity_reduction():
    for seed in range(100):
        rng = np.random.default_rng(40_000 + seed)
        m = int(rng.integers(6, 50))
        n = int(rng.integers(3, min(m, 14) + 1))
        k = int(rng.integers(1, n))
        a = rng.standard_normal((m, n))
        psi = matkit.svd(a).psi
        assert np.min(psi[:-1] - psi[1:]) > 0  # distinct singular values
        g = gcur(a, np.eye(n), k)
        c = deim_cur(a, k)
        assert np.array_equal(g.p, c.p)
        assert np.array_equal(g.s_a, c.s)
    _report(4, "identity-B selections equal single-matrix CUR on 100 instances")


# -- 5. Bound suite ------------------------------------------------------------


def test_acceptance_05_bound_suite():
    for seed in range(200):
        rng = np.random.default_rng(50_000 + seed)
        n = int(rng.integers(5, 13))
        m = int(rng.integers(n, 61))
        d = int(rng.integers(n, 61))
        k = int(rng.integers(1, n - 1))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((d, n))
        rep = evaluate_bounds(a, b, gcur(a, b, k))
        assert all(rep.checks.values()), f"seed {seed}: {rep.checks}"
        assert rep.observed_error <= rep.bound + 1e-9 * matkit.spectral_norm(a)
    _report(5, "all error-bound inequalities hold on 200 seeded instances")


# -- 6. Subspace-angle reproduction -------------------------------------------


def test_acceptance_06_intro_angles_reproduction():
    t0 = time.perf_counter()
    rep = experiments.intro_angles(eps_values=(5e-2,), trials=1000, seed=0)
    elapsed = time.perf_counter() - t0
    stats = rep.cells[0]["stats"]
    svd_mean = stats["SVD"]["mean"]
    gsvd_mean = stats["GSVD"]["mean"]
    assert 1.7e-2 * 0.8 <= svd_mean <= 1.7e-2 * 1.2, svd_mean
    assert 1.2e-2 * 0.8 <= gsvd_mean <= 1.2e-2 * 1.2, gsvd_mean
    assert elapsed < 20.0, f"reproduction took {elapsed:.1f}s"
    wins = 0
    for run_seed in range(20):
        r = experiments.intro_angles(eps_values=(5e-2,), trials=1000, seed=100 + run_seed)
        s = r.cells[0]["stats"]
        wins += s["GSVD"]["mean"] < s["SVD"]["mean"]
    assert wins >= 19, f"pair factorization smaller in only {wins}/20 runs"
    _report(
        6,
        f"angle means SVD {svd_mean:.2e} / GSVD {gsvd_mean:.2e} in {elapsed:.1f}s; "
        f"GSVD smaller in {wins}/20 repeats",
    )


# -- 7 & 8. Noise recovery at desk scale --------------------------------------


@pytest.fixture(scope="module")
def desk_recovery_exact():
    return experiments.noise_recovery(
        kind="gapped",
        m=2000,
        n=300,
        k_values=(10,),
        eps_values=(0.1, 0.15, 0.2),
        trials=20,
        seed=0,
    )


def test_acceptance_07_noise_recovery_desk_scale(desk_recovery_exact):
    t0 = time.perf_counter()
    rep = desk_recovery_exact
    by_eps = {c["eps"]: c["stats"] for c in rep.cells}
    for eps in (0.1, 0.15, 0.2):
        stats = by_eps[eps]
        assert stats["GCUR"]["mean"] < stats["CUR"]["mean"], (
            eps,
            stats["GCUR"]["mean"],
            stats["CUR"]["mean"],
        )
    s01 = by_eps[0.1]
    assert s01["TGSVD"]["mean"] <= 0.25 * s01["TSVD"]["mean"]
    elapsed = rep.timing["total_s"] + (time.perf_counter() - t0)
    assert elapsed < 300.0, f"desk-scale recovery took {elapsed:.1f}s"
    _report(
        7,
        "desk scale: GCUR < CUR at eps 0.1/0.15/0.2 "
        f"({by_eps[0.1]['GCUR']['mean']:.3f} < {by_eps[0.1]['CUR']['mean']:.3f} at 0.1), "
        f"TGSVD {s01['TGSVD']['mean']:.4f} << TSVD {s01['TSVD']['mean']:.4f}",
    )


@pytest.mark.paperscale
def test_acceptance_07b_noise_recovery_paper_scale():
    rep = experiments.noise_recovery(
        kind="gapped",
        m=10000,
        n=300,
        k_values=(10,),
        eps_values=(0.1, 0.15, 0.2),
        trials=100,
        seed=0,
    )
    by_eps = {c["eps"]: c["stats"] for c in rep.cells}
    s01 = by_eps[0.1]
    assert 0.118 * 0.7 <= s01["CUR"]["mean"] <= 0.118 * 1.3
    assert 0.088 * 0.7 <= s01["GCUR"]["mean"] <= 0.088 * 1.3
    assert s01["TGSVD"]["mean"] <= 0.01
    for eps in (0.1, 0.15, 0.2):
        assert by_eps[eps]["GCUR"]["mean"] < by_eps[eps]["CUR"]["mean"]
    _report(
        7,
        f"paper scale: CUR {s01['CUR']['mean']:.3f}, GCUR {s01['GCUR']['mean']:.3f}, "
        f"TGSVD {s01['TGSVD']['mean']:.4f}",
    )


def test_acceptance_08_inexact_cholesky_robustness(desk_recovery_exact):
    exact = {c["eps"]: c["stats"] for c in desk_recovery_exact.cells}[0.1]
    inexact_rep = experiments.noise_recovery(
        kind="gapped",
        m=2000,
        n=300,
        k_values=(10,),
        eps_values=(0.1,),
        trials=20,
        seed=0,
        inexact_chol=True,
    )
    inexact = inexact_rep.cells[0]["stats"]
    ratio = inexact["GCUR"]["mean"] / exact["GCUR"]["mean"]
    assert ratio < 1.25, f"inexact factor degraded GCUR by {ratio:.3f}x"
    _report(
        8,
        f"perturbed covariance factor: GCUR {exact['GCUR']['mean']:.4f} -> "
        f"{inexact['GCUR']['mean']:.4f} ({ratio:.3f}x < 1.25x)",
    )


# -- 9. Subgroup discovery ------------------------------------------------------


def test_acceptance_09_subgroup_discovery():
    rep = experiments.subgroups(n_columns=(2, 5, 10), seed=0)
    by_n = {c["n_columns"]: c["stats"] for c in rep.cells}
    gcur_err = by_n[10]["GCUR"]["cv_error"]
    cur_err = by_n[10]["CUR"]["cv_error"]
    assert gcur_err < 0.2, gcur_err
    assert cur_err > 0.4, cur_err
    sep = rep.extra["separation_ratio_two_leading"]
    assert sep["GCUR"] >= 2.0 * sep["CUR"], sep
    _report(
        9,
        f"10-column selection: GCUR cv error {gcur_err:.3f} < 0.2, CUR {cur_err:.3f} > 0.4, "
        f"separation {sep['GCUR']:.2f} >= 2x {sep['CUR']:.2f}",
    )


# -- 10. Determinism ------------------------------------------------------------


def test_acceptance_10_byte_determinism(tmp_path):
    a = tmp_path / "A.mtx"
    b = tmp_path / "B.mtx"
    rng = np.random.default_rng(1)
    gio.write_matrix_market(a, rng.standard_normal((12, 6)))
    gio.write_matrix_market(b, rng.standard_normal((9, 6)))

    def run(cmd, name):
        out = tmp_path / name
        assert main(cmd + ["--no-timestamp", "--out", str(out)]) == 0
        return out.read_bytes()

    gcur_cmd = ["gcur", str(a), str(b), "-k", "3", "--bounds"]
    assert run(gcur_cmd, "g1.json") == run(gcur_cmd, "g2.json")

    exp_cmd = ["experiment", "intro-angles", "--trials", "100", "--seed", "7"]
    r1 = run(exp_cmd, "e1.json")
    r2 = run(exp_cmd, "e2.json")
    r3 = run(exp_cmd, "e3.json")
    assert r1 == r2 == r3
    sub_cmd = ["experiment", "subgroups", "--seed", "3"]
    assert run(sub_cmd, "s1.json") == run(sub_cmd, "s2.json")
    # sanity: the reports parse back
    json.loads(r1)
    _report(10, "seeded reports byte-identical across reruns")


# -- 11. Greedy-selection property suite -----------------------------------------


def test_acceptance_11_deim_property_suite():
    for seed in range(100):
        rng = np.random.default_rng(60_000 + seed)
        m = int(rng.integers(8, 40))
        k = int(rng.integers(2, min(m, 8)))
        u = np.linalg.qr(rng.standard_normal((m, k)))[0]
        base = deim_select(u, k)

        flips = np.where(rng.random(k) < 0.5, -1.0, 1.0)
        assert np.array_equal(deim_select(u * flips, k), base)

        j = int(rng.integers(1, k + 1))
        assert np.array_equal(deim_select(u[:, :j], j), base[:j])

        x = rng.standard_normal((m, 5))
        projected = interp_project(u, base, x, side="left")
        assert np.max(np.abs(projected[base, :] - x[base, :])) <= 1e-12

        raw = u @ (rng.standard_normal((k, k)) + 3 * np.eye(k))  # same range
        via_raw = interp_project(raw, base, x, side="left")
        assert np.max(np.abs(via_raw - projected)) <= 1e-9
    _report(11, "sign invariance, prefixes, interpolation, basis independence: 100/100")
