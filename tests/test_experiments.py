import numpy as np
import pytest

from gcurkit import curfac, deim, experiments, matkit, synth
from gcurkit.errors import ContractViolationError, DimensionError, GcurkitError
from gcurkit.gsvd import gsvd


def test_run_trials_order_and_failures():
    def worker(i, child):
        if i % 2:
            raise DimensionError(f"odd trial {i}")
        return i, child.spawn_key[-1]

    results, failures = experiments._run_trials(worker, 6, np.random.SeedSequence(4))
    # trial i runs with the i-th spawned child seed, results in trial-id order
    assert results == [(0, 0), (2, 2), (4, 4)]
    assert failures == ["odd trial 1", "odd trial 3", "odd trial 5"]


def test_intro_angles_structure_and_determinism():
    rep1 = experiments.intro_angles(eps_values=(5e-2,), trials=30, seed=11)
    rep2 = experiments.intro_angles(eps_values=(5e-2,), trials=30, seed=11)
    d1 = rep1.to_dict(include_timing=False)
    d2 = rep2.to_dict(include_timing=False)
    assert d1 == d2
    assert d1["trial_failures"] == []
    cell = d1["cells"][0]
    assert cell["stats"]["SVD"]["trials"] == 30
    assert cell["stats"]["GSVD"]["mean"] < cell["stats"]["SVD"]["mean"]
    assert cell["stats"]["GSVD"]["mean"] > 0


def test_intro_angles_seed_changes_results():
    a = experiments.intro_angles(eps_values=(5e-2,), trials=10, seed=0)
    b = experiments.intro_angles(eps_values=(5e-2,), trials=10, seed=1)
    assert (
        a.cells[0]["stats"]["SVD"]["mean"] != b.cells[0]["stats"]["SVD"]["mean"]
    )


@pytest.fixture(scope="module")
def tiny_recovery():
    return experiments.noise_recovery(
        kind="gapped",
        m=60,
        n=50,
        k_values=(5, 8),
        eps_values=(0.1,),
        trials=3,
        seed=5,
    )


def test_noise_recovery_report_shape(tiny_recovery):
    rep = tiny_recovery
    assert len(rep.cells) == 2
    for cell in rep.cells:
        assert set(cell["stats"]) == {"TSVD", "TGSVD", "CUR", "GCUR"}
        for stats in cell["stats"].values():
            assert stats["trials"] == 3
            assert stats["mean"] >= 0.0
        assert cell["wall_s"] >= 0.0
    assert rep.extra["trial_failures"] == []


def test_noise_recovery_rerun_determinism():
    kwargs = dict(
        kind="gapped", m=60, n=50, k_values=(5,), eps_values=(0.1,),
        trials=3, seed=5,
    )
    a = experiments.noise_recovery(**kwargs)
    b = experiments.noise_recovery(**kwargs)
    da, db = a.to_dict(include_timing=False), b.to_dict(include_timing=False)
    assert da == db
    # wall-clock fields only appear when timing is requested
    assert all("wall_s" not in c for c in da["cells"])
    assert all("wall_s" in c for c in a.to_dict(include_timing=True)["cells"])


def test_noise_recovery_sparse_kind_runs():
    rep = experiments.noise_recovery(
        kind="sparse", m=55, n=50, k_values=(4,), eps_values=(0.2,),
        trials=2, seed=1,
    )
    assert rep.cells[0]["stats"]["TSVD"]["trials"] == 2


def test_noise_recovery_cell_without_success_raises():
    # k = n leaves no trailing GSVD block, so every trial fails
    with pytest.raises(GcurkitError, match=r"eps=0\.05, k=50.*truncation rank"):
        experiments.noise_recovery(m=60, n=50, k_values=(50,), trials=2)


def _align_signs(got, want):
    return got * np.sign(np.sum(got * want, axis=0))


@pytest.mark.parametrize("m", [300, 40])
def test_factor_once_matches_direct_factorizations(m):
    # one QR of the noisy matrix feeds both factorizations; the lifted left
    # vectors match those of the m x n matrix, square or tall
    rng = np.random.default_rng(m)
    noisy = rng.standard_normal((m, 40))
    rchol = synth.toeplitz_chol(40, 0.9)
    q, r, f, g, w_k, u_k = experiments._factor_once(noisy, rchol, 10)
    f_ref = matkit.svd(noisy)
    g_ref = gsvd(noisy, rchol)
    assert w_k.shape == u_k.shape == (m, 10)
    assert np.allclose(q @ r, noisy, rtol=0.0, atol=1e-12)
    assert np.allclose(f.psi, f_ref.psi, rtol=1e-12, atol=0.0)
    assert np.allclose(g.gamma, g_ref.gamma, rtol=1e-12, atol=0.0)
    assert np.allclose(_align_signs(w_k, f_ref.W[:, :10]), f_ref.W[:, :10], atol=1e-10)
    assert np.allclose(_align_signs(u_k, g_ref.U[:, :10]), g_ref.U[:, :10], atol=1e-10)
    assert np.allclose(_align_signs(f.Z, f_ref.Z), f_ref.Z, atol=1e-10)
    assert np.allclose(_align_signs(g.Y, g_ref.Y), g_ref.Y, atol=1e-10)


def _explicit_trial_errors(kind, m, n, k_values, eps_values, seed, inexact):
    """Reference: one recovery trial on the same factors and selections that
    builds every m x n reconstruction and residual and takes its norm with
    matkit.spectral_norm."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    seeds = child.spawn(3)
    gen = synth.lowrank_gapped if kind == "gapped" else synth.lowrank_sparse
    a = gen(m, n, seeds[0])
    norm_a = matkit.spectral_norm(a)
    _, e_unit, rchol = synth.colored_noise(
        a, synth.NoiseModel(epsilon=1.0, seed=seeds[1], rho=0.99)
    )
    if inexact:
        rchol = synth.perturb_chol(rchol, seeds[2])
    kmax = max(k_values)
    sizes = [(k, k) for k in k_values]
    out = {}
    for eps in eps_values:
        noisy = a + eps * e_unit
        _, _, f, g, w_k, u_k = experiments._factor_once(noisy, rchol, kmax)
        p_cur = deim.deim_select(f.Z[:, :kmax], kmax)
        s_cur = deim.deim_select(w_k, kmax)
        p_gc = deim.deim_select(g.Y[:, :kmax], kmax)
        s_gc = deim.deim_select(u_k, kmax)
        m_cur = curfac._nested_middle_matrices(noisy, p_cur, s_cur, sizes)
        m_gc = curfac._nested_middle_matrices(noisy, p_gc, s_gc, sizes)
        for k, mc, mg in zip(k_values, m_cur, m_gc):
            recon = {
                "TSVD": w_k[:, :k] @ (f.psi[:k, None] * f.Z[:, :k].T),
                "TGSVD": u_k[:, :k] @ (g.gamma[:k, None] * g.Y[:, :k].T),
                "CUR": noisy[:, p_cur[:k]] @ mc @ noisy[s_cur[:k], :],
                "GCUR": noisy[:, p_gc[:k]] @ mg @ noisy[s_gc[:k], :],
            }
            out[eps, k] = {
                method: matkit.spectral_norm(a - x) / norm_a for method, x in recon.items()
            }
    return out


@pytest.mark.parametrize(
    "kind,m,n,inexact",
    [
        ("gapped", 120, 60, False),
        ("gapped", 120, 60, True),
        ("sparse", 120, 60, False),
        ("sparse", 120, 60, True),
        ("gapped", 60, 60, False),  # square: P is zero up to rounding
    ],
)
def test_recovery_errors_match_explicit_residual_norms(kind, m, n, inexact):
    # the errors scored in the noisy matrix's QR basis equal the 2-norms of
    # the explicit m x n residuals for every method at every k
    k_values, eps_values, seed = (5, 10, 20), (0.05, 0.2), 23
    rep = experiments.noise_recovery(
        kind=kind, m=m, n=n, k_values=k_values, eps_values=eps_values,
        trials=1, seed=seed, inexact_chol=inexact,
    )
    assert rep.extra["trial_failures"] == []
    ref = _explicit_trial_errors(kind, m, n, k_values, eps_values, seed, inexact)
    for cell in rep.cells:
        want = ref[cell["eps"], cell["k"]]
        for method, st in cell["stats"].items():
            assert st["mean"] == pytest.approx(want[method], rel=1e-12, abs=0.0), (
                cell["eps"], cell["k"], method,
            )


def test_noise_recovery_nan_reconstruction_fails_its_trial(monkeypatch):
    # a NaN middle matrix must fail the trial with a message, never score
    nested = curfac._nested_middle_matrices

    def poisoned(*args):
        return [np.full_like(m, np.nan) for m in nested(*args)]

    monkeypatch.setattr(curfac, "_nested_middle_matrices", poisoned)
    with pytest.raises(GcurkitError, match="no successful trial.*non-finite"):
        experiments.noise_recovery(
            m=60, n=50, k_values=(5,), eps_values=(0.1,), trials=2, seed=5
        )


def test_noise_recovery_rejects_negative_eps_before_trials():
    with pytest.raises(ContractViolationError, match="epsilon must be >= 0, got -0.1"):
        experiments.noise_recovery(m=60, n=50, k_values=(5,), eps_values=(0.1, -0.1))


def test_noise_recovery_rejects_unknown_kind():
    with pytest.raises(ValueError):
        experiments.noise_recovery(kind="dense")


def test_nearest_centroid_cv_separable_fixture():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    labels = np.repeat(np.arange(4), 40)
    x = centers[labels] + 0.1 * rng.standard_normal((160, 2))
    assert experiments.nearest_centroid_cv(x, labels) == 0.0
    # pure noise: errors near chance level for four classes
    noise = rng.standard_normal((160, 2))
    assert experiments.nearest_centroid_cv(noise, labels) > 0.4


def test_separation_ratio_orders_fixtures():
    rng = np.random.default_rng(1)
    labels = np.repeat(np.arange(4), 30)
    tight = np.repeat(np.eye(4) * 20, 30, axis=0)[:, :2] + 0.5 * rng.standard_normal((120, 2))
    loose = rng.standard_normal((120, 2))
    assert experiments.separation_ratio(tight, labels) > experiments.separation_ratio(
        loose, labels
    )


def test_subgroups_report_bands():
    rep = experiments.subgroups(n_columns=(2, 10), seed=0)
    by_n = {c["n_columns"]: c["stats"] for c in rep.cells}
    assert by_n[10]["GCUR"]["cv_error"] < 0.2
    assert by_n[10]["CUR"]["cv_error"] > 0.4
    assert by_n[10]["TGSVD"]["cv_error"] <= 0.05
    sep = rep.extra["separation_ratio_two_leading"]
    assert sep["GCUR"] >= 2.0 * sep["CUR"]
    proj = rep.extra["projections"]
    assert len(proj["GCUR"]) == 400
    assert len(proj["labels"]) == 400
    # selected columns are reported 1-based
    assert min(by_n[10]["GCUR"]["columns"]) >= 1


def test_subgroups_determinism():
    a = experiments.subgroups(n_columns=(5,), seed=3, include_projections=False)
    b = experiments.subgroups(n_columns=(5,), seed=3, include_projections=False)
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


def test_report_dict_round_trips_through_json():
    import json

    rep = experiments.intro_angles(eps_values=(5e-3,), trials=5, seed=2)
    text = json.dumps(rep.to_dict(include_timing=False), sort_keys=True)
    assert json.loads(text)["experiment"] == "intro-angles"
