import sys

import numpy as np
import pytest

from gcurkit import curfac, deim, experiments, matkit, synth
from gcurkit.errors import (
    ContractViolationError,
    ConvergenceError,
    DimensionError,
    GcurkitError,
)
from gcurkit.gsvd import gsvd


def test_run_trials_order_and_failures():
    def worker(ids):
        calls.append(ids)
        for i in ids:
            if i % 2:
                raise DimensionError(f"odd trial {i}")
        return [(i, i * i) for i in ids]

    # a failing one-trial stack records its failure and does not run again;
    # a failing stack of several runs again one trial at a time
    single = [[i] for i in range(6)]
    stacked = [[0, 1, 2, 3], [0], [1], [2], [3], [4, 5], [4], [5]]
    for size, want_calls in ((1, single), (4, stacked)):
        calls = []
        results, failures = experiments._run_trials(worker, 6, size)
        # the worker gets trial ids in order, results in trial-id order
        assert results == [(0, 0), (2, 4), (4, 16)]
        assert failures == ["odd trial 1", "odd trial 3", "odd trial 5"]
        assert calls == want_calls


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


def _intro_angles_oracle(eps_values, trials, seed):
    """Reference: the per-trial loop of the intro-angles study, one public
    call per stage, as the report dict with no timing. Trial i takes row
    i mod INTRO_STACK of the full draw of its stack's child seed,
    ``spawn(n)[i // INTRO_STACK]``, whatever ``trials`` is."""
    stack = experiments.INTRO_STACK
    a = experiments.INTRO_MATRIX
    rchol = np.linalg.cholesky(experiments.INTRO_COVARIANCE).T
    w2 = matkit.svd(a).W[:, :2]
    norm_a = matkit.spectral_norm(a)
    per_eps = np.random.SeedSequence(seed).spawn(len(eps_values))
    cells, failures = [], []
    for eps, eps_seq in zip(eps_values, per_eps):
        angles = {"SVD": [], "GSVD": []}
        children = eps_seq.spawn(-(-trials // stack))
        for i in range(trials):
            try:
                rng = np.random.default_rng(children[i // stack])
                f = rng.standard_normal((stack, 3, 3))[i % stack] @ rchol
                noisy = a + eps * (matkit.spectral_norm(f) / norm_a) * f
                svd_angle = matkit.max_principal_angle(w2, matkit.svd(noisy).W[:, :2])
                gsvd_angle = matkit.max_principal_angle(w2, gsvd(noisy, rchol).U[:, :2])
            except (GcurkitError, np.linalg.LinAlgError) as exc:
                failures.append(str(exc))
                continue
            angles["SVD"].append(svd_angle)
            angles["GSVD"].append(gsvd_angle)
        stats = {
            method: {
                "mean": float(np.mean(v)),
                "std": float(np.std(v, ddof=1)) if len(v) > 1 else 0.0,
                "trials": len(v),
            }
            for method, v in angles.items()
        }
        cells.append({"eps": eps, "k": 2, "stats": stats})
    params = {"eps_values": list(eps_values), "trials": trials, "seed": seed}
    rep = experiments.ExperimentReport(
        "intro-angles", params, cells, extra={"trial_failures": failures}
    )
    return rep.to_dict(include_timing=False)


@pytest.mark.parametrize("trials", [1, 255, 256, 257, 1000])
def test_intro_angles_stacks_match_the_per_trial_loop(trials):
    # stacks of INTRO_STACK trials, the last one partial, give the report of
    # the per-trial loop exactly
    assert experiments.INTRO_STACK == 256
    eps_values = (5e-2, 5e-4) if trials == 1000 else (5e-3,)
    rep = experiments.intro_angles(eps_values=eps_values, trials=trials, seed=trials)
    assert rep.to_dict(include_timing=False) == _intro_angles_oracle(
        eps_values, trials, trials
    )


def test_intro_angles_failed_trials_keep_their_own_messages(monkeypatch):
    # trials 3 and 300 of the first cell draw NaN noise: their stacks run
    # again trial by trial, so exactly those two fail, with the per-trial
    # loop's messages in trial-id order, and every other trial still counts.
    # Both intro_angles and the per-trial oracle draw through
    # np.random.default_rng, which poisons the rows of those two trials in
    # the draws of their stacks' child seeds (spawn key (cell, stack)).
    stack = experiments.INTRO_STACK
    poisoned = {(0, i // stack): i % stack for i in (3, 300)}
    default_rng = np.random.default_rng

    class PoisonedRng:
        def __init__(self, seed, row):
            self.rng, self.row = default_rng(seed), row

        def standard_normal(self, shape):
            out = self.rng.standard_normal(shape)
            out[self.row] = np.nan
            return out

    def rng(seed):
        row = poisoned.get(getattr(seed, "spawn_key", None))
        return default_rng(seed) if row is None else PoisonedRng(seed, row)

    monkeypatch.setattr(np.random, "default_rng", rng)
    trials, eps_values = 520, (5e-2, 5e-3)
    got = experiments.intro_angles(eps_values=eps_values, trials=trials, seed=4)
    got = got.to_dict(include_timing=False)
    assert got == _intro_angles_oracle(eps_values, trials, 4)
    assert got["trial_failures"] == ["A contains non-finite entries"] * 2
    assert [c["stats"]["SVD"]["trials"] for c in got["cells"]] == [trials - 2, trials]
    assert [c["stats"]["GSVD"]["trials"] for c in got["cells"]] == [trials - 2, trials]


def _seeding_masters():
    return [
        np.random.SeedSequence(0),
        np.random.SeedSequence(5),
        np.random.SeedSequence(2**40 + 3),
        np.random.SeedSequence(2**130),
        np.random.SeedSequence([1, 2, 3, 4, 5]),
        np.random.SeedSequence(),  # OS entropy
    ]


@pytest.mark.parametrize("master", range(6))
def test_child_is_numpys_spawned_child(master):
    seq = _seeding_masters()[master]
    children = seq.spawn(40)
    for i in (0, 1, 39):
        got = experiments._child(seq, i).generate_state(8)
        assert np.array_equal(got, children[i].generate_state(8))


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


def test_noise_recovery_cell_without_success_raises(monkeypatch):
    # every trial fails in its factorization, so no cell has statistics
    def failing(*_args):
        raise ConvergenceError("SVD iteration did not converge")

    monkeypatch.setattr(experiments, "_factor_in_basis", failing)
    with pytest.raises(GcurkitError, match=r"eps=0\.05, k=5.*did not converge"):
        experiments.noise_recovery(m=60, n=50, k_values=(5,), trials=2)


@pytest.mark.parametrize(
    "m,n,k_values,match",
    [
        (60, 50, (5, 50), "1 <= k < 50, got 50"),  # k = n: no trailing GSVD block
        (60, 50, (0,), "1 <= k < 50, got 0"),
        (50, 60, (5,), "needs m >= n, got 50x60"),
    ],
)
def test_noise_recovery_rejects_rank_and_shape_before_trials(
    monkeypatch, m, n, k_values, match
):
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    with pytest.raises(DimensionError, match=match):
        experiments.noise_recovery(m=m, n=n, k_values=k_values, trials=2)


@pytest.mark.parametrize(
    "run,kwargs",
    [
        (experiments.noise_recovery, dict(k_values=())),
        (experiments.noise_recovery, dict(eps_values=[])),
        (experiments.intro_angles, dict(eps_values=())),
        (experiments.subgroups, dict(n_columns=())),
    ],
)
def test_empty_grid_axis_raises_before_trials(monkeypatch, run, kwargs):
    # an empty axis used to raise from max() or return a report without cells
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    monkeypatch.setattr(synth, "subgroup_data", no_trial)
    monkeypatch.setattr(experiments, "_child", no_trial)
    name = next(iter(kwargs))
    with pytest.raises(DimensionError, match=f"{name} must hold at least one value"):
        run(**kwargs)


@pytest.mark.parametrize(
    "kwargs,error,match",
    [
        (dict(m=60, n=40), DimensionError, "needs n >= 50 .* got 60x40"),
        (dict(m=60, n=50, rho=1.5), ContractViolationError, r"rho must be in \(0, 1\), got 1.5"),
        (dict(m=60, n=50, rho=0.0), ContractViolationError, r"rho must be in \(0, 1\), got 0.0"),
    ],
)
def test_noise_recovery_rejects_small_n_and_bad_rho_before_trials(
    monkeypatch, kwargs, error, match
):
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    with pytest.raises(error, match=match):
        experiments.noise_recovery(k_values=(5,), trials=3, **kwargs)


@pytest.mark.parametrize("kind", ["gapped", "sparse"])
def test_recovery_trial_takes_one_core_svd(monkeypatch, kind):
    # the scorer reads A's rows from Y's thin QR, so a trial takes at most
    # one core SVD: a gapped build's gap check. A sparse build takes none
    calls = []
    core_svd = synth._core_svd

    def spy(f, y):
        calls.append(f.shape)
        return core_svd(f, y)

    monkeypatch.setattr(synth, "_core_svd", spy)
    experiments.noise_recovery(
        kind=kind, m=120, n=60, k_values=(5,), eps_values=(0.1,), trials=2, seed=9
    )
    cores = 1 if kind == "gapped" else 0
    assert calls == [(120, 50)] * cores * 2


@pytest.mark.parametrize("kind", ["gapped", "sparse"])
def test_recovery_trial_reads_the_public_generators_a(monkeypatch, kind):
    # each trial's factors (F, Y) contract to lowrank_<kind>(m, n, seed) bit
    # for bit, with the trial's first child seed, and the rows the middle
    # matrices read are that matrix's selected rows: bit for bit at eps = 0,
    # and those of A + eps E with colored_noise's E to rounding at eps = 0.1
    m, n, kmax, eps_values = 120, 60, 5, (0.0, 0.1)
    built, rows = [], []
    lowrank, nested = synth._lowrank, curfac._nested_middle_matrices

    def lowrank_spy(*args):
        built.append(lowrank(*args))
        return built[-1]

    def rows_spy(r, p, x_s, sizes):
        rows.append(x_s)
        return nested(r, p, x_s, sizes)

    factors = _record_factors(monkeypatch)
    monkeypatch.setattr(synth, "_lowrank", lowrank_spy)
    monkeypatch.setattr(curfac, "_nested_middle_matrices", rows_spy)
    rep = experiments.noise_recovery(
        kind=kind, m=m, n=n, k_values=(kmax,), eps_values=eps_values, trials=2, seed=9
    )
    assert rep.extra["trial_failures"] == []
    gen = synth.lowrank_gapped if kind == "gapped" else synth.lowrank_sparse
    children = np.random.SeedSequence(9).spawn(2)
    assert len(built) == 2 and len(factors) == 4 and len(rows) == 8
    for t, ((f, y), child) in enumerate(zip(built, children)):
        seeds = child.spawn(3)
        a = gen(m, n, seeds[0])
        assert np.array_equal(np.einsum("ij,kj->ik", f, y).view(np.uint64), a.view(np.uint64))
        _, e_unit, _ = synth.colored_noise(
            a, synth.NoiseModel(epsilon=1.0, seed=seeds[1], rho=0.99)
        )
        for i, eps in enumerate(eps_values):
            _, _, (_, _, _, _, w_k, u_k) = factors[2 * t + i]
            s_cur, s_gc = deim.deim_select(w_k, kmax), deim.deim_select(u_k, kmax)
            got_cur, got_gc = rows[4 * t + 2 * i : 4 * t + 2 * i + 2]
            if eps == 0.0:
                assert np.array_equal(got_cur.view(np.uint64), a[s_cur].view(np.uint64))
                assert np.array_equal(got_gc.view(np.uint64), a[s_gc].view(np.uint64))
            else:
                noisy = a + eps * e_unit
                tol = 1e-13 * np.max(np.abs(noisy))
                assert np.max(np.abs(got_cur - noisy[s_cur])) <= tol
                assert np.max(np.abs(got_gc - noisy[s_gc])) <= tol


def _align_signs(got, want):
    return got * np.sign(np.sum(got * want, axis=0))


def _trial_inputs(kind, m, n, seed, inexact):
    """A, the unit-level noise E, the trial's Cholesky factor and ||A|| of
    trial 0 of ``noise_recovery(seed=seed)``, from the public generators."""
    seeds = np.random.SeedSequence(seed).spawn(1)[0].spawn(3)
    gen = synth.lowrank_gapped if kind == "gapped" else synth.lowrank_sparse
    a = gen(m, n, seeds[0])
    _, e_unit, rchol = synth.colored_noise(
        a, synth.NoiseModel(epsilon=1.0, seed=seeds[1], rho=0.99)
    )
    if inexact:
        rchol = synth.perturb_chol(rchol, seeds[2])
    return a, e_unit, rchol, matkit.spectral_norm(a)


def _record_factors(monkeypatch):
    """Record every per-eps factorization of the trials that follow, in
    call order, as (K_eps, rchol, the factors the trial goes on with)."""
    calls = []
    factor = experiments._factor_in_basis

    def spy(k_eps, lift, rchol, kmax):
        out = factor(k_eps, lift, rchol, kmax)
        calls.append((k_eps, rchol, out))
        return out

    monkeypatch.setattr(experiments, "_factor_in_basis", spy)
    return calls


@pytest.mark.parametrize(
    "m,n",
    [(60, 60), (80, 50), (120, 60)],
    ids=["m-is-n", "m-below-n-plus-50", "m-above-n-plus-50"],
)
def test_factor_in_basis_matches_the_noisy_matrix_qr(monkeypatch, m, n):
    # K_eps = eps c R_b[:, :n] R + R_b[:, n:] Y^T from the QR of [G, F] has the
    # triangle of the explicit noisy matrix A + eps E, and so its psi and
    # gamma, each to 1e-12 relative to its largest entry (the accuracy a
    # backward-stable QR gives); both triangles carry a nonnegative
    # diagonal, which aligns their signs. gamma moves by up to
    # ||R - R_ref|| / sigma_min([R_ref; B]) to first order, which exceeds
    # 1e-12 where the stacked pair is ill-conditioned (about 1.4e-12 at
    # m = n, eps = 0.05, where its condition number is 4.7e5): that is the
    # pair's conditioning, not an error of either triangle. The lifted W_k
    # and Z are those of the m x n matrix. The GSVD's U_k and Y are not
    # compared, and U_k is only checked orthonormal: the GSVD leaves them
    # ill-determined where sigma is small, and they moved by up to 4.3e-5
    # here. Held for a square A, for m < n + 50 (a wide [G, F]) and for
    # m >= n + 50
    eps_values, kmax = (0.05, 0.2), 10
    calls = _record_factors(monkeypatch)
    rep = experiments.noise_recovery(
        m=m, n=n, k_values=(5, kmax), eps_values=eps_values, trials=1, seed=7
    )
    assert rep.extra["trial_failures"] == []
    a, e_unit, rchol, _ = _trial_inputs("gapped", m, n, 7, False)
    assert len(calls) == len(eps_values)
    for eps, (k_eps, rchol_used, out) in zip(eps_values, calls):
        assert k_eps.shape == (min(m, n + 50), n)
        assert np.array_equal(rchol_used, rchol)
        _, r, f, g, w_k, u_k = out
        q_ref, r_ref = matkit.thin_qr(a + eps * e_unit)
        f_ref, g_ref = matkit.svd(r_ref), gsvd(r_ref, rchol)
        for got, want in ((r, r_ref), (f.psi, f_ref.psi)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        sigma_min = np.linalg.svd(np.vstack([r_ref, rchol]), compute_uv=False)[-1]
        gamma_tol = max(1e-12, np.linalg.norm(r - r_ref, 2) / sigma_min)
        assert np.max(np.abs(g.gamma - g_ref.gamma)) <= gamma_tol
        assert w_k.shape == u_k.shape == (m, kmax)
        w_ref = q_ref @ f_ref.W[:, :kmax]
        assert np.allclose(_align_signs(w_k, w_ref), w_ref, atol=1e-10)
        assert np.allclose(_align_signs(f.Z, f_ref.Z), f_ref.Z, atol=1e-10)
        assert np.max(np.abs(w_k.T @ w_k - np.eye(kmax))) <= 1e-13
        assert np.max(np.abs(u_k.T @ u_k - np.eye(kmax))) <= 1e-13


def _explicit_trial_errors(kind, m, n, k_values, eps_values, seed, inexact, factors):
    """Reference: one recovery trial on the trial's own per-eps factors
    (``factors``, as :func:`_record_factors` recorded them) and the
    selections they give, that builds every m x n noisy matrix,
    reconstruction and residual and takes its norm with
    matkit.spectral_norm."""
    a, e_unit, rchol, norm_a = _trial_inputs(kind, m, n, seed, inexact)
    kmax = max(k_values)
    sizes = [(k, k) for k in k_values]
    out = {}
    assert len(factors) == len(eps_values)
    for eps, (_, rchol_used, (_, _, f, g, w_k, u_k)) in zip(eps_values, factors):
        assert np.array_equal(rchol_used, rchol)
        noisy = a + eps * e_unit
        p_cur = deim.deim_select(f.Z[:, :kmax], kmax)
        s_cur = deim.deim_select(w_k, kmax)
        p_gc = deim.deim_select(g.Y[:, :kmax], kmax)
        s_gc = deim.deim_select(u_k, kmax)
        m_cur, _, _ = curfac._nested_middle_matrices(noisy, p_cur, noisy[s_cur, :], sizes)
        m_gc, _, _ = curfac._nested_middle_matrices(noisy, p_gc, noisy[s_gc, :], sizes)
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
        ("gapped", 400, 120, False),  # r + k < n at every k
    ],
)
def test_recovery_errors_match_explicit_residual_norms(monkeypatch, kind, m, n, inexact):
    # the errors scored in A's row space equal the 2-norms of the explicit
    # m x n residuals for every method at every k
    k_values, eps_values, seed = (5, 10, 20), (0.05, 0.2), 23
    factors = _record_factors(monkeypatch)
    rep = experiments.noise_recovery(
        kind=kind, m=m, n=n, k_values=k_values, eps_values=eps_values,
        trials=1, seed=seed, inexact_chol=inexact,
    )
    assert rep.extra["trial_failures"] == []
    ref = _explicit_trial_errors(kind, m, n, k_values, eps_values, seed, inexact, factors)
    for cell in rep.cells:
        want = ref[cell["eps"], cell["k"]]
        for method, st in cell["stats"].items():
            assert st["mean"] == pytest.approx(want[method], rel=1e-12, abs=0.0), (
                cell["eps"], cell["k"], method,
            )


def _rank7(m, n, seed):
    """Factors (F, Y) of a rank-7 m x n matrix A = F Y^T."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, 7)), rng.standard_normal((n, 7))


def _test_matrix(gen, m, n, seed):
    """A and its factors (F, Y), A = F Y^T, as a recovery trial has them."""
    if gen is _rank7:
        f, y = _rank7(m, n, seed)
    else:
        f, y = synth._lowrank("gapped" if gen is synth.lowrank_gapped else "sparse", m, n, seed)
    return np.einsum("ij,kj->ik", f, y), f, y


def _reconstructions(a, k, seed):
    """Q of one noisy A and the (left, right) factors of its four rank-k
    reconstructions Q @ left @ right, built from the m-row Q of the noisy
    matrix's own thin QR."""
    noisy, _, rchol = synth.colored_noise(a, synth.NoiseModel(epsilon=0.1, seed=seed))
    q, r = matkit.thin_qr(noisy)
    f, g = matkit.svd(r), gsvd(r, rchol)
    p_cur, s_cur = deim.deim_select(f.Z[:, :k], k), deim.deim_select(q @ f.W[:, :k], k)
    p_gc, s_gc = deim.deim_select(g.Y[:, :k], k), deim.deim_select(q @ g.U[:, :k], k)
    (mc,), _, _ = curfac._nested_middle_matrices(r, p_cur, noisy[s_cur, :], [(k, k)])
    (mg,), _, _ = curfac._nested_middle_matrices(r, p_gc, noisy[s_gc, :], [(k, k)])
    return q, {
        "TSVD": (f.W[:, :k], f.psi[:k, None] * f.Z[:, :k].T),
        "TGSVD": (g.U[:, :k], g.gamma[:k, None] * g.Y[:, :k].T),
        "CUR": (r[:, p_cur], mc @ noisy[s_cur, :]),
        "GCUR": (r[:, p_gc], mg @ noisy[s_gc, :]),
    }


@pytest.mark.parametrize(
    "gen,m,n,k",
    [
        (synth.lowrank_gapped, 400, 120, 10),  # j + k < n
        (synth.lowrank_gapped, 120, 60, 20),  # j + k > n
        (synth.lowrank_sparse, 300, 60, 5),  # rank below 50, j + k < n
        (synth.lowrank_sparse, 300, 60, 20),  # rank below 50, j + k > n
        (_rank7, 200, 40, 10),  # j = 7, j + k < n
        (_rank7, 200, 40, 33),  # j = 7, j + k = n
    ],
)
def test_row_space_scorer_matches_direct_svd(monkeypatch, gen, m, n, k):
    # the Q of the thin QR of the n x j factor Y of A = F Y^T spans A's
    # rows exactly, also where A's rank is below j, so each score equals
    # the 2-norm of the explicit m x n residual, taken by a direct SVD, to
    # rounding. The eigenproblem is (j + k) x (j + k), also when j + k > n.
    # The basis here is the m-row Q of the noisy matrix, so F itself is A's
    # factor in it
    a, f, y = _test_matrix(gen, m, n, 3)
    j = y.shape[1]
    psi = np.linalg.svd(a, compute_uv=False)
    rank = int(np.count_nonzero(~matkit._negligible(psi, psi[0])))
    if gen is synth.lowrank_sparse:
        assert rank < j
    else:
        assert rank == j
    norm_a = matkit.spectral_norm(a)
    sizes = []
    lambda_max = matkit._lambda_max

    def recording(gram):
        sizes.append(gram.shape)
        return lambda_max(gram)

    q, recon = _reconstructions(a, k, 4)
    monkeypatch.setattr(matkit, "_lambda_max", recording)
    score = experiments._row_space_scorer(f, y, norm_a)(q)
    for method, (left, right) in recon.items():
        want = np.linalg.svd(a - q @ left @ right, compute_uv=False)[0] / norm_a
        got = score(left, right)
        assert abs(got - want) <= 1e-15, (method, got, want)
    assert sizes == [(j + k, j + k)] * 4


def test_noise_recovery_takes_one_m_row_reduction_per_trial(monkeypatch):
    # the only m-row factorizations of a trial are two Householder QRs held
    # as reflectors: the gapped generator's F (for its gap check's core
    # SVD) and the trial's one [G, F]. No m-row thin_qr or SVD runs, so no
    # m-row Q is formed, and each eps is factored through its (n + 50) x n
    # K_eps. No spectral norm reads an m-row matrix and no einsum forms one:
    # ||A|| and ||G R|| come from b x n products, and A only as its rows
    m, n, trials = 2000, 300, 2  # noise_recovery's default m x n
    thin_qr_rows, factorizations, norm_rows, einsum_rows = [], [], [], []
    thin_qr, qr, svd = matkit.thin_qr, np.linalg.qr, np.linalg.svd
    spectral_norm, einsum = matkit.spectral_norm, np.einsum

    def thin_qr_spy(x):
        thin_qr_rows.append(np.shape(x)[0])
        return thin_qr(x)

    def spy(name, fn):
        def wrapped(x, *args, **kwargs):
            if np.shape(x)[-2] == m:
                mode = kwargs.get("mode", args[0] if args else None)
                factorizations.append((name, np.shape(x), mode))
            return fn(x, *args, **kwargs)

        return wrapped

    def norm_spy(x):
        norm_rows.append(np.shape(x)[0])
        return spectral_norm(x)

    def einsum_spy(*args, **kwargs):
        out = einsum(*args, **kwargs)
        einsum_rows.append(np.shape(out)[0] if np.ndim(out) else 0)
        return out

    monkeypatch.setattr(matkit, "thin_qr", thin_qr_spy)
    monkeypatch.setattr(np.linalg, "qr", spy("qr", qr))
    monkeypatch.setattr(np.linalg, "svd", spy("svd", svd))
    monkeypatch.setattr(matkit, "spectral_norm", norm_spy)
    monkeypatch.setattr(np, "einsum", einsum_spy)
    rep = experiments.noise_recovery(trials=trials, eps_values=(0.1, 0.2))
    assert rep.extra["trial_failures"] == []
    assert m not in thin_qr_rows and len(thin_qr_rows) > 0
    assert factorizations == [("qr", (m, 50), "raw"), ("qr", (m, n + 50), "raw")] * trials
    assert norm_rows == [n + 50] * 2 * trials
    assert m not in einsum_rows and len(einsum_rows) > 0


@pytest.mark.parametrize("kind", ["gapped", "sparse"])
def test_recovery_trial_traced_peak_is_two_m_row_arrays(kind):
    # [G, F] and the copy numpy's QR factors in place are the only m-row
    # arrays a trial holds at once: its traced peak stays below
    # 2.5 m (n + 50) float64s (2.27 here). A trial that forms A, G R, E
    # and the scaled copies its m-row norms take peaks at 2.80 at this
    # m x n, and fails
    import tracemalloc

    m, n = 6000, 60
    run = experiments._recovery_trial(kind, m, n, (5,), (0.1,), 0.99, False)
    child = np.random.SeedSequence(3).spawn(1)[0]
    run(child)  # first calls warm numpy's caches
    tracemalloc.start()
    try:
        run(child)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * m * (n + 50) * 8


@pytest.mark.parametrize("kind", ["gapped", "sparse"])
def test_recovery_trial_eps_loop_holds_the_reflectors_and_f(monkeypatch, kind):
    # [G, F] is dropped once its QR returns, and F is copied out of it: from
    # the first K_eps factorization to the trial's end the m-row arrays are
    # the reflectors (m (n + 50)) and F (m x 50), so the traced peak of that
    # span stays below 2 m (n + 50) float64s. It reads 1.72 here; a trial
    # that keeps [G, F] through its eps loop reads 2.26 and fails
    import tracemalloc

    m, n = 6000, 60
    factor = experiments._factor_in_basis
    first = []

    def reset_at_first_call(*args):
        if not first:
            first.append(True)
            tracemalloc.reset_peak()
        return factor(*args)

    monkeypatch.setattr(experiments, "_factor_in_basis", reset_at_first_call)
    run = experiments._recovery_trial(kind, m, n, (5,), (0.1,), 0.99, False)
    child = np.random.SeedSequence(3).spawn(1)[0]
    run(child)  # first calls warm numpy's caches
    first.clear()
    tracemalloc.start()
    try:
        run(child)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [True]
    assert peak < 2.0 * m * (n + 50) * 8


def test_noise_recovery_nan_reconstruction_fails_its_trial(monkeypatch):
    # a NaN middle matrix must fail the trial with a message, never score;
    # at n = 50 the rank-50 A leaves r + k >= n, at n = 60 r + k < n
    nested = curfac._nested_middle_matrices

    def poisoned(*args):
        middles, q_c, q_r = nested(*args)
        return [np.full_like(m, np.nan) for m in middles], q_c, q_r

    monkeypatch.setattr(curfac, "_nested_middle_matrices", poisoned)
    for n in (50, 60):
        with pytest.raises(GcurkitError, match="no successful trial.*non-finite"):
            experiments.noise_recovery(
                m=60, n=n, k_values=(5,), eps_values=(0.1,), trials=2, seed=5
            )


def _no_trial(monkeypatch):
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    monkeypatch.setattr(synth, "subgroup_data", no_trial)
    monkeypatch.setattr(experiments, "_child", no_trial)


@pytest.mark.parametrize(
    "run,kwargs",
    [
        (experiments.intro_angles, dict(trials=2)),
        (experiments.noise_recovery, dict(m=60, n=50, k_values=(5,), trials=2)),
        (experiments.subgroups, dict()),
    ],
)
def test_negative_seed_raises_before_trials(monkeypatch, run, kwargs):
    # numpy's SeedSequence used to reject it inside the run, with a traceback
    _no_trial(monkeypatch)
    with pytest.raises(ContractViolationError, match="seed must be a non-negative integer, got -1"):
        run(seed=-1, **kwargs)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(eps_values=(0.1, -0.1)), "epsilon must be >= 0, got -0.1"),
        (dict(eps_values=(float("nan"),)), "epsilon must be finite, got nan"),
        (dict(eps_values=(0.1, float("inf"))), "epsilon must be finite, got inf"),
        (dict(trials=0), "trials must be >= 1, got 0"),
        (dict(trials=-3), "trials must be >= 1, got -3"),
    ],
)
@pytest.mark.parametrize("run", [experiments.intro_angles, experiments.noise_recovery])
def test_trial_grid_is_checked_before_trials(monkeypatch, run, kwargs, match):
    # intro_angles ran a negative eps, both experiments ran a nan or inf
    # eps and failed every trial, and no trials ended in "no trials were run"
    _no_trial(monkeypatch)
    if run is experiments.noise_recovery:
        kwargs = dict(m=60, n=50, k_values=(5,), **kwargs)
    with pytest.raises(ContractViolationError, match=match):
        run(**kwargs)


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
    a = experiments.subgroups(n_columns=(5,), seed=3)
    b = experiments.subgroups(n_columns=(5,), seed=3)
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


def test_report_dict_round_trips_through_json():
    import json

    rep = experiments.intro_angles(eps_values=(5e-3,), trials=5, seed=2)
    text = json.dumps(rep.to_dict(include_timing=False), sort_keys=True)
    assert json.loads(text)["experiment"] == "intro-angles"
