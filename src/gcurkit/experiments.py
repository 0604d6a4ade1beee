"""Reproducible experiment harness: colored-noise recovery, the 3x3
subspace-angle study, and four-subgroup column selection.

Every experiment takes a master seed and derives one child seed per trial
via ``numpy.random.SeedSequence.spawn``, so each trial's random stream
depends only on the master seed and the trial id, and results are
bit-identical for a fixed seed. Trials run one after another in trial-id
order in the calling thread; the dense kernels run on the threads the BLAS
library is given. A failed trial is recorded under ``trial_failures`` and left
out of the statistics; a grid cell that no trial reaches raises.

Noise recovery factors each noisy matrix once: one thin QR, noisy = Q R,
serves both the SVD and the GSVD, which act on the n x n triangle R.
The same Q scores the reconstructions. Each of the four lies in range(Q),
X = Q X_c (TSVD and TGSVD through the left vectors of R's factorizations,
CUR and GCUR through the column factor noisy[:, p] = Q R[:, p]). With
C = Q^T A and P = (I - Q Q^T) A, the residual A - X = Q (C - X_c) + P has
Gram (C - X_c)^T (C - X_c) + P^T P, since Q^T P = 0, so

    ||A - X||^2 = lambda_max((C - X_c)^T (C - X_c) + P^T P).

The identity assumes only X in range(Q), which holds by construction for
all four. C and P^T P are formed once per noisy matrix, and each
reconstruction costs n x n work; no m x n residual is built.
"""

import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, curfac, deim, matkit, synth
from .errors import ContractViolationError, GcurkitError
from .gcur import gcur_only_a
from .gsvd import gsvd

REPORT_SCHEMA = "gcurkit-report/1"

#: The 3x3 rank-2 fixture and its noise covariance for the subspace-angle study.
INTRO_MATRIX = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 2.0], [1.0, 1.0, 2.0]])
INTRO_COVARIANCE = np.array([[1.0, 0.8, 0.3], [0.8, 1.0, 0.8], [0.3, 0.8, 1.0]])


def _run_trials(worker, trials, seed_seq):
    """Run ``worker(trial_id, child_seed)`` for every trial in trial-id order.

    Returns the results of the trials that succeeded and the messages of
    those that raised a numerical error, each in trial-id order.
    """
    results, failures = [], []
    for i, child in enumerate(seed_seq.spawn(trials)):
        try:
            results.append(worker(i, child))
        except (GcurkitError, np.linalg.LinAlgError) as exc:
            failures.append(str(exc))
    return results, failures


def _require_success(results, failures, cell):
    """A grid cell with no successful trial has no statistics: raise instead."""
    if not results:
        first = failures[0] if failures else "no trials were run"
        raise GcurkitError(f"no successful trial for {cell}; first failure: {first}")


def _stats(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": mean, "std": std, "trials": int(arr.size)}


@dataclass
class ExperimentReport:
    """Structured experiment output: parameters, per-cell statistics, timing."""

    experiment: str
    params: dict
    cells: list
    extra: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    def to_dict(self, include_timing=True):
        cells = self.cells
        if not include_timing:
            # wall-clock fields vary run to run; strip for byte-stable output
            cells = [{k: v for k, v in c.items() if k != "wall_s"} for c in cells]
        out = {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "experiment": self.experiment,
            "params": self.params,
            "cells": cells,
        }
        out.update(self.extra)
        if include_timing:
            out["timing"] = self.timing
            out["timestamp"] = datetime.now(timezone.utc).isoformat()
        return out


def intro_angles(eps_values=(5e-2, 5e-3, 5e-4), trials=1000, seed=0):
    """Average largest principal angle between the clean fixture's dominant
    left singular subspace and its estimates from noisy data.

    For each trial the 3x3 rank-2 fixture is perturbed with correlated
    Gaussian noise (covariance ``INTRO_COVARIANCE``), scaled for this fixture
    as E = eps * (||F|| / ||A||) * F. The plain SVD of the noisy matrix is
    compared against the pair factorization that carries the noise
    covariance's Cholesky factor as its second matrix.
    """
    a = INTRO_MATRIX
    rchol = np.linalg.cholesky(INTRO_COVARIANCE).T
    w2 = matkit.svd(a).W[:, :2]
    norm_a = matkit.spectral_norm(a)

    def worker(eps):
        def run(_i, child):
            rng = np.random.default_rng(child)
            f = rng.standard_normal((3, 3)) @ rchol
            e = eps * (matkit.spectral_norm(f) / norm_a) * f
            noisy = a + e
            svd_angle = matkit.max_principal_angle(w2, matkit.svd(noisy).W[:, :2])
            gsvd_angle = matkit.max_principal_angle(w2, gsvd(noisy, rchol).U[:, :2])
            return svd_angle, gsvd_angle

        return run

    master = np.random.SeedSequence(seed)
    per_eps = master.spawn(len(eps_values))
    cells = []
    failures = []
    timing = {}
    for eps, eps_seq in zip(eps_values, per_eps):
        t0 = time.perf_counter()
        results, failed = _run_trials(worker(eps), trials, eps_seq)
        failures += failed
        _require_success(results, failed, f"eps={eps:g}")
        svd_angles = [r[0] for r in results]
        gsvd_angles = [r[1] for r in results]
        cells.append(
            {
                "eps": eps,
                "k": 2,
                "stats": {"SVD": _stats(svd_angles), "GSVD": _stats(gsvd_angles)},
            }
        )
        timing[f"eps={eps:g}"] = round(time.perf_counter() - t0, 3)
    params = {"eps_values": list(eps_values), "trials": trials, "seed": seed}
    extra = {"trial_failures": failures}
    return ExperimentReport("intro-angles", params, cells, extra=extra, timing=timing)


def _factor_once(noisy, rchol, kmax):
    """SVD and GSVD of a noisy matrix from one thin QR, noisy = Q R.

    Both factor the n x n triangle R; only the leading kmax left vectors
    are lifted to m rows: returns (Q, R, svd of R, gsvd of (R, rchol), W_k,
    U_k).
    """
    q, r = matkit.thin_qr(noisy)
    f = matkit.svd(r)
    g = gsvd(r, rchol)
    return q, r, f, g, q @ f.W[:, :kmax], q @ g.U[:, :kmax]


def _relative_error_in_basis(a_rel, q, norm_a):
    """Score reconstructions X = Q @ left @ right that lie in range(Q).

    ``a_rel`` is A / ||A||, so the Grams stay near unit scale and the score
    is the relative error ||A - X|| / ||A|| directly. Forms C = Q^T A_rel and
    the n x n Gram of P = A_rel - Q C once; each call then needs one n x n
    product, one n x n Gram and one symmetric eigenvalue.
    """
    c = q.T @ a_rel
    p = a_rel - q @ c
    ptp = p.T @ p

    def score(left, right):
        d = c - left @ (right / norm_a)
        return math.sqrt(matkit._lambda_max(d.T @ d + ptp))

    return score


def _recovery_trial(a_gen, k_values, eps_values, rho, inexact):
    """Build the per-trial worker for noise recovery; returns nested errors.

    The noise is drawn once per trial at unit level and scaled by each eps.
    Each noisy matrix is factored once (:func:`_factor_once`), and the
    middle matrices of every k come from one QR per side of the kmax
    selection, since DEIM prefixes nest. Their column factor and core come
    from the triangle R of noisy = Q R, so they have n rows instead of m.
    """
    kmax = max(k_values)
    sizes = [(k, k) for k in k_values]

    def run(_i, child):
        seeds = child.spawn(3)
        a = a_gen(seeds[0])
        norm_a = matkit.spectral_norm(a)
        t0 = time.perf_counter()
        _, e_unit, rchol = synth.colored_noise(
            a, synth.NoiseModel(epsilon=1.0, seed=seeds[1], rho=rho), norm_a=norm_a
        )
        rchol_used = synth.perturb_chol(rchol, seeds[2]) if inexact else rchol
        noise_s = (time.perf_counter() - t0) / max(1, len(eps_values))
        for k in k_values:
            matkit._require_truncation_rank(k, a.shape[1])
        out = {}
        cell_s = {}
        a_rel = a / norm_a
        for eps in eps_values:
            t0 = time.perf_counter()
            noisy = e_unit * eps  # A + eps * E, bit for bit, with one m x n temporary
            noisy += a
            q, r, f, g, w_k, u_k = _factor_once(noisy, rchol_used, kmax)
            p_cur = deim.deim_select(f.Z[:, :kmax], kmax)
            s_cur = deim.deim_select(w_k, kmax)
            p_gc = deim.deim_select(g.Y[:, :kmax], kmax)
            s_gc = deim.deim_select(u_k, kmax)
            m_cur = curfac._nested_middle_matrices(r, p_cur, noisy[s_cur, :], sizes)
            m_gc = curfac._nested_middle_matrices(r, p_gc, noisy[s_gc, :], sizes)
            score = _relative_error_in_basis(a_rel, q, norm_a)
            shared_s = time.perf_counter() - t0 + noise_s
            out[eps] = {}
            for k, mc, mg in zip(k_values, m_cur, m_gc):
                t1 = time.perf_counter()
                out[eps][k] = {
                    "TSVD": score(f.W[:, :k], f.psi[:k, None] * f.Z[:, :k].T),
                    "TGSVD": score(g.U[:, :k], g.gamma[:k, None] * g.Y[:, :k].T),
                    "CUR": score(r[:, p_cur[:k]], mc @ noisy[s_cur[:k], :]),
                    "GCUR": score(r[:, p_gc[:k]], mg @ noisy[s_gc[:k], :]),
                }
                cell_s[(eps, k)] = time.perf_counter() - t1 + shared_s / len(k_values)
            # the next eps's factorization should not share the peak with these
            del q, score, w_k, u_k, noisy
        return out, cell_s

    return run


def noise_recovery(
    kind="gapped",
    m=2000,
    n=300,
    k_values=(10, 15, 20, 30),
    eps_values=(0.05, 0.1, 0.15, 0.2),
    trials=20,
    rho=0.99,
    seed=0,
    inexact_chol=False,
):
    """Recover a seeded low-rank matrix from colored-noise-perturbed data.

    For every (k, eps) grid cell, reports the mean and stddev over trials of
    the relative 2-norm recovery error for four methods: rank truncation of
    the noisy matrix's SVD, rank truncation of the pair factorization
    carrying the noise covariance factor, and the index-based reconstructions
    built from each. ``inexact_chol=True`` hands the pair factorization a
    perturbed covariance factor while the noise itself stays exact. A
    negative eps raises ContractViolationError before any trial runs.
    """
    if kind == "sparse":
        a_gen = lambda s: synth.lowrank_sparse(m, n, s)
    elif kind == "gapped":
        a_gen = lambda s: synth.lowrank_gapped(m, n, s)
    else:
        raise ValueError(f"kind must be 'sparse' or 'gapped', got {kind!r}")
    for eps in eps_values:
        if eps < 0:
            raise ContractViolationError(f"epsilon must be >= 0, got {eps}")

    worker = _recovery_trial(a_gen, tuple(k_values), tuple(eps_values), rho, inexact_chol)
    master = np.random.SeedSequence(seed)
    t0 = time.perf_counter()
    results, failures = _run_trials(worker, trials, master)

    cells = []
    for eps in eps_values:
        for k in k_values:
            _require_success(results, failures, f"eps={eps:g}, k={k}")
            per_method = {}
            for method in ("TSVD", "TGSVD", "CUR", "GCUR"):
                vals = [r[0][eps][k][method] for r in results]
                per_method[method] = _stats(vals)
            wall = sum(r[1][(eps, k)] for r in results)
            cells.append(
                {"eps": eps, "k": k, "stats": per_method, "wall_s": round(wall, 3)}
            )
    params = {
        "kind": kind,
        "m": m,
        "n": n,
        "k_values": list(k_values),
        "eps_values": list(eps_values),
        "trials": trials,
        "rho": rho,
        "seed": seed,
        "inexact_chol": inexact_chol,
    }
    extra = {"trial_failures": failures}
    timing = {"total_s": round(time.perf_counter() - t0, 3)}
    return ExperimentReport("noise-recovery", params, cells, extra=extra, timing=timing)


def nearest_centroid_cv(x, labels, folds=10):
    """Deterministic k-fold nearest-centroid classification error.

    Fold assignment is row index mod ``folds`` (stratified for block-ordered
    group labels). Columns are standardized with training-fold statistics
    before distances are taken, so high-variance features cannot drown
    informative ones; this is part of the recorded proxy definition.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    idx = np.arange(len(labels))
    wrong = 0
    for f in range(folds):
        test = idx % folds == f
        train = ~test
        xt, xs = x[train], x[test]
        mu = xt.mean(axis=0)
        sd = xt.std(axis=0)
        sd[sd == 0] = 1.0
        xt = (xt - mu) / sd
        xs = (xs - mu) / sd
        centroids = np.stack([xt[labels[train] == c].mean(axis=0) for c in classes])
        dist = ((xs[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        pred = classes[np.argmin(dist, axis=1)]
        wrong += int((pred != labels[test]).sum())
    return wrong / len(labels)


def separation_ratio(coords, labels):
    """Mean between-centroid distance over mean within-group spread."""
    coords = np.asarray(coords, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    centroids = np.stack([coords[labels == c].mean(axis=0) for c in classes])
    pairs = [
        np.linalg.norm(centroids[i] - centroids[j])
        for i in range(len(classes))
        for j in range(i + 1, len(classes))
    ]
    within = [
        float(np.linalg.norm(coords[labels == c] - centroids[i], axis=1).mean())
        for i, c in enumerate(classes)
    ]
    return float(np.mean(pairs) / np.mean(within))


def subgroups(n_columns=(2, 5, 10), seed=0, points_per_group=100, include_projections=True):
    """Column subset selection on the four-subgroup data, target vs background.

    Selects columns of the centered target with the single-matrix CUR and
    with the pair decomposition against the background, then scores each
    selection by the nearest-centroid cross-validation proxy and by the
    separation ratio of the two leading selected columns. Projections onto
    the leading right singular directions (plain and pair-generalized) are
    scored the same way and returned as plot coordinates.
    """
    spec = synth.SubgroupSpec(points_per_group=points_per_group, seed=seed)
    a, b, labels = synth.subgroup_data(spec, center=True)
    kmax = max(n_columns)
    t0 = time.perf_counter()

    cur = curfac.deim_cur(a, kmax)
    gc = gcur_only_a(a, b, kmax)
    f = matkit.svd(a)
    g = gsvd(a, b)
    x_right = np.linalg.inv(g.Y).T  # right generalized directions, on demand

    cells = []
    for n_cols in n_columns:
        stats = {}
        stats["CUR"] = {
            "cv_error": nearest_centroid_cv(a[:, cur.p[:n_cols]], labels),
            "columns": [int(c) + 1 for c in cur.p[:n_cols]],
        }
        stats["GCUR"] = {
            "cv_error": nearest_centroid_cv(a[:, gc.p[:n_cols]], labels),
            "columns": [int(c) + 1 for c in gc.p[:n_cols]],
        }
        stats["TSVD"] = {"cv_error": nearest_centroid_cv(a @ f.Z[:, :n_cols], labels)}
        stats["TGSVD"] = {
            "cv_error": nearest_centroid_cv(a @ x_right[:, :n_cols], labels)
        }
        cells.append({"n_columns": n_cols, "stats": stats})

    separation = {
        "CUR": separation_ratio(a[:, cur.p[:2]], labels),
        "GCUR": separation_ratio(a[:, gc.p[:2]], labels),
        "TSVD": separation_ratio(a @ f.Z[:, :2], labels),
        "TGSVD": separation_ratio(a @ x_right[:, :2], labels),
    }
    extra = {"separation_ratio_two_leading": separation}
    if include_projections:
        extra["projections"] = {
            "labels": labels.tolist(),
            "group_names": list(synth.SUBGROUP_NAMES),
            "CUR": a[:, cur.p[:2]].tolist(),
            "GCUR": a[:, gc.p[:2]].tolist(),
            "TSVD": (a @ f.Z[:, :2]).tolist(),
            "TGSVD": (a @ x_right[:, :2]).tolist(),
        }
    params = {
        "n_columns": list(n_columns),
        "seed": seed,
        "points_per_group": points_per_group,
    }
    timing = {"total_s": round(time.perf_counter() - t0, 3)}
    return ExperimentReport("subgroups", params, cells, extra=extra, timing=timing)
