"""Reproducible experiment harness: colored-noise recovery, the 3x3
subspace-angle study, and four-subgroup column selection.

Every experiment takes a master seed. One trial loop runs every
experiment: it hands its worker stacks of trial ids in order, and stack j
gets the random stream of child seed ``seq.spawn(n)[j]`` of its
``numpy.random.SeedSequence``, so each stack's stream depends only on the
master seed and the stack id, and results are bit-identical for a fixed
seed. Everything runs in the calling thread; the dense kernels run on the
threads the BLAS library is given. Noise recovery takes one trial per
stack, so trial i gets child i. The 3x3 subspace-angle study takes
``INTRO_STACK`` trials per stack: stack j draws its noise in one
``standard_normal((INTRO_STACK, 3, 3))`` call from child j, and trial i
takes row i mod ``INTRO_STACK`` of it, so ``INTRO_STACK`` is part of the
seeding rule. Each stage after the draw (the noise product, its norm, the
SVD, the GSVD and the two angles) is one stacked numpy call on the private
``matkit`` and ``gsvd`` cores for the whole stack, which gives each trial
the bits it gets alone. A failed trial is recorded under
``trial_failures`` and left out of the statistics. A stack of several
trials that raises runs again one trial at a time, on the same draws, so
each failing trial records its own message in trial-id order. A grid
cell that no trial reaches raises.

Noise recovery forms no m x n matrix. A trial holds the test matrix as its
factors, A = F Y^T with 50 columns each, and the noise as its raw Gaussian
draw G (m x n): E = c G R, with R the Cholesky factor of the noise
covariance and c = ||A|| / ||G R||. One Householder QR of the m x (n + 50)
matrix [G, F] = Q_b R_b per trial (``matkit._triangle_and_lift``, which
keeps Q_b as reflectors; Q_b is m x b with b = min(m, n + 50)) gives
G R = Q_b R_b[:, :n] R and A = Q_b R_b[:, n:] Y^T, so ||A||, ||G R|| and c
are norms of b x n matrices, and

    A + eps E = Q_b K_eps,    K_eps = eps c R_b[:, :n] R + R_b[:, n:] Y^T,

with K_eps b x n (Golub & Van Loan, Matrix Computations, sec. 6.5, on
updating a QR; LAPACK xTPQRT for the triangular-pentagonal structure).
Per eps, one thin QR K_eps = Q_s R gives noisy = Q R with Q = Q_b Q_s,
and R serves both the SVD and the GSVD, which act on the n x n triangle.
Only the leading kmax left vectors of the two are lifted to m rows, in one
call of Q_b's lift. The rows the middle matrices read are
eps c (G R)[s] + F[s] Y^T. Once the QR returns, F is copied out of [G, F]
and [G, F] is dropped: (G R)[s] is read as rows s of Q_b (R_b[:, :n] R)
through the lift's row-gather form, whose one b x n solve runs once per
trial, and the einsum of F[s] gives A[s] with the public generator's bits.
The reconstructions are scored in A's row space. Each of the four lies in
range(Q), X = Q L R' (TSVD and TGSVD through the left vectors of R's
factorizations, CUR and GCUR through the column factor
noisy[:, p] = Q R[:, p]), with L n x k and R' k x n. A's rows lie in
range(Y): with the thin QR Y = Q_Y T_Y of the generator's n x j factor Y
(j = 50), A = F Y^T = (F T_Y^T) Q_Y^T, so A = A Q_Y Q_Y^T exactly.
Split R' = E' Q_Y^T + H W^T with E' = R' Q_Y and W H^T the thin QR of the
n x k matrix (R' - E' Q_Y^T)^T = (I - Q_Y Q_Y^T) R'^T, so H is k x k and W
has orthonormal columns, orthogonal to Q_Y in every column that H uses (a
column of W that H multiplies by zero drops out). With
C_Y = Q^T A Q_Y and P_Y = A Q_Y - Q C_Y (so Q^T P_Y = 0),

    A - X = [Q (C_Y - L E') + P_Y, -Q L H] [Q_Y, W]^T,

and since [Q_Y, W] has orthonormal columns,

    ||A - X||^2 = lambda_max(M^T M + diag(P_Y^T P_Y, 0)),
    M = [C_Y - L E', -L H],

a (j + k) x (j + k) eigenproblem. The identity assumes only X in
range(Q), which holds by construction for all four, so every score is the
relative error of the explicit m x n residual up to rounding. A Q_Y lies
in range(Q_b) too: A Q_Y = Q_b F' with F' = R_b[:, n:] T_Y^T, so
C_Y = Q_s^T F' and P_Y = Q_b (F' - Q_s C_Y), and P_Y^T P_Y is the Gram of
the b-row F' - Q_s C_Y. Per trial, [G, F] costs one m x (n + 50) QR,
the row-gather form one b x b x n solve and Q_Y one n x j QR; per eps,
K_eps costs a b x n QR, the SVD and GSVD of R and an m x b x 2 kmax lift,
the selected rows 2 kmax x b x n work, and C_Y and P_Y b x n x j work;
per score, (j + k)-sized work. In the eps loop only Q_b's reflectors and
F have m rows. No A, E or G R, no m-row Q, no m x n residual or noisy
matrix, and no QR or SVD of A or of a noisy matrix is formed.
"""

import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, curfac, deim, matkit, synth
from .errors import ContractViolationError, DimensionError, GcurkitError
from .gcur import gcur_only_a
from .gsvd import _stacked_gsvd, gsvd

REPORT_SCHEMA = "gcurkit-report/1"


def _report_head(kind, name, params, include_timing):
    """Every report's header; ``kind`` is "command" or "experiment". Its
    timestamp is the one wall-clock value outside ``timing``."""
    head = {"schema": REPORT_SCHEMA, "version": __version__, kind: name, "params": params}
    if include_timing:
        head["timestamp"] = datetime.now(timezone.utc).isoformat()
    return head


#: The 3x3 rank-2 fixture and its noise covariance for the subspace-angle study.
INTRO_MATRIX = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 2.0], [1.0, 1.0, 2.0]])
INTRO_COVARIANCE = np.array([[1.0, 0.8, 0.3], [0.8, 1.0, 0.8], [0.3, 0.8, 1.0]])

#: Trials per stack in ``intro_angles``. One stack of 3x3 trials costs one
#: numpy call per stage; a bounded stack keeps the peak memory flat.
INTRO_STACK = 256

# A trial that raises one of these is recorded as failed; anything else is a bug.
_TRIAL_ERRORS = (GcurkitError, np.linalg.LinAlgError)


def _run_trials(worker, trials, size):
    """Run ``worker(ids)`` on lists of up to ``size`` trial ids in trial-id
    order; the worker returns one result per trial of its list.

    A list of several trials that raises a numerical error runs again one
    trial at a time, so each failing trial records its own message; a
    one-trial list records its failure at once. Returns the results and
    the failure messages, each in trial-id order.
    """
    results, failures = [], []
    for lo in range(0, trials, size):
        ids = list(range(lo, min(lo + size, trials)))
        try:
            results += worker(ids)
        except _TRIAL_ERRORS as exc:
            if len(ids) == 1:
                failures.append(str(exc))
                continue
            for i in ids:
                try:
                    results += worker([i])
                except _TRIAL_ERRORS as exc:
                    failures.append(str(exc))
    return results, failures


def _child(seq, i):
    """Child ``i`` of ``seq``, as numpy defines ``spawn``: the seed that
    ``seq.spawn(n)[i]`` gives for any n > i while ``seq`` has spawned none."""
    return np.random.SeedSequence(
        seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size
    )


def _require_values(values, name):
    """An empty grid axis gives a report without cells: raise instead."""
    if len(values) == 0:
        raise DimensionError(f"{name} must hold at least one value")


def _require_seed(seed):
    """A seed that numpy's SeedSequence rejects (a negative integer, say)
    raises ContractViolationError, before any trial runs."""
    try:
        np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"seed must be a non-negative integer, got {seed!r}") from exc


def _require_trial_grid(eps_values, trials):
    """The trial experiments' grid, checked before any trial runs: at least
    one eps, each finite and >= 0 (ContractViolationError; an empty axis
    raises DimensionError), and at least one trial."""
    _require_values(eps_values, "eps_values")
    for eps in eps_values:
        if not math.isfinite(eps):
            raise ContractViolationError(f"epsilon must be finite, got {eps}")
        if eps < 0:
            raise ContractViolationError(f"epsilon must be >= 0, got {eps}")
    if trials < 1:
        raise ContractViolationError(f"trials must be >= 1, got {trials}")


def _require_success(results, failures, cell):
    """A grid cell with no successful trial has no statistics: raise instead."""
    if not results:
        raise GcurkitError(f"no successful trial for {cell}; first failure: {failures[0]}")


def _stats(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": mean, "std": std, "trials": int(arr.size)}


@dataclass
class ExperimentReport:
    """Experiment output: params, per-cell statistics, extra fields and
    ``timing``, which holds every wall-clock value but the timestamp."""

    experiment: str
    params: dict
    cells: list
    extra: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    def to_dict(self, include_timing=True):
        out = _report_head("experiment", self.experiment, self.params, include_timing)
        out["cells"] = self.cells
        out.update(self.extra)
        if include_timing:
            out["timing"] = self.timing
        return out


def intro_angles(eps_values=(5e-2, 5e-3, 5e-4), trials=1000, seed=0):
    """Average largest principal angle between the clean fixture's dominant
    left singular subspace and its estimates from noisy data.

    For each trial the 3x3 rank-2 fixture is perturbed with correlated
    Gaussian noise (covariance ``INTRO_COVARIANCE``), scaled for this fixture
    as E = eps * (||F|| / ||A||) * F. The plain SVD of the noisy matrix is
    compared against the pair factorization that carries the noise
    covariance's Cholesky factor as its second matrix.

    The trials of each eps run as stacks of ``INTRO_STACK`` (see the module
    docstring). Stack j of an eps draws all ``INTRO_STACK`` noise matrices
    from the stream of that eps's ``spawn(n)[j]``, also when the stack is
    the partial last one or a failed stack runs again trial by trial, and
    trial i takes draw i mod ``INTRO_STACK``: its noise depends only on the
    seed, the eps and i, not on ``trials`` or on the BLAS thread count.
    Then one stacked call per stage runs on the private cores of
    ``matkit.spectral_norm``, ``matkit.svd``, ``gsvd`` and
    ``matkit.max_principal_angle``, with the results those public functions
    give trial by trial. The fixture and the clean basis are checked once
    per call. Before any trial runs, an empty ``eps_values`` raises
    DimensionError, and a negative or non-finite eps, ``trials`` < 1 or a
    seed that ``numpy.random.SeedSequence`` rejects ContractViolationError.
    """
    _require_trial_grid(eps_values, trials)
    _require_seed(seed)
    a = INTRO_MATRIX
    rchol = np.linalg.cholesky(INTRO_COVARIANCE).T
    w2 = matkit.svd(a).W[:, :2]
    matkit._check_orthonormal(w2, "U1")
    norm_a = matkit.spectral_norm(a)

    def angle(u2):
        matkit._check_orthonormal(u2, "U2")
        return matkit._max_principal_angle(w2, u2)

    def worker(eps, eps_seq):
        def run(ids):
            child = _child(eps_seq, ids[0] // INTRO_STACK)
            draws = np.random.default_rng(child).standard_normal((INTRO_STACK, 3, 3))
            # the stack bypasses as_matrix; this is the check spectral_norm(f) makes
            f = matkit.require_finite(draws[np.remainder(ids, INTRO_STACK)] @ rchol, "A")
            e = (eps * (matkit._spectral_norm(f) / norm_a))[:, None, None] * f
            noisy = a + e
            svd_angles = angle(matkit._svd(noisy).W[..., :2])
            gsvd_angles = angle(_stacked_gsvd(noisy, rchol).U[..., :2])
            return list(zip(svd_angles.tolist(), gsvd_angles.tolist()))

        return run

    master = np.random.SeedSequence(seed)
    per_eps = master.spawn(len(eps_values))
    cells = []
    failures = []
    timing = {}
    for eps, eps_seq in zip(eps_values, per_eps):
        t0 = time.perf_counter()
        results, failed = _run_trials(worker(eps, eps_seq), trials, INTRO_STACK)
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


def _factor_in_basis(k_eps, lift, rchol, kmax):
    """SVD and GSVD of a noisy matrix Q_b K_eps from one thin QR of K_eps.

    ``lift`` maps X to Q_b X. With K_eps = Q_s R, the noisy matrix is
    (Q_b Q_s) R, and both factorizations act on the n x n triangle R; the
    leading kmax left vectors of the two are lifted to m rows in one call:
    returns (Q_s, R, svd of R, gsvd of (R, rchol), W_k, U_k).
    """
    q_s, r = matkit.thin_qr(k_eps)
    f = matkit.svd(r)
    g = gsvd(r, rchol)
    lifted = lift(q_s @ np.hstack([f.W[:, :kmax], g.U[:, :kmax]]))
    return q_s, r, f, g, lifted[:, :kmax], lifted[:, kmax:]


def _row_space_scorer(f_coef, y, norm_a):
    """Score reconstructions X = Q_b Q_s @ left @ right that lie in
    range(Q_b Q_s), in A's row space (see the module docstring).

    A = Q_b f_coef Y^T for some orthonormal-column Q_b, so f_coef is the
    b x j coordinate matrix of the factor F in Q_b (F itself when Q_b is
    the identity). Once per trial: the thin QR Y = Q_Y T_Y of the
    generator's n x j factor, whose Q_Y is an exact orthonormal basis of
    A's rows; then F' = f_coef T_Y^T / ||A|| gives A Q_Y / ||A|| = Q_b F',
    so the Grams stay near unit scale and each score is the relative error
    ||A - X|| / ||A||. ``in_basis(q_s)`` forms C_Y and the j x j Gram of
    P_Y once per Q_s, from b-row work; each ``score(left, right)`` then
    needs one thin QR of an n x k matrix, one (j + k) x (j + k) Gram and
    its largest eigenvalue, for every n. The largest eigenvalue depends on
    H only through H H^T, so only the triangle of that QR is kept. No
    direction of A is truncated, so each score equals ||A - X|| / ||A|| up
    to rounding.
    """
    q_y, t_y = matkit.thin_qr(y)
    j = q_y.shape[1]
    g = (f_coef @ t_y.T) / norm_a

    def in_basis(q):
        c = q.T @ g
        p = g - q @ c
        ptp = p.T @ p

        def score(left, right):
            right = right / norm_a
            e = right @ q_y
            f_rest = matkit._triangle_and_lift(right.T - q_y @ e.T)[0].T
            mat = np.hstack([c - left @ e, -(left @ f_rest)])
            gram = mat.T @ mat
            gram[:j, :j] += ptp
            return math.sqrt(matkit._lambda_max(gram))

        return score

    return in_basis


def _recovery_trial(kind, m, n, k_values, eps_values, rho, inexact):
    """Build the per-trial worker for noise recovery; returns nested errors.

    A trial builds A's factors (F, Y) with the generators' one builder
    (``synth._lowrank``) and never forms A; the only core SVD it takes is
    the gapped build's gap check. It draws G as ``colored_noise`` does, bit
    for bit, and takes one QR of [G, F] = Q_b R_b, held as reflectors; then
    it copies F out and drops [G, F], and drops R_b once the b x n blocks
    that give ||A||, ||G R|| and c are formed. Each noisy matrix
    A + eps E = Q_b K_eps is factored through the b x n K_eps
    (:func:`_factor_in_basis`). The middle matrices of every k come from
    one QR per side of the kmax selection, since DEIM prefixes nest. Their column factor and core come from the
    triangle R of K_eps = Q_s R, so they have n rows instead of m, and
    their selected rows are eps c (G R)[s] + F[s] Y^T: (G R)[s] from rows s
    of the reflectors (the lift's row-gather form of R_b[:, :n] R, set up
    once per trial), and the A part with the bits of
    ``lowrank_<kind>(m, n, seed)[s]``. The errors are scored in A's row
    space (:func:`_row_space_scorer`) on b-row work: every score equals the
    relative error of the explicit m x n residual up to rounding.
    """
    kmax = max(k_values)
    sizes = [(k, k) for k in k_values]
    rchol = synth.toeplitz_chol(n, rho)

    def run(child):
        seeds = child.spawn(3)
        f_a, y_a = synth._lowrank(kind, m, n, seeds[0])
        t0 = time.perf_counter()
        rchol_used = synth.perturb_chol(rchol, seeds[2]) if inexact else rchol
        # [G, F] in Fortran order, which numpy's QR copies only once. F is
        # copied out only after the QR, so the QR holds no more than [G, F]
        # and its copy, and the eps loop holds only the reflectors and F
        gf = np.empty((m, n + f_a.shape[1]), order="F")
        gf[:, n:] = f_a
        del f_a
        gf[:, :n] = np.random.default_rng(seeds[1]).standard_normal((m, n))
        r_b, lift = matkit._triangle_and_lift(gf)
        f_a = gf[:, n:].copy()
        del gf
        r_gr, f_coef = r_b[:, :n] @ rchol, r_b[:, n:]
        fy = f_coef @ y_a.T
        norm_a = matkit.spectral_norm(fy)
        c = norm_a / matkit.spectral_norm(r_gr)
        in_basis = _row_space_scorer(f_coef, y_a, norm_a)
        del r_b, f_coef
        gr_rows = lift(r_gr, gather=True)  # s -> (G R)[s] = (Q_b R_b[:, :n] R)[s]

        def noisy_rows(s, eps):
            return (eps * c) * gr_rows(s) + np.einsum("ij,kj->ik", f_a[s], y_a)

        trial_s = (time.perf_counter() - t0) / max(1, len(eps_values))
        out = {}
        cell_s = {}
        for eps in eps_values:
            t0 = time.perf_counter()
            q_s, r, f, g, w_k, u_k = _factor_in_basis(
                (eps * c) * r_gr + fy, lift, rchol_used, kmax
            )
            p_cur = deim.deim_select(f.Z[:, :kmax], kmax)
            s_cur = deim.deim_select(w_k, kmax)
            p_gc = deim.deim_select(g.Y[:, :kmax], kmax)
            s_gc = deim.deim_select(u_k, kmax)
            rows_cur, rows_gc = noisy_rows(s_cur, eps), noisy_rows(s_gc, eps)
            m_cur, _, _ = curfac._nested_middle_matrices(r, p_cur, rows_cur, sizes)
            m_gc, _, _ = curfac._nested_middle_matrices(r, p_gc, rows_gc, sizes)
            score = in_basis(q_s)
            shared_s = time.perf_counter() - t0 + trial_s
            out[eps] = {}
            for k, mc, mg in zip(k_values, m_cur, m_gc):
                t1 = time.perf_counter()
                out[eps][k] = {
                    "TSVD": score(f.W[:, :k], f.psi[:k, None] * f.Z[:, :k].T),
                    "TGSVD": score(g.U[:, :k], g.gamma[:k, None] * g.Y[:, :k].T),
                    "CUR": score(r[:, p_cur[:k]], mc @ rows_cur[:k]),
                    "GCUR": score(r[:, p_gc[:k]], mg @ rows_gc[:k]),
                }
                cell_s[(eps, k)] = time.perf_counter() - t1 + shared_s / len(k_values)
            # the next eps's factorization should not share the peak with these
            del q_s, r, f, g, w_k, u_k, score
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
    negative or non-finite eps, ``trials`` < 1, a seed that
    ``numpy.random.SeedSequence`` rejects or a rho outside (0, 1) raises
    ContractViolationError, and an empty ``k_values`` or ``eps_values``,
    m < n, n < 50 (the generators' rank-50 build) or a k outside
    1 <= k < n raises DimensionError, before any trial runs.
    """
    if kind not in ("sparse", "gapped"):
        raise ValueError(f"kind must be 'sparse' or 'gapped', got {kind!r}")
    _require_values(k_values, "k_values")
    _require_trial_grid(eps_values, trials)
    _require_seed(seed)
    if m < n:
        raise DimensionError(f"noise recovery needs m >= n, got {m}x{n}")
    if n < 50:
        raise DimensionError(f"noise recovery needs n >= 50 for a rank-50 build, got {m}x{n}")
    for k in k_values:
        matkit._require_truncation_rank(k, n)

    worker = _recovery_trial(
        kind, m, n, tuple(k_values), tuple(eps_values), rho, inexact_chol
    )
    master = np.random.SeedSequence(seed)
    t0 = time.perf_counter()
    results, failures = _run_trials(
        lambda ids: [worker(_child(master, ids[0]))], trials, 1
    )

    cells, timing = [], {}
    for eps in eps_values:
        for k in k_values:
            cell = f"eps={eps:g}, k={k}"
            _require_success(results, failures, cell)
            per_method = {}
            for method in ("TSVD", "TGSVD", "CUR", "GCUR"):
                vals = [r[0][eps][k][method] for r in results]
                per_method[method] = _stats(vals)
            cells.append({"eps": eps, "k": k, "stats": per_method})
            timing[cell] = round(sum(r[1][(eps, k)] for r in results), 3)
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
    timing["total_s"] = round(time.perf_counter() - t0, 3)
    name = "noise-recovery-inexact" if inexact_chol else "noise-recovery"
    return ExperimentReport(name, params, cells, extra=extra, timing=timing)


def nearest_centroid_cv(x, labels):
    """Deterministic 10-fold nearest-centroid classification error.

    Fold assignment is row index mod 10 (stratified for block-ordered group
    labels). Columns are standardized with training-fold statistics
    before distances are taken, so high-variance features cannot drown
    informative ones; this is part of the recorded proxy definition.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    idx = np.arange(len(labels))
    folds = 10
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


def subgroups(n_columns=(2, 5, 10), seed=0, points_per_group=100):
    """Column subset selection on the four-subgroup data, target vs background.

    Selects columns of the centered target with the single-matrix CUR and
    with the pair decomposition against the background, then scores each
    selection by the nearest-centroid cross-validation proxy and by the
    separation ratio of the two leading selected columns. Projections onto
    the leading right singular directions (plain and pair-generalized) are
    scored the same way and returned as plot coordinates; the two leading
    coordinates are scored and returned even when every entry of
    ``n_columns`` is 1. An empty ``n_columns``, or an entry n outside
    1 <= n < 30 (the data's feature count), raises DimensionError before
    any selection, and a seed that ``numpy.random.SeedSequence`` rejects
    ContractViolationError.
    """
    _require_values(n_columns, "n_columns")
    _require_seed(seed)
    spec = synth.SubgroupSpec(points_per_group=points_per_group, seed=seed)
    a, b, labels = synth.subgroup_data(spec, center=True)
    for n in n_columns:
        matkit._require_truncation_rank(n, a.shape[1])
    # the two leading coordinates are scored at every rank; DEIM prefixes
    # nest, so selecting more columns leaves the first ones as they are
    kmax = max(2, max(n_columns))
    t0 = time.perf_counter()

    cur = curfac.deim_cur(a, kmax)
    gc = gcur_only_a(a, b, kmax)
    f = matkit.svd(a)
    x_right = np.linalg.inv(gc.Y).T  # right generalized directions, from gcur's Y
    coords = {  # each method's first n coordinates of the target
        "CUR": lambda n: a[:, cur.p[:n]],
        "GCUR": lambda n: a[:, gc.p[:n]],
        "TSVD": lambda n: a @ f.Z[:, :n],
        "TGSVD": lambda n: a @ x_right[:, :n],
    }

    cells = []
    for n in n_columns:
        stats = {
            name: {"cv_error": nearest_centroid_cv(of(n), labels)} for name, of in coords.items()
        }
        stats["CUR"]["columns"] = [int(c) + 1 for c in cur.p[:n]]
        stats["GCUR"]["columns"] = [int(c) + 1 for c in gc.p[:n]]
        cells.append({"n_columns": n, "stats": stats})

    leading = {name: of(2) for name, of in coords.items()}
    separation = {name: separation_ratio(x, labels) for name, x in leading.items()}
    extra = {
        "separation_ratio_two_leading": separation,
        "projections": {
            "labels": labels.tolist(),
            "group_names": list(synth.SUBGROUP_NAMES),
            **{name: x.tolist() for name, x in leading.items()},
        },
    }
    params = {
        "n_columns": list(n_columns),
        "seed": seed,
        "points_per_group": points_per_group,
    }
    timing = {"total_s": round(time.perf_counter() - t0, 3)}
    return ExperimentReport("subgroups", params, cells, extra=extra, timing=timing)
