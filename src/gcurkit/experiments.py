"""Reproducible experiment harness: colored-noise recovery, the 3x3
subspace-angle study, and four-subgroup column selection.

Every experiment takes a master seed, and trial i gets the random stream
of child seed ``seq.spawn(n)[i]`` of its ``numpy.random.SeedSequence``, so
each trial's stream depends only on the master seed and the trial id, and
results are bit-identical for a fixed seed. Everything runs in the calling
thread; the dense kernels run on the threads the BLAS library is given. One
trial loop runs every experiment: it hands its worker stacks of trial ids
in order. Noise recovery takes one trial per stack and builds that one
child seed. The 3x3 subspace-angle study takes ``INTRO_STACK`` trials per
stack and builds no child: numpy fixes the ``SeedSequence`` hash and the
``PCG64`` seeding (NEP 19), so the PCG64 states of the whole stack's
children are derived in one vectorized pass (:func:`_child_normals`), and
one reused generator draws each trial's noise from its child's state. Each
stage after the draw (the noise product, its norm, the SVD, the GSVD and
the two angles) is one stacked numpy call on the private ``matkit`` and
``gsvd`` cores for the whole stack, which gives each trial the bits it gets
alone. A failed trial is recorded under
``trial_failures`` and left out of the statistics. A stack of several trials
that raises runs again one trial at a time, so each failing trial records
its own message in trial-id order. A grid cell that no trial reaches raises.

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
eps c (G[s] R) + F[s] Y^T, from the rows of [G, F]; the einsum of F[s]
gives A[s] with the public generator's bits.
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
the b-row F' - Q_s C_Y. Per trial, [G, F] costs one m x (n + 50) QR and
Q_Y one n x j QR; per eps, K_eps costs a b x n QR, the SVD and GSVD of R
and an m x b x 2 kmax lift, and C_Y and P_Y b x n x j work; per score,
(j + k)-sized work. In the eps loop only [G, F] and its reflectors have m
rows. No A, E or G R, no m-row Q, no m x n residual or noisy matrix, and
no QR or SVD of A or of a noisy matrix is formed.
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

#: The 3x3 rank-2 fixture and its noise covariance for the subspace-angle study.
INTRO_MATRIX = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 2.0], [1.0, 1.0, 2.0]])
INTRO_COVARIANCE = np.array([[1.0, 0.8, 0.3], [0.8, 1.0, 0.8], [0.3, 0.8, 1.0]])

#: Trials per stack in ``intro_angles``. One stack of 3x3 trials costs one
#: numpy call per stage; a bounded stack keeps the peak memory flat.
INTRO_STACK = 256

# A trial that raises one of these is recorded as failed; anything else is a bug.
_TRIAL_ERRORS = (GcurkitError, np.linalg.LinAlgError)

# numpy's SeedSequence hash and PCG64 seeding constants (NEP 19 fixes both)
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _words(value):
    """Little-endian 32-bit words of an int, or of each int of a sequence in
    turn, as ``SeedSequence`` splits its entropy and spawn key (0 is one word)."""
    if not isinstance(value, (int, np.integer)):
        return [w for v in value for w in _words(v)]
    value = int(value)
    out = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        out.append(value & _MASK32)
    return out


def _mul_xorshift(value, mult):
    """The multiply and xor-shift that end each step of ``SeedSequence``'s
    hash, on a 32-bit word or a uint32 array."""
    value = (value * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """``SeedSequence``'s mix of two pool words."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _child_normals(seq, ids, shape):
    """``np.stack([default_rng(_child(seq, i)).standard_normal(shape) for i
    in ids])``, bit for bit, without building a child seed or generator.

    ``SeedSequence`` and ``PCG64`` seeding are fixed by numpy's RNG policy
    (NEP 19). A child's entropy words are ``seq``'s entropy, padded with
    zeros to the pool size, then its spawn key ``seq.spawn_key + (i,)``; the
    trial id i is the last word, one 32-bit word for any trial count that
    fits in memory. The hash constants run in a fixed order whatever the
    data, so every word but the last is mixed once in Python ints, and the
    id word and ``generate_state(4, uint64)`` run on uint32 arrays over all
    ids (array arithmetic wraps at 2**32 silently). Each PCG64 state then
    follows ``pcg64_set_seed``, and one reused generator draws every trial.
    """
    words = _words(seq.entropy)
    words += [0] * (seq.pool_size - len(words))
    words += _words(seq.spawn_key)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        return _mul_xorshift(value, const)

    pool = [hashmix(w) for w in words[: seq.pool_size]]
    for src in range(seq.pool_size):
        for dst in range(seq.pool_size):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[seq.pool_size :] + [np.asarray(ids, dtype=np.uint32)]:
        for dst in range(seq.pool_size):
            pool[dst] = _mix(pool[dst], hashmix(w))

    const = _INIT_B
    state = []
    for j in range(8):
        value = pool[j % seq.pool_size] ^ const
        const = const * _MULT_B & _MASK32
        state.append(_mul_xorshift(value, const).astype(np.uint64))
    s0, s1, i0, i1 = (
        (state[j] | state[j + 1] << 32).tolist() for j in range(0, 8, 2)
    )

    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    out = np.empty((len(ids), *shape))
    for t in range(len(ids)):
        inc = (i0[t] << 65 | i1[t] << 1 | 1) & _MASK128
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {
                "state": ((inc + (s0[t] << 64 | s1[t])) * _PCG_MULT + inc) & _MASK128,
                "inc": inc,
            },
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(shape, out=out[t])
    return out


def _require_values(values, name):
    """An empty grid axis gives a report without cells: raise instead."""
    if len(values) == 0:
        raise DimensionError(f"{name} must hold at least one value")


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

    The trials of each eps run as stacks of ``INTRO_STACK`` (see the module
    docstring). Trial i of an eps draws its noise from the stream of that
    eps's ``spawn(trials)[i]``, with the PCG64 states of a stack derived in
    one pass (:func:`_child_normals`) and no seed or generator built per
    trial. Then one stacked call per stage runs on the private cores of
    ``matkit.spectral_norm``, ``matkit.svd``, ``gsvd`` and
    ``matkit.max_principal_angle``, with the results those public functions
    give trial by trial. The fixture and the clean basis are checked once
    per call. An empty ``eps_values`` raises DimensionError.
    """
    _require_values(eps_values, "eps_values")
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
            # the stack bypasses as_matrix; this is the check spectral_norm(f) makes
            f = matkit.require_finite(_child_normals(eps_seq, ids, (3, 3)) @ rchol, "A")
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
    for bit, and takes one QR of [G, F] = Q_b R_b, held as reflectors. With
    R the noise's Cholesky factor, built once per call, G R = Q_b R_b[:, :n]
    R and A = Q_b R_b[:, n:] Y^T, so ||A||, ||G R|| and the scale
    c = ||A|| / ||G R|| that makes E = c G R come from b x n matrices. Each
    noisy matrix A + eps E = Q_b K_eps is factored through the b x n K_eps
    (:func:`_factor_in_basis`). The middle matrices of every k come from
    one QR per side of the kmax selection, since DEIM prefixes nest. Their
    column factor and core come from the triangle R of K_eps = Q_s R, so
    they have n rows instead of m, and their selected rows are
    eps c (G[s] R) + F[s] Y^T, whose A part has the bits of
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
        # [G, F] in Fortran order, which numpy's QR copies only once; the
        # selected rows are read from it
        gf = np.empty((m, n + f_a.shape[1]), order="F")
        gf[:, n:] = f_a
        del f_a
        gf[:, :n] = np.random.default_rng(seeds[1]).standard_normal((m, n))
        r_b, lift = matkit._triangle_and_lift(gf)
        r_gr, f_coef = r_b[:, :n] @ rchol, r_b[:, n:]
        fy = f_coef @ y_a.T
        norm_a = matkit.spectral_norm(fy)
        c = norm_a / matkit.spectral_norm(r_gr)
        in_basis = _row_space_scorer(f_coef, y_a, norm_a)

        def noisy_rows(s, eps):
            return (eps * c) * (gf[s, :n] @ rchol) + np.einsum(
                "ij,kj->ik", gf[s, n:], y_a
            )

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
    negative eps or a rho outside (0, 1) raises ContractViolationError, and
    an empty ``k_values`` or ``eps_values``, m < n, n < 50 (the generators'
    rank-50 build) or a k outside 1 <= k < n raises DimensionError, before
    any trial runs.
    """
    if kind not in ("sparse", "gapped"):
        raise ValueError(f"kind must be 'sparse' or 'gapped', got {kind!r}")
    _require_values(k_values, "k_values")
    _require_values(eps_values, "eps_values")
    for eps in eps_values:
        if eps < 0:
            raise ContractViolationError(f"epsilon must be >= 0, got {eps}")
    if not 0.0 < rho < 1.0:
        raise ContractViolationError(f"rho must be in (0, 1), got {rho}")
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
    scored the same way and returned as plot coordinates. An empty
    ``n_columns`` raises DimensionError.
    """
    _require_values(n_columns, "n_columns")
    spec = synth.SubgroupSpec(points_per_group=points_per_group, seed=seed)
    a, b, labels = synth.subgroup_data(spec, center=True)
    kmax = max(n_columns)
    t0 = time.perf_counter()

    cur = curfac.deim_cur(a, kmax)
    gc = gcur_only_a(a, b, kmax)
    f = matkit.svd(a)
    x_right = np.linalg.inv(gc.Y).T  # right generalized directions, from gcur's Y

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
    extra = {
        "separation_ratio_two_leading": separation,
        "projections": {
            "labels": labels.tolist(),
            "group_names": list(synth.SUBGROUP_NAMES),
            "CUR": a[:, cur.p[:2]].tolist(),
            "GCUR": a[:, gc.p[:2]].tolist(),
            "TSVD": (a @ f.Z[:, :2]).tolist(),
            "TGSVD": (a @ x_right[:, :2]).tolist(),
        },
    }
    params = {
        "n_columns": list(n_columns),
        "seed": seed,
        "points_per_group": points_per_group,
    }
    timing = {"total_s": round(time.perf_counter() - t0, 3)}
    return ExperimentReport("subgroups", params, cells, extra=extra, timing=timing)
