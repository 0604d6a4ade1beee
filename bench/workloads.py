"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one
operation per ``op`` call and checks that operation's output in ``check``,
which the runner calls outside the timed interval. ``final_check`` tests
what only the whole run can show (pooled means). Library functions are
looked up through the module objects at call time, so a tracer that
rebinds them sees every call.

``trials_per_op`` is how many work items one op completes; ``trials_per_s``
counts work items.
"""

import json
import math
import os
from time import perf_counter

import numpy as np

M, N = 2000, 300
RHO = 0.99
OP_SEEDS = 4096


def _op_seeds(seed):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, OP_SEEDS)]


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _noisy_gapped(synth, seed_a, seed_noise, eps=0.1):
    """A noisy gapped 2000x300 matrix and the noise's Toeplitz Cholesky factor."""
    a = synth.lowrank_gapped(M, N, seed_a)
    noisy, _, rchol = synth.colored_noise(
        a, synth.NoiseModel(epsilon=eps, seed=seed_noise, rho=RHO)
    )
    return noisy, rchol


class Workload:
    """Defaults for the optional parts of a workload."""

    def final_check(self):
        return []

    def extra_metrics(self):
        """Metrics beyond the end-to-end set, printed in the details line."""
        return {}


class Recovery(Workload):
    """The paper's colored-noise recovery experiment at desk scale; dense
    BLAS work in matkit, gsvd, middle_matrix and synth, no I/O, k<=30."""

    name = "recovery"
    k_values = (10, 15, 20, 30)
    eps_values = (0.1, 0.15, 0.2)
    # Two trials per call, one per worker of the default two-thread pool.
    trials_per_op = 2

    def setup(self, lib, seed, workdir):
        self.lib = lib
        self.seeds = _op_seeds(seed)
        self.pooled = {eps: {m: [] for m in ("TSVD", "TGSVD", "CUR", "GCUR")}
                       for eps in self.eps_values}

    def op(self, i):
        return self.lib.experiments.noise_recovery(
            kind="gapped",
            m=M,
            n=N,
            k_values=self.k_values,
            eps_values=self.eps_values,
            trials=self.trials_per_op,
            rho=RHO,
            seed=self.seeds[i],
        )

    def check(self, i, rep):
        problems = [f"trial failure: {msg}" for msg in rep.extra["trial_failures"]]
        if len(rep.cells) != len(self.k_values) * len(self.eps_values):
            problems.append(f"{len(rep.cells)} cells")
        for cell in rep.cells:
            for method, st in cell["stats"].items():
                if st["trials"] != self.trials_per_op or not _finite(st["mean"], st["std"]):
                    problems.append(f"eps={cell['eps']} k={cell['k']} {method}: {st}")
        if not problems:
            for cell in rep.cells:
                if cell["k"] == 10:
                    for method, st in cell["stats"].items():
                        self.pooled[cell["eps"]][method].append(st["mean"])
        return problems

    def final_check(self):
        """Acceptance 7 at k=10 on the pooled means: GCUR < CUR at every eps
        and TGSVD <= 0.25 * TSVD at eps=0.1."""
        means = {eps: {m: float(np.mean(v)) for m, v in by.items() if v}
                 for eps, by in self.pooled.items()}
        problems = []
        for eps, mm in means.items():
            if not mm:
                return ["no successful trial to pool"]
            if not mm["GCUR"] < mm["CUR"]:
                problems.append(f"eps={eps}: GCUR {mm['GCUR']:.4f} >= CUR {mm['CUR']:.4f}")
        if not means[0.1]["TGSVD"] <= 0.25 * means[0.1]["TSVD"]:
            problems.append(f"eps=0.1: TGSVD {means[0.1]['TGSVD']:.4f} > 0.25 * TSVD")
        return problems


class Pair(Workload):
    """``gcur`` then ``evaluate_bounds`` in memory at k=100: deim_select's
    per-step cond, middle_matrix, the bound kernels and a second GSVD; no
    I/O."""

    name = "pair"
    k = 100
    # Consecutive calls never see the same input, so an input-keyed cache
    # with fewer entries than the pool cannot hit.
    pool_size = 6
    trials_per_op = 1

    def setup(self, lib, seed, workdir):
        self.lib = lib
        seeds = np.random.SeedSequence(seed).spawn(2 * self.pool_size)
        self.pool = []
        for j in range(self.pool_size):
            a, self.b = _noisy_gapped(lib.synth, seeds[2 * j], seeds[2 * j + 1])
            self.pool.append(a)

    def op(self, i):
        a = self.pool[i % self.pool_size]
        f = self.lib.gk.gcur(a, self.b, self.k)
        return f, self.lib.gk.evaluate_bounds(a, self.b, f)

    def check(self, i, out):
        f, rep = out
        problems = [f"bound check {name} failed" for name, ok in rep.checks.items() if not ok]
        if f.p.size != self.k or f.s_a.size != self.k or f.s_b.size != self.k:
            problems.append(f"index sizes {f.p.size}/{f.s_a.size}/{f.s_b.size}")
        return problems


def _write_array_mm(path, a):
    values = "\n".join(map("{:.17g}".format, a.ravel(order="F").tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n{values}\n")


def _write_coordinate_mm(path, a):
    rows, cols = np.nonzero(a)
    entries = "".join(
        f"{i + 1} {j + 1} {v:.17g}\n"
        for i, j, v in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]} {rows.size}\n{entries}")


def _read_array_mm(path):
    """Minimal reader for the array files the CLI writes (no comments)."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split()
    m, n = int(lines[5]), int(lines[6])
    return np.array(lines[7:], dtype=float).reshape((m, n), order="F")


class Cli(Workload):
    """``gcurkit.cli.main`` on Matrix Market files, alternating
    ``gcur --bounds`` (read-heavy) and ``gsvd --factors-out``
    (write-heavy): io and cli do most of the work."""

    name = "cli"
    k = 30
    # One op is one cycle: `gcur --bounds` then `gsvd --factors-out`.
    trials_per_op = 2

    def setup(self, lib, seed, workdir):
        self.lib = lib
        os.makedirs(workdir, exist_ok=True)
        seeds = np.random.SeedSequence(seed).spawn(2)
        self.a, self.b = _noisy_gapped(lib.synth, seeds[0], seeds[1])
        self.path_a = os.path.join(workdir, "A.mtx")
        self.path_b = os.path.join(workdir, "B.mtx")
        _write_array_mm(self.path_a, self.a)
        _write_coordinate_mm(self.path_b, self.b)
        self.gcur_out = os.path.join(workdir, "gcur.json")
        self.gsvd_out = os.path.join(workdir, "gsvd.json")
        self.factors = os.path.join(workdir, "factors")
        self.y_ref = None
        self.gcur_s = []
        self.gsvd_s = []

    def op(self, i):
        k = str(self.k)
        main = self.lib.cli.main
        t0 = perf_counter()
        rc_gcur = main(["gcur", self.path_a, self.path_b, "-k", k, "--bounds",
                        "--out", self.gcur_out])
        t1 = perf_counter()
        rc_gsvd = main(["gsvd", self.path_a, self.path_b, "-k", k,
                        "--factors-out", self.factors, "--out", self.gsvd_out])
        return rc_gcur, rc_gsvd, t1 - t0, perf_counter() - t1

    def check(self, i, out):
        rc_gcur, rc_gsvd, gcur_s, gsvd_s = out
        if rc_gcur or rc_gsvd:
            return [f"exit codes gcur={rc_gcur} gsvd={rc_gsvd}"]
        problems = []
        with open(self.gcur_out, encoding="utf-8") as fh:
            if not json.load(fh)["bounds"]["all_pass"]:
                problems.append("gcur: bounds.all_pass is false")
        with open(self.gsvd_out, encoding="utf-8") as fh:
            if not json.load(fh)["truncation"]["sandwich"]["pass"]:
                problems.append("gsvd: truncation.sandwich.pass is false")
        if self.y_ref is None:
            self.y_ref = np.asfortranarray(self.lib.gk.gsvd(self.a, self.b).Y)
        y = _read_array_mm(os.path.join(self.factors, "Y.mtx"))
        if y.shape != self.y_ref.shape or not np.array_equal(
            y.view(np.uint64), self.y_ref.view(np.uint64)
        ):
            problems.append("gsvd: Y.mtx is not bit-identical to gsvd(A, B).Y")
        # The next cycle must write its own outputs.
        for path in (self.gcur_out, self.gsvd_out, os.path.join(self.factors, "Y.mtx")):
            os.remove(path)
        if not problems:
            self.gcur_s.append(gcur_s)
            self.gsvd_s.append(gsvd_s)
        return problems

    def extra_metrics(self):
        return {
            "gcur_p50_s": (float(np.median(self.gcur_s)), "s"),
            "gsvd_p50_s": (float(np.median(self.gsvd_s)), "s"),
        }


class Angles(Workload):
    """``intro_angles`` on the 3x3 fixture: tiny matrices, so per-call
    Python overhead (as_matrix, validation, thread-pool dispatch) dominates."""

    name = "angles"
    eps_values = (5e-2, 5e-3, 5e-4)
    trials = 1000
    trials_per_op = len(eps_values) * trials
    # Acceptance 6 windows at eps=5e-2, scaled linearly with eps (the angle
    # is first order in the noise level): mean within +-20 % of the centre.
    centres = {"SVD": 1.7e-2, "GSVD": 1.2e-2}

    def setup(self, lib, seed, workdir):
        self.lib = lib
        self.seeds = _op_seeds(seed)
        self.pooled = {(eps, m): [] for eps in self.eps_values for m in self.centres}

    def op(self, i):
        return self.lib.experiments.intro_angles(
            eps_values=self.eps_values, trials=self.trials, seed=self.seeds[i]
        )

    def check(self, i, rep):
        problems = []
        for cell in rep.cells:
            for method, st in cell["stats"].items():
                if st["trials"] != self.trials or not _finite(st["mean"]):
                    problems.append(f"eps={cell['eps']} {method}: {st}")
        if not problems:
            for cell in rep.cells:
                for method, st in cell["stats"].items():
                    self.pooled[(cell["eps"], method)].append(st["mean"])
        return problems

    def final_check(self):
        problems = []
        for (eps, method), means in self.pooled.items():
            if not means:
                return ["no successful op to pool"]
            centre = self.centres[method] * eps / 5e-2
            mean = float(np.mean(means))
            if not 0.8 * centre <= mean <= 1.2 * centre:
                problems.append(f"eps={eps:g} {method}: mean {mean:.3e} outside {centre:.3e} +-20%")
        return problems


WORKLOADS = {w.name: w for w in (Recovery, Pair, Cli, Angles)}
