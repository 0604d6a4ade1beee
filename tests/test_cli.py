import csv
import json
import re

import numpy as np
import pytest

from gcurkit import io as gio
from gcurkit import cli, curfac, experiments, matkit, synth
from gcurkit.cli import EXIT_NUMERIC, EXIT_PARSE, EXIT_USAGE, main
from gcurkit.errors import ConvergenceError
from gcurkit.gsvd import gsvd


@pytest.fixture
def diag_pair(tmp_path):
    a = tmp_path / "A.mtx"
    b = tmp_path / "B.mtx"
    gio.write_matrix_market(a, np.diag([1.0, 2.0, 3.0]))
    gio.write_matrix_market(b, np.diag([1.0, 20.0, 300.0]))
    return str(a), str(b)


def run_json(tmp_path, args):
    out = tmp_path / "report.json"
    rc = main(args + ["--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


def test_gsvd_diag_fixture(tmp_path, diag_pair):
    rep = run_json(tmp_path, ["gsvd", *diag_pair, "-k", "2", "--no-timestamp"])
    assert np.allclose(rep["ratios"], [1.0, 0.1, 0.01], atol=1e-10)
    assert rep["truncation"]["sandwich"]["pass"] is True
    assert "timestamp" not in rep


def test_gsvd_identity_fixture(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 4))
    pa = tmp_path / "A.mtx"
    pb = tmp_path / "I.mtx"
    gio.write_matrix_market(pa, a)
    gio.write_matrix_market(pb, np.eye(4))
    rep = run_json(tmp_path, ["gsvd", str(pa), str(pb), "--no-timestamp"])
    psi = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(rep["gamma"], psi / np.sqrt(1 + psi**2), atol=1e-10)


def test_gsvd_factors_out(tmp_path, diag_pair):
    fdir = tmp_path / "factors"
    run_json(
        tmp_path, ["gsvd", *diag_pair, "--factors-out", str(fdir), "--no-timestamp"]
    )
    u = gio.read_matrix(str(fdir / "U.mtx"))
    assert u.shape == (3, 3)
    gamma = gio.read_matrix(str(fdir / "gamma.mtx"))
    assert gamma.shape == (3, 1)


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\nwhoops\n")
    rc = main(["cur", str(bad), "-k", "1"])
    assert rc == EXIT_PARSE
    assert "whoops" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    rc = main(["cur", str(tmp_path / "nope.mtx"), "-k", "1"])
    assert rc == EXIT_PARSE


def test_rank_out_of_range_is_usage_error(diag_pair, capsys):
    rc = main(["gcur", *diag_pair, "-k", "9"])
    assert rc == EXIT_USAGE
    assert "rank" in capsys.readouterr().err


def test_gsvd_rank_is_checked_before_the_factorization(diag_pair, monkeypatch, capsys):
    def no_gsvd(*args):
        raise AssertionError("gsvd ran before the rank was checked")

    monkeypatch.setattr(cli, "gsvd_diagnostics", no_gsvd)
    for k in ("0", "3"):  # n = 3
        assert main(["gsvd", *diag_pair, "-k", k]) == EXIT_USAGE
        assert "rank" in capsys.readouterr().err


def test_numerical_precondition_exit_code(tmp_path):
    pa = tmp_path / "a.mtx"
    pb = tmp_path / "b.mtx"
    gio.write_matrix_market(pa, np.array([[1.0, 0.0], [0.0, 0.0]]))
    gio.write_matrix_market(pb, np.array([[1.0, 0.0], [0.0, 0.0]]))
    rc = main(["gcur", str(pa), str(pb), "-k", "1"])
    assert rc == EXIT_NUMERIC


@pytest.mark.parametrize("fmt", ["mtx", "csv"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_input_exit_code_names_the_file(tmp_path, capsys, bad, fmt):
    # a parse that succeeds on a non-finite value is a numerical error (exit
    # 4), and its message says which input file holds it
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 6))
    good, bad_a = tmp_path / f"A.{fmt}", tmp_path / f"A_bad.{fmt}"
    pb = tmp_path / "B.mtx"
    gio.write_matrix_market(pb, rng.standard_normal((9, 6)))
    if fmt == "mtx":
        gio.write_matrix_market(good, a)
        lines = good.read_text().splitlines(keepends=True)
        lines[4] = f"{bad}\n"  # a data value: the banner and size line come first
        bad_a.write_text("".join(lines))
    else:
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in a)
        bad_a.write_text(text.replace(text.split(",")[0], bad, 1) + "\n")
    for argv in (["gcur", str(bad_a), str(pb), "-k", "3"], ["gsvd", str(bad_a), str(pb)],
                 ["cur", str(bad_a), "-k", "3"], ["gcur", str(pb), str(bad_a), "-k", "3"]):
        assert main(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"matrix in {bad_a} contains non-finite entries" in err


def test_usage_exit_code_from_argparse():
    assert main(["gcur"]) == EXIT_USAGE


def test_cur_command(tmp_path):
    pa = tmp_path / "a.mtx"
    gio.write_matrix_market(pa, np.diag([3.0, 2.0, 1.0]))
    rep = run_json(tmp_path, ["cur", str(pa), "-k", "2", "--no-timestamp"])
    assert rep["p"] == [1, 2]
    assert rep["s"] == [1, 2]
    assert rep["rel_error"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_gcur_matches_cur_for_identity_b(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 5))
    pa = tmp_path / "a.mtx"
    pb = tmp_path / "i.mtx"
    gio.write_matrix_market(pa, a)
    gio.write_matrix_market(pb, np.eye(5))
    cur_rep = run_json(tmp_path, ["cur", str(pa), "-k", "3", "--no-timestamp"])
    gcur_rep = run_json(
        tmp_path, ["gcur", str(pa), str(pb), "-k", "3", "--no-timestamp"]
    )
    assert gcur_rep["p"] == cur_rep["p"]
    assert gcur_rep["s_a"] == cur_rep["s"]


def test_gcur_bounds_flag(tmp_path):
    rng = np.random.default_rng(4)
    pa = tmp_path / "a.mtx"
    pb = tmp_path / "b.mtx"
    gio.write_matrix_market(pa, rng.standard_normal((12, 6)))
    gio.write_matrix_market(pb, rng.standard_normal((9, 6)))
    rep = run_json(
        tmp_path, ["gcur", str(pa), str(pb), "-k", "2", "--bounds", "--no-timestamp"]
    )
    assert rep["bounds"]["all_pass"] is True
    assert rep["bounds"]["observed_error"] <= rep["bounds"]["bound"] + 1e-9


def test_gcur_only_a_and_id_modes(tmp_path, diag_pair):
    rep = run_json(
        tmp_path, ["gcur", *diag_pair, "-k", "1", "--only-a", "--no-timestamp"]
    )
    assert "s_b" not in rep and "M_b" not in rep
    rep = run_json(
        tmp_path,
        ["gcur", *diag_pair, "-k", "2", "--id-mode", "column", "--no-timestamp"],
    )
    assert rep["p"] == [1, 2]
    assert "rel_error_a" in rep and "rel_error_b" in rep
    rep = run_json(
        tmp_path,
        ["gcur", *diag_pair, "-k", "2", "--id-mode", "row", "--no-timestamp"],
    )
    assert "s_a" in rep and "s_b" in rep


def test_gcur_id_mode_keeps_bounds(tmp_path):
    rng = np.random.default_rng(4)
    pa = tmp_path / "a.mtx"
    pb = tmp_path / "b.mtx"
    gio.write_matrix_market(pa, rng.standard_normal((12, 6)))
    gio.write_matrix_market(pb, rng.standard_normal((9, 6)))
    full = run_json(tmp_path, ["gcur", str(pa), str(pb), "-k", "2", "--bounds"])
    for mode in ("column", "row"):
        rep = run_json(
            tmp_path,
            ["gcur", str(pa), str(pb), "-k", "2", "--bounds", "--id-mode", mode],
        )
        assert rep["bounds"]["all_pass"] is True
        assert rep["bounds"] == full["bounds"]  # bounds of the same factors


def test_gcur_scores_a_tall_a_on_its_triangle(tmp_path, monkeypatch):
    # every error and bound of A is taken on its n x n triangle: no array
    # with A's 400 rows reaches a spectral norm or a thin QR
    rng = np.random.default_rng(5)
    pa = tmp_path / "a.mtx"
    pb = tmp_path / "b.mtx"
    gio.write_matrix_market(pa, rng.standard_normal((400, 40)))
    gio.write_matrix_market(pb, rng.standard_normal((60, 40)))
    seen = []
    for name in ("spectral_norm", "thin_qr"):
        def spy(x, _wrapped=getattr(matkit, name)):
            seen.append(np.shape(x))
            return _wrapped(x)
        monkeypatch.setattr(matkit, name, spy)
    for mode in (None, "column", "row"):
        cmd = ["gcur", str(pa), str(pb), "-k", "5", "--bounds"]
        rep = run_json(tmp_path, cmd + (["--id-mode", mode] if mode else []))
        assert seen and all(shape[0] != 400 for shape in seen), (mode, seen)
        assert rep["bounds"]["all_pass"] is True
        assert rep["rel_error_a"] > 0.0 and rep["rel_error_b"] > 0.0


def ci_fixture():
    """The 12x6 A and 9x6 B of the CI console-script step."""
    rng = np.random.default_rng(0)
    return rng.standard_normal((12, 6)), rng.standard_normal((9, 6))


def tall_pair():
    rng = np.random.default_rng(6)
    return rng.standard_normal((200, 40)) * np.logspace(0, -3, 40), rng.standard_normal((120, 40))


def explicit_gsvd_numbers(a, b, k):
    """The gsvd command's numbers from m x n residuals of A and B themselves."""
    f = gsvd(a, b)
    res_a = matkit.spectral_norm(a - f.U @ (f.gamma[:, None] * f.Y.T))
    res_b = matkit.spectral_norm(b - f.V @ (f.sigma[:, None] * f.Y.T))
    psi_tail = np.linalg.svd(f.Y[:, k:], compute_uv=False)
    gamma_next = float(f.gamma[k])
    return {
        "a_abs": res_a,
        "b_abs": res_b,
        "a_rel": res_a / max(1.0, matkit.spectral_norm(a)),
        "b_rel": res_b / max(1.0, matkit.spectral_norm(b)),
        "gamma_next": gamma_next,
        "lower": gamma_next * psi_tail[-1],
        "observed": matkit.spectral_norm(a - f.U[:, :k] @ (f.gamma[:k, None] * f.Y[:, :k].T)),
        "upper": gamma_next * psi_tail[0],
    }


@pytest.mark.parametrize("pair,k", [(ci_fixture, 2), (tall_pair, 8)])
def test_gsvd_command_numbers_match_explicit_residuals(tmp_path, pair, k):
    a, b = pair()
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    gio.write_matrix_market(pa, a)
    gio.write_matrix_market(pb, b)
    rep = run_json(tmp_path, ["gsvd", str(pa), str(pb), "-k", str(k), "--no-timestamp"])
    want = explicit_gsvd_numbers(a, b, k)
    got = {**rep["reconstruction_residuals"], **rep["truncation"]["sandwich"]}
    got["gamma_next"] = rep["truncation"]["gamma_next"]
    # the Y-side ends of the sandwich are computed as before: equal
    for key in ("gamma_next", "lower", "upper"):
        assert got[key] == want[key], key
    # the residuals are rounding errors of size ~eps ||X||, scored on each
    # matrix's triangle instead of X: they agree to 1e-14 ||X|| (rel to 1e-14)
    for side, x in (("a", a), ("b", b)):
        norm_x = matkit.spectral_norm(x)
        assert abs(got[f"{side}_abs"] - want[f"{side}_abs"]) <= 1e-14 * norm_x
        assert abs(got[f"{side}_rel"] - want[f"{side}_rel"]) <= 1e-14
    # ||A - A_k|| itself is of size gamma_{k+1}: it agrees to 1e-13 relative
    assert got["observed"] == pytest.approx(want["observed"], rel=1e-13, abs=0)
    assert got["pass"] is True


@pytest.mark.parametrize("pair", [ci_fixture, tall_pair])
def test_cur_command_rel_error_matches_explicit_residual(tmp_path, pair):
    a, _ = pair()
    pa = tmp_path / "a.mtx"
    gio.write_matrix_market(pa, a)
    rep = run_json(tmp_path, ["cur", str(pa), "-k", "3", "--no-timestamp"])
    p, s = np.subtract(rep["p"], 1), np.subtract(rep["s"], 1)
    m = np.array(rep["M"])
    want = matkit.spectral_norm(a - a[:, p] @ m @ a[s, :]) / matkit.spectral_norm(a)
    # scored on the SVD's n x n factor with ||A|| = psi_1: agrees to 1e-12 relative
    assert rep["rel_error"] == pytest.approx(want, rel=1e-12, abs=0)


def test_gsvd_and_cur_score_a_tall_a_on_small_matrices(tmp_path, monkeypatch):
    # no array with A's 200 rows reaches a spectral norm
    a, b = tall_pair()
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    gio.write_matrix_market(pa, a)
    gio.write_matrix_market(pb, b)
    seen = []

    def spy(x, _wrapped=matkit.spectral_norm):
        seen.append(np.shape(x))
        return _wrapped(x)

    monkeypatch.setattr(matkit, "spectral_norm", spy)
    run_json(tmp_path, ["gsvd", str(pa), str(pb), "-k", "8"])
    run_json(tmp_path, ["cur", str(pa), "-k", "8"])
    assert seen and all(shape[0] != 200 for shape in seen), seen


def test_csv_report_format(tmp_path, diag_pair):
    out = tmp_path / "r.csv"
    rc = main(
        ["experiment", "intro-angles", "--trials", "5", "--no-timestamp",
         "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().splitlines()[1].startswith("eps")


def test_determinism_across_runs(tmp_path):
    def run_with(name):
        out = tmp_path / name
        rc = main(
            ["experiment", "intro-angles", "--trials", "40", "--seed", "7",
             "--no-timestamp", "--out", str(out)]
        )
        assert rc == 0
        return out.read_bytes()

    assert run_with("a.json") == run_with("b.json") == run_with("c.json")


def test_cell_without_success_exit_code(monkeypatch, capsys):
    # the only trial fails in its factorization, so no cell has statistics
    def failing(*_args):
        raise ConvergenceError("SVD iteration did not converge")

    monkeypatch.setattr(experiments, "_factor_in_basis", failing)
    rc = main(["experiment", "noise-recovery", "--rank", "5", "--trials", "1"])
    assert rc == EXIT_NUMERIC
    assert "no successful trial for eps=0.05, k=5" in capsys.readouterr().err


def test_noise_recovery_rank_fails_before_any_trial(monkeypatch, capsys):
    # k = n = 300 leaves no trailing GSVD block: rejected once, up front
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    rc = main(["experiment", "noise-recovery", "--rank", "10,300", "--trials", "1"])
    assert rc == EXIT_NUMERIC
    assert "truncation rank must satisfy 1 <= k < 300, got 300" in capsys.readouterr().err


def test_noise_recovery_rho_fails_before_any_trial(monkeypatch, capsys):
    # a rho outside (0, 1) is rejected once, up front, not once per trial
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    rc = main(["experiment", "noise-recovery", "--rho", "1.5", "--trials", "3"])
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "rho must be in (0, 1), got 1.5" in err
    assert "no successful trial" not in err


def test_noise_recovery_report_deterministic_bytes(tmp_path):
    def run_with(name):
        out = tmp_path / name
        rc = main(
            ["experiment", "noise-recovery", "--trials", "1", "--rank", "5,10",
             "--eps", "0.1", "--no-timestamp", "--out", str(out)]
        )
        assert rc == 0
        return out.read_bytes()

    assert run_with("a.json") == run_with("b.json")


def test_noise_recovery_inexact_experiment_uses_inexact_factor(tmp_path):
    rep = run_json(
        tmp_path,
        ["experiment", "noise-recovery-inexact", "--trials", "1", "--rank", "2",
         "--eps", "0.1", "--no-timestamp"],
    )
    assert rep["experiment"] == "noise-recovery-inexact"
    assert rep["params"]["inexact_chol"] is True


def test_negative_eps_exit_code(capsys):
    rc = main(["experiment", "noise-recovery", "--trials", "1", "--eps=0.1,-0.1"])
    assert rc == EXIT_NUMERIC
    assert "epsilon must be >= 0, got -0.1" in capsys.readouterr().err


_BAD_SEED = "seed must be a non-negative integer, got -1"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["intro-angles", "--trials", "2", "--seed", "-1"], _BAD_SEED),
        (["noise-recovery", "--trials", "1", "--seed", "-1"], _BAD_SEED),
        (["subgroups", "--seed", "-1"], _BAD_SEED),
        (["intro-angles", "--trials", "0"], "trials must be >= 1, got 0"),
        (["noise-recovery", "--trials", "-2"], "trials must be >= 1, got -2"),
        (["intro-angles", "--eps", "-0.1"], "epsilon must be >= 0, got -0.1"),
        (["intro-angles", "--eps", "0.1,nan"], "epsilon must be finite, got nan"),
        (["noise-recovery", "--eps", "inf"], "epsilon must be finite, got inf"),
    ],
)
def test_bad_seed_or_grid_exits_before_any_trial(monkeypatch, capsys, argv, message):
    # a negative seed used to end in numpy's traceback, a negative eps ran
    # in intro-angles, and a non-finite eps failed every trial
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    monkeypatch.setattr(synth, "subgroup_data", no_trial)
    monkeypatch.setattr(experiments, "_child", no_trial)
    rc = main(["experiment", *argv])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err == f"gcurkit: numerical error: {message}\n"


_NOISE_OPTIONS = {"--rank", "--eps", "--trials", "--rho", "--matrix-kind", "--paper-scale"}
# the options each experiment's runner reads, besides the shared ones
_OWN_OPTIONS = {
    "intro-angles": {"--eps", "--trials"},
    "noise-recovery": _NOISE_OPTIONS,
    "noise-recovery-inexact": _NOISE_OPTIONS,
    "subgroups": {"--rank", "--points-per-group"},
}
_SHARED_OPTIONS = {"--seed", "--plot-out", "--plot-format", "--format", "--out",
                   "--no-timestamp", "--help"}
# a valid value for every option that some command takes
_SAMPLE_ARGS = {"--rank": ["3"], "--eps": ["0.1"], "--trials": ["5"], "--rho": ["0.5"],
                "--matrix-kind": ["sparse"], "--paper-scale": [], "--points-per-group": ["7"],
                "--csv-header": []}


@pytest.mark.parametrize("name", sorted(_OWN_OPTIONS))
def test_each_experiment_lists_only_its_own_options(capsys, name):
    assert main(["experiment", name, "--help"]) == 0
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == _OWN_OPTIONS[name] | _SHARED_OPTIONS


@pytest.mark.parametrize(
    "name,option",
    [(name, opt) for name, own in _OWN_OPTIONS.items() for opt in sorted(set(_SAMPLE_ARGS) - own)],
)
def test_option_an_experiment_does_not_read_is_usage_error(monkeypatch, capsys, name, option):
    # these used to run on the defaults, the option silently dropped
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    monkeypatch.setattr(synth, "subgroup_data", no_trial)
    monkeypatch.setattr(experiments, "_child", no_trial)
    argv = [option, *_SAMPLE_ARGS[option]]
    rc = main(["experiment", name, *argv, "--seed", "0"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv)}\n" in err
    assert "Traceback" not in err


def test_options_follow_the_experiment_name(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "_child", lambda *_args: pytest.fail("a trial ran"))
    assert main(["experiment", "--seed", "1", "intro-angles"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


def test_gcur_report_deterministic_bytes(tmp_path, diag_pair):
    out1 = tmp_path / "g1.json"
    out2 = tmp_path / "g2.json"
    for out in (out1, out2):
        rc = main(["gcur", *diag_pair, "-k", "2", "--no-timestamp", "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_plot_output(tmp_path):
    plot = tmp_path / "p.svg"
    out = tmp_path / "r.json"
    rc = main(
        ["experiment", "intro-angles", "--trials", "5", "--no-timestamp",
         "--plot-out", str(plot), "--out", str(out)]
    )
    assert rc == 0
    assert plot.read_text().startswith("<svg")


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert "gcurkit" in capsys.readouterr().out


def test_non_ascii_matrix_market_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_bytes(b"%%MatrixMarket matrix array real general\n1 1\n1.0\xc3\xa9\n")
    rc = main(["cur", str(bad), "-k", "1"])
    assert rc == EXIT_PARSE
    assert "not ASCII text" in capsys.readouterr().err


def test_non_utf8_csv_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1.0,2.0\n3.0,\xff\n")
    rc = main(["cur", str(bad), "-k", "1"])
    assert rc == EXIT_PARSE
    assert "not UTF-8 text" in capsys.readouterr().err


def test_oversized_coordinate_header_exit_code(tmp_path, capsys):
    big = tmp_path / "big.mtx"
    big.write_text("%%MatrixMarket matrix coordinate real general\n100000000 100000000 1\n1 1 1.0\n")
    rc = main(["cur", str(big), "-k", "1"])
    assert rc == EXIT_PARSE
    assert "100000000 x 100000000 matrix is too large" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["svg", "csv"])
def test_noise_recovery_plot_output(tmp_path, fmt):
    # one series per method and eps, over k, read from the report's cells
    plot = tmp_path / f"p.{fmt}"
    rep = run_json(
        tmp_path,
        ["experiment", "noise-recovery", "--trials", "1", "--rank", "5,10",
         "--eps", "0.1,0.2", "--seed", "3", "--no-timestamp",
         "--plot-out", str(plot), "--plot-format", fmt],
    )
    methods, eps_values = ("TSVD", "TGSVD", "CUR", "GCUR"), (0.1, 0.2)
    names = [f"{method} eps={eps:g}" for method in methods for eps in eps_values]
    text = plot.read_text()
    if fmt == "svg":
        assert text.startswith("<svg")
        assert all(f">{name}</text>" in text for name in names)
        return
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["series", "x", "y"]
    means = {
        (f"{method} eps={c['eps']:g}", c["k"]): c["stats"][method]["mean"]
        for c in rep["cells"]
        for method in methods
    }
    got = {(name, int(x)): float(y) for name, x, y in rows[1:]}
    assert got == means
    assert [name for name, _, _ in rows[1::2]] == names


@pytest.mark.parametrize(
    "argv,m,trials",
    [
        ([], None, None),
        (["--paper-scale"], 10000, 100),
        (["--paper-scale", "--matrix-kind", "sparse"], 100000, 100),
        (["--paper-scale", "--trials", "3"], 10000, 3),
    ],
)
def test_paper_scale_sets_rows_and_trials(monkeypatch, tmp_path, argv, m, trials):
    # --paper-scale sets m by matrix kind and 100 trials unless --trials is
    # given; without it, neither is passed on and the library's defaults hold
    calls = []

    def recording(**kwargs):
        calls.append(kwargs)
        return experiments.ExperimentReport("noise-recovery", kwargs, [])

    monkeypatch.setattr(experiments, "noise_recovery", recording)
    run_json(tmp_path, ["experiment", "noise-recovery", *argv, "--no-timestamp"])
    (kwargs,) = calls
    assert kwargs.get("m") == m
    assert kwargs.get("trials") == trials
    assert kwargs["inexact_chol"] is False


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--rank", "5,x"], "--rank expects a comma-separated integer list, got '5,x'"),
        (["--eps", "0.1,y"], "--eps expects a comma-separated number list, got '0.1,y'"),
    ],
)
def test_malformed_experiment_list_is_usage_error(monkeypatch, capsys, argv, message):
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    rc = main(["experiment", "noise-recovery", *argv])
    assert rc == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,flag,text",
    [
        ("noise-recovery", "--rank", ","),
        ("noise-recovery", "--rank", ""),
        ("noise-recovery", "--eps", ","),
        ("noise-recovery-inexact", "--eps", " , "),
        ("subgroups", "--rank", ","),
        ("intro-angles", "--eps", ","),
    ],
)
def test_empty_experiment_list_is_usage_error(monkeypatch, capsys, name, flag, text):
    # an empty list used to end in a traceback (max() of no ranks) or in a
    # report without cells; now it is a usage error before any trial
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(synth, "_lowrank", no_trial)
    monkeypatch.setattr(synth, "subgroup_data", no_trial)
    monkeypatch.setattr(experiments, "_child", no_trial)
    rc = main(["experiment", name, flag, text])
    assert rc == EXIT_USAGE
    what = "integer" if flag == "--rank" else "number"
    assert f"{flag} expects a comma-separated {what} list, got {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cur", "gcur"])
def test_missing_rank_is_usage_error(diag_pair, capsys, command):
    files = diag_pair[:1] if command == "cur" else diag_pair
    rc = main([command, *files])
    assert rc == EXIT_USAGE
    assert "--rank/-k is required" in capsys.readouterr().err


def _csv_rows(path):
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0][0].startswith("# ")
    return json.loads(rows[0][0][2:]), rows[1:]


def test_csv_report_without_cells(tmp_path, diag_pair):
    # gcur's report has no cells: the header row holds all of it, and the
    # field and cell rows are empty
    args = ["gcur", *diag_pair, "-k", "2", "--bounds", "--no-timestamp"]
    out = tmp_path / "r.csv"
    assert main(args + ["--format", "csv", "--out", str(out)]) == 0
    meta, rows = _csv_rows(out)
    assert meta == run_json(tmp_path, args)
    assert rows == [[], []]


def test_csv_report_joins_list_fields(tmp_path):
    # a list-valued cell field (the selected columns of subgroups) is one
    # CSV field, its entries joined by ";"
    args = ["experiment", "subgroups", "--seed", "0", "--no-timestamp"]
    out = tmp_path / "r.csv"
    assert main(args + ["--format", "csv", "--out", str(out)]) == 0
    _, rows = _csv_rows(out)
    fields, cells = rows[0], rows[1:]
    rep = run_json(tmp_path, args)
    assert len(cells) == len(rep["cells"])
    for row, cell in zip(cells, rep["cells"]):
        got = dict(zip(fields, row))
        for method in ("CUR", "GCUR"):
            columns = cell["stats"][method]["columns"]
            assert got[f"stats.{method}.columns"] == ";".join(map(str, columns))
        assert int(got["n_columns"]) == cell["n_columns"]


def test_subgroups_below_rank_two_scores_two_leading_coordinates(tmp_path):
    # the plot and the two-leading scores need two coordinates per method
    plot = tmp_path / "s.svg"
    out = tmp_path / "s.json"
    rc = main(["experiment", "subgroups", "--rank", "1", "--seed", "0", "--no-timestamp",
               "--plot-out", str(plot), "--out", str(out)])
    assert rc == 0
    assert plot.read_text().startswith("<svg")
    rep = json.loads(out.read_text())
    for method in ("CUR", "GCUR", "TSVD", "TGSVD"):
        assert {len(row) for row in rep["projections"][method]} == {2}
        assert rep["cells"][0]["stats"][method]["cv_error"] >= 0.0
    assert len(rep["cells"][0]["stats"]["CUR"]["columns"]) == 1


@pytest.mark.parametrize("rank", ["0", "-3"])
def test_subgroups_rank_below_one_exits_before_any_selection(monkeypatch, capsys, rank):
    # --rank 0 and --rank -3 used to exit 0 with a cell of n_columns 0 or -3
    def no_selection(*_args):
        raise AssertionError("a selection ran")

    monkeypatch.setattr(curfac, "deim_cur", no_selection)
    rc = main(["experiment", "subgroups", "--rank", rank, "--seed", "0"])
    assert rc == EXIT_NUMERIC
    want = f"gcurkit: numerical error: truncation rank must satisfy 1 <= k < 30, got {rank}\n"
    assert capsys.readouterr().err == want


def test_jsonable_numpy_scalars():
    # every numpy scalar goes through tolist(); a non-finite float is its repr
    values = {
        "f32": np.float32(1.1),
        "f32_inf": np.float32(np.inf),
        "f32_ninf": np.float32(-np.inf),
        "f32_nan": np.float32(np.nan),
        "f64": np.float64(0.1),
        "f64_inf": np.float64(np.inf),
        "f64_ninf": np.float64(-np.inf),
        "f64_nan": np.float64(np.nan),
        "i32": np.int32(-7),
        "i64": np.int64(2**40),
        "true": np.bool_(True),
        "false": np.bool_(False),
    }
    assert gio.report_json(cli._jsonable(values)) == (
        '{\n  "f32": 1.100000023841858,\n  "f32_inf": "inf",\n  "f32_nan": "nan",\n'
        '  "f32_ninf": "-inf",\n  "f64": 0.1,\n  "f64_inf": "inf",\n  "f64_nan": "nan",\n'
        '  "f64_ninf": "-inf",\n  "false": false,\n  "i32": -7,\n  "i64": 1099511627776,\n'
        '  "true": true\n}\n'
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["gcur", "-k", "2"],
        ["gcur", "-k", "2", "--id-mode", "column"],
        ["gcur", "-k", "2", "--id-mode", "row"],
        ["gcur", "-k", "1", "--only-a"],
        ["gsvd", "-k", "2"],
        ["cur", "-k", "2"],
        ["experiment", "intro-angles", "--trials", "5"],
        ["experiment", "noise-recovery", "--trials", "1", "--rank", "5", "--eps", "0.1"],
        ["experiment", "noise-recovery-inexact", "--trials", "1", "--rank", "5",
         "--eps", "0.1"],
        ["experiment", "subgroups", "--seed", "0"],
    ],
    ids=["gcur", "gcur-column", "gcur-row", "gcur-only-a", "gsvd", "cur", "intro-angles",
         "noise-recovery", "noise-recovery-inexact", "subgroups"],
)
def test_timed_report_is_deterministic_report_plus_timing(tmp_path, diag_pair, argv):
    # every wall-clock value is the timestamp or under timing, and
    # --no-timestamp drops exactly those two keys
    if argv[0] != "experiment":
        files = diag_pair[:1] if argv[0] == "cur" else list(diag_pair)
        argv = [argv[0], *files, *argv[1:]]
    timed = run_json(tmp_path, argv)
    assert "timestamp" in timed
    assert ("timing" in timed) == (argv[0] == "experiment")
    del timed["timestamp"]
    timed.pop("timing", None)
    assert timed == run_json(tmp_path, argv + ["--no-timestamp"])


@pytest.mark.parametrize(
    "argv",
    [["gcur", "-k", "2", "--bounds"], ["experiment", "intro-angles", "--trials", "5"]],
    ids=["gcur", "intro-angles"],
)
def test_default_output_is_stdout(tmp_path, diag_pair, capsys, argv):
    # without --out the report goes to stdout, with the bytes --out writes
    if argv[0] == "gcur":
        argv = [argv[0], *diag_pair, *argv[1:]]
    out = tmp_path / "r.json"
    assert main(argv + ["--no-timestamp", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv + ["--no-timestamp"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
