"""Command-line harness: file ingestion, decompositions, experiments, reports.

Exit codes are a stable scripting contract: 0 success, 2 usage errors,
3 file parse errors, 4 numerical precondition violations (including an
experiment grid cell in which no trial succeeded). The commands only parse
arguments and format reports; every computation lives in the library.
``gsvd`` prints what ``gsvd.gsvd_diagnostics`` returns, ``cur`` what
``curfac.deim_cur`` returns, and ``gcur`` what ``gcur``/``gcur_only_a``,
``relative_errors`` and ``evaluate_bounds`` return. Residuals and errors
are scored on factors the library already holds (each matrix's n x n
triangle, or the SVD ``deim_cur`` selects from), so they differ from an
explicit computation on the full matrices at rounding level.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__, curfac, experiments, matkit
from . import io as gio
from .errors import DimensionError, GcurkitError, ParseError
from .gcur import evaluate_bounds, gcur, gcur_only_a, relative_errors
from .gsvd import gsvd_diagnostics

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """Command-level usage problem detected after argument parsing."""


def _jsonable(obj):
    """Recursively convert report values to JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _emit(report, args):
    text = gio.write_report(_jsonable(report), out=args.out, fmt=args.format)
    if args.out is None:
        sys.stdout.write(text)


def _one_based(indices):
    return [int(i) + 1 for i in indices]


def _parse_list(text, flag, kind):
    try:
        values = [kind(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        what = "integer" if kind is int else "number"
        raise UsageError(f"{flag} expects a comma-separated {what} list, got {text!r}")
    return values


def _read(path, args):
    return gio.read_matrix(path, csv_header=args.csv_header)


def _require_rank_option(args, n, required=True):
    """Check ``--rank`` by the library's one rank rule, 1 <= k < n
    (``matkit._require_truncation_rank``); a missing or bad rank is a usage
    error (exit 2), not a numerical one."""
    if args.rank is None:
        if required:
            raise UsageError("--rank/-k is required")
        return
    try:
        matkit._require_truncation_rank(args.rank, n)
    except DimensionError as exc:
        raise UsageError(str(exc)) from None


def cmd_gsvd(args):
    a = _read(args.file_a, args)
    b = _read(args.file_b, args)
    _require_rank_option(args, a.shape[1], required=False)
    g = gsvd_diagnostics(a, b, args.rank)
    f = g.factors
    params = {"file_a": args.file_a, "file_b": args.file_b, "k": args.rank}
    report = experiments._report_head("command", "gsvd", params, not args.no_timestamp)
    report.update(
        {
            "gamma": f.gamma,
            "sigma": f.sigma,
            "ratios": f.ratios,
            "reconstruction_residuals": {
                "a_abs": g.residual_a,
                "b_abs": g.residual_b,
                "a_rel": g.rel_residual_a,
                "b_rel": g.rel_residual_b,
            },
        }
    )
    if g.sandwich is not None:
        t = g.sandwich
        report["truncation"] = {
            "k": args.rank,
            "gamma_next": t.gamma_next,
            "sandwich": {
                "lower": t.lower,
                "observed": t.observed,
                "upper": t.upper,
                "pass": t.holds,
            },
        }
    if args.factors_out:
        os.makedirs(args.factors_out, exist_ok=True)
        for name in ("U", "V", "Y", "gamma", "sigma"):
            x = getattr(f, name)
            path = os.path.join(args.factors_out, f"{name}.mtx")
            gio.write_matrix_market(path, x.reshape(x.shape[0], -1))
    _emit(report, args)
    return EXIT_OK


def cmd_cur(args):
    a = _read(args.file_a, args)
    _require_rank_option(args, min(a.shape))
    f = curfac.deim_cur(a, args.rank)
    report = experiments._report_head(
        "command", "cur", {"file_a": args.file_a, "k": args.rank}, not args.no_timestamp
    )
    report.update(
        {
            "p": _one_based(f.p),
            "s": _one_based(f.s),
            "M": f.M,
            "rel_error": f.rel_error,
        }
    )
    _emit(report, args)
    return EXIT_OK


def cmd_gcur(args):
    a = _read(args.file_a, args)
    b = _read(args.file_b, args)
    _require_rank_option(args, a.shape[1])
    report = experiments._report_head(
        "command",
        "gcur",
        {
            "file_a": args.file_a,
            "file_b": args.file_b,
            "k": args.rank,
            "only_a": args.only_a,
            "id_mode": args.id_mode,
        },
        not args.no_timestamp,
    )
    f = gcur_only_a(a, b, args.rank) if args.only_a else gcur(a, b, args.rank)
    err_a, err_b = relative_errors(a, b, f, args.id_mode or "cur")
    if args.id_mode != "row":
        report["p"] = _one_based(f.p)
    if args.id_mode != "column":
        report["s_a"] = _one_based(f.s_a)
    if not args.id_mode:
        report["M_a"] = f.M_a
        report["ratio_gap"] = f.ratio_gap
    report["rel_error_a"] = err_a
    if not args.only_a:
        if args.id_mode != "column":
            report["s_b"] = _one_based(f.s_b)
        if not args.id_mode:
            report["M_b"] = f.M_b
        report["rel_error_b"] = err_b
    if args.bounds:
        rep = evaluate_bounds(a, b, f)
        bound_dict = rep._asdict()
        bound_dict["checks"] = dict(rep.checks)
        bound_dict["all_pass"] = all(rep.checks.values())
        report["bounds"] = bound_dict
    _emit(report, args)
    return EXIT_OK


def _experiment_plot_series(report_dict):
    name = report_dict["experiment"]
    cells = report_dict["cells"]
    if name == "intro-angles":
        eps = [c["eps"] for c in cells]
        return [
            {"name": m, "x": eps, "y": [c["stats"][m]["mean"] for c in cells]}
            for m in ("SVD", "GSVD")
        ]
    if name.startswith("noise-recovery"):
        eps_values = sorted({c["eps"] for c in cells})
        series = []
        for method in ("TSVD", "TGSVD", "CUR", "GCUR"):
            for eps in eps_values:
                pts = [(c["k"], c["stats"][method]["mean"]) for c in cells if c["eps"] == eps]
                pts.sort()
                series.append(
                    {
                        "name": f"{method} eps={eps:g}",
                        "x": [p[0] for p in pts],
                        "y": [p[1] for p in pts],
                    }
                )
        return series
    proj = report_dict["projections"]
    labels = np.asarray(proj["labels"])
    coords = np.asarray(proj["GCUR"])
    series = []
    for gi, gname in enumerate(proj["group_names"]):
        sel = labels == gi
        series.append(
            {
                "name": gname,
                "x": coords[sel, 0].tolist(),
                "y": coords[sel, 1].tolist(),
                "marker": True,
            }
        )
    return series


def cmd_experiment(args):
    """Run a named experiment, passing on only the options the user set:
    every default lives in ``gcurkit.experiments``."""
    name = args.name
    rank = None if args.rank is None else _parse_list(args.rank, "--rank", int)
    eps = None if args.eps is None else _parse_list(args.eps, "--eps", float)
    opts = {"seed": args.seed}
    if name == "intro-angles":
        run = experiments.intro_angles
        opts.update(eps_values=eps, trials=args.trials)
    elif name in ("noise-recovery", "noise-recovery-inexact"):
        run = experiments.noise_recovery
        trials, m = args.trials, None
        if args.paper_scale:
            m = 100000 if args.matrix_kind == "sparse" else 10000
            trials = 100 if trials is None else trials
        opts.update(
            kind=args.matrix_kind,
            m=m,
            k_values=rank,
            eps_values=eps,
            trials=trials,
            rho=args.rho,
            inexact_chol=name == "noise-recovery-inexact",
        )
    else:  # subgroups: argparse's choices admit no other name
        run = experiments.subgroups
        opts.update(n_columns=rank, points_per_group=args.points_per_group)
    rep = run(**{key: value for key, value in opts.items() if value is not None})
    report = rep.to_dict(include_timing=not args.no_timestamp)
    if args.plot_out:
        series = _experiment_plot_series(report)
        gio.write_plotdata(series, args.plot_out, fmt=args.plot_format, title=name)
    _emit(report, args)
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument(
        "--csv-header", action="store_true", help="input CSV files have a header row"
    )
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamps and wall-clock fields for byte-stable output",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcurkit",
        description="Generalized CUR decompositions of matrix pairs and experiments",
    )
    parser.add_argument("--version", action="version", version=f"gcurkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gsvd", help="factor a matrix pair and report the spectrum")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--rank", "-k", type=int, default=None)
    p.add_argument("--factors-out", default=None, help="directory for factor matrices")
    _add_common(p)
    p.set_defaults(func=cmd_gsvd)

    p = sub.add_parser("cur", help="single-matrix CUR decomposition")
    p.add_argument("file_a")
    p.add_argument("--rank", "-k", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_cur)

    p = sub.add_parser("gcur", help="generalized CUR of a matrix pair")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--rank", "-k", type=int, default=None)
    p.add_argument("--only-a", action="store_true", help="skip B's row selection")
    p.add_argument("--bounds", action="store_true", help="evaluate error bounds")
    p.add_argument(
        "--id-mode",
        choices=("column", "row"),
        default=None,
        help="report a one-sided interpolative decomposition instead",
    )
    _add_common(p)
    p.set_defaults(func=cmd_gcur)

    p = sub.add_parser("experiment", help="run a named reproducible experiment")
    p.add_argument(
        "name",
        choices=("intro-angles", "noise-recovery", "noise-recovery-inexact", "subgroups"),
    )
    p.add_argument("--rank", "-k", default=None, help="comma-separated rank list")
    p.add_argument("--eps", default=None, help="comma-separated noise levels")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rho", type=float, default=None, help="Toeplitz covariance parameter")
    p.add_argument("--matrix-kind", choices=("gapped", "sparse"), default=None)
    p.add_argument("--paper-scale", action="store_true", help="full-size experiment dims")
    p.add_argument("--points-per-group", type=int, default=None)
    p.add_argument("--plot-out", default=None, help="write plot data to this path")
    p.add_argument("--plot-format", choices=("svg", "csv"), default="svg")
    _add_common(p)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"gcurkit: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"gcurkit: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GcurkitError, np.linalg.LinAlgError) as exc:
        print(f"gcurkit: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"gcurkit: i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
