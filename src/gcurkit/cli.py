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

Each experiment has its own subparser under ``experiment``. It takes the
options its runner in ``gcurkit.experiments`` reads, each parsed into the
runner's keyword, plus ``--seed``, ``--plot-out``, ``--plot-format``,
``--format``, ``--out`` and ``--no-timestamp``, all after the experiment's
name. Any other option is a usage error (exit 2) before any trial runs.
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


def _list_of(kind, flag):
    """An argparse ``type`` that reads a nonempty comma-separated list."""

    def parse(text):
        try:
            values = [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            values = []
        if not values:
            what = "integer" if kind is int else "number"
            raise argparse.ArgumentTypeError(
                f"{flag} expects a comma-separated {what} list, got {text!r}"
            )
        return values

    return parse


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


# what an experiment's namespace holds besides its runner's keywords
_REPORT_OPTIONS = {"command", "name", "func", "runner", "format", "out", "no_timestamp",
                   "plot_out", "plot_format"}


def cmd_experiment(args):
    """Run a named experiment on the keywords its subparser parsed and
    report it. An option the user did not set is absent from ``args``, so
    every default lives in ``gcurkit.experiments``. ``--paper-scale`` sets
    m by matrix kind and, unless ``--trials`` is given, 100 trials. The
    runner is looked up in ``gcurkit.experiments`` at each call."""
    opts = {key: value for key, value in vars(args).items() if key not in _REPORT_OPTIONS}
    if opts.pop("paper_scale", False):
        opts["m"] = 100000 if opts.get("kind") == "sparse" else 10000
        opts.setdefault("trials", 100)
    rep = getattr(experiments, args.runner)(**opts)
    report = rep.to_dict(include_timing=not args.no_timestamp)
    if args.plot_out:
        series = _experiment_plot_series(report)
        gio.write_plotdata(series, args.plot_out, fmt=args.plot_format, title=args.name)
    _emit(report, args)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcurkit",
        description="Generalized CUR decompositions of matrix pairs and experiments",
    )
    parser.add_argument("--version", action="version", version=f"gcurkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("json", "csv"), default="json")
    report.add_argument("--out", default=None, help="write the report to this path")
    report.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamps and wall-clock fields for byte-stable output",
    )
    files = argparse.ArgumentParser(add_help=False, parents=[report])
    files.add_argument("file_a")
    files.add_argument("--rank", "-k", type=int, default=None)
    files.add_argument(
        "--csv-header", action="store_true", help="input CSV files have a header row"
    )

    p = sub.add_parser("gsvd", parents=[files], help="factor a matrix pair and report the spectrum")
    p.add_argument("file_b")
    p.add_argument("--factors-out", default=None, help="directory for factor matrices")
    p.set_defaults(func=cmd_gsvd)

    p = sub.add_parser("cur", parents=[files], help="single-matrix CUR decomposition")
    p.set_defaults(func=cmd_cur)

    p = sub.add_parser("gcur", parents=[files], help="generalized CUR of a matrix pair")
    p.add_argument("file_b")
    p.add_argument("--only-a", action="store_true", help="skip B's row selection")
    p.add_argument("--bounds", action="store_true", help="evaluate error bounds")
    p.add_argument(
        "--id-mode",
        choices=("column", "row"),
        default=None,
        help="report a one-sided interpolative decomposition instead",
    )
    p.set_defaults(func=cmd_gcur)

    p = sub.add_parser("experiment", help="run a named reproducible experiment")
    p.set_defaults(func=cmd_experiment)
    names = p.add_subparsers(dest="name", required=True)
    shared = argparse.ArgumentParser(add_help=False, parents=[report])
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--plot-out", default=None, help="write plot data to this path")
    shared.add_argument("--plot-format", choices=("svg", "csv"), default="svg")
    # an option left unset is absent from the namespace: the runner's default holds
    kw = {"parents": [shared], "argument_default": argparse.SUPPRESS}
    ranks = {"type": _list_of(int, "--rank"), "help": "comma-separated rank list"}
    eps = {"dest": "eps_values", "type": _list_of(float, "--eps"),
           "help": "comma-separated noise levels"}

    q = names.add_parser("intro-angles", **kw)
    q.add_argument("--eps", **eps)
    q.add_argument("--trials", type=int)
    q.set_defaults(runner="intro_angles")
    for name in ("noise-recovery", "noise-recovery-inexact"):
        q = names.add_parser(name, **kw)
        q.add_argument("--rank", "-k", dest="k_values", **ranks)
        q.add_argument("--eps", **eps)
        q.add_argument("--trials", type=int)
        q.add_argument("--rho", type=float, help="Toeplitz covariance parameter")
        q.add_argument("--matrix-kind", dest="kind", choices=("gapped", "sparse"))
        q.add_argument("--paper-scale", action="store_true", help="full-size experiment dims")
        q.set_defaults(runner="noise_recovery", inexact_chol=name == "noise-recovery-inexact")
    q = names.add_parser("subgroups", **kw)
    q.add_argument("--rank", "-k", dest="n_columns", **ranks)
    q.add_argument("--points-per-group", type=int)
    q.set_defaults(runner="subgroups")
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
