"""Input-rejection branches of the public boundary that no other test reaches:
each row names the call, the error class it raises and its message."""

import re

import numpy as np
import pytest

from gcurkit import curfac, deim, matkit, synth
from gcurkit import io as gio
from gcurkit.errors import ContractViolationError, ConvergenceError, DimensionError, ParseError
from gcurkit.gcur import svd_subspace_gap

Q4 = np.eye(4)
Q_UP = np.eye(4)[:, :2]


def _mm_file(tmp_path, banner):
    path = tmp_path / "m.mtx"
    path.write_text(f"%%MatrixMarket {banner} real general\n1 1\n1\n", encoding="ascii")
    return gio.read_matrix(str(path))


def _not_converging(monkeypatch, name, call):
    def fail(*_args, **_kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, name, fail)
    return call()


REJECTIONS = [
    ("interpolative-mode", lambda t, mp: curfac.interpolative(Q4, 2, mode="oblique"),
     ValueError, "mode must be 'column' or 'row', got 'oblique'"),
    ("deim-wide-basis", lambda t, mp: deim.deim_select(np.ones((3, 5)), 2),
     DimensionError, "basis needs rows >= cols, got 3x5"),
    ("eta-not-square", lambda t, mp: deim.eta(Q4, [0, 1]),
     DimensionError, "need a square selected block: 2 indices for 4 columns"),
    ("project-side", lambda t, mp: deim.interp_project(Q_UP, [0, 1], Q4, side="up"),
     ValueError, "side must be 'left' or 'right', got 'up'"),
    ("project-left-rows", lambda t, mp: deim.interp_project(Q_UP, [0, 1], np.ones((3, 2))),
     DimensionError, "X needs 4 rows to match the basis, got 3"),
    ("project-right-columns",
     lambda t, mp: deim.interp_project(Q_UP, [0, 1], np.ones((2, 3)), side="right"),
     DimensionError, "X needs 4 columns to match the basis, got 3"),
    ("angle-rows", lambda t, mp: matkit.max_principal_angle(Q_UP, np.eye(3)[:, :2]),
     DimensionError, "subspace bases live in different spaces: 4 vs 3 rows"),
    ("angle-columns", lambda t, mp: matkit.max_principal_angle(Q_UP, Q4[:, :3]),
     DimensionError, "subspaces have different dimensions: 2 vs 3 columns"),
    ("subspace-gap-rows", lambda t, mp: svd_subspace_gap(np.ones((5, 4)), np.eye(3)[:, :1]),
     DimensionError, "Q_k needs 4 rows to match A's columns, got 3"),
    ("subgroup-points", lambda t, mp: synth.SubgroupSpec(points_per_group=0),
     ContractViolationError, "points_per_group must be positive"),
    ("perturb-chol-shape", lambda t, mp: synth.perturb_chol(np.triu(np.ones((4, 3))), 0),
     DimensionError, "Cholesky factor must be square, got (4, 3)"),
    ("mm-object", lambda t, mp: _mm_file(t, "vector array"),
     ParseError, "unsupported object 'vector'"),
    ("mm-format", lambda t, mp: _mm_file(t, "matrix dense"),
     ParseError, "unsupported format 'dense'"),
    ("report-format", lambda t, mp: gio.write_report({}, fmt="xml"),
     ValueError, "unknown report format 'xml'"),
    ("plot-format", lambda t, mp: gio.write_plotdata([], str(t / "p"), fmt="png"),
     ValueError, "unknown plot format 'png'"),
    ("plot-empty", lambda t, mp: gio.plot_svg([]),
     DimensionError, "no data to plot"),
    ("svd-no-convergence", lambda t, mp: _not_converging(mp, "svd", lambda: matkit._svd(Q4)),
     ConvergenceError, "SVD iteration did not converge for 4x4 matrix"),
    ("eig-no-convergence",
     lambda t, mp: _not_converging(mp, "eigvalsh", lambda: matkit._lambda_max(Q4)),
     ConvergenceError, "eigenvalue iteration did not converge for 4x4 Gram"),
]


@pytest.mark.parametrize(
    "call,error,message", [row[1:] for row in REJECTIONS], ids=[row[0] for row in REJECTIONS]
)
def test_rejection(tmp_path, monkeypatch, call, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        call(tmp_path, monkeypatch)
    assert type(info.value) is error
