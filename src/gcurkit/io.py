"""Matrix file ingestion and report emission for the command-line harness.

Supported inputs are Matrix Market (array and coordinate formats, ASCII text)
and CSV (UTF-8 text).

A Matrix Market file is read by one of two paths. The line parser
(``_mm_parse``) reads it one line at a time and defines every outcome: the
values and their column-major order, each ``ParseError`` with its text and
line number, and the ``ContractViolationError`` for a non-finite entry.
Coordinate entries are summed in file order, so duplicates add up as a loop
over the lines would. An undecodable byte, or a coordinate size line too
large to allocate, is a ``ParseError``. It holds the values as a list of
Python floats and converts them one at a time, so it is the slow path: about
0.9 s and a traced peak of 25 MB for a 2000 x 300 array file (2-core x86).

A plain file takes the fast path (``_mm_loadtxt``): the line parser's header
routine, then numpy's C reader ``np.loadtxt`` on the data section. Both
convert numbers with CPython's correctly rounded routine, so the bits are
the same; the same 2000 x 300 file reads in about 0.2 s with a traced peak
of 5.4 MB, of which the result is 4.8 MB. The fast path answers only where
it answers as the line parser would: the entry count matches the size line,
every index is in bounds and every value is finite. Any other file goes to
the line parser, which names the fault; so does any file ``np.loadtxt``
rejects: a ``%`` comment inside the data, a number or index spelled in a
way only Python's ``float`` or ``int`` takes (``1_000.5``, index ``1.0``),
or an undecodable byte. A file holding any of the characters 0x0b, 0x0c,
0x1c, 0x1d or 0x1e never reaches ``np.loadtxt``: ``str.splitlines`` breaks
lines there while ``np.loadtxt`` reads them as spaces, so ``1 1<FF>1.0``
would be one entry to numpy and an arity error to the line parser. One pass
over the raw bytes finds them (a few ms for 12 MB).

The CSV reader parses block-wise, about 64k fields at a time: each block's
tokens become float64 in one numpy call, which parses every string with
Python's ``float``. Only a block whose call fails is parsed again token by
token, so that the ``ParseError`` names the bad token and its line.

The array writer emits values at 17 significant digits, which round-trips
IEEE doubles exactly. Its data section is column-major, as the format
prescribes, and is formatted a few thousand values per ``write`` call.
Reports serialize to JSON (sorted keys, so byte-identical for identical
content) or flat CSV; plot data can also be rendered as a minimal SVG.
"""

import csv
import io as _io
import itertools
import json
import warnings
from functools import partial

import numpy as np

from .errors import DimensionError, ParseError
from .matkit import as_matrix, require_finite

MM_ARRAY_HEADER = "%%MatrixMarket matrix array real general"

_BLOCK_FIELDS = 1 << 16  # CSV fields per block
_WRITE_VALUES = 1 << 12  # values formatted per write in write_matrix_market
# Line breaks of str.splitlines, besides "\n", that ASCII text read with
# universal newlines can hold; np.loadtxt reads them as spaces.
_OTHER_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_COORDINATE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _parse_float(token, path, lineno):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"invalid numeric token {token!r}", path, lineno) from None


def _parse_int(token, path, lineno):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"invalid integer token {token!r}", path, lineno) from None


def _floats(tokens, reparse):
    """Convert a block of tokens to a float64 array with one numpy call.

    numpy parses each string with Python's ``float``. If the call fails,
    ``reparse()`` parses the block again one token at a time and raises a
    ``ParseError`` naming the first bad token and its line.
    """
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        return reparse()


def _parse_each(numbered, path):
    """Parse ``(line number, tokens)`` pairs one token at a time."""
    return np.array(
        [_parse_float(tok, path, lineno) for lineno, toks in numbered for tok in toks],
        dtype=np.float64,
    )


def _decoded(chunks, path, encoding):
    """Pass text through, turning an undecodable byte into a ParseError."""
    try:
        yield from chunks
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(f"not {encoding} text (byte 0x{byte:02x})", path) from None


def _mm_banner(line, path):
    """Validate the ``%%MatrixMarket`` line and return its format."""
    header = line.split()
    if len(header) != 5 or not header[0].startswith("%%MatrixMarket"):
        raise ParseError(f"not a MatrixMarket header: {line!r}", path, 1)
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", path, 1)
    if fmt not in ("array", "coordinate"):
        raise ParseError(f"unsupported format {fmt!r}", path, 1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field {field!r}", path, 1)
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}", path, 1)
    return fmt


def _lines(fh, path):
    """``(line number, line)`` of each line of the open text file ``fh``, as
    ``str.splitlines`` splits the whole text; an undecodable byte is a
    ParseError."""
    lineno = 0
    try:
        # Not ``yield from fh``: that would close fh when the generator is
        # dropped, and the fast path reads on after the header.
        for text in fh:
            for line in text.splitlines():
                lineno += 1
                yield lineno, line
    except UnicodeDecodeError as exc:
        raise ParseError(f"not ASCII text (byte 0x{exc.object[exc.start]:02x})", path) from None


def _mm_header(lines, path):
    """Read the banner and the size line from ``lines``.

    Returns ``(lineno, dims, a)``: the size line's number, ``[m, n]`` for an
    array file or ``[m, n, nnz]`` for a coordinate file, and the zero matrix
    a coordinate file's entries are summed into (None for an array file).
    """
    lineno, line = next(lines, (1, None))
    if line is None:
        raise ParseError("empty file", path, 1)
    fmt = _mm_banner(line, path)
    for lineno, line in lines:
        if line.strip() and not line.startswith("%"):
            break
    else:
        raise ParseError("missing size line", path, lineno)
    size = line.split()
    fields = "rows cols" if fmt == "array" else "rows cols nnz"
    if len(size) != len(fields.split()):
        raise ParseError(f"{fmt} size line needs '{fields}', got {line!r}", path, lineno)
    dims = [_parse_int(tok, path, lineno) for tok in size]
    m, n = dims[:2]
    if m < 1 or n < 1:
        raise ParseError(f"dimensions must be positive, got {m} x {n}", path, lineno)
    if fmt == "array":
        return lineno, dims, None
    try:
        return lineno, dims, np.zeros((m, n), order="F")
    except (MemoryError, ValueError):
        raise ParseError(f"a {m} x {n} matrix is too large to allocate", path, lineno) from None


def _mm_parse(fh, path):
    """The line parser: read a Matrix Market file one line at a time."""
    lines = _lines(fh, path)
    lineno, dims, a = _mm_header(lines, path)
    m, n = dims[:2]
    values = []  # an array file's values; a coordinate file's go straight into a
    found = 0
    for lineno, line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if a is None:
            values.extend(_parse_float(tok, path, lineno) for tok in parts)
            found = len(values)
            continue
        if len(parts) != 3:
            raise ParseError(f"coordinate entry needs 'i j value', got {stripped!r}", path, lineno)
        i = _parse_int(parts[0], path, lineno)
        j = _parse_int(parts[1], path, lineno)
        v = _parse_float(parts[2], path, lineno)
        if not 1 <= i <= m or not 1 <= j <= n:
            raise ParseError(f"index ({i}, {j}) out of bounds for {m} x {n}", path, lineno)
        a[i - 1, j - 1] += v
        found += 1
    expected = m * n if a is None else dims[2]
    if found != expected:
        raise ParseError(f"expected {expected} entries, found {found}", path, lineno)
    if a is None:
        a = np.array(values).reshape((m, n), order="F")
    return require_finite(a, f"matrix in {path}")


def _mm_loadtxt(fh, path):
    """The fast path: the header as ``_mm_parse`` reads it, then the data
    section through ``np.loadtxt``. Returns None where the result could
    differ from the line parser's."""
    _, dims, a = _mm_header(_lines(fh, path), path)
    m, n = dims[:2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a data section with no rows
        if a is None:
            # 2-D when a line holds several values; raveled, in file order
            values = np.loadtxt(fh, dtype=np.float64, comments=None).ravel()
            if values.size != m * n:
                return None
            a = values.reshape((m, n), order="F")
        else:
            entries = np.loadtxt(fh, dtype=_COORDINATE, comments=None, ndmin=1)
            i, j = entries["i"], entries["j"]
            if entries.size != dims[2] or not ((i >= 1) & (i <= m) & (j >= 1) & (j <= n)).all():
                return None
            np.add.at(a, (i - 1, j - 1), entries["v"])  # in file order, as _mm_parse sums
    return a if np.isfinite(a).all() else None


def _plain(path):
    """Whether the file's bytes hold none of ``_OTHER_BREAKS``."""
    with open(path, "rb") as fh:
        for chunk in iter(partial(fh.read, 1 << 20), b""):
            if any(brk in chunk for brk in _OTHER_BREAKS):
                return False
    return True


def read_matrix_market(path):
    """Parse a Matrix Market file (array or coordinate, real, general)."""
    if _plain(path):
        with open(path, "r", encoding="ascii") as fh:
            try:
                a = _mm_loadtxt(fh, path)
            except (ValueError, OverflowError, MemoryError, ParseError):
                a = None
        if a is not None:
            return a
    with open(path, "r", encoding="ascii") as fh:
        return _mm_parse(fh, path)


def _csv_block(rows, path):
    """Values of the pending CSV ``(line number, record)`` rows, flattened."""
    tokens = list(itertools.chain.from_iterable(record for _, record in rows))
    numbered = ((lineno, [tok.strip() for tok in record]) for lineno, record in rows)
    return _floats(tokens, partial(_parse_each, numbered, path))


def read_csv_matrix(path, header=False):
    """Parse a dense CSV matrix; ``header=True`` skips the first row."""
    parts = []
    pending = []
    width = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = csv.reader(_decoded(fh, path, "UTF-8"))
        for lineno, record in enumerate(records, start=1):
            if header and lineno == 1:
                continue
            if not record or all(not tok.strip() for tok in record):
                continue
            pending.append((lineno, record))
            if width is None:
                width = len(record)
            elif len(record) != width:
                _csv_block(pending, path)  # a bad token up to this row comes first
                raise ParseError(
                    f"row has {len(record)} fields, expected {width}", path, lineno
                )
            if len(pending) * width >= _BLOCK_FIELDS:
                parts.append(_csv_block(pending, path))
                pending = []
    if pending:
        parts.append(_csv_block(pending, path))
    if not parts:
        raise ParseError("no data rows", path, 1)
    values = np.concatenate(parts).reshape(-1, width)
    return require_finite(np.asfortranarray(values), f"matrix in {path}")


def read_matrix(path, csv_header=False):
    """Read a Matrix Market (either layout) or CSV matrix file.

    The format is sniffed: a ".mtx" or ".mm" extension means Matrix Market
    and ".csv" means CSV; any other file is Matrix Market when its first
    line starts with the "%%MatrixMarket" banner, and CSV otherwise.
    """
    lowered = str(path).lower()
    matrix_market = lowered.endswith((".mtx", ".mm"))
    if not matrix_market and not lowered.endswith(".csv"):
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            matrix_market = fh.readline().startswith("%%MatrixMarket")
    if matrix_market:
        return read_matrix_market(path)
    return read_csv_matrix(path, header=csv_header)


def write_matrix_market(path, a):
    """Write a dense matrix in Matrix Market array format, lossless round-trip.

    A NaN or +-inf entry raises ContractViolationError (``matkit.as_matrix``):
    the readers refuse one, so it would not read back.
    """
    a = as_matrix(a, "matrix")
    m, n = a.shape
    flat = a.ravel(order="F")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MM_ARRAY_HEADER + "\n")
        fh.write(f"{m} {n}\n")
        for start in range(0, flat.size, _WRITE_VALUES):
            run = flat[start : start + _WRITE_VALUES].tolist()
            fh.write(("%.17g\n" * len(run)) % tuple(run))


def report_json(report):
    """Serialize a report dict to canonical JSON text (stable byte-for-byte)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _flatten(prefix, value, row):
    if isinstance(value, dict):
        for k, v in sorted(value.items()):
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, row)
    elif isinstance(value, (list, tuple)):
        row[prefix] = ";".join(str(v) for v in value)
    else:
        row[prefix] = value


def report_csv(report):
    """Flatten a report into CSV: one row per cell plus a parameter header row."""
    cells = report.get("cells", [])
    rows = []
    for cell in cells:
        row = {}
        _flatten("", cell, row)
        rows.append(row)
    if not rows:
        rows = [{}]
    fields = sorted({k for row in rows for k in row})
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    meta = {k: v for k, v in sorted(report.items()) if k != "cells"}
    writer.writerow(["# " + json.dumps(meta, sort_keys=True)])
    writer.writerow(fields)
    for row in rows:
        writer.writerow([row.get(f, "") for f in fields])
    return buf.getvalue()


def write_report(report, out=None, fmt="json"):
    """Render a report dict as JSON or CSV and write it to ``out`` (or return it)."""
    if fmt == "json":
        text = report_json(report)
    elif fmt == "csv":
        text = report_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _svg_coords(vals, lo, hi, pix0, pix1):
    span = hi - lo if hi > lo else 1.0
    return [pix0 + (v - lo) / span * (pix1 - pix0) for v in vals]


def plot_svg(series, title=""):
    """Render xy-series as a minimal 640 x 420 SVG line/scatter plot.

    ``series`` is a list of dicts with keys "name", "x", "y" and optional
    "marker" (draw points instead of a line). Enough to eyeball error curves;
    not a plotting library.
    """
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    width, height = 640, 420
    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
    if not xs:
        raise DimensionError("no data to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    mleft, mright, mtop, mbot = 60, 20, 30, 40
    px = lambda v: _svg_coords([v], x_lo, x_hi, mleft, width - mright)[0]
    py = lambda v: _svg_coords([v], y_lo, y_hi, height - mbot, mtop)[0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{mleft}" y1="{height - mbot}" x2="{width - mright}" '
        f'y2="{height - mbot}" stroke="black"/>',
        f'<line x1="{mleft}" y1="{mtop}" x2="{mleft}" y2="{height - mbot}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{mleft}" y="{height - 8}" font-size="11">{x_lo:.4g}</text>',
        f'<text x="{width - mright}" y="{height - 8}" text-anchor="end" font-size="11">{x_hi:.4g}</text>',
        f'<text x="{mleft - 5}" y="{height - mbot}" text-anchor="end" font-size="11">{y_lo:.4g}</text>',
        f'<text x="{mleft - 5}" y="{mtop + 4}" text-anchor="end" font-size="11">{y_hi:.4g}</text>',
    ]
    for idx, s in enumerate(series):
        color = palette[idx % len(palette)]
        pts = list(zip((px(v) for v in s["x"]), (py(v) for v in s["y"])))
        if s.get("marker"):
            for x, y in pts:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>')
        else:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{width - mright - 4}" y="{mtop + 14 * (idx + 1)}" text-anchor="end" '
            f'font-size="12" fill="{color}">{s["name"]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_csv(series):
    """Flatten xy-series into long-form CSV (name, x, y)."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "x", "y"])
    for s in series:
        for x, y in zip(s["x"], s["y"]):
            writer.writerow([s["name"], x, y])
    return buf.getvalue()


def write_plotdata(series, out, fmt="svg", title=""):
    """Write xy-series as an SVG plot or long-form CSV."""
    if fmt == "svg":
        text = plot_svg(series, title=title)
    elif fmt == "csv":
        text = plot_csv(series)
    else:
        raise ValueError(f"unknown plot format {fmt!r}")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
