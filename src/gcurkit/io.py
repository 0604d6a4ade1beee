"""Matrix file ingestion and report emission for the command-line harness.

Supported inputs are Matrix Market (array and coordinate formats, ASCII text)
and CSV (UTF-8 text). Both readers parse block-wise: Matrix Market data is
read about 1 MB of whole lines at a time and CSV about 64k fields at a time,
and each block's tokens become float64 in one numpy call, which parses every
string with Python's ``float``. Only a block whose call fails is parsed again
token by token, so that the ``ParseError`` names the bad token and its line.
Working memory is one block of text plus the parsed values, held twice
while the blocks are joined. No buffer is sized from a size line before the
entries are counted, except the m×n result of a coordinate file. Coordinate
entries are summed in file order, so duplicates add up exactly as a per-line
loop would. An undecodable byte, or a coordinate size line too large to
allocate, is a ``ParseError``.

The array writer emits values at 17 significant digits, which round-trips
IEEE doubles exactly. Its data section is column-major, as the format
prescribes, and is formatted a few thousand values per ``write`` call. Reports serialize to JSON (sorted keys, so byte-identical for
identical content) or flat CSV; plot data can also be rendered as a minimal
SVG.
"""

import csv
import io as _io
import itertools
import json
from functools import partial

import numpy as np

from .errors import DimensionError, ParseError
from .matkit import as_matrix, require_finite

MM_ARRAY_HEADER = "%%MatrixMarket matrix array real general"
MM_COORD_HEADER = "%%MatrixMarket matrix coordinate real general"

_BLOCK_CHARS = 1 << 20  # Matrix Market text per block
_BLOCK_FIELDS = 1 << 16  # CSV fields per block
_WRITE_VALUES = 1 << 12  # values formatted per write in write_matrix_market
# Line breaks of str.splitlines, besides "\n", that ASCII text read with
# universal newlines can hold. Line numbers count them as breaks as well.
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e"


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


def _line_blocks(chunks):
    """Regroup text chunks into blocks that end at a line break."""
    tail = ""
    for chunk in chunks:
        text = tail + chunk
        cut = text.rfind("\n") + 1
        tail = text[cut:]
        if cut:
            yield text[:cut]
    if tail:
        yield tail


def _line_count(block):
    """``len(block.splitlines())``, without building the lines in the usual case."""
    if any(brk in block for brk in _OTHER_BREAKS):
        return len(block.splitlines())
    return block.count("\n") + (not block.endswith("\n"))


def _data_lines(block, lineno):
    """``(line number, stripped line)`` of each line of ``block`` that is not
    blank or a comment; ``lineno`` is the number of its first line."""
    for off, line in enumerate(block.splitlines(), start=lineno):
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            yield off, stripped


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


def _mm_preamble(blocks, path):
    """Read up to the size line: return the format, the size line, its number
    and the rest of its block."""
    fmt = None
    lineno = 0
    for block in blocks:
        lines = block.splitlines()
        for pos, line in enumerate(lines):
            if fmt is None:
                fmt = _mm_banner(line, path)
            elif not line.startswith("%") and line.strip():
                # Every line break is one character after newline translation.
                rest = block[sum(map(len, lines[: pos + 1])) + pos + 1 :]
                return fmt, line, lineno + pos + 1, rest
        lineno += len(lines)
    if fmt is None:
        raise ParseError("empty file", path, 1)
    raise ParseError("missing size line", path, lineno)


def _coordinate_lines(block, lineno, path, m, n):
    """Parse a block of coordinate entries line by line, raising on the first
    bad line; the reference that the block-wise check must agree with."""
    entries = []
    for off, stripped in _data_lines(block, lineno):
        parts = stripped.split()
        if len(parts) != 3:
            raise ParseError(f"coordinate entry needs 'i j value', got {stripped!r}", path, off)
        i = _parse_int(parts[0], path, off)
        j = _parse_int(parts[1], path, off)
        v = _parse_float(parts[2], path, off)
        if not 1 <= i <= m or not 1 <= j <= n:
            raise ParseError(f"index ({i}, {j}) out of bounds for {m} x {n}", path, off)
        entries.append((i, j, v))
    return np.array(entries, dtype=np.float64).reshape(-1, 3)


def _coordinate_block(text, tokens, reparse, m, n):
    """``(i, j, value)`` rows of one block. The block-wise path needs three
    tokens on every line of ``text`` and indices written as plain digits that
    are in bounds; otherwise ``reparse()`` parses the block line by line."""
    if (
        set(map(len, map(str.split, text.splitlines()))) <= {0, 3}
        and ("".join(tokens[0::3]) + "".join(tokens[1::3])).isdigit()
    ):
        entries = _floats(tokens, reparse).reshape(-1, 3)
        i, j = entries[:, 0], entries[:, 1]
        if ((i >= 1) & (i <= m) & (j >= 1) & (j <= n)).all():
            return entries
    return reparse()


def _mm_values(blocks, lineno, path, shape=None):
    """All values of a data section in file order, and the number of the
    file's last line; ``lineno`` is the number of the section's first line.

    For a coordinate section, ``shape`` is ``(m, n)`` and the values come as
    ``(i, j, value)`` rows.
    """
    parts = [np.empty(0 if shape is None else (0, 3))]
    for block in blocks:
        text = block
        if "%" in block:
            text = "\n".join(
                line for line in block.splitlines() if not line.lstrip().startswith("%")
            )
        tokens = text.split()
        if shape is None:
            numbered = ((off, s.split()) for off, s in _data_lines(block, lineno))
            parts.append(_floats(tokens, partial(_parse_each, numbered, path)))
        else:
            reparse = partial(_coordinate_lines, block, lineno, path, *shape)
            parts.append(_coordinate_block(text, tokens, reparse, *shape))
        lineno += _line_count(block)
    return np.concatenate(parts), lineno - 1


def read_matrix_market(path):
    """Parse a Matrix Market file (array or coordinate, real, general)."""
    with open(path, "r", encoding="ascii") as fh:
        chunks = _decoded(iter(partial(fh.read, _BLOCK_CHARS), ""), path, "ASCII")
        blocks = _line_blocks(chunks)
        fmt, size_line, lineno, rest = _mm_preamble(blocks, path)
        data = itertools.chain((rest,) if rest else (), blocks)
        size = size_line.split()

        if fmt == "array":
            if len(size) != 2:
                raise ParseError(
                    f"array size line needs 'rows cols', got {size_line!r}", path, lineno
                )
            m = _parse_int(size[0], path, lineno)
            n = _parse_int(size[1], path, lineno)
            if m < 1 or n < 1:
                raise ParseError(f"dimensions must be positive, got {m} x {n}", path, lineno)
            values, last = _mm_values(data, lineno + 1, path)
            if values.size != m * n:
                raise ParseError(f"expected {m * n} entries, found {values.size}", path, last)
            return require_finite(values.reshape((m, n), order="F"), "matrix")

        if len(size) != 3:
            raise ParseError(
                f"coordinate size line needs 'rows cols nnz', got {size_line!r}", path, lineno
            )
        m = _parse_int(size[0], path, lineno)
        n = _parse_int(size[1], path, lineno)
        nnz = _parse_int(size[2], path, lineno)
        if m < 1 or n < 1:
            raise ParseError(f"dimensions must be positive, got {m} x {n}", path, lineno)
        try:
            a = np.zeros((m, n), order="F")
        except (MemoryError, ValueError):
            raise ParseError(f"a {m} x {n} matrix is too large to allocate", path, lineno) from None
        entries, last = _mm_values(data, lineno + 1, path, (m, n))
    if len(entries) != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(entries)}", path, last)
    rows = entries[:, 0].astype(np.intp) - 1
    cols = entries[:, 1].astype(np.intp) - 1
    np.add.at(a, (rows, cols), entries[:, 2])  # in file order: duplicates sum as a loop would
    return require_finite(a, "matrix")


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
    return require_finite(np.asfortranarray(values), "matrix")


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
    """Write a dense matrix in Matrix Market array format, lossless round-trip."""
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
