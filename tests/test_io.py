import io
import warnings

import numpy as np
import pytest

from gcurkit import io as gio
from gcurkit.errors import ContractViolationError, ParseError


def test_array_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 4))
    a[0, 0] = 1.0 / 3.0
    a[1, 0] = 1e-17
    a[2, 0] = -12345.678901234567
    path = tmp_path / "a.mtx"
    gio.write_matrix_market(path, a)
    back = gio.read_matrix(str(path))
    assert back.shape == a.shape
    assert np.array_equal(back, a)


def test_array_header_exact(tmp_path):
    path = tmp_path / "a.mtx"
    gio.write_matrix_market(path, np.eye(2))
    first = path.read_text().splitlines()[0]
    assert first == "%%MatrixMarket matrix array real general"


def test_array_data_is_column_major(tmp_path):
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "a.mtx"
    gio.write_matrix_market(path, a)
    values = [float(v) for v in path.read_text().splitlines()[2:]]
    assert values == [1.0, 2.0, 3.0, 4.0]


def test_coordinate_parse_and_assembly(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment line\n"
        "3 2 3\n"
        "1 1 5.5\n"
        "3 2 -1.0\n"
        "1 1 0.5\n"
    )
    a = gio.read_matrix(str(path))
    expected = np.zeros((3, 2))
    expected[0, 0] = 6.0
    expected[2, 1] = -1.0
    assert np.array_equal(a, expected)


def test_coordinate_out_of_range_names_line(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 2 1\n4 1 1.0\n"
    )
    with pytest.raises(ParseError, match=r":3:") as err:
        gio.read_matrix(str(path))
    assert err.value.line == 3


def test_malformed_token_named(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\nbogus\n")
    with pytest.raises(ParseError, match="bogus"):
        gio.read_matrix(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writer_refuses_what_the_readers_refuse(tmp_path, bad):
    # a lossless round trip cannot hold a value the readers reject
    path = tmp_path / "a.mtx"
    with pytest.raises(ContractViolationError, match="matrix contains non-finite entries"):
        gio.write_matrix_market(path, np.array([[1.0, bad]]))
    assert not path.exists()


def test_unsupported_variants_rejected(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0 0.0\n")
    with pytest.raises(ParseError, match="complex"):
        gio.read_matrix(str(path))
    path.write_text("%%MatrixMarket matrix array real symmetric\n1 1\n1.0\n")
    with pytest.raises(ParseError, match="symmetric"):
        gio.read_matrix(str(path))


def test_wrong_entry_count(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(ParseError, match="expected 4"):
        gio.read_matrix(str(path))


def test_csv_with_and_without_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    a = gio.read_matrix(str(path), csv_header=True)
    assert np.array_equal(a, [[1.0, 2.0], [3.0, 4.0]])
    path2 = tmp_path / "n.csv"
    path2.write_text("1.5,2.5\n")
    assert np.array_equal(gio.read_matrix(str(path2)), [[1.5, 2.5]])


def test_csv_ragged_row_errors(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match="expected 2"):
        gio.read_matrix(str(path))


def test_csv_bad_token_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError, match="oops") as err:
        gio.read_matrix(str(path))
    assert err.value.line == 2


def test_format_sniffing_by_content(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\n7.0\n")
    assert gio.read_matrix(str(path))[0, 0] == 7.0
    path2 = tmp_path / "data2.txt"
    path2.write_text("7.0,8.0\n")
    assert np.array_equal(gio.read_matrix(str(path2)), [[7.0, 8.0]])


def test_nonfinite_rejected(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\nnan\n")
    with pytest.raises(Exception, match="non-finite"):
        gio.read_matrix(str(path))


def test_report_json_stable():
    report = {"b": 1, "a": {"y": [1, 2], "x": 0.5}}
    assert gio.report_json(report) == gio.report_json(dict(reversed(report.items())))


def test_report_csv_rows():
    report = {
        "experiment": "demo",
        "cells": [
            {"k": 1, "stats": {"CUR": {"mean": 0.5, "std": 0.1}}},
            {"k": 2, "stats": {"CUR": {"mean": 0.4, "std": 0.2}}},
        ],
    }
    text = gio.report_csv(report)
    lines = text.strip().splitlines()
    assert lines[1].split(",")[0] == "k"
    assert len(lines) == 4


def test_plot_writers(tmp_path):
    series = [
        {"name": "one", "x": [1, 2, 3], "y": [0.1, 0.2, 0.15]},
        {"name": "two", "x": [1, 2, 3], "y": [0.3, 0.1, 0.05], "marker": True},
    ]
    svg = gio.write_plotdata(series, tmp_path / "p.svg", fmt="svg", title="demo")
    assert svg.startswith("<svg") and "polyline" in svg and "circle" in svg
    csv_text = gio.write_plotdata(series, tmp_path / "p.csv", fmt="csv")
    assert csv_text.splitlines()[0] == "series,x,y"
    assert len(csv_text.strip().splitlines()) == 7


# --- Readers and the run-wise writer against per-value references ---

def _reference_read_matrix_market(path):
    """Per-line Matrix Market reader: the reference for read_matrix_market."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", path, 1)
    header = lines[0].split()
    if len(header) != 5 or not header[0].startswith("%%MatrixMarket"):
        raise ParseError(f"not a MatrixMarket header: {lines[0]!r}", path, 1)
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", path, 1)
    if fmt not in ("array", "coordinate"):
        raise ParseError(f"unsupported format {fmt!r}", path, 1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field {field!r}", path, 1)
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}", path, 1)
    pos = 1
    while pos < len(lines) and (lines[pos].startswith("%") or not lines[pos].strip()):
        pos += 1
    if pos >= len(lines):
        raise ParseError("missing size line", path, len(lines))
    size = lines[pos].split()
    lineno = pos + 1
    body = enumerate(lines[pos + 1 :], start=lineno + 1)
    if fmt == "array":
        if len(size) != 2:
            raise ParseError(f"array size line needs 'rows cols', got {lines[pos]!r}", path, lineno)
        m = gio._parse_int(size[0], path, lineno)
        n = gio._parse_int(size[1], path, lineno)
        if m < 1 or n < 1:
            raise ParseError(f"dimensions must be positive, got {m} x {n}", path, lineno)
        values = []
        for off, line in body:
            stripped = line.strip()
            if stripped and not stripped.startswith("%"):
                values.extend(gio._parse_float(tok, path, off) for tok in stripped.split())
        if len(values) != m * n:
            raise ParseError(f"expected {m * n} entries, found {len(values)}", path, len(lines))
        a = np.array(values).reshape((m, n), order="F")
        return gio.require_finite(a, f"matrix in {path}")
    if len(size) != 3:
        raise ParseError(
            f"coordinate size line needs 'rows cols nnz', got {lines[pos]!r}", path, lineno
        )
    m, n, nnz = (gio._parse_int(tok, path, lineno) for tok in size)
    if m < 1 or n < 1:
        raise ParseError(f"dimensions must be positive, got {m} x {n}", path, lineno)
    a = np.zeros((m, n), order="F")
    seen = 0
    for off, line in body:
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ParseError(f"coordinate entry needs 'i j value', got {stripped!r}", path, off)
        i = gio._parse_int(parts[0], path, off)
        j = gio._parse_int(parts[1], path, off)
        v = gio._parse_float(parts[2], path, off)
        if not 1 <= i <= m or not 1 <= j <= n:
            raise ParseError(f"index ({i}, {j}) out of bounds for {m} x {n}", path, off)
        a[i - 1, j - 1] += v
        seen += 1
    if seen != nnz:
        raise ParseError(f"expected {nnz} entries, found {seen}", path, len(lines))
    return gio.require_finite(a, f"matrix in {path}")


def _reference_read_csv(path, header=False):
    """Per-token CSV reader: the reference for read_csv_matrix."""
    import csv

    rows, width = [], None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if header and lineno == 1:
                continue
            if not record or all(not tok.strip() for tok in record):
                continue
            vals = [gio._parse_float(tok.strip(), path, lineno) for tok in record]
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ParseError(f"row has {len(vals)} fields, expected {width}", path, lineno)
            rows.append(vals)
    if not rows:
        raise ParseError("no data rows", path, 1)
    return gio.require_finite(np.asfortranarray(np.array(rows)), f"matrix in {path}")


def _outcome(read, path, **kwargs):
    """What a reader does with a file: its exact bits, or its error."""
    try:
        a = read(path, **kwargs)
    except Exception as exc:  # the error itself is the outcome under test
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line", None))
    return ("ok", a.shape, a.tobytes(order="F"), a.flags.f_contiguous)


ARRAY = "%%MatrixMarket matrix array real general\n"
COORD = "%%MatrixMarket matrix coordinate real general\n"

MM_CASES = {
    "several_values_per_line": ARRAY + "2 3\n1 2 3\n4.5 -0.0\n6e-300\n",
    "comments_and_blank_lines": ARRAY
    + "% a comment\n\n2 2\n1.0\n% between\n\n   \n  % indented\n2.0\n3.0 4.0\n",
    "coordinate_comments_and_blanks": COORD + "%c\n3 2 3\n1 1 5.5\n\n% x\n3 2 -1.0\n 1 1 0.5 \n",
    "crlf": ARRAY.replace("\n", "\r\n") + "2 2\r\n1.0\r\n2.0\r\n\r\n3.0\r\n4.0\r\n",
    "crlf_bad_token": ARRAY.replace("\n", "\r\n") + "2 1\r\n% c\r\n1.0\r\noops\r\n",
    "coordinate_crlf": COORD.replace("\n", "\r\n") + "2 2 2\r\n1 1 1.5\r\n2 2 2.5\r\n",
    "integer_field": "%%MatrixMarket matrix array integer general\n2 2\n1\n-2\n3\n4\n",
    "integer_coordinate": "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 7\n",
    "array_claims_1e14_entries": ARRAY + "10000000 10000000\n1.0\n2.0\n",
    "too_many_entries": ARRAY + "1 1\n1.0\n2.0\n",
    "bad_token_then_count_error": ARRAY + "1 1\n1.0\nbad 2.0\n3.0\n",
    "duplicates_sum_in_file_order": COORD + "2 2 4\n1 1 1e16\n1 1 1\n1 1 -1e16\n2 2 1\n",
    "no_final_newline": ARRAY + "1 2\n1.0\n2.0",
    "coordinate_no_final_newline": COORD + "1 1 1\n1 1 2.0",
    "form_feed_splits_lines": ARRAY + "2 1\n1.0\x0c% c\x0b\n2.0\x1cbad\n",
    "coordinate_form_feed": COORD + "2 2 2\n1 1 1.0\x0c2 2 2.0\n",
    "coordinate_arity": COORD + "2 2 2\n1 1 1.0\n2 2\n",
    "coordinate_compensating_arity": COORD + "4 4 2\n1 1\n2 2 3 4\n",
    "coordinate_out_of_bounds_before_bad_value": COORD + "2 2 2\n3 1 1.0\n1 1 bad\n",
    "coordinate_bad_value_before_out_of_bounds": COORD + "2 2 2\n1 1 bad\n3 1 1.0\n",
    "coordinate_zero_index": COORD + "2 2 1\n0 1 1.0\n",
    "coordinate_signed_and_underscored_index": COORD + "2 2 2\n+1 1 1.0\n0_2 2 2.0\n",
    "coordinate_float_index": COORD + "2 2 1\n1.0 1 1.0\n",
    "coordinate_nnz_mismatch": COORD + "2 2 3\n1 1 1.0\n",
    "coordinate_nan": COORD + "2 2 1\n1 1 nan\n",
    "array_inf": ARRAY + "1 1\n-inf\n",
    "underscores_in_values": ARRAY + "1 2\n1_000.5\n2e1_0\n",
    "empty_file": "",
    "only_newline": "\n",
    "bad_banner": "%%MatrixMarket matrix array complex general\n1 1\n1.0 0.0\n",
    "missing_size_line": ARRAY + "% only comments\n\n",
    "size_line_bad": ARRAY + "2 x\n",
    "size_line_width": COORD + "2 2\n",
    "indented_comment_before_size_is_size_line": ARRAY + " % c\n1 1\n1.0\n",
    "zero_dimension": ARRAY + "0 3\n",
    "comment_only_data": ARRAY + "1 1\n% none\n",
    "rectangular_rows_of_values": ARRAY + "2 2\n1 2\n3 4\n",
    "coordinate_no_entries": COORD + "3 2 0\n",
    "coordinate_form_feed_in_entry": COORD + "2 2 1\n1 1\x0c1.0\n",
    "comment_inside_array_data": ARRAY + "2 2\n1.0\n% note\n2.0\n3.0\n4.0\n",
    "coordinate_plus_and_leading_zero_index": COORD + "2 2 2\n+1 01 1.5\n02 +2 2.5\n",
    "coordinate_index_beyond_int64": COORD + "2 2 1\n99999999999999999999 1 1.0\n",
}


@pytest.mark.parametrize("chunk_chars", [5, 17, 64, None])
@pytest.mark.parametrize("name", sorted(MM_CASES))
def test_matrix_market_reader_matches_per_line_reference(tmp_path, monkeypatch, name, chunk_chars):
    # chunk_chars: characters the reader's text files decode per read, so that
    # lines, CRLF pairs and the header/data boundary fall across read edges
    # (None keeps the default).
    if chunk_chars is not None:

        def small_reads(*args, **kwargs):
            fh = open(*args, **kwargs)
            if isinstance(fh, io.TextIOWrapper):
                fh._CHUNK_SIZE = chunk_chars
            return fh

        monkeypatch.setattr(gio, "open", small_reads, raising=False)
    path = tmp_path / "m.mtx"
    path.write_bytes(MM_CASES[name].encode("ascii"))
    expected = _outcome(_reference_read_matrix_market, str(path))
    assert _outcome(gio.read_matrix_market, str(path)) == expected


def test_plain_files_never_reach_the_line_parser(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    written = tmp_path / "w.mtx"
    gio.write_matrix_market(written, a)
    texts = {
        "written": written.read_text(),
        "array": ARRAY + "% c\n\n2 3\n1 2 3\n4 5 6\n\n",
        "coordinate": COORD + "% c\n3 2 3\n1 1 5.5\n3 2 -1.0\n1 1 0.5\n",
        "coordinate_no_entries": COORD + "3 2 0\n",
    }
    texts.update({f"{name}_crlf": text.replace("\n", "\r\n") for name, text in list(texts.items())})
    expected = {}
    for name, text in texts.items():
        path = tmp_path / f"{name}.mtx"
        path.write_bytes(text.encode("ascii"))
        expected[name] = _outcome(_reference_read_matrix_market, str(path))
        assert expected[name][0] == "ok", name

    def line_parser(fh, path):
        raise AssertionError(f"{path} reached the line parser")

    monkeypatch.setattr(gio, "_mm_parse", line_parser)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in texts:
            path = str(tmp_path / f"{name}.mtx")
            assert _outcome(gio.read_matrix, path) == expected[name], name


def test_duplicate_entries_sum_in_file_order(tmp_path):
    path = tmp_path / "d.mtx"
    path.write_text(MM_CASES["duplicates_sum_in_file_order"])
    a = gio.read_matrix(str(path))
    # ((0 + 1e16) + 1) - 1e16 is 0; any other order of the three gives 1.
    assert a[0, 0] == 0.0 and a[1, 1] == 1.0


def test_array_claiming_1e14_entries_reports_count(tmp_path):
    path = tmp_path / "big.mtx"
    path.write_text(MM_CASES["array_claims_1e14_entries"])
    with pytest.raises(ParseError, match="expected 100000000000000 entries, found 2") as err:
        gio.read_matrix(str(path))
    assert err.value.line == 4


def test_bad_token_past_first_block_names_its_line(tmp_path):
    n = 80_000  # 17-digit values: about 1.6 MB
    lines = ["0.12345678901234567"] * n
    lines[n - 3] = "1.5e"
    path = tmp_path / "big.mtx"
    path.write_text(ARRAY + f"{n} 1\n" + "\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="'1.5e'") as err:
        gio.read_matrix(str(path))
    assert err.value.line == 2 + n - 2
    assert _outcome(gio.read_matrix_market, str(path)) == _outcome(
        _reference_read_matrix_market, str(path)
    )


def test_large_array_file_round_trips_bit_identically(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((900, 150)) * np.logspace(-300, 300, 150)
    path = tmp_path / "a.mtx"
    gio.write_matrix_market(path, a)
    back = gio.read_matrix_market(str(path))
    assert back.flags.f_contiguous
    assert back.tobytes(order="F") == a.tobytes(order="F")


def test_random_files_match_reference(tmp_path):
    rng = np.random.default_rng(20240)
    pieces = ["1.5", "-2", "1e16", "0", "3", "x", "1.0", "+1", "nan", "% c", "", "  "]
    breaks = ["\n", "\n", "\n", "\r\n", "\x0c"]
    path = tmp_path / "r.mtx"
    for case in range(300):
        banner = ARRAY if case % 2 else COORD
        size = "3 2\n" if case % 2 else "3 2 4\n"
        body = ""
        for _ in range(rng.integers(0, 10)):
            width = rng.integers(0, 5)
            body += " ".join(rng.choice(pieces, width)) + rng.choice(breaks)
        path.write_bytes((banner + size + body).encode("ascii"))
        expected = _outcome(_reference_read_matrix_market, str(path))
        assert _outcome(gio.read_matrix_market, str(path)) == expected, repr(body)


CSV_CASES = {
    "plain": "1.0,2.0\n3.0,4.0\n",
    "spaces_and_blank_rows": " 1.0 , 2.0\n\n , \n3.0,\t4.0 \n",
    "bad_token_then_ragged": "1,2\n3,oops\n5\n",
    "ragged_then_bad_token": "1,2\n3\n5,oops\n",
    "bad_token_on_ragged_row": "1,2\n3,4,oops\n",
    "quoted_fields": '"1.5","2"\n"3",4\n',
    "crlf": "1,2\r\n3,4\r\n",
    "no_rows": "\n\n",
    "unicode_digits": "١٢,3\n",
    "nonfinite": "1,inf\n",
}


@pytest.mark.parametrize("block_fields", [1, 3, None])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_reader_matches_per_token_reference(tmp_path, monkeypatch, name, block_fields):
    if block_fields is not None:
        monkeypatch.setattr(gio, "_BLOCK_FIELDS", block_fields)
    path = tmp_path / "m.csv"
    path.write_bytes(CSV_CASES[name].encode("utf-8"))
    for header in (False, True):
        expected = _outcome(_reference_read_csv, str(path), header=header)
        assert _outcome(gio.read_csv_matrix, str(path), header=header) == expected


def test_undecodable_bytes_are_parse_errors(tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_bytes(ARRAY.encode() + b"1 1\n1.0\xe9\n")
    with pytest.raises(ParseError, match=r"not ASCII text \(byte 0xe9\)") as err:
        gio.read_matrix(str(mtx))
    assert err.value.path == str(mtx)
    csv_path = tmp_path / "a.csv"
    csv_path.write_bytes(b"1.0,2.0\n\xff,3\n")
    with pytest.raises(ParseError, match=r"not UTF-8 text \(byte 0xff\)") as err:
        gio.read_matrix(str(csv_path))
    assert err.value.path == str(csv_path)


@pytest.mark.parametrize("side", ["100000000", "10000000000"])
def test_oversized_coordinate_header_is_parse_error(tmp_path, side):
    path = tmp_path / "c.mtx"
    path.write_text(COORD + f"% c\n{side} {side} 1\n1 1 1.0\n")
    with pytest.raises(ParseError, match=f"{side} x {side} matrix is too large") as err:
        gio.read_matrix(str(path))
    assert err.value.line == 3


def _reference_write(a):
    m, n = a.shape
    text = gio.MM_ARRAY_HEADER + "\n" + f"{m} {n}\n"
    return (text + "".join(f"{a[i, j]:.17g}\n" for j in range(n) for i in range(m))).encode()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 4)])
@pytest.mark.parametrize("write_values", [3, None])
def test_writer_bytes_match_per_value_reference(tmp_path, monkeypatch, shape, write_values):
    if write_values is not None:
        monkeypatch.setattr(gio, "_WRITE_VALUES", write_values)
    special = [-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0, -1e-17, 12345.678901234567, 0.0]
    values = np.resize(np.array(special), shape[0] * shape[1])
    for a in (values.reshape(shape), values.reshape(shape, order="F"), -values.reshape(shape)):
        path = tmp_path / "w.mtx"
        gio.write_matrix_market(path, a)
        assert path.read_bytes() == _reference_write(a)
        assert gio.read_matrix(str(path)).tobytes(order="F") == a.tobytes(order="F")
