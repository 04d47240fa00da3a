import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from schaudermat import load_matrix, olevskii_block, parse_spectrum, save_matrix, textio
from schaudermat.cli import main


def reference_text(m):
    """The matrix file of *m* written one format(x, ".17g") at a time."""
    return f"{m.shape[0]} {m.shape[1]}\n" + "".join(
        " ".join(format(x, ".17g") for x in row) + "\n" for row in m.tolist())


def test_roundtrip_identity(tmp_path):
    path = tmp_path / "id3.mtx"
    save_matrix(path, np.eye(3))
    np.testing.assert_array_equal(load_matrix(path), np.eye(3))


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 4)) * np.pi
    path = tmp_path / "m.mtx"
    save_matrix(path, m)
    loaded = load_matrix(path)
    assert np.array_equal(loaded, m)


def test_comments_ignored(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("# header comment\n2 2\n# interior comment\n1 0\n0 1\n")
    np.testing.assert_array_equal(load_matrix(path), np.eye(2))


def test_extra_row_reports_line(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("2 2\n1 0\n0 1\n5 5\n")
    with pytest.raises(IOError, match="line 4"):
        load_matrix(path)


def test_wrong_column_count(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("2 2\n1 0 3\n0 1\n")
    with pytest.raises(IOError, match="line 2"):
        load_matrix(path)


def test_missing_rows(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("3 2\n1 0\n0 1\n")
    with pytest.raises(IOError, match="declared 3 rows"):
        load_matrix(path)


EDGE = np.array([
    [-0.0, 5e-324, 1.7976931348623157e308],
    [0.1, 1.0 / 3.0, 3.0],
    [-2.0, 1e16, 1e17],
])


def test_golden_bytes(tmp_path):
    path = tmp_path / "edge.mtx"
    save_matrix(path, EDGE)
    assert path.read_bytes() == (
        b"3 3\n"
        b"-0 4.9406564584124654e-324 1.7976931348623157e+308\n"
        b"0.10000000000000001 0.33333333333333331 3\n"
        b"-2 10000000000000000 1e+17\n"
    )


def test_roundtrip_keeps_signed_zero_and_subnormals(tmp_path):
    path = tmp_path / "edge.mtx"
    save_matrix(path, EDGE)
    loaded = load_matrix(path)
    assert loaded.dtype == np.float64 and loaded.shape == EDGE.shape
    assert loaded.tobytes() == EDGE.tobytes()
    assert np.signbit(loaded[0, 0]) and loaded[0, 1] == 5e-324


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1)])
def test_roundtrip_single_row_or_column(tmp_path, shape):
    m = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 7.0
    path = tmp_path / "v.mtx"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)


def test_matches_per_value_reference(tmp_path):
    # The per-value writer and reader that save_matrix and numpy's text reader replace
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-320, 300, size=(6, 5))
    m[0, :3] = [0.0, -0.0, 7.0]
    path = tmp_path / "m.mtx"
    save_matrix(path, m)
    text = reference_text(m)
    assert path.read_text(encoding="ascii") == text
    reference = np.array([[float(x) for x in line.split()] for line in text.splitlines()[1:]])
    assert load_matrix(path).tobytes() == reference.tobytes() == m.tobytes()


def test_gz_suffix_writes_plain_text(tmp_path):
    path = tmp_path / "m.mtx.gz"
    save_matrix(path, np.eye(2))
    assert path.read_bytes() == b"2 2\n1 0\n0 1\n"
    np.testing.assert_array_equal(load_matrix(path), np.eye(2))


def test_blank_and_comment_lines_tabs_and_crlf(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_bytes(b"# head\r\n\r\n2 3\r\n1\t0  2\r\n   \r\n# between\r\n\t0 1\t-3 \r\n\r\n")
    np.testing.assert_array_equal(load_matrix(path), [[1.0, 0.0, 2.0], [0.0, 1.0, -3.0]])


def test_no_data_rows_reports_count_without_warning(tmp_path):
    path = tmp_path / "empty.mtx"
    path.write_text("2 2\n# no rows\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IOError, match="declared 2 rows but found 0"):
            load_matrix(path)
    assert caught == []


@pytest.mark.parametrize("text, line", [
    ("2 2\n1 0\n0 x\n", 3),
    ("2 2\n1 1_0\n0 1\n", 2),
    ("2 2\n1 0x1p3\n0 1\n", 2),
])
def test_unparsable_value_reports_line(tmp_path, text, line):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(IOError, match=f"line {line}: unparsable value"):
        load_matrix(path)


def test_trailing_comment_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("2 2\n1 0 # note\n0 1\n")
    with pytest.raises(IOError, match="line 2: expected 2 values, got 4"):
        load_matrix(path)


@pytest.mark.parametrize("body, values", [
    (b"\n2\n\n\n0.5\n0.25\n\n", [2.0, 0.5, 0.25]),
    (b"\t2\r\n0.5\t\r\n  \t\r\n 0.25\r\n", [2.0, 0.5, 0.25]),
    (b"  # values\n2\n\t# tab\n0.5\n   #\n0.25\n# end", [2.0, 0.5, 0.25]),
    (b"2\n0.5 # half\n0.25\n", "line {}: expected 1 values, got 3"),
    (b"2\n1_0\n0.25\n", "line {}: unparsable value"),
    (b"2\n0x1p-1\n0.25\n", "line {}: unparsable value"),
    (b"2\n# caf\xc3\xa9\n0.5\n0.25\n", [2.0, 0.5, 0.25]),
    (b"2\n0.5\xc3\xa9\n0.25\n", "line {}: unparsable value"),
], ids=["blank", "tab-crlf", "indented-comments", "trailing-comment", "underscore", "hex-float",
        "non-ascii-comment", "non-ascii-value"])
def test_matrix_and_spectrum_files_share_the_data_line_rule(tmp_path, body, values):
    # The body as a one-column matrix under its header and as a spectrum file: both
    # readers skip the same lines, read the same values and refuse the same lines. A
    # byte outside ASCII reads as U+FFFD, never as a decoding error that names no file.
    matrix, spectrum = tmp_path / "m.mtx", tmp_path / "s.txt"
    matrix.write_bytes(b"# column\n3 1\n" + body)
    spectrum.write_bytes(body)
    if isinstance(values, str):  # the message, with the line number in each file
        with pytest.raises(IOError, match=f"m.mtx: {values.format(4)}"):
            load_matrix(matrix)
        with pytest.raises(IOError, match=f"s.txt: {values.format(2)}"):
            parse_spectrum(str(spectrum))
    else:
        assert load_matrix(matrix)[:, 0].tolist() == values
        assert parse_spectrum(str(spectrum)).values.tolist() == values


def test_same_wrong_column_count_on_every_row(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("2 3\n1 0\n0 1\n")
    with pytest.raises(IOError, match="line 2: expected 3 values, got 2"):
        load_matrix(path)


@pytest.mark.parametrize("text, message", [
    ("2 2\n1 0 3\n0 1\n4 4\n", "line 2: expected 2 values, got 3"),
    ("3 2\n1 0\nx 1\n", "line 3: unparsable value"),
])
def test_first_bad_line_reported_before_row_count(tmp_path, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(IOError, match=message):
        load_matrix(path)


def test_load_traced_peak_memory(tmp_path):
    # The k = 10 block F holds 8 MiB of values; parsing it value by value
    # into Python floats peaked at 40.7 MiB.
    path = tmp_path / "f.mtx"
    f = olevskii_block(10, 0.8).f
    save_matrix(path, f)
    tracemalloc.start()
    try:
        loaded = load_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded, f)
    assert peak / 2 ** 20 <= 16.0


@pytest.mark.parametrize("density", [0.0, 0.01, 0.5, 1.0])
def test_same_text_as_per_value_reference_at_any_density(tmp_path, density):
    rng = np.random.default_rng(29)
    m = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-300, 300, size=(40, 30))
    m[rng.random(m.shape) >= density] = 0.0
    m[7], m[:, 11] = 0.0, 0.0  # an all-zero row and column
    m[0, 0] = m[0, -1] = m[9, 0] = m[-1, -1] = -0.0  # at the start and end of rows
    m[1, 0], m[1, 5], m[2, -1] = 5e-324, -2.5e-310, 2.2250738585072009e-308  # subnormals
    path = tmp_path / "m.mtx"
    for part in (m, m[:1, :1], m[:1], m[:, :1], m[7:8], m[:, 11:12]):
        save_matrix(path, part)
        assert path.read_bytes() == reference_text(part).encode("ascii")
        assert load_matrix(path).tobytes() == np.ascontiguousarray(part).tobytes()


def test_block_files_keep_their_bytes(tmp_path, capsys):
    # SHA-256 of the k = 10 files as written by np.savetxt at %.17g.
    f, g = tmp_path / "f.mtx", tmp_path / "g.mtx"
    assert main(["block", "--k", "10", "--alpha", "0.8", "--out-f", str(f),
                 "--out-gstar", str(g)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(f.read_bytes()).hexdigest() == (
        "6d3570acf03ca2d8462b1fc91c0c30821cae2f47896910def6d2734d3e071461")
    assert hashlib.sha256(g.read_bytes()).hexdigest() == (
        "6ef50e5fedb5fcf481d352ad74d33e100dc5cf4cfdb666fa771b3d226f10b1ee")


def test_save_traced_peak_memory(tmp_path):
    # The k = 10 block F: np.savetxt peaked at 1.0 MiB, this writer at 2.0 MiB
    # (its mask of formatted cells); a list of a string per cell takes 8 MiB.
    f = olevskii_block(10, 0.8).f
    tracemalloc.start()
    try:
        save_matrix(tmp_path / "f.mtx", f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= 4.0


def assert_written_as_reference(path, m):
    save_matrix(path, m)
    assert path.read_bytes() == reference_text(m).encode("ascii")
    assert load_matrix(path).tobytes() == np.ascontiguousarray(m).tobytes()


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
def test_row_counts_around_a_chunk_boundary(tmp_path, extra):
    # 64 columns: a chunk holds _CHUNK_CELLS // 64 rows, so the last chunk is one row
    # short of full, full, or a single row.
    rows = textio._CHUNK_CELLS // 64 + extra
    rng = np.random.default_rng(31)
    m = np.round(rng.standard_normal((rows, 64)), 1)  # few distinct values
    m[rng.random(m.shape) < 0.9] = 0.0
    m[-1, -1], m[-1, 0], m[0, -1] = -0.0, 1.0 / 3.0, 5e-324
    assert_written_as_reference(tmp_path / "m.mtx", m)
    assert_written_as_reference(tmp_path / "m.mtx", rng.standard_normal((rows, 64)))


@pytest.mark.parametrize("rows", [1, 3])
def test_rows_wider_than_a_chunk(tmp_path, rows):
    rng = np.random.default_rng(37)
    m = rng.standard_normal((rows, textio._CHUNK_CELLS + 5))
    m[:, ::3] = 0.0
    m[:, 1::7] = -0.0
    m[0, -1] = 2.5  # repeated values and distinct ones, up to the last cell
    m[:, 2::5] = 2.5
    assert_written_as_reference(tmp_path / "m.mtx", m)


def test_repeated_values_beside_signed_zero_and_subnormals(tmp_path):
    # Each distinct value of a chunk is formatted once, keyed by its bits: -0.0 is
    # written -0, and the smallest and largest subnormals and the smallest normal each
    # keep their own 17 digits.
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     -2.2250738585072009e-308, 2.2250738585072014e-308, 0.1, -7.0, 1e300])
    rng = np.random.default_rng(41)
    m = pool[rng.integers(0, pool.size, size=(700, 150))]
    assert len(np.unique(m.view(np.uint64))) == pool.size
    assert_written_as_reference(tmp_path / "m.mtx", m)
    assert_written_as_reference(tmp_path / "t.mtx", m.T)  # F-ordered rows
