import tracemalloc
import warnings

import numpy as np
import pytest

from schaudermat import load_matrix, olevskii_block, save_matrix


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
    # The per-value writer and reader that numpy's text writer and reader replace
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-320, 300, size=(6, 5))
    m[0, :3] = [0.0, -0.0, 7.0]
    path = tmp_path / "m.mtx"
    save_matrix(path, m)
    text = "6 5\n" + "".join(" ".join(format(x, ".17g") for x in row) + "\n" for row in m)
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
