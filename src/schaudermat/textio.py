"""Shared matrix text format.

First non-comment line: "rows cols" (base-10 integers). Then `rows` lines of
`cols` whitespace-separated decimal floats, parsed by numpy's text reader
(read_rows). Blank lines and lines starting with '#' are skipped (data_lines).
Spectrum files, one value per line, are read by the same two rules. Values are
written with 17 significant digits so a save/load round trip is bit-exact.
"""

import itertools

import numpy as np

from .kernel import as_matrix


# Cells per chunk of rows that save_matrix formats at once.
_SAVE_CELLS = 2 ** 16


def save_matrix(path, m):
    """Write *m* _SAVE_CELLS cells of rows at a time. %.17g spells a cell 0 unless its bits
    are nonzero (a nonzero or -0.0), so a chunk's template is rows of "0 ... 0" with a
    placeholder at those cells. When a chunk's values repeat, each distinct one, keyed by
    its bits so that -0.0 stays apart, is formatted once."""
    a = as_matrix(m)
    step = max(1, _SAVE_CELLS // a.shape[1])
    zero_row = np.frombuffer(b"0 " * (a.shape[1] - 1) + b"0\n", np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % a.shape)
        for start in range(0, a.shape[0], step):
            bits = a[start:start + step].view(np.uint64)
            t = np.tile(zero_row, (len(bits), 1))
            t[:, ::2][cells := bits != 0] = ord("x")
            keys, at = np.unique(values := bits[cells], return_inverse=True)
            if 2 * keys.size > values.size:  # mostly distinct: each cell formatted in place
                fmt, args = b"%.17g", values.view(float).tolist()
            else:
                tokens = np.array([b"%.17g" % x for x in keys.view(float).tolist()], object)
                fmt, args = b"%s", tokens[at].tolist()
            fh.write(t.tobytes().replace(b"x", fmt) % tuple(args))


def _parse(lines, cols):
    """numpy's reading of *lines* if it is a len(lines) x cols matrix, else None."""
    try:
        a = np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError:
        return None
    return a if a.shape == (len(lines), cols) else None


def data_lines(fh):
    """(line number, stripped text) of each line of *fh* that is neither blank nor a '#' comment."""
    for lineno, raw in enumerate(fh, start=1):
        if (line := raw.strip()) and not line.startswith("#"):
            yield lineno, line


def read_rows(path, data, cols):
    """numpy's reading of the nonempty list *data* of (line number, text) pairs of file
    *path* as a len(data) x cols matrix; a malformed list names its first bad line."""
    if (a := _parse([line for _, line in data], cols)) is not None:
        return a
    # Only a malformed list is parsed again, line by line, to name its first bad line.
    for lineno, line in data:
        if _parse([line], cols) is None:
            got = len(line.split())
            problem = "unparsable value" if got == cols else f"expected {cols} values, got {got}"
            raise IOError(f"{path}: line {lineno}: {problem}")


def load_matrix(path):
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = data_lines(fh)
        lineno, line = next(lines, (None, None))
        if line is None:
            raise IOError(f"{path}: no header line found")
        if len(line.split()) != 2:
            raise IOError(f"{path}: line {lineno}: expected 'rows cols'")
        try:
            rows, cols = map(int, line.split())
        except ValueError:
            raise IOError(f"{path}: line {lineno}: bad dimensions {line!r}")
        if rows <= 0 or cols <= 0:
            raise IOError(f"{path}: line {lineno}: dimensions must be positive")
        data = list(itertools.islice(lines, rows + 1))
    a = read_rows(path, data[:rows], cols) if data else None
    if len(data) > rows:
        raise IOError(f"{path}: line {data[rows][0]}: extra data row (declared {rows} rows)")
    if len(data) < rows:
        raise IOError(f"{path}: declared {rows} rows but found {len(data)}")
    return a
