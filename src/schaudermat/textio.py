"""Shared matrix text format.

First non-comment line: "rows cols" (base-10 integers). Then `rows` lines of
`cols` whitespace-separated decimal floats, parsed by numpy's text reader.
Blank lines and lines starting with '#' are skipped. Values are written with
17 significant digits so a save/load round trip is bit-exact.
"""

import numpy as np

from .kernel import as_matrix


def save_matrix(path, m):
    a = as_matrix(m)
    # An open file, so that numpy never gzips a path ending in .gz
    with open(path, "w", encoding="ascii") as fh:
        np.savetxt(fh, a, fmt="%.17g", header=f"{a.shape[0]} {a.shape[1]}", comments="")


def _parse(lines, cols):
    """numpy's reading of *lines* if it is a len(lines) x cols matrix, else None."""
    try:
        a = np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError:
        return None
    return a if a.shape == (len(lines), cols) else None


def load_matrix(path):
    rows = cols = None
    data = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if rows is None:
                parts = line.split()
                if len(parts) != 2:
                    raise IOError(f"{path}: line {lineno}: expected 'rows cols'")
                try:
                    rows, cols = int(parts[0]), int(parts[1])
                except ValueError:
                    raise IOError(f"{path}: line {lineno}: bad dimensions {line!r}")
                if rows <= 0 or cols <= 0:
                    raise IOError(f"{path}: line {lineno}: dimensions must be positive")
                continue
            data.append((lineno, line))
            if len(data) > rows:
                break
    if rows is None:
        raise IOError(f"{path}: no header line found")
    if len(data) == rows and (a := _parse([line for _, line in data], cols)) is not None:
        return a
    # Only a malformed file is parsed again, line by line, to name its first bad line.
    for lineno, line in data[:rows]:
        if _parse([line], cols) is None:
            got = len(line.split())
            problem = "unparsable value" if got == cols else f"expected {cols} values, got {got}"
            raise IOError(f"{path}: line {lineno}: {problem}")
    if len(data) > rows:
        raise IOError(f"{path}: line {data[rows][0]}: extra data row (declared {rows} rows)")
    raise IOError(f"{path}: declared {rows} rows but found {len(data)}")
