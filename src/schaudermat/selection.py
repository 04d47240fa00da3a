"""Spectral selection procedures.

Given a finite decreasing spectrum sample, these routines profile window
cardinalities, select level subsets satisfying the plan conditions, refine
segment grids to a bounded ratio, and test the ratio-to-one criterion. The
harmonic demo chains selection, assembly and constant computation for the
diagonal operator diag(1, 1/2, 1/3, ...).
"""

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCardinalityError
from .olevskii import (RATIO_BOUND, OlevskiiPlan, _check_alpha, haar_matrix,
                       keylemma_assemble, validate_plan, weight_exponents)
from .schauder import (
    BasisPair,
    SearchBudget,
    basis_constant,
    quasinormality_bounds,
    riesz_diagnostic,
    unconditional_constant,
)
from .textio import data_lines, read_rows


@dataclass(frozen=True)
class SpectrumSequence:
    """Strictly decreasing positive reals standing in for an operator spectrum."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d sequence")
        if not (np.all(v > 0) and np.all(v[1:] < v[:-1])):  # NaN fails both
            raise ValueError("spectrum must be strictly decreasing and positive")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return int(self.values.shape[0])


# Most values a generated spectrum (80 MB of float64) or a refined grid may hold.
MAX_SPECTRUM_LENGTH = 10 ** 7
# Data lines of a spectrum file parsed per numpy call.
_CHUNK = 2 ** 16


def _capped(n, what):
    """The length *n*, refused above MAX_SPECTRUM_LENGTH before any allocation."""
    if n > MAX_SPECTRUM_LENGTH:
        raise ValueError(f"{what} must be at most {MAX_SPECTRUM_LENGTH}, got {n}")
    return n


def harmonic_spectrum(n):
    """lambda_k = 1/k for k = 1..n."""
    return SpectrumSequence(1.0 / np.arange(1, _capped(n, "spectrum length") + 1))


def geometric_spectrum(r, n):
    """lambda_k = r^k for k = 1..n, 0 < r < 1, by Python's float power."""
    if not 0 < r < 1:
        raise ValueError("ratio must lie in (0, 1)")
    n = _capped(n, "spectrum length")
    return SpectrumSequence(np.fromiter((r ** k for k in range(1, n + 1)), float, count=n))


def parse_spectrum(text):
    """Parse "harmonic:N", "geometric:r:N" or load one value per data line from a file,
    each parsed as a matrix file's values are (textio.read_rows)."""
    kind, *fields = text.split(":")
    if text.startswith(("harmonic:", "geometric:")):
        if len(fields) != (1 if kind == "harmonic" else 2):
            raise ValueError(f"spectrum {text!r} must read harmonic:N or geometric:r:N")
        if kind == "harmonic":
            return harmonic_spectrum(int(fields[0]))
        return geometric_spectrum(float(fields[0]), int(fields[1]))
    with open(text, "r", encoding="ascii", errors="replace") as fh:
        lines = itertools.islice(data_lines(fh), MAX_SPECTRUM_LENGTH + 1)
        # a one-column matrix, read _CHUNK lines at a time so the text is never held whole
        chunks = iter(lambda: list(itertools.islice(lines, _CHUNK)), [])
        vals = np.concatenate([np.empty(0)] + [read_rows(text, c, 1)[:, 0] for c in chunks])
    _capped(vals.size, "spectrum file values read")
    return SpectrumSequence(vals)


def _window(values, top, delta):
    """Index range [a, b) of the decreasing *values* that lie in [top/delta, top]."""
    rising = values[::-1]  # an increasing view, not a copy
    n = values.shape[0]
    return (n - int(np.searchsorted(rising, top, side="right")),
            n - int(np.searchsorted(rising, top / delta, side="left")))


def cardinality_profile(spectrum, delta, ts):
    """For each t, the number of spectrum values in [t/delta, t], inclusive."""
    if not 1 < delta < math.inf:  # NaN fails too
        raise ValueError(f"delta must be finite and exceed 1, got {delta}")
    counts = []
    for t in ts:
        if not 0 < t < math.inf:  # NaN fails too
            raise ValueError(f"profile points must be positive and finite, got {t}")
        a, b = _window(spectrum.values, t, delta)
        counts.append(b - a)
    return counts


@dataclass(frozen=True)
class SelectionResult:
    plan: OlevskiiPlan
    t0_per_level: tuple
    cardinality_per_level: tuple


def select_subsets(spectrum, alpha, delta, levels):
    """Inductively select disjoint level subsets from nested spectral windows.

    For each level k a threshold t0 is searched, descending through the
    spectrum values after the last index already used, such that every window
    [t0 alpha^j / delta, t0 alpha^j], j = 1..k, holds at least 2^k values.
    Each window lies below t0, so no used value can fall in one. Block
    position p (see weight_exponents) then takes the largest value of its
    window not yet taken at this level. Bounds are c_k = 1/t0, d_k = delta/t0.
    A short window skips, by bisection, every later t0 whose window must be short.
    As d_k/c_k = delta, a delta outside (1, RATIO_BOUND] is refused before the scan.
    """
    _check_alpha(alpha)
    if not 1 < delta <= RATIO_BOUND:  # NaN fails too
        raise ValueError(f"delta must lie in (1, {RATIO_BOUND:g}], got {delta}")
    v = spectrum.values
    subsets, t0s, cards = [], [], []

    for k in range(1, levels + 1):
        need = 2 ** k
        i = max(subsets[-1]) if subsets else 0  # subsets are 1-based: the next index
        failure = None  # the first candidate's first short window
        while i < v.size:
            t0 = float(v[i])
            ranges = []
            for j in range(1, k + 1):
                top = t0 * alpha ** j
                a, b = _window(v, top, delta)
                ranges.append((a, b))
                if b - a < need:
                    failure = failure or (j, (top / delta, top), b - a)
                    break
            else:
                break
            # A later t keeps window j's top index at a or after, so it fails too
            # while its window bottom t alpha^j / delta exceeds v[a + need - 1].
            floor = v[a + need - 1] if a + need <= v.size else -math.inf
            i = bisect.bisect_left(range(v.size), True, i + 1,
                                   key=lambda m: v[m] * alpha ** j / delta <= floor)
        else:
            j, window, avail = failure or (1, (0.0, 0.0), 0)
            raise InsufficientCardinalityError(
                level=k, exponent=j, window=window, needed=need, available=avail
            )

        nxt = [a for a, _ in ranges]  # the next index to try in window j is nxt[j - 1]
        subset, taken = [], set()
        for j in weight_exponents(k):
            while nxt[j - 1] in taken:
                nxt[j - 1] += 1
            taken.add(nxt[j - 1])
            subset.append(nxt[j - 1] + 1)
        subsets.append(subset)
        t0s.append(t0)
        cards.append(tuple(b - a for a, b in ranges))

    plan = OlevskiiPlan(levels=levels, alpha=alpha, subsets=subsets,
                        c_bounds=[(1.0 / t0, delta / t0) for t0 in t0s])
    report = validate_plan(spectrum, plan)
    if not report.ok:
        raise AssertionError("selected plan failed validation:\n" + "\n".join(report.violations))
    return SelectionResult(
        plan=plan, t0_per_level=tuple(t0s), cardinality_per_level=tuple(cards)
    )


def segment_cut(mu, max_ratio):
    """Insert geometric points so every consecutive grid ratio is <= max_ratio.

    Each segment [mu_{n+1}, mu_n] is split into the minimal number
    ceil(log(mu_n/mu_{n+1}) / log(max_ratio)) of equal-ratio subsegments;
    input points are preserved exactly. A grid of more than
    MAX_SPECTRUM_LENGTH points is refused before any point is made.
    """
    if not 1 < max_ratio < math.inf:  # NaN fails too
        raise ValueError(f"ratio bound must be finite and exceed 1, got {max_ratio}")
    pts = [float(x) for x in mu]
    segments = list(zip(pts, pts[1:]))
    if not pts or not all(0 < x < math.inf for x in pts) or any(
            not 1 < a / b < math.inf for a, b in segments):
        raise ValueError("grid must be strictly decreasing and positive, with finite "
                         "values and ratios")
    pieces = [max(1, math.ceil(math.log(a / b) / math.log(max_ratio) - 1e-12))
              for a, b in segments]
    _capped(1 + sum(pieces), "refined grid length")
    out = [pts[0]]
    for (a, b), p in zip(segments, pieces):
        out.extend(a * (b / a) ** (i / p) for i in range(1, p))
        out.append(b)
    return out


@dataclass(frozen=True)
class RatioLimitReport:
    passes: bool
    max_ratio: float
    trend_ok: bool
    tail_ratios: tuple


# ratio_limit_check passes only if every tail ratio is at most 1 + RATIO_TOLERANCE.
RATIO_TOLERANCE = 0.05


def ratio_limit_check(spectrum, tail_length):
    """Test whether consecutive ratios approach 1 over the final tail.

    Passes when the maximal tail ratio is <= 1 + RATIO_TOLERANCE and the last
    quarter's mean ratio does not exceed the first quarter's. The tail holds
    2..len(spectrum) - 1 values, so that it has at least one ratio.
    """
    v = spectrum.values
    if not 2 <= tail_length < v.shape[0]:
        raise ValueError(f"tail length must lie in 2..{v.shape[0] - 1}, got {tail_length}")
    tail = v[-tail_length:]
    with np.errstate(over="ignore"):  # a ratio past the float range is +inf
        ratios = tail[:-1] / tail[1:]
    q = max(1, ratios.shape[0] // 4)
    trend_ok = float(np.mean(ratios[-q:])) <= float(np.mean(ratios[:q]))
    max_r = float(np.max(ratios))
    return RatioLimitReport(
        passes=max_r <= 1.0 + RATIO_TOLERANCE and trend_ok,
        tail_ratios=tuple(float(r) for r in ratios),
        max_ratio=max_r,
        trend_ok=trend_ok,
    )


@dataclass(frozen=True)
class HarmonicDemoReport:
    selection: SelectionResult
    unitary_defect: float
    basis_by_level: tuple
    unconditional_by_level: tuple
    quasinorm_min: float
    quasinorm_max: float
    riesz: object


# Leading sections of the harmonic diagonal checked by the demo's Riesz diagnostic.
RIESZ_SECTIONS = (64, 1024, 4096)


def harmonic_demo(levels, alpha, delta, spectrum_length=10000, budget=SearchBudget()):
    """Certify the conditional-basis construction on the harmonic diagonal.

    Selects subsets from lambda_n = 1/n and assembles the conditional model.
    The constants of level l are those of the model's leading m x m section
    pair, m the sum of the model's level sizes 1..l. The Riesz diagnostic runs
    on the raw harmonic diagonal, passed as a vector.
    """
    spectrum = harmonic_spectrum(spectrum_length)
    selection = select_subsets(spectrum, alpha, delta, levels)
    model = keylemma_assemble(spectrum, selection.plan)

    # U^T U - I is the direct sum of the A_k A_k^T - I and a zero identity part.
    defect = max(float(np.max(np.abs(a @ a.T - np.eye(a.shape[0]))))
                 for a in map(haar_matrix, range(1, levels + 1)))

    basis_by_level, uncond_by_level = [], []
    for m in np.cumsum(model.level_sizes):
        pair = BasisPair(f=model.basis_matrix[:m, :m], gstar=model.inverse_matrix[:m, :m])
        basis_by_level.append(basis_constant(pair))
        uncond_by_level.append(unconditional_constant(pair, budget=budget))

    qmin, qmax = quasinormality_bounds(model.basis_matrix)
    riesz = riesz_diagnostic(harmonic_spectrum(RIESZ_SECTIONS[-1]).values, RIESZ_SECTIONS)

    return HarmonicDemoReport(selection=selection, unitary_defect=defect,
                              basis_by_level=tuple(basis_by_level),
                              unconditional_by_level=tuple(uncond_by_level),
                              quasinorm_min=qmin, quasinorm_max=qmax, riesz=riesz)
