"""Spectral selection procedures.

Given a finite decreasing spectrum sample, these routines profile window
cardinalities, select level subsets satisfying the plan conditions, refine
segment grids to a bounded ratio, and test the ratio-to-one criterion. The
harmonic demo chains selection, assembly and constant computation for the
diagonal operator diag(1, 1/2, 1/3, ...).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCardinalityError
from .olevskii import OlevskiiPlan, keylemma_assemble, validate_plan
from .schauder import (
    BasisPair,
    SearchBudget,
    basis_constant,
    quasinormality_bounds,
    riesz_diagnostic,
    unconditional_constant,
)


@dataclass(frozen=True)
class SpectrumSequence:
    """Strictly decreasing positive reals standing in for an operator spectrum."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d sequence")
        if np.any(v <= 0) or np.any(np.diff(v) >= 0):
            raise ValueError("spectrum must be strictly decreasing and positive")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return int(self.values.shape[0])


def harmonic_spectrum(n):
    """lambda_k = 1/k for k = 1..n."""
    return SpectrumSequence(1.0 / np.arange(1, n + 1))


def geometric_spectrum(r, n):
    """lambda_k = r^k for k = 1..n, 0 < r < 1."""
    if not 0 < r < 1:
        raise ValueError("ratio must lie in (0, 1)")
    return SpectrumSequence(r ** np.arange(1, n + 1))


def parse_spectrum(text):
    """Parse "harmonic:N", "geometric:r:N" or load one value per line from a file."""
    if text.startswith("harmonic:"):
        return harmonic_spectrum(int(text.split(":")[1]))
    if text.startswith("geometric:"):
        _, r, n = text.split(":")
        return geometric_spectrum(float(r), int(n))
    with open(text, "r", encoding="ascii") as fh:
        vals = [float(line) for line in fh if line.strip() and not line.startswith("#")]
    return SpectrumSequence(np.array(vals))


def cardinality_profile(spectrum, delta, ts):
    """For each t, the number of spectrum values in [t/delta, t], inclusive."""
    if delta <= 1:
        raise ValueError(f"delta must exceed 1, got {delta}")
    v = spectrum.values
    counts = []
    for t in ts:
        if t <= 0:
            raise ValueError("profile points must be positive")
        counts.append(int(np.count_nonzero((v >= t / delta) & (v <= t))))
    return counts


@dataclass(frozen=True)
class SelectionResult:
    plan: OlevskiiPlan
    t0_per_level: tuple
    cardinality_per_level: tuple

    def to_json(self):
        return {
            "plan": self.plan.to_json(),
            "t0PerLevel": list(self.t0_per_level),
            "cardinalityPerLevel": [list(c) for c in self.cardinality_per_level],
        }


def select_subsets(spectrum, alpha, delta, levels):
    """Inductively select disjoint level subsets from nested spectral windows.

    For each level k a threshold t0 is searched (descending through spectrum
    values below everything already used) such that every window
    [t0 alpha^j / delta, t0 alpha^j], j = 1..k, still holds at least 2^k
    unused values. Draws go window k first (two values), then j = k-1 down
    to 1 (2^(k-j) values each), always taking the largest available values.
    Bounds are c_k = 1/t0, d_k = delta/t0.
    """
    if delta <= 1:
        raise ValueError(f"delta must exceed 1, got {delta}")
    v = spectrum.values
    used = np.zeros(v.shape[0], dtype=bool)
    subsets, c_bounds, t0s, cards = [], [], [], []

    for k in range(1, levels + 1):
        need = 2 ** k
        floor = float(np.min(v[used])) if used.any() else math.inf
        candidates = np.flatnonzero(v < floor)
        chosen_t0 = None
        first_failure = None
        for ci in candidates:
            t0 = v[ci]
            counts = []
            ok = True
            for j in range(1, k + 1):
                lo, hi = t0 * alpha ** j / delta, t0 * alpha ** j
                avail = int(np.count_nonzero((v >= lo) & (v <= hi) & ~used))
                counts.append(avail)
                if avail < need:
                    if first_failure is None:
                        first_failure = (j, (lo, hi), avail)
                    ok = False
                    break
            if ok:
                chosen_t0 = float(t0)
                cards.append(tuple(counts))
                break
        if chosen_t0 is None:
            if first_failure is None:
                first_failure = (1, (0.0, 0.0), 0)
            j, window, avail = first_failure
            raise InsufficientCardinalityError(
                level=k, exponent=j, window=window, needed=need, available=avail
            )

        # Draw in block-position order: exponent k twice, then j = k-1..1.
        subset = []
        groups = [(k, 2)] + [(j, 2 ** (k - j)) for j in range(k - 1, 0, -1)]
        for j, count in groups:
            lo, hi = chosen_t0 * alpha ** j / delta, chosen_t0 * alpha ** j
            avail = np.flatnonzero((v >= lo) & (v <= hi) & ~used)
            picks = avail[:count]  # values are decreasing: largest first
            used[picks] = True
            subset.extend(int(i + 1) for i in picks)
        subsets.append(tuple(subset))
        c_bounds.append((1.0 / chosen_t0, delta / chosen_t0))
        t0s.append(chosen_t0)

    plan = OlevskiiPlan(
        levels=levels,
        alpha=alpha,
        subsets=tuple(subsets),
        c_bounds=tuple(c_bounds),
        leftovers=tuple(() for _ in subsets),
    )
    report = validate_plan(spectrum, plan, ratio_bound=max(delta, 1.0) + 1e-9)
    if not report.ok:
        raise AssertionError("selected plan failed validation:\n" + "\n".join(report.violations))
    return SelectionResult(
        plan=plan, t0_per_level=tuple(t0s), cardinality_per_level=tuple(cards)
    )


def segment_cut(mu, max_ratio):
    """Insert geometric points so every consecutive grid ratio is <= max_ratio.

    Each segment [mu_{n+1}, mu_n] is split into the minimal number
    ceil(log(mu_n/mu_{n+1}) / log(max_ratio)) of equal-ratio subsegments;
    input points are preserved exactly.
    """
    if max_ratio <= 1:
        raise ValueError(f"ratio bound must exceed 1, got {max_ratio}")
    pts = [float(x) for x in mu]
    if not pts or any(x <= 0 for x in pts):
        raise ValueError("grid must be strictly decreasing and positive")
    if any(b >= a for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be strictly decreasing and positive")
    out = [pts[0]]
    for a, b in zip(pts, pts[1:]):
        ratio = a / b
        pieces = max(1, math.ceil(math.log(ratio) / math.log(max_ratio) - 1e-12))
        for i in range(1, pieces):
            out.append(a * (b / a) ** (i / pieces))
        out.append(b)
    return out


@dataclass(frozen=True)
class RatioLimitReport:
    passes: bool
    tail_ratios: tuple
    max_ratio: float
    trend_ok: bool

    def to_json(self):
        return {
            "passes": self.passes,
            "maxRatio": self.max_ratio,
            "trendOk": self.trend_ok,
            "tailRatios": list(self.tail_ratios),
        }


def ratio_limit_check(spectrum, tail_length, tolerance=0.05):
    """Test whether consecutive ratios approach 1 over the final tail.

    Passes when the maximal tail ratio is <= 1 + tolerance and the last
    quarter's mean ratio does not exceed the first quarter's.
    """
    v = spectrum.values
    if v.shape[0] <= tail_length:
        raise ValueError("spectrum must be longer than the tail")
    tail = v[-tail_length:]
    ratios = tail[:-1] / tail[1:]
    q = max(1, ratios.shape[0] // 4)
    trend_ok = float(np.mean(ratios[-q:])) <= float(np.mean(ratios[:q]))
    max_r = float(np.max(ratios))
    return RatioLimitReport(
        passes=max_r <= 1.0 + tolerance and trend_ok,
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

    def to_json(self):
        return {
            "selection": self.selection.to_json(),
            "unitaryDefect": self.unitary_defect,
            "basisByLevel": [c.to_json() for c in self.basis_by_level],
            "unconditionalByLevel": [c.to_json() for c in self.unconditional_by_level],
            "quasinormMin": self.quasinorm_min,
            "quasinormMax": self.quasinorm_max,
            "riesz": self.riesz.to_json(),
        }


# Leading sections of the harmonic diagonal checked by the demo's Riesz diagnostic.
RIESZ_SECTIONS = (64, 1024, 4096)


def harmonic_demo(levels, alpha, delta, spectrum_length=10000, budget=SearchBudget()):
    """Certify the conditional-basis construction on the harmonic diagonal.

    Selects subsets from lambda_n = 1/n and assembles the conditional model.
    The constants of level l are those of the model's leading m x m section
    pair, m = 2^(l+1) - 2 (levels 1..l). The Riesz diagnostic runs on the raw
    harmonic diagonal, passed as a vector.
    """
    spectrum = harmonic_spectrum(spectrum_length)
    selection = select_subsets(spectrum, alpha, delta, levels)
    model = keylemma_assemble(spectrum, selection.plan)

    u = model.block_unitary
    defect = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))

    basis_by_level, uncond_by_level = [], []
    for ell in range(1, levels + 1):
        m = 2 ** (ell + 1) - 2
        pair = BasisPair(f=model.basis_matrix[:m, :m], gstar=model.inverse_matrix[:m, :m])
        basis_by_level.append(basis_constant(pair))
        uncond_by_level.append(unconditional_constant(pair, budget=budget))

    qmin, qmax = quasinormality_bounds(model.basis_matrix)
    riesz = riesz_diagnostic(1.0 / np.arange(1, RIESZ_SECTIONS[-1] + 1), RIESZ_SECTIONS)

    return HarmonicDemoReport(
        selection=selection,
        unitary_defect=defect,
        basis_by_level=tuple(basis_by_level),
        unconditional_by_level=tuple(uncond_by_level),
        quasinorm_min=qmin,
        quasinorm_max=qmax,
        riesz=riesz,
    )
