"""Output checks for the schaudermat benchmark, independent of the package.

Every reported constant is recomputed with numpy from its 1-based witness.
A check returns a list of problems; an empty list means the report passed.
"""

import copy

import numpy as np

# A recomputed witness norm and the reported value must agree this closely.
# The benchmark forms the same F P_D G* as the program, so only rounding of
# the order of 1e-15 separates them; 1e-11 still catches a value changed in
# its 10th significant digit.
REATTAIN_RTOL = 1e-11
# Tolerance for comparing a constant of a rotated section with the constant
# of the unrotated block pair (the rotation adds rounding of order n * eps).
REFERENCE_RTOL = 1e-9
EXACT_RTOL = 1e-12


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def attained(f, gstar, witness):
    """||F P_D G*||_2 for the 1-based index set *witness*."""
    mask = np.zeros(f.shape[0])
    mask[np.asarray(witness, dtype=int) - 1] = 1.0
    return float(np.linalg.norm((f * mask) @ gstar, 2))


def summed_bound(f, gstar):
    """sum_i ||f_i|| ||g_i||, an upper bound on every natural projection norm."""
    return float(np.sum(np.linalg.norm(f, axis=0) * np.linalg.norm(gstar, axis=1)))


def check_estimate(est, f, gstar, where, kind):
    """Check one ConstantEstimate report of a basis ("basis") or
    unconditional ("unconditional") constant of the pair (f, gstar)."""
    n = f.shape[0]
    witness = est["witness"]
    if not witness or any(not 1 <= i <= n for i in witness) or len(set(witness)) != len(witness):
        return [f"{where}: witness {witness} is not a subset of 1..{n}"]
    problems = []
    value = est["value"]
    got = attained(f, gstar, witness)
    if not close(got, value, REATTAIN_RTOL):
        problems.append(f"{where}: witness attains {got!r}, report says {value!r}")
    mode = est["mode"]
    if kind == "basis":
        prefix = list(range(1, len(witness) + 1))
        if mode != "Exact" or est["evaluations"] != n or list(witness) != prefix:
            problems.append(f"{where}: basis constant is not an exact prefix maximum")
    elif mode == "Exact":
        if est["evaluations"] != 2 ** n:
            problems.append(f"{where}: Exact after {est['evaluations']} of {2 ** n} subsets")
    elif mode == "LowerBoundWitness":
        bound = summed_bound(f, gstar)
        if value > bound * (1 + EXACT_RTOL):
            problems.append(f"{where}: sampled value {value!r} exceeds sum bound {bound!r}")
    else:
        problems.append(f"{where}: unknown mode {mode!r}")
    return problems


def check_reference(value, reference, rtol, where):
    if not close(value, reference, rtol):
        return [f"{where}: {value!r} differs from reference {reference!r}"]
    return []


def check_condition(reported, expected, where):
    """Compare a reported condition number ("inf" or a float) with numpy's."""
    if np.isinf(expected):
        return [] if reported == "inf" else [f"{where}: {reported!r}, expected inf"]
    if reported == "inf" or not close(reported, expected, REFERENCE_RTOL):
        return [f"{where}: {reported!r}, expected {expected!r}"]
    return []


def check_plan(plan, alpha, delta, levels, spectrum_length):
    """Key-lemma conditions of a selected plan on the harmonic spectrum 1/i."""
    problems = []
    if plan["levels"] != levels or len(plan["subsets"]) != levels:
        return [f"plan has {plan['levels']} levels, expected {levels}"]
    seen = set()
    prev_max = 0
    for k, (subset, (c, d)) in enumerate(zip(plan["subsets"], plan["cBounds"]), start=1):
        if len(subset) != 2 ** k or min(subset) <= prev_max or seen & set(subset):
            problems.append(f"plan level {k}: subset is not 2^k fresh increasing indices")
        if max(subset) > spectrum_length or not close(d / c, delta, EXACT_RTOL):
            problems.append(f"plan level {k}: bounds or indices out of range")
        seen |= set(subset)
        prev_max = max(subset)
        exps = [k, k] + [j for j in range(k - 1, 0, -1) for _ in range(2 ** (k - j))]
        for idx, w in zip(subset, exps):
            ratio = alpha ** w * idx  # alpha^w / lambda with lambda = 1/idx
            if not c * (1 - 1e-9) <= ratio <= d * (1 + 1e-9):
                problems.append(f"plan level {k}: index {idx} violates condition (b)")
    return problems


def estimates(report):
    """Every ConstantEstimate dict inside a parsed report, in document order."""
    if isinstance(report, dict):
        if "mode" in report and "witness" in report:
            yield report
        else:
            for v in report.values():
                yield from estimates(v)
    elif isinstance(report, list):
        for v in report:
            yield from estimates(v)


def witness_values(report):
    return [e["value"] for e in estimates(report) if e["mode"] == "LowerBoundWitness"]


def tampered(report, mode):
    """A copy of *report* with its first estimate of *mode* falsified: a
    witness value raised by 1e-6, or an Exact value off in its 10th digit.
    None when the report holds no estimate of that mode."""
    out = copy.deepcopy(report)
    for est in estimates(out):
        if est["mode"] == mode:
            est["value"] += 1e-6 if mode == "LowerBoundWitness" else 1e-9
            return out
    return None
