"""Workloads of the schaudermat benchmark: generated inputs, CLI calls, checks.

Inputs are built here with numpy alone, from the workload seed, so the
program under test only ever receives files and flags. Each workload is a
list of calls; the first call flagged `largest` is the one `max_call_s`
reports.
"""

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks

ALPHA = 0.8
DELTA = 2.0


@dataclass
class Call:
    label: str
    argv: list
    check: Callable[[dict], list]
    largest: bool = False
    # Untimed step run after a passing call, e.g. writing the plan file that
    # the next call reads.
    then: Optional[Callable[[dict], None]] = None


def haar(k):
    """The 2^k x 2^k Haar-type orthogonal matrix A_k."""
    n = 2 ** k
    a = np.zeros((n, n))
    a[:, 0] = 2.0 ** (-k / 2.0)
    for s in range(k):
        for v in range(1, 2 ** s + 1):
            lo, mid, hi = (v - 1) * 2 ** (k - s), (2 * v - 1) * 2 ** (k - s - 1), v * 2 ** (k - s)
            a[lo:mid, 2 ** s + v - 1] = 2.0 ** ((s - k) / 2.0)
            a[mid:hi, 2 ** s + v - 1] = -(2.0 ** ((s - k) / 2.0))
    return a


def block_pair(k, alpha=ALPHA):
    """(T A_k^T, A_k T^{-1}) with T the weight diagonal of level k."""
    exps = [k, k] + [j for j in range(k - 1, 0, -1) for _ in range(2 ** (k - j))]
    w = alpha ** np.array(exps, dtype=float)
    a = haar(k)
    return a.T * w[:, None], a / w


def direct_sum(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        out[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    return out


def block_sum_pair(levels, identity=0):
    """The direct sum of the level 1..levels block pairs, plus I_identity."""
    pairs = [block_pair(k) for k in range(1, levels + 1)]
    eye = [np.eye(identity)] if identity else []
    return direct_sum([p[0] for p in pairs] + eye), direct_sum([p[1] for p in pairs] + eye)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def save(path, m):
    """The package's matrix text format, 17 significant digits."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(format(x, ".17g") for x in row) + "\n")


def basis_reference(f, gstar):
    n = f.shape[0]
    return max(checks.attained(f, gstar, range(1, m + 1)) for m in range(1, n + 1))


def exact_reference(f, gstar):
    """max over all 2^n subsets of ||F P_D G*||, by batched enumeration."""
    n = f.shape[0]
    best = 0.0
    for start in range(0, 2 ** n, 4096):
        codes = np.arange(start, min(start + 4096, 2 ** n))
        masks = ((codes[:, None] >> np.arange(n)) & 1).astype(float)
        qs = (f[None, :, :] * masks[:, None, :]) @ gstar
        best = max(best, float(np.max(np.linalg.norm(qs, 2, axis=(1, 2)))))
    return best


def rotated_constants_call(label, path, rng, pair, seed, samples=None, exact=False,
                           largest=False):
    """Write X F for a random orthogonal X and return the `constants` call on it.

    Rotation leaves every constant unchanged, so the report is checked
    against the unrotated pair; the witnesses are re-attained on the stored
    section and its numpy inverse, as the program sees them.
    """
    f0, g0 = pair
    f = random_orthogonal(rng, f0.shape[0]) @ f0
    save(path, f)
    gstar = np.linalg.inv(f)
    basis_ref = basis_reference(f0, g0)
    uncond_ref = exact_reference(f0, g0) if exact else None
    quasinorms = np.linalg.norm(f, axis=0)

    def check(report):
        p = checks.check_estimate(report["basis"], f, gstar, f"{label} basis", "basis")
        p += checks.check_estimate(report["unconditional"], f, gstar, f"{label} unconditional",
                                   "unconditional")
        p += checks.check_reference(report["basis"]["value"], basis_ref, checks.REFERENCE_RTOL,
                                    f"{label} basis")
        if exact:
            if report["unconditional"]["mode"] != "Exact":
                p.append(f"{label}: unconditional constant is not Exact")
            p += checks.check_reference(report["unconditional"]["value"], uncond_ref,
                                        checks.REFERENCE_RTOL, f"{label} unconditional")
        elif report["unconditional"]["mode"] != "LowerBoundWitness":
            p.append(f"{label}: unconditional constant is not a sampled witness")
        p += checks.check_reference(report["quasinormMin"], float(quasinorms.min()),
                                    checks.REFERENCE_RTOL, f"{label} quasinormMin")
        p += checks.check_reference(report["quasinormMax"], float(quasinorms.max()),
                                    checks.REFERENCE_RTOL, f"{label} quasinormMax")
        return p

    argv = ["constants", "--matrix", str(path), "--seed", str(seed)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    return Call(label, argv, check, largest=largest)


# Exact unconditional constants of the level 1..3 prefix pairs of the demo.
DEMO_EXACT = (1.0, 1.025, 1.10125)


def harmonic_demo(seed, work):
    pairs = [block_sum_pair(ell) for ell in range(1, 6)]

    def demo_call(levels):
        label = f"demo L={levels}"

        def check(report):
            p = checks.check_plan(report["selection"]["plan"], ALPHA, DELTA, levels, 10000)
            if not 0 <= report["unitaryDefect"] <= 1e-12:
                p.append(f"{label}: unitary defect {report['unitaryDefect']!r}")
            for ell in range(1, levels + 1):
                f, gstar = pairs[ell - 1]
                b = report["basisByLevel"][ell - 1]
                u = report["unconditionalByLevel"][ell - 1]
                p += checks.check_estimate(b, f, gstar, f"{label} level {ell} basis", "basis")
                p += checks.check_estimate(u, f, gstar, f"{label} level {ell} unconditional",
                                           "unconditional")
                if ell <= len(DEMO_EXACT):
                    if u["mode"] != "Exact":
                        p.append(f"{label} level {ell}: not Exact")
                    p += checks.check_reference(u["value"], DEMO_EXACT[ell - 1], checks.EXACT_RTOL,
                                                f"{label} level {ell} unconditional")
            riesz = report["riesz"]
            if riesz["verdict"] != "NotRiesz" or riesz["sectionSizes"] != [64, 1024, 4096]:
                p.append(f"{label}: riesz report {riesz['verdict']} on {riesz['sectionSizes']}")
            for size, cond in zip(riesz["sectionSizes"], riesz["conditionNumbers"]):
                p += checks.check_condition(cond, float(size), f"{label} riesz section {size}")
            return p

        argv = ["demo-harmonic", "--levels", str(levels), "--alpha", str(ALPHA), "--delta",
                str(DELTA), "--count", "10000", "--seed", str(seed)]
        return Call(label, argv, check, largest=levels == 5)

    return [demo_call(levels) for levels in (3, 4, 5)]


def dense_constants(seed, work):
    rng = np.random.default_rng(seed)
    return [
        rotated_constants_call("constants N=16", work / "s16.mtx", rng, block_pair(4), seed,
                               exact=True),
        rotated_constants_call("constants N=64", work / "s64.mtx", rng, block_sum_pair(5, 2),
                               seed),
        rotated_constants_call("constants N=128", work / "s128.mtx", rng,
                               block_sum_pair(6, 2), seed, samples=2000, largest=True),
    ]


def stored_sections(seed, work):
    f, _ = block_pair(10)
    f_path, g_path = work / "F10.mtx", work / "G10.mtx"
    plan_path = work / "plan.json"
    sections = (64, 256, 1024)
    section_conds = []
    for s in sections:
        sv = np.linalg.svd(f[:s, :s], compute_uv=False)
        section_conds.append(np.inf if sv[-1] < 1e-14 * sv[0] else float(sv[0] / sv[-1]))
    quasinorms = np.linalg.norm(f, axis=0)

    def check_block(report):
        p = [] if report["size"] == 1024 else [f"block size {report['size']}"]
        p += checks.check_reference(report["quasinormMin"], float(quasinorms.min()),
                                    checks.REFERENCE_RTOL, "block quasinormMin")
        p += checks.check_reference(report["quasinormMax"], float(quasinorms.max()),
                                    checks.REFERENCE_RTOL, "block quasinormMax")
        return p

    def check_riesz(report):
        p = [] if report["sectionSizes"] == list(sections) else ["riesz: wrong sections"]
        for s, got, want in zip(sections, report["conditionNumbers"], section_conds):
            p += checks.check_condition(got, want, f"riesz section {s}")
        # The leading sections are singular, so the verdict cannot be NotRiesz
        # (needs strictly increasing tail) nor RieszConsistent.
        if report["verdict"] != "Inconclusive":
            p.append(f"riesz verdict {report['verdict']}")
        return p

    def check_condition(report):
        return checks.check_condition(report["conditionNumber"], ALPHA ** -9, "condition of G*")

    def check_select(report):
        return checks.check_plan(report["plan"], ALPHA, DELTA, 8, 1_000_000)

    def write_plan(report):
        plan_path.write_text(json.dumps(report["plan"]), encoding="ascii")

    def check_validate(report):
        return [] if report == {"ok": True, "violations": []} else [f"validate-plan: {report}"]

    rng = np.random.default_rng(seed)
    return [
        Call("block k=10", ["block", "--k", "10", "--alpha", str(ALPHA), "--out-f", str(f_path),
                            "--out-gstar", str(g_path)], check_block, largest=True),
        Call("riesz", ["riesz", "--matrix", str(f_path), "--sections",
                       ",".join(map(str, sections))], check_riesz),
        Call("condition", ["condition", "--matrix", str(g_path)], check_condition),
        Call("select", ["select", "--spectrum", "harmonic:1000000", "--alpha", str(ALPHA),
                        "--delta", str(DELTA), "--levels", "8"], check_select, then=write_plan),
        Call("validate-plan", ["validate-plan", "--spectrum", "harmonic:1000000", "--plan",
                               str(plan_path)], check_validate),
        rotated_constants_call("constants N=18", work / "s18.mtx", rng,
                               block_sum_pair(3, 4), seed, samples=2000),
    ]


BUILDERS = {
    "harmonic-demo": harmonic_demo,
    "dense-constants": dense_constants,
    "stored-sections": stored_sections,
}
