"""Command-line front door.

One subcommand per operation: generate matrices, compute constants, run the
selection procedures and the harmonic demo. Reports are JSON, or CSV where a
command has a table; floats take Python's shortest round-trip spelling in
both, and identical arguments always produce byte-identical output.
"""

import argparse
import json
import sys

import numpy as np

from . import jsonfmt
from .kernel import condition_number, polar_decompose
from .olevskii import (
    OlevskiiPlan,
    PlanValidationError,
    haar_matrix,
    olevskii_block,
    rank1_conjugation_witness,
    summing_counterexample,
    validate_plan,
    weight_vector,
)
from .schauder import (
    SearchBudget,
    basis_constant,
    biorthogonal_inverse,
    quasinormality_bounds,
    riesz_diagnostic,
    transform_left,
    transform_right_diagonal,
    transform_right_permutation,
    unconditional_constant,
)
from .selection import (
    InsufficientCardinalityError,
    cardinality_profile,
    harmonic_demo,
    parse_spectrum,
    ratio_limit_check,
    segment_cut,
    select_subsets,
)
from .textio import load_matrix, save_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


def _emit(args, payload, csv_rows=None):
    """Write the report as JSON, or as CSV under --format csv, to --out or stdout."""
    if getattr(args, "format", "json") == "csv":
        header, rows = csv_rows
        lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = jsonfmt.dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def float_list(text):
    return [float(x) for x in text.split(",") if x.strip()]


def int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _budget(args):
    return SearchBudget(exact_cutoff=args.exact_cutoff, samples=args.samples, seed=args.seed)


def _add_budget_flags(p):
    p.add_argument("--exact-cutoff", type=int, default=SearchBudget.exact_cutoff)
    p.add_argument("--samples", type=int, default=SearchBudget.samples)
    p.add_argument("--seed", type=int, default=SearchBudget.seed)


def _add_report_flags(p, csv=False):
    """--out for a JSON report; with *csv*, also --format to choose a CSV table."""
    if csv:
        p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="write the report to this path")


def cmd_haar(args):
    save_matrix(args.out, haar_matrix(args.k))
    return EXIT_OK


def cmd_weight(args):
    save_matrix(args.out, np.diag(weight_vector(args.k, args.alpha)))
    return EXIT_OK


def cmd_block(args):
    pair = olevskii_block(args.k, args.alpha)
    save_matrix(args.out_f, pair.f)
    save_matrix(args.out_gstar, pair.gstar)
    qmin, qmax = quasinormality_bounds(pair.f)
    _emit(args, {"quasinormMin": qmin, "quasinormMax": qmax, "size": pair.size})
    return EXIT_OK


def cmd_counterexample(args):
    pair = summing_counterexample(args.n)
    save_matrix(args.out_f, pair.f)
    save_matrix(args.out_gstar, pair.gstar)
    return EXIT_OK


def cmd_constants(args):
    pair = biorthogonal_inverse(load_matrix(args.matrix))
    qmin, qmax = quasinormality_bounds(pair.f)
    bc = basis_constant(pair)
    uc = unconditional_constant(pair, budget=_budget(args))
    payload = {"basis": bc, "unconditional": uc, "quasinormMin": qmin, "quasinormMax": qmax}
    rows = [(key, getattr(v, "value", v)) for key, v in payload.items()]
    _emit(args, payload, csv_rows=(["quantity", "value"], rows))
    return EXIT_OK


def cmd_dual_constants(args):
    pair = biorthogonal_inverse(load_matrix(args.matrix))
    # The dual basis (G, F^T) has projections G P_n F^T = (F P_n G*)^T, of the same norms.
    _emit(args, {"dualBasis": basis_constant(pair).value})
    return EXIT_OK


def cmd_riesz(args):
    report = riesz_diagnostic(load_matrix(args.matrix), args.sections)
    rows = list(zip(report.section_sizes, report.condition_numbers))
    _emit(args, report, csv_rows=(["section", "conditionNumber"], rows))
    return EXIT_OK


def cmd_polar(args):
    factors = polar_decompose(load_matrix(args.matrix))
    save_matrix(args.out_unitary, factors.unitary)
    save_matrix(args.out_positive, factors.positive)
    return EXIT_OK


def cmd_transform(args):
    if not (args.left or args.diag or args.perm):
        raise ValueError("transform requires at least one of --left, --diag, --perm")
    pair = biorthogonal_inverse(load_matrix(args.matrix))
    if args.left:
        pair = transform_left(load_matrix(args.left), pair)
    if args.diag:
        pair = transform_right_diagonal(pair, args.diag)
    if args.perm:
        pair = transform_right_permutation(pair, args.perm)
    save_matrix(args.out_f, pair.f)
    save_matrix(args.out_gstar, pair.gstar)
    return EXIT_OK


def cmd_lp_witness(args):
    p, value, bound = rank1_conjugation_witness(args.lambda1, args.lambda2, args.delta)
    _emit(args, {"normValue": value, "bound": bound, "projection": p.tolist()})
    return EXIT_OK


def cmd_profile(args):
    spectrum = parse_spectrum(args.spectrum)
    counts = cardinality_profile(spectrum, args.delta, args.ts)
    payload = {"delta": args.delta, "ts": args.ts, "counts": counts}
    _emit(args, payload, csv_rows=(["t", "count"], list(zip(args.ts, counts))))
    return EXIT_OK


def cmd_select(args):
    spectrum = parse_spectrum(args.spectrum)
    result = select_subsets(spectrum, args.alpha, args.delta, args.levels)
    _emit(args, result)
    return EXIT_OK


def cmd_validate_plan(args):
    spectrum = parse_spectrum(args.spectrum)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = OlevskiiPlan.from_json(json.load(fh))
    report = validate_plan(spectrum, plan)
    _emit(args, report)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_cut(args):
    grid = segment_cut(args.mu, args.max_ratio)
    _emit(args, {"grid": grid}, csv_rows=(["point"], [(g,) for g in grid]))
    return EXIT_OK


def cmd_ratio_check(args):
    spectrum = parse_spectrum(args.spectrum)
    report = ratio_limit_check(spectrum, args.tail)
    _emit(args, report)
    return EXIT_OK


def cmd_demo_harmonic(args):
    report = harmonic_demo(
        levels=args.levels,
        alpha=args.alpha,
        delta=args.delta,
        spectrum_length=args.count,
        budget=_budget(args),
    )
    _emit(args, report)
    return EXIT_OK


def cmd_condition(args):
    kappa = condition_number(load_matrix(args.matrix))
    _emit(args, {"conditionNumber": jsonfmt.inf_as_text(kappa)})
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schaudermat",
        description="Finite-section Schauder basis constructions and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("haar", help="write the Haar-type orthogonal matrix A_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("weight", help="write the diagonal weight matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("block", help="write the weighted Haar block pair")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out-f", required=True)
    p.add_argument("--out-gstar", required=True)
    _add_report_flags(p)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("counterexample", help="write the summing-type pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-f", required=True)
    p.add_argument("--out-gstar", required=True)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("constants", help="basis and unconditional constants of a section")
    p.add_argument("--matrix", required=True)
    _add_budget_flags(p)
    _add_report_flags(p, csv=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("dual-constants", help="dual basis constant of a section")
    p.add_argument("--matrix", required=True)
    _add_report_flags(p)
    p.set_defaults(func=cmd_dual_constants)

    p = sub.add_parser("riesz", help="condition numbers of leading sections")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sections", type=int_list, required=True, help="comma-separated sizes")
    _add_report_flags(p, csv=True)
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("polar", help="polar decomposition M = U A")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out-unitary", required=True)
    p.add_argument("--out-positive", required=True)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("transform", help="apply basis-preserving transforms")
    p.add_argument("--matrix", required=True)
    p.add_argument("--left", default=None, help="matrix file for left multiplication")
    p.add_argument("--diag", type=float_list, help="comma-separated diagonal")
    p.add_argument("--perm", type=int_list, help="comma-separated 1-based permutation")
    p.add_argument("--out-f", required=True)
    p.add_argument("--out-gstar", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("lp-witness", help="rank-1 conjugation blow-up witness")
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    _add_report_flags(p)
    p.set_defaults(func=cmd_lp_witness)

    p = sub.add_parser("profile", help="window cardinalities of a spectrum")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ts", type=float_list, required=True, help="comma-separated window tops")
    _add_report_flags(p, csv=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("select", help="inductive level-subset selection")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--levels", type=int, required=True)
    _add_report_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("validate-plan", help="check a plan JSON against a spectrum")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--plan", required=True)
    _add_report_flags(p)
    p.set_defaults(func=cmd_validate_plan)

    p = sub.add_parser("cut", help="refine a decreasing grid to a ratio bound")
    p.add_argument("--mu", type=float_list, required=True, help="comma-separated decreasing grid")
    p.add_argument("--max-ratio", type=float, required=True)
    _add_report_flags(p, csv=True)
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("ratio-check", help="tail consecutive-ratio criterion")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--tail", type=int, required=True)
    _add_report_flags(p)
    p.set_defaults(func=cmd_ratio_check)

    p = sub.add_parser("demo-harmonic", help="end-to-end harmonic diagonal demo")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--delta", type=float, default=2.0)
    p.add_argument("--count", type=int, default=10000)
    _add_budget_flags(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_demo_harmonic)

    p = sub.add_parser("condition", help="condition number of a section")
    p.add_argument("--matrix", required=True)
    _add_report_flags(p)
    p.set_defaults(func=cmd_condition)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (PlanValidationError, InsufficientCardinalityError) as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return EXIT_VALIDATION
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
