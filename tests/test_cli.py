import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schaudermat import (
    OlevskiiPlan,
    SearchBudget,
    basis_constant,
    biorthogonal_inverse,
    cardinality_profile,
    haar_matrix,
    keylemma_assemble,
    load_matrix,
    olevskii_block,
    parse_spectrum,
    polar_decompose,
    quasinormality_bounds,
    riesz_diagnostic,
    save_matrix,
    segment_cut,
    summing_counterexample,
    transform_right_diagonal,
    unconditional_constant,
    weight_vector,
)
from schaudermat.cli import _budget, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_haar_command(tmp_path, capsys):
    out = tmp_path / "a2.mtx"
    code, _ = run(capsys, "haar", "--k", "2", "--out", str(out))
    assert code == 0
    np.testing.assert_allclose(load_matrix(out), haar_matrix(2))


def test_weight_command(tmp_path, capsys):
    out = tmp_path / "w.mtx"
    code, _ = run(capsys, "weight", "--k", "2", "--alpha", "0.8", "--out", str(out))
    assert code == 0
    np.testing.assert_allclose(load_matrix(out), np.diag([0.64, 0.64, 0.8, 0.8]))


def test_constants_identity(tmp_path, capsys):
    mat = tmp_path / "id4.mtx"
    save_matrix(mat, np.eye(4))
    code, out = run(capsys, "constants", "--matrix", str(mat))
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"]["value"] == 1.0
    assert payload["unconditional"]["value"] == 1.0
    assert payload["unconditional"]["mode"] == "Exact"


def test_constants_csv(tmp_path, capsys):
    mat = tmp_path / "id2.mtx"
    save_matrix(mat, np.eye(2))
    code, out = run(capsys, "constants", "--matrix", str(mat), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,value"
    assert lines[1] == "basis,1.0"


def csv_lines(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    return out.splitlines()


def test_csv_floats_are_repr_of_library_values(tmp_path, capsys):
    mat = tmp_path / "f.mtx"
    save_matrix(mat, olevskii_block(3, 0.8).f)
    pair = biorthogonal_inverse(load_matrix(mat))
    qmin, qmax = quasinormality_bounds(pair.f)
    assert csv_lines(capsys, "constants", "--matrix", str(mat)) == [
        "quantity,value",
        f"basis,{basis_constant(pair).value!r}",
        f"unconditional,{unconditional_constant(pair).value!r}",
        f"quasinormMin,{qmin!r}",
        f"quasinormMax,{qmax!r}",
    ]

    dense = tmp_path / "m.mtx"
    save_matrix(dense, np.random.default_rng(5).standard_normal((16, 16)))
    report = riesz_diagnostic(load_matrix(dense), [4, 8, 16])
    assert csv_lines(capsys, "riesz", "--matrix", str(dense), "--sections", "4,8,16") == [
        "section,conditionNumber",
        *(f"{s},{c!r}" for s, c in zip([4, 8, 16], report.condition_numbers)),
    ]

    counts = cardinality_profile(parse_spectrum("harmonic:1000"), 2.0, [0.3, 0.01])
    assert csv_lines(capsys, "profile", "--spectrum", "harmonic:1000", "--delta", "2",
                     "--ts", "0.3,0.01") == ["t,count", f"0.3,{counts[0]}", f"0.01,{counts[1]}"]

    grid = segment_cut([1.0, 0.1], 1.7)
    assert csv_lines(capsys, "cut", "--mu", "1,0.1", "--max-ratio", "1.7") == [
        "point", *(repr(g) for g in grid)]


def test_format_only_on_commands_with_a_table():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    with_format = sorted(name for name, sub in commands.items()
                         if "--format" in sub._option_string_actions)
    assert with_format == ["constants", "cut", "profile", "riesz"]


def test_block_rejects_format_before_writing(tmp_path, capsys):
    f, g = tmp_path / "f.mtx", tmp_path / "g.mtx"
    code = main(["block", "--k", "2", "--alpha", "0.8", "--out-f", str(f),
                 "--out-gstar", str(g), "--format", "csv"])
    assert code == 1
    assert not f.exists() and not g.exists()


@pytest.mark.parametrize("argv", [
    ["validate-plan", "--spectrum", "harmonic:10", "--plan", "plan.json", "--format", "csv"],
    ["validate-plan", "--spectrum", "harmonic:10", "--plan", "plan.json", "--format", "json"],
    ["demo-harmonic", "--levels", "2", "--format", "csv"],
], ids=["validate-plan-csv", "validate-plan-json", "demo-harmonic-csv"])
def test_format_is_a_usage_error_without_a_table(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--format" in captured.err


def test_negative_samples_exit_code(tmp_path, capsys):
    with pytest.raises(ValueError, match="samples must be >= 0"):
        SearchBudget(samples=-1)
    mat = tmp_path / "id4.mtx"
    save_matrix(mat, np.eye(4))
    code = main(["constants", "--matrix", str(mat), "--samples", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "samples must be >= 0, got -1" in captured.err


def test_budget_flags_default_to_search_budget():
    parser = build_parser()
    for argv in (["constants", "--matrix", "m.mtx"], ["demo-harmonic", "--levels", "2"]):
        assert _budget(parser.parse_args(argv)) == SearchBudget()


def test_weight_level_above_limit_writes_nothing(tmp_path, capsys):
    out = tmp_path / "w.mtx"
    code = main(["weight", "--k", "13", "--alpha", "0.8", "--out", str(out)])
    assert code == 1
    assert "k must lie in 1..12, got 13" in capsys.readouterr().err
    assert not out.exists()


def test_block_alpha_outside_range_writes_nothing(tmp_path, capsys):
    f, g = tmp_path / "f.mtx", tmp_path / "g.mtx"
    code = main(["block", "--k", "2", "--alpha", "0.5", "--out-f", str(f),
                 "--out-gstar", str(g)])
    assert code == 1
    assert "alpha must lie in (1/sqrt(2), 1), got 0.5" in capsys.readouterr().err
    assert not f.exists() and not g.exists()


def rotated_diagonal(n, kappa, seed):
    """Q1 diag(geomspace(1, 1/kappa)) Q2 for seeded random orthogonal Q1 and Q2."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return (q1 * np.geomspace(1.0, 1.0 / kappa, n)) @ q2


# Input files that cases of test_sizes_above_limit_exit_code read, by the name in their argv.
REFUSAL_INPUTS = {
    "kappa1e9.mtx": rotated_diagonal(24, 1e9, 1),
    "h2.mtx": haar_matrix(2),
    "wide.mtx": "2 3\n1 0 0\n0 1 0\n",
    "three.mtx": "2 2 2\n1 0\n0 1\n",
    "x.mtx": "2 x\n1 0\n0 1\n",
    "zero.mtx": "0 2\n",
    "comments.mtx": "# a comment\n\n",
    "empty.txt": "# a comment\n",
    "tiny.mtx": np.diag([1e-320] * 4),  # kappa = 1, but 1/1e-320 is past the largest float
}


@pytest.mark.parametrize("argv, message", [
    (["counterexample", "--n", "4097", "--out-f", "f.mtx", "--out-gstar", "g.mtx"],
     "n must lie in 1..4096, got 4097"),
    (["profile", "--spectrum", "harmonic:10000001", "--delta", "2", "--ts", "1"],
     "spectrum length must be at most 10000000, got 10000001"),
    (["cut", "--mu", "1,0.1", "--max-ratio", "1.0000001"],
     "refined grid length must be at most 10000000, got 23025854"),
    (["cut", "--mu", "inf,1", "--max-ratio", "2"], "grid must be strictly decreasing"),
    (["cut", "--mu", "1,0.1", "--max-ratio", "nan"], "ratio bound must be finite and exceed 1"),
    (["profile", "--spectrum", "harmonic:100", "--delta", "2", "--ts", "nan", "--format", "csv"],
     "profile points must be positive and finite, got nan"),
    (["profile", "--spectrum", "harmonic:100", "--delta", "2", "--ts", "inf", "--format", "csv"],
     "profile points must be positive and finite, got inf"),
    (["profile", "--spectrum", "harmonic:100", "--delta", "inf", "--ts", "0.1"],
     "delta must be finite and exceed 1, got inf"),
    (["select", "--spectrum", "harmonic:1000", "--alpha", "0.8", "--delta", "inf",
      "--levels", "2"], "delta must lie in (1, 100], got inf"),
    (["demo-harmonic", "--levels", "2", "--delta", "nan"], "delta must lie in (1, 100], got nan"),
    # d_k/c_k = delta, and validate_plan caps it at RATIO_BOUND = 100
    (["select", "--spectrum", "harmonic:10000", "--alpha", "0.8", "--delta", "100.5",
      "--levels", "2", "--out", "sel.json"], "delta must lie in (1, 100], got 100.5"),
    (["select", "--spectrum", "harmonic:10000", "--alpha", "0.8", "--delta", "200",
      "--levels", "2", "--out", "sel.json"], "delta must lie in (1, 100], got 200.0"),
    (["demo-harmonic", "--levels", "2", "--delta", "100.5", "--out", "demo.json"],
     "delta must lie in (1, 100], got 100.5"),
    (["demo-harmonic", "--levels", "2", "--delta", "200", "--out", "demo.json"],
     "delta must lie in (1, 100], got 200.0"),
    (["lp-witness", "--lambda1", "nan", "--lambda2", "1"], "need 0 < lambda1 <= lambda2 < inf"),
    (["lp-witness", "--lambda1", "1", "--lambda2", "inf"], "need 0 < lambda1 <= lambda2 < inf"),
    (["lp-witness", "--lambda1", "0.1", "--lambda2", "1", "--delta", "nan"],
     "delta must be 0 or lie in (0, (lambda2 - lambda1)/2), got nan"),
    (["lp-witness", "--lambda1", "1", "--lambda2", "1", "--delta", "0.5"],
     "delta must be 0 or lie in (0, (lambda2 - lambda1)/2), got 0.5"),
    (["transform", "--matrix", "h2.mtx", "--diag", "1e-320,1,1,1", "--out-f", "f.mtx",
      "--out-gstar", "g.mtx"], "F D or D^-1 G* overflows: the diagonal is out of range"),
    (["transform", "--matrix", "h2.mtx", "--diag", "nan,1,1,1", "--out-f", "f.mtx",
      "--out-gstar", "g.mtx"], "diagonal entries must be finite and nonzero"),
    (["transform", "--matrix", "h2.mtx", "--diag", "1,inf,1,1", "--out-f", "f.mtx",
      "--out-gstar", "g.mtx"], "diagonal entries must be finite and nonzero"),
    (["transform", "--matrix", "h2.mtx", "--diag", "1,2", "--out-f", "f.mtx",
      "--out-gstar", "g.mtx"], "diagonal must have length 4"),
    (["riesz", "--matrix", "h2.mtx", "--sections", "4,2"],
     "section sizes must be strictly increasing"),
    (["condition", "--matrix", "wide.mtx"], "expected a square matrix, got shape (2, 3)"),
    (["constants", "--matrix", "three.mtx"], "three.mtx: line 1: expected 'rows cols'"),
    (["constants", "--matrix", "x.mtx"], "x.mtx: line 1: bad dimensions '2 x'"),
    (["constants", "--matrix", "zero.mtx"], "zero.mtx: line 1: dimensions must be positive"),
    (["constants", "--matrix", "comments.mtx"], "comments.mtx: no header line found"),
    (["profile", "--spectrum", "geometric:1.5:10", "--delta", "2", "--ts", "1"],
     "ratio must lie in (0, 1)"),
    (["profile", "--spectrum", "empty.txt", "--delta", "2", "--ts", "1"],
     "spectrum must be a nonempty 1-d sequence"),
    # invert accepts kappa up to 1e12, but the pair check refuses from about kappa = 1e7
    (["constants", "--matrix", "kappa1e9.mtx"],
     "F*Gstar and Gstar*F must equal the identity within 1e-9; the largest deviation is "),
    (["constants", "--matrix", "tiny.mtx"], "the inverse of the matrix is out of range"),
    (["transform", "--matrix", "h2.mtx", "--left", "tiny.mtx", "--out-f", "f.mtx",
      "--out-gstar", "g.mtx"], "the inverse of the matrix is out of range"),
    (["lp-witness", "--lambda1", "1e-300", "--lambda2", "1e300"],
     "(lambda2 - delta)/(lambda1 + delta) overflows, got 1e-300, 1e+300"),
], ids=["counterexample", "profile", "cut-length", "cut-inf", "cut-nan", "profile-t-nan",
        "profile-t-inf", "profile-delta-inf", "select-delta-inf", "demo-delta-nan",
        "select-delta-100.5", "select-delta-200", "demo-delta-100.5", "demo-delta-200",
        "lp-lambda-nan", "lp-lambda-inf", "lp-delta-nan", "lp-equal-lambdas-delta",
        "transform-diag-overflow", "transform-diag-nan", "transform-diag-inf",
        "transform-diag-length", "riesz-sections-order", "condition-not-square",
        "header-three-fields", "header-not-integer", "header-zero-rows", "no-header",
        "geometric-ratio", "empty-spectrum-file", "constants-pair-tolerance",
        "constants-inverse-overflow", "transform-left-inverse-overflow", "lp-ratio-overflow"])
def test_sizes_above_limit_exit_code(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    inputs = sorted(name for name in REFUSAL_INPUTS if name in argv)
    for name in inputs:
        if isinstance(REFUSAL_INPUTS[name], str):
            Path(name).write_text(REFUSAL_INPUTS[name])
        else:
            save_matrix(name, REFUSAL_INPUTS[name])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs  # nothing written


@pytest.mark.parametrize("argv", [["constants"], ["dual-constants"], ["condition"],
                                  ["riesz", "--sections", "2,4,8"]],
                         ids=["constants", "dual-constants", "condition", "riesz"])
def test_reports_keep_their_values_at_any_scale(tmp_path, capsys, argv):
    # A section scaled by 2^600 or 2^-600 squares out of range; each report is that of
    # the unscaled section, with quasinorms scaled exactly and no warning on stderr.
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 8)))
    f, mat = q @ olevskii_block(3, 0.8).f, tmp_path / "m.mtx"
    reports = {}
    for e in (0, 600, -600):
        save_matrix(mat, np.ldexp(f, e))
        code = main([argv[0], "--matrix", str(mat), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        reports[e] = json.loads(captured.out)
    base = reports.pop(0)
    for e, report in reports.items():
        for key in ("quasinormMin", "quasinormMax"):
            if key in base:
                assert report[key] == math.ldexp(base[key], e)
                report[key] = base[key]
        for key in ("conditionNumber", "conditionNumbers"):
            if key in base:
                assert report[key] == pytest.approx(base[key], rel=1e-12)
                report[key] = base[key]
        assert report == base


def test_counterexample_and_dual(tmp_path, capsys):
    f = tmp_path / "f.mtx"
    g = tmp_path / "g.mtx"
    code, _ = run(capsys, "counterexample", "--n", "4", "--out-f", str(f), "--out-gstar", str(g))
    assert code == 0
    code, out = run(capsys, "dual-constants", "--matrix", str(f))
    assert code == 0
    dual = json.loads(out)["dualBasis"]
    code, out = run(capsys, "constants", "--matrix", str(f))
    assert code == 0
    assert dual == json.loads(out)["basis"]["value"] and dual >= 2.0


@pytest.mark.parametrize("f", [summing_counterexample(n).f for n in (4, 16, 64)]
                         + [np.linalg.qr(np.random.default_rng(4).standard_normal((16, 16)))[0]
                            @ olevskii_block(4, 0.8).f],
                         ids=["summing4", "summing16", "summing64", "rotated-block4"])
def test_dual_constants_print_the_basis_constant(tmp_path, capsys, f):
    mat = tmp_path / "f.mtx"
    save_matrix(mat, f)
    code, out = run(capsys, "dual-constants", "--matrix", str(mat))
    assert code == 0
    expected = basis_constant(biorthogonal_inverse(load_matrix(mat))).value
    assert json.loads(out)["dualBasis"].hex() == expected.hex()


@pytest.mark.parametrize("argv", [
    ["riesz", "--matrix", "m.mtx", "--sections", "1,2", "--bound", "5"],
    ["riesz", "--matrix", "m.mtx", "--sections", "1,2", "--divergence", "5"],
    ["ratio-check", "--spectrum", "harmonic:100", "--tail", "10", "--tolerance", "0.1"],
], ids=["riesz-bound", "riesz-divergence", "ratio-tolerance"])
def test_fixed_thresholds_take_no_option(capsys, argv):
    assert main(argv) == 1  # refused while parsing, before any file is read
    assert "unrecognized arguments" in capsys.readouterr().err


def test_riesz_command(tmp_path, capsys):
    mat = tmp_path / "d.mtx"
    save_matrix(mat, np.diag(1.0 / np.arange(1, 65)))
    code, out = run(capsys, "riesz", "--matrix", str(mat), "--sections", "8,32,64")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Inconclusive"
    assert payload["conditionNumbers"] == [8.0, 32.0, 64.0]


def test_polar_command(tmp_path, capsys):
    mat = tmp_path / "m.mtx"
    save_matrix(mat, np.array([[0.0, 3.0], [2.0, 0.0]]))
    u = tmp_path / "u.mtx"
    a = tmp_path / "a.mtx"
    code, _ = run(
        capsys, "polar", "--matrix", str(mat), "--out-unitary", str(u), "--out-positive", str(a)
    )
    assert code == 0
    np.testing.assert_allclose(load_matrix(u), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(load_matrix(a), np.diag([2.0, 3.0]), atol=1e-12)


def test_transform_permutation(tmp_path, capsys):
    mat = tmp_path / "f.mtx"
    save_matrix(mat, np.eye(3))
    out_f = tmp_path / "tf.mtx"
    out_g = tmp_path / "tg.mtx"
    code, _ = run(
        capsys,
        "transform", "--matrix", str(mat), "--perm", "2,3,1",
        "--out-f", str(out_f), "--out-gstar", str(out_g),
    )
    assert code == 0
    f = load_matrix(out_f)
    g = load_matrix(out_g)
    np.testing.assert_allclose(f @ g, np.eye(3), atol=1e-12)


def test_transform_left_of_wrong_size(tmp_path, capsys):
    mat, left = tmp_path / "f.mtx", tmp_path / "x.mtx"
    save_matrix(mat, np.eye(16))
    save_matrix(left, np.eye(9))
    out_f, out_g = tmp_path / "tf.mtx", tmp_path / "tg.mtx"
    code = main(["transform", "--matrix", str(mat), "--left", str(left),
                 "--out-f", str(out_f), "--out-gstar", str(out_g)])
    assert code == 1
    assert "left factor must be 16x16, got 9x9" in capsys.readouterr().err
    assert not out_f.exists() and not out_g.exists()


def test_transform_without_a_factor_is_refused_before_inverting(tmp_path, capsys):
    mat = tmp_path / "f.mtx"
    save_matrix(mat, np.zeros((3, 3)))  # singular: inverting it would fail
    out_f, out_g = tmp_path / "tf.mtx", tmp_path / "tg.mtx"
    code = main(["transform", "--matrix", str(mat),
                 "--out-f", str(out_f), "--out-gstar", str(out_g)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: transform requires at least one of --left, --diag, --perm\n"
    assert not out_f.exists() and not out_g.exists()


def test_lp_witness_command(capsys):
    code, out = run(capsys, "lp-witness", "--lambda1", "0.1", "--lambda2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["normValue"] == pytest.approx(math.sqrt(0.505 * 50.5))
    assert payload["bound"] == pytest.approx(10.0 / (2.0 * math.sqrt(2.0)))


@pytest.mark.parametrize("lambda1, lambda2", [("1", "1e200"), ("1e-200", "1")])
def test_lp_witness_endpoints_whose_squares_overflow(capsys, lambda1, lambda2):
    code, out = run(capsys, "lp-witness", "--lambda1", lambda1, "--lambda2", lambda2)
    assert code == 0
    payload = json.loads(out)
    assert payload["normValue"] == pytest.approx(5e199, rel=1e-15)
    assert payload["bound"] == pytest.approx(1e200 / (2.0 * math.sqrt(2.0)), rel=1e-15)


@pytest.mark.parametrize("argv, option, value", [
    (["riesz", "--matrix", "m.mtx", "--sections", "1,x"], "--sections", "1,x"),
    (["transform", "--matrix", "m.mtx", "--perm", "1,x", "--out-f", "f.mtx",
      "--out-gstar", "g.mtx"], "--perm", "1,x"),
    (["transform", "--matrix", "m.mtx", "--diag", "1,2y", "--out-f", "f.mtx",
      "--out-gstar", "g.mtx"], "--diag", "1,2y"),
    (["cut", "--mu", "1,0.5x", "--max-ratio", "2"], "--mu", "1,0.5x"),
    (["profile", "--spectrum", "s.txt", "--delta", "2", "--ts", "0.1,t"], "--ts", "0.1,t"),
], ids=["riesz-sections", "transform-perm", "transform-diag", "cut-mu", "profile-ts"])
def test_malformed_list_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, option, value):
    # No input file exists: the option is refused before any file is read or written.
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: argument {option}: invalid " in captured.err
    assert repr(value) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_profile_command(capsys):
    code, out = run(
        capsys, "profile", "--spectrum", "harmonic:1000", "--delta", "2", "--ts", "0.1,0.01"
    )
    assert code == 0
    assert json.loads(out)["counts"] == [11, 101]


def test_profile_spectrum_file_with_indented_comment(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("# harmonic\n" + "".join(f"{1 / k!r}\n" for k in range(1, 501)) + "  # note\n")
    code, out = run(capsys, "profile", "--spectrum", str(path), "--delta", "2", "--ts", "0.1,0.01")
    assert code == 0
    assert json.loads(out)["counts"] == [11, 101]


def test_spectrum_file_values_follow_the_matrix_value_rule(tmp_path, capsys):
    # Python's float reads 1_0 as 10; numpy's reader, as for matrix files, refuses it.
    path = tmp_path / "s.txt"
    path.write_text("# values\n1_0\n\n1\n0.5\n")
    code = main(["select", "--spectrum", str(path), "--alpha", "0.8", "--delta", "2",
                 "--levels", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert f"{path}: line 2: unparsable value" in captured.err


def test_select_and_validate_roundtrip(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    code, out = run(
        capsys,
        "select", "--spectrum", "harmonic:10000", "--alpha", "0.8",
        "--delta", "2", "--levels", "2",
    )
    assert code == 0
    plan_file.write_text(json.dumps(json.loads(out)["plan"]))
    code, out = run(
        capsys, "validate-plan", "--spectrum", "harmonic:10000", "--plan", str(plan_file)
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_plan_reads_utf8(tmp_path, capsys):
    # JSON text is UTF-8 (RFC 8259): a key that from_json ignores may hold any character,
    # and a byte that is not UTF-8 is an input error, not a crash.
    code, out = run(capsys, "select", "--spectrum", "harmonic:10000", "--alpha", "0.8",
                    "--delta", "2", "--levels", "2")
    assert code == 0
    plan = json.loads(out)["plan"]
    ascii_file, utf8_file, bad_file = (tmp_path / n for n in ("a.json", "u.json", "b.json"))
    ascii_file.write_text(json.dumps(plan), encoding="ascii")
    text = json.dumps(dict(plan, note="caf\u00e9"), ensure_ascii=False)
    utf8_file.write_bytes(text.encode("utf-8"))
    bad_file.write_bytes(text.encode("latin-1"))
    argv = ["validate-plan", "--spectrum", "harmonic:10000", "--plan"]
    want = run(capsys, *argv, str(ascii_file))
    assert (want[0], json.loads(want[1])) == (0, {"ok": True, "violations": []})
    assert run(capsys, *argv, str(utf8_file)) == want
    assert main(argv + [str(bad_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("delta", ["1.5", "2", "10", "100"])
@pytest.mark.parametrize("alpha", ["0.75", "0.8", "0.9"])
def test_selected_plans_pass_validate_plan(tmp_path, capsys, alpha, delta):
    # select and validate-plan share one plan rule, so every plan that select
    # writes passes; keylemma_assemble refuses plans by that rule alone and
    # builds the model of every one small enough to assemble here (levels <= 9)
    spectrum, sel, plan_file = "harmonic:100000", tmp_path / "sel.json", tmp_path / "plan.json"
    for levels in itertools.count(1):
        code, _ = run(capsys, "select", "--spectrum", spectrum, "--alpha", alpha, "--delta",
                      delta, "--levels", str(levels), "--out", str(sel))
        if code == 2:  # the spectrum holds no more levels
            break
        assert code == 0
        plan = json.loads(sel.read_text())["plan"]
        plan_file.write_text(json.dumps(plan))
        code, out = run(capsys, "validate-plan", "--spectrum", spectrum, "--plan", str(plan_file))
        assert (code, json.loads(out)) == (0, {"ok": True, "violations": []})
        if levels <= 9:
            model = keylemma_assemble(parse_spectrum(spectrum), OlevskiiPlan.from_json(plan))
            assert model.level_sizes == tuple(2 ** k for k in range(1, levels + 1))
    assert levels > 7


def test_profile_admits_a_window_ratio_above_the_plan_bound(capsys):
    # a profile is not a plan: any finite delta > 1 is admitted
    code, out = run(capsys, "profile", "--spectrum", "harmonic:1000", "--delta", "200",
                    "--ts", "0.1")
    assert (code, json.loads(out)["counts"]) == (0, [991])



PLAN = {"levels": 1, "alpha": 0.8, "subsets": [[1, 2]], "cBounds": [[0.5, 1.0]]}


def test_validate_plan_reports_nonpositive_lower_bound(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(dict(PLAN, cBounds=[[0.0, 1.0]])))
    code, out = run(capsys, "validate-plan", "--spectrum", "harmonic:10", "--plan", str(plan_file))
    assert code == 2
    assert json.loads(out) == {"ok": False, "violations": ["level 1: invalid bounds c=0.0, d=1.0"]}


@pytest.mark.parametrize("plan, message", [
    ({k: v for k, v in PLAN.items() if k != "cBounds"}, "plan has no key 'cBounds'"),
    ({k: v for k, v in PLAN.items() if k != "subsets"}, "plan has no key 'subsets'"),
    (dict(PLAN, subsets=5), "plan key 'subsets' is ill-typed"),
    (dict(PLAN, cBounds=[[0.5, 1.0, 2.0]]), "must be a pair"),
    (dict(PLAN, levels=1.7), "plan key 'levels' is ill-typed"),
    (dict(PLAN, levels=True), "plan key 'levels' is ill-typed"),
    (dict(PLAN, subsets=[[3.9, 4.9]]), "plan key 'subsets' is ill-typed"),
    (dict(PLAN, subsets=[[True, 2]]), "plan key 'subsets' is ill-typed"),
    (dict(PLAN, leftovers=[[5.0]]), "plan key 'leftovers' is ill-typed"),
    (dict(PLAN, alpha="0.8"), "plan key 'alpha' is ill-typed"),
    (dict(PLAN, alpha=True), "plan key 'alpha' is ill-typed"),
    (dict(PLAN, alpha=None), "plan key 'alpha' is ill-typed"),
    (dict(PLAN, cBounds=[[True, 1.0]]), "plan key 'cBounds' is ill-typed"),
    (dict(PLAN, cBounds=[[0.5, "1.0"]]), "plan key 'cBounds' is ill-typed"),
    (dict(PLAN, alpha="0.8", cBounds=[[True, "1.0"]]), "plan key 'alpha' is ill-typed"),
    (dict(PLAN, levels=0), "levels must be >= 1"),
    (dict(PLAN, levels=2), "subsets and c_bounds must have one entry per level"),
    (dict(PLAN, leftovers=[[], []]), "leftovers must have one entry per level"),
], ids=["no-cBounds", "no-subsets", "int-subsets", "triple-cBounds", "float-levels",
        "bool-levels", "float-subsets", "bool-subsets", "float-leftovers", "str-alpha",
        "bool-alpha", "null-alpha", "bool-cBounds", "str-cBounds", "str-alpha-bool-cBounds",
        "zero-levels", "levels-without-subsets", "leftovers-per-level"])
def test_validate_plan_malformed_exit_code(tmp_path, capsys, plan, message):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    code = main(["validate-plan", "--spectrum", "harmonic:10", "--plan", str(plan_file)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err

@pytest.mark.parametrize("plan, violation", [
    (dict(PLAN, subsets=[[1, 2, 3]]), "condition (c): level 1 has 3 indices, expected 2"),
    (dict(PLAN, subsets=[[1, 11]]), "level 1: index 11 outside spectrum of length 10"),
], ids=["subset-size", "index-outside-spectrum"])
def test_validate_plan_reports_violation(tmp_path, capsys, plan, violation):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    code, out = run(capsys, "validate-plan", "--spectrum", "harmonic:10", "--plan", str(plan_file))
    assert code == 2
    assert json.loads(out) == {"ok": False, "violations": [violation]}


def test_select_failure_exit_code(capsys):
    code, _ = run(
        capsys,
        "select", "--spectrum", "geometric:0.5:100", "--alpha", "0.8",
        "--delta", "2", "--levels", "3",
    )
    assert code == 2


def test_ratio_check_tail_without_a_ratio_exit_code(capsys):
    code = main(["ratio-check", "--spectrum", "harmonic:100", "--tail", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "tail length must lie in 2..99, got 1" in captured.err


def test_cut_command(capsys):
    code, out = run(capsys, "cut", "--mu", "1,0.1", "--max-ratio", "2")
    assert code == 0
    grid = json.loads(out)["grid"]
    assert len(grid) == 5 and grid[0] == 1.0 and grid[-1] == 0.1


def test_ratio_check_command(capsys):
    code, out = run(capsys, "ratio-check", "--spectrum", "harmonic:1000", "--tail", "100")
    assert code == 0
    assert json.loads(out)["passes"] is True
    code, out = run(capsys, "ratio-check", "--spectrum", "geometric:0.5:100", "--tail", "20")
    assert code == 0
    assert json.loads(out)["passes"] is False


def test_ratio_check_overflowing_ratio_reads_inf(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("1e308\n1e307\n1e-300\n1e-301\n")  # 1e307 / 1e-300 overflows
    code = main(["ratio-check", "--spectrum", str(path), "--tail", "3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out) == {"passes": False, "maxRatio": "inf", "trendOk": True,
                                        "tailRatios": ["inf", 10.0]}


def test_demo_harmonic_command(capsys):
    code, out = run(
        capsys, "demo-harmonic", "--levels", "2", "--alpha", "0.8", "--delta", "2"
    )
    assert code == 0
    payload = json.loads(out)
    values = [c["value"] for c in payload["unconditionalByLevel"]]
    assert values[1] > values[0]
    assert payload["riesz"]["verdict"] == "NotRiesz"


def test_malformed_matrix_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("2 2\n1 0\n0 1\n9 9\n")
    code, _ = run(capsys, "constants", "--matrix", str(bad))
    assert code == 1


def test_exact_cutoff_above_limit_exit_code(tmp_path, capsys):
    mat = tmp_path / "id4.mtx"
    save_matrix(mat, np.eye(4))
    code = main(["constants", "--matrix", str(mat), "--exact-cutoff", "64"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "exact cutoff 64 exceeds the limit" in captured.err


@pytest.mark.parametrize("command", ["constants", "demo-harmonic"])
def test_negative_exact_cutoff_exit_code(tmp_path, capsys, command):
    with pytest.raises(ValueError, match="exact cutoff must be >= 0"):
        SearchBudget(exact_cutoff=-1)
    mat = tmp_path / "id4.mtx"
    save_matrix(mat, np.eye(4))
    args = ["--matrix", str(mat)] if command == "constants" else ["--levels", "2"]
    code = main([command, *args, "--exact-cutoff", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "exact cutoff must be >= 0, got -1" in captured.err


@pytest.mark.parametrize("command", ["constants", "demo-harmonic"])
def test_negative_seed_exit_code(tmp_path, capsys, command):
    # A k = 5 block is settled by its sign witness and demo-harmonic --levels 2 by its
    # prefix pairs, so neither search draws from the seed: the budget must refuse it.
    mat = tmp_path / "f.mtx"
    save_matrix(mat, olevskii_block(5, 0.8).f)
    args = ["--matrix", str(mat)] if command == "constants" else ["--levels", "2"]
    code = main([command, *args, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "seed must be >= 0, got -1" in captured.err


def test_unknown_command_exit_code(capsys):
    assert main(["no-such-command"]) == 1


def test_matrix_roundtrip_precision(tmp_path, capsys):
    mat = tmp_path / "m.mtx"
    rng = np.random.default_rng(17)
    m = rng.standard_normal((5, 5)) / 3.0
    save_matrix(mat, m)
    assert np.array_equal(load_matrix(mat), m)


def test_json_reports_are_byte_identical(tmp_path, capsys):
    args = [
        "demo-harmonic", "--levels", "2", "--alpha", "0.8", "--delta", "2",
        "--seed", "0",
    ]
    code, first = run(capsys, *args)
    assert code == 0
    code, second = run(capsys, *args)
    assert code == 0
    assert first == second


def reference_text(m):
    """The matrix file of *m* written one format(x, ".17g") at a time."""
    return f"{m.shape[0]} {m.shape[1]}\n" + "".join(
        " ".join(format(x, ".17g") for x in row) + "\n" for row in m.tolist())


def polar_factors(mat):
    factors = polar_decompose(load_matrix(mat))
    return [factors.unitary, factors.positive]


def transformed(mat):
    # -0.5 turns the zeros of F's second column and G*'s second row into -0.0
    pair = transform_right_diagonal(biorthogonal_inverse(load_matrix(mat)), [2.0, -0.5, 1.0, 3.0])
    return [pair.f, pair.gstar]


@pytest.mark.parametrize("argv, outs, expected", [
    (["haar", "--k", "3"], ["--out"], lambda mat: [haar_matrix(3)]),
    (["weight", "--k", "3", "--alpha", "0.8"], ["--out"],
     lambda mat: [np.diag(weight_vector(3, 0.8))]),
    (["block", "--k", "3", "--alpha", "0.8"], ["--out-f", "--out-gstar"],
     lambda mat: [olevskii_block(3, 0.8).f, olevskii_block(3, 0.8).gstar]),
    (["counterexample", "--n", "5"], ["--out-f", "--out-gstar"],
     lambda mat: [summing_counterexample(5).f, summing_counterexample(5).gstar]),
    (["polar", "--matrix", "MAT"], ["--out-unitary", "--out-positive"], polar_factors),
    (["transform", "--matrix", "MAT", "--diag=2,-0.5,1,3"], ["--out-f", "--out-gstar"],
     transformed),
], ids=["haar", "weight", "block", "counterexample", "polar", "transform"])
def test_written_files_match_per_value_reference(tmp_path, argv, outs, expected):
    mat = tmp_path / "in.mtx"
    save_matrix(mat, [[0.0, 3.0, 0.0, -1.0], [2.0, 0.0, 0.5, 0.0],
                      [0.0, -0.0, 1.0, 0.0], [0.25, 0.0, 0.0, 4.0]])
    paths = [tmp_path / f"out{i}.mtx" for i in range(len(outs))]
    argv = [str(mat) if a == "MAT" else a for a in argv]
    argv += [x for flag, path in zip(outs, paths) for x in (flag, str(path))]
    assert main(argv) == 0
    for path, m in zip(paths, expected(mat)):
        assert path.read_text(encoding="ascii") == reference_text(m)


# sha256 of generator outputs: they use no LAPACK, so their bytes do not depend on the BLAS
# build, and a refactor of the generators must leave them as they are.
@pytest.mark.parametrize("argv, digests", [
    (["haar", "--k", "10", "--out", "a.mtx"],
     {"a.mtx": "87302c38de55f48ce925330f6cd4ceab4aa40dab14bf7b5a182023685aaf4be5"}),
    (["weight", "--k", "9", "--alpha", "0.8", "--out", "t.mtx"],
     {"t.mtx": "f77c0de98ed0eafbaa27f44f8d0eccdb976a10d6b399c8d1994dc99d5e7f8f18"}),
    (["block", "--k", "10", "--alpha", "0.8", "--out-f", "f.mtx", "--out-gstar", "g.mtx"],
     {"f.mtx": "6d3570acf03ca2d8462b1fc91c0c30821cae2f47896910def6d2734d3e071461",
      "g.mtx": "6ef50e5fedb5fcf481d352ad74d33e100dc5cf4cfdb666fa771b3d226f10b1ee",
      "stdout": "6548627a92815a21470f3059ff7678569886018a18e3e84f3915fe08c60e349b"}),
    (["counterexample", "--n", "64", "--out-f", "f.mtx", "--out-gstar", "g.mtx"],
     {"f.mtx": "726167244e3043f95c68e5e7a2d2ffb82f8d857339526f9c9a1316c2b7091186",
      "g.mtx": "95f333b8b05dc4cb31f5bca22d1b8252c781dc03e71ec468e2705e4955997326"}),
], ids=["haar", "weight", "block", "counterexample"])
def test_generator_outputs_keep_their_bytes(tmp_path, capsys, monkeypatch, argv, digests):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    outputs = {name: captured.out.encode() if name == "stdout" else Path(name).read_bytes()
               for name in digests}
    assert {name: hashlib.sha256(b).hexdigest() for name, b in outputs.items()} == digests


SRC = Path(__file__).resolve().parent.parent / "src"


def test_readme_cli_block_runs(tmp_path):
    """The README's CLI example, as written, with schaudermat resolved to the module."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    script = ('set -e\nschaudermat() { "$PYTHON" -m schaudermat.cli "$@"; }\n'
              'python3() { "$PYTHON" "$@"; }\n' + block)
    env = dict(os.environ, PYTHON=sys.executable, PYTHONPATH=str(SRC))
    proc = subprocess.run(["sh", "-c", script], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert '"ok": true' in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a2.mtx", "f.mtx", "g.mtx", "plan.json", "sel.json"]


def test_entry_point_exit_codes(tmp_path):
    """The real entry point, python -m schaudermat.cli, in a fresh interpreter."""
    save_matrix(tmp_path / "m.mtx", np.diag([2.0, 1.0]))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cases = [
        (["condition", "--matrix", str(tmp_path / "m.mtx")], 0),
        (["lp-witness", "--lambda1", "0.1", "--lambda2", "10", "--delta", "4.9"], 1),
        (["lp-witness", "--lambda1", "1e-300", "--lambda2", "1e300"], 1),
        (["ratio-check", "--spectrum", "harmonic:100", "--tail", "1"], 1),
        (["select", "--spectrum", "geometric:0.5:100", "--alpha", "0.8", "--delta", "2",
          "--levels", "3"], 2),
    ]
    for argv, expected in cases:
        proc = subprocess.run([sys.executable, "-m", "schaudermat.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == expected, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        if expected == 0:
            assert json.loads(proc.stdout) == {"conditionNumber": 2.0}
        else:
            assert proc.stdout == "" and proc.stderr


def test_singular_sections_write_inf(tmp_path):
    """A singular or zero section has condition number "inf": exit 0, no traceback."""
    nilpotent, zero = tmp_path / "n.mtx", tmp_path / "z.mtx"
    save_matrix(nilpotent, np.array([[0.0, 1.0], [0.0, 0.0]]))
    save_matrix(zero, np.zeros((2, 2)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    riesz = {"sectionSizes": [1, 2], "conditionNumbers": ["inf", "inf"],
             "verdict": "Inconclusive"}
    cases = [
        (["condition", "--matrix", str(nilpotent)], {"conditionNumber": "inf"}),
        (["condition", "--matrix", str(zero)], {"conditionNumber": "inf"}),
        (["riesz", "--matrix", str(nilpotent), "--sections", "1,2"], riesz),
        (["riesz", "--matrix", str(zero), "--sections", "1,2"], riesz),
    ]
    for argv, expected in cases:
        proc = subprocess.run([sys.executable, "-m", "schaudermat.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr and proc.stderr == ""
        assert json.loads(proc.stdout) == expected


def key_lists(obj):
    """The key list of each JSON object in *obj*, outer before nested, in document order."""
    if isinstance(obj, dict):
        yield list(obj)
        obj = list(obj.values())
    for value in obj if isinstance(obj, list) else ():
        yield from key_lists(value)


ESTIMATE = ["value", "mode", "witness", "evaluations"]
RIESZ = ["sectionSizes", "conditionNumbers", "verdict"]
PLAN_KEYS = ["levels", "alpha", "subsets", "cBounds", "leftovers"]
SELECTION = [["plan", "t0PerLevel", "cardinalityPerLevel"], PLAN_KEYS]


@pytest.mark.parametrize("argv, keys", [
    (["constants", "--matrix", "m.mtx"],
     [["basis", "unconditional", "quasinormMin", "quasinormMax"], ESTIMATE, ESTIMATE]),
    (["riesz", "--matrix", "m.mtx", "--sections", "2,4"], [RIESZ]),
    (["condition", "--matrix", "m.mtx"], [["conditionNumber"]]),
    (["select", "--spectrum", "harmonic:10000", "--alpha", "0.8", "--delta", "2",
      "--levels", "2"], SELECTION),
    (["validate-plan", "--spectrum", "harmonic:10000", "--plan", "plan.json"],
     [["ok", "violations"]]),
    (["ratio-check", "--spectrum", "harmonic:1000", "--tail", "50"],
     [["passes", "maxRatio", "trendOk", "tailRatios"]]),
    (["demo-harmonic", "--levels", "2"],
     [["selection", "unitaryDefect", "basisByLevel", "unconditionalByLevel", "quasinormMin",
       "quasinormMax", "riesz"], *SELECTION, *[ESTIMATE] * 4, RIESZ]),
], ids=["constants", "riesz", "condition", "select", "validate-plan", "ratio-check",
        "demo-harmonic"])
def test_report_key_order(tmp_path, capsys, monkeypatch, argv, keys):
    monkeypatch.chdir(tmp_path)
    save_matrix("m.mtx", olevskii_block(2, 0.8).f)
    Path("plan.json").write_text(json.dumps(
        {"levels": 1, "alpha": 0.8, "subsets": [[2, 3]], "cBounds": [[1.5, 3.0]]}))
    code, out = run(capsys, *argv)
    assert code == 0
    assert list(key_lists(json.loads(out))) == keys
