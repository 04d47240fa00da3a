import json
import math

import numpy as np
import pytest

from schaudermat import (
    SearchBudget,
    basis_constant,
    biorthogonal_inverse,
    cardinality_profile,
    haar_matrix,
    load_matrix,
    olevskii_block,
    parse_spectrum,
    quasinormality_bounds,
    riesz_diagnostic,
    save_matrix,
    segment_cut,
    unconditional_constant,
)
from schaudermat.cli import build_parser, main


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


@pytest.mark.parametrize("argv, message", [
    (["counterexample", "--n", "4097", "--out-f", "f.mtx", "--out-gstar", "g.mtx"],
     "n must lie in 1..4096, got 4097"),
    (["profile", "--spectrum", "harmonic:10000001", "--delta", "2", "--ts", "1"],
     "spectrum length must be at most 10000000, got 10000001"),
    (["cut", "--mu", "1,0.1", "--max-ratio", "1.0000001"],
     "refined grid length must be at most 10000000, got 23025854"),
    (["cut", "--mu", "inf,1", "--max-ratio", "2"], "grid must be strictly decreasing"),
    (["cut", "--mu", "1,0.1", "--max-ratio", "nan"], "ratio bound must be finite and exceed 1"),
], ids=["counterexample", "profile", "cut-length", "cut-inf", "cut-nan"])
def test_sizes_above_limit_exit_code(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []


def test_counterexample_and_dual(tmp_path, capsys):
    f = tmp_path / "f.mtx"
    g = tmp_path / "g.mtx"
    code, _ = run(capsys, "counterexample", "--n", "4", "--out-f", str(f), "--out-gstar", str(g))
    assert code == 0
    code, out = run(capsys, "dual-constants", "--matrix", str(f))
    assert code == 0
    assert json.loads(out)["dualBasis"] >= 2.0


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


def test_lp_witness_command(capsys):
    code, out = run(capsys, "lp-witness", "--lambda1", "0.1", "--lambda2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["normValue"] == pytest.approx(math.sqrt(0.505 * 50.5))
    assert payload["bound"] == pytest.approx(10.0 / (2.0 * math.sqrt(2.0)))


def test_profile_command(capsys):
    code, out = run(
        capsys, "profile", "--spectrum", "harmonic:1000", "--delta", "2", "--ts", "0.1,0.01"
    )
    assert code == 0
    assert json.loads(out)["counts"] == [11, 101]


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
], ids=["no-cBounds", "no-subsets", "int-subsets", "triple-cBounds"])
def test_validate_plan_malformed_exit_code(tmp_path, capsys, plan, message):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    code = main(["validate-plan", "--spectrum", "harmonic:10", "--plan", str(plan_file)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err

def test_select_failure_exit_code(capsys):
    code, _ = run(
        capsys,
        "select", "--spectrum", "geometric:0.5:100", "--alpha", "0.8",
        "--delta", "2", "--levels", "3",
    )
    assert code == 2


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
