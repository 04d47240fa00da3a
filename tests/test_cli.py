import json
import math

import numpy as np
import pytest

from schaudermat import haar_matrix, load_matrix, save_matrix
from schaudermat.cli import main


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
    assert lines[1] == "basis,1"


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
