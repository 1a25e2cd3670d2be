import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import serrinlab
from serrinlab.cli import main
from serrinlab.geometry import EllipseDomain, build_domain
from serrinlab.meshfem import generate_mesh, solve_torsion_neumann
from serrinlab.stability import convergence_study


@pytest.fixture()
def disk_spec(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps({"rho0": 1.0, "modes": []}))
    return str(path)


@pytest.fixture()
def pdisk_spec(tmp_path):
    path = tmp_path / "pdisk.json"
    path.write_text(json.dumps({"rho0": 1.0, "modes": [[2, 0.05, 0.0]]}))
    return str(path)


def test_solve_writes_artifacts(tmp_path, disk_spec):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "solve", "--domain", disk_spec,
         "--h-target", "0.1", "--problem", "torsion-dirichlet"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 0
    assert any("solve_report.json" in a for a in manifest["artifacts"])
    report = json.loads((out / "solve_report.json").read_text())
    assert abs(report["center_value"] + 0.5) < 1e-5


def test_solve_writes_field_npz(tmp_path, pdisk_spec):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "solve", "--domain", pdisk_spec,
         "--h-target", "0.2", "--problem", "torsion-neumann"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert any(a.endswith("field.npz") for a in manifest["artifacts"])
    report = json.loads((out / "solve_report.json").read_text())
    assert report["domain"]["modes"] == [[2, 0.05, 0.0]]
    u = solve_torsion_neumann(generate_mesh(build_domain(1.0, [(2, 0.05, 0.0)]), 0.2))
    with np.load(out / "field.npz") as data:
        assert np.array_equal(data["coeffs"], u.coeffs)
        assert np.array_equal(data["nodes"], u.mesh.nodes)
        assert np.array_equal(data["triangles"], u.mesh.triangles)
        assert np.array_equal(data["boundary_idx"], u.mesh.boundary_idx)
        assert np.array_equal(data["boundary_theta"], u.mesh.boundary_theta)


def test_verify_identity_general_matches_convergence_row(tmp_path, pdisk_spec):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "verify-identity", "--identity", "general_1_9",
         "--domain", pdisk_spec, "--h-target", "0.1"]
    )
    assert code == 0
    data = json.loads((out / "identity_general_1_9.json").read_text())
    rows, _, _ = convergence_study(
        build_domain(1.0, [(2, 0.05, 0.0)]), "general_1_9", [0.2, 0.15, 0.1]
    )
    assert rows[-1]["h"] == 0.1
    assert data["rel_residual"] == rows[-1]["rel_residual"]


def test_cli_import_does_not_load_scipy_spatial():
    src = str(Path(serrinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, serrinlab.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_verify_identity_rigid(tmp_path, disk_spec):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "verify-identity", "--identity", "neumann_1_11",
         "--domain", disk_spec, "--h-target", "0.1"]
    )
    assert code == 0
    data = json.loads((out / "identity_neumann_1_11.json").read_text())
    assert data["identity"] == "neumann_1_11"
    assert data["anchor"] == "Eq. (1.11)"
    assert abs(data["abs_residual"]) < 1e-8


def test_verify_identity_tight_tol_fails(tmp_path, pdisk_spec):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "verify-identity", "--identity", "general_1_9",
         "--domain", pdisk_spec, "--h-target", "0.1", "--tol", "1e-12"]
    )
    assert code == 2


def test_pointwise_identity(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "pointwise-identity", "--N", "2,3",
         "--degree", "3", "--cases", "3"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all("zero_residual=True" in ln for ln in lines)


def test_spectral_command(tmp_path, disk_spec):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "spectral", "--domain", disk_spec,
         "--h-target", "0.1"]
    )
    assert code == 0
    data = json.loads((out / "spectral.json").read_text())
    assert abs(data["sigma2"] - 1.0) < 5e-3
    assert abs(data["nu2"] - 3.39) < 0.02


def test_check_bounds_command(tmp_path, pdisk_spec):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "check-bounds", "--domain", pdisk_spec,
         "--h-target", "0.1"]
    )
    assert code == 0
    data = json.loads((out / "bounds.json").read_text())
    assert data["geometric"]["quadratic_slack_min"] >= -1e-3
    assert data["l2_bound"]["slack"] >= -1e-3


def test_sweep_csv_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["--out", str(out), "sweep", "--mode", "2",
             "--amplitudes", "0.05,0.075,0.1,0.15", "--h-target", "0.1"]
        )
        assert code == 0
        outs.append((out / "sweep_records.csv").read_text())
    assert outs[0] == outs[1]
    header, *rows = [line.split(",") for line in outs[0].splitlines()]
    assert rows and all(len(row) == len(header) for row in rows)
    for row in rows:
        for name, cell in zip(header, row):
            if name != "flags":
                float(cell)


def test_missing_domain_file_is_operational_error(tmp_path):
    code = main(
        ["--out", str(tmp_path / "r"), "solve", "--domain",
         str(tmp_path / "nope.json"), "--h-target", "0.1"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "spec, argv",
    [
        ({"rho0": 1.0, "modes": []}, ["solve", "--h-target", "1.5"]),
        ({"modes": []}, ["solve", "--h-target", "0.1"]),
        ({"rho0": "one"}, ["solve", "--h-target", "0.1"]),
        (None, ["sweep", "--amplitudes", "0.05,nan", "--h-target", "0.1"]),
        ({"rho0": 1.0, "modes": [[2, 0.05]]}, ["solve", "--h-target", "0.1"]),
        ({"ellipse": [2]}, ["solve", "--h-target", "0.1"]),
        ({"rho0": 1.0, "modes": []}, ["solve", "--h-target", "1e-9"]),
        (None, ["sweep", "--amplitudes", "abc"]),
        (None, ["strong-deviation", "--amplitudes", "abc"]),
        ({"rho0": 1.0, "modes": []},
         ["convergence", "--identity", "general_1_9", "--h-list", "0.1,x"]),
        (None, ["pointwise-identity", "--N", "two"]),
        ({"rho0": 1.0, "modes": []},
         ["verify-identity", "--identity", "general_1_9", "--z", "0.1,0.2,0.3"]),
        ({"rho0": 1.0, "modes": []},
         ["verify-identity", "--identity", "general_1_9", "--z", "0.1"]),
        (None, ["pointwise-identity", "--N", "1"]),
        (None, ["pointwise-identity", "--degree", "1"]),
        ({"rho0": 1.0, "modes": [[2.5, 0.05, 0]]}, ["solve", "--h-target", "0.1"]),
        (None, ["strong-deviation"]),
        (None, ["sweep", "--alpha", "nan", "--h-target", "0.3"]),
        (None, ["sweep", "--alpha", "-1", "--h-target", "0.3"]),
        (None, ["sweep", "--alpha", "2", "--h-target", "0.3"]),
        ({"rho0": 1.0, "modes": []},
         ["convergence", "--identity", "general_1_9", "--h-list", "0.2,0.2,0.2"]),
        ({"rho0": 1.0, "modes": []}, ["solve", "--h-target", "abc"]),
        (None, ["pointwise-identity", "--cases", "x"]),
        (None, ["sweep", "--no-such-flag"]),
        ({"rho0": 1.0, "modes": []}, ["solve", "--h-target", "0.3", "--alpha", "nan"]),
        ({"rho0": 1.0, "modes": []}, ["spectral", "--alpha", "-5"]),
        (None, ["pointwise-identity", "--cases", "0"]),
        (None, ["pointwise-identity", "--cases", "-3"]),
        ({"rho0": 1.0, "modes": [[2, 0.05, 0.0]]},
         ["verify-identity", "--identity", "neumann_1_11", "--h-target", "0.2",
          "--tol", "nan"]),
        ({"rho0": 1.0, "modes": [[2, 0.05, 0.0]]},
         ["verify-identity", "--identity", "neumann_1_11", "--h-target", "0.2",
          "--tol", "inf"]),
        (None, ["sweep", "--r2-min", "nan"]),
        (None, ["sweep", "--slope-max", "inf"]),
    ],
)
def test_bad_input_is_operational_error(tmp_path, capsys, spec, argv):
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = argv + ["--domain", str(path)]
    code = main(["--out", str(tmp_path / "r")] + argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_failed_run_writes_manifest(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["--out", str(out), "pointwise-identity", "--cases", "0"])
    assert code == 1
    err = capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 1
    assert manifest["command"] == "pointwise-identity"
    assert manifest["error"] in err


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_out_that_is_not_a_directory(tmp_path, capsys, sub):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["--out", str(blocker / sub), "pointwise-identity", "--cases", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert blocker.read_text() == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--h-target" in capsys.readouterr().out


def test_convergence_study_rigid_flag(disk_spec):
    rows, order, flag = convergence_study(
        build_domain(1.0, []), "neumann_1_11", [0.2, 0.1, 0.05]
    )
    assert flag == "rigid"
    assert order is None


def test_convergence_study_classical_ellipse():
    # the ellipse torsion field is a global quadratic, so the identity sits
    # at the converged noise floor on every level
    rows, order, flag = convergence_study(
        EllipseDomain(2.0, 1.0), "classical_1_2", [0.2, 0.1, 0.05]
    )
    assert flag == "converged"
    assert all(r["rel_residual"] <= 1e-6 for r in rows)


def test_convergence_study_perturbed_neumann():
    rows, order, flag = convergence_study(
        build_domain(1.0, [(2, 0.05, 0.0)]), "neumann_1_11", [0.2, 0.1, 0.05]
    )
    assert flag is None
    assert order >= 1.0
    res = [r["rel_residual"] for r in rows]
    assert res[-1] < res[0]


def test_dof_cap_env_var(tmp_path, disk_spec, monkeypatch):
    monkeypatch.setenv("SERRINLAB_DOF_CAP", "100")
    code = main(
        ["--out", str(tmp_path / "r"), "solve", "--domain", disk_spec,
         "--h-target", "0.1"]
    )
    assert code == 1


def test_dof_cap_env_var_not_integer(tmp_path, disk_spec, monkeypatch, capsys):
    monkeypatch.setenv("SERRINLAB_DOF_CAP", "abc")
    code = main(
        ["--out", str(tmp_path / "r"), "solve", "--domain", disk_spec,
         "--h-target", "0.1"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
