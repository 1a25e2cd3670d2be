import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serrinlab
from serrinlab import cli, stability
from serrinlab.cli import main
from serrinlab.geometry import EllipseDomain, build_domain, domain_from_spec
from serrinlab.identities import ANCHORS
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
    probe = (
        "import sys, serrinlab.cli; "
        "print('scipy.spatial' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False False"


def test_every_flag_is_read():
    # an option whose value no code reads is silently ignored by the run
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    load_domain = inspect.getsource(cli._load_domain)
    ignored = []
    for name, parser in sub.choices.items():
        body = inspect.getsource(parser.get_default("func"))
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            read = f"args.{action.dest}"
            if read in body or (
                "_load_domain(args)" in body and read in load_domain
            ):
                continue
            ignored.append((name, action.option_strings[0]))
    assert ignored == []


def test_readme_names_every_flag():
    # the flags README's CLI section names are the parser's, --help aside
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for p in (parser, *sub.choices.values())
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    assert documented - {"--help"} == options - {"--help"}


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
    assert data["extras"]["rigidity_holds"] is True


def test_verify_identity_tight_tol_fails(tmp_path, pdisk_spec, monkeypatch):
    monkeypatch.setattr(cli, "IDENTITY_TOL", 1e-12)
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "verify-identity", "--identity", "general_1_9",
         "--domain", pdisk_spec, "--h-target", "0.1"]
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


# sha256 of the pointwise_identity.csv of --N 2,3,4,5 --cases 20 per seed,
# written by the rational-coefficient implementation, which the packed-key
# integer-numerator one reproduces byte for byte; the wide rings (seed 0,
# --N 6,7,8 --cases 3) are pinned from the tuple-keyed integer-numerator one
POINTWISE_CSV_SHA256 = {
    0: "8f819dff42a4fe09e8150ac17ec28a44cb47d23a90191372ee3242daf84e3fad",
    1: "02a678a1e00f07b65f9bb488c815434f115fa418928818c1fbc8a1259e92ee31",
    2: "98163f18c814abfc1f65ac845cbaf023fa719108b504a874ce57ac644bb5913c",
}
POINTWISE_WIDE_CSV_SHA256 = (
    "fbbf3f2e900dbf3dca3747c8cc4343a3bb3d1ba6498759ae9a4340d70de34e54"
)


@pytest.mark.parametrize(
    "seed,dims,cases,digest",
    [(seed, "2,3,4,5", 20, h) for seed, h in sorted(POINTWISE_CSV_SHA256.items())]
    + [(0, "6,7,8", 3, POINTWISE_WIDE_CSV_SHA256)],
    ids=[*map(str, sorted(POINTWISE_CSV_SHA256)), "wide"],
)
def test_pointwise_identity_csv_pinned(tmp_path, capsys, seed, dims, cases, digest):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "--seed", str(seed), "pointwise-identity",
         "--N", dims, "--degree", "4", "--cases", str(cases)]
    )
    assert code == 0
    data = (out / "pointwise_identity.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


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
    assert header == [
        "epsilon", "rho_gap", "osc_gamma_u", "grad_inf", "grad_l2",
        "tangential_norm", "c1alpha_norm", "uniform", "weak",
        "z_x", "z_y", "delta_z", "mesh_h", "in_smallness_regime", "flags",
    ]
    assert rows and all(len(row) == len(header) for row in rows)
    for row in rows:
        for name, cell in zip(header, row):
            if name != "flags":
                float(cell)
    fits = json.loads((tmp_path / "a" / "exponent_fits.json").read_text())
    # 2k / ((k - 1)(k + 2)) at k = 2
    assert fits["c_fit_first_order"] == 1.0


@pytest.mark.parametrize(
    "content", [None, "dir", b"{bad", b"\xff\xfe"],
    ids=["missing", "directory", "malformed-json", "not-utf8"],
)
def test_missing_domain_file_is_operational_error(tmp_path, capsys, content):
    path = tmp_path / "spec.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    out = tmp_path / "r"
    code = main(["--out", str(out), "solve", "--domain", str(path), "--h-target", "0.1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert json.loads((out / "manifest.json").read_text())["status"] == 1


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
        (None, ["sweep", "--amplitudes", "0.01,0.02,0.04", "--h-target", "0.3"]),
        (None, ["sweep", "--mode", "0", "--h-target", "0.3"]),
        (None, ["sweep", "--mode", "-2", "--h-target", "0.3"]),
        (None, ["strong-deviation", "--amplitudes", "0.05,0.1", "--h-target", "0.3"]),
        (None, ["strong-deviation", "--amplitudes", "0,0.05,0.1", "--h-target", "0.3"]),
        (None, ["strong-deviation", "--amplitudes=-0.05,-0.1,-0.2", "--h-target", "0.3"]),
        (None, ["sweep", "--dof-cap", "10", "--h-target", "0.3"]),
        (None, ["sweep", "--alpha", "0", "--h-target", "0.3"]),
        (None, ["sweep", "--alpha", "1.5", "--h-target", "0.3"]),
        ({"ellipse": [2, 1]}, ["check-bounds", "--alpha", "0", "--h-target", "0.3"]),
        ({"ellipse": [2, 1]}, ["check-bounds", "--alpha", "1.5", "--h-target", "0.3"]),
        ({"ellipse": [2, 1]}, ["check-bounds", "--alpha", "-1", "--h-target", "0.3"]),
        (None, ["strong-deviation", "--amplitudes", "0.025,0.05,0.1", "--alpha", "0"]),
        (None, ["strong-deviation", "--amplitudes", "0.025,0.05,0.1", "--alpha", "1.5"]),
        (None, ["strong-deviation", "--amplitudes", "0.025,0.05,0.1", "--alpha", "-1"]),
        ({"rho0": "1"}, ["solve", "--h-target", "0.2"]),
        ({"ellipse": ["2", 1]}, ["solve", "--h-target", "0.2"]),
        ({"ellipse": [1e200, 1e200]}, ["solve", "--h-target", "0.2"]),
        ({"rho0": True}, ["solve", "--h-target", "0.2"]),
        ({"rho0": 1, "center": ["0.1", 0]}, ["solve", "--h-target", "0.2"]),
        ({"ellipse": [2, 1], "center": [1e17, 0]}, ["solve", "--h-target", "0.2"]),
        ({"rho0": 1.0, "modes": []},
         ["verify-identity", "--identity", "general_1_9", "--z", "0.1,0.2"]),
        ({"rho0": 1.0, "mode": [[2, 0.05, 0.0]]}, ["solve", "--h-target", "0.1"]),
    ],
)
def test_bad_input_is_operational_error(tmp_path, capsys, monkeypatch, spec, argv):
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = argv + ["--domain", str(path)]
    meshes = []   # the meshes built: generate_mesh may reject its h_target

    def recording(*args):
        mesh = generate_mesh(*args)
        meshes.append(args)
        return mesh

    for module in (cli, stability):
        monkeypatch.setattr(module, "generate_mesh", recording)
    code = main(["--out", str(tmp_path / "r")] + argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    manifest = tmp_path / "r" / "manifest.json"
    if manifest.parent.exists():   # the run had started, so it records the failure
        assert json.loads(manifest.read_text())["status"] == 1
    assert meshes == []   # bad input fails before any mesh is built


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ["--N", "100000000000000000000000"],
        ["--N", "1000000", "--degree", "2", "--cases", "1"],
        ["--degree", "100000"],
    ],
    ids=["huge-dimension", "ring-of-dimension", "ring-of-degree"],
)
def test_pointwise_ring_beyond_cap_fails_fast(tmp_path, argv):
    """Rings beyond the cap are rejected before any polynomial is built.
    Without that they crash, exhaust memory or run for minutes, so each runs
    in a fresh interpreter with 1 GiB of address space and a timeout."""
    src = str(Path(serrinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-m", "serrinlab.cli", "--out", str(tmp_path / "r"),
         "pointwise-identity", *argv],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=_one_gib_address_space,
    )
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


# valid specs: every star spec has a mode row, and all pass build_domain
_valid_specs = st.one_of(
    st.fixed_dictionaries({
        "rho0": st.floats(0.5, 1.5),
        "modes": st.lists(
            st.tuples(st.integers(1, 3), st.floats(-0.02, 0.02), st.floats(-0.02, 0.02))
            .map(list),
            min_size=1, max_size=2,
        ),
        "center": st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(list),
    }),
    st.fixed_dictionaries({
        "ellipse": st.tuples(st.floats(1.0, 2.0), st.floats(1.0, 2.0)).map(list),
        "center": st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(list),
    }),
)

# JSON values of the wrong kind for a number or a point
_wrong_kind = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["1", "0.5", "-2", "1e3", "NaN"]),
    st.booleans(),
    st.none(),
    st.lists(st.lists(st.floats(0.5, 1.5), min_size=1, max_size=2),
             min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.floats(0.5, 1.5), max_size=2),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e200, -1e200]),
)


@st.composite
def _invalid_specs(draw):
    """A valid spec with one field (rho0, a mode entry, the center or an
    ellipse axis) replaced by a value of the wrong kind."""
    spec = draw(_valid_specs)
    domain_from_spec(spec)
    if "rho0" in spec:
        where = draw(st.sampled_from(["rho0", "mode", "center"]))
    else:
        where = draw(st.sampled_from(["ellipse", "center"]))
    bad = draw(_wrong_kind)
    if where == "mode":
        row = draw(st.sampled_from(spec["modes"]))
        row[draw(st.integers(0, 2))] = bad
    elif where == "ellipse":
        spec["ellipse"][draw(st.integers(0, 1))] = bad
    else:
        spec[where] = bad
    return spec


@settings(max_examples=100)
@given(spec=_invalid_specs())
def test_wrong_kind_spec_values_are_operational_errors(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = main(["--out", str(Path(tmp) / "r"), "solve", "--domain", str(path),
                         "--h-target", "0.2"])
        assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.getvalue().startswith("error:")


def _parses(kind, text):
    try:
        kind(text)
    except ValueError:
        return False
    return True


def _invalid(kind):
    """Text of a value of `kind` (int or float) that is not a number (and holds
    no comma), not finite, negative or zero."""
    return st.one_of(
        st.text(max_size=5).filter(lambda t: "," not in t and not _parses(kind, t)),
        st.sampled_from(["nan", "-inf", "inf", "NaN", "1e999"]),
        st.floats(max_value=0.0).map(repr) if kind is float
        else st.integers(max_value=0).map(str),
    )


def _invalid_list(kind, valid):
    """A comma-separated list of valid entries with one invalid entry."""
    def join(drawn):
        entries, bad, at = drawn
        return ",".join([*entries[:at], bad, *entries[at:]])

    return st.tuples(st.lists(st.sampled_from(valid), max_size=3), _invalid(kind),
                     st.integers(0, 3)).map(join)


def _unknown(choices):
    return st.text(max_size=12).filter(lambda t: t not in choices)


# a valid value of each value-taking flag of each subcommand, --domain aside
_VALID_FLAGS = {
    "solve": {"--h-target": "0.2", "--problem": "torsion-neumann"},
    "verify-identity": {"--h-target": "0.2", "--identity": "general_1_9"},
    "pointwise-identity": {"--N": "2", "--degree": "2", "--cases": "1"},
    "spectral": {"--h-target": "0.2"},
    "sweep": {"--h-target": "0.3", "--mode": "2",
              "--amplitudes": "0.0125,0.025,0.05,0.1"},
    "check-bounds": {"--h-target": "0.2"},
    "strong-deviation": {"--h-target": "0.3", "--mode": "2",
                         "--amplitudes": "0.025,0.05,0.1"},
    "convergence": {"--identity": "general_1_9", "--h-list": "0.1,0.2,0.3"},
}
_INVALID_VALUES = {
    "--h-target": _invalid(float),
    "--amplitudes": _invalid_list(float, ["0.025", "0.05", "0.1"]),
    "--h-list": _invalid_list(float, ["0.1", "0.2", "0.3"]),
    "--N": _invalid_list(int, ["2", "3"]),
    "--degree": _invalid(int),
    "--cases": _invalid(int),
    "--mode": _invalid(int),
    "--identity": _unknown(ANCHORS),
    "--problem": _unknown(["torsion-dirichlet", "torsion-neumann", "harmonic"]),
}


def _value_flags(command):
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {a.option_strings[0] for a in sub.choices[command]._actions if a.nargs != 0}


def test_invalid_flag_table_names_every_value_flag():
    for command, flags in _VALID_FLAGS.items():
        assert _value_flags(command) - {"--domain"} == set(flags)


@pytest.fixture(scope="module")
def disk_spec_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("invalid-flags")
    (path / "disk.json").write_text(json.dumps({"rho0": 1.0, "modes": []}))
    return path


@pytest.mark.parametrize("command", sorted(_VALID_FLAGS))
@settings(max_examples=25)
@given(data=st.data())
def test_invalid_flag_values_fail_before_meshing(disk_spec_dir, command, data):
    valid = _VALID_FLAGS[command]
    flag = data.draw(st.sampled_from(sorted(valid)))
    value = data.draw(_INVALID_VALUES[flag])
    argv = ["--out", str(disk_spec_dir / "r"), command]
    argv += [f"{f}={value if f == flag else v}" for f, v in valid.items()]
    if "--domain" in _value_flags(command):
        argv += ["--domain", str(disk_spec_dir / "disk.json")]
    meshes = []

    def recording(*args):
        meshes.append(args)
        return generate_mesh(*args)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        for module in (cli, stability):
            mp.setattr(module, "generate_mesh", recording)
        code = main(argv)
    assert code == 1 and meshes == []
    assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()


def test_failed_run_writes_manifest(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["--out", str(out), "pointwise-identity", "--cases", "0"])
    assert code == 1
    err = capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 1
    assert manifest["command"] == "pointwise-identity"
    assert manifest["error"] in err


def test_config_hash_covers_what_the_run_reads(tmp_path, disk_spec):
    def config_hash(*argv):
        out = tmp_path / f"r{len(list(tmp_path.iterdir()))}"
        assert main(["--out", str(out), *argv]) == 0
        return json.loads((out / "manifest.json").read_text())["config_hash"]

    solve = ["solve", "--domain", disk_spec, "--h-target", "0.2"]
    assert config_hash("--seed", "0", *solve) == config_hash("--seed", "7", *solve)
    poly = ["pointwise-identity", "--N", "2", "--degree", "2", "--cases", "1"]
    assert config_hash("--seed", "0", *poly) != config_hash("--seed", "7", *poly)
    assert config_hash("--seed", "7", *poly) == config_hash("--seed", "7", *poly)
    # the subcommands that read --seed are the ones whose hash keeps it
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    seeded = {name for name, parser in sub.choices.items()
              if "args.seed" in inspect.getsource(parser.get_default("func"))}
    assert seeded == cli.SEEDED


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
    # the variable is the only cap, so every meshing path must honour it
    monkeypatch.setenv("SERRINLAB_DOF_CAP", "100")
    for argv in (
        ["solve", "--domain", disk_spec, "--h-target", "0.1"],
        ["sweep", "--h-target", "0.1"],
        ["strong-deviation", "--amplitudes", "0.05,0.1,0.2", "--h-target", "0.1"],
        ["convergence", "--identity", "general_1_9", "--domain", disk_spec],
    ):
        assert main(["--out", str(tmp_path / argv[0])] + argv) == 1, argv[0]


def test_dof_cap_env_var_not_integer(tmp_path, disk_spec, monkeypatch, capsys):
    monkeypatch.setenv("SERRINLAB_DOF_CAP", "abc")
    code = main(
        ["--out", str(tmp_path / "r"), "solve", "--domain", disk_spec,
         "--h-target", "0.1"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")



@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="glibc's mallopt and /proc/self/maps",
)
def test_large_arrays_stay_mapped_after_a_large_free():
    """Freeing an 8 MiB block raises glibc's dynamic mmap threshold, which
    would put the next 5 MiB array on the heap; once `main` has pinned the
    threshold at 4 MiB it is mapped on its own.  A fresh interpreter, so
    that no free heap block of an earlier test can hold the array."""
    src = str(Path(serrinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import numpy as np, serrinlab.cli; "
        "serrinlab.cli.main(['sweep', '--no-such-flag']); "
        "np.ones(1 << 20); block = np.ones(5 << 17); "
        "heap = [[int(x, 16) for x in line.split()[0].split('-')] "
        "for line in open('/proc/self/maps') if line.rstrip().endswith('[heap]')]; "
        "print(any(lo <= block.ctypes.data < hi for lo, hi in heap))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
