import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridbase
from gridbase import cli
from gridbase import hvac_model as hm
from gridbase import scenario as sc
from gridbase import sensitivity as sn
from gridbase.cli import main


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "moderate.csv"
    sc.write_profile(sc.synth_profile("moderate", seed=42), path)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_solve_reports_certified_point(capsys, profile_path):
    doc = _run_json(capsys, "solve", "--profile", profile_path,
                    "--hour", "12")
    assert doc["J0_W"] > 0
    assert doc["residuals"]["stationarity"] <= 1e-6
    assert len(doc["lambda"]) == 34


def test_sensitivity_report(capsys, profile_path):
    doc = _run_json(capsys, "sensitivity", "--profile", profile_path,
                    "--hour", "12", "--mask", "T_oa", "--alpha", "0.01",
                    "--samples", "128")
    assert doc["mask"] == ["T_oa"]
    assert doc["beta"]["monte_carlo"] <= doc["beta"]["holder_paper_literal"]


@pytest.mark.parametrize("method,name", [
    ("holder", "holder_half"),
    ("holder-literal", "holder_paper_literal"),
    ("sample", "monte_carlo"),
])
def test_bound_methods(capsys, profile_path, method, name):
    doc = _run_json(capsys, "bound", "--profile", profile_path,
                    "--hour", "12", "--mask", "T_oa", "--alpha", "0.01",
                    "--samples", "64", "--method", method)
    assert doc["method"] == name
    assert doc["beta_W"] >= 0.0


def test_synth_then_run_day(capsys, tmp_path):
    prof = tmp_path / "hot.csv"
    out = tmp_path / "results.csv"
    doc = _run_json(capsys, "synth", "--day", "hot", "--seed", "3",
                    "--out", str(prof))
    assert doc["hours"] == 7
    doc = _run_json(capsys, "run-day", "--profile", str(prof),
                    "--mask", "T_oa", "--alpha", "0.01",
                    "--samples", "64", "--out", str(out))
    assert doc["failed_hours"] == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert all(float(r["J0_W"]) > 0 for r in rows)


def test_run_day_byte_identical_reruns(capsys, profile_path, tmp_path):
    outs = []
    args = ("run-day", "--profile", profile_path, "--mask", "T_oa",
            "--alpha", "0.01", "--samples", "64")
    for tag, threads in (("a", None), ("b", None), ("c", 5)):
        out = tmp_path / f"{tag}.csv"
        argv = args + ("--out", str(out))
        if threads:
            argv += ("--threads", str(threads))
        code = main(list(argv))
        capsys.readouterr()
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_validate_passes(capsys):
    code, out, _ = _run(capsys, "validate")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


@pytest.mark.parametrize("override", [
    {"c_f": [0.36, 0.31, -0.54, 0.87]}, {"zone_count": 3}],
    ids=["fan_curve", "zone_count"])
def test_validate_passes_with_another_valid_fan_curve(capsys, tmp_path,
                                                      override):
    """The curve identities test the built-in curves their constants
    describe; a --params file with another valid fan curve still passes
    the suite, which solves and bounds its hour with that curve. The
    hour's five zones are cycled to the file's zone_count."""
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(override))
    code, out, _ = _run(capsys, "validate", "--params", str(pfile))
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 7 and all(l.startswith("PASS") for l in lines)


def test_params_env_var(capsys, profile_path, tmp_path, monkeypatch):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"alpha_el": 6.334}))
    base = _run_json(capsys, "solve", "--profile", profile_path,
                     "--hour", "12")
    monkeypatch.setenv("GRIDBASE_PARAMS", str(pfile))
    dear = _run_json(capsys, "solve", "--profile", profile_path,
                     "--hour", "12")
    assert dear["J0_W"] > base["J0_W"]
    assert dear["parameters"]["alpha_el"] == 6.334


def test_version_flag(capsys):
    code, out, _ = _run(capsys, "--version")
    assert code == 0
    assert out.startswith("gridbase ")


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def _emitted(capsys, doc, params):
    """`doc` as `_emit` prints it, parsed back."""
    cli._emit(doc, params)
    return json.loads(capsys.readouterr().out)


def _moderate_operator(solve_cached, moderate_hour):
    spec = sn.uncertainty_spec(moderate_hour, ("T_oa",), 0.02)
    return sn.build_operator(solve_cached(moderate_hour), moderate_hour,
                             spec), spec


def test_report_structure(capsys, hot_hour, solve_cached):
    kkt = solve_cached(hot_hour)
    doc = _emitted(capsys, cli._solve_doc(kkt, hot_hour), hot_hour.params)
    assert doc["J0_W"] == kkt.j0
    assert len(doc["lambda"]) == 34
    assert set(doc["residuals"]) == {"stationarity", "complementarity",
                                     "feasibility"}
    assert doc["prng"] == "PCG64"
    assert "parameters" in doc and "version" in doc


def test_solve_doc_states_the_solver_config(hot_hour, solve_cached):
    fixed = {"kkt_tol": 1e-6, "feas_tol": 1e-8, "act_tol": 1e-6,
             "multistart_count": 8, "max_iterations": 300}
    assert cli._solve_doc(solve_cached(hot_hour), hot_hour)["config"] == fixed


def test_report_contents(moderate_hour, solve_cached):
    op, spec = _moderate_operator(solve_cached, moderate_hour)
    rep = cli._sensitivity_doc(op, moderate_hour, spec, n_samples=256,
                               seed=5)
    assert rep["anchor"]["J0_W"] == op.anchor.j0
    assert rep["mask"] == ["T_oa"]
    assert rep["alpha"] == 0.02
    assert set(rep["beta"]) == {"holder_half", "holder_paper_literal",
                                "monte_carlo"}
    assert rep["beta"]["holder_paper_literal"] >= rep["beta"]["holder_half"]
    assert rep["monte_carlo"]["seed"] == 5
    assert rep["rank_ok"] is True
    # the warning appears exactly when the anchor is weakly degenerate
    assert ("warning" in rep) == (not op.anchor.strict_complementarity_ok)


def test_report_flags_degenerate_anchor(moderate_hour, solve_cached):
    op, spec = _moderate_operator(solve_cached, moderate_hour)
    weak = dataclasses.replace(op.anchor, strict_complementarity_ok=False)
    op2 = dataclasses.replace(op, anchor=weak)
    rep = cli._sensitivity_doc(op2, moderate_hour, spec, n_samples=64,
                               seed=0)
    assert "warning" in rep


@pytest.mark.parametrize("params_file", [False, True],
                         ids=["nominal", "params_file"])
@pytest.mark.parametrize("command", [
    "solve", "sensitivity", "bound", "run-day", "synth"])
def test_every_document_carries_the_envelope(capsys, profile_path, tmp_path,
                                             command, params_file):
    """Every JSON document carries the package version, and each one that
    solves carries the run's parameters; `synth` solves nothing, so it
    refuses `--params` as a usage error."""
    hour = ["--profile", profile_path, "--hour", "12"]
    bound = ["--mask", "T_oa", "--alpha", "0.01", "--samples", "64"]
    out = ["--out", str(tmp_path / "out.csv")]
    argv = {"solve": hour, "sensitivity": hour + bound, "bound": hour + bound,
            "run-day": ["--profile", profile_path] + bound + out,
            "synth": ["--day", "hot"] + out}[command]
    params = hm.HvacParameters()
    if params_file:
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"alpha_ng": 1.5}))
        argv = argv + ["--params", str(pfile)]
        params = hm.load_parameters(pfile)
        if command == "synth":
            code, _, err = _run(capsys, command, *argv)
            assert code == 2 and "--params" in err
            assert not (tmp_path / "out.csv").exists()
            return
    doc = _run_json(capsys, command, *argv)
    assert doc["version"] == gridbase.__version__
    if command == "synth":
        assert "parameters" not in doc
    else:
        assert doc["parameters"] == hm.dump_parameters(params)


# ---------------------------------------------------------------------------
# failure paths and exit codes
# ---------------------------------------------------------------------------

def test_missing_profile_is_usage_error(capsys):
    code, _, err = _run(capsys, "solve", "--profile", "/no/such.csv",
                        "--hour", "9")
    assert code == 2
    assert "error:" in err


def test_missing_hour_is_usage_error(capsys, profile_path):
    code, _, err = _run(capsys, "solve", "--profile", profile_path,
                        "--hour", "99")
    assert code == 2


def test_unknown_mask_label_is_usage_error(capsys, profile_path):
    code, _, err = _run(capsys, "sensitivity", "--profile", profile_path,
                        "--hour", "12", "--mask", "T_surface",
                        "--alpha", "0.01")
    assert code == 2


def test_repeated_mask_label_is_usage_error(capsys, profile_path):
    code, _, err = _run(capsys, "bound", "--profile", profile_path,
                        "--hour", "12", "--mask", "T_oa,T_oa",
                        "--alpha", "0.01")
    assert code == 2
    assert "mask label 'T_oa' appears more than once" in err


@pytest.mark.parametrize("command", ["bound", "sensitivity"])
def test_bad_mask_exits_before_solving(capsys, profile_path, monkeypatch,
                                       command):
    solves = []
    monkeypatch.setattr(cli, "solve_baseline",
                        lambda *args, **kw: solves.append(args))
    for mask in ("T_oa,T_oa", "T_surface", "", ","):
        code, _, _ = _run(capsys, command, "--profile", profile_path,
                          "--hour", "12", "--mask", mask, "--alpha", "0.01")
        assert code == 2
    assert solves == []


@pytest.mark.parametrize("doc, named", [
    ({"delta_P": float("nan")}, "delta_P"),
    ({"alpha_el": float("inf")}, "alpha_el"),
    ({"zone_count": 5.7}, "zone_count"),
    ({"delta_P": None}, "delta_P"), ({"c_f": 5}, "c_f"),
    ([1, 2], "JSON object"), ({"c_b": [0.97, 0.0633, -2.0]}, "c_b"),
], ids=["nan", "infinity", "fractional-zone-count", "null", "number-curve",
        "list", "boiler-curve-negative-at-rated"])
def test_bad_params_file_exits_before_solving(capsys, profile_path, tmp_path,
                                              monkeypatch, doc, named):
    solves = []
    monkeypatch.setattr(cli, "solve_baseline",
                        lambda *args, **kw: solves.append(args))
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "solve", "--profile", profile_path,
                        "--hour", "12", "--params", str(pfile))
    assert code == 2
    assert named in err
    assert solves == []


@pytest.mark.parametrize("command", ["bound", "sensitivity"])
def test_non_finite_alpha_exits_before_solving(capsys, profile_path,
                                               monkeypatch, command):
    solves = []
    monkeypatch.setattr(cli, "solve_baseline",
                        lambda *args, **kw: solves.append(args))
    for alpha in ("nan", "inf"):
        code, _, err = _run(capsys, command, "--profile", profile_path,
                            "--hour", "12", "--mask", "T_oa",
                            "--alpha", alpha)
        assert code == 2
        assert "alpha must be finite" in err
    assert solves == []


@pytest.mark.parametrize("command", [
    ("sensitivity",), ("bound", "--method", "sample"),
    ("bound", "--method", "holder")], ids=["sensitivity", "bound-sample",
                                           "bound-holder"])
def test_zero_samples_exits_before_solving(capsys, profile_path, monkeypatch,
                                           command):
    """--samples must be >= 1 on every subcommand, checked by the parser;
    `bound --method holder`, which draws no samples, refuses 0 too."""
    solves = []
    monkeypatch.setattr(cli, "solve_baseline",
                        lambda *args, **kw: solves.append(args))
    for samples in ("0", "-3"):
        code, _, err = _run(capsys, *command, "--profile", profile_path,
                            "--hour", "12", "--mask", "T_oa",
                            "--alpha", "0.01", "--samples", samples)
        assert code == 2
        assert "--samples: must be >= 1" in err
    assert solves == []


@pytest.mark.parametrize("flags", [
    ("--mask", "T_oa,T_oa"), ("--mask", "T_surface"), ("--alpha", "-1"),
    ("--alpha", "nan"), ("--samples", "0"), ("--threads", "0"),
    ("--threads", "-1"), ("--out", "no-such-dir/out.csv"), ("--out", "."),
    ("--mask", ""), ("--mask", ","), ("--profile", "negative-hour.csv"),
], ids=["repeated-label", "unknown-label", "negative-alpha", "nan-alpha",
        "zero-samples", "zero-threads", "negative-threads",
        "missing-out-directory", "out-is-directory", "empty-mask",
        "comma-mask", "negative-hour"])
def test_run_day_bad_input_exits_before_solving(capsys, profile_path,
                                                tmp_path, monkeypatch, flags):
    solves = []
    solve = sc.solve_baseline
    monkeypatch.setattr(sc, "solve_baseline",
                        lambda *args: solves.append(args) or solve(*args))
    monkeypatch.chdir(tmp_path)
    # the profile with its first hour at -1 instead of 9
    lines = Path(profile_path).read_text(encoding="utf-8").splitlines(True)
    lines[2] = "-1" + lines[2][1:]
    (tmp_path / "negative-hour.csv").write_text("".join(lines),
                                                encoding="utf-8")
    argv = {"--profile": profile_path, "--mask": "T_oa", "--alpha": "0.01",
            "--samples": "64", "--out": "out.csv"}
    argv.update([flags])
    code, _, err = _run(capsys, "run-day",
                        *(a for kv in argv.items() for a in kv))
    assert code == 2
    assert "error:" in err
    assert solves == []


@pytest.mark.parametrize("out, unwritable, named", [
    ("results", None, "--out is a directory"),
    ("out.csv", ".", "no writable directory for --out: ."),
    ("sub/out.csv", "sub", "no writable directory for --out: sub"),
], ids=["directory", "unwritable-cwd", "unwritable-parent"])
def test_run_day_refuses_out_before_loading_profile(
        capsys, profile_path, tmp_path, monkeypatch, out, unwritable, named):
    """An --out that is a directory, or whose directory is not writable,
    exits 2 naming --out before the profile loads. Permissions are not
    enforced for root, so os.access stands in for the file system."""
    (tmp_path / "results").mkdir()
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: (
        path != unwritable and access(path, mode)))
    loads = []
    monkeypatch.setattr(sc, "load_profile",
                        lambda *args: loads.append(args))
    code, _, err = _run(capsys, "run-day", "--profile", profile_path,
                        "--mask", "T_oa", "--alpha", "0.01", "--out", out)
    assert code == 2
    assert named in err
    assert loads == []


def test_synth_refuses_directory_out(capsys, tmp_path):
    code, out, err = _run(capsys, "synth", "--day", "hot", "--out",
                          str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: --out is a directory: {tmp_path}\n"


@pytest.mark.parametrize("command", [
    ("solve",), ("sensitivity", "--mask", "T_oa", "--alpha", "0.01"),
    ("bound", "--mask", "T_oa", "--alpha", "0.01"),
    ("run-day", "--mask", "T_oa", "--alpha", "0.01", "--out", "out.csv"),
    ("synth", "--day", "hot", "--out", "out.csv"),
], ids=["solve", "sensitivity", "bound", "run-day", "synth"])
def test_negative_seed_is_usage_error(capsys, profile_path, tmp_path,
                                      monkeypatch, command):
    """The parser refuses a negative --seed by name on every subcommand
    that seeds a generator, before any solve."""
    solves = []
    monkeypatch.setattr(cli, "solve_baseline",
                        lambda *args, **kw: solves.append(args))
    monkeypatch.setattr(sc, "solve_baseline",
                        lambda *args, **kw: solves.append(args))
    monkeypatch.chdir(tmp_path)
    where = () if command[0] == "synth" else ("--profile", profile_path)
    hour = ("--hour", "12") if command[0] in ("solve", "sensitivity",
                                               "bound") else ()
    code, _, err = _run(capsys, *command, *where, *hour, "--seed", "-1")
    assert code == 2
    assert "--seed: must be >= 0, got -1" in err
    assert solves == []
    assert not (tmp_path / "out.csv").exists()


def test_validate_refuses_seed(capsys, monkeypatch):
    """validate's checks use fixed seeds, so it offers no --seed: the
    parser refuses one before any solve."""
    solves = []
    monkeypatch.setattr(cli, "solve_baseline",
                        lambda *args, **kw: solves.append(args))
    code, out, err = _run(capsys, "validate", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --seed 1" in err
    assert solves == []


def test_paths_that_never_solve_never_load_scipy_optimize(child_env,
                                                          tmp_path):
    """Importing the CLI, building profiles, `synth`, `--help` and an
    exit-2 input leave scipy.optimize unloaded: only a solve imports it."""
    profile = str(tmp_path / "hot.csv")
    code = f"""
import contextlib, io, sys
import gridbase.cli as cli
import gridbase.scenario as sc

def unloaded(step):
    assert "scipy.optimize" not in sys.modules, step

unloaded("import")
for day in sc.DAY_TYPES:
    sc.synth_profile(day, 42)
unloaded("synth_profile")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["synth", "--day", "hot", "--out", {profile!r}]) == 0
    unloaded("synth")
    assert cli.main(["--help"]) == 0
    unloaded("--help")
with contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["run-day", "--profile", {profile!r}, "--mask",
                     "T_oa,T_oa", "--alpha", "0.05", "--out",
                     {str(tmp_path / "o.csv")!r}]) == 2
unloaded("repeated mask label")
"""
    out = subprocess.run([sys.executable, "-c", code], env=child_env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_infeasible_hour_is_domain_error(capsys, tmp_path):
    prof = sc.synth_profile("cold", seed=0)
    z = prof.hours[0].zones
    bad = sc.DayProfile(label="bad", hours=(
        sc.ProfileHour(9, 20.0, hm.ZoneInputs(
            z.q_zone * 1e5, z.t_sp, z.m_oa_min)),))
    path = tmp_path / "bad.csv"
    sc.write_profile(bad, path)
    code, _, err = _run(capsys, "solve", "--profile", str(path),
                        "--hour", "9")
    assert code == 1
    assert "error:" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert _run(capsys, )[0] == 2


def test_console_script_installed(child_env):
    """The ``[project.scripts]`` entry resolves to a callable that, called
    with no arguments as the generated wrapper does, reads ``sys.argv`` and
    returns the exit code."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "gridbase" in scripts, "no gridbase entry in [project.scripts]"
    module, attr = scripts["gridbase"].split(":")
    code = (f"import sys\nfrom {module} import {attr}\n"
            f"sys.argv[0] = 'gridbase'\nsys.exit({attr}())")
    out = subprocess.run([sys.executable, "-c", code, "--version"],
                         env=child_env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"gridbase {gridbase.__version__}\n"


@pytest.mark.skipif(shutil.which("gridbase") is None,
                    reason="no gridbase executable on PATH")
def test_installed_console_script_matches_checkout():
    out = subprocess.run([shutil.which("gridbase"), "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"gridbase {gridbase.__version__}\n"
