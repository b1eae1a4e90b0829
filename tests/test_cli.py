"""Command-line driver tests.

Everything runs in-process through main(argv) against tmp_path outputs; one
subprocess smoke test covers the module entry point.
"""

import argparse
import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from devfactor import cli, fitting, quadrature
from devfactor.cli import build_parser, main, parse_config_file
from devfactor.expansions import (
    CONSTANT,
    LOG,
    QUADRATIC,
    ULTRAVIOLET,
    AsymptoticExpansion,
    BasisFunction,
)
from devfactor.fitting import detect_signature, read_samples_csv

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "synthetic_ladder.csv")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def coeff_row(rows, power, logpower):
    for row in rows:
        if row["power"] == power and row["logpower"] == logpower:
            return row
    raise KeyError((power, logpower))


# ------------------------------------------------------------- spectral


def test_spectral_happy_path(tmp_path):
    rc = main(["spectral", "--q", "1,2,3", "--m", "4", "--out", str(tmp_path)])
    assert rc == 0
    obj = read_json(tmp_path / "spectral.json")
    assert obj["kind"] == "spectral"
    assert obj["eigen_residual"] <= 1e-12
    assert obj["h_squared_defect"] <= 1e-11
    e = math.sqrt(30.0)
    assert obj["eigenvalues"] == pytest.approx([-e, -e, e, e], rel=1e-14)
    assert not obj["degenerate"]


def test_spectral_prefix(tmp_path):
    rc = main(["spectral", "--q", "0,0,1", "--m", "1",
               "--out", str(tmp_path), "--prefix", "probe"])
    assert rc == 0
    assert (tmp_path / "probe.json").exists()


# ------------------------------------------------------------- ladder


def test_ladder_writes_csv_and_plot(tmp_path):
    rc = main(["ladder", "--integrand", "volume", "--lmin", "1",
               "--lmax", "10", "--points", "3", "--out", str(tmp_path)])
    assert rc == 0
    samples, generator = read_samples_csv(tmp_path / "ladder.csv")
    assert generator["command"] == "ladder"
    assert generator["integrand"] == "volume"
    vols = math.pi ** 2 / 2.0 * np.geomspace(1.0, 10.0, 3) ** 4
    assert np.allclose(samples.values.real, vols, rtol=1e-9)
    for name in ("ladder_re.dat", "ladder_im.dat", "ladder.gp"):
        assert (tmp_path / name).exists()


def test_ladder_deterministic(tmp_path):
    args = ["ladder", "--integrand", "shifted", "--p", "0.3,0,0,0",
            "--ell", "1.0", "--lmin", "10", "--lmax", "100", "--points", "3"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("ladder.csv", "ladder_re.dat", "ladder_im.dat", "ladder.gp"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_ladder_budget_exhaustion_exit_4(tmp_path, capsys):
    rc = main(["ladder", "--integrand", "shifted", "--p", "0.5,0,0,0",
               "--lmin", "10", "--lmax", "100", "--points", "2",
               "--max-evals", "20", "--out", str(tmp_path)])
    assert rc == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "error"
    assert err["error"]["type"] == "non-convergence"
    assert "partial results written" in err["error"]["message"]
    samples, _ = read_samples_csv(tmp_path / "ladder.csv")
    assert not samples.converged.all()


def test_ladder_domain_error_exit_3(tmp_path, capsys):
    rc = main(["ladder", "--lmin", "100", "--lmax", "10",
               "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "domain"


@pytest.mark.parametrize("bad", [["--tol", "nan"], ["--tol", "inf"],
                                 ["--lmax", "inf"]],
                         ids=["tol-nan", "tol-inf", "lmax-inf"])
def test_ladder_nonfinite_input_exit_3(tmp_path, capsys, bad):
    rc = main(["ladder", "--integrand", "volume", "--lmin", "0.5",
               "--lmax", "1", *bad, "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "domain"


def test_ladder_overflowing_cutoff_exit_3(tmp_path, capsys, monkeypatch):
    # the top rung's pi^2 L^4 overflows a double: a domain error, not a
    # crash, and refused before any rung is integrated
    radii = []
    integrate = quadrature.ball4_integrate
    monkeypatch.setattr(quadrature, "ball4_integrate",
                        lambda f, radius, *a, **k: radii.append(radius)
                        or integrate(f, radius, *a, **k))
    rc = main(["ladder", "--lmin", "10", "--lmax", "1e80", "--points", "3",
               "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "domain"
    assert "overflows" in err["error"]["message"]
    assert radii == []


# ------------------------------------------------------------- fit


def test_fit_recovers_fixture_coefficients(tmp_path):
    rc = main(["fit", "--infile", FIXTURE, "--threshold", "1e-6",
               "--out", str(tmp_path)])
    assert rc == 0
    obj = read_json(tmp_path / "fit.json")
    assert obj["kind"] == "fit_report"
    assert obj["generator"]["command"] == "synthetic"
    rows = obj["fit"]["coefficients"]
    log_row = coeff_row(rows, "0", 1)
    assert log_row["re"] == pytest.approx(0.0, abs=1e-8)
    assert log_row["im"] == pytest.approx(4.0, abs=1e-8)
    const_row = coeff_row(rows, "0", 0)
    assert const_row["im"] == pytest.approx(-1.0, abs=1e-8)
    inv_row = coeff_row(rows, "-1", 0)
    assert inv_row["re"] == pytest.approx(2.0, abs=1e-8)
    sig_terms = obj["signature"]["terms"]
    assert {(t["power"], t["logpower"]) for t in sig_terms} == {
        ("0", 1), ("0", 0), ("-1", 0)}


def test_fit_with_threshold_fits_once(tmp_path, monkeypatch):
    # the signature thresholds the fit the report already holds
    calls = []
    real_fit = fitting.fit

    def counting_fit(*args, **kwargs):
        calls.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit", counting_fit)
    monkeypatch.setattr(fitting, "fit", counting_fit)
    rc = main(["fit", "--infile", FIXTURE, "--threshold", "1e-6",
               "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1
    monkeypatch.undo()
    samples, _ = read_samples_csv(FIXTURE)
    want = detect_signature(samples, threshold=1e-6).to_json_dict()
    assert read_json(tmp_path / "fit.json")["signature"] == want


def test_fit_custom_basis(tmp_path):
    rc = main(["fit", "--infile", FIXTURE, "--basis", "ln,1,1/L",
               "--out", str(tmp_path), "--prefix", "narrow"])
    assert rc == 0
    rows = read_json(tmp_path / "narrow.json")["fit"]["coefficients"]
    assert len(rows) == 3
    assert coeff_row(rows, "0", 1)["im"] == pytest.approx(4.0, abs=1e-8)


def test_fit_missing_file_exit_3(tmp_path, capsys):
    rc = main(["fit", "--infile", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "domain"


def test_fit_of_starved_ladder_names_rows_exit_3(tmp_path, capsys):
    # a budget below a shell's first step (one 15-node panel or more) leaves
    # every rung at err = inf
    assert main(["ladder", "--integrand", "shifted", "--p", "0.5,0,0,0",
                 "--lmin", "10", "--lmax", "1000", "--points", "4",
                 "--max-evals", "10", "--out", str(tmp_path)]) == 4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["fit", "--infile", str(tmp_path / "ladder.csv"),
                   "--basis", "ln,1", "--out", str(tmp_path)])
    assert rc == 3
    assert caught == []
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "domain"
    assert "sample rows [0, 1, 2, 3]" in err["error"]["message"]
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_fit_nonpositive_or_nonfinite_threshold_exit_3(tmp_path, capsys,
                                                       threshold):
    rc = main(["fit", "--infile", FIXTURE, "--threshold", threshold,
               "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "threshold" in err["error"]["message"]
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_fit_refuses_nonfinite_generator_exit_3(tmp_path, capsys, token):
    # Python's json reads these as floats; fit_report would echo them
    infile = tmp_path / "ladder.csv"
    with open(FIXTURE) as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    infile.write_text(f'# generator: {{"ell": {token}}}\n' + "".join(rows))
    rc = main(["fit", "--infile", str(infile), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "generator" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- regularize


def write_series_file(path):
    a1 = AsymptoticExpansion(ULTRAVIOLET, {
        CONSTANT: 0.2, BasisFunction(-1, 0): 0.05}, dim=1)
    a2 = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: 0.05j, CONSTANT: 0.11, BasisFunction(-1, 0): 0.4}, dim=1)
    a3 = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: 0.02j, CONSTANT: -0.3}, dim=1)
    data = {"coupling": 1e-4,
            "coefficients": [a1.to_json_dict(), a2.to_json_dict(),
                             a3.to_json_dict()]}
    path.write_text(json.dumps(data))


def test_regularize_reconstruction(tmp_path):
    infile = tmp_path / "series.json"
    write_series_file(infile)
    rc = main(["regularize", "--infile", str(infile),
               "--lambdas", "100,1000,10000", "--out", str(tmp_path)])
    assert rc == 0
    obj = read_json(tmp_path / "regularize.json")
    assert obj["kind"] == "regularize_report"
    assert obj["coupling"] == 1e-4
    assert len(obj["evaluations"]) == 3
    for ev in obj["evaluations"]:
        assert ev["reconstruction_residual"] <= 1e-12
        assert len(ev["regular_terms"]) == 3
    assert obj["factor"] is not None


def test_regularize_rejects_bad_lambda(tmp_path, capsys):
    infile = tmp_path / "series.json"
    write_series_file(infile)
    rc = main(["regularize", "--infile", str(infile),
               "--lambdas", "100,-5", "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "positive" in err["error"]["message"]


def test_regularize_rejects_empty_lambda_list(tmp_path, capsys):
    infile = tmp_path / "series.json"
    write_series_file(infile)
    rc = main(["regularize", "--infile", str(infile),
               "--lambdas", ",", "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "error"
    assert "at least one" in err["error"]["message"]
    assert not (tmp_path / "regularize.json").exists()


def test_regularize_rejects_malformed_series(tmp_path, capsys):
    infile = tmp_path / "series.json"
    infile.write_text(json.dumps({"coupling": 0.1}))
    rc = main(["regularize", "--infile", str(infile), "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "missing" in err["error"]["message"]


@pytest.mark.parametrize("record", [1, {"kind": "expansion",
                                         "regulator": "ultraviolet"}])
def test_regularize_rejects_malformed_coefficient_record(tmp_path, capsys,
                                                          record):
    infile = tmp_path / "series.json"
    infile.write_text(json.dumps({"coupling": 0.1, "coefficients": [record]}))
    rc = main(["regularize", "--infile", str(infile), "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "expansion record" in err["error"]["message"]
    assert not (tmp_path / "regularize.json").exists()


@pytest.mark.parametrize("argv", [
    ["regularize", "--lambdas", "nan"],
    ["regularize", "--lambdas", "inf"],
    ["regularize", "--lambdas", "nan", "--infile", "empty_series.json"],
    ["regularize", "--lambdas", "100", "--infile", "nan_coefficient.json"],
    ["regularize", "--lambdas", "100", "--infile", "nan_coupling.json"],
    ["example", "--id", "electron", "--e", "nan"],
    ["example", "--id", "vertex", "--mu", "4", "--cutoff", "nan"],
    ["spectral", "--q", "nan,0,0", "--m", "1"],
    ["spectral", "--q", "1,0,0", "--m", "nan"],
    ["spectral", "--q", "1e200,0,0", "--m", "1"],
], ids=["lambda-nan", "lambda-inf", "empty-series-lambda-nan",
        "series-nan-coefficient", "series-nan-coupling", "electron-e-nan",
        "vertex-cutoff-nan", "spectral-q-nan", "spectral-m-nan",
        "spectral-energy-overflow"])
def test_nonfinite_numeric_input_exit_3(tmp_path, capsys, monkeypatch, argv):
    # a non-finite number is a domain error: no NaN/Infinity in any JSON
    # file, and no RuntimeWarning on the way (an error in this suite)
    monkeypatch.chdir(tmp_path)
    write_series_file(tmp_path / "series.json")
    series = read_json(tmp_path / "series.json")
    series["coefficients"][1]["terms"][0]["im"] = [[math.nan]]
    (tmp_path / "nan_coefficient.json").write_text(json.dumps(series))
    series = read_json(tmp_path / "series.json")
    series["coupling"] = math.nan
    (tmp_path / "nan_coupling.json").write_text(json.dumps(series))
    series["coupling"], series["coefficients"] = 1e-4, []
    (tmp_path / "empty_series.json").write_text(json.dumps(series))
    if argv[0] == "regularize" and "--infile" not in argv:
        argv = argv + ["--infile", "series.json"]
    assert main(argv + ["--out", "out"]) == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "domain"
    assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")


# finite inputs whose results overflow, or divide by an underflowed m^2
OVERFLOW_PROBES = [
    "coulomb --z 1e308 --kmin 1e-5",
    "regularize --infile huge_quadratic.json --lambdas 1e100",
    "regularize --infile quadratic.json --lambdas 1e200",
    "example --id electron --e 1e200",
    "example --id vertex --e 1e200",
    "example --id electron --p 1e155,0,0,0",
    "example --id photon --m 1e-200",
]


@pytest.mark.parametrize("line", OVERFLOW_PROBES)
def test_overflowing_result_writes_nothing_exit_3(tmp_path, capsys,
                                                  monkeypatch, line):
    # refused where it would be written: no --out, no file, no warning, and
    # one error line
    monkeypatch.chdir(tmp_path)
    for name, coefficient in (("quadratic.json", 1j),
                              ("huge_quadratic.json", 1e300j)):
        a = AsymptoticExpansion(ULTRAVIOLET, {QUADRATIC: coefficient,
                                              CONSTANT: 0.1})
        (tmp_path / name).write_text(json.dumps(
            {"coupling": 0.1, "coefficients": [a.to_json_dict()]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(line.split() + ["--out", "out"])
    assert rc == 3
    assert caught == []
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "domain"
    assert sorted(os.listdir(tmp_path)) == ["huge_quadratic.json",
                                            "quadratic.json"]


@pytest.mark.parametrize("line, names", [
    ("regularize --infile quadratic.json --lambdas 1e200", ("L^2", "1e+200")),
    ("example --id photon --p2 1e308 --m 0.1", ("p^2/m^2", "1e+308")),
], ids=["basis-function", "photon-mass-ratio"])
def test_overflow_message_names_the_quantity(tmp_path, capsys, monkeypatch,
                                             line, names):
    monkeypatch.chdir(tmp_path)
    a = AsymptoticExpansion(ULTRAVIOLET, {QUADRATIC: 1j, CONSTANT: 0.3})
    (tmp_path / "quadratic.json").write_text(json.dumps(
        {"coupling": 0.1, "coefficients": [a.to_json_dict()]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(line.split() + ["--out", "out"])
    assert rc == 3
    assert caught == []
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    for name in names:
        assert name in message
    assert os.listdir(tmp_path) == ["quadratic.json"]


def test_huge_real_log_coefficient_is_not_absorbable_exit_3(tmp_path, capsys):
    # the admissibility norms must not overflow: a real 1e200 log
    # coefficient used to pass and give a factor with no terms
    a = AsymptoticExpansion(ULTRAVIOLET, {LOG: 1e200, CONSTANT: 0.1})
    (tmp_path / "series.json").write_text(json.dumps(
        {"coupling": 0.1, "coefficients": [a.to_json_dict()]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["regularize", "--infile", str(tmp_path / "series.json"),
                   "--lambdas", "100", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert caught == []
    err = json.loads(capsys.readouterr().out)
    assert "not absorbable" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_nonfinite_json_refusal_names_the_field(tmp_path, capsys):
    # raw = 1 + 0.1 * 1e300i * (1e100)^2 overflows in its imaginary part
    a = AsymptoticExpansion(ULTRAVIOLET, {QUADRATIC: 1e300j, CONSTANT: 0.1})
    (tmp_path / "series.json").write_text(json.dumps(
        {"coupling": 0.1, "coefficients": [a.to_json_dict()]}))
    rc = main(["regularize", "--infile", str(tmp_path / "series.json"),
               "--lambdas", "1e100", "--out", str(tmp_path / "out")])
    assert rc == 3
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert "evaluations[0].raw.im" in message and "inf" in message
    assert not (tmp_path / "out").exists()


def test_nonfinite_field_paths():
    assert cli._nonfinite_field({"a": [1.0, {"b": 2.0}]}, "") is None
    assert cli._nonfinite_field({"z": math.nan, "a": [1.0, {"b": -math.inf}]},
                                "") == ("a[1].b", -math.inf)
    assert cli._nonfinite_field([[0.0, math.inf]], "") == ("[0][1]", math.inf)


def _matrix_series_file(path, log_coefficient):
    a = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: log_coefficient, CONSTANT: np.array([[0.3, 0.1], [0.1, -0.2]])})
    path.write_text(json.dumps({"coupling": 0.1,
                                "coefficients": [a.to_json_dict()]}))
    return a


def test_regularize_matrix_series(tmp_path):
    # U(L) regular(L) = raw(L) to second order in the absorbed exponent x:
    # ||U (1 + r) - raw|| <= |x| (|x|/2 + |r|), the bound of the scalar and
    # 4x4 property in test_expansions
    a = _matrix_series_file(tmp_path / "series.json", 1j * np.diag([0.1, 0.2]))
    rc = main(["regularize", "--infile", str(tmp_path / "series.json"),
               "--lambdas", "100,1e6", "--out", str(tmp_path)])
    assert rc == 0
    obj = read_json(tmp_path / "regularize.json")
    assert obj["factor"]["dim"] == 2
    for ev in obj["evaluations"]:
        lam = ev["lambda"]
        raw = np.array(ev["raw"]["re"]) + 1j * np.array(ev["raw"]["im"])
        assert np.allclose(raw, np.eye(2) + 0.1 * a.value_at(lam),
                           rtol=0, atol=1e-15)
        (term,) = ev["regular_terms"]
        regular = np.array(term["re"]) + 1j * np.array(term["im"])
        assert np.array_equal(regular, a.finite_part())
        nx = np.linalg.norm(0.1 * a.divergent_part().value_at(lam))
        nr = np.linalg.norm(0.1 * regular)
        assert 0 < ev["reconstruction_residual"] <= nx * (nx / 2 + nr) + 1e-14


def test_regularize_hermitian_matrix_divergence_exit_3(tmp_path, capsys):
    _matrix_series_file(tmp_path / "series.json", np.diag([0.1, 0.2]))
    rc = main(["regularize", "--infile", str(tmp_path / "series.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    err = json.loads(capsys.readouterr().out)
    assert "not absorbable" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def _write_mode_opens(node):
    """open() calls under node whose mode is not a literal read mode."""
    for call in ast.walk(node):
        if not (isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None))
                == "open"):
            continue
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"),
            ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
            yield call


def test_only_write_opens_files_for_writing():
    # one writer: every file a command writes goes through cli._write
    tree = ast.parse(inspect.getsource(cli))
    writers = {getattr(node, "name", "<module>")
               for node in tree.body for _ in _write_mode_opens(node)}
    assert writers == {"_write"}


# ------------------------------------------------------------- example


def test_example_alias_matches_id(tmp_path):
    out1 = tmp_path / "byname"
    out2 = tmp_path / "byid"
    assert main(["example", "--id", "photon", "--p2", "1.0", "--m", "1.0",
                 "--out", str(out1)]) == 0
    assert main(["example", "--id", "5.3", "--p2", "1.0", "--m", "1.0",
                 "--out", str(out2)]) == 0
    name = "example_5.3.json"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_example_electron_report(tmp_path):
    rc = main(["example", "--id", "electron", "--p", "0.3,-0.2,0.5,0.7",
               "--m", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    obj = read_json(tmp_path / "example_5.1.json")
    assert obj["kind"] == "example_report"
    assert obj["admissibility"]["passed"] is True
    assert obj["cross_checks"]["feynman_log_quadrature"] <= 1e-10


def test_example_vertex_inadmissible_still_reports(tmp_path):
    rc = main(["example", "--id", "vertex", "--mu", "4", "--out", str(tmp_path)])
    assert rc == 0
    obj = read_json(tmp_path / "example_5.6.json")
    assert obj["admissibility"]["passed"] is False
    assert obj["factor"] is None
    assert obj["ir_factor"] is None


def test_example_unknown_id_exit_3(tmp_path, capsys):
    rc = main(["example", "--id", "positron", "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "unknown example" in err["error"]["message"]


# ------------------------------------------------------------- coulomb


def test_coulomb_phase_signature(tmp_path):
    rc = main(["coulomb", "--z", "1.0", "--k-ref", "2.0", "--points", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    obj = read_json(tmp_path / "coulomb_phase.json")
    assert obj["kind"] == "coulomb_report"
    terms = obj["phase_signature"]["terms"]
    log_term = next(t for t in terms if t["logpower"] == 1)
    const_term = next(t for t in terms if t["logpower"] == 0)
    # scalar coefficients serialize as 1x1 nested lists
    assert log_term["im"] == [[pytest.approx(0.5, abs=1e-8)]]
    assert log_term["re"] == [[pytest.approx(0.0, abs=1e-8)]]
    assert const_term["im"] == [[pytest.approx(math.log(4.0), abs=1e-7)]]
    assert obj["phase_factor"] is not None
    with open(tmp_path / "coulomb_s1.csv") as fh:
        header = fh.readline().strip()
        rows = fh.read().strip().splitlines()
    assert header == "k,l,re,im"
    assert len(rows) == 5


def test_coulomb_neutral_has_empty_signature(tmp_path):
    rc = main(["coulomb", "--z", "0.0", "--measure", "1.0:1.0",
               "--points", "3", "--out", str(tmp_path)])
    assert rc == 0
    obj = read_json(tmp_path / "coulomb_phase.json")
    assert obj["phase_signature"]["terms"] == []
    assert obj["phase_factor"] is None


def test_coulomb_bad_grid_exit_3(tmp_path, capsys):
    rc = main(["coulomb", "--kmin", "5", "--kmax", "1", "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "kmin" in err["error"]["message"]


@pytest.mark.parametrize("kmax", ["inf", "nan"])
def test_coulomb_nonfinite_kmax_exit_3(tmp_path, capsys, kmax):
    rc = main(["coulomb", "--kmax", kmax, "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "kmax" in err["error"]["message"]


def test_coulomb_underflowing_momentum_exit_3(tmp_path, capsys):
    # k^2 underflows: refused instead of divided by
    rc = main(["coulomb", "--kmin", "1e-200", "--measure", "1.0:1.0",
               "--points", "3", "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "normal" in err["error"]["message"]


@pytest.mark.parametrize("flag", ["--t", "--tau", "--e"])
def test_coulomb_removed_flags_exit_2(tmp_path, capsys, flag):
    # the phase signature is a closed form: no time grids, and no coupling
    # that any coulomb output reads
    assert main(["coulomb", flag, "10", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert not os.listdir(tmp_path)


# ------------------------------------------------------------- config


def test_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# spectral defaults\nq = 1.0,2.0,3.0\nm = 4.0\n")
    rc = main(["spectral", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    obj = read_json(tmp_path / "spectral.json")
    assert obj["m"] == 4.0
    assert obj["q"] == [1.0, 2.0, 3.0]


def test_explicit_flag_beats_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 1.0,2.0,3.0\nm = 4.0\n")
    rc = main(["spectral", "--config", str(cfg), "--m", "9.0",
               "--out", str(tmp_path)])
    assert rc == 0
    assert read_json(tmp_path / "spectral.json")["m"] == 9.0


def test_config_parser_rejects_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just words\n")
    with pytest.raises(ValueError):
        parse_config_file(cfg)


def test_missing_config_exit_2(tmp_path, capsys):
    rc = main(["spectral", "--config", str(tmp_path / "nope.cfg"),
               "--q", "1,0,0", "--m", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "config"


# ------------------------------------------------------------- exit codes


# (subcommand arguments, flag, value template): every float flag of every
# subcommand, and of every example the flag feeds
FLOAT_FLAGS = [
    ("spectral --q 1,0,0 --m 1", "--q", "{},0,0"),
    ("spectral --q 1,0,0 --m 1", "--m", "{}"),
    ("ladder", "--p", "0,{},0,0"),
    ("ladder", "--ell", "{}"),
    ("ladder", "--lmin", "{}"),
    ("ladder", "--lmax", "{}"),
    ("ladder", "--tol", "{}"),
    ("fit --infile " + FIXTURE, "--threshold", "{}"),
    ("regularize --infile series.json", "--lambdas", "100,{}"),
    ("example --id electron", "--p", "{},0,0,0"),
    ("example --id electron", "--m", "{}"),
    ("example --id electron", "--e", "{}"),
    ("example --id photon", "--p2", "{}"),
    ("example --id photon", "--m", "{}"),
    ("example --id photon", "--e", "{}"),
    ("example --id vertex", "--m", "{}"),
    ("example --id vertex", "--e", "{}"),
    ("example --id vertex", "--photon-mass", "{}"),
    ("example --id vertex", "--cutoff", "{}"),
    ("coulomb", "--z", "{}"),
    ("coulomb", "--measure", "1.0:0.5,2.0:{}"),
    ("coulomb", "--kmin", "{}"),
    ("coulomb", "--kmax", "{}"),
    ("coulomb", "--k-ref", "{}"),
]


def _probe_id(base, flag):
    words = base.split()
    return (words[2] if words[0] == "example" else words[0]) + flag


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("base,flag,template", FLOAT_FLAGS,
                         ids=[_probe_id(b, f) for b, f, _ in FLOAT_FLAGS])
def test_nonfinite_flag_exit_3(tmp_path, capsys, monkeypatch, base, flag,
                               template, value):
    # refused before any handler runs: no file, no RuntimeWarning
    monkeypatch.chdir(tmp_path)
    write_series_file(tmp_path / "series.json")
    argv = base.split() + [f"{flag}={template.format(value)}", "--out", "out"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc == 3
    assert caught == []
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "domain"
    assert flag in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_every_flag_is_read_by_its_handler():
    # a flag no handler reads changes no result
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        source = inspect.getsource(getattr(cli, f"cmd_{name}"))
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.dest in ("config", "out", "prefix"):
                continue
            assert re.search(rf"\bargs\.{action.dest}\b", source), (
                name, action.dest)


def test_argparse_error_exit_2(capsys):
    assert main(["ladder", "--points", "three"]) == 2
    assert main(["unknown-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, length", [
    (["spectral", "--m", "1", "--q", "1,2,3,4"], 3),
    (["ladder", "--p", "1,2,3"], 4),
    (["example", "--id", "electron", "--p", "1,2,3,4,5"], 4)])
def test_vector_flags_take_their_length(capsys, argv, length):
    assert main(argv) == 2
    assert f"expected {length} comma-separated components" in capsys.readouterr().err


# ------------------------------------------------------------- reuse


README_ARGV = (
    "spectral --q 1,2,3 --m 4",
    "ladder --integrand shifted --p 0.3,0,0,0 --ell 1.09 "
    "--lmin 10 --lmax 1000 --points 8",
    "fit --infile {out}/ladder.csv --threshold 1e-6",
    "regularize --infile series.json --lambdas 100,1000,10000",
    "example --id electron --p 1,0,0,0 --m 1 --cross-check",
    "example --id photon --p2 1.0 --m 1",
    "example --id vertex --mu 1 --photon-mass 0.001 --cutoff 1000",
    "coulomb --z 1 --k-ref 2",
)


def test_second_call_builds_no_parser(tmp_path, monkeypatch):
    args = ["spectral", "--q", "1,0,0", "--m", "1", "--out", str(tmp_path)]
    assert main(args) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *a, **k):
        built.append(k.get("prog"))
        init(self, *a, **k)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(args) == 0
    assert main(["ladder", "--points", "three"]) == 2
    assert built == []


def test_dispatch_reaches_rebound_handler(tmp_path, monkeypatch):
    args = ["spectral", "--q", "1,0,0", "--m", "2", "--out", str(tmp_path)]
    assert main(args) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_spectral",
                        lambda ns: seen.append((ns.command, ns.m)) or 0)
    assert main(args) == 0
    assert seen == [("spectral", 2.0)]


def test_parser_defaults_are_immutable():
    # one parser serves every call in a process: a handler must not be able
    # to change the defaults the next call inherits
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        for action in parser._actions:
            assert not isinstance(action.default, (list, dict, set)), (
                name, action.dest)


def test_readme_commands_repeat_byte_identically(tmp_path, monkeypatch,
                                                 capsys):
    write_series_file(tmp_path / "series.json")
    monkeypatch.chdir(tmp_path)
    codes = {}
    for out in ("a", "b"):
        codes[out] = [main(line.format(out=out).split() + ["--out", out])
                      for line in README_ARGV]
    capsys.readouterr()
    # the README's 8-rung ladder is too short for the default fit basis
    assert codes["a"] == codes["b"] == [0, 0, 3, 0, 0, 0, 0, 0]
    names = sorted(os.listdir(tmp_path / "a"))
    assert len(names) == 14
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_repeated_help_and_bad_flags(capsys):
    for _ in range(3):
        assert main(["--help"]) == 0
        assert main(["ladder", "--help"]) == 0
        assert main(["ladder", "--points", "three"]) == 2
        assert main(["spectral", "--q", "1,2"]) == 2
        assert main(["unknown-command"]) == 2
    assert capsys.readouterr().out.count("usage: devfactor ladder") == 3


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "devfactor.cli", "spectral",
         "--q", "1,0,0", "--m", "1", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "spectral.json").exists()
