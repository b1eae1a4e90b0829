"""Command-line driver tests.

Everything runs in-process through main(argv) against tmp_path outputs; one
subprocess smoke test covers the module entry point.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from devfactor.cli import main, parse_config_file
from devfactor.expansions import (
    CONSTANT,
    LOG,
    ULTRAVIOLET,
    AsymptoticExpansion,
    BasisFunction,
)
from devfactor.fitting import read_samples_csv

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


def test_ladder_overflowing_cutoff_exit_3(tmp_path, capsys):
    # the top rung's pi^2 L^4 overflows a double: a domain error, not a crash
    rc = main(["ladder", "--lmin", "10", "--lmax", "1e80", "--points", "3",
               "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "domain"
    assert "overflows" in err["error"]["message"]


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


def test_argparse_error_exit_2(capsys):
    assert main(["ladder", "--points", "three"]) == 2
    assert main(["unknown-command"]) == 2
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "devfactor.cli", "spectral",
         "--q", "1,0,0", "--m", "1", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "spectral.json").exists()
