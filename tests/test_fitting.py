"""Ladder fitting tests: coefficient recovery, degeneracy diagnostics, CSV io."""

import json
import math
import os

import mpmath
import numpy as np
import pytest

from devfactor.expansions import (
    CONSTANT,
    LOG,
    LOG2,
    ULTRAVIOLET,
    BasisFunction,
)
from devfactor.fitting import (
    BASIS_TOKENS,
    CSV_HEADER,
    DEFAULT_BASIS,
    CollinearBasisError,
    FitResult,
    detect_signature,
    fit,
    parse_basis,
    read_samples_csv,
    write_samples_csv,
)
from devfactor.quadrature import SampledIntegral

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "synthetic_ladder.csv")

INV = BasisFunction(-1, 0)
INV2 = BasisFunction(-2, 0)


def make_samples(lambdas, values, err=1e-10):
    lambdas = np.asarray(lambdas, dtype=float)
    values = np.asarray(values, dtype=complex)
    errors = np.full(lambdas.size, err)
    flags = np.ones(lambdas.size, dtype=bool)
    return SampledIntegral(lambdas, values, errors, flags)


def test_exact_recovery_three_terms():
    lambdas = np.geomspace(10.0, 1e4, 7)
    values = 1j * (4.0 * np.log(lambdas) - 1.0) + 2.0 / lambdas
    res = fit(make_samples(lambdas, values), basis=(LOG, CONSTANT, INV))
    assert res.coefficient(0, 1) == pytest.approx(4.0j, abs=1e-8)
    assert res.coefficient(0, 0) == pytest.approx(-1.0j, abs=1e-8)
    assert res.coefficient(-1, 0) == pytest.approx(2.0, abs=1e-7)
    assert res.residual_norm <= 1e-8
    assert res.n_samples == 7
    # exact ln/1 data: growing columns get no more than rounding at the top rung
    res = fit(make_samples(lambdas, values - 2.0 / lambdas),
              basis=(BasisFunction(2, 0), BasisFunction(1, 0), LOG, CONSTANT))
    assert abs(res.coefficient(2, 0)) * lambdas[-1] ** 2 <= 1e-12
    assert abs(res.coefficient(1, 0)) * lambdas[-1] <= 1e-12


def test_randomized_recovery_full_basis():
    rng = np.random.default_rng(71)
    lambdas = np.geomspace(5.0, 1e5, 24)
    for _ in range(10):
        coeffs = {b: complex(*rng.normal(size=2)) for b in DEFAULT_BASIS}
        values = sum(c * lambdas ** float(b.power)
                     * np.log(lambdas) ** b.logpower
                     for b, c in coeffs.items())
        res = fit(make_samples(lambdas, values))
        for b, c in coeffs.items():
            got = res.coefficient(b.power, b.logpower)
            # decaying columns sit under values dominated by the L^2 term,
            # so their recovery saturates at the cancellation floor
            tol = 2e-3 * max(1.0, abs(c)) if b.power < 0 else 3e-5
            assert abs(got - c) <= tol


def test_weighting_downplays_noisy_sample():
    rng = np.random.default_rng(73)
    lambdas = np.geomspace(10.0, 1e4, 12)
    clean = 3.0j * np.log(lambdas) + 2.0
    errors = np.full(12, 1e-10)
    values = clean.copy()
    values[5] += 0.3  # corrupted rung, flagged by its error bar
    errors[5] = 10.0
    samples = SampledIntegral(lambdas, values, errors,
                              np.ones(12, dtype=bool))
    res = fit(samples, basis=(LOG, CONSTANT))
    assert res.coefficient(0, 1) == pytest.approx(3.0j, abs=1e-6)
    assert res.coefficient(0, 0) == pytest.approx(2.0, abs=1e-6)

    # the same samples without error estimates are fitted unweighted
    unweighted = fit(SampledIntegral(lambdas, values, np.zeros(12),
                                     np.ones(12, dtype=bool)),
                     basis=(LOG, CONSTANT))
    assert abs(unweighted.coefficient(0, 0) - 2.0) > 1e-3


def test_value_scaling_equivariance():
    lambdas = np.geomspace(10.0, 1e4, 9)
    values = 2.0j * np.log(lambdas) - 5.0
    a = fit(make_samples(lambdas, values), basis=(LOG, CONSTANT))
    b = fit(make_samples(lambdas, 10.0 * values), basis=(LOG, CONSTANT))
    assert b.coefficient(0, 1) == pytest.approx(10.0 * a.coefficient(0, 1),
                                                rel=1e-10)
    assert b.coefficient(0, 0) == pytest.approx(10.0 * a.coefficient(0, 0),
                                                rel=1e-10)


def test_stderr_tracks_noise_level():
    rng = np.random.default_rng(79)
    lambdas = np.geomspace(10.0, 1e4, 10)
    clean = 1.5j * np.log(lambdas) + 0.5
    noise = rng.normal(size=10) + 1j * rng.normal(size=10)
    tight = fit(make_samples(lambdas, clean + 1e-12 * noise, err=1e-12),
                basis=(LOG, CONSTANT))
    loose = fit(make_samples(lambdas, clean + 1e-4 * noise, err=1e-4),
                basis=(LOG, CONSTANT))
    assert tight.stderr[LOG] < loose.stderr[LOG]
    assert loose.stderr[LOG] < 1e-3


def test_duplicate_basis_rejected():
    lambdas = np.geomspace(10.0, 1e4, 9)
    values = np.log(lambdas)
    with pytest.raises(CollinearBasisError):
        fit(make_samples(lambdas, values), basis=(LOG, LOG, CONSTANT))


def test_collinear_basis_names_pair():
    # lambda^(1e-9) is numerically constant: degenerate with the 1 column;
    # lambda^(1e-20) rounds to 1.0 on every rung, and with the 1 column alone
    # the design's smallest singular value is exactly zero
    lambdas = np.geomspace(10.0, 1e4, 9)
    values = np.log(lambdas) + 2.0
    for power, others in (("1/1000000000", (LOG, CONSTANT)),
                          ("1/100000000000000000000", (CONSTANT,))):
        flat = BasisFunction(power, 0)
        with pytest.raises(CollinearBasisError) as err:
            fit(make_samples(lambdas, values), basis=others + (flat,))
        assert err.value.condition > 1e12
        pairs = [frozenset(p) for p in err.value.pairs]
        assert frozenset((str(CONSTANT), str(flat))) in pairs


def _normal_equations_stderr(samples, basis):
    """sigma * sqrt(diag((A^T A)^-1)), sigma^2 = rss / (2n - 2m), in 60-digit
    arithmetic on the float design fit builds (unit weights: equal errors)."""
    lams = samples.lambdas
    design = np.column_stack([lams ** float(b.power)
                              * np.log(lams) ** b.logpower for b in basis])
    n, m = design.shape
    with mpmath.workdps(60):
        a = mpmath.matrix(design.tolist())
        gram_inv = mpmath.inverse(a.T * a)
        rss = 0
        for part in (samples.values.real, samples.values.imag):
            y = mpmath.matrix(part.tolist())
            resid = y - a * (gram_inv * (a.T * y))
            rss += sum(r ** 2 for r in resid)
        sigma_sq = rss / (2 * n - 2 * m)
        return [float(mpmath.sqrt(sigma_sq * gram_inv[j, j]))
                for j in range(m)]


@pytest.mark.parametrize("power, cond_range, rel", [
    ("1/1000", (1e6, 1.5e6), 1e-9),
    # the normal equations square this condition past double precision
    ("1/100000", (1e10, 1.5e10), 1e-5),
])
def test_stderr_matches_extended_precision_reference(power, cond_range, rel):
    # the 1e-3 noise keeps the residual's own rounding below the covariance
    # error the normal equations would add
    rng = np.random.default_rng(97)
    lambdas = np.geomspace(10.0, 1e4, 12)
    values = (np.log(lambdas) + 2.0
              + 1e-3 * (rng.normal(size=12) + 1j * rng.normal(size=12)))
    samples = make_samples(lambdas, values, err=1e-3)
    basis = (LOG, CONSTANT, BasisFunction(power, 0))
    res = fit(samples, basis)
    assert cond_range[0] < res.condition < cond_range[1]
    ref = _normal_equations_stderr(samples, basis)
    for b, want in zip(basis, ref):
        assert res.stderr[b] == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("row, value, err", [(2, 1.0, math.inf),
                                             (5, math.nan, 1e-3),
                                             (9, 1.0, -1e-3)],
                         ids=["inf-error", "nan-value", "negative-error"])
def test_nonfinite_or_negative_rows_rejected(row, value, err):
    lambdas = np.geomspace(10.0, 1e4, 12)
    values = np.log(lambdas) + 0j
    errors = np.full(12, 1e-3)
    values[row] = value
    errors[row] = err
    samples = SampledIntegral(lambdas, values, errors, np.ones(12, dtype=bool))
    with pytest.raises(ValueError, match=rf"sample rows \[{row}\] need"):
        fit(samples, basis=(LOG, CONSTANT))


def test_narrow_grid_rejected():
    lambdas = np.geomspace(10.0, 50.0, 9)  # 0.7 decades
    values = np.log(lambdas)
    with pytest.raises(ValueError, match="decade"):
        fit(make_samples(lambdas, values), basis=(LOG, CONSTANT))


def test_too_few_samples_rejected():
    lambdas = np.geomspace(10.0, 1e4, 3)
    values = np.log(lambdas)
    with pytest.raises(ValueError):
        fit(make_samples(lambdas, values), basis=(LOG, CONSTANT))


def test_detect_signature_keeps_dominant_terms():
    lambdas = np.geomspace(10.0, 1e4, 12)
    values = 3.0j * np.log(lambdas) + 5.0 + 1.0 / lambdas
    sig = detect_signature(make_samples(lambdas, values))
    assert set(sig.terms) == {LOG, CONSTANT, INV}
    assert sig.terms[LOG] == pytest.approx(3.0j, abs=1e-6)
    assert sig.terms[CONSTANT] == pytest.approx(5.0, abs=1e-5)
    assert sig.terms[INV] == pytest.approx(1.0, abs=1e-3)
    assert sig.regulator == ULTRAVIOLET
    assert sig.divergent_part().terms == {LOG: sig.terms[LOG]}


def test_detect_signature_threshold_and_regulator():
    lambdas = np.geomspace(10.0, 1e4, 12)
    values = 2.0j * np.log(lambdas) + 1e-6
    sig = detect_signature(make_samples(lambdas, values), threshold=1e-3)
    assert set(sig.terms) == {LOG}
    assert sig.regulator == ULTRAVIOLET
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="threshold"):
            detect_signature(make_samples(lambdas, values), threshold=bad)


def test_parse_basis_round_trip():
    basis = parse_basis("L^2, L, ln^2, ln, 1, 1/L, 1/L^2")
    assert basis == DEFAULT_BASIS
    assert parse_basis("ln,1") == (LOG, CONSTANT)
    with pytest.raises(ValueError):
        parse_basis("ln,exp")
    assert set(BASIS_TOKENS) == {str(b) for b in DEFAULT_BASIS}


def test_csv_round_trip(tmp_path):
    lambdas = np.geomspace(10.0, 1e4, 7)
    values = 1j * (4.0 * np.log(lambdas) - 1.0) + 2.0 / lambdas
    samples = make_samples(lambdas, values)
    path = tmp_path / "ladder.csv"
    generator = {"command": "test", "points": 7}
    write_samples_csv(path, samples, generator=generator)
    back, gen = read_samples_csv(path)
    assert gen == generator
    assert np.array_equal(back.lambdas, samples.lambdas)
    assert np.array_equal(back.values, samples.values)
    assert np.array_equal(back.errors, samples.errors)
    assert back.all_converged


def test_csv_keeps_nonconverged_flags(tmp_path):
    lambdas = np.array([10.0, 100.0, 1000.0, 10000.0])
    flags = np.array([True, False, True, False])
    samples = SampledIntegral(lambdas, np.log(lambdas) + 0j,
                              np.full(4, 1e-8), flags)
    path = tmp_path / "partial.csv"
    write_samples_csv(path, samples)
    text = path.read_text()
    assert "# nonconverged_rows: [1, 3]" in text
    back, _ = read_samples_csv(path)
    assert list(back.converged) == [True, False, True, False]


@pytest.mark.parametrize("rows", ["[7]", "[-1]", "3", "[0.0]", "[true]",
                                  '["0"]', "{}"])
def test_csv_rejects_bad_nonconverged_rows(tmp_path, rows):
    path = tmp_path / "bad.csv"
    path.write_text(f"# nonconverged_rows: {rows}\n{CSV_HEADER}\n"
                    "10.0,1.0,0.0,1e-08\n")
    with pytest.raises(ValueError, match="nonconverged_rows"):
        read_samples_csv(path)


def test_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_samples_csv(path)


def test_fixture_recovery():
    samples, generator = read_samples_csv(FIXTURE)
    assert generator["command"] == "synthetic"
    res = fit(samples, basis=(LOG, CONSTANT, INV))
    assert res.coefficient(0, 1) == pytest.approx(4.0j, abs=1e-8)
    assert res.coefficient(0, 0) == pytest.approx(-1.0j, abs=1e-8)
    assert res.coefficient(-1, 0) == pytest.approx(2.0, abs=1e-7)


def test_fit_result_json():
    lambdas = np.geomspace(10.0, 1e4, 8)
    values = 2.0j * np.log(lambdas) + 1.0
    res = fit(make_samples(lambdas, values), basis=(LOG, CONSTANT))
    data = res.to_json_dict()
    assert data["n_samples"] == 8
    rows = data["coefficients"]
    assert [(r["power"], r["logpower"]) for r in rows] == [("0", 1), ("0", 0)]
    assert rows[0]["re"] == pytest.approx(0.0, abs=1e-10)
    assert rows[0]["im"] == pytest.approx(2.0, abs=1e-10)
    blob = json.dumps(data)
    assert "NaN" not in blob


def test_missing_coefficient_lookup():
    lambdas = np.geomspace(10.0, 1e4, 8)
    values = np.log(lambdas) + 0j
    res = fit(make_samples(lambdas, values), basis=(LOG, CONSTANT))
    with pytest.raises(KeyError):
        res.coefficient(2, 0)
