"""Tests for cutoff expansions, admissibility, and deviation factors.

Expected values here come from direct evaluation oracles: closed-form
exponentials, hand-expanded partial sums, and explicitly constructed
skew-Hermitian matrices.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from devfactor import expansions as ex
from devfactor.dirac import I4, gamma
from devfactor.expansions import (
    CONSTANT,
    INFRARED,
    LINEAR,
    LOG,
    LOG2,
    QUADRATIC,
    ULTRAVIOLET,
    AdmissibilityError,
    AsymptoticExpansion,
    BasisFunction,
    CouplingSeries,
    DeviationFactor,
    check_admissible,
    class_a,
    deviation_factor,
    evaluate_factor,
    model_series,
    regularize_series,
    regularize_term,
    split_divergent,
)


def random_skew_hermitian(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a - a.conj().T) / 2.0


# ---------------------------------------------------------------- basis


def test_basis_function_values():
    lam = 37.5
    assert CONSTANT.value(lam) == 1.0
    assert LOG.value(lam) == math.log(lam)
    assert LOG2.value(lam) == math.log(lam) ** 2
    assert LINEAR.value(lam) == lam
    assert QUADRATIC.value(lam) == lam * lam
    assert BasisFunction(-2, 0).value(lam) == pytest.approx(lam ** -2, rel=1e-15)
    half = BasisFunction(Fraction(1, 2), 0)
    assert half.value(4.0) == pytest.approx(2.0, rel=1e-15)


def test_basis_log_reference_scale_only_shifts_logs():
    assert LOG.value(100.0, reference_scale=10.0) == pytest.approx(
        math.log(10.0), rel=1e-15)
    # powers are left alone by the reference scale
    assert LINEAR.value(100.0, reference_scale=10.0) == 100.0


def test_basis_function_classification():
    assert QUADRATIC.divergent and LINEAR.divergent and LOG.divergent
    assert LOG2.divergent
    assert CONSTANT.constant and not CONSTANT.divergent
    assert not BasisFunction(-1, 0).divergent
    # a decaying power with a log on top still decays
    assert not BasisFunction(-1, 1).divergent


def test_basis_function_validation():
    with pytest.raises(ValueError):
        BasisFunction(3, 0)
    with pytest.raises(ValueError):
        BasisFunction(-9, 0)
    with pytest.raises(ValueError):
        BasisFunction(0, -1)
    with pytest.raises(ValueError):
        BasisFunction(0, 9)


def test_basis_function_strings():
    assert str(QUADRATIC) == "L^2"
    assert str(LINEAR) == "L"
    assert str(LOG) == "ln"
    assert str(LOG2) == "ln^2"
    assert str(CONSTANT) == "1"
    assert str(BasisFunction(-1, 0)) == "1/L"
    assert str(BasisFunction(-2, 0)) == "1/L^2"
    assert str(BasisFunction(2, 1)) == "L^2*ln"


# ---------------------------------------------------------------- expansions


def test_expansion_value_and_sorting():
    a = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: 2.0j, CONSTANT: 5.0, BasisFunction(-1, 0): 1.0})
    lam = 50.0
    assert a.value_at(lam) == pytest.approx(
        2.0j * math.log(lam) + 5.0 + 1.0 / lam, rel=1e-15)
    order = [b for b, _ in a.sorted_terms()]
    assert order == [LOG, CONSTANT, BasisFunction(-1, 0)]


def test_expansion_drops_zero_coefficients():
    a = AsymptoticExpansion(ULTRAVIOLET, {LOG: 0.0, CONSTANT: 3.0})
    assert LOG not in a.terms
    assert a.terms[CONSTANT] == 3.0


def test_split_partition_identity():
    rng = np.random.default_rng(5)
    terms = {
        QUADRATIC: complex(*rng.normal(size=2)),
        LOG: complex(*rng.normal(size=2)),
        CONSTANT: complex(*rng.normal(size=2)),
        BasisFunction(-1, 0): complex(*rng.normal(size=2)),
        BasisFunction(-2, 1): complex(*rng.normal(size=2)),
    }
    a = AsymptoticExpansion(ULTRAVIOLET, terms)
    div, finite, rem = split_divergent(a)
    assert set(div.terms) == {QUADRATIC, LOG}
    assert finite == terms[CONSTANT]
    assert set(rem.terms) == {BasisFunction(-1, 0), BasisFunction(-2, 1)}
    for lam in (3.0, 111.0):
        total = div.value_at(lam) + finite + rem.value_at(lam)
        assert total == pytest.approx(a.value_at(lam), rel=1e-14)


def test_expansion_json_round_trip():
    a = AsymptoticExpansion(INFRARED, {
        LOG: 1.5j, CONSTANT: -2.0 + 0.25j,
        BasisFunction(Fraction(-1, 2), 1): 0.125})
    b = AsymptoticExpansion.from_json_dict(a.to_json_dict())
    assert b.regulator == INFRARED
    assert set(b.terms) == set(a.terms)
    for key in a.terms:
        assert b.terms[key] == a.terms[key]


def test_matrix_expansion_round_trip_and_value():
    coeff = 1j * np.array([[1.0, 0.5], [0.5, -1.0]])
    a = AsymptoticExpansion(ULTRAVIOLET, {LOG: coeff})
    assert a.dim == 2
    val = a.value_at(10.0)
    assert np.allclose(val, coeff * math.log(10.0))
    b = AsymptoticExpansion.from_json_dict(a.to_json_dict())
    assert np.array_equal(b.terms[LOG], a.terms[LOG])


# ---------------------------------------------------------------- regularize


def test_regularize_term_example():
    a = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: 2.0j, CONSTANT: 5.0, BasisFunction(-1, 0): 1.0})
    out = regularize_term(a, 1e6)
    assert out == pytest.approx(5.0 + 1e-6, rel=1e-13)


def test_regularize_term_monotone_convergence():
    a = AsymptoticExpansion(ULTRAVIOLET, {
        QUADRATIC: 1.0j, LOG: 3.0j, CONSTANT: 2.5,
        BasisFunction(-1, 0): 4.0})
    gaps = []
    for k in range(2, 7):
        gaps.append(abs(regularize_term(a, 10.0 ** k) - 2.5))
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-5


def test_regularize_term_rejects_bad_regulator():
    a = AsymptoticExpansion(ULTRAVIOLET, {CONSTANT: 1.0})
    with pytest.raises(ValueError):
        regularize_term(a, 0.0)


# ---------------------------------------------------------------- admissibility


def test_admissible_scalar_cases():
    ok = check_admissible(AsymptoticExpansion(ULTRAVIOLET, {LOG: 3.0j}))
    assert ok.passed and not ok.violations

    bad = check_admissible(AsymptoticExpansion(ULTRAVIOLET, {LOG: 1.0 + 1.0j}))
    assert not bad.passed
    v = bad.violations[0]
    assert str(v.basis) == "ln"
    assert v.hermitian_defect == pytest.approx(1.0, rel=1e-12)


def test_admissible_matrix_dichotomy_over_gamma_slots():
    for mu in (1, 2, 3):
        div = AsymptoticExpansion(ULTRAVIOLET, {LOG: 0.7 * gamma(mu)})
        assert check_admissible(div.divergent_part()).passed
    div4 = AsymptoticExpansion(ULTRAVIOLET, {LOG: 0.7 * gamma(4)})
    report = check_admissible(div4.divergent_part())
    assert not report.passed
    assert check_admissible(
        AsymptoticExpansion(ULTRAVIOLET, {LOG: 0.7j * I4})).passed


def test_admissible_random_skew_and_perturbed():
    rng = np.random.default_rng(41)
    for _ in range(20):
        c = random_skew_hermitian(rng)
        assert check_admissible(
            AsymptoticExpansion(ULTRAVIOLET, {LOG: c})).passed
        spoiled = c + 1e-6 * np.linalg.norm(c) * np.eye(4)
        assert not check_admissible(
            AsymptoticExpansion(ULTRAVIOLET, {LOG: spoiled})).passed


def test_admissible_rejects_convergent_input():
    with pytest.raises(ValueError):
        check_admissible(AsymptoticExpansion(ULTRAVIOLET, {CONSTANT: 1.0}))


def test_admissibility_report_json():
    report = check_admissible(
        AsymptoticExpansion(ULTRAVIOLET, {LOG: 1.0 + 2.0j}))
    data = report.to_json_dict()
    assert data["passed"] is False
    assert data["violations"][0]["power"] == "0"
    assert data["violations"][0]["logpower"] == 1


# ---------------------------------------------------------------- factors


def test_factor_exponential_oracle():
    f = DeviationFactor(ULTRAVIOLET, {LOG: 2.0})
    assert f.evaluate(math.e) == pytest.approx(cmath.exp(2.0j), rel=1e-15)


def test_factor_modulus_one_on_grid():
    f = DeviationFactor(ULTRAVIOLET, {QUADRATIC: 0.3, LINEAR: -0.1, LOG: 2.0})
    for k in range(1, 7):
        assert abs(abs(f.evaluate(10.0 ** k)) - 1.0) <= 1e-14


def test_factor_reference_scale_neutral_point():
    f = DeviationFactor(ULTRAVIOLET, {LOG: 5.0}, reference_scale=42.0)
    assert f.evaluate(42.0) == pytest.approx(1.0, abs=1e-14)


def test_matrix_factor_unitary_and_neutral():
    rng = np.random.default_rng(43)
    h = rng.normal(size=(4, 4))
    h = (h + h.T) / 2.0
    f = DeviationFactor(ULTRAVIOLET, {LOG: h}, reference_scale=7.0)
    u = f.evaluate(300.0)
    assert np.linalg.norm(u.conj().T @ u - I4) <= 1e-12
    assert np.linalg.norm(f.evaluate(7.0) - I4) <= 1e-13


def test_deviation_factor_from_divergent_part():
    div = AsymptoticExpansion(ULTRAVIOLET, {LOG: 3.0j}).divergent_part()
    f = deviation_factor(div)
    lam = 17.0
    assert f.evaluate(lam) == pytest.approx(cmath.exp(3.0j * math.log(lam)),
                                            rel=1e-14)


def test_deviation_factor_rejects_inadmissible():
    div = AsymptoticExpansion(ULTRAVIOLET, {LOG: 1.0}).divergent_part()
    with pytest.raises(AdmissibilityError) as err:
        deviation_factor(div)
    assert err.value.report is not None
    assert not err.value.report.passed


def test_evaluate_factor_function_and_domain():
    f = DeviationFactor(ULTRAVIOLET, {LOG: 1.0})
    assert evaluate_factor(f, 5.0) == f.evaluate(5.0)
    with pytest.raises(ValueError):
        evaluate_factor(f, -1.0)


def test_factor_json_round_trip():
    f = DeviationFactor(ULTRAVIOLET, {LOG: 2.5, QUADRATIC: 0.125},
                        reference_scale=3.0)
    g = DeviationFactor.from_json_dict(f.to_json_dict())
    assert g.reference_scale == 3.0
    for lam in (2.0, 40.0):
        assert g.evaluate(lam) == pytest.approx(f.evaluate(lam), rel=1e-15)


@pytest.mark.parametrize("cls, kind", [(AsymptoticExpansion, "expansion"),
                                       (DeviationFactor, "deviation_factor")])
@pytest.mark.parametrize("record", [
    [1], "x",
    {"regulator": ULTRAVIOLET},
    {"terms": []},
    {"regulator": ULTRAVIOLET, "terms": [1]},
    {"regulator": ULTRAVIOLET, "terms": [{"power": "0", "logpower": 1}]},
])
def test_json_records_reject_malformed(cls, kind, record):
    if isinstance(record, dict):
        record = {"kind": kind, **record}
    with pytest.raises(ValueError, match="record"):
        cls.from_json_dict(record)


# ---------------------------------------------------------------- class A


def test_class_a_membership():
    assert class_a(DeviationFactor(ULTRAVIOLET, {LOG: 1.0}))
    assert class_a(DeviationFactor(ULTRAVIOLET, {LOG2: 0.2, LOG: 1.0}))
    assert class_a(DeviationFactor(ULTRAVIOLET, {}))
    assert not class_a(DeviationFactor(ULTRAVIOLET, {LINEAR: 1.0}))
    assert not class_a(DeviationFactor(ULTRAVIOLET, {QUADRATIC: 0.01}))


def test_drift_proxy_separates_classes():
    polylog = DeviationFactor(ULTRAVIOLET, {LOG: 0.35, LOG2: 0.05})
    drifts = [polylog.drift(lam) for lam in (1e3, 1e4, 1e5)]
    assert drifts[0] > drifts[1] > drifts[2]
    assert drifts[2] < 1e-4

    linear = DeviationFactor(ULTRAVIOLET, {LINEAR: 0.01})
    for lam in (1e3, 1e4, 1e5):
        assert linear.drift(lam) > 0.0099


def test_constant_prefactor_changes_nothing():
    f = DeviationFactor(ULTRAVIOLET, {LOG: 0.8})
    g = DeviationFactor(ULTRAVIOLET, {LOG: 0.8, CONSTANT: 0.7})
    for lam in (10.0, 1e4):
        assert abs(abs(g.evaluate(lam)) - 1.0) <= 1e-14
        assert g.evaluate(lam) == pytest.approx(
            f.evaluate(lam) * cmath.exp(0.7j), rel=1e-14)
    assert class_a(g) == class_a(f)


# ---------------------------------------------------------------- series


def _synthetic_series(e=1e-4):
    a1 = AsymptoticExpansion(ULTRAVIOLET, {
        CONSTANT: 0.2, BasisFunction(-1, 0): 0.05})
    a2 = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: 0.05j, CONSTANT: 0.11, BasisFunction(-1, 0): 0.4})
    a3 = AsymptoticExpansion(ULTRAVIOLET, {LOG: 0.02j, CONSTANT: -0.3})
    return CouplingSeries(e, [a1, a2, a3])


def test_series_reconstruction_law():
    s = _synthetic_series()
    for lam in (1e2, 1e3, 1e4):
        factor, regular = regularize_series(s, lam)
        direct = s.value_at(lam)
        tilde = 1.0 + sum(s.coupling ** m * r
                          for m, r in enumerate(regular, start=1))
        recon = factor.evaluate(lam) * tilde
        assert abs(direct - recon) <= 1e-12


def test_series_regularized_terms_converge():
    a2 = AsymptoticExpansion(ULTRAVIOLET, {LOG: 0.3j, CONSTANT: 0.7})
    s = CouplingSeries(0.01, [AsymptoticExpansion(ULTRAVIOLET, {}), a2])
    gaps = []
    for k in range(2, 7):
        _, regular = regularize_series(s, 10.0 ** k)
        gaps.append(abs(regular[1] - 0.7))
    assert gaps[-1] <= 1e-12
    assert all(g1 >= g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_series_trivial_when_convergent():
    a1 = AsymptoticExpansion(ULTRAVIOLET, {CONSTANT: 0.4})
    s = CouplingSeries(0.1, [a1])
    factor, regular = regularize_series(s, 1e3)
    assert factor.evaluate(1e3) == 1.0
    assert regular[0] == pytest.approx(0.4, rel=1e-15)


def test_series_error_names_order():
    bad = AsymptoticExpansion(ULTRAVIOLET, {LOG2: -0.245})
    s = CouplingSeries(0.1, [AsymptoticExpansion(ULTRAVIOLET, {}), bad])
    with pytest.raises(AdmissibilityError, match="order 2"):
        regularize_series(s, 1e3)


def test_series_value_at():
    s = _synthetic_series(e=0.5)
    lam = 100.0
    manual = 1.0
    for m, a in enumerate(s.coefficients, start=1):
        manual += 0.5 ** m * a.value_at(lam)
    assert s.value_at(lam) == pytest.approx(manual, rel=1e-15)


# ---------------------------------------------------------------- model series


def _tail_bound(phi, psis, e, lam, n):
    # |sum_j psi_j e^j R_{n-j}(y)| with |R_r(y)| <= |y|^(r+1)/(r+1)! e^|y|,
    # y = i e phi ln(lam)
    y = abs(e * phi * math.log(lam))
    total = 0.0
    for j in range(n + 1):
        r = n - j
        total += (abs(psis[j]) * e ** j * y ** (r + 1)
                  / math.factorial(r + 1) * math.exp(y))
    return total


def test_model_series_no_log_is_exact():
    psis = (1.0, 0.3 + 0.1j, 0.1)
    raw, regular = model_series(0.0, psis, 0.1, 1e3, 2)
    expect = 1.0 + 0.1 * psis[1] + 0.01 * psis[2]
    assert raw == pytest.approx(expect, rel=1e-15)
    assert regular == pytest.approx(expect, rel=1e-15)


def test_model_series_uniform_truncation_bound():
    psis = (1.0, 0.3, 0.1, 0.05, 0.02)
    e = 0.1
    partial = [sum(e ** m * psis[m] for m in range(n + 1)) for n in range(5)]
    for n in (1, 2, 3, 4):
        bound = _tail_bound(1.0, psis, e, 1e3, n)
        for lam in (10.0, 1e3):
            raw, regular = model_series(1.0, psis, e, lam, n)
            assert abs(regular - partial[n]) <= bound
        # raw shows the divergence, regular varies only within the bound
        raw10, reg10 = model_series(1.0, psis, e, 10.0, n)
        raw1k, reg1k = model_series(1.0, psis, e, 1e3, n)
        assert abs(raw1k - raw10) > abs(reg1k - reg10)
        assert abs(reg1k - reg10) <= 2.0 * bound


def test_model_series_error_scales_with_coupling():
    psis = (1.0, 0.3, 0.1)
    lam = 1e3
    target = 1.0 + 0.1 * 0.3 + 0.01 * 0.1
    _, r1 = model_series(1.0, psis, 0.1, lam, 2)
    target2 = 1.0 + 0.01 * 0.3 + 0.0001 * 0.1
    _, r2 = model_series(1.0, psis, 0.01, lam, 2)
    ratio = abs(r2 - target2) / abs(r1 - target)
    assert ratio < 5e-3  # cubic in e: a factor 10 in e gains about 1000


def test_model_series_validation():
    with pytest.raises(ValueError):
        model_series(1.0, (0.5, 0.3), 0.1, 1e3, 1)
    with pytest.raises(ValueError):
        model_series(1.0, (1.0, 0.3), 0.1, 1e3, 5)
