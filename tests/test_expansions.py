"""Tests for cutoff expansions, admissibility, and deviation factors.

Expected values here come from direct evaluation oracles: closed-form
exponentials, hand-expanded partial sums, and explicitly constructed
skew-Hermitian matrices.
"""

import cmath
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devfactor import expansions as ex
from devfactor.dirac import I4, gamma
from devfactor.expansions import (
    MAX_LOGPOWER,
    CONSTANT,
    INFRARED,
    LINEAR,
    LOG,
    LOG2,
    QUADRATIC,
    REGULATOR_KINDS,
    ULTRAVIOLET,
    AdmissibilityError,
    AsymptoticExpansion,
    BasisFunction,
    CouplingSeries,
    DeviationFactor,
    check_admissible,
    class_a,
    deviation_factor,
    model_series,
    regularize_series,
    regularize_term,
    split_divergent,
)
from devfactor.fitting import fit
from devfactor.quadrature import SampledIntegral


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


def test_basis_function_overflow_names_itself():
    # a power that overflows, and a finite power times a log power that does
    with pytest.raises(OverflowError, match=r"L\^2 overflows at regulator value 1e\+200"):
        QUADRATIC.value(1e200)
    with pytest.raises(OverflowError, match=r"L\*ln\^8 overflows at regulator value 1e\+300"):
        BasisFunction(1, 8).value(1e300)
    assert QUADRATIC.value(1e154) == 1e154 ** 2


def test_basis_function_classification():
    assert QUADRATIC.divergent and LINEAR.divergent and LOG.divergent
    assert LOG2.divergent
    assert CONSTANT.constant and not CONSTANT.divergent
    assert not BasisFunction(-1, 0).divergent
    # a decaying power with a log on top still decays
    assert not BasisFunction(-1, 1).divergent


def _power_spellings(power):
    """Every accepted spelling of a rational power: Fraction, an unreduced
    "p/q" string and, for an integer, int, integral float and np.integer."""
    spellings = [power, f"{2 * power.numerator}/{2 * power.denominator}"]
    if power.denominator == 1:
        k = power.numerator
        spellings += [k, float(k), np.int64(k)]
    return spellings


@pytest.mark.parametrize("twice_power", range(-16, 5))
def test_basis_function_caches_agree_with_fraction_arithmetic(twice_power):
    # hash, divergent flag, sort key and float power are computed once, on
    # construction: every spelling of one function must give what the
    # Fraction arithmetic gives, and serve as the same dictionary key
    power = Fraction(twice_power, 2)
    lams = np.geomspace(1.0, 1e3, 5)
    for logpower in range(MAX_LOGPOWER + 1):
        spellings = _power_spellings(power)
        bases = [BasisFunction(s, logpower) for s in spellings]
        expansion = AsymptoticExpansion(ULTRAVIOLET, {bases[0]: 2.0})
        values = [2.0 * bases[0].value(lam) for lam in lams]
        result = fit(SampledIntegral(lams, values, np.zeros(5), np.ones(5)),
                     (bases[0],))
        for spelling, b in zip(spellings, bases):
            assert b == bases[0] and hash(b) == hash((power, logpower))
            assert b.divergent == (power > 0 or (power == 0 and logpower > 0))
            assert b._sort_key == (-power, -logpower)
            assert b.value(3.7) == 3.7 ** float(power) * math.log(3.7) ** logpower
            assert expansion.terms[b][0, 0] == 2.0
            assert result.coefficients[b] == result.coefficient(spelling, logpower)
        assert len({b: None for b in bases}) == 1
        assert result.coefficients[bases[0]] == pytest.approx(2.0, rel=1e-12)


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


@pytest.mark.parametrize("coeff", [
    math.nan * 1j, complex(math.inf, 1.0), [[1j, math.nan], [math.nan, 1j]],
], ids=["nan-imaginary", "inf-real", "nan-matrix"])
def test_nonfinite_coefficients_refused(coeff):
    # an expansion and a factor's exponent share one coefficient check, so
    # neither the admissibility check nor a factor ever sees NaN or inf
    with pytest.raises(ValueError, match="finite"):
        AsymptoticExpansion(ULTRAVIOLET, {LOG: coeff})
    with pytest.raises(ValueError, match="finite"):
        DeviationFactor(ULTRAVIOLET, {LOG: coeff})
    record = AsymptoticExpansion(ULTRAVIOLET, {LOG: 1j}).to_json_dict()
    record["terms"][0]["re"] = [[math.nan]]
    with pytest.raises(ValueError, match="finite"):
        AsymptoticExpansion.from_json_dict(record)
    for coupling in (math.nan, math.inf):
        with pytest.raises(ValueError, match="coupling must be finite"):
            CouplingSeries(coupling, [AsymptoticExpansion(ULTRAVIOLET, {LOG: 1j})])


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


def test_regularize_term_keeps_regular_part_at_large_cutoff():
    # dropping the divergent terms, not subtracting their value from the
    # whole, keeps the constant: the subtraction returned 0.11 + 0j here
    a = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: 0.05j, QUADRATIC: 1j, CONSTANT: 0.11 + 0.2j})
    assert regularize_term(a, 1e8) == 0.11 + 0.2j
    h = 1j * np.array([[1.0, 0.5], [0.5, -1.0]])
    c = np.array([[0.11 + 0.2j, 0.3], [-0.3, 0.5j]])
    b = AsymptoticExpansion(ULTRAVIOLET, {LOG: h, QUADRATIC: h, CONSTANT: c})
    assert np.array_equal(regularize_term(b, 1e8), c)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
       log_lam=st.floats(-3.0, 12.0), log_size=st.floats(0.0, 8.0))
def test_regularize_term_is_sum_of_nondivergent_terms(seed, dim, log_lam,
                                                      log_size):
    rng = np.random.default_rng(seed)

    def coefficient(size=1.0):
        return size * (rng.normal(size=(dim, dim))
                       + 1j * rng.normal(size=(dim, dim)))

    regular = {b: coefficient() for b in (
        CONSTANT, BasisFunction(-1, 0), BasisFunction(-2, 1),
        BasisFunction(Fraction(-1, 2), 0))}
    divergent = {b: coefficient(10.0 ** log_size)
                 for b in (QUADRATIC, LINEAR, LOG2, LOG)}
    lam = 10.0 ** log_lam
    out = regularize_term(
        AsymptoticExpansion(ULTRAVIOLET, {**divergent, **regular}), lam)
    parts = [c * b.value(lam) for b, c in regular.items()]
    assert np.all(np.abs(np.atleast_2d(out) - sum(parts))
                  <= 1e-14 * sum(np.abs(p) for p in parts))


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


def test_admissible_check_does_not_overflow_on_huge_coefficients():
    # the norms are taken in units of the largest entry: a real coefficient
    # far above 1e154 is refused, an imaginary one passes, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad = check_admissible(AsymptoticExpansion(ULTRAVIOLET, {LOG: 1e200}))
        assert not bad.passed
        assert bad.violations[0].hermitian_defect == pytest.approx(1e200)
        assert check_admissible(
            AsymptoticExpansion(ULTRAVIOLET, {LOG: 1e300j})).passed
        huge = 1e300 * (0.7j * I4)
        assert check_admissible(AsymptoticExpansion(ULTRAVIOLET, {LOG: huge})).passed
        assert not check_admissible(
            AsymptoticExpansion(ULTRAVIOLET, {LOG: huge + 1e290 * I4})).passed
    with pytest.raises(AdmissibilityError):
        deviation_factor(AsymptoticExpansion(ULTRAVIOLET, {LOG: 1e200}))
    # the scale is a power of two: reported norms are those of c itself
    c = 0.7 * gamma(4) + 0.3j * I4
    (v,) = check_admissible(AsymptoticExpansion(ULTRAVIOLET, {LOG: c})).violations
    assert v.coefficient_norm == float(np.linalg.norm(c))
    assert v.hermitian_defect == float(np.linalg.norm(c + c.conj().T))


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


def test_factor_evaluate_domain():
    f = DeviationFactor(ULTRAVIOLET, {LOG: 1.0})
    assert f.evaluate(5.0) == cmath.exp(1j * math.log(5.0))
    for lam in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            f.evaluate(lam)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 4]),
       regulator=st.sampled_from(REGULATOR_KINDS),
       log_scale=st.floats(-3.0, 3.0), log_lam=st.floats(-2.0, 6.0))
def test_factor_json_round_trip_is_bit_identical(seed, dim, regulator,
                                                  log_scale, log_lam):
    rng = np.random.default_rng(seed)
    exponent = {}
    for b in (QUADRATIC, LINEAR, LOG2, LOG, CONSTANT,
              BasisFunction(Fraction(-1, 2), 1)):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        exponent[b] = (h + h.conj().T) / 2.0
    f = DeviationFactor(regulator, exponent, reference_scale=10.0 ** log_scale)
    g = DeviationFactor.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert g.to_json_dict() == f.to_json_dict()
    lam = 10.0 ** log_lam
    assert np.array_equal(g.evaluate(lam), f.evaluate(lam))


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


def _random_admissible_series(rng, dim, orders, coupling):
    """Divergent coefficients i times Hermitian, finite ones arbitrary."""
    def normal():
        return 0.2 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    coefficients = []
    for _ in range(orders):
        terms = {b: normal() for b in (CONSTANT, BasisFunction(-1, 0))}
        for b in (LINEAR, LOG2, LOG):
            h = normal()
            terms[b] = 0.5j * (h + h.conj().T)
        coefficients.append(AsymptoticExpansion(ULTRAVIOLET, terms, dim=dim))
    return CouplingSeries(coupling, coefficients)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 4]),
       orders=st.integers(1, 3), coupling=st.floats(1e-6, 0.3),
       log_lam=st.floats(0.3, 3.0))
def test_series_reconstruction_law_property(seed, dim, orders, coupling, log_lam):
    # U(L) regular(L) = raw(L) up to second order in the absorbed exponent:
    # with x = sum_m e^m (divergent part of a_m)(L), anti-Hermitian, and
    # r = sum_m e^m regular_m(L), U = exp(x) and raw = 1 + x + r, so
    # ||U (1 + r) - raw|| = ||(U - 1 - x) + (U - 1) r|| <= |x| (|x|/2 + |r|).
    series = _random_admissible_series(np.random.default_rng(seed), dim,
                                       orders, coupling)
    lam = 10.0 ** log_lam
    factor, regular = regularize_series(series, lam)
    weights = [coupling ** m for m in range(1, orders + 1)]
    x = sum(w * np.atleast_2d(a.divergent_part().value_at(lam))
            for w, a in zip(weights, series.coefficients))
    r = sum(w * np.atleast_2d(reg) for w, reg in zip(weights, regular))
    raw = np.atleast_2d(series.value_at(lam))
    recon = np.atleast_2d(factor.evaluate(lam)) @ (np.eye(dim) + r)
    nx, nr = np.linalg.norm(x), np.linalg.norm(r)
    rounding = 1e-14 * dim * (1.0 + nx) * (1.0 + nx + nr)
    assert np.linalg.norm(recon - raw) <= nx * (nx / 2.0 + nr) + rounding


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
