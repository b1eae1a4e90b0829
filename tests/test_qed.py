"""Worked-example tests: self-energies, vertex, and their cross-checks.

Matrix coefficients are rebuilt here from explicit gamma products, and
scipy.integrate / scipy.linalg provide second routes for the moment integrals
and the exponential map.
"""

import json
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from devfactor import qed
from devfactor.dirac import GAMMA, I4, slash
from devfactor.expansions import CONSTANT, LOG, BasisFunction
from devfactor.qed import (
    ELECTRON_EXAMPLE_ID,
    PHOTON_EXAMPLE_ID,
    VERTEX_EXAMPLE_ID,
    bubble_moment,
    electron_self_energy,
    example_report,
    feynman_combine,
    feynman_log_moment,
    photon_self_energy,
    standard_integral_log,
    standard_integral_vector,
    vertex_part,
)

P_REF = np.array([0.3, -0.2, 0.5, 0.7])


def contract(p):
    ps = slash(p)
    return sum(g @ ps @ g for g in GAMMA)


# ------------------------------------------------------- standard integrals


def test_standard_integral_cutoff_independent_combination():
    rng = np.random.default_rng(109)
    for _ in range(20):
        p = rng.normal(size=4)
        ell = float(p @ p + rng.uniform(0.1, 5.0))
        nu = int(rng.integers(1, 5))
        for cutoff in (10.0, 1e3, 1e6):
            combo = (p[nu - 1] * standard_integral_log(p, ell, cutoff)
                     - standard_integral_vector(p, ell, cutoff, nu))
            assert 1j * combo == pytest.approx(-math.pi ** 2 * p[nu - 1] / 2.0,
                                               abs=1e-10)


def test_standard_integral_validation():
    p = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        standard_integral_log(p, 1.0, 100.0)  # ell - |p|^2 = 0
    with pytest.raises(ValueError):
        standard_integral_log(p, 2.0, 0.0)
    with pytest.raises(ValueError):
        standard_integral_vector(p, 2.0, 100.0, 0)
    with pytest.raises(ValueError):
        standard_integral_vector(p, 2.0, 100.0, 5)


# ------------------------------------------------------- denominator fusion


def test_feynman_combine_randomized():
    rng = np.random.default_rng(113)
    for _ in range(50):
        a, b = rng.uniform(0.05, 50.0, size=2)
        chk = feynman_combine(float(a), float(b))
        assert chk.rel_error <= 1e-9
        assert chk.exact == pytest.approx(1.0 / (a * b), rel=1e-15)
        assert chk.quadrature == pytest.approx(chk.exact, rel=1e-9)
        assert chk.abs_error == abs(chk.quadrature - chk.exact)


def test_feynman_combine_validation():
    with pytest.raises(ValueError):
        feynman_combine(0.0, 1.0)
    with pytest.raises(ValueError):
        feynman_combine(1.0, -2.0)


# ------------------------------------------------------- log moment


def test_log_moment_pinned():
    # m = 1, p^2 = 1: -2 ln 1 - 2 + 2 ln 2
    assert feynman_log_moment(1.0, 1.0) == pytest.approx(
        2.0 * math.log(2.0) - 2.0, rel=1e-14)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_log_moment_against_quad():
    for m in (0.5, 1.0, 2.0):
        for p_sq in (0.3, 1.0, 4.0):
            msq = m * m
            val, err = scipy.integrate.quad(
                lambda u: math.log((p_sq + msq) * u - p_sq * u * u), 0.0, 1.0)
            assert feynman_log_moment(p_sq, m) == pytest.approx(val, abs=1e-10)


def test_log_moment_validation():
    with pytest.raises(ValueError):
        feynman_log_moment(0.0, 1.0)
    with pytest.raises(ValueError):
        feynman_log_moment(1.0, -1.0)


# ------------------------------------------------------- electron


def test_electron_expansion_coefficients():
    m, e = 1.3, 0.5
    rep = electron_self_energy(P_REF, m, e)
    phi = m * e * e / (8.0 * math.pi ** 2)
    p_sq = float(P_REF @ P_REF)
    two_lnb = feynman_log_moment(p_sq, m)
    assert np.allclose(rep.expansion.terms[LOG], 1j * phi * I4, atol=1e-15)
    expected_const = ((-1j * phi * (two_lnb + 1.0) / 2.0) * I4
                      - (e * e / (2.0 * math.pi) ** 4)
                      * (math.pi ** 2 / 2.0) * contract(P_REF))
    assert np.allclose(rep.expansion.terms[CONSTANT], expected_const, atol=1e-14)


def test_electron_regular_part():
    m, e = 0.9, 0.4
    rep = electron_self_energy(P_REF, m, e)
    expected = (e * e / (16.0 * math.pi ** 2)) * (
        m * 1j * I4 + 0.5 * contract(P_REF))
    assert np.allclose(rep.regular_part, expected, atol=1e-15)


def test_electron_factor_neutral_at_reference_scale():
    rep = electron_self_energy(P_REF, 1.1, 0.3)
    a = rep.notes["reference_scale"]
    assert a == pytest.approx(math.exp((rep.notes["two_lnb"] + 1.0) / 2.0),
                              rel=1e-14)
    assert np.allclose(rep.factor.evaluate(a), I4, atol=1e-13)


def test_electron_factor_unitary_and_admissible():
    rep = electron_self_energy(P_REF, 1.0, 0.30282212)
    assert rep.admissibility.passed
    assert rep.factor.class_a
    for lam in (10.0, 1e4):
        u = rep.factor.evaluate(lam)
        assert np.allclose(u.conj().T @ u, I4, atol=1e-12)


def test_electron_quadrature_cross_check():
    rep = electron_self_energy(P_REF, 1.0, 0.3)
    assert rep.cross_checks["feynman_log_quadrature"] <= 1e-10
    assert set(rep.cross_checks) == {"feynman_log_quadrature"}


def test_electron_ladder_cross_checks():
    # fitted on (ln, 1, L^-2, L^-4), the terms the integrals have, the
    # coefficients sit within 1.3e-8 of the closed asymptotes here; the
    # former basis (ln, 1, 1/L, 1/L^2) was 3.9e-5 off
    rep = electron_self_energy(np.array([0.2, 0.1, -0.3, 0.4]), 1.0, 0.3,
                               cross_check_ladder=True)
    for key in ("ladder_log_scalar", "ladder_const_scalar",
                "ladder_log_vector", "ladder_const_vector"):
        assert rep.cross_checks[key] <= 1e-7, key


def test_electron_kinematics_and_id():
    rep = electron_self_energy(P_REF, 1.0, 0.3)
    assert rep.example_id == ELECTRON_EXAMPLE_ID
    assert rep.kinematics["p_sq"] == pytest.approx(float(P_REF @ P_REF))
    assert rep.kinematics["p3"] == 0.5
    assert rep.ir_expansion is None and rep.ir_factor is None


def test_electron_validation():
    with pytest.raises(ValueError):
        electron_self_energy(np.zeros(4), 1.0, 0.3)
    with pytest.raises(ValueError):
        electron_self_energy(np.zeros(3), 1.0, 0.3)
    with pytest.raises(ValueError):
        electron_self_energy(P_REF, -1.0, 0.3)


def test_electron_json_deterministic():
    a = electron_self_energy(P_REF, 1.0, 0.3).to_json_dict()
    b = electron_self_energy(P_REF, 1.0, 0.3).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["kind"] == "example_report"
    assert a["schema_version"] == 1


# ------------------------------------------------------- bubble moment


def test_bubble_moment_small_ratio_series():
    ratio = 0.05
    series = (ratio / 30.0 - ratio ** 2 / 280.0 + ratio ** 3 / 1890.0
              - ratio ** 4 / 11088.0)
    assert bubble_moment(ratio, 1.0) == pytest.approx(series, rel=1e-6)


def test_bubble_moment_against_quad():
    ratio = 1.0
    val, err = scipy.integrate.quad(
        lambda x: x * (1.0 - x) * math.log1p(ratio * x * (1.0 - x)), 0.0, 1.0)
    assert bubble_moment(1.0, 1.0) == pytest.approx(val, abs=1e-12)
    # scaling: sigma depends on p^2/m^2 only
    assert bubble_moment(4.0, 2.0) == pytest.approx(bubble_moment(1.0, 1.0),
                                                    rel=1e-12)


@pytest.mark.parametrize("ratio", [
    1e-10, 1e-4, 0.1, 1.0, 1.5, 1.999999999, 2.0, 2.000000001, 2.5, 3.0,
    4.0, 10.0, 1e3, 1e8, 1e16, 1e100, 1e300])
def test_bubble_moment_against_mpmath(ratio):
    # series below r = 2, closed form from there, against 40-digit quadrature
    with mpmath.workdps(40):
        r = mpmath.mpf(ratio)
        cuts = [0, 1 / r, 0.5] if ratio > 2 else [0, 0.5]
        want = 2 * mpmath.quad(lambda x: x * (1 - x) * mpmath.log1p(r * x * (1 - x)),
                               cuts)
        assert abs(bubble_moment(ratio, 1.0) - want) <= 1e-14 * want


def test_bubble_moment_edges():
    assert bubble_moment(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        bubble_moment(1.0, 0.0)
    with pytest.raises(ValueError):
        bubble_moment(-1.0, 1.0)


# ------------------------------------------------------- photon


def test_photon_expansion_coefficients():
    p_sq, m, e = 2.0, 1.5, 0.4
    rep = photon_self_energy(p_sq, m, e)
    c0 = e * e / (2.0 * math.pi ** 2)
    sigma = bubble_moment(p_sq, m)
    assert rep.expansion.terms[LOG] == pytest.approx(-1j * c0 * p_sq / 3.0,
                                                     rel=1e-14)
    assert rep.expansion.terms[CONSTANT] == pytest.approx(
        1j * c0 * ((p_sq / 3.0) * math.log(m) + 5.0 * p_sq / 36.0
                   + p_sq * sigma), rel=1e-13)
    assert rep.notes["sigma"] == pytest.approx(sigma, rel=1e-14)


def test_photon_factor_neutral_at_mass():
    rep = photon_self_energy(1.0, 1.5, 0.4)
    assert rep.factor.evaluate(1.5) == pytest.approx(1.0, abs=1e-14)
    assert abs(rep.factor.evaluate(200.0)) == pytest.approx(1.0, rel=1e-13)
    assert rep.admissibility.passed
    assert rep.factor.class_a


def test_photon_regular_part():
    p_sq, m, e = 1.0, 2.0, 0.5
    rep = photon_self_energy(p_sq, m, e)
    c0 = e * e / (2.0 * math.pi ** 2)
    expected = c0 * p_sq * bubble_moment(p_sq, m) / 3.0
    assert complex(rep.regular_part).imag == 0.0
    assert rep.regular_part == pytest.approx(expected, rel=1e-14)


def test_photon_cross_checks():
    # sigma, a series below r = 2 and a closed form above, against adaptive
    # quadrature of its defining integral, both sides of the switch
    for p_sq in (1e-3, 0.01, 1.0, 4.0, 1e4, 1e8):
        rep = photon_self_energy(p_sq, 1.0, 0.4)
        assert set(rep.cross_checks) == {"bubble_quadrature"}
        assert rep.cross_checks["bubble_quadrature"] <= 1e-13
        # the closed asymptote grows only logarithmically
        assert set(rep.expansion.terms) == {LOG, CONSTANT}


def test_photon_cross_check_sees_a_wrong_sigma(monkeypatch):
    # the quadrature is independent of bubble_moment: a sigma off by 1e-10
    # shows, where the old r/30 comparison reported 3r/28 whatever sigma was
    right = bubble_moment
    monkeypatch.setattr(qed, "bubble_moment",
                        lambda p_sq, m: right(p_sq, m) * (1.0 + 1e-10))
    for p_sq in (0.01, 4.0):
        rep = photon_self_energy(p_sq, 1.0, 0.4)
        assert rep.cross_checks["bubble_quadrature"] >= 0.9e-10
    assert photon_self_energy(0.0, 1.0, 0.4).cross_checks == {}


def test_photon_degenerate_at_zero_momentum():
    rep = photon_self_energy(0.0, 1.0, 0.4)
    assert rep.notes["sigma"] == 0.0
    assert rep.notes["phi"] == 0.0
    assert rep.regular_part == 0.0
    assert rep.cross_checks == {}
    assert rep.admissibility.passed


def test_photon_validation():
    with pytest.raises(ValueError):
        photon_self_energy(1.0, 0.0, 0.4)
    with pytest.raises(ValueError):
        photon_self_energy(-1.0, 1.0, 0.4)


# ------------------------------------------------------- vertex


def test_vertex_spatial_indices_admissible():
    for mu in (1, 2, 3):
        rep = vertex_part(1.0, 0.3, 0.001, 1000.0, mu)
        assert rep.admissibility.passed, mu
        assert rep.cross_checks["combined_factor_unitarity"] <= 1e-12
        assert rep.cross_checks["uv_ir_factorization"] <= 1e-12


def test_vertex_time_index_fails():
    rep = vertex_part(1.0, 0.3, 0.001, 1000.0, 4)
    assert not rep.admissibility.passed
    assert len(rep.admissibility.violations) == 2
    assert rep.factor is None and rep.ir_factor is None
    assert rep.cross_checks == {}


def test_vertex_expansion_coefficients():
    m, e, lam = 1.2, 0.4, 0.01
    rep = vertex_part(m, e, lam, 500.0, 2)
    c = e * e / (4.0 * math.pi ** 2)
    g = GAMMA[1]
    assert np.allclose(rep.expansion.terms[LOG], (c / 2.0) * g, atol=1e-15)
    assert np.allclose(
        rep.expansion.terms[CONSTANT],
        -c * (0.5 * math.log(m) + math.log(m / lam)) * g, atol=1e-14)
    assert np.allclose(rep.ir_expansion.terms[LOG], -c * g, atol=1e-15)
    assert np.allclose(rep.ir_expansion.terms[CONSTANT],
                       -c * math.log(m) * g, atol=1e-14)
    assert rep.notes["uv_log_weight"] == pytest.approx(c / 2.0, rel=1e-15)
    assert rep.notes["ir_log_weight"] == pytest.approx(-c, rel=1e-15)


def test_vertex_factorization_against_expm():
    m, e, lam, cutoff, mu = 1.0, 0.30282212, 0.001, 1000.0, 1
    rep = vertex_part(m, e, lam, cutoff, mu)
    c = e * e / (4.0 * math.pi ** 2)
    g = GAMMA[mu - 1]
    combined = rep.factor.evaluate(cutoff) @ rep.ir_factor.evaluate(1.0 / lam)
    exponent = -c * g * (-0.5 * math.log(cutoff / m) + math.log(m / lam))
    assert np.allclose(combined, scipy.linalg.expm(exponent), atol=1e-12)


def test_vertex_equal_masses_neutral_ir_factor():
    m = 2.0
    rep = vertex_part(m, 0.3, m, 100.0, 1)
    assert np.allclose(rep.ir_factor.evaluate(1.0 / m), I4, atol=1e-13)


def test_vertex_regular_is_uv_constant_term():
    m, e, lam = 1.3, 0.3, 0.001
    rep = vertex_part(m, e, lam, 1000.0, 3)
    assert rep.regular_part_note.startswith("constant term")
    assert np.array_equal(rep.regular_part, rep.expansion.terms[CONSTANT])
    c = e * e / (4.0 * math.pi ** 2)
    expected = -c * (0.5 * math.log(m) + math.log(m / lam)) * GAMMA[2]
    assert np.allclose(rep.regular_part, expected, rtol=0, atol=1e-15)


def test_vertex_validation():
    with pytest.raises(ValueError):
        vertex_part(0.0, 0.3, 0.001, 1000.0, 1)
    with pytest.raises(ValueError):
        vertex_part(1.0, 0.3, 0.0, 1000.0, 1)
    with pytest.raises(ValueError):
        vertex_part(1.0, 0.3, 1.5, 1000.0, 1)  # heavier than m
    with pytest.raises(ValueError):
        vertex_part(1.0, 0.3, 0.001, 0.5, 1)
    with pytest.raises(ValueError):
        vertex_part(1.0, 0.3, 0.001, 1000.0, 5)


# ------------------------------------------------------- dispatch


def test_example_report_dispatch():
    by_alias = example_report("electron", p=P_REF, m=1.0, e=0.3)
    by_id = example_report(ELECTRON_EXAMPLE_ID, p=P_REF, m=1.0, e=0.3)
    assert by_alias.to_json_dict() == by_id.to_json_dict()
    assert example_report("photon", p_sq=1.0, m=1.0,
                          e=0.3).example_id == PHOTON_EXAMPLE_ID
    assert example_report("vertex", m=1.0, e=0.3, photon_mass=0.01,
                          cutoff=100.0, mu=1).example_id == VERTEX_EXAMPLE_ID


def test_example_report_unknown_id():
    with pytest.raises(ValueError, match="unknown example"):
        example_report("positron")
