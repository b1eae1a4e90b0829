"""Coulomb and Yukawa partial-wave tests.

scipy.special and mpmath serve as independent oracles for the digamma and
Legendre functions.  The Yukawa kernels are closed Legendre-Q forms (Neumann's
integral); adaptive quadrature of the Legendre-weighted propagator, with P_l
from scipy, and mpmath's Q check them.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from devfactor.coulomb import (
    EULER_GAMMA,
    CoulombPotentialSpec,
    apply_momentum_operator,
    coulomb_divergence_check,
    digamma,
    kernel_R,
    legendre_q,
    s1,
    w0,
    w0_log_phase,
)
from devfactor.expansions import CONSTANT, INFRARED, LOG, deviation_factor
from devfactor.quadrature import segment_integrate


def _mp_q(ell, x):
    """Q_l(x) for x > 1 in mpmath, at the exact value of the float x."""
    with mpmath.workdps(40):
        return mpmath.legenq(ell, 0, mpmath.mpf(x), type=3)


def _mp_q_shifted(ell, num, den):
    """Q_l(1 + num / den) in mpmath, the offset formed exactly from floats."""
    with mpmath.workdps(40):
        return mpmath.legenq(ell, 0, 1 + mpmath.mpf(num) / mpmath.mpf(den), type=3)


# ---------------------------------------------------------------- digamma


def test_digamma_reference_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0),
                                         abs=1e-13)


def test_digamma_recurrence():
    rng = np.random.default_rng(83)
    for _ in range(60):
        x = float(rng.uniform(0.05, 25.0))
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(
            1.0 / x, rel=1e-12, abs=1e-14)


def test_digamma_against_scipy():
    for x in np.geomspace(0.01, 200.0, 40):
        assert digamma(float(x)) == pytest.approx(
            float(scipy.special.digamma(x)), rel=1e-12, abs=1e-12)


def test_digamma_domain():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            digamma(bad)


# ---------------------------------------------------------------- Legendre Q


def test_legendre_q_closed_forms():
    x = 3.0
    q0 = 0.5 * math.log((x + 1.0) / (x - 1.0))
    assert legendre_q(0, x) == pytest.approx(q0, rel=1e-14)
    assert legendre_q(1, x) == pytest.approx(x * q0 - 1.0, rel=1e-13)
    assert legendre_q(0, 3.0) == pytest.approx(0.5 * math.log(2.0), rel=1e-15)


def test_legendre_q_decreases_in_order():
    for x in (1.5, 2.0, 5.0, 10.0, 50.0):
        vals = [legendre_q(ell, x) for ell in range(11)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_legendre_q_recurrence_residual():
    # the small Q_(l+1) emerges from cancelling much larger terms, so the
    # residual is judged against the largest term entering the relation
    for x in np.geomspace(1.1, 50.0, 25):
        x = float(x)
        for ell in range(1, 10):
            t1 = (ell + 1) * legendre_q(ell + 1, x)
            t2 = (2 * ell + 1) * x * legendre_q(ell, x)
            t3 = ell * legendre_q(ell - 1, x)
            assert abs(t1 - t2 + t3) <= 3e-11 * max(abs(t1), abs(t2), abs(t3))


def test_legendre_q_wronskian_with_p():
    # P_l(x) Q_(l-1)(x) - P_(l-1)(x) Q_l(x) = 1/l
    for x in (1.2, 2.0, 7.0, 30.0):
        for ell in range(1, 11):
            p_l = scipy.special.eval_legendre(ell, x)
            p_lm1 = scipy.special.eval_legendre(ell - 1, x)
            w = p_l * legendre_q(ell - 1, x) - p_lm1 * legendre_q(ell, x)
            assert w == pytest.approx(1.0 / ell, rel=1e-10)


def test_legendre_q_against_scipy():
    worst = 0.0
    for x in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0):
        ref = scipy.special.lqn(10, x)[0]
        for ell in range(11):
            got = legendre_q(ell, x)
            worst = max(worst, abs(got - ref[ell]) / abs(ref[ell]))
    assert worst <= 1e-10


def test_legendre_q_against_mpmath():
    # x - 1 spans the kernels' range, from nearly coincident momenta to
    # momenta far apart; Q_1 must not be formed as x Q_0 - 1 at large x
    worst = 0.0
    for delta in np.geomspace(1e-10, 1e4, 29):
        x = 1.0 + float(delta)
        for ell in range(11):
            ref = _mp_q(ell, x)
            worst = max(worst, float(abs((legendre_q(ell, x) - ref) / ref)))
    assert worst <= 1e-12


def test_legendre_q_near_singular_argument():
    # x - 1 ~ 1e-12: the logarithm dominates and must not underflow
    x = 1.0 + 1e-12
    delta = x - 1.0  # representable offset, not the literal
    val = legendre_q(0, x)
    assert val == pytest.approx(0.5 * math.log((2.0 + delta) / delta), rel=1e-9)


def test_legendre_q_domain():
    with pytest.raises(ValueError):
        legendre_q(0, 1.0)
    with pytest.raises(ValueError):
        legendre_q(0, 0.5)
    with pytest.raises(ValueError):
        legendre_q(11, 2.0)


# ---------------------------------------------------------------- kernel


def test_kernel_pinned_coulomb_value():
    spec = CoulombPotentialSpec(z=1.0)
    assert kernel_R(spec, 1.0, 2.0) == pytest.approx(-math.log(3.0) / math.pi,
                                                     rel=1e-12)


def test_kernel_pinned_yukawa_value():
    spec = CoulombPotentialSpec(z=0.0, measure=((1.0, 1.0),))
    assert kernel_R(spec, 1.0, 1.0) == pytest.approx(math.log(5.0) / math.pi,
                                                     rel=1e-12)


def test_kernel_symmetry():
    rng = np.random.default_rng(97)
    spec = CoulombPotentialSpec(z=0.7, ell=2, measure=((1.5, 0.4), (3.0, -0.2)))
    for _ in range(10):
        k, p = rng.uniform(0.2, 5.0, size=2)
        if abs(k - p) < 1e-6:
            continue
        assert kernel_R(spec, float(k), float(p)) == pytest.approx(
            kernel_R(spec, float(p), float(k)), rel=1e-11)


def test_kernel_yukawa_matches_neumann_form():
    # the closed form against quadrature of the Legendre-weighted propagator
    rng = np.random.default_rng(101)
    for ell in range(5):
        for _ in range(3):
            k, p = (float(v) for v in rng.uniform(0.3, 4.0, size=2))
            beta = float(rng.uniform(0.2, 3.0))
            spec = CoulombPotentialSpec(z=0.0, ell=ell, measure=((beta, 1.0),))
            res = segment_integrate(
                lambda x: scipy.special.eval_legendre(ell, x)
                / (k * k + p * p + beta * beta - 2.0 * k * p * x),
                -1.0, 1.0, tol=1e-11)
            assert res.converged
            assert kernel_R(spec, k, p) == pytest.approx(
                (2.0 / math.pi) * res.value, rel=1e-9)


def test_yukawa_terms_against_mpmath():
    # (2 w / (pi k p)) Q_l(1 + ((k-p)^2 + beta^2) / (2kp)) and
    # (-2i w / k^2) Q_l(1 + beta^2 / (2k^2)), Q and its argument from mpmath.
    # The grid includes k = 0.05, beta = 5, where Q_l(1 + 5000) is far below
    # any absolute floor a quadrature of the propagator would use.
    momenta = [float(v) for v in np.geomspace(0.05, 8.0, 5)]
    for beta in (0.5, 1.6, 5.0):
        for ell in range(5):
            spec = CoulombPotentialSpec(z=0.0, ell=ell, measure=((beta, 0.7),))
            for k in momenta:
                ref = -1.4 * _mp_q_shifted(ell, beta * beta, 2 * mpmath.mpf(k) ** 2) / (
                    mpmath.mpf(k) ** 2)
                assert float(abs(s1(spec, k).imag - ref) / abs(ref)) <= 1e-12
                for p in momenta:
                    mk, mp = mpmath.mpf(k), mpmath.mpf(p)
                    q = _mp_q_shifted(ell, (mk - mp) ** 2 + mpmath.mpf(beta) ** 2,
                                      2 * mk * mp)
                    ref = 1.4 * q / (mpmath.pi * mk * mp)
                    assert float(abs((kernel_R(spec, k, p) - ref) / ref)) <= 1e-12


def test_kernel_pole_guard():
    spec = CoulombPotentialSpec(z=1.0)
    with pytest.raises(ValueError, match="pole"):
        kernel_R(spec, 2.0, 2.0)
    # no Coulomb part, coincident momenta are fine
    ok = CoulombPotentialSpec(z=0.0, measure=((1.0, 1.0),))
    assert math.isfinite(kernel_R(ok, 2.0, 2.0))


def test_kernel_momentum_validation():
    spec = CoulombPotentialSpec(z=1.0)
    with pytest.raises(ValueError):
        kernel_R(spec, -1.0, 2.0)
    with pytest.raises(ValueError):
        kernel_R(spec, 1.0, 0.0)
    # squares that underflow or overflow are refused, not divided by
    yukawa = CoulombPotentialSpec(z=0.0, measure=((1.0, 1.0),))
    for k, p in ((1e-200, 1.0), (1.0, 1e-160), (1e200, 1.0), (float("nan"), 1.0)):
        with pytest.raises(ValueError, match="normal"):
            kernel_R(yukawa, k, p)


# ---------------------------------------------------------------- operator


def _legendre_grid(n, lo, hi):
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    weights = 0.5 * (hi - lo) * w
    return nodes, weights


def test_operator_kinetic_limit():
    spec = CoulombPotentialSpec(z=1.0, e=0.0)
    grid = _legendre_grid(10, 0.1, 5.0)
    f = np.exp(-grid[0])
    out = apply_momentum_operator(spec, f, grid)
    assert np.array_equal(out, grid[0] ** 2 * f)


def test_operator_linearity():
    spec = CoulombPotentialSpec(z=0.5, e=0.3, measure=((1.0, 0.5),))
    grid = _legendre_grid(8, 0.2, 4.0)
    rng = np.random.default_rng(103)
    f = rng.normal(size=8) + 1j * rng.normal(size=8)
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    lhs = apply_momentum_operator(spec, 2.0 * f - 0.7j * g, grid)
    rhs = (2.0 * apply_momentum_operator(spec, f, grid)
           - 0.7j * apply_momentum_operator(spec, g, grid))
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_operator_kernel_is_weighted_symmetric():
    spec = CoulombPotentialSpec(z=0.8, e=0.4, measure=((2.0, 1.0),))
    nodes, weights = _legendre_grid(8, 0.2, 4.0)
    n = nodes.size
    columns = []
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        columns.append(apply_momentum_operator(spec, unit, (nodes, weights)))
    m = np.column_stack(columns)
    t = m - np.diag(nodes ** 2)
    # out = k^2 f + e k K diag(w p) f with K symmetric
    kmat = t / (spec.e * nodes[:, None] * weights[None, :] * nodes[None, :])
    assert np.allclose(kmat, kmat.T, rtol=1e-10, atol=1e-12)


def test_operator_validation():
    spec = CoulombPotentialSpec(z=1.0)
    nodes, weights = _legendre_grid(6, 0.1, 2.0)
    with pytest.raises(ValueError):
        apply_momentum_operator(spec, np.ones(5), (nodes, weights))
    with pytest.raises(ValueError):
        apply_momentum_operator(spec, np.ones(6), (nodes, weights[:-1]))
    with pytest.raises(ValueError):
        apply_momentum_operator(spec, np.ones(6), (-nodes, weights))


# ---------------------------------------------------------------- phases


def test_w0_unimodular_and_neutral_points():
    assert w0(0.5, 1.0, 0.0) == 1.0
    k = 2.0
    assert w0(1.0 / (2.0 * k), k, 1.3) == pytest.approx(1.0, rel=1e-14)
    for t in (0.3, 5.0, -2.0):
        assert abs(w0(t, 1.7, 0.9)) == pytest.approx(1.0, rel=1e-14)


def test_w0_forward_backward_cancellation():
    # the phase is odd in t, so opposite times cancel
    val = w0(3.0, 1.2, 0.8) * w0(-3.0, 1.2, 0.8)
    assert val == pytest.approx(1.0, rel=1e-14)


def test_w0_phase_form():
    t, k, z = 4.0, 1.5, 0.6
    assert w0_log_phase(t, k, z) == pytest.approx(
        (z / k) * math.log(2.0 * k * t), rel=1e-14)
    assert w0_log_phase(-t, k, z) == pytest.approx(
        -(z / k) * math.log(2.0 * k * t), rel=1e-14)


def test_w0_rejects_zero_time():
    with pytest.raises(ValueError):
        w0(0.0, 1.0, 1.0)


# ---------------------------------------------------------------- s1


def test_s1_pinned_digamma_values():
    assert s1(CoulombPotentialSpec(z=1.0), 2.0) == pytest.approx(
        1j * EULER_GAMMA, abs=1e-12)
    assert s1(CoulombPotentialSpec(z=1.0, ell=1), 1.0) == pytest.approx(
        -2j * (1.0 - EULER_GAMMA), abs=1e-12)


def test_s1_against_scipy_digamma():
    for ell in range(5):
        for k in (0.5, 2.0, 7.0):
            got = s1(CoulombPotentialSpec(z=1.3, ell=ell), k)
            expect = -2j * 1.3 * scipy.special.digamma(ell + 1) / k
            assert got == pytest.approx(expect, rel=1e-12)


def test_s1_yukawa_closed_form():
    # for ell = 0 the angular integral has the antiderivative
    # -ln(2 k^2 (1 - x) + beta^2) / (2 k^2)
    for k in (0.7, 1.0, 3.0):
        for beta, weight in ((0.5, 1.0), (2.0, -0.3)):
            spec = CoulombPotentialSpec(z=0.0, measure=((beta, weight),))
            got = s1(spec, k)
            expect = -1j * weight * math.log(1.0 + 4.0 * k * k / (beta * beta)) / (k * k)
            assert got == pytest.approx(expect, rel=1e-10)


def test_s1_yukawa_matches_neumann_form():
    # the closed form against quadrature of the Legendre-weighted propagator
    rng = np.random.default_rng(109)
    for ell in range(5):
        for _ in range(3):
            k = float(rng.uniform(0.3, 4.0))
            beta = float(rng.uniform(0.2, 3.0))
            spec = CoulombPotentialSpec(z=0.0, ell=ell, measure=((beta, 1.0),))
            res = segment_integrate(
                lambda x: scipy.special.eval_legendre(ell, x) * k
                / (2.0 * k * k * (1.0 - x) + beta * beta),
                -1.0, 1.0, tol=1e-11)
            assert res.converged
            assert s1(spec, k) == pytest.approx((-2j / k) * res.value, rel=1e-9)


def test_s1_purely_imaginary():
    rng = np.random.default_rng(107)
    for _ in range(8):
        spec = CoulombPotentialSpec(
            z=float(rng.uniform(-2, 2)), ell=int(rng.integers(0, 4)),
            measure=((float(rng.uniform(0.3, 3.0)), float(rng.normal())),))
        val = s1(spec, float(rng.uniform(0.3, 5.0)))
        assert abs(val.real) <= 1e-13 * max(abs(val), 1e-30)


def test_s1_momentum_validation():
    with pytest.raises(ValueError):
        s1(CoulombPotentialSpec(z=1.0), 0.0)
    # k^2 underflows (or overflows): refused instead of divided by
    spec = CoulombPotentialSpec(z=1.0, measure=((1.0, 1.0),))
    for k in (1e-200, 1e-160, 1e160, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="normal"):
            s1(spec, k)


# ---------------------------------------------------------------- divergence


def test_divergence_signature_coefficients():
    z, k = 1.0, 2.0
    sig = coulomb_divergence_check(z, k)
    assert sig.regulator == INFRARED
    assert set(sig.terms) == {LOG, CONSTANT}
    assert sig.terms[LOG] == pytest.approx(1j * z / k, abs=1e-10)
    assert sig.terms[CONSTANT] == pytest.approx(
        1j * (z / k) * math.log(4.0 * k * k), abs=1e-9)


def test_divergence_signature_keeps_tiny_coupling():
    # a weak Coulomb tail keeps both terms
    z, k = 1e-12, 2.0
    sig = coulomb_divergence_check(z, k)
    assert set(sig.terms) == {LOG, CONSTANT}
    assert sig.terms[LOG] == pytest.approx(1j * z / k, rel=1e-9)
    assert sig.terms[CONSTANT] == pytest.approx(
        1j * (z / k) * math.log(4.0 * k * k), rel=1e-9)


def test_divergence_signature_empty_without_coulomb():
    sig = coulomb_divergence_check(0.0, 2.0)
    assert sig.terms == {}


def test_divergence_signature_drops_vanishing_constant():
    # ln(4 k^2) = 0 at k = 1/2
    sig = coulomb_divergence_check(1.0, 0.5)
    assert set(sig.terms) == {LOG}
    assert sig.terms[LOG] == pytest.approx(2j, abs=0)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(z=st.floats(-10.0, 10.0), k=st.floats(0.01, 100.0),
       t=st.floats(1e-3, 1e6), tau=st.floats(-1e6, -1e-3))
def test_divergence_signature_is_the_phase(z, k, t, tau):
    # w0(t) conj(w0(tau)) = U(t |tau|) exp(constant), U the deviation factor
    # of the signature's divergent part
    sig = coulomb_divergence_check(z, k)
    constant = sig.finite_part()
    predicted = (deviation_factor(sig.divergent_part()).evaluate(t * abs(tau))
                 * cmath.exp(constant))
    # each side rounds phases of up to this size before they cancel
    theta = (abs(w0_log_phase(t, k, z)) + abs(w0_log_phase(tau, k, z))
             + abs(constant))
    phase = w0(t, k, z) * w0(tau, k, z).conjugate()
    assert abs(phase - predicted) <= 1e-15 * (1.0 + theta)


def test_divergence_check_validation():
    for k in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            coulomb_divergence_check(1.0, k)


# ---------------------------------------------------------------- spec


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        CoulombPotentialSpec(z=1.0, ell=-1)
    with pytest.raises(ValueError):
        CoulombPotentialSpec(z=1.0, ell=11)
    with pytest.raises(ValueError):
        CoulombPotentialSpec(z=1.0, measure=((0.0, 1.0),))
    with pytest.raises(ValueError):
        CoulombPotentialSpec(z=1.0, measure=((1.0, float("nan")),))
    spec = CoulombPotentialSpec(z=1.0, measure=[(1, 2)])
    assert spec.measure == ((1.0, 2.0),)
    with pytest.raises(ValueError):
        CoulombPotentialSpec(z=1.0, ell=2.5)


def test_potential_spec_normalizes_ell():
    spec = CoulombPotentialSpec(z=1.0, ell=2.0, measure=((1.5, 0.4),))
    assert spec.ell == 2 and type(spec.ell) is int
    same = CoulombPotentialSpec(z=1.0, ell=2, measure=((1.5, 0.4),))
    assert kernel_R(spec, 1.0, 2.0) == kernel_R(same, 1.0, 2.0)
    assert s1(spec, 1.3) == s1(same, 1.3)
