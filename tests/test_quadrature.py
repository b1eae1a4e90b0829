"""Quadrature tests: rule exactness, the segment integrator, and 4-ball
integrals against closed-form oracles."""

import math

import numpy as np
import pytest

from devfactor import quadrature
from devfactor.quadrature import (
    FOUR_PI,
    G7_WEIGHTS,
    GK_NODES,
    GK_WEIGHTS,
    S3_AREA,
    BallIntegrand,
    NonFiniteIntegrandError,
    QuadratureResult,
    SampledIntegral,
    ball4_integrate,
    chebyshev_pair,
    cutoff_ladder,
    segment_integrate,
    shifted_component_integrand,
    shifted_denominator_integrand,
    unit_integrand,
)


def ball_volume(radius):
    return math.pi ** 2 * radius ** 4 / 2.0


def shell_log_oracle(radius, ell):
    # int over |k| <= radius of 1/(k^2 + ell)^2, radially exact
    r2 = radius * radius
    return math.pi ** 2 * (math.log((r2 + ell) / ell) + ell / (r2 + ell) - 1.0)


# ---------------------------------------------------------------- rules


def test_gauss_node_exactness_to_degree_13():
    for k in range(14):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        approx = float(G7_WEIGHTS @ GK_NODES ** k)
        assert approx == pytest.approx(exact, rel=1e-14, abs=1e-15)


def test_kronrod_node_exactness_to_degree_22():
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        approx = float(GK_WEIGHTS @ GK_NODES ** k)
        assert approx == pytest.approx(exact, rel=1e-13, abs=1e-14)


def test_chebyshev_pair_closed_forms():
    # int_-1^1 x^(2j) sqrt(1-x^2) dx
    exact = {0: math.pi / 2, 1: math.pi / 8, 2: math.pi / 16, 3: 5 * math.pi / 128}
    nodes, w_fine, w_coarse = chebyshev_pair(6)
    assert nodes.size == 13 and w_fine.size == 13 and w_coarse.size == 13
    for j, val in exact.items():
        assert float(w_fine @ nodes ** (2 * j)) == pytest.approx(val, rel=1e-13)
        assert float(w_coarse @ nodes ** (2 * j)) == pytest.approx(val, rel=1e-13)


def test_chebyshev_pair_nesting():
    nodes, w_fine, w_coarse = chebyshev_pair(5)
    assert np.all(w_coarse[0::2] == 0.0)
    coarse_nodes, cw, _ = chebyshev_pair(2)
    assert np.allclose(nodes[1::2][::-1].size, coarse_nodes.size)
    # the coarse rule lives on every second fine node
    sub = np.sort(nodes[1::2])
    ref = np.sort(np.cos(np.arange(1, 6) * math.pi / 6.0))
    assert np.allclose(sub, ref, atol=1e-15)


# ---------------------------------------------------------------- segments


def test_segment_polynomial_and_trig():
    res = segment_integrate(lambda x: x ** 3, 0.0, 1.0, tol=1e-12)
    assert res.converged and res.value == pytest.approx(0.25, rel=1e-13)
    res = segment_integrate(np.sin, 0.0, math.pi, tol=1e-12)
    assert res.value == pytest.approx(2.0, rel=1e-12)
    assert isinstance(res.value, float)


def test_segment_feynman_parameter_moment():
    res = segment_integrate(lambda u: u * (1.0 - u), 0.0, 1.0, tol=1e-13)
    assert res.value == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_segment_endpoint_singularities():
    # integrable endpoint singularities fit well inside the default budget
    res = segment_integrate(np.log, 0.0, 1.0, tol=1e-10)
    assert res.converged and res.neval == 825
    assert res.value == pytest.approx(-1.0, rel=1e-9)
    res = segment_integrate(lambda u: u ** -0.5, 0.0, 1.0, tol=1e-10)
    assert res.converged and res.neval == 1725
    assert res.value == pytest.approx(2.0, rel=1e-8)


def test_segment_complex_integrand():
    res = segment_integrate(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-12)
    expect = math.sin(1.0) + 1j * (1.0 - math.cos(1.0))
    assert res.value == pytest.approx(expect, rel=1e-12)
    assert isinstance(res.value, complex)


def test_segment_error_estimate_is_honest():
    res = segment_integrate(lambda x: np.cos(10.0 * x), 0.0, 3.0, tol=1e-10)
    exact = math.sin(30.0) / 10.0
    assert abs(res.value - exact) <= max(res.error * 10.0, 1e-13)


def test_segment_rejects_bad_interval():
    with pytest.raises(ValueError):
        segment_integrate(np.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        segment_integrate(np.sin, 2.0, 1.0)
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                 (0.0, math.nan)):
        with pytest.raises(ValueError):
            segment_integrate(np.sin, a, b)
    for tol, abs_tol in ((0.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                         (1e-8, math.nan), (1e-8, -1.0)):
        with pytest.raises(ValueError):
            segment_integrate(np.sin, 0.0, 1.0, tol=tol, abs_tol=abs_tol)


def test_segment_nonfinite_reports_location():
    def f(x):
        return np.where(np.abs(x - 0.5) < 0.01, np.nan, x)

    with pytest.raises(NonFiniteIntegrandError) as err:
        segment_integrate(f, 0.0, 1.0, tol=1e-12)
    (where,) = err.value.location
    assert abs(where - 0.5) < 0.02


def test_segment_budget_exhaustion_reports_nonconverged():
    res = segment_integrate(lambda x: np.sin(200.0 * x) / (1e-4 + x * x),
                            0.0, 1.0, tol=1e-14, max_evals=120)
    assert not res.converged
    assert math.isfinite(res.value)


def test_segment_budget_below_one_panel_evaluates_nothing():
    res = segment_integrate(np.sin, 0.0, 1.0, max_evals=10)
    assert (res.value, res.error, res.converged, res.neval) == (
        0.0, math.inf, False, 0)
    assert isinstance(res.value, float)
    res = segment_integrate(np.sin, 0.0, 1.0, max_evals=15)
    assert res.converged and res.neval == 15


def test_segment_freezes_panels_at_float_resolution():
    # near 1e16 the float spacing is 2, so bisection stops at 2-wide panels;
    # those are frozen, and tol 1e-20 can never be met
    res = segment_integrate(lambda x: np.cos(x - 1e16), 1e16, 1e16 + 64.0,
                            tol=1e-20, max_evals=3000)
    assert not res.converged
    assert res.neval == 1425
    assert res.value == pytest.approx(-0.8421137331778507, rel=1e-12)


def test_segment_determinism():
    f = lambda x: np.exp(-x) * np.sin(7.0 * x)
    a = segment_integrate(f, 0.0, 5.0, tol=1e-12)
    b = segment_integrate(f, 0.0, 5.0, tol=1e-12)
    assert a.value == b.value and a.error == b.error and a.neval == b.neval


# ---------------------------------------------------------------- 4-ball


def test_ball_volume_builtin_and_axis_paths():
    for radius in (0.5, 1.0, 2.0, 5.0):
        exact = ball_volume(radius)
        res = ball4_integrate(unit_integrand(), radius, tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(exact, rel=1e-8)

        res = ball4_integrate(lambda pts: np.ones(pts.shape[0]), radius,
                              tol=1e-10, axis=[0.0, 0.0, 0.0, 1.0])
        assert res.value == pytest.approx(exact, rel=1e-8)


def test_ball_centered_inverse_square_oracle():
    integrand = shifted_denominator_integrand(np.zeros(4), 1.0)
    for radius in (10.0, 100.0):
        res = ball4_integrate(integrand, radius, tol=1e-8)
        assert res.converged
        assert res.value == pytest.approx(shell_log_oracle(radius, 1.0),
                                          rel=1e-6)


def test_ball_shifted_large_radius_asymptote():
    p = np.array([0.6, 0.0, 0.0, 0.8])
    integrand = shifted_denominator_integrand(p, 2.0)
    res = ball4_integrate(integrand, 100.0, tol=1e-8)
    # Delta = ell - |p|^2 = 1: asymptote pi^2 (2 ln L - 1), remainder O(1/L)
    asymptote = math.pi ** 2 * (2.0 * math.log(100.0) - 1.0)
    assert res.value == pytest.approx(asymptote, rel=2e-4)


def test_ball_builtin_and_callable_paths_agree():
    p = np.array([0.6, 0.0, 0.0, 0.8])
    builtin = shifted_denominator_integrand(p, 2.0)
    delta = 2.0 - 1.0

    def by_hand(pts):
        diff = pts - p
        return 1.0 / (np.sum(diff * diff, axis=1) + delta) ** 2

    a = ball4_integrate(builtin, 20.0, tol=1e-8)
    b = ball4_integrate(by_hand, 20.0, tol=1e-8, axis=p)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= 1e-12 * abs(a.value)


def test_ball_generic_path_converges_on_smooth_integrand():
    res = ball4_integrate(lambda pts: np.exp(-np.sum(pts * pts, axis=1)),
                          3.0, tol=1e-7, axis=[0.5, -0.5, 0.5, 0.5])
    exact = math.pi ** 2 * (1.0 - math.exp(-9.0) * 10.0)
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-7)


def test_ball_rotation_invariance():
    rng = np.random.default_rng(61)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    axis = np.array([1.0, 0.0, 0.0, 0.0])

    def f(pts, a):
        r2 = np.sum(pts * pts, axis=1)
        x = pts @ a / np.sqrt(np.maximum(r2, 1e-300))
        return (1.0 + 0.3 * x) / (r2 + 1.0) ** 2

    res1 = ball4_integrate(lambda pts: f(pts, axis), 10.0, tol=1e-9,
                           axis=axis)
    res2 = ball4_integrate(lambda pts: f(pts, q @ axis), 10.0, tol=1e-9,
                           axis=q @ axis)
    assert abs(res1.value - res2.value) <= 1e-9 * abs(res1.value)


def test_ball_odd_integrand_vanishes():
    integrand = shifted_component_integrand(np.zeros(4), 1.0)
    res = ball4_integrate(integrand, 5.0, tol=1e-8)
    # absolute floor lets an exactly-odd integrand converge to zero
    assert res.converged
    assert abs(res.value) <= 1e-10


def test_ball_component_matches_difference_of_building_blocks():
    p = np.array([0.3, -0.4, 1.0, 0.2])
    ell = float(p @ p) + 1.0
    comp = ball4_integrate(shifted_component_integrand(p, ell), 40.0, tol=1e-9)
    assert comp.converged
    # numerator k . phat grows like the vector asymptote |p| (2 ln L - 3/2)
    p_mag = math.sqrt(float(p @ p))
    asymptote = math.pi ** 2 * p_mag * (2.0 * math.log(40.0) - 1.5)
    assert comp.value == pytest.approx(asymptote, rel=2e-3)


def _peaked_angle(c=1.004):
    """A callable sharply peaked along its axis, over the ball of radius 5,
    with its exact integral."""
    axis = np.array([0.0, 1.0, 0.0, 0.0])

    def f(pts):
        r2 = np.sum(pts * pts, axis=1)
        x = pts @ axis / np.sqrt(np.maximum(r2, 1e-300))
        return 1.0 / ((r2 + 1.0) ** 2 * (c - x))

    # polar slices of the 3-sphere are 2-spheres: 4 pi sin^2(theta) measure
    radial = 0.5 * (math.log(1.0 + 25.0) + 1.0 / 26.0 - 1.0)
    angular = FOUR_PI * math.pi * (c - math.sqrt(c * c - 1.0))
    return f, axis, radial * angular


def test_ball_angular_escalation_resolves_peaked_angle(monkeypatch):
    f, axis, exact = _peaked_angle()
    res = ball4_integrate(f, 5.0, tol=1e-8, axis=axis)
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-7)

    monkeypatch.setattr(quadrature, "_MAX_ANGULAR_ESCALATIONS", 0)
    stuck = ball4_integrate(f, 5.0, tol=1e-8, axis=axis)
    assert not stuck.converged
    assert stuck.error > res.error


@pytest.mark.parametrize("max_evals, neval", [(20000, 18915), (40000, 39390),
                                              (60000, 56940)])
def test_ball_escalation_keeps_last_funded_attempt(max_evals, neval):
    # the next angular order's first panel does not fit what is left of the
    # budget: the attempt already made is returned, not an empty one
    f, axis, exact = _peaked_angle()
    res = ball4_integrate(f, 5.0, tol=1e-12, axis=axis, max_evals=max_evals)
    assert not res.converged and res.neval == neval
    assert isinstance(res.value, float)
    assert abs(res.value - exact) <= res.error < math.inf
    assert res.value == pytest.approx(exact, rel=1e-8)


def test_ball_callable_budget_below_one_panel_is_real():
    res = ball4_integrate(lambda pts: np.ones(pts.shape[0]), 30.0, tol=1e-8,
                          axis=[1.0, 0.0, 0.0, 0.0], max_evals=20)
    assert (res.value, res.error, res.converged, res.neval) == (
        0.0, math.inf, False, 0)
    assert isinstance(res.value, float)


@pytest.mark.parametrize("max_evals", [1_000_000, 20000])
def test_ball_complex_callable_stays_complex_through_escalation(
        monkeypatch, max_evals):
    f, axis, exact = _peaked_angle()
    orders = []
    radial = quadrature._adaptive_radial

    def spy(g, ax, n, *args):
        orders.append(n)
        return radial(g, ax, n, *args)

    monkeypatch.setattr(quadrature, "_adaptive_radial", spy)
    res = ball4_integrate(lambda pts: (1.0 + 1.0j) * f(pts), 5.0, tol=1e-12,
                          axis=axis, max_evals=max_evals)
    assert orders[:2] == [48, 97]  # escalated at least once
    assert isinstance(res.value, complex)
    assert res.value.real == res.value.imag
    assert res.value.real == pytest.approx(exact, rel=1e-8)


def test_ball_callable_without_axis_raises():
    with pytest.raises(ValueError, match="axis"):
        ball4_integrate(lambda pts: np.ones(pts.shape[0]), 1.0, tol=1e-6)


def test_ball_nonfinite_reports_location():
    def f(pts):
        r2 = np.sum(pts * pts, axis=1)
        return np.where(r2 > 2.25, np.nan, 1.0)

    with pytest.raises(NonFiniteIntegrandError) as err:
        ball4_integrate(f, 2.0, tol=1e-8, axis=[1.0, 0.0, 0.0, 0.0])
    loc = np.asarray(err.value.location, dtype=float)
    assert loc.shape == (4,)
    assert float(loc @ loc) > 2.25


def test_ball_determinism():
    integrand = shifted_denominator_integrand([0.5, 0.5, 0.0, 0.0], 1.5)
    a = ball4_integrate(integrand, 30.0, tol=1e-8)
    b = ball4_integrate(integrand, 30.0, tol=1e-8)
    assert a.value == b.value and a.error == b.error and a.neval == b.neval


def test_ball_validation():
    for radius, tol, abs_tol in (
            (0.0, 1e-8, None), (1.0, -1e-8, None), (math.inf, 1e-8, None),
            (math.nan, 1e-8, None), (1.0, math.nan, None),
            (1.0, math.inf, None), (1.0, 1e-8, -1.0), (1.0, 1e-8, math.nan),
            (6.6e76, 1e-8, None), (9e76, 1e-8, None), (1e77, 1e-8, None),
            (1.2e77, 1e-8, None), (1e200, 1e-8, 0.0)):
        with pytest.raises(ValueError):
            ball4_integrate(unit_integrand(), radius, tol=tol, abs_tol=abs_tol)
    # pi^2 L^4 stays finite up to L ~ 6.5e76, and so does the integral
    res = ball4_integrate(unit_integrand(), 6.5e76, tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(0.5 * (math.pi * 6.5e76 ** 2) ** 2,
                                      rel=1e-13)
    for axis in ([1.0, 0.0, 0.0], [1.0] * 8, [math.nan, 1.0, 0.0, 0.0],
                 [math.inf, 0.0, 0.0, 0.0], [0.0] * 4, [1e300] * 4):
        with pytest.raises(ValueError, match="axis"):
            ball4_integrate(lambda pts: np.ones(pts.shape[0]), 1.0,
                            tol=1e-8, axis=axis)
    with pytest.raises(ValueError):
        shifted_denominator_integrand([1.0, 0.0, 0.0, 0.0], 1.0)  # Delta = 0
    with pytest.raises(ValueError):
        shifted_component_integrand([1.0, 1.0, 0.0, 0.0], 1.0)


def test_ball_integrand_evaluates_pointwise():
    p = np.array([0.0, 0.0, 0.0, 1.0])
    integrand = shifted_denominator_integrand(p, 2.0)
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]])
    # (k-p)^2 + Delta with Delta = 1
    expect = np.array([1.0 / 4.0, 1.0 / 4.0])
    assert np.allclose(integrand(pts), expect, rtol=1e-15)
    assert integrand.p_mag == 1.0
    assert np.allclose(integrand.axis, p)


def test_budget_exhaustion_flags_nonconvergence():
    integrand = shifted_denominator_integrand([0.2, 0.1, 0.0, 0.0], 1.1)
    res = ball4_integrate(integrand, 50.0, tol=1e-13, max_evals=20)
    assert not res.converged
    assert math.isfinite(res.value)


# ---------------------------------------------------------------- ladders


def test_cutoff_ladder_matches_single_calls():
    radii = np.array([5.0, 10.0, 20.0])
    integrand = shifted_denominator_integrand(np.zeros(4), 1.0)
    samples = cutoff_ladder(integrand, radii, tol=1e-8)
    assert samples.all_converged
    assert len(samples) == 3
    for lam, val in zip(samples.lambdas, samples.values):
        res = ball4_integrate(integrand, lam, tol=1e-8)
        assert val == res.value


def test_cutoff_ladder_validation():
    integrand = unit_integrand()
    with pytest.raises(ValueError):
        cutoff_ladder(integrand, [10.0, 5.0])
    with pytest.raises(ValueError):
        cutoff_ladder(integrand, [-1.0, 5.0])


def test_sampled_integral_validation():
    with pytest.raises(ValueError):
        SampledIntegral(np.array([1.0, 1.0]), np.zeros(2), np.zeros(2),
                        np.ones(2, dtype=bool))
    with pytest.raises(ValueError):
        SampledIntegral(np.array([1.0, 2.0]), np.zeros(3), np.zeros(2),
                        np.ones(2, dtype=bool))


def test_quadrature_result_fields():
    res = ball4_integrate(unit_integrand(), 1.0, tol=1e-8)
    assert isinstance(res, QuadratureResult)
    assert res.error >= 0.0
    assert isinstance(res.neval, int) and res.neval > 0


def test_area_constants():
    assert S3_AREA == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    assert FOUR_PI == pytest.approx(4.0 * math.pi, rel=1e-15)
