"""Quadrature tests: rule exactness, the segment integrator, and 4-ball
integrals against closed-form oracles."""

import ast
import inspect
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devfactor import quadrature
from devfactor.quadrature import (
    FOUR_PI,
    G7_WEIGHTS,
    GK_NODES,
    GK_WEIGHTS,
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


def ball_oracle(kind, p, ell, radius):
    """Ball integral of a built-in integrand in closed form at 80 digits, as
    a float: "volume" (the constant 1), "shifted" (1 / (k.k - 2 p.k + ell)^2)
    or "component" (k.p/|p| times that), with p the shift's magnitude.  The
    3-sphere average integrates in u = r^2 to elementary functions; their
    terms reach L^4 = 1e32 at L = 1e8 and cancel, hence the digits."""
    with mp.workdps(80):
        u_max = mp.mpf(radius) ** 2
        if kind == "volume":
            return float(mp.pi ** 2 * u_max ** 2 / 2)
        p = mp.mpf(p)
        ell = mp.mpf(ell)
        b = ell - 2 * p * p
        if kind == "shifted":
            if p == 0:
                return float(mp.pi ** 2 * (mp.log((u_max + ell) / ell)
                                           + ell / (u_max + ell) - 1))
            # (pi^2 / (2 p^2)) int_0^U ((u + ell) / sqrt(Q) - 1) du with
            # Q = u^2 + 2 b u + ell^2
            root = mp.sqrt(u_max * u_max + 2 * b * u_max + ell * ell)
            return float(mp.pi ** 2 / (2 * p * p) * (
                root - u_max - ell
                + 2 * p * p * mp.log((u_max + b + root) / (2 * (ell - p * p)))))
        # (pi^2 / (4 p^3)) int_0^U (2 sqrt(Q) - 2 (u + ell) + 4 p^2 u / sqrt(Q)) du
        c = 4 * p * p * (ell - p * p)

        def primitive(u):
            t = u + b
            root = mp.sqrt(t * t + c)
            lg = mp.log(t + root)
            return (t * root + c * lg) - (u * u + 2 * ell * u) + 4 * p * p * (root - b * lg)

        return float(mp.pi ** 2 / (4 * p ** 3) * (primitive(u_max) - primitive(0)))


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


def test_gauss_kronrod_constants_are_correctly_rounded():
    # Kronrod nodes: the zeros of P_7 and of the Stieltjes polynomial E_8,
    # which is even and orthogonal to x^k P_7 for k = 1, 3, 5, 7; weights: the
    # even moment equations of the symmetric rules, one unknown per
    # nonnegative node
    def moment(j):
        return mp.mpf(2) / (j + 1) if j % 2 == 0 else mp.mpf(0)

    with mp.workdps(40):
        p7 = mp.taylor(lambda x: mp.legendre(7, x), 0, 7)

        def against_p7(j):  # int x^j P_7(x) dx over [-1, 1]
            return mp.fsum(c * moment(i + j) for i, c in enumerate(p7))

        # E_8(x) = x^8 + sum_{e = 0, 2, 4, 6} a_e x^e
        a = mp.lu_solve(
            mp.matrix([[against_p7(k + e) for e in (0, 2, 4, 6)]
                       for k in (1, 3, 5, 7)]),
            mp.matrix([-against_p7(k + 8) for k in (1, 3, 5, 7)]))
        # both are polynomials in y = x^2 (P_7 after dividing out x)
        squares = (mp.polyroots([p7[7], p7[5], p7[3], p7[1]], extraprec=100)
                   + mp.polyroots([1, a[3], a[2], a[1], a[0]], extraprec=100))
        nodes = [mp.mpf(0)] + sorted(mp.sqrt(mp.re(y)) for y in squares)

        def weights(xs):
            multiplicity = [1] + [2] * (len(xs) - 1)
            return mp.lu_solve(
                mp.matrix([[m * x ** (2 * i) for m, x in zip(multiplicity, xs)]
                           for i in range(len(xs))]),
                mp.matrix([moment(2 * i) for i in range(len(xs))]))

        gauss_nodes = nodes[::2]
        assert all(abs(mp.legendre(7, x)) < mp.mpf(10) ** -35 for x in gauss_nodes)
        exact = {"nodes": nodes, "kronrod": list(weights(nodes)),
                 "gauss": list(weights(gauss_nodes))}
    # the table by nonnegative node, ascending
    table = {"nodes": GK_NODES[7:], "kronrod": GK_WEIGHTS[7:],
             "gauss": G7_WEIGHTS[7::2]}
    for name, values in exact.items():
        assert [float(v) for v in values] == table[name].tolist(), name


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


@pytest.mark.parametrize("f, a, b", [
    (np.cos, 0.0, 3.0), (np.log, 0.0, 1.0),
    (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0)])
def test_segment_real_samples_match_their_complex_form(f, a, b):
    # real samples are dotted as floats, complex ones as complex: the sums
    # differ in order only, so the values agree to a few ulps of the integral
    # of |f| (the error estimates, differences of such sums, agree less)
    real = segment_integrate(f, a, b, tol=1e-12)
    cplx = segment_integrate(lambda x: f(x) + 0j, a, b, tol=1e-12)
    assert isinstance(real.value, float) and isinstance(cplx.value, complex)
    assert cplx.value.imag == 0.0 and real.neval == cplx.neval
    scale = segment_integrate(lambda x: np.abs(f(x)), a, b, tol=1e-6).value
    assert abs(real.value - cplx.value.real) <= 8 * np.finfo(float).eps * scale


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


def test_segment_integrand_must_be_vectorized():
    # f is called once, on a panel's 15 nodes; its own TypeError propagates
    # instead of being retried point by point
    calls = []

    def f(x):
        calls.append(x.shape)
        return math.sin(x)

    with pytest.raises(TypeError):
        segment_integrate(f, 0.0, 1.0)
    assert calls == [(15,)]


def test_scalar_valued_integrand_is_refused_by_shape():
    # one check for segments and balls: N points give N values
    shape_message = (r"integrand must map points of shape \((15|1020), ?4?\) "
                     r"to values of shape \(\1,\), got shape \(\)")
    with pytest.raises(ValueError, match=shape_message):
        segment_integrate(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=shape_message):
        ball4_integrate(lambda pts: 1.0, 1.0, axis=[1.0, 0.0, 0.0, 0.0])


def test_one_function_calls_the_integrand():
    # every integrand, segment or ball callable, is named f and reaches the
    # module through one checked call (a call in a nested function counts
    # for the enclosing one too)
    tree = ast.parse(inspect.getsource(quadrature))
    callers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "f"]
    assert callers == ["_evaluate"]


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


def _node_sets(f):
    """f, recording the 15-node set of every panel it samples."""
    node_sets = []

    def recorded(x):
        node_sets.extend(x[i:i + 15].tobytes() for i in range(0, x.size, 15))
        return f(x)

    return recorded, node_sets


def test_segment_freezes_panels_at_float_resolution():
    # near 1e16 the float spacing is 2, so bisection stops at 4-wide panels,
    # whose halves would round all their nodes to one endpoint (shared with
    # the next panel's half); those are frozen, and tol 1e-20 can never be met
    f, node_sets = _node_sets(lambda x: np.cos(x - 1e16))
    res = segment_integrate(f, 1e16, 1e16 + 64.0, tol=1e-20, max_evals=3000)
    assert not res.converged
    assert res.neval == 465
    assert len(set(node_sets)) == len(node_sets) == 31
    # the nodes round to even offsets, so this is not sin(64) = 0.920
    assert res.value == pytest.approx(0.5893795340002793, rel=1e-12)


def test_segment_samples_each_node_set_once():
    # [5e15, 5e15 + 4] spans four float steps: one bisection leaves two
    # panels too narrow to bisect, which keep the values they were sampled with
    f, node_sets = _node_sets(lambda x: np.cos(x - 5e15))
    res = segment_integrate(f, 5e15, 5e15 + 4.0, tol=1e-20)
    assert not res.converged
    assert len(set(node_sets)) == len(node_sets) == 3
    assert res.neval == 45


@pytest.mark.parametrize("width, neval", [(1e-6, 4335), (1e-8, 61125)])
def test_segment_running_sums_stop_where_exact_sums_do(width, neval):
    # the first panel's error is 1e12 or more times the last ones; running
    # sums left to drift stop at other panels, and the 1e-8 one then claims
    # convergence with an error above the tolerance
    f = lambda x: 1.0 / (width * width + (x - 0.3) ** 2) + 1e-3 * x
    res = segment_integrate(f, 0.0, 1.0, tol=1e-13)
    assert res.converged
    assert res.error <= 1e-13 * abs(res.value)
    assert res.neval == neval


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
    # the closed-form axial average of an odd integrand is exactly zero, with
    # zero error, which meets the relative tolerance
    assert res.converged
    assert abs(res.value) <= 1e-10


def test_ball_vanishing_integral_cannot_meet_relative_tolerance():
    # an odd callable integrates to zero up to rounding, never below
    # tol * |value|: the budget runs out and the result says so
    a = np.array([1.0, 0.0, 0.0, 0.0])
    res = ball4_integrate(lambda k: (k @ a) * np.exp(-np.sum(k * k, axis=1)),
                          3.0, tol=1e-8, axis=a, max_evals=20000)
    assert not res.converged
    assert abs(res.value) <= res.error < 1e-14


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


def _spy_orders(monkeypatch):
    """Record the angular order of every Chebyshev pair a ball integral asks for."""
    orders = []
    pair = quadrature.chebyshev_pair

    def spy(n):
        orders.append(n)
        return pair(n)

    monkeypatch.setattr(quadrature, "chebyshev_pair", spy)
    return orders


def test_ball_angular_escalation_resolves_peaked_angle(monkeypatch):
    f, axis, exact = _peaked_angle()
    orders = _spy_orders(monkeypatch)
    res = ball4_integrate(f, 5.0, tol=1e-8, axis=axis)
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-7)
    assert orders[:2] == [8, 17]  # escalated at least once


def test_ball_peaked_callable_near_its_pole_converges():
    # closer to the pole the panels need more angular doublings than a fixed
    # limit would allow; only the budget may stop them
    f, axis, exact = _peaked_angle(1.0005)
    res = ball4_integrate(f, 5.0, tol=1e-8, axis=axis)
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("max_evals, neval", [(20000, 17220), (40000, 34440),
                                              (50000, 47370)])
def test_ball_budget_stops_callable_refinement_honestly(max_evals, neval):
    # bisections and angular doublings draw on one budget: the loop stops
    # before the step that would overrun it, with an error that still covers
    # the value
    f, axis, exact = _peaked_angle()
    res = ball4_integrate(f, 5.0, tol=1e-12, axis=axis, max_evals=max_evals)
    assert not res.converged and res.neval == neval <= max_evals
    assert isinstance(res.value, float)
    assert abs(res.value - exact) <= res.error < math.inf
    assert res.value == pytest.approx(exact, rel=1e-8)


def _angular_step():
    """(x > 0.3) e^{-r} in the axial cosine x, and its axis."""
    axis = np.array([0.0, 0.0, 1.0, 0.0])

    def f(pts):
        r = np.sqrt(np.sum(pts * pts, axis=1))
        x = pts @ axis / np.maximum(r, 1e-300)
        return (x > 0.3) * np.exp(-r)

    return f, axis


def test_ball_angular_step_spends_budget_honestly():
    # a step in the axial cosine: each angular doubling lowers the angular
    # error only slowly, so refinement goes on until the budget runs out,
    # and the error still covers the value
    f, axis = _angular_step()

    radial = 6.0 - math.exp(-40.0) * (40.0 ** 3 + 3 * 40.0 ** 2 + 6 * 40.0 + 6)
    # 4 pi int_{0.3}^1 sqrt(1 - x^2) dx
    angular = 2.0 * math.pi * (0.5 * math.pi - 0.3 * math.sqrt(0.91)
                               - math.asin(0.3))
    res = ball4_integrate(f, 40.0, tol=1e-8, axis=axis)
    assert not res.converged and res.neval > 500_000
    assert abs(res.value - radial * angular) <= res.error


def test_callable_panels_are_sampled_in_capped_chunks(monkeypatch):
    # at high angular orders a refinement step's points reach f in chunks of
    # whole radii, at most _CHUNK_POINTS a call, with the result of one call
    # per step
    f, axis = _angular_step()
    sizes = []

    def counted(pts):
        sizes.append(pts.shape[0])
        return f(pts)

    res = ball4_integrate(counted, 40.0, tol=1e-8, axis=axis)
    cap = quadrature._CHUNK_POINTS
    assert cap // 2 < max(sizes) <= cap  # chunks near the cap were needed
    monkeypatch.setattr(quadrature, "_CHUNK_POINTS", 2 ** 40)
    sizes.clear()
    whole = ball4_integrate(counted, 40.0, tol=1e-8, axis=axis)
    assert max(sizes) > cap
    assert (res.value, res.error, res.converged, res.neval) == (
        whole.value, whole.error, whole.converged, whole.neval)


def test_angular_doubling_evaluates_only_new_points():
    # orders n and 2n + 1 nest: a doubled panel keeps its samples, so no
    # point is evaluated twice and the count charged is the count evaluated
    f, axis, exact = _peaked_angle(1.0005)
    seen = []

    def recorded(pts):
        seen.append(pts.copy())
        return f(pts)

    res = ball4_integrate(recorded, 5.0, tol=1e-8, axis=axis)
    points = np.concatenate(seen)
    assert res.converged and res.neval == points.shape[0]
    assert np.unique(points, axis=0).shape[0] == points.shape[0]
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_callable_axis_is_framed_once_per_ladder(monkeypatch):
    # the axis is normalized and its orthogonal partner built once for the
    # whole ladder, however many shells and angular orders there are; each
    # shell is still one ball4_integrate call
    f, axis, exact = _peaked_angle()
    orders = _spy_orders(monkeypatch)
    calls = []

    def spy(name):
        real = getattr(quadrature, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("_unit", "_orthonormal_to", "ball4_integrate"):
        monkeypatch.setattr(quadrature, name, spy(name))
    samples = cutoff_ladder(f, [1.0, 2.0, 5.0], tol=1e-8, axis=axis)
    assert samples.all_converged
    assert samples.values[-1].real == pytest.approx(exact, rel=1e-8)
    assert calls == ["_unit", "_orthonormal_to"] + ["ball4_integrate"] * 3
    # each order's directions are built once and shared by the shells
    assert orders[:2] == [8, 17] and len(orders) == len(set(orders))


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
    orders = _spy_orders(monkeypatch)
    res = ball4_integrate(lambda pts: (1.0 + 1.0j) * f(pts), 5.0, tol=1e-12,
                          axis=axis, max_evals=max_evals)
    assert orders[:2] == [8, 17]  # escalated at least once
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
    for radius, tol in (
            (0.0, 1e-8), (1.0, -1e-8), (math.inf, 1e-8), (math.nan, 1e-8),
            (1.0, math.nan), (1.0, math.inf), (6.6e76, 1e-8), (9e76, 1e-8),
            (1e77, 1e-8), (1.2e77, 1e-8), (1e200, 1e-8)):
        with pytest.raises(ValueError):
            ball4_integrate(unit_integrand(), radius, tol=tol)
    # pi^2 L^4 stays finite up to L ~ 6.5e76, and so does the integral
    res = ball4_integrate(unit_integrand(), 6.5e76, tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(0.5 * (math.pi * 6.5e76 ** 2) ** 2,
                                      rel=1e-13)
    # a callable's first cut, R/8, underflows to 0 here: one panel, no cuts
    res = ball4_integrate(lambda pts: np.ones(pts.shape[0]), 1e-323, tol=1e-8,
                          axis=[1.0, 0.0, 0.0, 0.0])
    assert res.neval == 255
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


def test_panels_sampled_together_sum_as_if_sampled_alone(monkeypatch):
    # a refinement step samples all its panels in one call; splitting every
    # call into 15-node panels must leave each result bitwise unchanged
    p = np.array([0.6, 0.2, 0.0, 0.0])
    builtins = [shifted_denominator_integrand(p, 1.0),
                shifted_component_integrand(p, 0.5)]
    segments = [(lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0),
                (lambda x: np.exp(7j * x) * np.sqrt(x), 0.0, 5.0)]
    shells = []
    real_ball = quadrature.ball4_integrate

    def recorded(*args, **kwargs):
        shells.append(real_ball(*args, **kwargs))
        return shells[-1]

    monkeypatch.setattr(quadrature, "ball4_integrate", recorded)

    def results(wrap):
        single = [segment_integrate(wrap(f), a, b, tol=1e-12)
                  for f, a, b in segments]
        single += [ball4_integrate(f, 1e4, tol=1e-10) for f in builtins]
        ladders = []
        for f in builtins:
            shells.clear()
            ladder = cutoff_ladder(f, [10.0, 1e3, 1e6], tol=1e-10)
            ladders.append((ladder.values.tobytes(), ladder.errors.tobytes(),
                            ladder.converged.tobytes(), list(shells)))
        return single, ladders

    batched = results(lambda f: f)
    assert all(res.neval > 15 for res in batched[0])  # each one bisected

    def per_panel(f):
        return lambda x: np.concatenate(
            [f(x[i:i + 15]) for i in range(0, x.size, 15)])

    real_reduce = quadrature._kernels.reduce_axial

    def reduce_per_panel(kind, p, ell, r, *args):
        parts = [real_reduce(kind, p, ell, r[i:i + 15], *args)
                 for i in range(0, r.size, 15)]
        bad = [b for _, b in parts if b is not None]
        return (None, bad[0]) if bad else (
            np.concatenate([v for v, _ in parts]), None)

    monkeypatch.setattr(quadrature._kernels, "reduce_axial", reduce_per_panel)
    assert results(per_panel) == batched


def test_cutoff_ladder_validation():
    integrand = unit_integrand()
    with pytest.raises(ValueError):
        cutoff_ladder(integrand, [10.0, 5.0])
    with pytest.raises(ValueError):
        cutoff_ladder(integrand, [-1.0, 5.0])
    # every radius is checked before the first rung is integrated
    calls = []

    def f(pts):
        calls.append(pts.shape[0])
        return np.ones(pts.shape[0])

    with pytest.raises(ValueError, match="overflows"):
        cutoff_ladder(f, [10.0, 1e80], axis=[1.0, 0.0, 0.0, 0.0])
    for radii in ([10.0, math.inf], [10.0, math.nan], [0.0, 10.0]):
        with pytest.raises(ValueError, match="finite and positive"):
            cutoff_ladder(f, radii, axis=[1.0, 0.0, 0.0, 0.0])
    assert calls == []


# p = (0.3, 0, 0, 0), ell = 1.09 (excess 1) over L = 10 .. 1e8 at tol 1e-10:
# each rung above L ~ 1e3 used to stop on an absolute floor 1e-14 L^4 after one
# panel and claim convergence up to 61% off
LADDER_P = np.array([0.3, 0.0, 0.0, 0.0])
LADDER_ELL = 1.09
LADDER_RADII = [10.0 ** k for k in range(1, 9)]
LADDER_KINDS = [("shifted", shifted_denominator_integrand),
                ("component", shifted_component_integrand)]


def _rel_errors(kind, samples):
    assert np.all(samples.values.imag == 0.0)
    return [abs(v - ball_oracle(kind, 0.3, LADDER_ELL, lam)) / abs(v)
            for lam, v in zip(samples.lambdas, samples.values.real)]


@pytest.mark.parametrize("kind, make", LADDER_KINDS)
def test_builtin_ladder_to_1e8_is_converged_and_exact(kind, make):
    samples = cutoff_ladder(make(LADDER_P, LADDER_ELL), LADDER_RADII, tol=1e-10)
    assert samples.all_converged
    assert np.all(samples.errors <= 1e-10 * np.abs(samples.values))
    # closed-form angular averages and full-precision rules: rounding only
    assert max(_rel_errors(kind, samples)) <= 1e-15


@pytest.mark.parametrize("kind, make, unconverged", [
    ("shifted", shifted_denominator_integrand, 0),
    # the shells [1e6, 1e7] and [1e7, 1e8] stop on an angular rounding floor
    # of about eps * r / |p| (see the next test)
    ("component", shifted_component_integrand, 2)])
def test_callable_ladder_to_1e8_claims_only_what_it_meets(kind, make, unconverged):
    f = make(LADDER_P, LADDER_ELL)
    samples = cutoff_ladder(f.__call__, LADDER_RADII, tol=1e-10, axis=LADDER_P)
    assert np.count_nonzero(~samples.converged) == unconverged
    # a rung is converged only if every shell below it is
    assert np.all(np.diff(samples.converged.astype(int)) <= 0)
    errors = np.array(_rel_errors(kind, samples))
    assert np.all(errors[samples.converged] <= 1e-10)
    if kind == "shifted":
        assert max(errors) <= 1e-15


@pytest.mark.parametrize("inner, radius", [(1e6, 1e7), (1e7, 1e8)])
def test_ball_angular_rounding_floor_stops_early(inner, radius):
    # the component's leading x sqrt(1 - x^2) term is odd and cancels, so at
    # these radii |fine - coarse| sits on a rounding floor of about
    # eps * r / |p| that no angular order lowers: panels whose doubling does
    # not reduce it are frozen instead of spending the whole budget
    f = shifted_component_integrand(LADDER_P, LADDER_ELL)
    res = ball4_integrate(f.__call__, radius, tol=1e-10, axis=LADDER_P,
                          _inner=inner)
    assert not res.converged
    assert res.neval < 150_000


def _kronrod_nodes(edges):
    return np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * GK_NODES
                           for lo, hi in zip(edges, edges[1:])])


def test_first_step_samples_every_graded_panel_in_one_call(monkeypatch):
    # a built-in's first panels are cut at sqrt(ell) * 2^j, a callable's at
    # R/8, R/4 and R/2, and one sampler call takes the nodes of all of them
    radii = []
    reduce_axial = quadrature._kernels.reduce_axial

    def spy(kind, p, ell, r, x):
        radii.append(r.copy())
        return reduce_axial(kind, p, ell, r, x)

    monkeypatch.setattr(quadrature._kernels, "reduce_axial", spy)
    res = ball4_integrate(shifted_denominator_integrand([0.3, 0.0, 0.0, 0.0], 1.0),
                          1e6, tol=1e-8)
    assert res.converged
    edges = [0.0] + [2.0 ** j for j in range(20)] + [1e6]
    assert np.array_equal(radii[0], _kronrod_nodes(edges))

    points = []

    def f(pts):
        points.append(pts.copy())
        return np.exp(-np.sum(pts * pts, axis=1))

    res = ball4_integrate(f, 1.0, tol=1e-8, axis=[0.0, 1.0, 0.0, 0.0])
    assert res.converged
    first = np.linalg.norm(points[0], axis=1).reshape(-1, 17)
    assert first.shape == (4 * 15, 17)
    assert first == pytest.approx(
        np.repeat(_kronrod_nodes([0.0, 0.125, 0.25, 0.5, 1.0])[:, None], 17, axis=1),
        rel=1e-15)


# Built-in component ladders of the benchmark's mix (perfbench workloads
# ladder_op(412, 2509) and ladder_op(413, 625)) that once claimed convergence
# 2.1x and 126x tol off: on panels far wider than the denominator's scale
# sqrt(ell) the Kronrod - Gauss estimate missed its turn from ell to k.k
MISSED_LADDERS = [
    ([-0.021209100138243016, -0.11683064848718974, 0.024924325491921005,
      -0.047669932062386226], 0.0974477710646341,
     [156065.0196211282, 268679.45517326496, 462554.9646387866,
      796328.4545668495, 1370948.4407934777, 2360206.5410765614,
      4063300.085389389, 6995323.204381307, 12043055.079715122,
      20733162.916934814, 35693936.604525566, 61450204.94134262]),
    ([-0.8443388630658024, 0.8302622961796395, 0.44083210186941707,
      0.6942898719213294], 2.951669346096096,
     [100.00088848566028, 244.0527695956716, 595.6122515437338,
      1453.5952809579908, 3547.5080227898807, 8657.714658694102,
      21129.204678279704, 51565.95105479912, 125847.01358491609]),
]


@pytest.mark.parametrize("p, ell, radii", MISSED_LADDERS)
def test_builtin_component_ladder_meets_its_claim(p, ell, radii):
    samples = cutoff_ladder(shifted_component_integrand(p, ell), radii, tol=1e-6)
    assert samples.all_converged
    p_mag = float(np.linalg.norm(p))
    for lam, v in zip(radii, samples.values.real):
        exact = ball_oracle("component", p_mag, ell, lam)
        assert abs(v - exact) <= 1e-6 * abs(exact), (lam, v, exact)


# Small-cutoff balls, p = |p| (0.6, 0, 0, 0.8), that once converged after a
# few panels 1.45x and 2.23x tol off; also @examples of the properties below
@pytest.mark.parametrize("kind, p, excess, radius, as_callable", [
    ("shifted", 1.1875, 4.825, 29.73, False),
    ("component", 0.587, 1.969, 47556.0, False),
    ("shifted", 1.1875, 4.825, 29.73, True)])
def test_small_cutoff_ball_meets_its_claim(kind, p, excess, radius, as_callable):
    p_vec = p * np.array([0.6, 0.0, 0.0, 0.8])
    ell = p * p + excess
    f = dict(LADDER_KINDS)[kind](p_vec, ell)
    if as_callable:
        res = ball4_integrate(f.__call__, radius, tol=1e-6, axis=p_vec)
    else:
        res = ball4_integrate(f, radius, tol=1e-6)
    assert res.converged
    exact = ball_oracle(kind, p, ell, radius)
    assert abs(res.value - exact) <= 1e-6 * abs(exact)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["volume", "shifted", "component"]),
       p=st.floats(0.01, 1.5),
       excess=st.floats(0.05, 5.0),
       log_lmin=st.floats(-1.0, 2.0),
       decades=st.integers(2, 6),
       rungs=st.integers(2, 8),
       tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
@example(kind="shifted", p=1.1875, excess=4.825, log_lmin=math.log10(29.73),
         decades=2, rungs=2, tol=1e-6)
@example(kind="component", p=0.587, excess=1.969, log_lmin=math.log10(47556.0),
         decades=2, rungs=2, tol=1e-6)
def test_builtin_ladders_increase_and_meet_their_claims(
        kind, p, excess, log_lmin, decades, rungs, tol):
    p_vec = p * np.array([0.6, 0.0, 0.0, 0.8])
    ell = p * p + excess
    make = {"volume": lambda p, ell: unit_integrand(),
            "shifted": shifted_denominator_integrand,
            "component": shifted_component_integrand}[kind]
    radii = np.geomspace(10.0 ** log_lmin, 10.0 ** (log_lmin + decades), rungs)
    samples = cutoff_ladder(make(p_vec, ell), radii, tol=tol)
    assert np.all(np.diff(samples.values.real) > 0)
    for lam, v, ok in zip(radii, samples.values.real, samples.converged):
        if ok:
            exact = ball_oracle(kind, p, ell, lam)
            assert abs(v - exact) <= tol * abs(exact), (lam, v, exact)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["shifted", "component"]),
       p=st.floats(0.05, 1.5),
       excess=st.floats(0.05, 5.0),
       log_radius=st.floats(0.0, 6.0),
       tol=st.sampled_from([1e-6, 1e-8]))
@example(kind="shifted", p=1.1875, excess=4.825, log_radius=math.log10(29.73),
         tol=1e-6)
def test_axis_tagged_callable_meets_its_claim(kind, p, excess, log_radius, tol):
    # the built-in profile as a plain callable, from angular order 8 with
    # kept samples: a converged result is within tol of the closed form
    p_vec = p * np.array([0.6, 0.0, 0.0, 0.8])
    ell = p * p + excess
    f = dict(LADDER_KINDS)[kind](p_vec, ell)
    radius = 10.0 ** log_radius
    res = ball4_integrate(f.__call__, radius, tol=tol, axis=p_vec)
    if res.converged:
        exact = ball_oracle(kind, p, ell, radius)
        assert abs(res.value - exact) <= tol * abs(exact), (res, exact)


def test_ladder_of_sign_changing_callable_claims_only_what_it_meets():
    # pi^2 int_0^{L^2} u cos(u) e^{-u/50} du changes sign with L: the shells
    # cancel, so a rung's summed error can exceed tol * |running value| even
    # where every shell met its own tolerance
    def f(pts):
        u = np.sum(pts * pts, axis=1)
        return np.cos(u) * np.exp(-u / 50.0)

    radii = [1.0, 2.0, 3.0, 4.0, 6.0, 10.0]
    samples = cutoff_ladder(f, radii, tol=1e-8, axis=[0.0, 0.0, 1.0, 0.0])
    for lam, v, err, ok in zip(radii, samples.values.real, samples.errors,
                               samples.converged):
        with mp.workdps(30):
            exact = float(mp.pi ** 2 * mp.quad(
                lambda u: u * mp.cos(u) * mp.exp(-u / 50),
                mp.linspace(0, lam * lam, 33)))
        if ok:
            assert err <= 1e-8 * abs(v)
            assert abs(v - exact) <= 1e-8 * abs(exact)
    assert samples.converged.tolist() == [True] * 5 + [False]


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
    assert FOUR_PI == pytest.approx(4.0 * math.pi, rel=1e-15)
