"""Closed-form angular averages of the built-in ball integrands, checked
against mpmath quadrature and against a 97-node Chebyshev reduction of the
integrand itself, kept here as a reference."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import devfactor._kernels as kernels
from devfactor._kernels import (
    KIND_AXIAL_COMPONENT,
    KIND_INV_SQUARE,
    KIND_ONE,
)
from devfactor.quadrature import (
    BallIntegrand,
    NonFiniteIntegrandError,
    ball4_integrate,
    chebyshev_pair,
    shifted_denominator_integrand,
)

KINDS = [KIND_ONE, KIND_INV_SQUARE, KIND_AXIAL_COMPONENT]


def _mp_average(kind, p, ell, r):
    """int g(r, x) sqrt(1 - x^2) dx over [-1, 1] by mpmath quadrature in
    x = cos t, written so that no step cancels: A - B cos t as
    (r - p)^2 + (ell - p^2) + 4 p r sin^2(t/2), and the odd axial component
    folded onto [0, pi/2] as r x (4 A B x) / ((A - B x)(A + B x))^2.  The
    integrand is scaled to order 1 (mpmath's tolerance is absolute), and
    breakpoints at decades of the peak width sqrt((A - B) / (p r)) resolve
    the peak at t = 0."""
    with mp.workdps(25):
        p, ell, r = mp.mpf(p), mp.mpf(ell), mp.mpf(r)
        if kind == KIND_ONE:
            return float(mp.quad(lambda t: mp.sin(t) ** 2, [0, mp.pi]))
        a = r * r + ell
        b = 2 * p * r
        gap = (r - p) ** 2 + mp.fsub(ell, mp.fmul(p, p, exact=True), exact=True)
        if kind == KIND_INV_SQUARE:
            scale, end = a * a, mp.pi
        else:
            scale, end = a ** 3 / (r * b), mp.pi / 2

        def g(t):
            s, c = mp.sin(t), mp.cos(t)
            lo = gap + 4 * p * r * mp.sin(t / 2) ** 2
            if kind == KIND_INV_SQUARE:
                return scale * (s / lo) ** 2
            return scale * r * c * s * s * 4 * a * b * c / (lo * (a + b * c)) ** 2

        cuts = [mp.mpf(0)]
        w = mp.sqrt(gap / (p * r)) if p else end
        while w < end:
            cuts.append(w)
            w *= 10
        cuts.append(end)
        return float(mp.quad(g, cuts) / scale)


def _chebyshev_97(kind, p, ell, r):
    """The 97-node Gauss-Chebyshev (second kind) reduction of g and of |g|."""
    theta = np.arange(1, 98) * np.pi / 98
    x = np.cos(theta)[None, :]
    w = (np.pi / 98) * np.sin(theta) ** 2
    r = np.asarray(r, dtype=float)[:, None]
    if kind == KIND_ONE:
        g = np.ones((r.size, x.size))
    else:
        d = r * r - 2 * p * r * x + ell
        g = 1 / (d * d)
        if kind == KIND_AXIAL_COMPONENT:
            g = r * x * g
    return g @ w, np.abs(g) @ w


def _reduce(kind, p, ell, r):
    x, wf, wc = chebyshev_pair(48)
    values, bad = kernels.reduce_axial(kind, p, ell, np.asarray(r, dtype=float),
                                       x, wf, wc)
    assert bad is None
    return values


def _assert_matches_mpmath(kind, p, ell, radii):
    got = _reduce(kind, p, ell, radii)
    for r, value in zip(radii, got):
        if kind == KIND_AXIAL_COMPONENT and p == 0.0:
            assert value == 0.0  # odd in x
            continue
        exact = _mp_average(kind, p, ell, r)
        assert abs(value - exact) <= 1e-13 * abs(exact), (kind, p, ell, r)


RADII = [1e-3, 0.5, 3.0, 1e3, 1e8]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [0.0, 0.3, 1.5])
@pytest.mark.parametrize("excess", [1e-8, 1e-3, 5.0])
def test_reduce_axial_matches_mpmath(kind, p, excess):
    ell = p * p + excess
    radii = RADII + ([p, p * (1 + 1e-6)] if p else [])
    _assert_matches_mpmath(kind, p, ell, radii)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS),
       p=st.floats(0.0, 1.5),
       log_excess=st.floats(-8.0, math.log10(5.0)),
       log_r=st.floats(-3.0, 8.0))
# a subnormal |p| keeps its relative accuracy only if it is rounded once
@example(kind=KIND_AXIAL_COMPONENT, p=5e-324, log_excess=-2.0, log_r=0.0)
def test_reduce_axial_property_matches_mpmath(kind, p, log_excess, log_r):
    ell = p * p + 10.0 ** log_excess
    _assert_matches_mpmath(kind, p, ell, [10.0 ** log_r])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p, ell", [(0.0, 1.0), (0.3, 1.09), (0.7, 1.2),
                                    (1.5, 4.0)])
def test_reduce_axial_matches_chebyshev_reference(kind, p, ell):
    # poles far enough from [-1, 1] that 97 nodes resolve g to rounding
    radii = np.geomspace(1e-3, 1e8, 23)
    ref, magnitude = _chebyshev_97(kind, p, ell, radii)
    got = _reduce(kind, p, ell, radii)
    assert np.all(np.abs(got - ref) <= 1e-13 * magnitude)


def test_numpy_backend_rejects_unknown_kind():
    x, wf, wc = chebyshev_pair(3)
    with pytest.raises(ValueError):
        kernels.reduce_axial(99, 1.0, 1.0, np.array([1.0]), x, wf, wc)


def test_nonfinite_location_reported():
    x, wf, wc = chebyshev_pair(3)
    # p = 1, ell = 1: the denominator vanishes at k = p, on the sphere r = 1
    values, bad = kernels.reduce_axial(
        KIND_INV_SQUARE, 1.0, 1.0, np.array([0.5, 1.0, 2.0]), x, wf, wc)
    assert values is None
    assert bad == 1.0
    # ell < p^2: every sphere with |r - p| < sqrt(p^2 - ell) holds a pole
    _, bad = kernels.reduce_axial(
        KIND_AXIAL_COMPONENT, 1.0, 0.75, np.array([0.2, 0.7, 1.2]), x, wf, wc)
    assert bad == 0.7

    # the reducer reports the point r * axis of that sphere
    axis = np.array([0.0, 0.6, 0.8, 0.0])
    f = BallIntegrand(KIND_INV_SQUARE, tuple(axis), 0.5)
    with pytest.raises(NonFiniteIntegrandError) as err:
        ball4_integrate(f, 3.0)
    loc = np.asarray(err.value.location)
    r = float(np.linalg.norm(loc))
    assert np.allclose(loc, r * axis, rtol=0, atol=1e-15)
    assert abs(r - 1.0) < math.sqrt(0.5)


def test_ball4_uses_kernel_for_builtin(monkeypatch):
    calls = {"n": 0, "radii": 0}
    real = kernels.reduce_axial

    def counting(kind, p, ell, r, *args, **kwargs):
        calls["n"] += 1
        calls["radii"] += len(r)
        return real(kind, p, ell, r, *args, **kwargs)

    monkeypatch.setattr(kernels, "reduce_axial", counting)
    p = np.array([0.3, 0.0, 0.0, 0.0])
    res = ball4_integrate(shifted_denominator_integrand(p, 1.0), 10.0, tol=1e-12)
    assert res.converged
    assert calls["n"] > 1
    # one evaluation per radius; one call for the first step, whose panels
    # are cut at sqrt(ell) * 2^j = 1, 2, 4, 8, and one per bisection, which
    # samples both 15-node halves
    first_panels = 5
    assert res.neval == calls["radii"] == 15 * (first_panels + 2 * (calls["n"] - 1))

    calls["n"] = 0
    res = ball4_integrate(lambda pts: np.exp(-np.sum(pts ** 2, axis=1)),
                          3.0, tol=1e-8, axis=p)
    assert res.converged
    assert calls["n"] == 0  # callables take the Chebyshev rule, not the kernel
