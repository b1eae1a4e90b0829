"""Partial-wave Coulomb plus short-range kernels and their infrared phases.

Momentum-space radial kernel for a potential made of a Coulomb tail z/r and a
finite sum of Yukawa terms, the action of the corresponding kinetic-plus-
potential operator on a radial grid, and the logarithmically divergent time
phases that the Coulomb tail produces.  Every partial-wave projection is a
Legendre function of the second kind: Neumann's integral
Q_ell(c) = 1/2 int_-1^1 P_ell(t) / (c - t) dt (DLMF 14.12) turns the Coulomb
tail and each Yukawa term into one Q value, with no quadrature.  The special
functions needed (digamma, and Q above the cut) are implemented here with
recurrence- and continued-fraction schemes chosen for the argument ranges the
kernels actually hit, including nearly coincident momenta where the Q
argument sits within rounding of 1.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .expansions import CONSTANT, INFRARED, LOG, AsymptoticExpansion
from .fitting import fit
# segment_integrate is not called here; the binding stays because the
# benchmark's tracer test (perfbench/test_perfbench.py) expects
# devfactor.coulomb.segment_integrate.  Drop it with that expectation.
from .quadrature import SampledIntegral, segment_integrate  # noqa: F401

EULER_GAMMA = 0.5772156649015328606

MAX_Q_ELL = 10

# Relative momentum separation below which the Coulomb part of the kernel is
# treated as hitting its logarithmic pole.
POLE_TOL = 1e-10

# Forward recurrence for Q is used only this close to the singular point 1,
# where its error amplification is negligible; elsewhere the backward
# continued-fraction route is stable.
_FORWARD_RHO_LIMIT = 1.01


def digamma(x):
    """Digamma function for x > 0.

    Arguments below 10 are shifted up by the recurrence psi(x+1) = psi(x) +
    1/x, then the asymptotic series in 1/x^2 is summed; the truncation error
    at the shifted argument is below 1e-16.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0:
        raise ValueError(f"digamma requires a positive finite argument, got {x}")
    x = float(x)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    tail = u * (1.0 / 12.0 - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (
        1.0 / 240.0 - u * (1.0 / 132.0 - u * (691.0 / 32760.0 - u / 12.0))))))
    return acc + math.log(x) - 0.5 / x - tail


def _legendre_q_shifted(ell, delta):
    """Q_ell at x = 1 + delta, taking the offset delta > 0 directly so that
    nearly coincident kernel momenta (delta far below machine epsilon) keep
    their full logarithm."""
    if not (0.0 < delta < math.inf):
        raise ValueError(f"Q is defined for arguments > 1, got offset {delta}")
    x = 1.0 + delta
    q0 = 0.5 * math.log1p(2.0 / delta)
    if ell == 0:
        return q0
    s = math.sqrt(delta * (2.0 + delta))  # sqrt(x^2 - 1) without cancellation
    rho = x + s
    if rho < _FORWARD_RHO_LIMIT:
        # So close to 1 the forward recurrence amplifies errors by at most
        # rho^(2 ell) ~ 1, and Q_1 = x Q_0 - 1 loses little to cancellation
        # because Q_0 is large; run it directly.
        qkm1, qk = q0, x * q0 - 1.0
        for k in range(1, ell):
            qkm1, qk = qk, ((2 * k + 1) * x * qk - k * qkm1) / (k + 1)
        return qk
    # Backward ratios r_k = Q_k / Q_{k-1} from the continued fraction
    # r_k = k / ((2k+1) x - (k+1) r_{k+1}), seeded with the asymptotic ratio.
    # Q_1 comes from r_1 too: x Q_0 - 1 cancels catastrophically for large x.
    # The denominator adds (2k+1) delta last, so the rounding of x = 1 + delta
    # does not enter the ratios.
    depth = ell + max(8, int(40.0 / math.log(rho)) + 1)
    ratios = [0.0] * (ell + 1)
    r = x - s
    for k in range(depth, 0, -1):
        r = k / (((2 * k + 1) - (k + 1) * r) + (2 * k + 1) * delta)
        if k <= ell:
            ratios[k] = r
    q = q0
    for k in range(1, ell + 1):
        q *= ratios[k]
    return q


def legendre_q(ell, x):
    """Legendre function of the second kind Q_ell(x) for x > 1, ell <= 10.

    Q_0 is a closed form; higher degrees use the forward recurrence
    immediately above 1 and a backward continued-fraction scheme elsewhere,
    keeping the relative error below 1e-13 for x - 1 in [1e-10, 1e4].
    """
    if ell < 0 or ell != int(ell):
        raise ValueError(f"degree must be a non-negative integer, got {ell}")
    if ell > MAX_Q_ELL:
        raise ValueError(f"degree {ell} exceeds the validated range 0..{MAX_Q_ELL}")
    x = float(x)
    if not math.isfinite(x) or x <= 1.0:
        raise ValueError(f"Q is defined here for x > 1, got {x}")
    return _legendre_q_shifted(int(ell), x - 1.0)


@dataclass(frozen=True)
class CoulombPotentialSpec:
    """Partial-wave potential description: Coulomb strength z, overall
    coupling e, angular momentum ell, and a short-range measure given as
    (beta, weight) Yukawa pairs."""

    z: float
    e: float = 1.0
    ell: int = 0
    measure: tuple = ()

    def __post_init__(self):
        if self.ell < 0 or self.ell != int(self.ell):
            raise ValueError(f"partial wave must be a non-negative integer, got {self.ell}")
        if self.ell > MAX_Q_ELL:
            raise ValueError(
                f"partial wave {self.ell} exceeds the validated range 0..{MAX_Q_ELL}")
        object.__setattr__(self, "ell", int(self.ell))
        norm = []
        for pair in self.measure:
            beta, weight = pair
            beta = float(beta)
            weight = float(weight)
            if not (beta > 0):
                raise ValueError(f"Yukawa range parameter must be positive, got {beta}")
            if not math.isfinite(weight):
                raise ValueError(f"Yukawa weight must be finite, got {weight}")
            norm.append((beta, weight))
        object.__setattr__(self, "measure", tuple(norm))


def _check_momentum(k):
    """Refuse a momentum unless it is positive and its square is a normal,
    finite float: the closed forms divide by k^2 and k p."""
    k = float(k)
    if not (k > 0 and sys.float_info.min <= k * k < math.inf):
        raise ValueError(
            f"momentum must be positive with a normal, finite square, got {k}")


def _kernel(spec, k, p, include_coulomb):
    _check_momentum(k)
    _check_momentum(p)
    total = 0.0
    if include_coulomb and spec.z != 0.0:
        if abs(k - p) < POLE_TOL * max(k, p):
            raise ValueError(
                f"Coulomb kernel pole: momenta k={k} and p={p} coincide "
                f"within relative {POLE_TOL}")
        delta = (k - p) ** 2 / (2.0 * k * p)
        total -= (2.0 * spec.z / (math.pi * k * p)) * _legendre_q_shifted(spec.ell, delta)
    for beta, weight in spec.measure:
        delta = ((k - p) ** 2 + beta * beta) / (2.0 * k * p)
        total += (2.0 * weight / (math.pi * k * p)) * _legendre_q_shifted(spec.ell, delta)
    return total


def kernel_R(spec, k, p):
    """Symmetric radial kernel of the partial-wave potential.

    The Coulomb tail contributes -(2 z / (pi k p)) Q_ell((k^2+p^2)/(2kp)),
    singular at k = p; each Yukawa term (beta, w) contributes
    (2 w / (pi k p)) Q_ell((k^2+p^2+beta^2)/(2kp)), Neumann's form of the
    Legendre-weighted angular integral of its propagator.  Raises ValueError
    when z is nonzero and the momenta coincide within relative 1e-10, and for
    momenta whose square is not a positive normal float.
    """
    return _kernel(spec, k, p, include_coulomb=True)


def apply_momentum_operator(spec, f, grid, quad_tol=1e-10):
    """Apply the radial kinetic-plus-potential operator on a momentum grid.

    grid is a (nodes, weights) pair for the radial quadrature; f holds the
    function values on the nodes.  Output per node i is k_i^2 f_i + e *
    sum_j w_j f_j p_j k_i R(k_i, p_j).  The singular Coulomb part of the
    kernel is omitted on the diagonal, where the off-diagonal quadrature
    weights already carry the principal-value combination; with e = 0 the
    result is exactly the kinetic term.  The kernel is in closed form, so
    quad_tol is accepted for compatibility and ignored.
    """
    nodes, weights = grid
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    f = np.asarray(f, dtype=complex)
    if nodes.shape != weights.shape or nodes.ndim != 1:
        raise ValueError("grid nodes and weights must be matching 1-D arrays")
    if f.shape != nodes.shape:
        raise ValueError(
            f"function values have shape {f.shape}, grid has {nodes.shape}")
    if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
        raise ValueError("grid nodes must be positive and strictly increasing")
    out = nodes ** 2 * f
    if spec.e == 0.0 or nodes.size == 0:
        return out
    n = nodes.size
    kernel = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            val = _kernel(spec, nodes[i], nodes[j], include_coulomb=(i != j))
            kernel[i, j] = val
            kernel[j, i] = val
    out = out + spec.e * nodes * (kernel @ (weights * nodes * f))
    return out


def w0_log_phase(t, k, z):
    """Logarithmic phase (z sign(t) / k) ln(2 k |t|) of the leading
    long-time Coulomb distortion."""
    if not (k > 0):
        raise ValueError(f"momentum must be positive, got {k}")
    if t == 0:
        raise ValueError("time parameter must be nonzero")
    return (z * math.copysign(1.0, t) / k) * math.log(2.0 * k * abs(t))


def w0(t, k, z):
    """Unimodular leading time distortion exp(i (z sign(t)/k) ln(2 k |t|))."""
    return cmath.exp(1j * w0_log_phase(t, k, z))


def s1(spec, k, quad_tol=1e-12):
    """First-order scattering coefficient at momentum k.

    Purely imaginary: -2i z psi(ell + 1) / k from the Coulomb tail (psi the
    digamma function) plus, per Yukawa term (beta, w), -2i/k times the
    Legendre-weighted angular integral of k / (2 k^2 (1 - x) + beta^2), which
    is (-2i w / k^2) Q_ell(1 + beta^2/(2 k^2)) by Neumann's integral.  The
    value is in closed form, so quad_tol is accepted for compatibility and
    ignored.  Raises ValueError for momenta whose square is not a positive
    normal float.
    """
    _check_momentum(k)
    total = -2j * spec.z * digamma(spec.ell + 1) / k
    for beta, weight in spec.measure:
        delta = beta * beta / (2.0 * k * k)
        total += (-2j * weight / (k * k)) * _legendre_q_shifted(spec.ell, delta)
    return total


def coulomb_divergence_check(z, k, t_values, tau_values):
    """Fit the sampled long-time Coulomb phase against {ln, 1} in |t tau|.

    t_values are positive outgoing times, tau_values negative incoming ones,
    with |t tau| strictly increasing.  The sampled first-order phase
    i (z/k) (ln(2kt) + ln(2k|tau|)) is fit over the product regulator; the
    returned infrared expansion keeps the terms that survive (coefficient
    i z / k on the logarithm, i (z/k) ln(4 k^2) constant), and is empty for
    z = 0.
    """
    if not (k > 0):
        raise ValueError(f"momentum must be positive, got {k}")
    t_values = np.asarray(t_values, dtype=float)
    tau_values = np.asarray(tau_values, dtype=float)
    if t_values.shape != tau_values.shape or t_values.ndim != 1:
        raise ValueError("time grids must be matching 1-D arrays")
    if np.any(t_values <= 0):
        raise ValueError("outgoing times must be positive")
    if np.any(tau_values >= 0):
        raise ValueError("incoming times must be negative")
    products = t_values * np.abs(tau_values)
    phases = np.array([
        w0_log_phase(t, k, z) - w0_log_phase(tau, k, z)
        for t, tau in zip(t_values, tau_values)
    ])
    samples = SampledIntegral(products, 1j * phases,
                              np.zeros(products.size),
                              np.ones(products.size, dtype=bool))
    result = fit(samples, basis=(LOG, CONSTANT))
    top = max(abs(c) for c in result.coefficients.values())
    terms = {}
    for b, c in result.coefficients.items():
        if abs(c) > 1e-10 * max(1.0, top):
            terms[b] = c
    return AsymptoticExpansion(INFRARED, terms, dim=1)
