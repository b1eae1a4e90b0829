"""Adaptive quadrature over 4-ball cutoff domains and 1-D segments.

The 4-ball integral is reduced to a radial integral of angular averages over
the 3-sphere.  Radial integration uses adaptive Gauss-Kronrod 7/15 panels with
a worst-first refinement queue; the final sum is compensated over panels
sorted by position, so results are a pure function of the inputs.

The built-in integrand descriptions (constant, squared shifted denominator,
and its axial component) have elementary 3-sphere averages, which
``_kernels.reduce_axial`` evaluates in closed form: one evaluation per radius
and no angular error.  Arbitrary callables are averaged by an embedded pair of
rules, a Gauss-Chebyshev rule when the caller names a symmetry axis and a
product rule otherwise, whose coarse/fine difference feeds a separate angular
error estimate.  When the angular error dominates, the angular order is
escalated and the radial adaptation rerun.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

FOUR_PI = 4.0 * math.pi
S3_AREA = 2.0 * math.pi ** 2

KIND_ONE = _kernels.KIND_ONE
KIND_INV_SQUARE = _kernels.KIND_INV_SQUARE
KIND_AXIAL_COMPONENT = _kernels.KIND_AXIAL_COMPONENT

# Gauss-Kronrod 7/15 pair on [-1, 1]: positive Kronrod nodes (descending),
# Kronrod weights, and the embedded 7-point Gauss weights.  The polynomial
# exactness of both rules (degree 13 and 22) is pinned by tests.
_XGK_POS = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
])
_WGK_POS = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG_POS = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

GK_NODES = np.concatenate([-_XGK_POS[:-1], _XGK_POS[::-1]])
GK_WEIGHTS = np.concatenate([_WGK_POS[:-1], _WGK_POS[::-1]])
G7_WEIGHTS = np.zeros(15)
G7_WEIGHTS[1:14:2] = np.concatenate([_WG_POS[:-1], _WG_POS[::-1]])

_DEFAULT_SEGMENT_EVALS = 200_000
_DEFAULT_BALL_EVALS = 1_000_000

_AXIAL_ORDER = 48
_GENERIC_ORDER = 12


class NonFiniteIntegrandError(ValueError):
    """Integrand returned NaN or infinity; location carries the offending point."""

    def __init__(self, message, location):
        super().__init__(f"{message} at {location}")
        self.location = location


@dataclass
class QuadratureResult:
    """Integral estimate with its error estimate and convergence status."""

    value: complex
    error: float
    converged: bool
    neval: int


@functools.lru_cache(maxsize=16)
def chebyshev_pair(n):
    """Embedded Gauss-Chebyshev (second kind) pair for int g(x) sqrt(1-x^2) dx
    on [-1, 1]: fine nodes of the (2n+1)-point rule with fine weights and the
    n-point coarse weights on the shared node set (zero off the coarse nodes).
    Built once per order; the arrays are shared, so they are read-only.
    """
    if n < 1:
        raise ValueError(f"angular order must be >= 1, got {n}")
    nf = 2 * n + 1
    j = np.arange(1, nf + 1)
    theta = j * np.pi / (nf + 1)
    nodes = np.cos(theta)
    w_fine = (np.pi / (nf + 1)) * np.sin(theta) ** 2
    w_coarse = np.zeros(nf)
    k = np.arange(1, n + 1)
    w_coarse[1::2] = (np.pi / (n + 1)) * np.sin(k * np.pi / (n + 1)) ** 2
    for a in (nodes, w_fine, w_coarse):
        a.flags.writeable = False
    return nodes, w_fine, w_coarse


def _eval_1d(f, xs):
    """Vectorized evaluation with a scalar fallback; checks finiteness."""
    try:
        ys = np.asarray(f(xs))
        if ys.shape != xs.shape:
            raise ValueError
    except (TypeError, ValueError):
        ys = np.asarray([f(float(x)) for x in xs])
    if not np.all(np.isfinite(ys)):
        bad = int(np.argwhere(~np.isfinite(np.atleast_1d(ys)))[0][0])
        raise NonFiniteIntegrandError("integrand is not finite", (float(xs[bad]),))
    return ys


def segment_integrate(f, a, b, tol=1e-10, abs_tol=0.0,
                      max_evals=_DEFAULT_SEGMENT_EVALS, endpoint_singular=False):
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    Stops when the summed error estimate falls below max(abs_tol, tol * |I|).
    endpoint_singular raises the default evaluation budget for integrable
    endpoint singularities; the integrand must still be finite at every node.
    Deterministic: identical inputs give bitwise identical results.
    """
    a = float(a)
    b = float(b)
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if endpoint_singular and max_evals == _DEFAULT_SEGMENT_EVALS:
        max_evals = 5 * _DEFAULT_SEGMENT_EVALS

    complex_seen = False

    def panel(lo, hi):
        nonlocal complex_seen
        h = 0.5 * (hi - lo)
        c = 0.5 * (lo + hi)
        ys = _eval_1d(f, c + h * GK_NODES)
        if np.iscomplexobj(ys):
            complex_seen = True
        ys = ys.astype(complex)
        k = h * np.dot(GK_WEIGHTS, ys)
        return (lo, hi, k, abs(k - h * np.dot(G7_WEIGHTS, ys)))

    value, err, _, converged, neval = _refine(
        panel, a, b, tol, abs_tol, max_evals, GK_NODES.size, False)
    return QuadratureResult(value if complex_seen else value.real, err,
                            converged, neval)


def _refine(panel, a, b, tol, abs_tol, max_evals, per_panel, angular):
    """Worst-first adaptive Gauss-Kronrod refinement of [a, b] (QUADPACK QAG).

    panel(lo, hi) samples one panel with per_panel evaluations and returns
    (lo, hi, Kronrod value, |Kronrod - Gauss|), plus the angular error when
    angular is set.  The panel with the largest error is bisected until the
    summed errors meet max(abs_tol, tol * |value|), the angular error
    dominates (unconverged; the caller may raise the angular order), or the
    next bisection would exceed max_evals.  Panels too narrow to bisect in
    floating point are frozen as they are.  Returns (complex value, error,
    angular error, converged, nevals), summed with compensation over the
    panels sorted by position.
    """
    neval = per_panel
    counter = 0
    first = panel(a, b)
    heap = [(-first[3], counter, first)]
    frozen = []
    converged = True
    while True:
        total = sum(p[2] for _, _, p in heap) + sum(p[2] for p in frozen)
        err = sum(p[3] for _, _, p in heap) + sum(p[3] for p in frozen)
        need = max(abs_tol, tol * abs(total))
        if angular:
            ang = sum(p[4] for _, _, p in heap) + sum(p[4] for p in frozen)
            if err + ang <= need:
                break
            if err <= 0.25 * need and ang > 0.75 * need:
                converged = False
                break
        elif err <= need:
            break
        if not heap or neval + 2 * per_panel > max_evals:
            converged = False
            break
        worst = heapq.heappop(heap)[2]
        lo, hi = worst[0], worst[1]
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            frozen.append(panel(lo, hi))
            neval += per_panel
            continue
        for piece in (panel(lo, mid), panel(mid, hi)):
            counter += 1
            heapq.heappush(heap, (-piece[3], counter, piece))
        neval += 2 * per_panel

    panels = sorted([p for _, _, p in heap] + frozen, key=lambda p: p[0])
    value = complex(math.fsum(p[2].real for p in panels),
                    math.fsum(p[2].imag for p in panels))
    err = math.fsum(p[3] for p in panels)
    ang = math.fsum(p[4] for p in panels) if angular else 0.0
    return value, err, ang, converged, neval


def _unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("axis must be a nonzero vector")
    return v / n


def _orthonormal_to(axis):
    """Any unit vector orthogonal to the given unit 4-vector."""
    trial = np.zeros(4)
    trial[int(np.argmin(np.abs(axis)))] = 1.0
    v = trial - np.dot(trial, axis) * axis
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class BallIntegrand:
    """Built-in integrand description with closed-form 3-sphere averages.

    kind KIND_ONE is the constant 1; KIND_INV_SQUARE is
    1 / (k.k - 2 p.k + ell)^2; KIND_AXIAL_COMPONENT multiplies that by the
    component of k along the shift direction.  Instances are also plain
    callables on (N, 4) point arrays.
    """

    kind: int
    p_vec: tuple
    ell: float
    label: str

    @functools.cached_property
    def p_mag(self):
        return float(np.linalg.norm(self.p_vec))

    @functools.cached_property
    def axis(self):
        p = np.asarray(self.p_vec, dtype=float)
        n = np.linalg.norm(p)
        if n == 0:
            axis = np.zeros(4)
            axis[0] = 1.0
        else:
            axis = p / n
        axis.flags.writeable = False
        return axis

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.kind == KIND_ONE:
            return np.ones(pts.shape[0])
        p = np.asarray(self.p_vec, dtype=float)
        d = np.einsum("ij,ij->i", pts, pts) - 2.0 * (pts @ p) + self.ell
        vals = 1.0 / (d * d)
        if self.kind == KIND_AXIAL_COMPONENT:
            vals = (pts @ self.axis) * vals
        return vals


def unit_integrand():
    """The constant 1; its ball integral is the 4-ball volume pi^2 L^4 / 2."""
    return BallIntegrand(KIND_ONE, (0.0, 0.0, 0.0, 0.0), 0.0, "1")


def _check_shift(p, ell):
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"shift must be a 4-vector, got shape {p.shape}")
    delta = ell - float(p @ p)
    if delta <= 0:
        raise ValueError(
            f"denominator vanishes inside the domain: ell - |p|^2 = {delta} <= 0")
    return tuple(float(c) for c in p)


def shifted_denominator_integrand(p, ell):
    """1 / (k.k - 2 p.k + ell)^2 with ell - |p|^2 > 0."""
    pt = _check_shift(p, ell)
    return BallIntegrand(KIND_INV_SQUARE, pt, float(ell),
                         f"(k^2 - 2 p.k + {ell})^-2")


def shifted_component_integrand(p, ell):
    """Component of k along p divided by the squared shifted denominator."""
    pt = _check_shift(p, ell)
    return BallIntegrand(KIND_AXIAL_COMPONENT, pt, float(ell),
                         f"(k.p/|p|) (k^2 - 2 p.k + {ell})^-2")


def _eval_points(f, pts):
    vals = np.asarray(f(pts))
    if vals.shape != (pts.shape[0],):
        raise ValueError(
            f"callable integrand must map (N, 4) points to (N,) values, "
            f"got shape {vals.shape} for {pts.shape[0]} points")
    if not np.all(np.isfinite(vals)):
        bad = int(np.argwhere(~np.isfinite(vals))[0][0])
        raise NonFiniteIntegrandError(
            "integrand is not finite", tuple(float(c) for c in pts[bad]))
    return vals


class _AxialReducer:
    """Angular averages over the 3-sphere for an axially symmetric integrand:
    4 pi * int f(r, x) sqrt(1 - x^2) dx.  A built-in carries its own axis and
    has the average in closed form; a callable needs its symmetry axis and is
    averaged by the embedded Chebyshev pair."""

    def __init__(self, f, n, axis=None):
        self.f = f
        self.builtin = isinstance(f, BallIntegrand)
        self.set_order(n)
        if not self.builtin:
            self.a_hat = _unit(axis)
            self.b_hat = _orthonormal_to(self.a_hat)

    def set_order(self, n):
        self.n = n
        self.x, self.wf, self.wc = chebyshev_pair(n)
        # evaluations per radius: one closed form for a built-in
        self.points = 1 if self.builtin else self.x.size

    def __call__(self, r):
        if self.builtin:
            avg, bad = _kernels.reduce_axial(
                self.f.kind, self.f.p_mag, self.f.ell, r, self.x, self.wf, self.wc)
            if bad is not None:
                # the denominator is smallest on the axis of that sphere
                raise NonFiniteIntegrandError(
                    "integrand is not finite",
                    tuple(float(c) for c in bad * self.f.axis))
            avg = FOUR_PI * avg
            return avg, avg
        s = np.sqrt(1.0 - self.x ** 2)
        dirs = self.x[:, None] * self.a_hat + s[:, None] * self.b_hat
        pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 4)
        vals = _eval_points(self.f, pts).reshape(r.size, self.x.size)
        return FOUR_PI * (vals @ self.wf), FOUR_PI * (vals @ self.wc)

    def escalate(self):
        self.set_order(2 * self.n + 1)


class _ProductReducer:
    """Angular averages over the 3-sphere by a product rule: embedded Chebyshev
    pair in the first direction cosine, Gauss-Legendre in the second, uniform
    in azimuth.  Exact total weight 2 pi^2."""

    def __init__(self, f, n, polar_order, azimuthal_order):
        if polar_order < 2 or azimuthal_order < 2:
            raise ValueError("polar and azimuthal orders must be >= 2")
        self.f = f
        self.polar_order = polar_order
        self.azimuthal_order = azimuthal_order
        self.set_order(n)

    def set_order(self, n):
        self.n = n
        x, wf, wc = chebyshev_pair(n)
        y, wy = np.polynomial.legendre.leggauss(self.polar_order)
        phi = 2.0 * np.pi * np.arange(self.azimuthal_order) / self.azimuthal_order
        wphi = 2.0 * np.pi / self.azimuthal_order
        sx = np.sqrt(1.0 - x ** 2)
        sy = np.sqrt(1.0 - y ** 2)
        nf, npo, naz = x.size, y.size, phi.size
        omega = np.empty((nf, npo, naz, 4))
        omega[..., 0] = x[:, None, None]
        omega[..., 1] = sx[:, None, None] * y[None, :, None]
        omega[..., 2] = sx[:, None, None] * sy[None, :, None] * np.cos(phi)
        omega[..., 3] = sx[:, None, None] * sy[None, :, None] * np.sin(phi)
        self.dirs = omega.reshape(-1, 4)
        self.points = self.dirs.shape[0]  # angular evaluations per radius
        wp = np.full(naz, wphi)
        self.w_fine = (wf[:, None, None] * wy[None, :, None]
                       * wp[None, None, :]).reshape(-1)
        self.w_coarse = (wc[:, None, None] * wy[None, :, None]
                         * wp[None, None, :]).reshape(-1)

    def __call__(self, r):
        pts = (r[:, None, None] * self.dirs[None, :, :]).reshape(-1, 4)
        vals = _eval_points(self.f, pts).reshape(r.size, self.points)
        return vals @ self.w_fine, vals @ self.w_coarse

    def escalate(self):
        self.set_order(2 * self.n + 1)


def ball4_integrate(f, radius, tol=1e-8, abs_tol=None, axis=None,
                    angular_order=None, polar_order=12, azimuthal_order=24,
                    max_evals=_DEFAULT_BALL_EVALS, max_angular_escalations=2):
    """Integral of f over the solid 4-ball of the given radius.

    f is either a built-in BallIntegrand (closed-form angular averages) or a
    callable on (N, 4) point arrays.  Pass axis for a callable that is
    symmetric about a fixed direction to get the cheap axial reduction;
    otherwise a full product rule on the 3-sphere is used.  The radial direction is adapted with
    Gauss-Kronrod panels; the angular order is escalated when the angular error
    estimate dominates the combined tolerance.
    """
    radius = float(radius)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if abs_tol is None:
        abs_tol = 1e-14 * max(1.0, radius) ** 4

    if isinstance(f, BallIntegrand):
        reducer = _AxialReducer(f, _AXIAL_ORDER if angular_order is None else angular_order)
    elif axis is not None:
        # the reducer normalizes the unit axis once more; results depend on
        # that rounding, so keep both steps
        reducer = _AxialReducer(f, _AXIAL_ORDER if angular_order is None else angular_order,
                                _unit(axis))
    else:
        reducer = _ProductReducer(f, _GENERIC_ORDER if angular_order is None else angular_order,
                                  polar_order, azimuthal_order)

    neval_total = 0
    best = None
    for attempt in range(max_angular_escalations + 1):
        res = _adaptive_radial(reducer, radius, tol, abs_tol,
                               max_evals - neval_total)
        neval_total += res[4]
        value, rad_err, ang_err, ok = res[0], res[1], res[2], res[3]
        best = QuadratureResult(value, rad_err + ang_err, ok, neval_total)
        if ok:
            return best
        need = max(abs_tol, tol * abs(value))
        if ang_err <= rad_err or rad_err + ang_err <= need:
            break
        if attempt < max_angular_escalations:
            reducer.escalate()
    best.converged = best.error <= max(abs_tol, tol * abs(best.value))
    return best


def _adaptive_radial(reducer, radius, tol, abs_tol, max_evals):
    """Worst-first radial refinement; returns (value, radial error, angular
    error, converged, nevals)."""
    complex_seen = False

    def panel(lo, hi):
        nonlocal complex_seen
        h = 0.5 * (hi - lo)
        c = 0.5 * (lo + hi)
        r = c + h * GK_NODES
        fine, coarse = reducer(r)
        if np.iscomplexobj(fine):
            complex_seen = True
        r3 = r ** 3
        g_fine = r3 * fine.astype(complex)
        k = h * np.dot(GK_WEIGHTS, g_fine)
        if coarse is fine:  # exact angular averages: no angular error
            ang = 0.0
        else:
            g_coarse = r3 * coarse.astype(complex)
            ang = float(h * np.dot(GK_WEIGHTS, np.abs(g_fine - g_coarse)))
        return (lo, hi, k, abs(k - h * np.dot(G7_WEIGHTS, g_fine)), ang)

    per_panel = GK_NODES.size * reducer.points
    if per_panel > max_evals:
        return 0.0 + 0j, math.inf, math.inf, False, 0
    value, rad, ang, converged, neval = _refine(
        panel, 0.0, radius, tol, abs_tol, max_evals, per_panel, True)
    return value if complex_seen else value.real, rad, ang, converged, neval


@dataclass
class SampledIntegral:
    """Integral values on an increasing grid of regulator values, with error
    estimates and per-point convergence flags."""

    lambdas: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    converged: np.ndarray

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.errors is None:
            self.errors = np.zeros(self.lambdas.size)
        self.errors = np.asarray(self.errors, dtype=float)
        if self.converged is None:
            self.converged = np.ones(self.lambdas.size, dtype=bool)
        self.converged = np.asarray(self.converged, dtype=bool)
        n = self.lambdas.size
        if not (self.values.size == self.errors.size == self.converged.size == n):
            raise ValueError("sample arrays must have equal length")
        if n and np.any(self.lambdas <= 0):
            raise ValueError("regulator values must be positive")
        if n > 1 and np.any(np.diff(self.lambdas) <= 0):
            raise ValueError("regulator values must be strictly increasing")

    def __len__(self):
        return int(self.lambdas.size)

    @property
    def all_converged(self):
        return bool(np.all(self.converged))


def cutoff_ladder(f, radii, tol=1e-8, **kwargs):
    """Evaluate the ball integral of f at each cutoff radius in turn."""
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("cutoff radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("cutoff radii must be strictly increasing")
    values = []
    errors = []
    flags = []
    for radius in radii:
        res = ball4_integrate(f, radius, tol, **kwargs)
        values.append(res.value)
        errors.append(res.error)
        flags.append(res.converged)
    return SampledIntegral(np.array(radii), np.array(values, dtype=complex),
                           np.array(errors), np.array(flags, dtype=bool))
