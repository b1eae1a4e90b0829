"""Adaptive quadrature over 4-ball cutoff domains and 1-D segments.

Both integrals run through one adaptive Gauss-Kronrod 7/15 loop, ``_refine``,
with a worst-first refinement queue; the final sum is compensated over panels
sorted by position, so results are a pure function of the inputs.  A caller
hands it a panel sampler: the integrand at the nodes of a segment, or r^3
times the 3-sphere averages at the radii of a 4-ball, to which the 4-ball
integral is reduced.

Every ball integrand is axially symmetric: it depends on k only through k.k
and the component of k along one axis, as every Feynman-parametrized
integrand does (through k.k and p.k).  The built-in integrand descriptions
(constant, squared shifted denominator, and its axial component) have
elementary 3-sphere averages, which ``_kernels.reduce_axial`` evaluates in
closed form: one evaluation per radius and no angular error.  A callable must
name its symmetry axis; it is averaged over the axial cosine by an embedded
pair of Gauss-Chebyshev rules, whose coarse/fine difference feeds a separate
angular error estimate.  When the angular error dominates, the angular order
is escalated and the radial adaptation rerun.
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
_MAX_ANGULAR_ESCALATIONS = 2


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
                      max_evals=_DEFAULT_SEGMENT_EVALS):
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    Stops when the summed error estimate falls below max(abs_tol, tol * |I|).
    Integrable endpoint singularities need no option (ln u takes 825
    evaluations, u^-1/2 1725), but f must be finite at every node.  A budget
    below one 15-node panel gives 0.0, unconverged, after no evaluation.
    Deterministic: identical inputs give bitwise identical results.
    """
    a = float(a)
    b = float(b)
    if not (-math.inf < a < b < math.inf):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    _check_tolerances(tol, abs_tol)
    value, err, _, converged, neval = _refine(
        lambda x: (_eval_1d(f, x), None), 1, a, b, tol, abs_tol, max_evals)
    return QuadratureResult(value, err, converged, neval)


def _check_tolerances(tol, abs_tol):
    if not (0 < tol < math.inf):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if not (0 <= abs_tol < math.inf):
        raise ValueError(
            f"absolute tolerance must be finite and nonnegative, got {abs_tol}")


def _refine(sample, points, a, b, tol, abs_tol, max_evals):
    """Worst-first adaptive Gauss-Kronrod refinement of [a, b] (QUADPACK QAG).

    sample(x) maps a panel's 15 Kronrod nodes to (values, coarse) at a cost of
    `points` evaluations per node; coarse is None for exact values, else a
    cruder estimate whose weighted distance from them is the angular error.
    The panel with the largest |Kronrod - Gauss| is bisected until the summed
    errors meet max(abs_tol, tol * |value|), the angular error dominates
    (unconverged; the caller may sample more finely), or the next bisection
    would exceed max_evals.  Panels too narrow to bisect in floating point are
    frozen.  Returns (value, error, angular error, converged, nevals), summed
    with compensation over the panels sorted by position; value is complex
    only if some sample was.  A budget below one panel returns
    (0.0, inf, inf, False, 0).
    """
    per_panel = GK_NODES.size * points
    if per_panel > max_evals:
        return 0.0, math.inf, math.inf, False, 0
    complex_seen = False

    def panel(lo, hi):
        nonlocal complex_seen
        h = 0.5 * (hi - lo)
        fine, coarse = sample(0.5 * (lo + hi) + h * GK_NODES)
        if np.iscomplexobj(fine):
            complex_seen = True
        fine = fine.astype(complex)
        k = h * np.dot(GK_WEIGHTS, fine)
        ang = 0.0 if coarse is None else float(
            h * np.dot(GK_WEIGHTS, np.abs(fine - coarse)))
        return (lo, hi, k, abs(k - h * np.dot(G7_WEIGHTS, fine)), ang)

    neval = per_panel
    counter = 0
    first = panel(a, b)
    heap = [(-first[3], counter, first)]
    frozen = []
    converged = True
    while True:
        total = sum(p[2] for _, _, p in heap) + sum(p[2] for p in frozen)
        err = sum(p[3] for _, _, p in heap) + sum(p[3] for p in frozen)
        ang = sum(p[4] for _, _, p in heap) + sum(p[4] for p in frozen)
        need = max(abs_tol, tol * abs(total))
        if err + ang <= need:
            break
        if ((err <= 0.25 * need and ang > 0.75 * need) or not heap
                or neval + 2 * per_panel > max_evals):
            converged = False
            break
        lo, hi = heapq.heappop(heap)[2][:2]
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
    ang = math.fsum(p[4] for p in panels)
    return (value if complex_seen else value.real), err, ang, converged, neval


def _unit(v):
    v = np.asarray(v, dtype=float)
    if v.shape != (4,) or not np.all(np.isfinite(v)):
        raise ValueError(f"axis must be a finite 4-vector, got {v.tolist()}")
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if not (0 < n < math.inf):
        raise ValueError(f"axis must have a finite nonzero norm, got {n}")
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


def ball4_integrate(f, radius, tol=1e-8, abs_tol=None, axis=None,
                    max_evals=_DEFAULT_BALL_EVALS):
    """Integral of f over the solid 4-ball of the given radius.

    f is either a built-in BallIntegrand (closed-form angular averages) or a
    callable on (N, 4) point arrays that depends on k only through k.k and
    k.axis; the callable needs that axis.  The radial direction is adapted
    with Gauss-Kronrod panels; the angular order of a callable is escalated
    when the angular error estimate dominates the combined tolerance.  An
    escalation whose first panel does not fit the remaining budget keeps the
    previous attempt.  The radius must leave the ball's volume scale
    pi^2 radius^4 finite.
    """
    radius = float(radius)
    if not (0 < radius < math.inf):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    scale = math.pi * radius * radius
    if not scale * scale < math.inf:
        raise ValueError(
            f"radius {radius} overflows the ball's volume scale pi^2 radius^4")
    if abs_tol is None:
        abs_tol = 1e-14 * max(1.0, radius) ** 4
    _check_tolerances(tol, abs_tol)

    if not isinstance(f, BallIntegrand):
        if axis is None:
            raise ValueError(
                "a callable integrand needs its symmetry axis: pass axis=p "
                "for a function of k.k and p.k")
        # _adaptive_radial normalizes the unit axis once more; results depend
        # on that rounding, so keep both steps
        axis = _unit(axis)

    n = _AXIAL_ORDER
    neval_total = 0
    best = None
    for _ in range(_MAX_ANGULAR_ESCALATIONS + 1):
        value, rad_err, ang_err, ok, neval = _adaptive_radial(
            f, axis, n, radius, tol, abs_tol, max_evals - neval_total)
        if best is not None and neval == 0:
            break  # no panel of this order fits: keep the previous attempt
        neval_total += neval
        best = QuadratureResult(value, rad_err + ang_err, ok, neval_total)
        if ok:
            return best
        need = max(abs_tol, tol * abs(value))
        if ang_err <= rad_err or rad_err + ang_err <= need:
            break
        n = 2 * n + 1
    best.converged = best.error <= max(abs_tol, tol * abs(best.value))
    return best


def _adaptive_radial(f, axis, n, radius, tol, abs_tol, max_evals):
    """Worst-first radial refinement of r^3 times the 3-sphere average
    4 pi * int f(r, x) sqrt(1 - x^2) dx.  A built-in has the average in closed
    form; a callable is averaged along its axis by the embedded Chebyshev
    pair of order n.  Returns (value, radial error, angular error, converged,
    nevals)."""
    x, w_fine, w_coarse = chebyshev_pair(n)
    if isinstance(f, BallIntegrand):
        def sample(r):
            avg, bad = _kernels.reduce_axial(f.kind, f.p_mag, f.ell, r, x)
            if bad is not None:
                # the denominator is smallest on the axis of that sphere
                raise NonFiniteIntegrandError(
                    "integrand is not finite",
                    tuple(float(c) for c in bad * f.axis))
            return r ** 3 * (FOUR_PI * avg), None

        return _refine(sample, 1, 0.0, radius, tol, abs_tol, max_evals)

    a_hat = _unit(axis)
    # unit directions at the fine nodes, shared by every panel
    s = np.sqrt(1.0 - x ** 2)
    dirs = x[:, None] * a_hat + s[:, None] * _orthonormal_to(a_hat)

    def sample(r):
        pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 4)
        vals = _eval_points(f, pts).reshape(r.size, x.size)
        r3 = r ** 3
        return r3 * (FOUR_PI * (vals @ w_fine)), r3 * (FOUR_PI * (vals @ w_coarse))

    return _refine(sample, x.size, 0.0, radius, tol, abs_tol, max_evals)


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
        self.errors = np.asarray(self.errors, dtype=float)
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
