"""Adaptive quadrature over 4-ball cutoff domains and 1-D segments.

Both integrals run through one adaptive Gauss-Kronrod 7/15 loop, ``_refine``,
with a worst-first refinement queue; the final sum is compensated over panels
sorted by position, so results are a pure function of the inputs.  A caller
hands it a panel sampler: the integrand at the nodes of a segment, or r^3
times the 3-sphere averages at the radii of a 4-ball, to which the 4-ball
integral is reduced.  The first step samples every panel between the given
edges in one call: a segment starts as one panel, a ball on panels graded
from its integrand's scale, cut at sqrt(ell) * 2^j for a built-in denominator
and at R/8, R/4, R/2 for a callable, so the error estimate sees the
denominator's turn from ell to k.k before it can claim convergence.

One contract covers every integrand a caller passes, on a segment or in a
ball: it maps an array of points, (N,) or (N, 4), to an array of N values.
_evaluate calls it once per refinement step (the first panels, an angular
resample, or both halves of a bisection), or per chunk of whole radii, and
refuses any other shape, and any NaN or infinity, naming the point.

Every ball integrand is axially symmetric: it depends on k only through k.k
and the component of k along one axis, as every Feynman-parametrized
integrand does (through k.k and p.k).  The built-in integrand descriptions
(constant, squared shifted denominator, and its axial component) have
elementary 3-sphere averages, which ``_kernels.reduce_axial`` evaluates in
closed form: one evaluation per radius and no angular error.  A callable must
name its symmetry axis; it is averaged over the axial cosine by an embedded
pair of Gauss-Chebyshev rules, whose coarse/fine difference feeds a separate
angular error estimate.  The angular order belongs to each radial panel and
starts low, at order 8 (17 points per radius): the same worst-first loop that
bisects a panel whose radial error dominates doubles the order of one whose
angular error does, n -> 2n + 1.  The orders nest, so a doubled panel keeps
its samples and evaluates only its 2n + 2 new nodes per radius.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

FOUR_PI = 4.0 * math.pi

KIND_ONE = _kernels.KIND_ONE
KIND_INV_SQUARE = _kernels.KIND_INV_SQUARE
KIND_AXIAL_COMPONENT = _kernels.KIND_AXIAL_COMPONENT

# Gauss-Kronrod 7/15 pair on [-1, 1]: positive Kronrod nodes (descending),
# Kronrod weights, and the embedded 7-point Gauss weights.  Each literal is
# the double nearest the exact value, to 17 significant digits; the Kronrod
# nodes are the zeros of P_7 and of the Stieltjes polynomial E_8, and the
# weights solve the moment equations.  Tests recompute them in mpmath and pin
# the polynomial exactness of both rules (degree 13 and 22).
_XGK_POS = np.array([
    0.99145537112081261,
    0.94910791234275849,
    0.86486442335976910,
    0.74153118559939446,
    0.58608723546769115,
    0.40584515137739718,
    0.20778495500789848,
    0.0,
])
_WGK_POS = np.array([
    0.022935322010529224,
    0.063092092629978558,
    0.10479001032225019,
    0.14065325971552592,
    0.16900472663926791,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
])
_WG_POS = np.array([
    0.12948496616886970,
    0.27970539148927664,
    0.38183005050511892,
    0.41795918367346940,
])

GK_NODES = np.concatenate([-_XGK_POS[:-1], _XGK_POS[::-1]])
GK_WEIGHTS = np.concatenate([_WGK_POS[:-1], _WGK_POS[::-1]])
G7_WEIGHTS = np.zeros(15)
G7_WEIGHTS[1:14:2] = np.concatenate([_WG_POS[:-1], _WG_POS[::-1]])

_DEFAULT_SEGMENT_EVALS = 200_000
_DEFAULT_BALL_EVALS = 1_000_000

# Starting angular order of a callable's panels (2n + 1 = 17 points per
# radius); a panel doubles it where its angular error asks for more.
_AXIAL_ORDER = 8
# Points per integrand call, at most (but always at least one radius): a
# callable's panel at a high angular order is sampled in chunks of radii.
_CHUNK_POINTS = 2 ** 16


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


def _evaluate(f, pts):
    """f at the points of a refinement step, (N,) on a segment or (N, 4) in
    a ball, in one call per step, or per chunk of whole radii: its values,
    refused unless they have shape (N,) and are finite."""
    vals = np.asarray(f(pts))
    if vals.shape != pts.shape[:1]:
        raise ValueError(
            f"integrand must map points of shape {pts.shape} to values of "
            f"shape {pts.shape[:1]}, got shape {vals.shape}")
    if not np.isfinite(vals).all():
        bad = int(np.argwhere(~np.isfinite(vals))[0][0])
        raise NonFiniteIntegrandError(
            "integrand is not finite",
            tuple(float(c) for c in np.atleast_1d(pts[bad])))
    return vals


def segment_integrate(f, a, b, tol=1e-10, abs_tol=0.0,
                      max_evals=_DEFAULT_SEGMENT_EVALS):
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    f maps an array of points, shape (N,), to an array of N values; a
    scalar function is refused, not looped over.  Stops when the summed
    error estimate falls below max(abs_tol, tol * |I|).
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
        lambda x, points, kept: (_evaluate(f, x), None, None),
        1, [a, b], tol, abs_tol, max_evals)
    return QuadratureResult(value, err, converged, neval)


def _check_tolerances(tol, abs_tol=0.0):
    if not (0 < tol < math.inf):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if not (0 <= abs_tol < math.inf):
        raise ValueError(
            f"absolute tolerance must be finite and nonnegative, got {abs_tol}")


def _refine(sample, points, edges, tol, abs_tol, max_evals):
    """Worst-first adaptive Gauss-Kronrod refinement of [edges[0], edges[-1]]
    (QUADPACK QAG), starting from the panels between consecutive edges.

    sample(x, points, kept) maps the 15 Kronrod nodes of each panel of one
    refinement step (the first panels, an angular resample, or both halves
    of a bisection), in one call, to (values, coarse, kept) at a cost of
    `points` evaluations per node; coarse is None for exact values, else a
    cruder estimate whose weighted distance from them is the angular error,
    and kept, indexed by node like the values, is what the sampler needs to
    reuse these samples (None if nothing).  Each panel keeps its own points,
    starting from the given one.  The panel with the largest |Kronrod -
    Gauss| plus angular error is refined: resampled at 2 points + 1 per node
    when its angular error is the larger, else bisected.  A resample gets the
    panel's kept samples back and is charged only the points + 1 new
    evaluations per node.  A resample whose angular error did not fall is
    frozen, as is a panel whose halves would be one float step wide, all
    their nodes rounded to one endpoint: the finer step no longer helps.
    Refinement ends when the summed errors meet max(abs_tol, tol * |value|)
    (converged), or unconverged when no panel is left or the next step would
    exceed max_evals.  The stopping test reads a running sum, updated per
    step.  Returns (value, error, angular error, converged, nevals), summed
    with compensation over the panels sorted by position; value is complex
    only if some sample was.  A budget below the
    first step's panels returns (0.0, inf, inf, False, 0).
    """
    nodes = GK_NODES.size
    neval = nodes * points * (len(edges) - 1)
    if neval > max_evals:
        return 0.0, math.inf, math.inf, False, 0
    complex_seen = False

    def sample_panels(edges, points, kept=None):
        """The panels between consecutive edges, sampled in one call."""
        nonlocal complex_seen
        spans = [(lo, hi, 0.5 * (hi - lo)) for lo, hi in zip(edges, edges[1:])]
        x = [0.5 * (lo + hi) + h * GK_NODES for lo, hi, h in spans]
        fine, coarse, kept = sample(
            x[0] if len(x) == 1 else np.concatenate(x), points, kept)
        complex_seen = complex_seen or fine.dtype.kind == "c"
        out = []
        for i, (lo, hi, h) in enumerate(spans):
            part = slice(i * nodes, (i + 1) * nodes)
            f = fine[part]
            k = h * np.dot(GK_WEIGHTS, f)
            ang = 0.0 if coarse is None else float(
                h * np.dot(GK_WEIGHTS, np.abs(f - coarse[part])))
            out.append((lo, hi, k, abs(k - h * np.dot(G7_WEIGHTS, f)), ang,
                        points, None if kept is None else kept[part]))
        return out

    heap = [(-(p[3] + p[4]), i, p)
            for i, p in enumerate(sample_panels(edges, points))]
    heapq.heapify(heap)
    counter = len(heap)
    frozen = []
    total = sum(p[2] for _, _, p in heap)
    err = sum(p[3] + p[4] for _, _, p in heap)
    synced = err
    converged = True
    while True:
        if err < synced / 1024:
            # running sums drift by rounding relative to the larger sums they
            # came from: re-add the panels once the errors shrink
            panels = [p for _, _, p in heap] + frozen
            total = sum(p[2] for p in panels)
            err = math.fsum(p[3] + p[4] for p in panels)
            synced = err
        if err <= max(abs_tol, tol * abs(total)):
            break
        if not heap:
            converged = False
            break
        old = heap[0][2]
        lo, hi, _, rad, ang, pts, kept = old
        resample = ang > rad
        cost = nodes * (pts + 1 if resample else 2 * pts)
        if neval + cost > max_evals:
            converged = False
            break
        heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if resample:
            pieces = sample_panels([lo, hi], 2 * pts + 1, kept)
        elif lo < 0.5 * (lo + mid) < mid < 0.5 * (mid + hi) < hi:
            # each half's centre is a float inside it: a half one float step
            # wide would round all its nodes to one endpoint
            pieces = sample_panels([lo, mid, hi], pts)
        else:
            frozen.append(old[:6])  # a frozen panel's samples are not reused
            continue
        total -= old[2]
        err -= rad + ang
        for piece in pieces:
            if resample and piece[4] >= ang:
                frozen.append(piece[:6])
            else:
                counter += 1
                heapq.heappush(heap, (-(piece[3] + piece[4]), counter, piece))
            total += piece[2]
            err += piece[3] + piece[4]
        neval += cost

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


class _AxisFrame:
    """A callable's symmetry axis, normalized, with an orthonormal partner,
    and per angular order the unit directions at the fine Chebyshev nodes,
    built on first use.  cutoff_ladder frames an axis once and hands the
    frame to every shell; the direction tables are read-only."""

    def __init__(self, axis):
        self.axis = _unit(axis)
        self.partner = _orthonormal_to(self.axis)
        self._rules = {}

    def rule(self, points):
        """(directions, fine weights, coarse weights) of the Chebyshev pair
        with `points` fine nodes."""
        if points not in self._rules:
            x, w_fine, w_coarse = chebyshev_pair((points - 1) // 2)
            s = np.sqrt(1.0 - x ** 2)
            dirs = x[:, None] * self.axis + s[:, None] * self.partner
            dirs.flags.writeable = False
            self._rules[points] = dirs, w_fine, w_coarse
        return self._rules[points]


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

    @functools.cached_property
    def p_mag(self):
        return float(np.linalg.norm(self.p_vec))

    @functools.cached_property
    def scale(self):
        """Where the denominator turns from ell to k.k, sqrt(ell); infinite
        for the constant, which needs no graded panels."""
        return math.inf if self.kind == KIND_ONE else math.sqrt(self.ell)

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
    return BallIntegrand(KIND_ONE, (0.0, 0.0, 0.0, 0.0), 0.0)


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
    return BallIntegrand(KIND_INV_SQUARE, pt, float(ell))


def shifted_component_integrand(p, ell):
    """Component of k along p divided by the squared shifted denominator."""
    pt = _check_shift(p, ell)
    return BallIntegrand(KIND_AXIAL_COMPONENT, pt, float(ell))


def _check_radius(radius):
    """radius as a float: finite, positive, and leaving the ball's volume
    scale pi^2 radius^4 finite."""
    radius = float(radius)
    if not (0 < radius < math.inf):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    scale = math.pi * radius * radius
    if not scale * scale < math.inf:
        raise ValueError(
            f"radius {radius} overflows the ball's volume scale pi^2 radius^4")
    return radius


def ball4_integrate(f, radius, tol=1e-8, axis=None,
                    max_evals=_DEFAULT_BALL_EVALS, *, _inner=0.0):
    """Integral of f over the solid 4-ball of the given radius.

    f is either a built-in BallIntegrand (closed-form angular averages) or a
    callable on (N, 4) point arrays that depends on k only through k.k and
    k.axis; the callable needs that axis (cutoff_ladder passes it framed).
    The radial direction is adapted with Gauss-Kronrod panels until the
    error estimate is at most tol * |value|: the tolerance is relative only,
    so an integral that vanishes converges only if it is exactly zero with
    zero error.  Refinement starts on radial panels graded from the
    integrand's scale (see _adaptive_radial), all sampled in one call; a
    budget below them gives 0.0, unconverged, after no evaluation.  A
    callable's panel starts at angular order 8 and doubles it where the
    angular error estimate exceeds the radial one, in the same worst-first
    loop and within the same budget.  The radius must leave the
    ball's volume scale pi^2 radius^4 finite.  _inner, for cutoff_ladder
    only, integrates over the shell between it and the radius instead.
    """
    radius = _check_radius(radius)
    _check_tolerances(tol)

    if not isinstance(f, BallIntegrand):
        if axis is None:
            raise ValueError(
                "a callable integrand needs its symmetry axis: pass axis=p "
                "for a function of k.k and p.k")
        if not isinstance(axis, _AxisFrame):
            axis = _AxisFrame(axis)

    value, rad_err, ang_err, ok, neval = _adaptive_radial(
        f, axis, radius, tol, _inner, max_evals)
    return QuadratureResult(value, rad_err + ang_err, ok, neval)


def _adaptive_radial(f, axis, radius, tol, inner, max_evals):
    """Worst-first radial refinement over [inner, radius] of r^3 times the
    3-sphere average 4 pi * int f(r, x) sqrt(1 - x^2) dx, from first panels
    cut at scale * 2^j, j = 0, 1, ...: scale is sqrt(ell) for a built-in
    denominator, where it turns from ell to k.k (the constant, exact on one
    panel, gets no cuts), and radius / 8 for a callable, whose scale is not
    known; cuts are kept strictly between inner and radius.  A built-in has
    the average in closed form; a callable is averaged along its axis, an
    _AxisFrame, by the embedded Chebyshev pair, from order _AXIAL_ORDER = 8
    at 2 n + 1 = 17 points per radius up to whatever order each panel's
    refinement reaches.  A doubling n -> 2n + 1 keeps the panel's samples:
    the old fine nodes are bitwise the odd fine nodes of the new order, so
    only the 2n + 2 even ones are evaluated and charged.  The points go to f
    in chunks of whole radii, at most _CHUNK_POINTS per call unless one
    radius has more.  Returns (value, radial error, angular error,
    converged, nevals)."""
    if isinstance(f, BallIntegrand):
        x = chebyshev_pair(_AXIAL_ORDER)[0]

        def sample(r, points, kept):
            avg, bad = _kernels.reduce_axial(f.kind, f.p_mag, f.ell, r, x)
            if bad is not None:
                # the denominator is smallest on the axis of that sphere
                raise NonFiniteIntegrandError(
                    "integrand is not finite",
                    tuple(float(c) for c in bad * f.axis))
            return r ** 3 * (FOUR_PI * avg), None, None

        return _refine(sample, 1, _graded(inner, radius, f.scale), tol, 0.0,
                       max_evals)

    def sample(r, points, kept):
        dirs, w_fine, w_coarse = axis.rule(points)
        if kept is not None:
            dirs = dirs[0::2]  # the nodes that are new at this order
        width = dirs.shape[0]
        step = max(1, _CHUNK_POINTS // width)
        chunks = [
            _evaluate(f, (r[i:i + step, None, None] * dirs).reshape(-1, 4))
            .reshape(-1, width) for i in range(0, r.size, step)]
        vals = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        if kept is not None:
            new = vals
            vals = np.empty((r.size, points), np.result_type(new, kept))
            vals[:, 0::2] = new
            vals[:, 1::2] = kept
        r3 = r ** 3
        return (r3 * (FOUR_PI * (vals @ w_fine)),
                r3 * (FOUR_PI * (vals @ w_coarse)), vals)

    return _refine(sample, 2 * _AXIAL_ORDER + 1,
                   _graded(inner, radius, radius / 8), tol, 0.0, max_evals)


def _graded(inner, radius, scale):
    """Edges of [inner, radius] cut at scale * 2^j, j = 0, 1, ..., strictly
    between them: the first refinement step's panels."""
    edges = [inner]
    cut = scale
    while 0 < cut < radius:
        if cut > inner:
            edges.append(cut)
        cut *= 2
    return edges + [radius]


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
    """Ball integrals of f at increasing cutoff radii L_1 < L_2 < ...

    Each shell L_{i-1} < |k| <= L_i (L_0 = 0) is integrated once, by one
    ball4_integrate call with its own budget of max_evals, and rung i holds
    the running sums of the shell values and errors.  The tolerance is
    relative only: a rung is converged only if every shell up to it
    converged and its summed error is at most tol * |value|, so a rung where
    the sum passes near zero is not.  Every radius is checked before the
    first integral.  A callable's axis is framed once, for every shell.
    """
    radii = [_check_radius(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("cutoff radii must be strictly increasing")
    if not isinstance(f, BallIntegrand) and kwargs.get("axis") is not None:
        kwargs["axis"] = _AxisFrame(kwargs["axis"])
    values = []
    errors = []
    flags = []
    value = 0.0
    error = 0.0
    shells_ok = True
    for inner, radius in zip([0.0] + radii, radii):
        res = ball4_integrate(f, radius, tol, **kwargs, _inner=inner)
        value += res.value
        error += res.error
        shells_ok = shells_ok and res.converged
        values.append(value)
        errors.append(error)
        flags.append(shells_ok and error <= tol * abs(value))
    return SampledIntegral(np.array(radii), np.array(values, dtype=complex),
                           np.array(errors), np.array(flags, dtype=bool))
