"""Closed-form 3-sphere averages of the built-in ball integrands.

A built-in integrand depends on the point k = r * omega only through the
radius r and the axial cosine x = omega . p / |p|, so its 3-sphere average is
4 pi * int g(r, x) sqrt(1 - x^2) dx over [-1, 1].  For the three built-in
profiles that integral is elementary.  With A = r^2 + ell, B = 2 |p| r and
D = sqrt(A^2 - B^2):

    int sqrt(1 - x^2) dx                   = pi / 2
    int sqrt(1 - x^2) / (A - B x)^2 dx     = pi / (D (A + D))
    int r x sqrt(1 - x^2) / (A - B x)^2 dx = pi r B / (D (A + D)^2)

(differentiate int sqrt(1 - x^2) / (A - B x) dx = pi (A - D) / B^2 in A).
They are evaluated through the extremes of the denominator on the sphere,
A - B = (r - |p|)^2 + (ell - |p|^2) and A + B = (r + |p|)^2 + (ell - |p|^2),
whose terms are nonnegative when the denominator has no zero, so no step
cancels: with s = sqrt(A - B) + sqrt(A + B), D = sqrt(A - B) sqrt(A + B) and
A + D = s^2 / 2.
"""

import math

import numpy as np

KIND_ONE = 0
KIND_INV_SQUARE = 1
KIND_AXIAL_COMPONENT = 2

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant for doubles


def _excess(p, ell):
    """ell - p^2 with p^2 carried to twice working precision (Dekker's exact
    product), so that a small excess keeps its relative accuracy."""
    c = _SPLIT * p
    hi = c - (c - p)
    lo = p - hi
    sq = p * p
    sq_err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    return (ell - sq) - sq_err


def reduce_axial(kind, p, ell, r, x=None, w_fine=None, w_coarse=None):
    """Angular integral int g(r, x) sqrt(1 - x^2) dx over [-1, 1] of a built-in
    profile at each radius in r, in closed form.

    kind selects g: 1 for KIND_ONE, 1/(r^2 - 2*p*r*x + ell)^2 for
    KIND_INV_SQUARE, and that times r*x for KIND_AXIAL_COMPONENT; p is the
    shift's magnitude.  Returns (values, bad): bad is None, or the first
    radius at which the value is not finite, for instance because the
    denominator vanishes on that sphere; values is then None.  The values
    are exact up to rounding, so they carry no angular error.

    x, w_fine and w_coarse are ignored.  They remain positional parameters
    because the benchmark's tracer counts len(r) * len(x) points per call.
    """
    r = np.asarray(r, dtype=float)
    if kind == KIND_ONE:
        vals = np.full(r.shape, 0.5 * math.pi)
    elif kind in (KIND_INV_SQUARE, KIND_AXIAL_COMPONENT):
        excess = _excess(p, ell)
        low = (r - p) ** 2 + excess  # A - B: the least denominator on the sphere
        if not np.minimum.reduce(low) > 0.0:
            return None, float(r[np.argmin(low > 0.0)])
        root_low = np.sqrt(low)
        root_high = np.sqrt((r + p) ** 2 + excess)
        s2 = root_low + root_high
        s2 *= s2
        if kind == KIND_INV_SQUARE:
            vals = (2.0 * math.pi) / (root_low * root_high * s2)
        else:
            # pi r B / (D (A + D)^2) = 8 pi p (r / s^2)^2 / D, in factors that
            # cannot overflow where D (A + D)^2 ~ r^6 would
            q = r / s2
            vals = (8.0 * math.pi) * (q / root_low) * (q / root_high) * p
    else:
        raise ValueError(f"unknown integrand kind {kind}")
    finite = np.isfinite(vals)
    if not finite.all():
        return None, float(r[np.argmin(finite)])
    return vals, None
