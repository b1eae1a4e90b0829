"""Independent reference values, computed outside the timed loop.

None of this imports devfactor.  The ball integrals use closed forms: the
3-sphere average of the shifted denominator,

    int sqrt(1 - x^2) / (A - B x)^2 dx = pi (A / sqrt(A^2 - B^2) - 1) / B^2,

with A = r^2 + ell and B = 2 |p| r, integrates in u = r^2 to elementary
functions, evaluated with mpmath at enough digits to survive their
cancellation (``perfbench/test_perfbench.py`` checks them against mpmath
quadrature of that average).  The Yukawa kernels use Neumann's integral
Q_l(z) = 1/2 int P_l(t) / (z - t) dt with Q_l from an mpmath recurrence, which
the tests check against mpmath.legenq.
"""

from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy import special  # digamma

# Working precision of the ball-integral closed forms.  Their terms grow like
# L^4 = 1e32 at L = 1e8 and cancel down to O(|p| ln L), so 80 digits leave
# more than 30 after cancellation for every |p| >= 1e-6.
BALL_DPS = 80
Q_DPS = 50


def ball_integral(kind, p_mag, ell, radius):
    """Integral over the 4-ball of the given radius, as an mpf.

    kind is "volume" (the constant 1), "shifted" or "callable"
    (1 / (k.k - 2 p.k + ell)^2) or "component" (k.p/|p| times that).
    """
    with mp.workdps(BALL_DPS):
        u_max = mp.mpf(radius) ** 2
        if kind == "volume":
            return mp.pi ** 2 * u_max ** 2 / 2
        p = mp.mpf(p_mag)
        ell = mp.mpf(ell)
        if kind in ("shifted", "callable"):
            if p == 0:
                return mp.pi ** 2 * (mp.log((u_max + ell) / ell)
                                     + ell / (u_max + ell) - 1)
            # (pi^2 / (2 p^2)) int_0^U ((u + ell) / sqrt(Q) - 1) du with
            # Q = u^2 + 2 b u + ell^2, b = ell - 2 p^2.
            b = ell - 2 * p * p
            root = mp.sqrt(u_max * u_max + 2 * b * u_max + ell * ell)
            return mp.pi ** 2 / (2 * p * p) * (
                root - u_max - ell
                + 2 * p * p * mp.log((u_max + b + root) / (2 * (ell - p * p))))
        if kind == "component":
            # (pi^2 / (4 p^3)) int_0^U (2 sqrt(Q) - 2 (u + ell) + 4 p^2 u / sqrt(Q)) du
            b = ell - 2 * p * p
            c = 4 * p * p * (ell - p * p)

            def primitive(u):
                t = u + b
                s = mp.sqrt(t * t + c)
                lg = mp.log(t + s)
                return (t * s + c * lg) - (u * u + 2 * ell * u) + 4 * p * p * (s - b * lg)

            return mp.pi ** 2 / (4 * p ** 3) * (primitive(u_max) - primitive(0))
    raise ValueError(f"unknown integrand kind {kind!r}")


def legendre_q(ell, zs):
    """Q_ell(z) for each z > 1 (floats or mpf), as a float array.

    Forward recurrence from Q_0 = ln((z + 1) / (z - 1)) / 2 at Q_DPS digits:
    it loses about 2 ell log10(2 z) of them, 32 at the largest arguments the
    workloads reach (ell = 4, z = 5e3).
    """
    out = []
    with mp.workdps(Q_DPS):
        for z in zs:
            z = mp.mpf(z)
            q0 = mp.log((z + 1) / (z - 1)) / 2
            q1 = z * q0 - 1
            for k in range(1, ell):
                q0, q1 = q1, ((2 * k + 1) * z * q1 - k * q0) / (k + 1)
            out.append(float(q0 if ell == 0 else q1))
    return np.array(out)


def apply_operator(op):
    """Reference output of apply_momentum_operator and, per node, the scale
    k^2 |f| + |e| k sum_j |R| |w p f| against which its error is measured.

    The kernel R(k, p) is -(2 z / (pi k p)) Q_l((k^2 + p^2) / (2 k p)), left
    out on the diagonal, plus (2 w / pi) Q_l((k^2 + p^2 + beta^2) / (2 k p))
    / (k p) per Yukawa pair: Neumann's integral in place of the quadrature.
    The Coulomb argument is formed in mpmath, because adjacent nodes put it
    within 1e-6 of 1, where a double would lose its last digits.
    """
    k = np.asarray(op["nodes"])
    n = k.size
    f = np.asarray(op["f_re"]) + 1j * np.asarray(op["f_im"])
    kk, pp = np.meshgrid(k, k, indexing="ij")
    kp = kk * pp
    upper = np.triu_indices(n)
    terms = []
    if op["z"] != 0:
        off = np.triu_indices(n, 1)
        with mp.workdps(Q_DPS):
            args = [(mp.mpf(a) ** 2 + mp.mpf(b) ** 2) / (2 * mp.mpf(a) * mp.mpf(b))
                    for a, b in zip(k[off[0]], k[off[1]])]
        coulomb = np.zeros((n, n))
        coulomb[off] = -(2.0 * op["z"] / (np.pi * kp[off])) * legendre_q(op["ell"], args)
        terms.append(coulomb + coulomb.T)
    for beta, weight in op["measure"]:
        yukawa = np.zeros((n, n))
        yukawa[upper] = ((2.0 * weight / np.pi) / kp[upper]) * legendre_q(
            op["ell"], (kk[upper] ** 2 + pp[upper] ** 2 + beta ** 2) / (2.0 * kp[upper]))
        terms.append(yukawa + np.triu(yukawa, 1).T)
    g = np.asarray(op["weights"]) * k * f
    values = k ** 2 * f + op["e"] * k * (sum(terms) @ g)
    scales = k ** 2 * abs(f) + abs(op["e"]) * k * (sum(abs(t) for t in terms) @ abs(g))
    return values, scales


def s1_values(z, ell, measure, ks):
    """Reference s1 at each momentum and the sum of its terms' magnitudes:
    -2i z psi(l + 1) / k plus (-2i w / k^2) Q_l(1 + beta^2 / (2 k^2)) per
    Yukawa pair."""
    ks = np.asarray(ks, dtype=float)
    terms = [-2j * z * special.digamma(ell + 1) / ks]
    for beta, weight in measure:
        terms.append(-2j * weight * legendre_q(ell, 1.0 + beta ** 2 / (2.0 * ks ** 2)) / ks ** 2)
    return sum(terms), sum(abs(t) for t in terms)


def dirac_eigenvalues(q, m):
    """Spectrum of the free Dirac Hamiltonian, ascending: -E, -E, E, E."""
    energy = float(mp.sqrt(mp.fsum(mp.mpf(c) ** 2 for c in q) + mp.mpf(m) ** 2))
    return [-energy, -energy, energy, energy]


def _term_value(term, lam):
    power = Fraction(term["power"])
    c = mp.mpc(term["re"][0][0], term["im"][0][0])
    scale = mp.mpf(lam) ** (mp.mpf(power.numerator) / power.denominator)
    return c * scale * mp.log(lam) ** term["logpower"], power


def series_values(document, lam):
    """For a scalar series with purely imaginary divergent coefficients:
    the raw value 1 + sum_m e^m a_m(lam), the regularized coefficients (a_m
    minus its divergent terms) and the reconstruction residual
    |raw - U tilde| with U = exp(sum_m e^m div_m(lam)) and
    tilde = 1 + sum_m e^m regular_m, which is O(e^2), not zero."""
    with mp.workdps(30):
        coupling = mp.mpf(document["coupling"])
        raw = mp.mpc(1)
        tilde = mp.mpc(1)
        exponent = mp.mpc(0)
        regular = []
        for m, record in enumerate(document["coefficients"], start=1):
            finite = mp.mpc(0)
            divergent = mp.mpc(0)
            for term in record["terms"]:
                value, power = _term_value(term, lam)
                if power < 0 or (power == 0 and term["logpower"] == 0):
                    finite += value
                else:
                    divergent += value
            raw += coupling ** m * (finite + divergent)
            tilde += coupling ** m * finite
            exponent += coupling ** m * divergent
            regular.append(complex(finite))
        return complex(raw), regular, float(abs(raw - mp.exp(exponent) * tilde))
