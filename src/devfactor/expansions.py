"""Cutoff asymptotics and deviation factors.

An asymptotic expansion collects coefficients of basis functions
Lambda^a * ln^p(Lambda) of a regulator variable Lambda, with matrix or scalar
coefficients.  Terms with a > 0, or a = 0 and p > 0, diverge as the regulator
is removed; the algebra here splits them off, checks whether they can be
absorbed into a unimodular (scalar) or unitary (matrix) deviation factor, and
builds that factor.  Absorbing is possible exactly when each divergent
coefficient is i times a Hermitian matrix (purely imaginary in the scalar
case); the factor is then exp(i * sum_b H_b * b(Lambda)) and multiplying by
its inverse leaves a finite remainder.

Two regulator kinds are tracked: "ultraviolet" (Lambda is a momentum cutoff,
the radius of a 4-ball) and "infrared" (Lambda is a product |t*tau| of time
parameters).  The algebra is identical; the kind is bookkeeping so that
expansions from different limits are not mixed accidentally.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

ULTRAVIOLET = "ultraviolet"
INFRARED = "infrared"
REGULATOR_KINDS = (ULTRAVIOLET, INFRARED)

ADMISSIBILITY_TOL = 1e-12

MIN_POWER = Fraction(-8)
MAX_POWER = Fraction(2)
MAX_LOGPOWER = 8

SCHEMA_VERSION = 1


def _as_power(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(
                f"float power {value!r} is ambiguous; pass a Fraction or string")
        return Fraction(int(value))
    raise TypeError(f"cannot interpret {value!r} as a rational power")


@dataclass(frozen=True)
class BasisFunction:
    """One basis function Lambda^power * ln^logpower(Lambda / reference)."""

    power: Fraction
    logpower: int

    def __init__(self, power=0, logpower=0):
        power = _as_power(power)
        logpower = int(logpower)
        if not (MIN_POWER <= power <= MAX_POWER):
            raise ValueError(
                f"power {power} outside supported range [{MIN_POWER}, {MAX_POWER}]")
        if not (0 <= logpower <= MAX_LOGPOWER):
            raise ValueError(
                f"logpower {logpower} outside supported range [0, {MAX_LOGPOWER}]")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "logpower", logpower)

    @property
    def divergent(self):
        """Grows without bound as the regulator is removed."""
        return self.power > 0 or (self.power == 0 and self.logpower > 0)

    @property
    def constant(self):
        return self.power == 0 and self.logpower == 0

    def value(self, lam, reference_scale=1.0):
        """Evaluate at regulator value lam > 0.  The reference scale rescales
        the argument of the logarithm only, never the power."""
        if lam <= 0:
            raise ValueError(f"regulator value must be positive, got {lam}")
        if reference_scale <= 0:
            raise ValueError(f"reference scale must be positive, got {reference_scale}")
        out = float(lam) ** float(self.power)
        if self.logpower:
            out *= math.log(lam / reference_scale) ** self.logpower
        return out

    def _sort_key(self):
        return (-self.power, -self.logpower)

    def __str__(self):
        if self.power < 0 and self.logpower == 0:
            return "1/L" if self.power == -1 else f"1/L^{-self.power}"
        parts = []
        if self.power != 0:
            parts.append("L" if self.power == 1 else f"L^{self.power}")
        if self.logpower:
            parts.append("ln" if self.logpower == 1 else f"ln^{self.logpower}")
        return "*".join(parts) if parts else "1"


CONSTANT = BasisFunction(0, 0)
LOG = BasisFunction(0, 1)
LOG2 = BasisFunction(0, 2)
LINEAR = BasisFunction(1, 0)
QUADRATIC = BasisFunction(2, 0)


def _coerce_coefficient(c):
    arr = np.atleast_2d(np.asarray(c, dtype=complex))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"coefficient must be scalar or square, got shape {arr.shape}")
    return arr


class AsymptoticExpansion:
    """Finite sum of basis functions with scalar or square-matrix coefficients.

    All coefficients share one dimension; scalars are stored as 1x1.  Exactly
    zero coefficients are dropped on construction.
    """

    def __init__(self, regulator, terms=None, dim=None):
        if regulator not in REGULATOR_KINDS:
            raise ValueError(f"unknown regulator kind {regulator!r}")
        self.regulator = regulator
        self.terms = {}
        for b, c in (terms or {}).items():
            if not isinstance(b, BasisFunction):
                b = BasisFunction(*b) if isinstance(b, tuple) else BasisFunction(b)
            arr = _coerce_coefficient(c)
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise ValueError(
                    f"coefficient for {b} has dimension {arr.shape[0]}, expected {dim}")
            if np.any(arr != 0):
                self.terms[b] = arr.copy()
        self.dim = 1 if dim is None else int(dim)

    @property
    def is_scalar(self):
        return self.dim == 1

    def _wrap(self, arr):
        return complex(arr[0, 0]) if self.is_scalar else arr

    def sorted_terms(self):
        """Terms ordered by decreasing growth."""
        return sorted(self.terms.items(), key=lambda kv: kv[0]._sort_key())

    def value_at(self, lam):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for b, c in self.terms.items():
            out += c * b.value(lam)
        return self._wrap(out)

    def divergent_part(self):
        return AsymptoticExpansion(
            self.regulator,
            {b: c for b, c in self.terms.items() if b.divergent},
            dim=self.dim)

    def finite_part(self):
        c = self.terms.get(CONSTANT)
        if c is None:
            c = np.zeros((self.dim, self.dim), dtype=complex)
        return self._wrap(c)

    def remainder_part(self):
        return AsymptoticExpansion(
            self.regulator,
            {b: c for b, c in self.terms.items() if b.power < 0},
            dim=self.dim)

    def allclose(self, other, tol=1e-12):
        if self.regulator != other.regulator or self.dim != other.dim:
            return False
        for b in set(self.terms) | set(other.terms):
            a = self.terms.get(b, 0)
            c = other.terms.get(b, 0)
            if not np.allclose(a, c, rtol=0, atol=tol):
                return False
        return True

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "expansion",
            "regulator": self.regulator,
            "dim": self.dim,
            "terms": [_term_to_json(b, c) for b, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, data):
        regulator, terms = _record_from_json(data, "expansion", "an expansion")
        return cls(regulator, terms, dim=data.get("dim"))

    def __repr__(self):
        body = ", ".join(f"{b}" for b, _ in self.sorted_terms()) or "0"
        return f"AsymptoticExpansion({self.regulator}, dim={self.dim}: {body})"


def _term_to_json(b, c):
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    return {
        "power": str(b.power),
        "logpower": b.logpower,
        "re": c.real.tolist(),
        "im": c.imag.tolist(),
    }


def _term_from_json(t):
    b = BasisFunction(Fraction(t["power"]), t["logpower"])
    c = np.asarray(t["re"], dtype=float) + 1j * np.asarray(t["im"], dtype=float)
    return b, _coerce_coefficient(c)


def _record_from_json(data, kind, name):
    """(regulator, {basis: coefficient}) of a JSON record of the given kind.
    Raises ValueError, naming the record, if it is malformed."""
    if not isinstance(data, dict):
        raise ValueError(f"not {name} record: {data!r}")
    if data.get("kind") != kind:
        raise ValueError(f"not {name} record: kind={data.get('kind')!r}")
    try:
        return data["regulator"], dict(_term_from_json(t) for t in data["terms"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {name} record: bad or missing {exc}") from exc


def split_divergent(a):
    """Split an expansion into (divergent part, constant coefficient, remainder).

    The three pieces recombine to the original expansion exactly.
    """
    return a.divergent_part(), a.finite_part(), a.remainder_part()


def regularize_term(a, lam):
    """Value of the expansion at lam with the divergent basis functions removed."""
    return a.value_at(lam) - a.divergent_part().value_at(lam)


@dataclass
class AdmissibilityViolation:
    """One divergent coefficient that is not i times a Hermitian matrix."""

    basis: BasisFunction
    hermitian_defect: float
    coefficient_norm: float

    def __str__(self):
        return (f"coefficient of {self.basis}: Hermitian defect "
                f"{self.hermitian_defect:.3e} vs norm {self.coefficient_norm:.3e}")


@dataclass
class Admissibility:
    """Outcome of the divergent-coefficient structure check."""

    passed: bool
    violations: list
    tol: float

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "tol": self.tol,
            "violations": [
                {
                    "power": str(v.basis.power),
                    "logpower": v.basis.logpower,
                    "hermitian_defect": v.hermitian_defect,
                    "coefficient_norm": v.coefficient_norm,
                }
                for v in self.violations
            ],
        }


class AdmissibilityError(ValueError):
    """Raised when a divergent coefficient cannot be absorbed into a
    unimodular/unitary factor."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def check_admissible(divergent, tol=ADMISSIBILITY_TOL):
    """Check that every divergent coefficient is i times Hermitian.

    Scalar coefficients must be purely imaginary relative to their modulus;
    matrix coefficients C must satisfy ||C + C^dag|| <= tol * ||C||.  The input
    must contain divergent terms only.
    """
    violations = []
    for b, c in divergent.sorted_terms():
        if not b.divergent:
            raise ValueError(
                f"check_admissible expects divergent terms only, got {b}")
        norm = float(np.linalg.norm(c))
        if divergent.is_scalar:
            defect = abs(float(c.real[0, 0]))
        else:
            defect = float(np.linalg.norm(c + c.conj().T))
        if defect > tol * norm:
            violations.append(AdmissibilityViolation(b, defect, norm))
    return Admissibility(passed=not violations, violations=violations, tol=tol)


class DeviationFactor:
    """Unimodular/unitary function of the regulator, exp(i sum_b H_b b(Lambda)).

    Exponent coefficients H_b are Hermitian (real numbers in the scalar case),
    so every evaluation is exactly unitary up to rounding.  The reference scale
    rescales logarithm arguments: with exponent {ln: H}, evaluation gives
    exp(i H ln(Lambda / reference_scale)).
    """

    def __init__(self, regulator, exponent=None, reference_scale=1.0, dim=None):
        if regulator not in REGULATOR_KINDS:
            raise ValueError(f"unknown regulator kind {regulator!r}")
        if reference_scale <= 0:
            raise ValueError(f"reference scale must be positive, got {reference_scale}")
        self.regulator = regulator
        self.reference_scale = float(reference_scale)
        self.exponent = {}
        for b, h in (exponent or {}).items():
            arr = _coerce_coefficient(h)
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise ValueError(
                    f"exponent for {b} has dimension {arr.shape[0]}, expected {dim}")
            defect = np.linalg.norm(arr - arr.conj().T)
            if defect > 1e-12 * max(np.linalg.norm(arr), 1e-300):
                raise ValueError(
                    f"exponent coefficient of {b} is not Hermitian "
                    f"(defect {defect:.3e})")
            arr = (arr + arr.conj().T) / 2  # exact Hermitian symmetrization
            if np.any(arr != 0):
                self.exponent[b] = arr
        self.dim = 1 if dim is None else int(dim)

    @property
    def is_scalar(self):
        return self.dim == 1

    @property
    def class_a(self):
        """True when no exponent basis function carries a positive power of the
        regulator (polynomial-in-logarithm exponents only)."""
        return all(b.power <= 0 for b in self.exponent)

    def sorted_terms(self):
        return sorted(self.exponent.items(), key=lambda kv: kv[0]._sort_key())

    def exponent_value(self, lam):
        """Hermitian matrix sum_b H_b b(Lambda) (a real number for scalars)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for b, h in self.exponent.items():
            out += h * b.value(lam, self.reference_scale)
        return out

    def evaluate(self, lam):
        """Unitary value exp(i * exponent(lam)); a unimodular complex number
        when the factor is scalar."""
        theta = self.exponent_value(lam)
        if self.is_scalar:
            return cmath.exp(1j * complex(theta[0, 0]))
        w, v = np.linalg.eigh(theta)
        return (v * np.exp(1j * w)) @ v.conj().T

    def drift(self, lam, step=1.0):
        """Shift response ||U(lam + step) U(lam)^dag - I|| used as a
        removability proxy: it shrinks with lam for poly-log exponents and
        stays bounded away from zero when the exponent carries a positive
        power of the regulator."""
        u1 = self.evaluate(lam)
        u2 = self.evaluate(lam + step)
        if self.is_scalar:
            return abs(u2 * u1.conjugate() - 1.0)
        return float(np.linalg.norm(u2 @ u1.conj().T - np.eye(self.dim)))

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "deviation_factor",
            "regulator": self.regulator,
            "dim": self.dim,
            "reference_scale": self.reference_scale,
            "terms": [_term_to_json(b, h) for b, h in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, data):
        regulator, exponent = _record_from_json(data, "deviation_factor",
                                                "a deviation-factor")
        return cls(regulator, exponent,
                   reference_scale=data.get("reference_scale", 1.0),
                   dim=data.get("dim"))


def _absorbed_exponent(divergent, weight, refusal, tol=ADMISSIBILITY_TOL):
    """Exponent terms weight * (C - C^dag) / 2j for each divergent coefficient
    C, i.e. C/i projected to its Hermitian part.  Raises AdmissibilityError
    with the refusal message unless every C is i times Hermitian."""
    report = check_admissible(divergent, tol=tol)
    if not report.passed:
        detail = "; ".join(str(v) for v in report.violations)
        raise AdmissibilityError(f"{refusal}: {detail}", report)
    return {b: weight * (c - c.conj().T) / 2j for b, c in divergent.terms.items()}


def deviation_factor(divergent, reference_scale=1.0, tol=ADMISSIBILITY_TOL):
    """Build the deviation factor absorbing a divergent expansion.

    Each coefficient C_b is projected to its anti-Hermitian part and written as
    i H_b (series_factor weights the orders of a coupling series).  Raises
    AdmissibilityError if the structure check fails.
    """
    exponent = _absorbed_exponent(divergent, 1.0,
                                  "divergent coefficients are not absorbable", tol)
    return DeviationFactor(divergent.regulator, exponent,
                           reference_scale=reference_scale, dim=divergent.dim)


def evaluate_factor(factor, lam):
    return factor.evaluate(lam)


def class_a(factor):
    """True when the factor's exponent contains no positive regulator power."""
    return factor.class_a


class CouplingSeries:
    """Truncated power series in a coupling e whose order-m coefficient is an
    asymptotic expansion a_m(Lambda): value = 1 + sum_m e^m a_m(Lambda)."""

    def __init__(self, coupling, coefficients, regulator=None):
        self.coupling = float(coupling)
        coeffs = []
        dim = None
        for a in coefficients:
            if not isinstance(a, AsymptoticExpansion):
                raise TypeError("series coefficients must be expansions")
            if regulator is None:
                regulator = a.regulator
            elif a.regulator != regulator:
                raise ValueError("series mixes regulator kinds")
            if dim is None:
                dim = a.dim
            elif a.dim != dim:
                raise ValueError("series mixes coefficient dimensions")
            coeffs.append(a)
        self.coefficients = coeffs
        self.regulator = ULTRAVIOLET if regulator is None else regulator
        self.dim = 1 if dim is None else dim

    @property
    def order(self):
        return len(self.coefficients)

    def value_at(self, lam):
        base = np.eye(self.dim, dtype=complex)
        for m, a in enumerate(self.coefficients, start=1):
            c = a.value_at(lam)
            base = base + (self.coupling ** m) * np.atleast_2d(np.asarray(c))
        return complex(base[0, 0]) if self.dim == 1 else base


def series_factor(series):
    """The one deviation factor absorbing the divergences of every order of a
    coupling series: the order-m divergent coefficients enter its exponent
    weighted by coupling^m.  Raises AdmissibilityError naming the offending
    order when some divergent coefficient is not i times Hermitian."""
    exponent = {}
    for m, a in enumerate(series.coefficients, start=1):
        absorbed = _absorbed_exponent(a.divergent_part(), series.coupling ** m,
                                      f"order {m} coefficient is not absorbable")
        for b, h in absorbed.items():
            exponent[b] = exponent[b] + h if b in exponent else h
    return DeviationFactor(series.regulator, exponent, dim=series.dim)


def regularize_series(series, lam):
    """Split off the divergences of a coupling series into one deviation factor.

    Per order m the divergent part of a_m is subtracted pointwise, leaving the
    regularized coefficient value a_m(lam) - (divergent part)(lam); the factor
    is series_factor(series) and does not depend on lam.  Raises
    AdmissibilityError as series_factor does.

    Returns (factor, regular) where regular is the list of regularized
    coefficient values at lam, one entry per order.
    """
    factor = series_factor(series)
    return factor, [regularize_term(a, lam) for a in series.coefficients]


def model_series(phi, psis, e, lam, n_orders):
    """Solvable model series with logarithmic divergences and its regularization.

    The order-m coefficient is a_m(Lambda) = sum_{k=0..m} psi_{m-k}
    (i phi ln Lambda)^k / k! with psi_0 = 1.  Returns (raw, regular) where raw
    is the truncated series value at lam through order n_orders and regular is
    Lambda^{-i e phi} * raw.  The regular value approaches the convergent
    series sum_m e^m psi_m uniformly in Lambda, up to order e^{n_orders+1}.
    """
    psis = [complex(p) for p in psis]
    if not psis or psis[0] != 1:
        raise ValueError("model series requires psi_0 = 1")
    if n_orders < 0:
        raise ValueError(f"series order must be non-negative, got {n_orders}")
    if n_orders > len(psis) - 1:
        raise ValueError(
            f"order {n_orders} needs {n_orders + 1} psi values, got {len(psis)}")
    if lam <= 0:
        raise ValueError(f"regulator value must be positive, got {lam}")
    theta = 1j * phi * math.log(lam)
    raw = 1.0 + 0j
    for m in range(1, n_orders + 1):
        a_m = 0j
        for k in range(m + 1):
            a_m += psis[m - k] * theta ** k / math.factorial(k)
        raw += (e ** m) * a_m
    regular = cmath.exp(-e * theta) * raw
    return raw, regular
