"""Least-squares extraction of divergence signatures from cutoff ladders.

Samples of an integral at increasing cutoff values are fit against a basis of
cutoff powers and logarithm powers.  The design matrix is column-normalized
before solving so the reported condition number reflects genuine basis
collinearity on the sample grid, not scale disparity; real and imaginary parts
share one design.  The fitted coefficients can be assembled back into an
asymptotic expansion, dropping terms that are numerically zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .expansions import (
    ULTRAVIOLET,
    AsymptoticExpansion,
    BasisFunction,
)
from .quadrature import SampledIntegral

BASIS_TOKENS = {
    "L^2": BasisFunction(2, 0),
    "L": BasisFunction(1, 0),
    "ln^2": BasisFunction(0, 2),
    "ln": BasisFunction(0, 1),
    "1": BasisFunction(0, 0),
    "1/L": BasisFunction(-1, 0),
    "1/L^2": BasisFunction(-2, 0),
}

DEFAULT_BASIS = tuple(BASIS_TOKENS.values())

CONDITION_LIMIT = 1e12
MIN_DECADES = 2.0


class CollinearBasisError(ValueError):
    """Design matrix is numerically rank deficient on the sample grid."""

    def __init__(self, message, condition, pairs):
        super().__init__(message)
        self.condition = condition
        self.pairs = pairs


@dataclass
class FitResult:
    """Fitted complex coefficients per basis function, with diagnostics."""

    basis: tuple
    coefficients: dict
    stderr: dict
    residual_norm: float
    condition: float
    n_samples: int

    def coefficient(self, power, logpower=0):
        return self.coefficients[BasisFunction(power, logpower)]

    def signature(self, threshold=1e-4):
        """The fitted terms whose magnitude exceeds threshold times the
        largest one, as an ultraviolet asymptotic expansion (empty when all
        coefficients are zero)."""
        if not 0 < threshold < np.inf:
            raise ValueError(
                f"threshold must be finite and positive, got {threshold}")
        top = max(map(abs, self.coefficients.values()), default=0.0)
        return AsymptoticExpansion(
            ULTRAVIOLET, {b: c for b, c in self.coefficients.items()
                          if abs(c) > threshold * top}, dim=1)

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "kind": "fit",
            "n_samples": self.n_samples,
            "residual_norm": self.residual_norm,
            "condition": self.condition,
            "coefficients": [
                {
                    "power": str(b.power),
                    "logpower": b.logpower,
                    "re": self.coefficients[b].real,
                    "im": self.coefficients[b].imag,
                    "stderr": self.stderr[b],
                }
                for b in self.basis
            ],
        }


def fit(samples, basis=DEFAULT_BASIS):
    """Least-squares fit of ladder samples against cutoff basis functions.

    Requires finite cutoffs and values with finite, non-negative errors, at
    least two more samples than basis functions and a grid spanning two
    decades.  Samples are weighted by their inverse error estimates, unless
    every estimate is zero.  One SVD of the weighted, column-normalized design
    gives its condition number, the coefficients and their standard errors,
    without forming the normal equations.  Raises CollinearBasisError when the
    design is ill-conditioned, naming the most collinear basis pairs.
    """
    basis = tuple(basis)
    if len(set(basis)) != len(basis):
        dupes = [(str(b), str(b))
                 for i, b in enumerate(basis) if b in basis[:i]]
        raise CollinearBasisError(
            f"duplicate basis functions: {dupes}", np.inf, dupes)
    n = len(samples)
    m = len(basis)
    if n < m + 2:
        raise ValueError(
            f"need at least {m + 2} samples for {m} basis functions, got {n}")
    lams = samples.lambdas
    errors = samples.errors
    ok = (np.isfinite(lams) & np.isfinite(samples.values)
          & np.isfinite(errors) & (errors >= 0))
    if not ok.all():
        raise ValueError(
            f"sample rows {np.nonzero(~ok)[0].tolist()} need a finite cutoff, "
            f"a finite value and a finite, non-negative error")
    decades = np.log10(lams[-1] / lams[0])
    if decades < MIN_DECADES:
        raise ValueError(
            f"sample grid spans {decades:.2f} decades; need at least {MIN_DECADES}")

    weights = np.ones(n)
    if (errors > 0).any():
        floor = max(errors.max() * 1e-6, 1e-300)
        weights = 1.0 / np.maximum(errors, floor)
        weights /= weights.max()

    logs = np.log(lams)
    wd = np.empty((n, m))
    for j, b in enumerate(basis):
        np.multiply(lams ** b.float_power * logs ** b.logpower, weights,
                    out=wd[:, j])
    scale = np.linalg.norm(wd, axis=0)
    if (scale == 0).any():
        dead = [str(basis[j]) for j in np.nonzero(scale == 0)[0]]
        raise ValueError(f"basis functions vanish on the grid: {dead}")
    wdn = wd / scale
    u, s, vt = np.linalg.svd(wdn, full_matrices=False)
    condition = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    if condition > CONDITION_LIMIT:
        gram = np.abs(wdn.T @ wdn)
        pairs = [(str(basis[i]), str(basis[j]))
                 for i in range(m) for j in range(i + 1, m)
                 if gram[i, j] > 1.0 - 1e-8]
        raise CollinearBasisError(
            f"design condition {condition:.3e} exceeds {CONDITION_LIMIT:.1e}; "
            f"nearly collinear pairs: {pairs or 'none isolated'}",
            condition, pairs)

    rhs = np.empty((n, 2))
    np.multiply(samples.values.real, weights, out=rhs[:, 0])
    np.multiply(samples.values.imag, weights, out=rhs[:, 1])
    v_over_s = vt.T / s
    sol = v_over_s @ (u.T @ rhs)
    rss = float(np.sum((rhs - wdn @ sol) ** 2))
    sigma_sq = rss / (2 * n - 2 * m)
    # diag((A^T A)^-1) = sum_k (V_jk / s_k)^2
    stderr_vals = np.sqrt(sigma_sq * np.sum(v_over_s ** 2, axis=1)) / scale
    coeffs = sol / scale[:, None]

    return FitResult(basis,
                     {b: complex(*c) for b, c in zip(basis, coeffs)},
                     {b: float(e) for b, e in zip(basis, stderr_vals)},
                     residual_norm=float(np.sqrt(rss)),
                     condition=condition, n_samples=n)


def detect_signature(samples, threshold=1e-4, basis=DEFAULT_BASIS):
    """Fit a ladder and keep only coefficients above the relative threshold:
    fit(samples, basis).signature(threshold)."""
    return fit(samples, basis).signature(threshold)


def parse_basis(text):
    """Comma-separated basis tokens (e.g. "ln,1,1/L") to basis functions."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in BASIS_TOKENS:
            raise ValueError(
                f"unknown basis token {token!r}; known: {sorted(BASIS_TOKENS)}")
        out.append(BASIS_TOKENS[token])
    if not out:
        raise ValueError("empty basis")
    return tuple(out)


CSV_HEADER = "lambda,re,im,err"


def write_samples_csv(path, samples, generator=None):
    """Write ladder samples as CSV: lambda,re,im,err rows after an optional
    "# generator:" JSON comment recording how the samples were produced.
    Floats use repr for lossless, deterministic round trips."""
    lines = []
    if generator is not None:
        lines.append("# generator: " + json.dumps(generator, sort_keys=True))
    if not samples.all_converged:
        bad = [int(i) for i in np.nonzero(~samples.converged)[0]]
        lines.append("# nonconverged_rows: " + json.dumps(bad))
    lines.append(CSV_HEADER)
    for lam, val, err in zip(samples.lambdas, samples.values, samples.errors):
        lines.append(f"{float(lam)!r},{float(val.real)!r},"
                     f"{float(val.imag)!r},{float(err)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite_number(token):
    """A JSON number or NaN/Infinity token as a float, refused unless finite
    (1e999 parses to inf as well)."""
    value = float(token)
    if not np.isfinite(value):
        raise ValueError(f"generator comment holds the non-finite number {token}")
    return value


def read_samples_csv(path):
    """Read a ladder CSV written by write_samples_csv.

    Returns (samples, generator) where generator is the parsed JSON comment or
    None."""
    generator = None
    bad_rows = []
    rows = []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    body = []
    for ln in lines:
        if ln.startswith("#"):
            comment = ln[1:].strip()
            if comment.startswith("generator:"):
                generator = json.loads(comment[len("generator:"):],
                                       parse_float=_finite_number,
                                       parse_constant=_finite_number)
            elif comment.startswith("nonconverged_rows:"):
                bad_rows = json.loads(comment[len("nonconverged_rows:"):])
            continue
        body.append(ln)
    if not body or body[0] != CSV_HEADER:
        raise ValueError(
            f"expected header {CSV_HEADER!r}, got {body[0] if body else 'nothing'!r}")
    for ln in body[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed sample row: {ln!r}")
        rows.append([float(p) for p in parts])
    arr = np.array(rows) if rows else np.zeros((0, 4))
    flags = np.ones(arr.shape[0], dtype=bool)
    if not (isinstance(bad_rows, list)
            and all(type(i) is int and 0 <= i < flags.size for i in bad_rows)):
        raise ValueError(
            f"nonconverged_rows must list row indices in [0, {flags.size}), "
            f"got {bad_rows!r}")
    flags[bad_rows] = False
    samples = SampledIntegral(arr[:, 0], arr[:, 1] + 1j * arr[:, 2],
                              arr[:, 3], flags)
    return samples, generator
