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

# L^2, L, ln^2, ln, 1, 1/L, 1/L^2
DEFAULT_BASIS = (
    BasisFunction(2, 0),
    BasisFunction(1, 0),
    BasisFunction(0, 2),
    BasisFunction(0, 1),
    BasisFunction(0, 0),
    BasisFunction(-1, 0),
    BasisFunction(-2, 0),
)

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


def _design_matrix(lambdas, basis):
    cols = [np.array([b.value(lam) for lam in lambdas]) for b in basis]
    return np.column_stack(cols)


def fit(samples, basis=DEFAULT_BASIS):
    """Least-squares fit of ladder samples against cutoff basis functions.

    Requires at least two more samples than basis functions and a grid
    spanning two decades.  Samples are weighted by their inverse error
    estimates, unless every estimate is zero.  Raises CollinearBasisError when
    the normalized design is ill-conditioned, naming the most collinear basis
    pairs.
    """
    basis = tuple(basis)
    if len(set(basis)) != len(basis):
        seen = {}
        dupes = []
        for b in basis:
            if b in seen:
                dupes.append((str(b), str(b)))
            seen[b] = True
        raise CollinearBasisError(
            f"duplicate basis functions: {dupes}", np.inf, dupes)
    n = len(samples)
    m = len(basis)
    if n < m + 2:
        raise ValueError(
            f"need at least {m + 2} samples for {m} basis functions, got {n}")
    lams = samples.lambdas
    decades = np.log10(lams[-1] / lams[0])
    if decades < MIN_DECADES:
        raise ValueError(
            f"sample grid spans {decades:.2f} decades; need at least {MIN_DECADES}")

    design = _design_matrix(lams, basis)
    weights = np.ones(n)
    if np.any(samples.errors > 0):
        floor = max(np.max(samples.errors) * 1e-6, 1e-300)
        weights = 1.0 / np.maximum(samples.errors, floor)
        weights /= np.max(weights)

    wd = design * weights[:, None]
    scale = np.linalg.norm(wd, axis=0)
    if np.any(scale == 0):
        dead = [str(basis[j]) for j in np.nonzero(scale == 0)[0]]
        raise ValueError(f"basis functions vanish on the grid: {dead}")
    wdn = wd / scale
    condition = float(np.linalg.cond(wdn))
    if condition > CONDITION_LIMIT:
        gram = np.abs(wdn.T @ wdn)
        pairs = []
        for i in range(m):
            for j in range(i + 1, m):
                if gram[i, j] > 1.0 - 1e-8:
                    pairs.append((str(basis[i]), str(basis[j])))
        raise CollinearBasisError(
            f"design condition {condition:.3e} exceeds {CONDITION_LIMIT:.1e}; "
            f"nearly collinear pairs: {pairs or 'none isolated'}",
            condition, pairs)

    rhs = np.column_stack([samples.values.real * weights,
                           samples.values.imag * weights])
    sol, _, _, _ = np.linalg.lstsq(wdn, rhs, rcond=None)
    coeffs_re = sol[:, 0] / scale
    coeffs_im = sol[:, 1] / scale
    resid = rhs - wdn @ sol
    rss = float(np.sum(resid ** 2))
    dof = max(2 * n - 2 * m, 1)
    sigma_sq = rss / dof
    gram_inv = np.linalg.inv(wdn.T @ wdn)
    var_norm = sigma_sq * np.diag(gram_inv)
    stderr_vals = np.sqrt(np.maximum(var_norm, 0.0)) / scale

    coefficients = {}
    stderr = {}
    for j, b in enumerate(basis):
        coefficients[b] = complex(coeffs_re[j], coeffs_im[j])
        stderr[b] = float(stderr_vals[j])
    return FitResult(basis, coefficients, stderr,
                     residual_norm=float(np.sqrt(rss)),
                     condition=condition, n_samples=n)


def detect_signature(samples, threshold=1e-4, basis=DEFAULT_BASIS,
                     regulator=ULTRAVIOLET):
    """Fit a ladder and keep only coefficients above the relative threshold.

    The threshold is relative to the largest fitted coefficient magnitude.
    Returns the surviving terms as an asymptotic expansion (empty when all
    coefficients are negligible).
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    result = fit(samples, basis)
    mags = {b: abs(c) for b, c in result.coefficients.items()}
    top = max(mags.values(), default=0.0)
    terms = {}
    if top > 0:
        for b, c in result.coefficients.items():
            if mags[b] > threshold * top:
                terms[b] = c
    return AsymptoticExpansion(regulator, terms, dim=1)


BASIS_TOKENS = {
    "L^2": BasisFunction(2, 0),
    "L": BasisFunction(1, 0),
    "ln^2": BasisFunction(0, 2),
    "ln": BasisFunction(0, 1),
    "1": BasisFunction(0, 0),
    "1/L": BasisFunction(-1, 0),
    "1/L^2": BasisFunction(-2, 0),
}


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
                generator = json.loads(comment[len("generator:"):])
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
