"""Worked cutoff-regularized examples: self-energies and the vertex part.

Three classic one-loop amplitudes over a 4-ball momentum cutoff, each reduced
to its large-cutoff expansion, checked for absorbability of the divergent
coefficients, and packaged with its deviation factor and regular remainder:
the fermion self-energy (logarithmic divergence proportional to the identity),
the photon self-energy (scalar logarithmic divergence with a bubble integral
remainder), and the vertex correction (simultaneous ultraviolet and infrared
logarithms proportional to one gamma matrix, which is absorbable for the three
anti-Hermitian matrices and obstructed for the Hermitian fourth).

Closed-form large-cutoff asymptotes of the two standard shifted-denominator
integrals are provided for cross-checking against direct ball quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirac import GAMMA, I4, gamma_contraction, slash
from .expansions import (
    CONSTANT,
    INFRARED,
    LOG,
    ULTRAVIOLET,
    Admissibility,
    AsymptoticExpansion,
    BasisFunction,
    check_admissible,
    deviation_factor,
)
from .fitting import fit
from .quadrature import (
    SampledIntegral,
    cutoff_ladder,
    segment_integrate,
    shifted_component_integrand,
    shifted_denominator_integrand,
)

# Opaque example identifiers fixed by the command-line interface contract.
ELECTRON_EXAMPLE_ID = "5.1"
PHOTON_EXAMPLE_ID = "5.3"
VERTEX_EXAMPLE_ID = "5.6"

EXAMPLE_NAMES = {
    ELECTRON_EXAMPLE_ID: "electron-self-energy",
    PHOTON_EXAMPLE_ID: "photon-self-energy",
    VERTEX_EXAMPLE_ID: "vertex-part",
}
EXAMPLE_ALIASES = {
    "electron": ELECTRON_EXAMPLE_ID,
    "photon": PHOTON_EXAMPLE_ID,
    "vertex": VERTEX_EXAMPLE_ID,
}


def standard_integral_log(p, ell, cutoff):
    """Large-cutoff value i pi^2 (ln(L^2/(ell - p^2)) - 1) of the ball integral
    of 1/(k^2 - 2 p.k + ell)^2 times i."""
    p = np.asarray(p, dtype=float)
    delta = float(ell - p @ p)
    if delta <= 0:
        raise ValueError(f"need ell - |p|^2 > 0, got {delta}")
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    return 1j * math.pi ** 2 * (math.log(cutoff ** 2 / delta) - 1.0)


def standard_integral_vector(p, ell, cutoff, nu):
    """Large-cutoff value i pi^2 p_nu (ln(L^2/(ell - p^2)) - 3/2) of the ball
    integral of k_nu/(k^2 - 2 p.k + ell)^2 times i, for nu in 1..4."""
    p = np.asarray(p, dtype=float)
    if nu not in (1, 2, 3, 4):
        raise ValueError(f"component index must be 1..4, got {nu}")
    delta = float(ell - p @ p)
    if delta <= 0:
        raise ValueError(f"need ell - |p|^2 > 0, got {delta}")
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    return 1j * math.pi ** 2 * p[nu - 1] * (math.log(cutoff ** 2 / delta) - 1.5)


@dataclass
class FeynmanCheck:
    """Denominator-combination identity 1/(ab) = int_0^1 du/(a u + b (1-u))^2
    evaluated both ways."""

    a: float
    b: float
    exact: float
    quadrature: float
    abs_error: float
    rel_error: float


def feynman_combine(a, b, tol=1e-12):
    """Check the denominator-combination identity for positive a, b."""
    a = float(a)
    b = float(b)
    if a <= 0 or b <= 0:
        raise ValueError(f"denominators must be positive, got a={a}, b={b}")
    exact = 1.0 / (a * b)

    def integrand(u):
        d = a * u + b * (1.0 - u)
        return 1.0 / (d * d)

    res = segment_integrate(integrand, 0.0, 1.0, tol=tol, abs_tol=1e-16)
    abs_err = abs(res.value - exact)
    return FeynmanCheck(a, b, exact, float(np.real(res.value)),
                        abs_err, abs_err / abs(exact))


def _matrix_json(value):
    arr = np.atleast_2d(np.asarray(value, dtype=complex))
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


@dataclass
class ExampleReport:
    """Everything one worked example produces: kinematics, the cutoff
    expansion(s), the admissibility verdict, the deviation factor(s) when
    admissible, the regular remainder, and numeric cross-checks."""

    example_id: str
    name: str
    kinematics: dict
    expansion: AsymptoticExpansion
    ir_expansion: AsymptoticExpansion | None
    factor: object
    ir_factor: object
    regular_part: object
    regular_part_note: str | None
    admissibility: Admissibility
    cross_checks: dict
    notes: dict

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "kind": "example_report",
            "example_id": self.example_id,
            "name": self.name,
            "kinematics": dict(sorted(self.kinematics.items())),
            "expansion": self.expansion.to_json_dict(),
            "ir_expansion": (None if self.ir_expansion is None
                             else self.ir_expansion.to_json_dict()),
            "factor": None if self.factor is None else self.factor.to_json_dict(),
            "ir_factor": (None if self.ir_factor is None
                          else self.ir_factor.to_json_dict()),
            "regular_part": _matrix_json(self.regular_part),
            "regular_part_note": self.regular_part_note,
            "admissibility": self.admissibility.to_json_dict(),
            "cross_checks": dict(sorted(self.cross_checks.items())),
            "notes": dict(sorted(self.notes.items())),
        }


def feynman_log_moment(p_sq, m):
    """The denominator-logarithm moment 2 ln B = int_0^1 ln((p^2 + m^2) u -
    p^2 u^2) du in closed form."""
    if p_sq <= 0:
        raise ValueError(f"need p^2 > 0, got {p_sq}")
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    msq = m * m
    return (-2.0 * (msq / p_sq) * math.log(m) - 2.0
            + ((p_sq + msq) / p_sq) * math.log(msq + p_sq))


def _feynman_log_moment_quadrature(p_sq, m, tol=1e-12):
    msq = m * m

    def integrand(u):
        return np.log((p_sq + msq) * u - p_sq * u * u)

    res = segment_integrate(integrand, 0.0, 1.0, tol=tol, abs_tol=1e-14)
    return float(np.real(res.value))


def _ladder_coefficient_checks(p, delta_shift=1.0, tol=1e-8):
    """Fit ladders of the two shifted-denominator building blocks and compare
    the log and constant coefficients with the closed asymptotes."""
    p = np.asarray(p, dtype=float)
    p_sq = float(p @ p)
    ell = p_sq + delta_shift
    radii = np.geomspace(10.0, 1000.0, 8)
    basis = (LOG, CONSTANT, BasisFunction(-1, 0), BasisFunction(-2, 0))
    out = {}

    samples = cutoff_ladder(shifted_denominator_integrand(p, ell), radii, tol=tol)
    res = fit(samples, basis)
    log_exact = 2.0 * math.pi ** 2
    const_exact = -math.pi ** 2 * (1.0 + math.log(delta_shift))
    out["ladder_log_scalar"] = abs(res.coefficient(0, 1) - log_exact) / abs(log_exact)
    out["ladder_const_scalar"] = (abs(res.coefficient(0, 0) - const_exact)
                                  / max(abs(const_exact), 1.0))

    p_mag = math.sqrt(p_sq)
    samples = cutoff_ladder(shifted_component_integrand(p, ell), radii, tol=tol)
    res = fit(samples, basis)
    log_exact = 2.0 * math.pi ** 2 * p_mag
    const_exact = -math.pi ** 2 * p_mag * (1.5 + math.log(delta_shift))
    out["ladder_log_vector"] = abs(res.coefficient(0, 1) - log_exact) / abs(log_exact)
    out["ladder_const_vector"] = (abs(res.coefficient(0, 0) - const_exact)
                                  / max(abs(const_exact), 1.0))
    return out


def electron_self_energy(p, m, e, cross_check_ladder=False):
    """Second-order fermion self-energy example.

    The cutoff expansion carries i (m e^2 / (8 pi^2)) I_4 on the logarithm;
    the deviation factor absorbs it with reference scale A = exp(ln B + 1/2),
    where 2 ln B is the closed-form denominator-logarithm moment.  The regular
    first approximation is (e^2/(16 pi^2)) (m i I_4 + (1/2) sum_mu gamma_mu
    pslash gamma_mu), built from explicit matrix products.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"momentum must be a 4-vector, got shape {p.shape}")
    p_sq = float(p @ p)
    if p_sq <= 0:
        raise ValueError("momentum must be nonzero")
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    phi = m * e * e / (8.0 * math.pi ** 2)
    two_lnb = feynman_log_moment(p_sq, m)
    two_lnb_quad = _feynman_log_moment_quadrature(p_sq, m)
    reference_scale = math.exp((two_lnb + 1.0) / 2.0)

    contracted = gamma_contraction(slash(p))
    pref = e * e / (2.0 * math.pi) ** 4
    expansion = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: 1j * phi * I4,
        CONSTANT: (-1j * phi * (two_lnb + 1.0) / 2.0) * I4
        - pref * (math.pi ** 2 / 2.0) * contracted,
    })
    divergent = expansion.divergent_part()
    admissibility = check_admissible(divergent)
    factor = deviation_factor(divergent, reference_scale=reference_scale)

    regular = (e * e / (16.0 * math.pi ** 2)) * (
        m * 1j * I4 + 0.5 * contracted)

    cross_checks = {
        "feynman_log_quadrature": abs(two_lnb_quad - two_lnb) / max(abs(two_lnb), 1.0),
    }
    if cross_check_ladder:
        cross_checks.update(_ladder_coefficient_checks(p))

    return ExampleReport(
        example_id=ELECTRON_EXAMPLE_ID,
        name=EXAMPLE_NAMES[ELECTRON_EXAMPLE_ID],
        kinematics={"p1": float(p[0]), "p2": float(p[1]), "p3": float(p[2]),
                    "p4": float(p[3]), "p_sq": p_sq, "m": float(m), "e": float(e)},
        expansion=expansion,
        ir_expansion=None,
        factor=factor,
        ir_factor=None,
        regular_part=regular,
        regular_part_note=None,
        admissibility=admissibility,
        cross_checks=cross_checks,
        notes={
            "phi": phi,
            "two_lnb": two_lnb,
            "reference_scale": reference_scale,
            "reference_scale_rule": "exp(ln B + 1/2): the factor absorbs the "
                                    "whole scalar bracket 2 ln L - 1 - 2 ln B",
        },
    )


def bubble_moment(p_sq, m, tol=1e-12):
    """Bubble integral sigma = int_0^1 x(1-x) ln(1 + (p^2/m^2) x(1-x)) dx."""
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    if p_sq < 0:
        raise ValueError(f"need p^2 >= 0, got {p_sq}")
    if p_sq == 0:
        return 0.0
    ratio = p_sq / (m * m)

    def integrand(x):
        return x * (1.0 - x) * np.log1p(ratio * x * (1.0 - x))

    res = segment_integrate(integrand, 0.0, 1.0, tol=tol, abs_tol=1e-16)
    return float(np.real(res.value))


def photon_self_energy(p_sq, m, e):
    """Second-order photon self-energy example (scalar).

    The gauge-projected amplitude is i e^2/(2 pi^2) times
    [-(p^2/6)(ln(L^2/m^2) - 5/6) + p^2 sigma] with sigma the bubble moment;
    the factor absorbs the logarithm with reference scale m, and the regular
    first approximation is (e^2 p^2 / (6 pi^2)) sigma.  At p^2 = 0 everything
    degenerates to zero.
    """
    p_sq = float(p_sq)
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    if p_sq < 0:
        raise ValueError(f"need p^2 >= 0, got {p_sq}")
    c0 = e * e / (2.0 * math.pi ** 2)
    sigma = bubble_moment(p_sq, m)
    phi = -c0 * p_sq / 3.0

    expansion = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: 1j * phi,
        CONSTANT: 1j * c0 * ((p_sq / 3.0) * math.log(m)
                             + 5.0 * p_sq / 36.0 + p_sq * sigma),
    }, dim=1)
    divergent = expansion.divergent_part()
    admissibility = check_admissible(divergent)
    factor = deviation_factor(divergent, reference_scale=m)

    regular = c0 * p_sq * sigma / 3.0
    ratio = p_sq / (m * m)

    cross_checks = {}
    if p_sq > 0:
        # The closed asymptote has no quadratic cutoff growth; the fitter
        # applied to its own ladder must agree.
        radii = np.geomspace(100.0, 10000.0, 12)
        values = np.array([expansion.value_at(r) for r in radii])
        samples = SampledIntegral(radii, values, np.zeros(radii.size),
                                  np.ones(radii.size, dtype=bool))
        res = fit(samples, (BasisFunction(2, 0), BasisFunction(1, 0),
                            LOG, CONSTANT))
        scale = max(abs(c) for c in res.coefficients.values())
        cross_checks["quadratic_cutoff_term"] = abs(res.coefficient(2, 0)) / scale
        if ratio < 0.1:
            cross_checks["small_ratio_sigma"] = abs(sigma - ratio / 30.0) / (ratio / 30.0)

    return ExampleReport(
        example_id=PHOTON_EXAMPLE_ID,
        name=EXAMPLE_NAMES[PHOTON_EXAMPLE_ID],
        kinematics={"p_sq": p_sq, "m": float(m), "e": float(e),
                    "mass_ratio": ratio},
        expansion=expansion,
        ir_expansion=None,
        factor=factor,
        ir_factor=None,
        regular_part=regular,
        regular_part_note=None,
        admissibility=admissibility,
        cross_checks=cross_checks,
        notes={"sigma": sigma, "phi": phi, "reference_scale": float(m)},
    )


def _hermitian_exp(c_matrix):
    """exp of an anti-Hermitian matrix via the spectral form of -i times it."""
    h = np.asarray(c_matrix, dtype=complex) / 1j
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def vertex_part(m, e, photon_mass, cutoff, mu):
    """Third-order vertex example: simultaneous ultraviolet and infrared
    logarithms, both proportional to gamma_mu.

    The ultraviolet expansion carries gamma_mu e^2/(8 pi^2) on ln L (reference
    scale m); the infrared expansion, in the regulator 1/photon_mass, carries
    -gamma_mu e^2/(4 pi^2) on the logarithm (reference scale 1/m).  For mu in
    1..3 gamma_mu is anti-Hermitian and both divergences are absorbable; their
    commuting factors multiply to the unitary combined factor.  For mu = 4 the
    coefficient is Hermitian, the admissibility check fails, and no factor is
    built.  The regular part is a fitted order-one placeholder, not a closed
    form.
    """
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    if not (0 < photon_mass <= m):
        raise ValueError(
            f"photon mass must lie in (0, m], got {photon_mass} with m={m}")
    if cutoff <= m:
        raise ValueError(f"cutoff must exceed the mass, got {cutoff}")
    if mu not in (1, 2, 3, 4):
        raise ValueError(f"vertex index must be 1..4, got {mu}")
    g = GAMMA[mu - 1]
    c = e * e / (4.0 * math.pi ** 2)

    uv_expansion = AsymptoticExpansion(ULTRAVIOLET, {
        LOG: (c / 2.0) * g,
        CONSTANT: -c * (0.5 * math.log(m) + math.log(m / photon_mass)) * g,
    })
    ir_expansion = AsymptoticExpansion(INFRARED, {
        LOG: -c * g,
        CONSTANT: -c * math.log(m) * g,
    })

    uv_adm = check_admissible(uv_expansion.divergent_part())
    ir_adm = check_admissible(ir_expansion.divergent_part())
    admissibility = Admissibility(
        passed=uv_adm.passed and ir_adm.passed,
        violations=uv_adm.violations + ir_adm.violations,
        tol=uv_adm.tol)

    factor = None
    ir_factor = None
    cross_checks = {}
    if admissibility.passed:
        factor = deviation_factor(uv_expansion.divergent_part(),
                                  reference_scale=m)
        ir_factor = deviation_factor(ir_expansion.divergent_part(),
                                     reference_scale=1.0 / m)
        u_uv = factor.evaluate(cutoff)
        u_ir = ir_factor.evaluate(1.0 / photon_mass)
        combined = u_uv @ u_ir
        cross_checks["combined_factor_unitarity"] = float(np.linalg.norm(
            combined.conj().T @ combined - I4))
        # One-shot exponential of the full displayed exponent.
        full_exponent = -c * g * (-0.5 * math.log(cutoff / m)
                                  + math.log(m / photon_mass))
        u_full = _hermitian_exp(full_exponent)
        cross_checks["uv_ir_factorization"] = float(
            np.linalg.norm(combined - u_full))

    # Order-one placeholder: fit the scalar multiplier of the known truncated
    # asymptote and keep the fitted constant.  Not a closed-form result.
    radii = np.geomspace(10.0 * m, 1000.0 * m, 9)
    gnorm_sq = float(np.real(np.trace(g.conj().T @ g)))
    scalar_vals = np.array([
        complex(np.trace(g.conj().T @ uv_expansion.value_at(r)) / gnorm_sq)
        for r in radii])
    samples = SampledIntegral(radii, scalar_vals, np.zeros(radii.size),
                              np.ones(radii.size, dtype=bool))
    res = fit(samples, (LOG, CONSTANT, BasisFunction(-1, 0)))
    regular = res.coefficient(0, 0) * g

    return ExampleReport(
        example_id=VERTEX_EXAMPLE_ID,
        name=EXAMPLE_NAMES[VERTEX_EXAMPLE_ID],
        kinematics={"m": float(m), "e": float(e),
                    "photon_mass": float(photon_mass),
                    "cutoff": float(cutoff), "mu": int(mu)},
        expansion=uv_expansion,
        ir_expansion=ir_expansion,
        factor=factor,
        ir_factor=ir_factor,
        regular_part=regular,
        regular_part_note="fitted order-one placeholder from the truncated "
                          "asymptote; no closed form is reproduced here",
        admissibility=admissibility,
        cross_checks=cross_checks,
        notes={"uv_log_weight": c / 2.0, "ir_log_weight": -c,
               "uv_reference_scale": float(m),
               "ir_reference_scale": 1.0 / m},
    )


def resolve_example(example_id):
    """Opaque identifier of an example given by identifier or by name."""
    key = EXAMPLE_ALIASES.get(example_id, example_id)
    if key not in EXAMPLE_NAMES:
        raise ValueError(f"unknown example id {example_id!r}; known ids "
                         f"{sorted(EXAMPLE_NAMES)} or names {sorted(EXAMPLE_ALIASES)}")
    return key


def example_report(example_id, **kwargs):
    """Dispatch an example by its opaque identifier or by name."""
    # built per call so that the module's current bindings are used
    run = {ELECTRON_EXAMPLE_ID: electron_self_energy,
           PHOTON_EXAMPLE_ID: photon_self_energy,
           VERTEX_EXAMPLE_ID: vertex_part}
    return run[resolve_example(example_id)](**kwargs)
