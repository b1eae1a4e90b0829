"""Acceptance battery.

Thirteen numbered criteria exercise the whole surface end to end, each with a
stated tolerance and a runtime ceiling.  Every criterion prints one
[PASS]/[FAIL] line (visible under pytest -s).
"""

import functools
import json
import math
import os
import time

import numpy as np
import pytest
import scipy.special

from devfactor.cli import main as cli_main
from devfactor.coulomb import (
    EULER_GAMMA,
    CoulombPotentialSpec,
    digamma,
    kernel_R,
    legendre_q,
    s1,
)
from devfactor.dirac import (
    GAMMA,
    I4,
    commuting_scattering_matrix,
    eigensystem,
    gamma,
    hamiltonian,
)
from devfactor.expansions import (
    CONSTANT,
    LINEAR,
    LOG,
    LOG2,
    QUADRATIC,
    ULTRAVIOLET,
    AsymptoticExpansion,
    BasisFunction,
    CouplingSeries,
    DeviationFactor,
    check_admissible,
    class_a,
    model_series,
    regularize_series,
)
from devfactor.fitting import fit, read_samples_csv
from devfactor.qed import bubble_moment, electron_self_energy, feynman_combine
from devfactor.quadrature import (
    ball4_integrate,
    cutoff_ladder,
    shifted_denominator_integrand,
    unit_integrand,
)

INV = BasisFunction(-1, 0)
INV2 = BasisFunction(-2, 0)


def criterion(number, description, limit_seconds):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if elapsed >= limit_seconds:
                    print(f"[FAIL] criterion {number}: {description} "
                          f"(overran {limit_seconds}s: {elapsed:.2f}s)")
                    pytest.fail(
                        f"criterion {number} exceeded its {limit_seconds}s "
                        f"budget: {elapsed:.2f}s")
            except BaseException:
                if time.perf_counter() - start < limit_seconds:
                    print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description} "
                  f"({elapsed:.2f}s)")
        return wrapper
    return deco


def random_unitary2(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@criterion(1, "free Hamiltonian spectral identities", 1.0)
def test_criterion_01_spectral_identities():
    rng = np.random.default_rng(211)
    for _ in range(120):
        q = rng.normal(size=3) * 3.0
        m = float(rng.uniform(0.1, 5.0))
        h = hamiltonian(q, m)
        es = eigensystem(q, m)
        for j in range(4):
            res = np.linalg.norm(h @ es.eigenvectors[:, j]
                                 - es.eigenvalues[j] * es.eigenvectors[:, j])
            assert res <= 1e-12
        energy_sq = m * m + float(q @ q)
        assert np.linalg.norm(h @ h - energy_sq * I4) <= 1e-12 * max(energy_sq, 1.0)


@criterion(2, "commuting scattering matrix construction", 1.0)
def test_criterion_02_commutation_construction():
    rng = np.random.default_rng(223)
    for _ in range(100):
        q = rng.normal(size=3) * 2.0
        m = float(rng.uniform(0.2, 4.0))
        s = commuting_scattering_matrix(q, m, random_unitary2(rng),
                                        random_unitary2(rng))
        h = hamiltonian(q, m)
        assert np.linalg.norm(s @ h - h @ s) <= 1e-12 * np.linalg.norm(h)
        assert np.linalg.norm(s.conj().T @ s - I4) <= 1e-12


@criterion(3, "gamma anticommutator table and adjoint signs", 1.0)
def test_criterion_03_gamma_algebra():
    eta = (-1.0, -1.0, -1.0, 1.0)
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            expect = 2.0 * eta[mu] * I4 if mu == nu else np.zeros((4, 4))
            assert np.max(np.abs(anti - expect)) <= 1e-15
    for mu in range(3):
        assert np.max(np.abs(GAMMA[mu].conj().T + GAMMA[mu])) <= 1e-15
    assert np.max(np.abs(GAMMA[3].conj().T - GAMMA[3])) <= 1e-15


@criterion(4, "4-ball quadrature against the radial antiderivative", 30.0)
def test_criterion_04_quadrature_oracle():
    f = shifted_denominator_integrand(np.zeros(4), 1.0)
    for radius in (10.0, 100.0):
        exact = math.pi ** 2 * (math.log(radius ** 2 + 1.0)
                                + 1.0 / (radius ** 2 + 1.0) - 1.0)
        res = ball4_integrate(f, radius, tol=1e-8)
        assert res.converged
        assert abs(res.value - exact) / abs(exact) <= 1e-6
    vol = ball4_integrate(unit_integrand(), 10.0, tol=1e-10)
    assert abs(vol.value - math.pi ** 2 * 1e4 / 2.0) <= 1e-8 * math.pi ** 2 * 1e4 / 2.0


@criterion(5, "divergence-signature recovery from a cutoff ladder", 120.0)
def test_criterion_05_signature_recovery():
    p = np.array([0.3, 0.0, 0.0, 0.0])
    ell = float(p @ p) + 1.0  # denominator shift constant 1 at large radius
    radii = np.geomspace(10.0, 1000.0, 8)
    samples = cutoff_ladder(shifted_denominator_integrand(p, ell), radii,
                            tol=1e-8)
    assert samples.all_converged
    res = fit(samples, (LOG, CONSTANT, INV, INV2))
    log_exact = 2.0 * math.pi ** 2
    const_exact = -math.pi ** 2  # shift constant 1 contributes no logarithm
    assert abs(res.coefficient(0, 1) - log_exact) / log_exact <= 0.01
    assert abs(res.coefficient(0, 0) - const_exact) / abs(const_exact) <= 0.03


@criterion(6, "series regularization reconstruction law", 5.0)
def test_criterion_06_regularization_pipeline():
    e = 1e-4
    a1 = AsymptoticExpansion(ULTRAVIOLET, {CONSTANT: 0.2, INV: 0.05})
    a2 = AsymptoticExpansion(ULTRAVIOLET, {LOG: 0.05j, CONSTANT: 0.11,
                                           INV: 0.4})
    a3 = AsymptoticExpansion(ULTRAVIOLET, {LOG: 0.02j, CONSTANT: -0.3})
    series = CouplingSeries(e, [a1, a2, a3])
    for lam in (1e2, 1e3, 1e4):
        factor, regular = regularize_series(series, lam)
        tilde = 1.0 + sum(e ** m * r for m, r in enumerate(regular, start=1))
        residual = abs(series.value_at(lam) - factor.evaluate(lam) * tilde)
        assert residual <= 1e-12
    finite = (0.2, 0.11, -0.3)
    gaps = {m: [] for m in range(3)}
    for k in range(2, 7):
        _, regular = regularize_series(series, 10.0 ** k)
        for m in range(3):
            gaps[m].append(abs(regular[m] - finite[m]))
    for m in range(3):
        assert all(g1 >= g2 for g1, g2 in zip(gaps[m], gaps[m][1:]))
        assert gaps[m][-1] <= 1e-6


@criterion(7, "admissibility dichotomy over gamma coefficients", 1.0)
def test_criterion_07_admissibility_dichotomy():
    assert check_admissible(AsymptoticExpansion(
        ULTRAVIOLET, {LOG: 0.7j * I4})).passed
    for mu in (1, 2, 3, 4):
        report = check_admissible(AsymptoticExpansion(
            ULTRAVIOLET, {LOG: 0.7 * gamma(mu)}))
        if mu <= 3:
            assert report.passed, mu  # spatial matrices are skew-Hermitian
        else:
            assert not report.passed
            assert report.violations[0].hermitian_defect > 0.1


@criterion(8, "removable-factor drift proxy", 1.0)
def test_criterion_08_class_membership_proxy():
    polylog = DeviationFactor(ULTRAVIOLET, {LOG: 0.35, LOG2: 0.05})
    assert class_a(polylog)
    drifts = [polylog.drift(lam) for lam in (1e3, 1e4, 1e5)]
    assert drifts[0] > drifts[1] > drifts[2]

    for terms in ({LINEAR: 0.01}, {QUADRATIC: 0.001}):
        growing = DeviationFactor(ULTRAVIOLET, terms)
        assert not class_a(growing)
    linear = DeviationFactor(ULTRAVIOLET, {LINEAR: 0.01})
    for lam in (1e3, 1e4, 1e5):
        assert linear.drift(lam) > 0.0099  # bounded away from zero


def tail_bound(phi, psis, e, lam, n):
    y = abs(e * phi * math.log(lam))
    total = 0.0
    for j in range(n + 1):
        r = n - j
        total += (abs(psis[j]) * e ** j * y ** (r + 1)
                  / math.factorial(r + 1) * math.exp(y))
    return total


@criterion(9, "solvable model uniform truncation error", 1.0)
def test_criterion_09_model_series():
    phi = 0.7
    psis = (1.0, 0.3, 0.1, 0.05, 0.02)
    e = 0.1
    lam_max = 1e3
    for n in (1, 2, 3, 4):
        target = sum(psis[m] * e ** m for m in range(n + 1))
        bound = tail_bound(phi, psis, e, lam_max, n)
        # bound = C e^(n+1) with C fixed by the top regulator value alone
        assert bound <= 60.0 * e ** (n + 1)
        for lam in (10.0, lam_max):
            _, regular = model_series(phi, psis, e, lam, n)
            assert abs(regular - target) <= bound


@criterion(10, "self-energy moment integrals", 10.0)
def test_criterion_10_moment_integrals():
    for m in (0.5, 1.0, 2.0):
        for p_sq in (0.3, 1.0, 4.0):
            p = np.array([math.sqrt(p_sq), 0.0, 0.0, 0.0])
            rep = electron_self_energy(p, m, 0.3)
            assert rep.cross_checks["feynman_log_quadrature"] <= 1e-10
    ratio = 0.01
    sigma = bubble_moment(ratio, 1.0)
    assert abs(sigma - ratio / 30.0) / (ratio / 30.0) <= 0.02
    rng = np.random.default_rng(227)
    for _ in range(50):
        a, b = rng.uniform(0.05, 40.0, size=2)
        assert feynman_combine(float(a), float(b)).rel_error <= 1e-9


@criterion(11, "digamma and Legendre special functions", 1.0)
def test_criterion_11_special_functions():
    assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-12
    assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) <= 1e-12
    assert abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0)) <= 1e-12
    for x in np.geomspace(0.1, 30.0, 20):
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12

    x = 3.0
    q0 = 0.5 * math.log((x + 1.0) / (x - 1.0))
    assert abs(legendre_q(0, x) - q0) <= 1e-12
    assert abs(legendre_q(1, x) - (x * q0 - 1.0)) <= 1e-12

    for x in (1.1, 2.0, 10.0, 50.0):
        for ell in range(1, 10):
            t1 = (ell + 1) * legendre_q(ell + 1, x)
            t2 = (2 * ell + 1) * x * legendre_q(ell, x)
            t3 = ell * legendre_q(ell - 1, x)
            assert abs(t1 - t2 + t3) <= 3e-11 * max(abs(t1), abs(t2), abs(t3))


@criterion(12, "first-order Coulomb phase and kernel values", 1.0)
def test_criterion_12_coulomb_first_order():
    got = s1(CoulombPotentialSpec(z=1.0), 2.0)
    assert abs(got - 1j * EULER_GAMMA) <= 1e-10
    oracle = -2j * 1.0 * float(scipy.special.digamma(1)) / 2.0
    assert abs(got - oracle) <= 1e-10

    spec = CoulombPotentialSpec(z=1.0)
    assert abs(kernel_R(spec, 1.0, 2.0) + math.log(3.0) / math.pi) <= 1e-10
    rng = np.random.default_rng(229)
    for _ in range(5):
        k, p = rng.uniform(0.3, 4.0, size=2)
        if abs(k - p) < 1e-3:
            continue
        a = kernel_R(spec, float(k), float(p))
        b = kernel_R(spec, float(p), float(k))
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


@criterion(13, "command-line determinism and fit round-trip", 60.0)
def test_criterion_13_cli_round_trip(tmp_path):
    ladder_args = ["ladder", "--integrand", "shifted", "--p", "0.3,0,0,0",
                   "--ell", "1.09", "--lmin", "10", "--lmax", "1000",
                   "--points", "6"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(ladder_args + ["--out", str(out1)]) == 0
    assert cli_main(ladder_args + ["--out", str(out2)]) == 0
    for name in ("ladder.csv", "ladder_re.dat", "ladder_im.dat", "ladder.gp"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert cli_main(["example", "--id", "photon", "--out", str(out1)]) == 0
    assert cli_main(["example", "--id", "photon", "--out", str(out2)]) == 0
    assert ((out1 / "example_5.3.json").read_bytes()
            == (out2 / "example_5.3.json").read_bytes())

    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "synthetic_ladder.csv")
    assert cli_main(["fit", "--infile", fixture, "--out", str(out1)]) == 0
    with open(out1 / "fit.json") as fh:
        rows = json.load(fh)["fit"]["coefficients"]
    by_key = {(r["power"], r["logpower"]): r for r in rows}
    assert abs(by_key[("0", 1)]["im"] - 4.0) <= 1e-8
    assert abs(by_key[("0", 1)]["re"]) <= 1e-8
    assert abs(by_key[("0", 0)]["im"] + 1.0) <= 1e-8
    assert abs(by_key[("-1", 0)]["re"] - 2.0) <= 1e-8
