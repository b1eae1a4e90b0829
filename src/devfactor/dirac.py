"""Free Dirac spectral data and commuting scattering matrices.

Momentum-space free Dirac Hamiltonian for one momentum q, its closed-form
eigensystem, the split of C^4 into the two energy subspaces, and the family
of scattering matrices that commute with the Hamiltonian (block-unitary in
the energy eigenbasis).  Also the 4x4 gamma-matrix algebra used by the
self-energy and vertex computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

# Pauli matrices.
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

BETA = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, -1, 0],
     [0, 0, 0, -1]], dtype=complex)

_Z2 = np.zeros((2, 2), dtype=complex)
ALPHA = tuple(np.block([[_Z2, s], [s, _Z2]]) for s in PAULI)

# gamma_j = beta @ alpha_j (j = 1..3, anti-Hermitian), gamma_4 = beta (Hermitian).
GAMMA = tuple(BETA @ a for a in ALPHA) + (BETA,)

# Below this relative size a momentum is treated as exactly zero and the
# canonical degenerate basis is returned.
DEGENERATE_MOMENTUM_TOL = 1e-14


def gamma(mu):
    """Return gamma_mu for mu in 1..4."""
    if mu not in (1, 2, 3, 4):
        raise ValueError(f"gamma index must be 1..4, got {mu}")
    return GAMMA[mu - 1].copy()


def slash(p):
    """Contraction sum_mu p_mu gamma_mu of a 4-vector with the gamma matrices."""
    p = np.asarray(p, dtype=complex)
    if p.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {p.shape}")
    return p[0] * GAMMA[0] + p[1] * GAMMA[1] + p[2] * GAMMA[2] + p[3] * GAMMA[3]


def gamma_contraction(x):
    """sum_mu gamma_mu X gamma_mu by explicit matrix products."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {x.shape}")
    out = np.zeros((4, 4), dtype=complex)
    for g in GAMMA:
        out += g @ x @ g
    return out


def hamiltonian(q, m):
    """Free Dirac Hamiltonian H(q) = m*beta + q.alpha for a 3-momentum q and a
    mass m >= 0 whose squared energy m^2 + |q|^2 is a finite float."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3,):
        raise ValueError(f"expected a 3-momentum, got shape {q.shape}")
    if not 0 <= m < math.inf:
        raise ValueError(f"mass must be non-negative and finite, got {m}")
    energy = math.hypot(m, *q)
    if not energy * energy < math.inf:
        raise ValueError(
            f"momentum must be finite with a finite m^2 + |q|^2, got {q.tolist()}")
    h = m * BETA
    for qi, a in zip(q, ALPHA):
        h = h + qi * a
    return h


def hamiltonian8(q, m):
    """Doubled 8x8 Hamiltonian diag(H(q), H(q)) acting on two spinor copies."""
    h = hamiltonian(q, m)
    out = np.zeros((8, 8), dtype=complex)
    out[:4, :4] = h
    out[4:, 4:] = h
    return out


@dataclass
class EigenSystem:
    """Spectral data of H(q): eigenvalues (-E,-E,+E,+E), orthonormal eigenvectors
    as columns, and the two 4x2 energy-subspace bases m1 (energy -E) and m2 (+E).
    degenerate is set when the energy splitting vanishes (massless zero momentum).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    degenerate: bool


def _fix_phase(v):
    """Scale a unit vector so its last non-negligible component is real positive."""
    idx = None
    scale = np.max(np.abs(v))
    for j in range(v.size - 1, -1, -1):
        if abs(v[j]) > 1e-12 * scale:
            idx = j
            break
    c = v[idx]
    return v * (c.conjugate() / abs(c))


def eigensystem(q, m):
    """Closed-form eigensystem of H(q).

    Eigenvalue order is (-E, -E, +E, +E) with E = sqrt(m^2 + |q|^2).  At q = 0
    the canonical basis (e3, e4) spans the -m subspace and (e1, e2) the +m one.
    """
    q = np.asarray(q, dtype=float)
    h = hamiltonian(q, m)  # validates inputs
    del h
    qn = float(np.linalg.norm(q))
    energy = float(np.hypot(m, qn))

    if qn < DEGENERATE_MOMENTUM_TOL * max(m, 1.0):
        vecs = np.zeros((4, 4), dtype=complex)
        vecs[2, 0] = 1.0  # e3
        vecs[3, 1] = 1.0  # e4
        vecs[0, 2] = 1.0  # e1
        vecs[1, 3] = 1.0  # e2
        vals = np.array([-m, -m, m, m], dtype=float)
        return EigenSystem(vals, vecs, vecs[:, :2], vecs[:, 2:],
                           degenerate=(energy < DEGENERATE_MOMENTUM_TOL))

    q1, q2, q3 = q
    m_plus = m + energy
    m_minus = -(qn * qn) / m_plus  # m - E without cancellation

    cols = [
        np.array([-q1 + 1j * q2, q3, 0.0, m_plus], dtype=complex),
        np.array([-q3, -q1 - 1j * q2, m_plus, 0.0], dtype=complex),
        np.array([-q1 + 1j * q2, q3, 0.0, m_minus], dtype=complex),
        np.array([-q3, -q1 - 1j * q2, m_minus, 0.0], dtype=complex),
    ]
    vecs = np.empty((4, 4), dtype=complex)
    for j, col in enumerate(cols):
        col = col / np.linalg.norm(col)
        vecs[:, j] = _fix_phase(col)
    vals = np.array([-energy, -energy, energy, energy], dtype=float)
    return EigenSystem(vals, vecs, vecs[:, :2], vecs[:, 2:], degenerate=False)


def commuting_scattering_matrix(q, m, block1, block2, tol=1e-12):
    """Scattering matrix commuting with H(q), built from one unitary 2x2 block
    per energy subspace: S = V diag(block1, block2) V^dag in the eigenbasis V.
    """
    block1 = np.asarray(block1, dtype=complex)
    block2 = np.asarray(block2, dtype=complex)
    for name, b in (("block1", block1), ("block2", block2)):
        if b.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2, got shape {b.shape}")
        defect = np.linalg.norm(b.conj().T @ b - I2)
        if defect > tol:
            raise ValueError(f"{name} is not unitary: ||B^dag B - I|| = {defect:.3e}")
    es = eigensystem(q, m)
    d = np.zeros((4, 4), dtype=complex)
    d[:2, :2] = block1
    d[2:, 2:] = block2
    v = es.eigenvectors
    return v @ d @ v.conj().T


def is_hermitian(a, tol=1e-12):
    a = np.asarray(a)
    scale = np.linalg.norm(a)
    return np.linalg.norm(a - a.conj().T) <= tol * max(scale, 1e-300)


def is_skew_hermitian(a, tol=1e-12):
    a = np.asarray(a)
    scale = np.linalg.norm(a)
    return np.linalg.norm(a + a.conj().T) <= tol * max(scale, 1e-300)


def is_unitary(a, tol=1e-12):
    a = np.asarray(a)
    return np.linalg.norm(a.conj().T @ a - np.eye(a.shape[0])) <= tol


def matrices_equal(a, b, tol=1e-12):
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
    return np.linalg.norm(a - b) <= tol * scale
