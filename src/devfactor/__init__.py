"""Deviation-factor regularization toolkit.

Spectral data of the free Dirac operator, adaptive quadrature over 4-ball
momentum cutoffs, least-squares extraction of divergence signatures, the
algebra of unimodular/unitary deviation factors that absorb admissible
divergences, partial-wave Coulomb kernels with their infrared phases, and
three worked one-loop amplitude examples.
"""

from . import coulomb, dirac, expansions, fitting, qed, quadrature

__version__ = "0.1.0"

# The angular kernels are pure NumPy.  The constant stays because the
# benchmark records it in each run's environment.
KERNEL_BACKEND = "numpy"

__all__ = [
    "coulomb",
    "dirac",
    "expansions",
    "fitting",
    "qed",
    "quadrature",
    "KERNEL_BACKEND",
    "__version__",
]
