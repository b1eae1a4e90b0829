"""Backend dispatch tests: the compiled fast path and its NumPy fallback must
be interchangeable, and the compiled one is used whenever it imports."""

import numpy as np
import pytest

import devfactor._kernels as kernels
from devfactor._kernels import (
    KIND_AXIAL_COMPONENT,
    KIND_INV_SQUARE,
    KIND_ONE,
    _ball4_py,
)
from devfactor.quadrature import (
    ball4_integrate,
    chebyshev_pair,
    shifted_denominator_integrand,
)


def _compiled():
    return pytest.importorskip("devfactor._kernels._ball4")


def test_backend_inventory():
    assert kernels.BACKEND in ("numpy", "compiled")
    assert (kernels.reduce_axial is _ball4_py.reduce_axial) == (
        kernels.BACKEND == "numpy")
    assert len({KIND_ONE, KIND_INV_SQUARE, KIND_AXIAL_COMPONENT}) == 3


def test_numpy_backend_rejects_unknown_kind():
    x, wf, wc = chebyshev_pair(3)
    with pytest.raises(ValueError):
        _ball4_py.reduce_axial(99, 1.0, 1.0, np.array([1.0]), x, wf, wc)


@pytest.mark.parametrize("kind", [KIND_ONE, KIND_INV_SQUARE,
                                  KIND_AXIAL_COMPONENT])
def test_backends_agree(kind):
    compiled = _compiled()
    x, wf, wc = chebyshev_pair(6)
    r = np.geomspace(0.1, 8.0, 17)
    p, ell = 0.7, 0.3
    f_py, c_py, bad_py = _ball4_py.reduce_axial(kind, p, ell, r, x, wf, wc)
    f_c, c_c, bad_c = compiled.reduce_axial(kind, p, ell, r, x, wf, wc)
    assert bad_py is None and bad_c is None
    assert np.allclose(f_c, f_py, rtol=1e-12, atol=0)
    assert np.allclose(c_c, c_py, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["numpy", "compiled"])
def test_nonfinite_location_reported(name):
    impl = _ball4_py if name == "numpy" else _compiled()
    # denominator r^2 - 2 p r x + ell vanishes at r = 1, x = 0.5 for p = 1,
    # ell = 0
    x = np.array([0.2, 0.5, 0.8])
    wf = np.ones(3)
    wc = np.ones(3)
    r = np.array([0.7, 1.0])
    fine, coarse, bad = impl.reduce_axial(KIND_INV_SQUARE, 1.0, 0.0, r, x, wf, wc)
    assert fine is None and coarse is None
    assert bad == (1.0, 0.5)


def test_ball4_uses_kernel_for_builtin(monkeypatch):
    calls = {"n": 0}
    real = kernels.reduce_axial

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "reduce_axial", counting)
    p = np.array([0.3, 0.0, 0.0, 0.0])
    res = ball4_integrate(shifted_denominator_integrand(p, 1.0), 10.0, tol=1e-8)
    assert res.converged
    assert calls["n"] > 0

    calls["n"] = 0
    res = ball4_integrate(lambda pts: np.exp(-np.sum(pts ** 2, axis=1)),
                          3.0, tol=1e-8)
    assert res.converged
    assert calls["n"] == 0  # generic callables take the product-rule path
