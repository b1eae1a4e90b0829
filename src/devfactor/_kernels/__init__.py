"""Backend selection for the quadrature fast-path kernels.

The compiled extension is used when it imports; otherwise the NumPy fallback,
which implements the identical function surface.  BACKEND names the choice.
"""

from . import _ball4_py

try:
    from . import _ball4 as _impl
    BACKEND = "compiled"
except ImportError:
    _impl = _ball4_py
    BACKEND = "numpy"

KIND_ONE = _ball4_py.KIND_ONE
KIND_INV_SQUARE = _ball4_py.KIND_INV_SQUARE
KIND_AXIAL_COMPONENT = _ball4_py.KIND_AXIAL_COMPONENT

reduce_axial = _impl.reduce_axial
