"""Backend selection for the simplex pivot kernel.

The compiled extension is used exactly when it imports; the parity tests select
kernels through ``available_backends()``.
"""

from . import _simplex_py

STATUS_OPTIMAL = _simplex_py.STATUS_OPTIMAL
STATUS_UNBOUNDED = _simplex_py.STATUS_UNBOUNDED
STATUS_ITER_LIMIT = _simplex_py.STATUS_ITER_LIMIT

try:
    from . import _simplex_cy as _impl
    BACKEND = "cython"
except ImportError:
    _impl = _simplex_py
    BACKEND = "python"

run_simplex = _impl.run_simplex


def available_backends() -> dict:
    """Name -> kernel module, for cross-checks."""
    return {"python": _simplex_py, BACKEND: _impl}
