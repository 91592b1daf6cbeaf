"""The number-basis kernels, reached as ``_backend.kernels``.

``optics`` calls the kernels through this module attribute, so a tracer
or a test can rebind them in one place.
"""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel implementation in use."""
    return kernels.BACKEND
