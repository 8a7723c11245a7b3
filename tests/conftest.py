import ctypes
import glob
import os
from datetime import timedelta

from hypothesis import settings

settings.register_profile(
    "default", max_examples=50, deadline=timedelta(seconds=30))
settings.load_profile("default")

# OpenBLAS kernels add a GEMM's products in different orders, so a pinned
# model or report digest holds under the kernel it was taken on; each is
# recorded under these, as the library names them, forced one at a time
# with OPENBLAS_CORETYPE on one x86 box (the Prescott kernel names itself
# Katmai)
PINNED_KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Katmai")


def _openblas_call(symbol: str, restype):
    """The result of numpy's bundled OpenBLAS function ``symbol``, or
    "unknown" where that library or its symbol is missing."""
    # loading numpy starts OpenBLAS under the environment's thread count,
    # as every test module does before it imports hmil.cli
    import numpy as np

    found = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                   "numpy.libs", "libscipy_openblas64_*"))
    lib = ctypes.CDLL(found[0]) if found else None
    if not hasattr(lib, symbol):
        return "unknown"
    function = getattr(lib, symbol)
    function.argtypes, function.restype = [], restype
    return function()


def kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs, or "unknown"."""
    name = _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return name if name == "unknown" else name.decode()


def openblas() -> str:
    """The kernel and thread count of numpy's bundled OpenBLAS, each
    "unknown" where that library or its symbol is missing."""
    threads = _openblas_call("scipy_openblas_get_num_threads64_",
                             ctypes.c_int)
    return f"OpenBLAS kernel {kernel()}, {threads} threads"


def pytest_report_header(config):
    return openblas()


def pinned(digests: dict):
    """The digest recorded in ``digests`` (kernel -> digest) under this
    run's OpenBLAS kernel, or None where none is."""
    return digests.get(kernel())


def kernel_note() -> str:
    """The failure message of an assertion on a pinned digest."""
    return (f"digests pinned under OpenBLAS kernels "
            f"{', '.join(PINNED_KERNELS)}; this run: {openblas()}")
