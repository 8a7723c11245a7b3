import ctypes
import glob
import os
from datetime import timedelta

from hypothesis import settings

settings.register_profile(
    "default", max_examples=50, deadline=timedelta(seconds=30))
settings.load_profile("default")

# OpenBLAS kernels add a GEMM's products in different orders, so a pinned
# model or report digest holds under the kernel it was taken on
PINNED_KERNEL = "SkylakeX"


def openblas() -> str:
    """The kernel and thread count of numpy's bundled OpenBLAS, each
    "unknown" where that library or its symbol is missing."""
    # loading numpy starts OpenBLAS under the environment's thread count,
    # as every test module does before it imports hmil.cli
    import numpy as np

    found = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                   "numpy.libs", "libscipy_openblas64_*"))
    lib = ctypes.CDLL(found[0]) if found else None
    kernel = threads = "unknown"
    if hasattr(lib, "scipy_openblas_get_corename64_"):
        get = lib.scipy_openblas_get_corename64_
        get.argtypes, get.restype = [], ctypes.c_char_p
        kernel = get().decode()
    if hasattr(lib, "scipy_openblas_get_num_threads64_"):
        get = lib.scipy_openblas_get_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        threads = get()
    return f"OpenBLAS kernel {kernel}, {threads} threads"


def pytest_report_header(config):
    return openblas()


def kernel_note() -> str:
    """The failure message of an assertion on a pinned digest."""
    return (f"digest pinned under OpenBLAS kernel {PINNED_KERNEL}; "
            f"this run: {openblas()}")
