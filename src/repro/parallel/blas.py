"""Thread count of the OpenBLAS library numpy loaded, read and set via ctypes.

numpy's wheels bundle OpenBLAS under ``numpy.libs``; its thread getter and
setter are looked up there by symbol name, so no extra package is needed.
A numpy built against another BLAS has neither: the getter then returns
None and there is no setter.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Callable, Optional

import numpy as np

__all__ = ["blas_threads", "blas_thread_setter"]


def _openblas_function(name: str):
    """``name``'s ctypes function in numpy's bundled OpenBLAS, or None.

    ``name`` is ``"get_num_threads"`` or ``"set_num_threads"``; the
    bundled library may export it with or without the ``scipy_`` prefix
    and the ILP64 ``64_`` suffix.
    """
    symbols = (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
               f"openblas_{name}")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            function = getattr(lib, symbol, None)
            if function is not None:
                return function
    return None


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or None where it is not found."""
    getter = _openblas_function("get_num_threads")
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    getter.argtypes = []
    return int(getter())


def blas_thread_setter() -> Optional[Callable[[int], None]]:
    """OpenBLAS's ``set_num_threads(count)``, or None where it is not found.

    The setter changes the thread count of the calling process only.
    """
    setter = _openblas_function("set_num_threads")
    if setter is None:
        return None
    setter.restype = None
    setter.argtypes = [ctypes.c_int]
    return setter
