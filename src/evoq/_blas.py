"""Run a function on one BLAS thread.

The dense control algebra (SVDs and products of a few hundred to a few
thousand rows) is faster on one OpenBLAS thread than on two, and its bits
then no longer depend on the thread count.  `one_blas_thread` sets the
OpenBLAS that `numpy.linalg` loaded to one thread for the duration of a call
and restores the caller's count afterwards, also on an exception.

The library is looked up on first use, not at import, and only inside
numpy's own install (the wheel's `numpy.libs`, or `numpy/.libs`), attaching
to an already loaded copy only.  Without an OpenBLAS setter there (MKL,
Accelerate, another BLAS) the wrapped function runs unchanged.  The count is
process-wide, so concurrent callers in other threads see it too.
"""

from __future__ import annotations

import functools
import glob
import os

import numpy as np

# Symbol names of the thread-count getter and setter: numpy 2 wheels bundle
# scipy-openblas, numpy 1.x wheels a plain OpenBLAS, each with 64-bit
# ("64_") or 32-bit integers.
_SYMBOLS = tuple((f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                 for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


@functools.cache
def blas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None;
    looked up on first use."""
    import ctypes

    root = os.path.dirname(np.__file__)
    paths = sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                   + glob.glob(os.path.join(root, ".libs", "*openblas*")))
    mode = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_LAZY", 0)
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=mode)
        except OSError:  # not loaded by this process
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def one_blas_thread(fn):
    """Decorate `fn` to run on one OpenBLAS thread (see the module docstring)."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        threads = blas_threads()
        before = threads[0]() if threads else 1
        if before == 1:
            return fn(*args, **kwargs)
        threads[1](1)
        try:
            return fn(*args, **kwargs)
        finally:
            threads[1](before)

    return pinned
