"""Run a block of work with every bundled OpenBLAS pool at one thread.

The numpy and scipy wheels each ship their own OpenBLAS with its own
thread pool. At preset size the pipeline's dense kernels are small
(SVDs of 128 x 256, a few hundred right-hand sides) and gain nothing
from threads; they grow with the mesh (A_hat is 1,024 x 256 on a
512x512-cell fine mesh). Idle workers of one pool keep the CPU busy and
slow the other pool and the main thread. The pipeline's parallelism is
at the level of whole stages instead: a nested run_experiment
synthesizes its data on the calling thread while one worker thread
computes the SVDs, each thread calling BLAS at one thread of its own.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy

_SYMBOLS = (  # (getter, setter) as exported by the wheels' and by plain OpenBLAS
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def pools() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of each OpenBLAS in numpy.libs/scipy.libs."""
    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for get_name, set_name in _SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    found.append((get, set_))
                    break
    return tuple(found)


@contextmanager
def single_thread() -> Iterator[None]:
    """Set every pool to 1 thread, restoring each pool's own count on exit."""
    previous = [(set_, get()) for get, set_ in pools()]
    try:
        for set_, _ in previous:
            set_(1)
        yield
    finally:
        for set_, count in previous:
            set_(count)
