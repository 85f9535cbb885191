"""One BLAS thread inside the toolkit's own train and predict calls.

The encoder's matrix products are small: at most a few thousand rows by 64 to
256 columns. OpenBLAS still splits each of them across all of its threads, and
a split product waits for its slowest thread. On a machine whose cores also
run other work, that made the same ``predict()`` call take anywhere from its
idle time to twice it. With one thread it holds steady: on 2 vCPUs with one
core kept busy by another process, 30 repeated ``predict()`` calls on 64
essays of 64 tokens took 153-325 ms with OpenBLAS's two threads and 147-167
ms with one. On an idle machine one thread was about 10% slower there.

:func:`single_thread` lowers numpy's OpenBLAS to one thread for the span of a
call and restores the caller's count afterwards. Thread counts do not change
results: OpenBLAS splits a product by output blocks, never along the summed
axis. Where numpy uses another BLAS, or the count cannot be read, nothing is
changed. The count is process-wide: a call that overlaps another one in a
second Python thread may run part of its work on the restored count, which
changes its speed but not its results.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

# (getter, setter) pairs; OpenBLAS exports them under a build-specific name.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_controls():
    """numpy's OpenBLAS (get, set) thread-count functions, or None."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        # A symbol lookup through the extension module's handle also searches
        # the libraries it links, numpy's BLAS among them.
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        getter = getattr(lib, get_name, None)
        setter = getattr(lib, set_name, None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


def threads() -> int | None:
    """numpy's current OpenBLAS thread count, or None where it cannot be read."""
    controls = _openblas_controls()
    return None if controls is None else int(controls[0]())


@contextlib.contextmanager
def single_thread():
    """Run the block, or the decorated function, with one OpenBLAS thread."""
    before = threads()
    if before is None or before <= 1:
        yield
        return
    set_threads = _openblas_controls()[1]
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
