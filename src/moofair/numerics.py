"""Dense float64 linear algebra, a logistic function that keeps float32
input in float32, random sampling, integer sets and the BLAS thread count,
shared by all modules."""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np

try:
    from numpy._core import _multiarray_umath as _multiarray
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _multiarray

# Uniform draws feeding the Gumbel transform stay inside the open interval.
UNIFORM_EPS = 1e-12


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def sigmoid(x, out=None):
    """Numerically stable logistic function, elementwise.

    The half-tanh form 0.5*(1+tanh(x/2)) equals 1/(1+exp(-x)), never
    overflows (tanh saturates to +-1 on its own, infinities included), and
    keeps the symmetry sigmoid(x) + sigmoid(-x) == 1 to roundoff. float32
    input is computed and returned in float32 (the pair chains of
    ``objectives.py``), anything else in float64. Its absolute error is a few
    units of roundoff of that dtype, so far in the tails the relative error
    grows, and the result is exactly 0 below about -20 in float32 and -38 in
    float64. It is computed in one output buffer, without temporaries:
    ``out`` when given (``x`` itself is allowed), else a new array.
    """
    z = np.asarray(x)
    if z.dtype != np.float32:
        z = z.astype(np.float64, copy=False)
    out = np.multiply(z, 0.5, out=np.empty_like(z) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    if out.ndim == 0:
        return float(out)
    return out


def sample_gumbel(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` standard Gumbel samples -log(-log(u)), u uniform draws from the stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    u = np.clip(rng.uniform(0.0, 1.0, size=n), UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    return -np.log(-np.log(u))


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions in a sorted 1-D array where a new value starts."""
    first = np.empty(ordered.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return np.flatnonzero(first)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array by one sort and a neighbour mask.

    numpy 2 takes a hash path in ``np.unique`` for integers, which on wide ids
    (pair codes, raw MovieLens ids) is many times slower than sorting.
    """
    ordered = np.sort(values)
    return ordered[run_starts(ordered)]


@functools.cache
def _blas_thread_controls():
    """(get, set) of the thread count of numpy's OpenBLAS, or None.

    numpy links OpenBLAS into its core extension, and dlsym on that library's
    handle also searches its dependencies; the scipy-openblas wheels export
    the suffixed names, system builds the plain ones.
    """
    try:
        lib = ctypes.CDLL(_multiarray.__file__)
    except OSError:
        return None
    for get_name, set_name in (("scipy_openblas_get_num_threads64_",
                                "scipy_openblas_set_num_threads64_"),
                               ("openblas_get_num_threads", "openblas_set_num_threads")):
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.restype, set_.argtypes = ctypes.c_int, (ctypes.c_int,)
            return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    A multithreaded OpenBLAS call leaves its workers spinning for a while
    after it returns, holding the other cores; code that runs its own threads
    beside BLAS calls needs them released. The count changes only how BLAS
    splits its reductions, so results agree to roundoff. Without a
    recognised OpenBLAS the block runs as it is.
    """
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)
