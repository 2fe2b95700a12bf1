"""Dense float64 linear-algebra and random-sampling substrate shared by all modules."""

from __future__ import annotations

import numpy as np

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
    keeps the symmetry sigmoid(x) + sigmoid(-x) == 1 to float64 roundoff. It
    is computed in one output buffer, without temporaries: ``out`` when
    given (``x`` itself is allowed), else a new array.
    """
    z = np.asarray(x, dtype=np.float64)
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
