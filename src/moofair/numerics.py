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


def dot(a, b) -> float:
    """Inner product of two equal-length vectors."""
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape != vb.shape:
        raise ValueError(f"length mismatch: {va.shape[0]} vs {vb.shape[0]}")
    return float(va @ vb)


def sigmoid(x):
    """Numerically stable logistic function, elementwise.

    The half-tanh form 0.5*(1+tanh(x/2)) equals 1/(1+exp(-x)), never
    overflows (tanh saturates to +-1 on its own, infinities included), and
    keeps the symmetry sigmoid(x) + sigmoid(-x) == 1 to float64 roundoff. It
    is computed in one output buffer, without temporaries.
    """
    z = np.asarray(x, dtype=np.float64)
    out = np.multiply(z, 0.5, out=np.empty_like(z))
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    if out.ndim == 0:
        return float(out)
    return out


def softmax(logits) -> np.ndarray:
    """Probability vector exp(l_i) / sum_j exp(l_j), stabilized by max-subtraction."""
    l = as_vector(logits, "logits")
    shifted = l - np.max(l)
    e = np.exp(shifted)
    return e / np.sum(e)


def gumbel_from_uniform(u):
    """Map uniform draws on (0,1) to standard Gumbel noise -log(-log(u))."""
    u = np.clip(np.asarray(u, dtype=np.float64), UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    return -np.log(-np.log(u))


class SeededRng:
    """Deterministic random stream: identical seed (and spawn key) implies an
    identical sample sequence. Not shareable across concurrent workers; use
    ``derive`` to give each worker its own independent stream."""

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key))
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def derive(self, index: int) -> "SeededRng":
        """Independent child stream for worker/round ``index``."""
        return SeededRng(self.seed, self.spawn_key + (int(index),))

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, spawn_key={self.spawn_key})"


def sample_gumbel(rng: SeededRng | np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` standard Gumbel samples from the given stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = rng.generator if isinstance(rng, SeededRng) else rng
    u = gen.uniform(0.0, 1.0, size=n)
    return gumbel_from_uniform(u)
