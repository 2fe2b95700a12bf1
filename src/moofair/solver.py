"""Pareto machinery for multi-objective gradient descent.

The per-step objective weights are the coordinates of the minimum-norm point
in the convex hull of the objective gradients, solved exactly from the KKT
systems of every support. Everything here works in Gram form: the solver only
ever sees the t x t matrix of gradient inner products, never the gradients
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, as_vector

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class SimplexWeights:
    """Objective scaling coefficients: nonnegative, summing to one."""

    values: np.ndarray

    def __post_init__(self):
        v = as_vector(self.values, "weights")
        if v.shape[0] < 1:
            raise ValueError("weights must have at least one entry")
        if np.any(v < 0.0):
            raise ValueError(f"weights must be nonnegative, got {v}")
        if abs(float(v.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1, got sum {v.sum()!r}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SolutionRecord:
    """Final objective values of one training round."""

    round_id: int
    objective_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "objective_values", as_vector(self.objective_values, "objective_values")
        )


def gram_matrix(gradients) -> np.ndarray:
    """Pairwise inner products of the rows of a (t x P) gradient matrix; numpy
    runs ``g @ g.T`` as a symmetric rank-k update, so it is exactly symmetric."""
    g = as_matrix(gradients, "gradients")
    return g @ g.T


def frank_wolfe_solve(M) -> SimplexWeights:
    """Minimize alpha^T M alpha over the probability simplex, exactly.

    M = G G^T is the Gram matrix of the stacked (t x P) objective gradients G,
    so the optimum is the squared norm of the min-norm point alpha^T G of
    their convex hull. An optimum of smallest support S uniquely solves the
    KKT system M_SS a = lambda 1, sum(a) = 1, so the systems of all 2^t - 1
    supports are solved in one batched pseudo-inverse (which also takes the
    singular ones of rank-deficient or duplicate gradients), each block
    divided by its largest entry. Each solution, clipped to the simplex, is a
    candidate; the one of least duality gap a^T M a - min_i (M a)_i wins.
    The gap is never negative on the simplex and is zero exactly at the
    optimum of this convex problem, so no tolerance decides which systems
    count as solved. The cost grows as 2^t; training has at most five
    objectives.

    The name predates this exact solve: the benchmark wraps the solver by
    this name, so renaming it waits for a benchmark change.
    """
    m = as_matrix(M, "M")
    t = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"M must be square, got shape {m.shape}")
    if not np.allclose(m, m.T, atol=1e-9 * max(1.0, float(np.abs(m).max()))):
        raise ValueError("M must be symmetric")

    on = ((np.arange(1, 2 ** t)[:, None] >> np.arange(t)) & 1).astype(bool)
    block = np.where(on[:, :, None] & on[:, None, :], m, 0.0)
    scale = np.abs(block).max(axis=(1, 2))
    block /= np.where(scale > 0.0, scale, 1.0)[:, None, None]
    kkt = np.zeros((on.shape[0], t + 1, t + 1))
    kkt[:, :t, :t] = block + np.eye(t) * ~on[:, :, None]  # a_i = 0 off the support
    kkt[:, :t, t] = -1.0 * on
    kkt[:, t, :t] = on
    a = np.clip((np.linalg.pinv(kkt) @ np.eye(t + 1)[t])[:, :t], 0.0, None)
    a = a[a.sum(axis=1) > 0.0]  # the singletons always remain
    a /= a.sum(axis=1, keepdims=True)
    combined = a @ m
    gap = np.einsum("ni,ni->n", a, combined) - combined.min(axis=1)
    return SimplexWeights(a[np.argmin(gap)])


def least_misery_select(records) -> SolutionRecord:
    """Pick the round whose worst normalized objective is least bad.

    Objective values are first divided by their round-one values (raw
    magnitudes differ by orders of magnitude across objectives, so the
    max would otherwise be dominated by whichever objective is largest).
    Ties go to the earliest round.
    """
    records = list(records)
    if not records:
        raise ValueError("at least one record is required")
    baseline = records[0].objective_values
    denom = np.where(np.abs(baseline) > 1e-12, np.abs(baseline), 1.0)
    return min(records, key=lambda rec: (float(np.max(rec.objective_values / denom)),
                                         rec.round_id))
