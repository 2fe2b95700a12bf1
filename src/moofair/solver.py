"""Pareto machinery for multi-objective gradient descent.

The per-step objective weights are the coordinates of the minimum-norm point
in the convex hull of the objective gradients, found by Frank-Wolfe iteration
on the simplex. Everything here works in Gram form: the solver only ever sees
the t x t matrix of gradient inner products, never the gradients themselves.
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
        if np.any(v < -SIMPLEX_TOL):
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


def frank_wolfe_solve(M, max_iters: int = 100, tol: float = 1e-6) -> SimplexWeights:
    """Minimize alpha^T M alpha over the probability simplex.

    M = G G^T is the Gram matrix of the stacked (t x P) objective gradients G,
    so the optimum is the squared norm of the min-norm point alpha^T G of
    their convex hull. From uniform weights, each iteration moves toward the
    vertex with the smallest combined inner product by a closed-form line
    search; a convex combination of simplex points, alpha needs no projection.
    """
    m = as_matrix(M, "M")
    t = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"M must be square, got shape {m.shape}")
    if not np.allclose(m, m.T, atol=1e-9 * max(1.0, float(np.abs(m).max()))):
        raise ValueError("M must be symmetric")

    alpha = np.full(t, 1.0 / t)
    if t > 1:
        for _ in range(max_iters):
            combined = m @ alpha
            target = int(np.argmin(combined))
            direction = alpha.copy()
            direction[target] -= 1.0  # alpha - e_target
            num = float(direction @ combined)
            denom = float(direction @ m @ direction)
            if denom <= 0.0:
                break
            w_star = min(1.0, max(0.0, num / denom))
            new_alpha = (1.0 - w_star) * alpha
            new_alpha[target] += w_star
            step_change = w_star * float(np.abs(new_alpha - alpha).sum())
            alpha = new_alpha
            if step_change < tol:
                break
    return SimplexWeights(alpha)


def pareto_stationary(M, alpha: SimplexWeights, tol: float) -> bool:
    """True iff the weighted gradient combination has (near-)zero norm.

    alpha^T M alpha equals ||sum_i alpha_i g_i||^2, so a value below ``tol``
    together with valid simplex weights certifies a stationary point.
    """
    m = as_matrix(M, "M")
    a = alpha.values if isinstance(alpha, SimplexWeights) else as_vector(alpha, "alpha")
    if a.shape[0] != m.shape[0]:
        raise ValueError(f"alpha length {a.shape[0]} does not match M size {m.shape[0]}")
    if np.any(a < -SIMPLEX_TOL) or abs(float(a.sum()) - 1.0) > SIMPLEX_TOL:
        return False
    return float(a @ m @ a) <= tol


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
