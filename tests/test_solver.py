import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dominates, two_objective_alpha
from moofair.solver import (
    SimplexWeights,
    SolutionRecord,
    frank_wolfe_solve,
    gram_matrix,
    least_misery_select,
)


def simplex_grid_min(m: np.ndarray, step: float = 1e-3) -> float:
    """Brute-force minimum of a^T M a over a grid on the simplex."""
    t = m.shape[0]
    if t == 1:
        return float(m[0, 0])
    ticks = int(round(1.0 / step))
    if t == 2:
        a = np.linspace(0.0, 1.0, ticks + 1)
        alphas = np.stack([a, 1.0 - a], axis=1)
    elif t == 3:
        pts = []
        for i in range(ticks + 1):
            for j in range(ticks + 1 - i):
                pts.append((i, j, ticks - i - j))
        alphas = np.asarray(pts, dtype=np.float64) / ticks
    else:
        raise NotImplementedError
    vals = np.einsum("ni,ij,nj->n", alphas, m, alphas)
    return float(vals.min())


def random_gram(rng, t, dim):
    g = rng.normal(size=(t, dim))
    return gram_matrix(g), g


class TestTwoObjectiveAlpha:
    def test_orthonormal(self):
        assert two_objective_alpha([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)

    def test_identical_gradients(self):
        assert two_objective_alpha([2.0, 3.0], [2.0, 3.0]) == 0.5

    def test_both_zero_degenerate(self):
        assert two_objective_alpha([0.0, 0.0], [0.0, 0.0]) == 0.5

    def test_unequal_norms(self):
        alpha = two_objective_alpha([2.0, 0.0], [0.0, 1.0])
        assert alpha == pytest.approx(0.2)
        point = alpha * np.array([2.0, 0.0]) + (1 - alpha) * np.array([0.0, 1.0])
        np.testing.assert_allclose(point, [0.4, 0.8])
        # min-norm point is orthogonal to the segment direction
        assert point @ (np.array([2.0, 0.0]) - np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            g1, g2 = rng.normal(size=(2, 6))
            alpha = two_objective_alpha(g1, g2)
            grid = np.linspace(0.0, 1.0, 10001)
            vals = [np.sum((a * g1 + (1 - a) * g2) ** 2) for a in grid]
            best = grid[int(np.argmin(vals))]
            got = np.sum((alpha * g1 + (1 - alpha) * g2) ** 2)
            assert got <= min(vals) + 1e-8
            assert abs(alpha - best) <= 2e-4 or got == pytest.approx(min(vals), abs=1e-8)


class TestFrankWolfe:
    def test_identity_two_objectives(self):
        weights = frank_wolfe_solve(np.eye(2))
        np.testing.assert_allclose(weights.values, [0.5, 0.5])
        m = np.eye(2)
        assert weights.values @ m @ weights.values == pytest.approx(0.5)

    def test_opposite_gradients_reach_zero(self):
        c = 3.7
        m = np.array([[c, -c], [-c, c]])
        weights = frank_wolfe_solve(m)
        assert weights.values @ m @ weights.values == pytest.approx(0.0, abs=1e-12)

    def test_single_objective(self):
        weights = frank_wolfe_solve(np.array([[4.0]]))
        np.testing.assert_array_equal(weights.values, [1.0])

    def test_matches_grid_oracle_t3(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m, _ = random_gram(rng, 3, 8)
            weights = frank_wolfe_solve(m)
            achieved = float(weights.values @ m @ weights.values)
            oracle = simplex_grid_min(m, step=1e-3)
            assert achieved <= oracle + 1e-12

    def test_agrees_with_closed_form_t2(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g1, g2 = rng.normal(size=(2, 7))
            m = gram_matrix([g1, g2])
            weights = frank_wolfe_solve(m)
            alpha = two_objective_alpha(g1, g2)
            value = float(weights.values @ m @ weights.values)
            cf = alpha * g1 + (1 - alpha) * g2
            assert value == pytest.approx(float(cf @ cf), rel=1e-12, abs=1e-12)

    def test_simplex_invariants_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m, _ = random_gram(rng, int(rng.integers(2, 6)), 12)
            weights = frank_wolfe_solve(m)
            assert np.all(weights.values >= 0.0)
            assert weights.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_common_descent_at_optimum(self):
        # where the min-norm point is nonzero, the combined direction has an
        # inner product of at least its squared norm with every gradient, so
        # it is a common descent direction
        rng = np.random.default_rng(15)
        for _ in range(30):
            m, _ = random_gram(rng, 3, 25)
            a = frank_wolfe_solve(m).values
            value = float(a @ m @ a)
            if value <= 1e-10:
                continue
            combined = m @ a
            assert np.all(combined >= value - 1e-12 * np.abs(m).max())
            assert np.any(combined > 0)

    def test_common_descent_exact_for_two_objectives(self):
        # the KKT equality holds to roundoff on the active components
        rng = np.random.default_rng(19)
        for _ in range(50):
            m, _ = random_gram(rng, 2, 25)
            a = frank_wolfe_solve(m).values
            value = float(a @ m @ a)
            if value <= 1e-10:
                continue
            combined = m @ a
            active = a > 1e-9
            np.testing.assert_allclose(combined[active], value, rtol=0,
                                       atol=1e-12 * np.abs(m).max())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            frank_wolfe_solve(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@st.composite
def gradient_sets(draw, min_t=1, max_t=5):
    """t gradients of 1 to 8 coordinates in [-100, 100]. Each row after the
    first is its own draw or a multiple (0, 1, -1 or 1/2) of an earlier row,
    so zero, duplicate and parallel gradients and rank-deficient Gram
    matrices all occur."""
    t, dim = draw(st.integers(min_t, max_t)), draw(st.integers(1, 8))
    g = draw(arrays(np.float64, (t, dim),
                    elements=st.floats(-100.0, 100.0, allow_subnormal=False))).copy()
    for i in range(1, t):
        source = draw(st.integers(-1, i - 1))  # -1 keeps the row's own draw
        if source >= 0:
            g[i] = draw(st.sampled_from([0.0, 1.0, -1.0, 0.5])) * g[source]
    return g


class TestFrankWolfeProperties:
    """The exact solver on Gram matrices of random, often degenerate,
    gradients."""

    @settings(max_examples=300, deadline=None)
    @given(gradient_sets())
    def test_kkt_conditions(self, gradients):
        # KKT of min a^T M a on the simplex: (M a)_i >= a^T M a for every i,
        # with equality where a_i > 0; both hold to 1e-12 of the largest
        # eigenvalue (floored at 1e-300: smaller Gram entries are subnormal
        # and have no relative precision left)
        m = gram_matrix(gradients)
        a = frank_wolfe_solve(m).values
        value = float(a @ m @ a)
        combined = m @ a
        tol = 1e-12 * max(float(np.linalg.eigvalsh(m).max()), 1e-300)
        assert np.all(a >= 0.0) and a.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(combined >= value - tol)
        assert np.all(np.abs(a * (combined - value)) <= tol)

    @settings(max_examples=200, deadline=None)
    @given(gradient_sets(2, 2))
    def test_two_objectives_match_closed_form(self, gradients):
        g1, g2 = gradients
        m = gram_matrix(gradients)
        a = frank_wolfe_solve(m).values
        alpha = two_objective_alpha(g1, g2)
        point = alpha * g1 + (1.0 - alpha) * g2
        scale = max(1.0, float(np.abs(m).max()))
        assert float(a @ m @ a) == pytest.approx(float(point @ point), abs=1e-12 * scale)
        # rounding in the objective (~1e-16 * scale) moves the minimizer of a
        # parabola of curvature |g1 - g2|^2 by up to sqrt(1e-16 * scale / curvature)
        curvature = float((g1 - g2) @ (g1 - g2))
        if curvature > 0.0:
            assert a[0] == pytest.approx(alpha, abs=1e-7 * np.sqrt(scale / curvature))


class TestDominates:
    def test_basic(self):
        assert dominates([1.0, 2.0], [2.0, 3.0])

    def test_identical_not_dominating(self):
        assert not dominates([1.0, 2.0], [1.0, 2.0])

    def test_incomparable(self):
        assert not dominates([1.0, 3.0], [2.0, 2.0])
        assert not dominates([2.0, 2.0], [1.0, 3.0])

    def test_irreflexive_and_transitive(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            a, b, c = rng.integers(0, 4, size=(3, 3)).astype(float)
            assert not dominates(a, a)
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestSimplexWeights:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([-0.1, 1.1]))
        # no tolerance below zero: a negative weight would step an objective up
        with pytest.raises(ValueError, match="nonnegative"):
            SimplexWeights(np.array([1.0000000005, -5e-10]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.3, 0.3]))


class TestLeastMisery:
    def test_balanced_record_wins(self):
        records = [
            SolutionRecord(1, np.array([0.2, 0.9])),
            SolutionRecord(2, np.array([0.5, 0.5])),
            SolutionRecord(3, np.array([0.8, 0.3])),
        ]
        # normalization is by round 1, so worst values are max(1, 1.29),
        # max(2.5, 0.56), max(4, 0.33): round 1 wins here
        assert least_misery_select(records).round_id == 1

    def test_balanced_record_wins_on_common_scale(self):
        # with a unit round-1 baseline the raw vectors are compared directly
        records = [
            SolutionRecord(1, np.array([1.0, 1.0])),
            SolutionRecord(2, np.array([0.2, 0.9])),
            SolutionRecord(3, np.array([0.5, 0.5])),
            SolutionRecord(4, np.array([0.8, 0.3])),
        ]
        assert least_misery_select(records).round_id == 3

    def test_single_record(self):
        rec = SolutionRecord(5, np.array([1.0]))
        assert least_misery_select([rec]) is rec

    def test_dominating_record_selected(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            values = rng.uniform(0.1, 1.0, size=(4, 3))
            winner = rng.integers(0, 4)
            values[winner] = values.min(axis=0) * 0.5
            records = [SolutionRecord(i + 1, v) for i, v in enumerate(values)]
            assert all(
                dominates(values[winner], v)
                for i, v in enumerate(values) if i != winner
            )
            assert least_misery_select(records).round_id == winner + 1

    def test_empty_input(self):
        with pytest.raises(ValueError):
            least_misery_select([])

    def test_unmeasured_value_takes_no_part(self):
        # a NaN (unmeasured) objective is not read as perfect parity: each
        # round's worst is over its measured values only
        records = [
            SolutionRecord(1, np.array([1.0, np.nan, 1.0])),
            SolutionRecord(2, np.array([0.9, np.nan, 1.2])),
            SolutionRecord(3, np.array([1.1, np.nan, 0.95])),
        ]
        assert least_misery_select(records).round_id == 1

    def test_nan_accepted_and_infinite_rejected(self):
        assert np.isnan(SolutionRecord(1, [0.5, np.nan]).objective_values[1])
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                SolutionRecord(1, [0.5, bad])
        with pytest.raises(ValueError, match="1-D"):
            SolutionRecord(1, [[0.5]])

    def test_tie_broken_by_earliest_round(self):
        records = [
            SolutionRecord(1, np.array([1.0, 1.0])),
            SolutionRecord(2, np.array([1.0, 1.0])),
        ]
        assert least_misery_select(records).round_id == 1
