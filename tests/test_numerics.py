import numpy as np
import pytest

from moofair.numerics import (
    SeededRng,
    dot,
    gumbel_from_uniform,
    sample_gumbel,
    sigmoid,
    softmax,
)

EULER_MASCHERONI = 0.5772156649015329


class TestDot:
    def test_basic(self):
        assert dot([1, 0, 2], [3, 1, 1]) == 5.0

    def test_zero_vector(self):
        assert dot([0, 0], [5, 7]) == 0.0

    def test_self_dot_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 20))
            assert dot(v, v) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            dot([1, 2], [1, 2, 3])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            dot([np.nan, 1.0], [1.0, 1.0])

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            a, b, c = rng.normal(size=(3, n))
            s, t = rng.normal(size=2)
            assert dot(a, b) == pytest.approx(dot(b, a), rel=1e-12)
            assert dot(s * a + t * b, c) == pytest.approx(
                s * dot(a, c) + t * dot(b, c), rel=1e-9, abs=1e-12
            )


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_value(self):
        assert sigmoid(1.0) == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-200, 200, size=10000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_bitwise_equal_to_clamped_half_tanh(self):
        x = np.concatenate([np.linspace(-1e3, 1e3, 200001),
                            [np.inf, -np.inf, 600.0, -600.0]])
        reference = 0.5 * (1.0 + np.tanh(0.5 * np.clip(x, -500.0, 500.0)))
        assert np.array_equal(sigmoid(x), reference)
        for scalar in (0.25, np.float64(-3.0), np.array(7.0)):
            assert type(sigmoid(scalar)) is float

    def test_extreme_inputs_saturate_cleanly(self):
        assert sigmoid(1e308) == 1.0
        assert sigmoid(-1e308) == 0.0
        assert np.isfinite(sigmoid(np.array([-1e308, 1e308]))).all()


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([3.0, 3.0, 3.0]), 1.0 / 3.0)

    def test_large_logits_stable(self):
        p = softmax([1000.0, 999.0])
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestGumbel:
    def test_transform_fixed_point(self):
        # u = 1/e maps to exactly -log(-log(1/e)) = -log(1) = 0
        assert gumbel_from_uniform(1.0 / np.e) == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_mean(self):
        draws = sample_gumbel(SeededRng(42), 10**6)
        assert draws.mean() == pytest.approx(EULER_MASCHERONI, abs=0.01)

    def test_same_seed_bit_identical(self):
        a = sample_gumbel(SeededRng(7), 1000)
        b = sample_gumbel(SeededRng(7), 1000)
        assert np.array_equal(a, b)

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            sample_gumbel(SeededRng(0), 0)

    def test_extreme_uniform_clamped(self):
        assert np.isfinite(gumbel_from_uniform(0.0))
        assert np.isfinite(gumbel_from_uniform(1.0))


class TestSeededRng:
    def test_derived_streams_differ(self):
        base = SeededRng(11)
        a = base.derive(0).generator.uniform(size=5)
        b = base.derive(1).generator.uniform(size=5)
        assert not np.array_equal(a, b)

    def test_derived_streams_reproducible(self):
        a = SeededRng(11).derive(3).generator.uniform(size=5)
        b = SeededRng(11).derive(3).generator.uniform(size=5)
        assert np.array_equal(a, b)
