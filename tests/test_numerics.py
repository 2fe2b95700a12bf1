import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moofair import numerics
from moofair.model import FactorModel
from moofair.numerics import (
    one_blas_thread,
    run_starts,
    sample_gumbel,
    sigmoid,
    sorted_distinct,
)
from moofair.objectives import CandidateContext, _producer_forward
from moofair.training import TrainConfig
from moofair.solver import gram_matrix
from moofair.training import _round_streams, _shared_eval_stream

EULER_MASCHERONI = 0.5772156649015329


class TestDot:
    """Inner products as the solver takes them: entries of ``gram_matrix``."""

    def test_basic(self):
        assert gram_matrix([[1, 0, 2], [3, 1, 1]])[0, 1] == 5.0

    def test_zero_vector(self):
        assert gram_matrix([[0, 0], [5, 7]])[0, 1] == 0.0

    def test_self_dot_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 20))
            assert gram_matrix([v])[0, 0] >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gram_matrix([[1, 2], [1, 2, 3]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            gram_matrix([[np.nan, 1.0], [1.0, 1.0]])

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            a, b, c = rng.normal(size=(3, n))
            s, t = rng.normal(size=2)
            m = gram_matrix([a, b, c, s * a + t * b])
            assert np.array_equal(m, m.T)
            assert m[0, 1] == pytest.approx(float(a @ b), rel=1e-12)
            assert m[3, 2] == pytest.approx(
                s * m[0, 2] + t * m[1, 2], rel=1e-9, abs=1e-12
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


class TestSigmoidFloat32:
    """float32 input stays float32: the pair chains of ``objectives``."""

    def test_returns_float32(self):
        x = np.linspace(-5.0, 5.0, 11, dtype=np.float32)
        assert sigmoid(x).dtype == np.float32
        out = np.empty_like(x)
        assert sigmoid(x, out=out) is out
        assert sigmoid(x.astype(np.float16)).dtype == np.float64

    def test_extremes_saturate_exactly_without_warnings(self):
        x = np.array([np.inf, 1e4, -1e4, -np.inf], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = sigmoid(x)
        assert y.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_symmetry_to_float32_roundoff(self):
        x = np.random.default_rng(3).uniform(-40.0, 40.0, 100000).astype(np.float32)
        total = sigmoid(x).astype(np.float64) + sigmoid(-x)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=np.finfo(np.float32).eps)

    def test_matches_float64_to_float32_roundoff(self):
        x = np.linspace(-30.0, 30.0, 60001).astype(np.float32)
        np.testing.assert_allclose(sigmoid(x), sigmoid(x.astype(np.float64)), rtol=0,
                                   atol=np.finfo(np.float32).eps)


class TestSoftmax:
    """Sampling probabilities of the producer forward (noise-free scores)."""

    @staticmethod
    def probs(scores):
        model = FactorModel(np.array([[1.0]]), np.asarray(scores)[:, None])
        n = len(scores)
        ctx = CandidateContext(np.array([0]), np.arange(n), np.array([n]), np.array([1]),
                               np.zeros(n))
        return _producer_forward(model, ctx, TrainConfig())[3][0]

    def test_uniform(self):
        np.testing.assert_allclose(self.probs([3.0, 3.0, 3.0]), 1.0 / 3.0)

    def test_large_logits_stable(self):
        p = self.probs([1000.0, 999.0])
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


class FixedUniform:
    """Stand-in stream whose uniform draws are the given values."""

    def __init__(self, *values):
        self.values = np.asarray(values, dtype=np.float64)

    def uniform(self, low, high, size):
        return self.values[:size].copy()


class TestGumbel:
    def test_transform_fixed_point(self):
        # u = 1/e maps to exactly -log(-log(1/e)) = -log(1) = 0
        assert sample_gumbel(FixedUniform(1.0 / np.e), 1)[0] == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_mean(self):
        draws = sample_gumbel(np.random.default_rng(42), 10**6)
        assert draws.mean() == pytest.approx(EULER_MASCHERONI, abs=0.01)

    def test_same_seed_bit_identical(self):
        a = sample_gumbel(np.random.default_rng(7), 1000)
        b = sample_gumbel(np.random.default_rng(7), 1000)
        assert np.array_equal(a, b)

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            sample_gumbel(np.random.default_rng(0), 0)

    def test_extreme_uniform_clamped(self):
        assert np.all(np.isfinite(sample_gumbel(FixedUniform(0.0, 1.0), 2)))


class TestSeededRng:
    """The seeded streams each training round derives from (seed, round)."""

    def test_derived_streams_differ(self):
        first = [g.uniform(size=5) for g in _round_streams(11, 0)]
        second = [g.uniform(size=5) for g in _round_streams(11, 1)]
        shared = _shared_eval_stream(11).uniform(size=5)
        draws = first + second + [shared]
        for a in range(len(draws)):
            for b in range(a + 1, len(draws)):
                assert not np.array_equal(draws[a], draws[b])

    def test_derived_streams_reproducible(self):
        a = [g.uniform(size=5) for g in _round_streams(11, 3)]
        b = [g.uniform(size=5) for g in _round_streams(11, 3)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert np.array_equal(_shared_eval_stream(11).uniform(size=5),
                              _shared_eval_stream(11).uniform(size=5))


# wide int64 codes: small ids with repeats and values near +-2**62
wide_codes = st.lists(st.one_of(st.integers(-5, 5), st.integers(2**62 - 3, 2**62 + 3),
                                st.integers(-2**62 - 3, -2**62 + 3)), max_size=40)


class TestSortedDistinct:
    @given(wide_codes)
    def test_equals_unique(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        got = sorted_distinct(codes)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.unique(codes))

    @given(wide_codes)
    def test_run_starts_are_first_positions(self, codes):
        ordered = np.sort(np.asarray(codes, dtype=np.int64))
        np.testing.assert_array_equal(run_starts(ordered),
                                      np.unique(ordered, return_index=True)[1])


class TestOneBlasThread:
    def test_one_thread_inside_restored_after(self, blas_threads):
        with one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restored_after_an_exception(self, blas_threads):
        with pytest.raises(ZeroDivisionError):
            with one_blas_thread():
                assert blas_threads() == 1
                1 / 0
        assert blas_threads() == 2

    def test_nests(self, blas_threads):
        with one_blas_thread():
            with one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_without_openblas_runs_the_block(self, monkeypatch):
        monkeypatch.setattr(numerics, "_blas_thread_controls", lambda: None)
        ran = []
        with one_blas_thread():
            ran.append(True)
        assert ran == [True]
