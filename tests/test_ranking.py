"""The smooth-ranking math of the training forwards.

Consumer side: ``_consumer_forward``'s 1-based sigmoid ranks of each user's
positives among its candidates, r_p = 0.5 + sum_j sigmoid(steepness (s_j - s_p))
(Qin, Liu & Li, IRJ 2010), and its smooth NDCG rows. Producer side:
``_producer_forward``'s sampling probabilities, 0-based temperature ranks
r_i = sum_{j != i} sigmoid(-(p_i - p_j) / temperature) and position-biased
exposure patience ** r_i (Singh & Joachims, KDD 2018).

Scores are set directly: one user with embedding 1 and one-dimensional item
embeddings equal to the wanted scores.
"""

import numpy as np
import pytest

from moofair import metrics
from moofair.metrics import RecommendationRun, top_k_items
from moofair.model import FactorModel
from moofair.numerics import sample_gumbel, sigmoid
from moofair.objectives import (
    _consumer_forward,
    _producer_forward,
    build_producer_context,
    exposure_disparity,
)
from moofair.training import TrainConfig
from conftest import flat_context


def one_row(n, positives, noise=None):
    """Context of one user whose candidates are items 0..n-1."""
    return flat_context([np.arange(n)], [positives], noise=None if noise is None else [noise])


def one_user_model(scores):
    return FactorModel(np.array([[1.0]]), np.asarray(scores, dtype=np.float64)[:, None])


def consumer_forward(scores, steepness=1.0, positives=None, k_max=1):
    """(NDCG rows, smooth ranks of the positives); by default every candidate
    is a positive."""
    n = len(scores)
    positives = n if positives is None else positives
    ctx = one_row(n, positives)
    g_matrix, blocks = _consumer_forward(one_user_model(scores), ctx, k_max, steepness)
    return g_matrix, blocks[0][3][0]


def smooth_ranks(scores, steepness=1.0):
    return consumer_forward(scores, steepness)[1]


def producer_bucket(scores, temperature=1e-5, patience=0.5, relevant=None, noise=None):
    """(probabilities, exposures) of the one user's candidates; by default
    every candidate is relevant and the noise is zero."""
    n = len(scores)
    relevant = n if relevant is None else relevant
    noise = np.zeros(n) if noise is None else noise
    config = TrainConfig(temperature=temperature, exposure_patience=patience)
    forward = _producer_forward(one_user_model(scores), one_row(n, relevant, noise), config)
    probs, expo = forward[3], forward[4]
    return probs[0], expo[0]


def probs_of(logits):
    return producer_bucket(logits)[0]


def temperature_ranks(probs, temperature):
    """0-based producer ranks of items sampled with ``probs``, read back from
    their exposure (patience 1/2)."""
    _, expo = producer_bucket(np.log(probs), temperature)
    return -np.log2(expo)


def hard_ranks(scores):
    """1-based ranks by descending score, ties by position."""
    scores = np.asarray(scores)
    ranks = np.empty(scores.shape[0], dtype=np.int64)
    ranks[np.lexsort((np.arange(scores.shape[0]), -scores))] = np.arange(
        1, scores.shape[0] + 1)
    return ranks


class TestSmoothRankConfig:
    """The smooth-ranking fields of TrainConfig."""

    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.exposure_patience == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steepness": 0.0},
            {"temperature": -1.0},
            {"exposure_patience": 0.0},
            {"exposure_patience": 1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            TrainConfig(**kwargs)


class TestPairwiseSmoothRank:
    def test_hard_limit(self):
        ranks = smooth_ranks([3.0, 1.0, 2.0], steepness=1e3)
        np.testing.assert_allclose(ranks, [1.0, 3.0, 2.0], atol=1e-12)

    def test_ties_get_average_rank(self):
        ranks = smooth_ranks([0.7, 0.7], steepness=5.0)
        np.testing.assert_allclose(ranks, [1.5, 1.5])

    def test_all_equal(self):
        for n in (1, 2, 5, 9):
            ranks = smooth_ranks(np.zeros(n))
            np.testing.assert_allclose(ranks, (n + 1) / 2.0)

    @pytest.mark.usefixtures("float64_chain")
    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            scores = rng.normal(scale=rng.uniform(0.01, 10), size=n)
            steep = float(rng.uniform(0.05, 50))
            total = smooth_ranks(scores, steep).sum()
            assert total == pytest.approx(n * (n + 1) / 2.0, abs=1e-9)

    def test_converges_to_hard_ranks(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = rng.permutation(n) * 0.05  # all gaps >= 0.05
            smooth = smooth_ranks(scores, steepness=1e4)
            np.testing.assert_array_equal(np.rint(smooth), hard_ranks(scores))


class TestHardRanks:
    """Evaluation's exact ranking (``top_k_items``) over the whole catalog."""

    @staticmethod
    def order(scores):
        none = np.empty(0, dtype=np.int64)
        return top_k_items(one_user_model(scores), np.array([0]), len(scores),
                           none, none)[0][0]

    def test_descending_order(self):
        np.testing.assert_array_equal(self.order([0.1, 0.9, 0.5]), [1, 2, 0])

    def test_ties_broken_by_index(self):
        np.testing.assert_array_equal(self.order([0.5, 0.5, 0.2]), [0, 1, 2])


class TestSmoothDcg:
    """Smooth NDCG rows of the consumer forward in the hard limit."""

    def test_single_relevant_at_top(self):
        g, _ = consumer_forward([2.0, 1.0], 1e6, positives=1, k_max=2)
        np.testing.assert_array_equal(g, [[1.0, 1.0]])

    def test_two_relevant(self):
        # positives ranked 1 and 3: DCG@3 = 1 + 1/log2(4) = 1.5
        model = one_user_model([3.0, 1.0, 2.0])
        ctx = one_row(3, 2)
        g = _consumer_forward(model, ctx, 3, 1e6)[0]
        assert g[0, 2] == pytest.approx(1.5 / (1.0 + 1.0 / np.log2(3.0)), abs=1e-12)


    @pytest.mark.usefixtures("float64_chain")
    def test_soft_cutoff_known_value(self):
        # a lone positive has rank 0.5 + sigmoid(0) = 1 and discount 1, so
        # NDCG@k is its cutoff sigmoid(steepness * (k + 0.5 - 1))
        g, ranks = consumer_forward([0.3], steepness=2.0, k_max=2)
        np.testing.assert_array_equal(ranks, [1.0])
        np.testing.assert_allclose(g, [[sigmoid(1.0), sigmoid(3.0)]], rtol=1e-15)


class TestPlProbs:
    def test_uniform(self):
        np.testing.assert_allclose(probs_of(np.zeros(4)), 0.25)

    def test_saturation(self):
        p = probs_of([100.0, -100.0])
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    def test_log_three(self):
        np.testing.assert_allclose(probs_of([0.0, np.log(3.0)]), [0.25, 0.75],
                                   atol=1e-12)

    def test_probability_vector(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = probs_of(rng.normal(scale=10, size=rng.integers(1, 30)))
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestGumbelPerturb:
    def test_zero_noise_reduces_to_pl(self):
        logits = np.array([0.3, -1.2, 2.0])
        reference = np.exp(logits - logits.max())
        np.testing.assert_allclose(probs_of(logits), reference / reference.sum(),
                                   rtol=1e-15)

    def test_same_seed_identical(self, synthetic_dataset):
        model = FactorModel(np.ones((synthetic_dataset.num_users, 1)),
                            np.linspace(-1.0, 1.0, synthetic_dataset.num_items)[:, None])
        config = TrainConfig(temperature=0.1)
        runs = []
        for _ in range(2):
            ctx = build_producer_context(synthetic_dataset, np.arange(4), 3, 5,
                                         np.random.default_rng(9))
            runs.append(_producer_forward(model, ctx, config))
        a, b = runs
        assert np.array_equal(a[3], b[3]) and np.array_equal(a[4], b[4])

    def test_argmax_frequency_matches_pl(self):
        # Adding Gumbel noise and taking the argmax samples items with their
        # softmax probabilities, so item 2 of logits (0, ln 3) wins ~75%.
        logits = np.array([0.0, np.log(3.0)])
        trials = 10**5
        noise = sample_gumbel(np.random.default_rng(123), 2 * trials).reshape(trials, 2)
        wins = int(np.sum(np.argmax(logits[None, :] + noise, axis=1) == 1))
        assert wins / trials == pytest.approx(0.75, abs=0.01)


class TestTemperatureSmoothRank:
    def test_all_equal(self):
        for n in (1, 3, 6):
            _, expo = producer_bucket(np.zeros(n), temperature=0.1)
            np.testing.assert_array_equal(expo, np.full(n, 0.5 ** ((n - 1) / 2.0)))

    def test_hard_zero_based_limit(self):
        _, expo = producer_bucket([100.0, -100.0], temperature=1e-6)
        np.testing.assert_array_equal(expo, [0.5 ** 0.0, 0.5 ** 1.0])

    @pytest.mark.usefixtures("float64_chain")
    def test_known_value(self):
        ranks = temperature_ranks([0.6, 0.4], 0.2)
        assert ranks[0] == pytest.approx(1.0 / (1.0 + np.e), abs=1e-12)
        assert ranks[1] == pytest.approx(np.e / (1.0 + np.e), abs=1e-12)

    @pytest.mark.usefixtures("float64_chain")
    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            probs = rng.dirichlet(np.ones(n))
            tau = float(rng.uniform(1e-4, 1.0))
            total = temperature_ranks(probs, tau).sum()
            assert total == pytest.approx(n * (n - 1) / 2.0, abs=1e-9)


class TestExposure:
    def test_hard_ranks(self):
        _, expo = producer_bucket([2.0, 1.0], temperature=1e-6)
        np.testing.assert_array_equal(expo, [1.0, 0.5])

    def test_patience_near_one(self):
        _, expo = producer_bucket(np.linspace(3.0, -3.0, 20), temperature=1e-6,
                                  patience=1.0 - 1e-12)
        np.testing.assert_allclose(expo, 1.0, atol=1e-9)

    def test_matches_evaluation_slot_exposure(self, monkeypatch):
        # training and evaluation share one convention: an item the smooth
        # ranks place at hard position r gets the exposure of top-k slot r
        scores = np.array([0.2, 1.5, -0.7, 0.9])
        _, expo = producer_bucket(scores, temperature=1e-6)
        routed = []
        monkeypatch.setattr(metrics, "exposure_disparity",
                            lambda raw: routed.append(raw) or exposure_disparity(raw))
        run = RecommendationRun(4, np.array([0]), np.argsort(-scores)[None, :],
                                np.array([1]), np.array([0]))
        metrics.disparity_item(run, np.eye(4, dtype=np.int8), 0.5)
        np.testing.assert_array_equal(expo, routed[0])

    def test_matrix_input(self):
        # one block stacks the users: exposures per (user, relevant item)
        model = FactorModel(np.array([[1.0], [-1.0]]),
                            np.array([[4.0], [3.0], [2.0], [1.0]]))
        ctx = flat_context([np.arange(4), [1, 0, 2, 3]], [2, 2],
                           noise=[np.zeros(4), np.zeros(4)])
        forward = _producer_forward(model, ctx, TrainConfig(temperature=1e-6))
        np.testing.assert_array_equal(forward[4], [[1.0, 0.5], [0.25, 0.125]])

    def test_rejects_bad_patience(self):
        with pytest.raises(ValueError, match="exposure_patience"):
            TrainConfig(exposure_patience=1.5)


class TestLimitAgreement:
    def test_smooth_chains_agree_in_the_limit(self):
        # both rank constructions must agree with hard sorting for separated
        # inputs at extreme sharpness
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            probs = rng.dirichlet(np.ones(n) * 0.3)
            probs = np.unique(probs)
            if probs.shape[0] < 2 or np.min(np.diff(np.sort(probs))) < 1e-6:
                continue
            hard = hard_ranks(probs)
            smooth = temperature_ranks(probs, 1e-9)
            np.testing.assert_array_equal(np.rint(smooth), hard - 1)
            np.testing.assert_array_equal(np.rint(smooth_ranks(probs, 1e9)), hard)
