import logging

import numpy as np
import pytest

from moofair.model import FactorModel, init_model
from moofair.objectives import (
    CandidateContext,
    _consumer_forward,
    _consumer_loss_and_ndcg_grad,
    build_consumer_context,
    build_producer_context,
    consumer_fairness_grad,
    consumer_group_fairness,
    fairness_grad,
    producer_fairness_grad,
)
from moofair.training import TrainConfig
from conftest import derived_rng, finite_difference_gradient, max_relative_error


class TestConsumerGroupFairness:
    def test_identical_groups(self):
        assert consumer_group_fairness([[1.0, 2.0], [1.0, 2.0]]) == 0.0

    def test_two_orthogonal_groups(self):
        assert consumer_group_fairness([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(2.0)

    def test_three_groups_one_offset(self):
        base = np.array([0.4, 0.4, 0.4])
        shifted = base + np.array([1.0, 0.0, 0.0])
        loss = consumer_group_fairness([base, base, shifted])
        assert loss == pytest.approx(2.0 / 3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            vectors = rng.normal(size=(n, 5))
            total = 0.0
            pairs = 0
            for i in range(n):
                for j in range(n):
                    if i < j:
                        total += float(np.sum((vectors[i] - vectors[j]) ** 2))
                        pairs += 1
            assert consumer_group_fairness(vectors) == pytest.approx(total / pairs)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(4, 3))
        a = consumer_group_fairness(vectors)
        b = consumer_group_fairness(vectors[::-1])
        assert a == pytest.approx(b, rel=1e-12)

    def test_requires_two_groups(self):
        with pytest.raises(ValueError):
            consumer_group_fairness([[1.0, 2.0]])


def context_for(candidates, positive_counts):
    users = np.arange(len(candidates), dtype=np.int64)
    return CandidateContext(
        users,
        [np.asarray(c, dtype=np.int64) for c in candidates],
        np.asarray(positive_counts, dtype=np.int64),
    )


def ndcg_rows(model, ctx, k_max, steepness=1e6):
    """Smooth NDCG@1..k_max rows of the consumer forward (hard limit by default)."""
    return _consumer_forward(model, ctx, k_max, steepness)[0]


def hard_rank_ndcg(model, ctx, k_max):
    """NDCG@1..k_max on hard ranks (descending score, ties by position):
    the reference the smooth forward approaches as its steepness grows."""
    rows = np.zeros((ctx.users.shape[0], k_max))
    ks = np.arange(1, k_max + 1)
    for row, (u, cand, n) in enumerate(zip(ctx.users, ctx.candidates,
                                           ctx.counts)):
        if n == 0:
            continue
        scores = model.item_embeddings[cand] @ model.user_embeddings[u]
        ranks = np.empty(cand.shape[0])
        ranks[np.lexsort((np.arange(cand.shape[0]), -scores))] = np.arange(
            1, cand.shape[0] + 1)
        gains = (ranks[:n, None] <= ks[None, :]) / np.log2(ranks[:n, None] + 1.0)
        ideal = np.cumsum(1.0 / np.log2(np.arange(1, k_max + 1) + 1.0))
        rows[row] = gains.sum(axis=0) / ideal[np.minimum(ks, n) - 1]
    return rows


class TestBuildNdcgMatrix:
    def test_exact_single_relevant_at_rank_one(self):
        # positive item 0 scores highest among three candidates
        model = FactorModel(np.array([[1.0]]), np.array([[3.0], [2.0], [1.0]]))
        ctx = context_for([[0, 1, 2]], [1])
        np.testing.assert_allclose(ndcg_rows(model, ctx, 3), [[1.0, 1.0, 1.0]])

    def test_exact_single_relevant_at_rank_two(self):
        model = FactorModel(np.array([[1.0]]), np.array([[2.0], [3.0], [1.0]]))
        ctx = context_for([[0, 1, 2]], [1])
        g = ndcg_rows(model, ctx, 2)
        np.testing.assert_allclose(g, [[0.0, 1.0 / np.log2(3.0)]])
        assert g[0, 1] == pytest.approx(0.6309297535714574)

    def test_smooth_limit_matches_exact(self):
        rng = np.random.default_rng(2)
        model = init_model(3, 12, 4, 0.0, rng, init_std=1.0)
        ctx = context_for([[0, 1, 4, 5, 6], [2, 3, 7, 8, 9]], [2, 2])
        exact = hard_rank_ndcg(model, ctx, 4)
        np.testing.assert_allclose(ndcg_rows(model, ctx, 4), exact, atol=1e-6)

    def test_user_without_positives_gets_zero_row(self):
        model = FactorModel(np.ones((2, 1)), np.ones((3, 1)))
        ctx = context_for([[0, 1], [1, 2]], [1, 0])
        np.testing.assert_array_equal(ndcg_rows(model, ctx, 2)[1], 0.0)


def consumer_loss(g, masks, valid=None):
    """Disparity loss of hand-built NDCG rows, or None when skipped."""
    if valid is None:
        valid = np.ones(g.shape[0], dtype=bool)
    result = _consumer_loss_and_ndcg_grad(g, masks, valid)
    return None if result is None else result[0]


class TestGenderLoss:
    def test_known_value(self):
        g = np.array([[0.5, 0.5], [0.3, 0.7]])
        masks = np.array([[1, 0], [0, 1]])
        assert consumer_loss(g, masks) == pytest.approx(0.08)

    def test_equal_means_zero(self):
        g = np.array([[0.4, 0.6], [0.4, 0.6]])
        masks = np.array([[1, 0], [0, 1]])
        assert consumer_loss(g, masks) == 0.0

    def test_single_group_skipped_with_warning(self, caplog):
        g = np.array([[0.4, 0.6], [0.2, 0.2]])
        masks = np.array([[1, 1], [0, 0]])
        with caplog.at_level(logging.WARNING):
            assert consumer_loss(g, masks) is None
        assert "skipped" in caplog.text

    def test_invalid_rows_excluded_from_counts(self):
        g = np.array([[0.5, 0.5], [0.0, 0.0], [0.3, 0.7]])
        masks = np.array([[1, 1, 0], [0, 0, 1]])
        valid = np.array([True, False, True])
        assert consumer_loss(g, masks, valid) == pytest.approx(0.08)


class TestAgeLoss:
    def test_two_of_seven_groups_reduces_to_pairwise(self):
        g = np.array([[0.5, 0.5], [0.3, 0.7]])
        masks = np.zeros((7, 2), dtype=int)
        masks[2, 0] = 1
        masks[5, 1] = 1
        assert consumer_loss(g, masks) == pytest.approx(0.08)

    def test_three_groups_brute_force(self):
        g = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.6]])
        masks = np.eye(3, dtype=int)
        means = [g[0], g[1], g[2]]
        expected = (
            np.sum((means[0] - means[1]) ** 2)
            + np.sum((means[0] - means[2]) ** 2)
            + np.sum((means[1] - means[2]) ** 2)
        ) / 3.0
        assert consumer_loss(g, masks) == pytest.approx(expected)

    def test_single_group_skipped(self, caplog):
        g = np.array([[0.4, 0.6]])
        masks = np.zeros((7, 1), dtype=int)
        masks[3, 0] = 1
        with caplog.at_level(logging.WARNING):
            assert consumer_loss(g, masks) is None


def producer_context_for(candidates, relevant_counts, noise=None):
    users = np.arange(len(candidates), dtype=np.int64)
    cands = [np.asarray(c, dtype=np.int64) for c in candidates]
    if noise is None:
        noise = [np.zeros(c.shape[0]) for c in cands]
    return CandidateContext(users, cands,
                            np.asarray(relevant_counts, dtype=np.int64), noise)


def producer_loss(model, ctx, mask, config):
    """Loss of the producer gradient call, or None when skipped."""
    result = producer_fairness_grad(model, ctx, mask, config)
    return None if result is None else result.loss


class TestProducerLoss:
    def hand_instance(self):
        # one user, two relevant items with distinct scores so the smooth
        # ranks are effectively hard (0, 1); offset 1 makes exposures
        # (0.5, 0.25)
        model = FactorModel(np.array([[1.0]]), np.array([[2.0], [1.0]]))
        ctx = producer_context_for([[0, 1]], [2])
        mask = np.array([[1, 0], [0, 1]], dtype=np.int8)
        config = TrainConfig(temperature=1e-6, exposure_patience=0.5, rank_offset=1.0)
        return model, ctx, mask, config

    def test_hand_computed_pipeline(self):
        model, ctx, mask, config = self.hand_instance()
        loss = producer_loss(model, ctx, mask, config)
        assert loss == pytest.approx(1.0 / 18.0, abs=1e-9)

    def test_exposure_matches_target_is_zero(self):
        # equal scores, zero noise, one item per group: the achieved exposure
        # distribution is the flat target
        model = FactorModel(np.array([[1.0]]), np.array([[1.5], [1.5]]))
        ctx = producer_context_for([[0, 1]], [2])
        mask = np.eye(2, dtype=np.int8)
        config = TrainConfig(temperature=1e-6, exposure_patience=0.5, rank_offset=1.0)
        assert producer_loss(model, ctx, mask, config) == pytest.approx(0.0, abs=1e-12)

    def test_all_exposure_in_one_group(self):
        model = FactorModel(np.array([[1.0]]), np.array([[2.0], [1.0]]))
        ctx = producer_context_for([[0, 1]], [2])
        mask = np.array([[1, 1], [0, 0]], dtype=np.int8)
        config = TrainConfig(temperature=1e-6, exposure_patience=0.5, rank_offset=1.0)
        loss = producer_loss(model, ctx, mask, config)
        assert loss == pytest.approx(0.5)

    def test_multi_genre_item_routes_to_every_group(self):
        model = FactorModel(np.array([[1.0]]), np.array([[2.0], [1.0]]))
        ctx = producer_context_for([[0, 1]], [2])
        # item 0 belongs to both groups: routed sums exceed its own exposure
        mask = np.array([[1, 1], [1, 0]], dtype=np.int8)
        config = TrainConfig(temperature=1e-6, exposure_patience=0.5, rank_offset=1.0)
        loss = producer_loss(model, ctx, mask, config)
        raw = np.array([0.5 + 0.25, 0.5])
        eps = raw / raw.sum()
        expected = float(np.sum((eps - 0.5) ** 2))
        assert loss == pytest.approx(expected, abs=1e-9)

    def test_empty_batch_skipped(self, caplog):
        model = FactorModel(np.array([[1.0]]), np.array([[2.0], [1.0]]))
        ctx = producer_context_for([[0, 1]], [0])
        mask = np.eye(2, dtype=np.int8)
        with caplog.at_level(logging.WARNING):
            assert producer_loss(model, ctx, mask, TrainConfig()) is None

    def test_normalized_exposure_is_probability_vector(self, synthetic_dataset,
                                                       synthetic_masks):
        # the normalized exposure and the flat target are both probability
        # vectors, which bounds the loss
        rng = np.random.default_rng(11)
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 3, 0.0, rng)
        ctx = build_producer_context(synthetic_dataset, np.arange(8), 5, 10,
                                     derived_rng(11, 1))
        config = TrainConfig(temperature=0.05, exposure_patience=0.5)
        loss = producer_loss(model, ctx, synthetic_masks.popularity, config)
        assert loss is not None
        assert 0.0 <= loss <= 2.0  # ||p - q||^2 <= 2 for probability vectors


def make_gradient_world(seed=0, num_users=3, num_items=5, dim=2):
    model = init_model(num_users, num_items, dim, 0.0, np.random.default_rng(seed),
                       init_std=0.6)
    gen = derived_rng(seed, 1)
    # every user gets 2 candidate positives and 2 sampled negatives
    candidates, pos_counts, noise = [], [], []
    for u in range(num_users):
        items = gen.permutation(num_items)[:4]
        candidates.append(np.sort(items[:2]).tolist() + np.sort(items[2:]).tolist())
        pos_counts.append(2)
        noise.append(gen.gumbel(size=4))
    consumer = context_for(candidates, pos_counts)
    producer = CandidateContext(
        np.arange(num_users, dtype=np.int64),
        [np.asarray(c, dtype=np.int64) for c in candidates],
        np.asarray(pos_counts, dtype=np.int64),
        noise,
    )
    gender_mask = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)[:, :num_users]
    age_mask = np.zeros((7, num_users), dtype=np.int8)
    for u in range(num_users):
        age_mask[u % 3, u] = 1
    item_mask = np.zeros((2, num_items), dtype=np.int8)
    item_mask[0, : num_items // 2] = 1
    item_mask[1, num_items // 2:] = 1
    return model, consumer, producer, gender_mask, age_mask, item_mask


class TestConsumerGradient:
    def test_matches_finite_differences(self):
        model, consumer, _, gender_mask, _, _ = make_gradient_world()
        config = TrainConfig(ndcg_k=3, steepness=2.0)
        result = consumer_fairness_grad(model, consumer, gender_mask, config, "gender")

        def loss_at(theta):
            probe = model.copy()
            probe.set_flat(theta)
            return consumer_fairness_grad(probe, consumer, gender_mask, config,
                                          "gender").loss

        numeric = finite_difference_gradient(loss_at, model.flatten(), step=1e-6)
        assert result.loss == pytest.approx(loss_at(model.flatten()), rel=1e-12)
        assert max_relative_error(result.grad, numeric) <= 1e-4

    def test_age_gradient_matches_finite_differences(self):
        model, consumer, _, _, age_mask, _ = make_gradient_world(seed=7)
        config = TrainConfig(ndcg_k=2, steepness=1.5)
        result = consumer_fairness_grad(model, consumer, age_mask, config, "age")

        def loss_at(theta):
            probe = model.copy()
            probe.set_flat(theta)
            return consumer_fairness_grad(probe, consumer, age_mask, config,
                                          "age").loss

        numeric = finite_difference_gradient(loss_at, model.flatten(), step=1e-6)
        assert max_relative_error(result.grad, numeric) <= 1e-4

    def test_symmetric_configuration_has_zero_gradient(self):
        emb = np.array([[0.4, -0.1], [0.4, -0.1]])
        items = np.array([[0.2, 0.3], [0.1, -0.2], [0.5, 0.0], [0.0, 0.4]])
        model = FactorModel(emb, items)
        ctx = context_for([[0, 1, 2, 3], [0, 1, 2, 3]], [2, 2])
        mask = np.array([[1, 0], [0, 1]], dtype=np.int8)
        result = consumer_fairness_grad(model, ctx, mask,
                                        TrainConfig(ndcg_k=2, steepness=1.0), "gender")
        assert result.loss == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(result.grad, 0.0, atol=1e-12)

    def test_skipped_batch_returns_none(self, caplog):
        model, consumer, _, _, _, _ = make_gradient_world()
        single_group = np.array([[1, 1, 1], [0, 0, 0]], dtype=np.int8)
        with caplog.at_level(logging.WARNING):
            assert consumer_fairness_grad(model, consumer, single_group,
                                          TrainConfig(ndcg_k=2, steepness=1.0),
                                          "gender") is None

    def test_steepness_sweep_stays_finite(self):
        model, consumer, _, gender_mask, _, _ = make_gradient_world(seed=3)
        for steep in np.geomspace(0.1, 100.0, 13):
            config = TrainConfig(ndcg_k=3, steepness=float(steep))
            result = consumer_fairness_grad(model, consumer, gender_mask, config,
                                            "gender")
            assert np.all(np.isfinite(result.grad))


class TestProducerGradient:
    def test_matches_finite_differences(self):
        model, _, producer, _, _, item_mask = make_gradient_world(seed=5)
        config = TrainConfig(temperature=0.25, exposure_patience=0.5, rank_offset=1.0)
        result = producer_fairness_grad(model, producer, item_mask, config)

        def loss_at(theta):
            probe = model.copy()
            probe.set_flat(theta)
            return producer_fairness_grad(probe, producer, item_mask, config).loss

        numeric = finite_difference_gradient(loss_at, model.flatten(), step=1e-6)
        assert result.loss == pytest.approx(loss_at(model.flatten()), rel=1e-12)
        assert max_relative_error(result.grad, numeric) <= 1e-4

    def test_zero_loss_zero_gradient(self):
        # equal scores, zero noise, one item per group and every item relevant
        # to one user: the achieved distribution is the flat target
        model = FactorModel(np.random.default_rng(9).normal(size=(2, 2)),
                            np.tile([0.3, -0.2], (4, 1)))
        producer = producer_context_for([[0, 1, 2, 3], [2, 3, 0, 1]], [2, 2])
        item_mask = np.eye(4, dtype=np.int8)
        config = TrainConfig(temperature=0.25, exposure_patience=0.5)
        result = producer_fairness_grad(model, producer, item_mask, config)
        assert result.loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(result.grad, 0.0, atol=1e-10)


class TestDispatcher:
    def test_bpr_requires_batch(self, synthetic_masks):
        model = FactorModel(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="triplet batch"):
            fairness_grad("bpr", model, synthetic_masks)

    def test_unknown_objective(self, synthetic_masks):
        model = FactorModel(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="unknown objective"):
            fairness_grad("novelty", model, synthetic_masks)

    def test_consumer_dispatch(self, synthetic_dataset, synthetic_masks):
        rng = np.random.default_rng(1)
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 2, 0.0, rng)
        ctx = build_consumer_context(synthetic_dataset, np.arange(6), 5,
                                     derived_rng(1, 2))
        out = fairness_grad("gender", model, synthetic_masks, consumer_ctx=ctx,
                            config=TrainConfig(ndcg_k=3, candidate_negatives=5))
        assert out.objective_id == "gender"
        assert out.grad.shape == (model.num_parameters,)

    def test_producer_dispatch(self, synthetic_dataset, synthetic_masks):
        rng = np.random.default_rng(2)
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 2, 0.0, rng)
        ctx = build_producer_context(synthetic_dataset, np.arange(6), 5, 8,
                                     derived_rng(2, 3))
        out = fairness_grad("popularity", model, synthetic_masks,
                            producer_ctx=ctx,
                            config=TrainConfig(temperature=0.1))
        assert out.objective_id == "popularity"

    def test_missing_mask_rejected(self, synthetic_dataset):
        from moofair.data import GroupMaskSet

        rng = np.random.default_rng(3)
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 2, 0.0, rng)
        ctx = build_consumer_context(synthetic_dataset, np.arange(4), 4,
                                     derived_rng(3, 1))
        with pytest.raises(ValueError, match="gender mask"):
            fairness_grad("gender", model, GroupMaskSet(), consumer_ctx=ctx,
                          config=TrainConfig(ndcg_k=2, candidate_negatives=4))


class TestContextBuilders:
    def test_consumer_candidates_start_with_positives(self, synthetic_dataset):
        rng = np.random.default_rng(4)
        users = np.arange(5)
        ctx = build_consumer_context(synthetic_dataset, users, 7, rng)
        lists = synthetic_dataset.train_positive_lists()
        for row, u in enumerate(users):
            n_pos = int(ctx.counts[row])
            np.testing.assert_array_equal(ctx.candidates[row][:n_pos], lists[u])
            for j in ctx.candidates[row][n_pos:]:
                assert int(j) not in lists[u]

    def test_producer_relevant_capped(self, synthetic_dataset):
        rng = np.random.default_rng(5)
        ctx = build_producer_context(synthetic_dataset, np.arange(5), 3, 6, rng)
        assert np.all(ctx.counts <= 3)
        for cand, noise in zip(ctx.candidates, ctx.noise):
            assert cand.shape == noise.shape

    def test_deterministic(self, synthetic_dataset):
        a = build_consumer_context(synthetic_dataset, np.arange(4), 6,
                                   np.random.default_rng(6))
        b = build_consumer_context(synthetic_dataset, np.arange(4), 6,
                                   np.random.default_rng(6))
        for ca, cb in zip(a.candidates, b.candidates):
            assert np.array_equal(ca, cb)
