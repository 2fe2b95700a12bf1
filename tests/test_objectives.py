import dataclasses
import itertools
import logging
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from moofair import objectives
from moofair.data import TRAIN, GroupMaskSet, InteractionDataset
from moofair.model import FactorModel, ObjectiveGradient, TripletBatch, init_model
from moofair.numerics import sigmoid
from moofair.objectives import (
    CandidateContext,
    _consumer_forward,
    _producer_forward,
    build_consumer_context,
    build_producer_context,
    consumer_fairness_grad,
    exposure_disparity,
    fairness_grad,
    group_disparity,
    producer_fairness_grad,
)
from moofair.training import TrainConfig, train_round
from conftest import (
    context_rows,
    dense_gradient,
    derived_rng,
    finite_difference_error,
    flat_context,
    positive_lists,
    with_train_positives,
)
from test_training import TINY


def consumer_group_fairness(vectors):
    """``group_disparity`` of one group per row."""
    result = group_disparity(np.asarray(vectors, dtype=np.float64), np.eye(len(vectors)))
    return None if result is None else result[0]


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
        assert consumer_group_fairness([[1.0, 2.0]]) is None


def context_for(candidates, positive_counts):
    return flat_context(candidates, positive_counts)


def consumer_grad(model, ctx, masks, config, objective_id="gender"):
    """A consumer objective's gradient, its forward computed first."""
    forward = _consumer_forward(model, ctx, config.ndcg_k, config.steepness)
    return consumer_fairness_grad(model, ctx, masks, config, objective_id, forward)


def producer_grad(model, ctx, mask, config):
    """A producer objective's gradient, its forward computed first."""
    return producer_fairness_grad(model, ctx, mask, config, "popularity",
                                  _producer_forward(model, ctx, config))


def ndcg_rows(model, ctx, k_max, steepness=1e6):
    """Smooth NDCG@1..k_max rows of the consumer forward (hard limit by default)."""
    return _consumer_forward(model, ctx, k_max, steepness)[0]


def hard_rank_ndcg(model, ctx, k_max):
    """NDCG@1..k_max on hard ranks (descending score, ties by position):
    the reference the smooth forward approaches as its steepness grows."""
    rows = np.zeros((ctx.users.shape[0], k_max))
    ks = np.arange(1, k_max + 1)
    for row, (u, cand, n) in enumerate(zip(ctx.users, context_rows(ctx),
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
    """Training disparity loss of hand-built NDCG rows (rows not ``valid``
    are users without positives), or None when skipped."""
    n = g.shape[0]
    valid = np.ones(n, dtype=bool) if valid is None else valid
    ctx = CandidateContext(np.arange(n), np.zeros(n, dtype=np.int64),
                           np.ones(n, dtype=np.int64), valid.astype(np.int64))
    model = FactorModel(np.zeros((n, 1)), np.zeros((1, 1)))
    result = consumer_fairness_grad(model, ctx, masks, TrainConfig(), "gender", (g, []))
    return None if result is None else result.loss


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
    if noise is None:
        noise = [np.zeros(len(c)) for c in candidates]
    return flat_context(candidates, relevant_counts, noise=noise)


def producer_loss(model, ctx, mask, config):
    """Loss of the producer gradient call, or None when skipped."""
    result = producer_grad(model, ctx, mask, config)
    return None if result is None else result.loss


class TestProducerLoss:
    def hand_instance(self):
        # one user, two relevant items with distinct scores: the smooth ranks
        # are effectively hard (0, 1) and the exposures (1, 0.5)
        model = FactorModel(np.array([[1.0]]), np.array([[2.0], [1.0]]))
        ctx = producer_context_for([[0, 1]], [2])
        mask = np.array([[1, 0], [0, 1]], dtype=np.int8)
        config = TrainConfig(temperature=1e-6, exposure_patience=0.5)
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
        config = TrainConfig(temperature=1e-6, exposure_patience=0.5)
        assert producer_loss(model, ctx, mask, config) == pytest.approx(0.0, abs=1e-12)

    def test_all_exposure_in_one_group(self):
        model = FactorModel(np.array([[1.0]]), np.array([[2.0], [1.0]]))
        ctx = producer_context_for([[0, 1]], [2])
        mask = np.array([[1, 1], [0, 0]], dtype=np.int8)
        config = TrainConfig(temperature=1e-6, exposure_patience=0.5)
        loss = producer_loss(model, ctx, mask, config)
        assert loss == pytest.approx(0.5)

    def test_multi_genre_item_routes_to_every_group(self):
        model = FactorModel(np.array([[1.0]]), np.array([[2.0], [1.0]]))
        ctx = producer_context_for([[0, 1]], [2])
        # item 0 belongs to both groups: routed sums exceed its own exposure
        mask = np.array([[1, 1], [1, 0]], dtype=np.int8)
        config = TrainConfig(temperature=1e-6, exposure_patience=0.5)
        loss = producer_loss(model, ctx, mask, config)
        raw = np.array([1.0 + 0.5, 1.0])
        eps = raw / raw.sum()
        expected = float(np.sum((eps - 0.5) ** 2))
        assert loss == pytest.approx(expected, abs=1e-9)

    @given(raw=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=2,
                        max_size=8).filter(any),
           scale=st.floats(1e-3, 1e3))
    def test_scale_invariant(self, raw, scale):
        # a common factor in every group's exposure cancels in the
        # normalization: same loss, gradient divided by the factor
        raw = np.asarray(raw)
        loss, grad = exposure_disparity(raw)
        scaled_loss, scaled_grad = exposure_disparity(scale * raw)
        assert scaled_loss == pytest.approx(loss, rel=1e-12, abs=1e-15)
        # the gradient is (2 / sum(raw)) times a difference of values in [-1, 1]
        np.testing.assert_allclose(scaled_grad * scale, grad, rtol=1e-9,
                                   atol=1e-12 / raw.sum())

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
    producer = flat_context(candidates, pos_counts, noise=noise)
    gender_mask = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)[:, :num_users]
    age_mask = np.zeros((7, num_users), dtype=np.int8)
    for u in range(num_users):
        age_mask[u % 3, u] = 1
    item_mask = np.zeros((2, num_items), dtype=np.int8)
    item_mask[0, : num_items // 2] = 1
    item_mask[1, num_items // 2:] = 1
    return model, consumer, producer, gender_mask, age_mask, item_mask


class TestConsumerGradient:
    @pytest.mark.usefixtures("float64_chain")
    def test_matches_finite_differences(self):
        model, consumer, _, gender_mask, _, _ = make_gradient_world()
        config = TrainConfig(ndcg_k=3, steepness=2.0)
        result = consumer_grad(model, consumer, gender_mask, config)

        def loss_of(probe):
            return consumer_grad(probe, consumer, gender_mask, config).loss

        assert result.loss == pytest.approx(loss_of(model), rel=1e-12)
        assert finite_difference_error(model, result, loss_of) <= 1e-4

    @pytest.mark.usefixtures("float64_chain")
    def test_age_gradient_matches_finite_differences(self):
        model, consumer, _, _, age_mask, _ = make_gradient_world(seed=7)
        config = TrainConfig(ndcg_k=2, steepness=1.5)
        result = consumer_grad(model, consumer, age_mask, config, "age")
        assert finite_difference_error(
            model, result,
            lambda probe: consumer_grad(probe, consumer, age_mask, config, "age").loss) <= 1e-4

    def test_symmetric_configuration_has_zero_gradient(self):
        emb = np.array([[0.4, -0.1], [0.4, -0.1]])
        items = np.array([[0.2, 0.3], [0.1, -0.2], [0.5, 0.0], [0.0, 0.4]])
        model = FactorModel(emb, items)
        ctx = context_for([[0, 1, 2, 3], [0, 1, 2, 3]], [2, 2])
        mask = np.array([[1, 0], [0, 1]], dtype=np.int8)
        result = consumer_grad(model, ctx, mask, TrainConfig(ndcg_k=2, steepness=1.0))
        assert result.loss == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(result.grad, 0.0, atol=1e-12)

    def test_skipped_batch_returns_none(self, caplog):
        model, consumer, _, _, _, _ = make_gradient_world()
        single_group = np.array([[1, 1, 1], [0, 0, 0]], dtype=np.int8)
        with caplog.at_level(logging.WARNING):
            assert consumer_grad(model, consumer, single_group,
                                 TrainConfig(ndcg_k=2, steepness=1.0)) is None

    def test_steepness_sweep_stays_finite(self):
        model, consumer, _, gender_mask, _, _ = make_gradient_world(seed=3)
        for steep in np.geomspace(0.1, 100.0, 13):
            config = TrainConfig(ndcg_k=3, steepness=float(steep))
            result = consumer_grad(model, consumer, gender_mask, config)
            assert np.all(np.isfinite(result.grad))


def reference_consumer(model, ctx, k_max, steepness, group_masks=None):
    """The per-user consumer kernel the blocked one replaced, kept as its
    oracle: (NDCG rows, each row's smooth ranks) and, given group masks, the
    gradient of the disparity over the flattened model (None when skipped)."""
    g_matrix = np.zeros((ctx.users.shape[0], k_max))
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    ideal_cum = np.cumsum(1.0 / np.log2(ks + 1.0))
    scores = model.user_embeddings[ctx.users] @ model.item_embeddings.T
    saved, all_ranks = {}, {}
    for row, (cand, n) in enumerate(zip(context_rows(ctx), ctx.counts)):
        if n == 0:
            continue
        scaled = steepness * scores[row, cand]
        pair = sigmoid(scaled[None, :] - scaled[:n, None])
        ranks = 0.5 + pair.sum(axis=1)
        trunc = sigmoid(steepness * (ks[None, :] + 0.5 - ranks[:, None]))
        disc = 1.0 / np.log2(ranks + 1.0)
        idcg = ideal_cum[np.minimum(np.arange(k_max), n - 1)]
        g_matrix[row] = (trunc * disc[:, None]).sum(axis=0) / idcg
        saved[row] = (pair, ranks, trunc, disc, idcg)
        all_ranks[row] = ranks
    if group_masks is None:
        return g_matrix, all_ranks
    result = group_disparity(g_matrix, group_masks * (ctx.counts > 0))
    if result is None:
        return g_matrix, all_ranks, None
    d_g = result[1]
    d_scores = np.zeros((ctx.users.shape[0], model.num_items))
    for row, (pair, ranks, trunc, disc, idcg) in saved.items():
        coeff = d_g[row] / idcg
        disc_slope = -1.0 / ((ranks + 1.0) * np.log(2.0) * np.log2(ranks + 1.0) ** 2)
        d_rank = (-steepness * (trunc * (1.0 - trunc)) @ coeff * disc
                  + trunc @ coeff * disc_slope)
        slope = steepness * pair * (1.0 - pair)
        n = ranks.shape[0]
        slope[np.arange(n), np.arange(n)] = 0.0
        d_row = slope.T @ d_rank
        d_row[:n] -= d_rank * slope.sum(axis=1)
        d_scores[row, context_rows(ctx)[row]] = d_row
    user_grad = np.zeros_like(model.user_embeddings)
    user_grad[ctx.users] = d_scores @ model.item_embeddings
    item_grad = d_scores.T @ model.user_embeddings[ctx.users]
    return g_matrix, all_ranks, np.concatenate([user_grad.ravel(), item_grad.ravel()])


def ragged_world(seed, num_users=14, num_items=120, dim=3):
    """A model and a consumer context with 0 to 60 positives and a varying
    number of negatives per user, plus two random user groups."""
    gen = np.random.default_rng(seed)
    model = init_model(num_users, num_items, dim, 0.0, gen, init_std=0.7)
    candidates, counts = [], []
    for _ in range(num_users):
        n_pos = int(gen.choice([0, 1, 2, int(gen.integers(3, 61))]))
        n_neg = int(gen.integers(0, 40))
        candidates.append(gen.permutation(num_items)[:n_pos + n_neg])
        counts.append(n_pos)
    counts[0] = 60  # the widest row, and a row with positives for every group
    candidates[0] = gen.permutation(num_items)[:100]
    counts[1] = max(counts[1], 1)
    masks = np.zeros((2, num_users), dtype=np.int8)
    masks[gen.integers(0, 2, size=num_users), np.arange(num_users)] = 1
    masks[:, :2] = [[1, 0], [0, 1]]
    return model, context_for(candidates, counts), masks


def one_user_model(scores):
    return FactorModel(np.array([[1.0]]), np.asarray(scores, dtype=np.float64)[:, None])


def blocked_ranks(blocks):
    """Row -> smooth ranks of its positives, read from the padded blocks."""
    found = {}
    for rows, _, _, ranks, *_ in blocks:
        for b, row in enumerate(rows):
            found[int(row)] = ranks[b]
    return found


class TestBlockedConsumerKernel:
    """The blocked kernel against the per-user reference: ragged contexts,
    blocks split mid-batch, and a steepness of 1e6 that takes the fallback.
    The reference sums float64 pairs, so the kernel runs its chain in float64
    for it (``TestFloat32Chain`` bounds the float32 chain)."""

    @pytest.mark.usefixtures("float64_chain")
    @pytest.mark.parametrize("steepness", [0.1, 1.0, 50.0, 1e6])
    @pytest.mark.parametrize("pair_block", [objectives.PAIR_BLOCK, 3000, 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_user_reference(self, monkeypatch, seed, pair_block,
                                        steepness):
        monkeypatch.setattr(objectives, "PAIR_BLOCK", pair_block)
        model, ctx, masks = ragged_world(seed)
        k_max = 10
        ref_g, ref_ranks, ref_grad = reference_consumer(model, ctx, k_max, steepness,
                                                        masks)
        forward = _consumer_forward(model, ctx, k_max, steepness)
        if pair_block == 1:
            assert len(forward[1]) == np.count_nonzero(ctx.counts)
        np.testing.assert_allclose(forward[0], ref_g, rtol=0, atol=1e-12)
        ranks = blocked_ranks(forward[1])
        assert sorted(ranks) == sorted(ref_ranks)
        for row, expected in ref_ranks.items():
            np.testing.assert_allclose(ranks[row][:expected.shape[0]], expected,
                                       rtol=1e-12)
        config = TrainConfig(ndcg_k=k_max, steepness=steepness)
        result = consumer_fairness_grad(model, ctx, masks, config, "gender", forward)
        scale = max(1.0, float(np.max(np.abs(ref_grad))))
        np.testing.assert_allclose(dense_gradient(model, result), ref_grad, rtol=0,
                                   atol=1e-12 * scale)

    def test_block_size_ignores_wider_rows_of_earlier_blocks(self, monkeypatch):
        # one positive among 100 candidates, then ten rows of 2 among 10: the
        # wide row fills its own block, and the narrow rows come 5 to a block
        # of 100 padded pairs
        monkeypatch.setattr(objectives, "PAIR_BLOCK", 100)
        model = one_user_model(np.linspace(-1.0, 1.0, 100))
        ctx = flat_context([np.arange(100)] + [np.arange(10)] * 10, [1] + [2] * 10,
                           users=np.zeros(11))
        _, blocks = _consumer_forward(model, ctx, 3, 1.0)
        assert [block[0].shape[0] for block in blocks] == [1, 5, 5]

    def test_ratio_form_at_the_spread_limit(self, monkeypatch):
        # scaled spread exactly each dtype's own bound: the ratio form, no
        # fallback, against an exactly summed sign-split logistic. float64
        # pairs are good to 1e-13 here, where exp's argument carries roundoff
        # of the spread; float32 pairs to a few units of their roundoff.
        shapes = []
        monkeypatch.setattr(objectives, "sigmoid",
                            lambda x, out=None: shapes.append(np.shape(x))
                            or sigmoid(x, out=out))

        def logistic(x):
            return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))

        for dtype, rtol in ((np.float64, 1e-13), (np.float32, 4 * np.finfo(np.float32).eps)):
            monkeypatch.setattr(objectives, "CHAIN_DTYPE", dtype)
            gen = np.random.default_rng(5)
            half = objectives._ratio_spread(dtype) / 2
            scores = gen.permutation(np.concatenate([[-half, half],
                                                     gen.uniform(-half, half, 48)]))
            ctx = flat_context([np.arange(50)], [50])
            _, blocks = _consumer_forward(one_user_model(scores), ctx, 3, 1.0)
            assert (1, 50, 50) not in shapes  # the cutoffs are (3, 1, 50)
            expected = [0.5 + math.fsum(logistic(s - p) for s in scores) for p in scores]
            np.testing.assert_allclose(blocks[0][3][0], expected, rtol=rtol)

    def test_forward_keeps_no_pair_matrix(self):
        # 4.8M pairs; the per-user kernel kept all of them (38 MB)
        gen = np.random.default_rng(8)
        num_users, n_pos, width = 200, 60, 400
        model = init_model(num_users, 500, 8, 0.0, gen, init_std=0.3)
        ctx = context_for([gen.permutation(500)[:width] for _ in range(num_users)],
                          [n_pos] * num_users)
        pairs = num_users * n_pos * width
        tracemalloc.start()
        try:
            _consumer_forward(model, ctx, 50, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pairs * 8 / 4

    def test_forward_keeps_no_cutoffs(self):
        # the backward recomputes the (B, P, k) soft cutoffs from the ranks:
        # no block keeps a 3-D array, and a deeper k adds only the ideal DCG
        # rows, k floats per user, not k per positive
        gen = np.random.default_rng(9)
        num_users, width = 40, 60
        model = init_model(num_users, 200, 4, 0.0, gen, init_std=0.3)
        ctx = context_for([gen.permutation(200)[:width] for _ in range(num_users)],
                          gen.integers(0, 30, num_users))

        def retained_bytes(k_max):
            _, blocks = _consumer_forward(model, ctx, k_max, 1.0)
            assert max(a.ndim for block in blocks for a in block) == 2
            return sum(a.nbytes for block in blocks for a in block)

        users = np.count_nonzero(ctx.counts)
        assert retained_bytes(50) - retained_bytes(5) == users * 45 * 8


def ragged_producer_world(seed, num_users=6, num_items=30):
    """A model and a producer context whose rows differ in width and in
    relevant count (some none), plus two item groups."""
    gen = np.random.default_rng(seed)
    model = init_model(num_users, num_items, 3, 0.0, gen, init_std=0.6)
    candidates, counts, noise = [], [], []
    for u in range(num_users):
        width = int(gen.integers(2, 12))
        candidates.append(gen.permutation(num_items)[:width])
        counts.append(int(gen.integers(0, min(width, 4) + 1)))
        noise.append(gen.gumbel(size=width))
    counts[0], counts[1] = 0, 2
    item_mask = np.zeros((2, num_items), dtype=np.int8)
    item_mask[np.arange(num_items) % 2, np.arange(num_items)] = 1
    return model, flat_context(candidates, counts, noise=noise), item_mask


@st.composite
def distinct_score_rows(draw):
    """1-3 candidate rows of distinct scores on a 1/8 grid, and each row's
    positive count."""
    rows = draw(st.lists(st.lists(st.integers(-40, 40), min_size=2, max_size=10,
                                  unique=True), min_size=1, max_size=3))
    return rows, [draw(st.integers(1, len(row))) for row in rows]


class TestOnBothThreads:
    def test_every_item_runs_once_under_contention(self):
        """Four callers, each sharing 50 rounds of 500 items with its own
        one-worker pool (eight threads) at a 1 us switch interval: each item
        runs exactly once, whichever thread takes it."""

        def caller(_):
            counts = []
            with ThreadPoolExecutor(max_workers=1) as pool:
                for _ in range(50):
                    seen = [0] * 500

                    def run(i):
                        seen[i] += 1

                    objectives._on_both_threads(run, range(500)[::-1], pool)
                    counts.append(seen)
            return counts

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                futures = [callers.submit(caller, n) for n in range(4)]
                counts = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(seen == [1] * 500 for rounds in counts for seen in rounds)


class TestSmoothRankLimit:
    """Each positive's smooth rank approaches 1 + (number of candidates
    scoring higher) as the steepness grows. Score spreads times steepness
    past ``_ratio_spread`` take the ``numerics.sigmoid`` fallback."""

    @settings(max_examples=60, deadline=None)
    @given(world=distinct_score_rows(), steepness=st.floats(1e2, 1e6))
    @example(world=([[0, 1, 2]], [2]), steepness=1e2)  # ratio form
    @example(world=([[40, -40, 3], [0, 1]], [2, 1]), steepness=1e6)  # fallback
    def test_smooth_ranks_approach_hard_ranks(self, world, steepness):
        rows, counts = world
        scores = [np.asarray(row, dtype=np.float64) / 8.0 for row in rows]
        model = FactorModel(np.ones((len(rows), 1)), np.concatenate(scores)[:, None])
        ends = np.cumsum([s.shape[0] for s in scores])
        ctx = flat_context([np.arange(end - s.shape[0], end)
                            for s, end in zip(scores, ends)], counts)
        ranks = blocked_ranks(_consumer_forward(model, ctx, 5, steepness)[1])
        for row, (s, n) in enumerate(zip(scores, counts)):
            hard = 1.0 + (s[None, :] > s[:n, None]).sum(axis=1)
            # each other candidate is off by sigmoid(-steepness * gap), gap >= 1/8
            bound = (s.shape[0] - 1) * np.exp(-steepness / 8.0) + 1e-12
            assert np.all(np.abs(ranks[row][:n] - hard) <= bound)


@pytest.fixture(scope="module")
def trained_world(synthetic_dataset, synthetic_masks):
    """A TINY five-objective model trained at learning rate 5, and consumer
    and producer contexts over every user."""
    config = TrainConfig(objectives=objectives.OBJECTIVE_IDS,
                         **{**TINY, "learning_rate": 5.0})
    model = train_round(synthetic_dataset, synthetic_masks, config).model
    users = np.arange(synthetic_dataset.num_users)
    consumer = build_consumer_context(synthetic_dataset, users, config.candidate_negatives,
                                      derived_rng(0, 1))
    producer = build_producer_context(synthetic_dataset, users, config.n_r_cap,
                                      config.candidate_negatives, derived_rng(0, 2))
    return model, consumer, producer, synthetic_masks, config


def row_spreads(values, ctx):
    """Each context row's spread (max - min) of the per-entry ``values``."""
    ends = np.cumsum(ctx.widths)
    return np.array([np.ptp(values[end - width:end]) for end, width in zip(ends, ctx.widths)])


def producer_wide_rows(model, ctx, config):
    """Per row of the producer chain, whether it takes the half-tanh form in
    float32: the spread of its probabilities (padding left out) over the
    temperature exceeds the float32 ratio spread."""
    at, _, _, probs, *_ = _producer_forward(model, ctx, config)
    finite = np.where(at == ctx.items.shape[0], np.nan, probs)
    spread = (np.nanmax(finite, axis=1) - np.nanmin(finite, axis=1)) / config.temperature
    return spread > objectives._ratio_spread(np.float32)


class TestFloat32Chain:
    """The float32 pair chains (the default ``CHAIN_DTYPE``) against float64
    on a trained model. Bounds, relative to the float64 value: each loss
    within 1e-6; the gradients of gender and age within 1e-5, of popularity
    and genre within 1e-6 in the ratio form and within 5e-4 in the half-tanh
    form, whose absolute error in the far tails is most of the producer
    gradient at temperature 1e-5 (measured on this model: at most 6.2e-7,
    4.9e-8 and 3.6e-5, losses 2e-7)."""

    GRAD_BOUNDS = {"gender": 1e-5, "age": 1e-5}

    # steepness 1 and temperature 0.05: every row in the ratio form at both
    # dtypes. Steepness 10: one consumer row past the float32 spread, so it
    # takes the half-tanh form in float32 and the ratio form in float64.
    # Temperature 1e-5 (the default): every producer row in the half-tanh form.
    @pytest.mark.parametrize("steepness, temperature, producer_bound",
                             [(1.0, 0.05, 1e-6), (10.0, 1e-5, 5e-4)])
    def test_gradients_and_losses_match_float64(self, monkeypatch, trained_world,
                                                steepness, temperature, producer_bound):
        model, consumer, producer, masks, config = trained_world
        config = dataclasses.replace(config, steepness=steepness, temperature=temperature)
        scaled = steepness * row_spreads(objectives._entry_scores(model, consumer), consumer)
        wide = scaled > objectives._ratio_spread(np.float32)
        assert wide.any() == (steepness == 10.0)
        assert np.all(scaled <= objectives._ratio_spread(np.float64))
        assert np.all(producer_wide_rows(model, producer, config)) == (temperature == 1e-5)
        results = {}
        for dtype in (np.float64, np.float32):
            monkeypatch.setattr(objectives, "CHAIN_DTYPE", dtype)
            results[dtype] = {
                objective: fairness_grad(objective, model, masks, triplet_batch=None,
                                         consumer_ctx=consumer, producer_ctx=producer,
                                         config=config, forwards={}, pool=None)
                for objective in objectives.OBJECTIVE_IDS[1:]}
        for objective, exact in results[np.float64].items():
            got = results[np.float32][objective]
            assert got.loss == pytest.approx(exact.loss, rel=1e-6, abs=0)
            reference = dense_gradient(model, exact)
            error = np.linalg.norm(dense_gradient(model, got) - reference)
            bound = self.GRAD_BOUNDS.get(objective, producer_bound)
            assert np.linalg.norm(reference) > 0
            assert error <= bound * np.linalg.norm(reference), objective

    def test_saturated_pairs_keep_an_absolute_slope_error(self, monkeypatch):
        # pair arguments up to +-40 in both forms: where a pair is near 1,
        # pair * (1 - pair) cancels, so the float32 slope is off by up to a
        # few float32 units of roundoff absolute (and is 0 where float64
        # keeps a slope below that), not relative
        scores = np.linspace(-20.0, 20.0, 161)
        for scale in (1.0, 3.0):  # spread 40 (ratio form) and 120 (half-tanh)
            slopes, grads = {}, {}
            for dtype in (np.float64, np.float32):
                monkeypatch.setattr(objectives, "CHAIN_DTYPE", dtype)
                slopes[dtype] = objectives._rank_slope(
                    objectives._pair_sigmoids(scores[None, :], 161, scale))
                d_ranks = np.linspace(-1.0, 1.0, 161)[None, :]
                grads[dtype] = objectives._rank_backward(
                    d_ranks, slopes[dtype], objectives._row_sums(slopes[dtype]), scale)
            exact = slopes[np.float64]
            error = np.abs(slopes[np.float32] - exact)
            assert error.max() <= 4 * np.finfo(np.float32).eps
            tail = (exact > 0) & (exact < 1e-6)
            assert np.any(error[tail] > 1e-3 * exact[tail])  # relative precision is lost
            # a few units of float32 roundoff per d score (measured: 2.1)
            bound = 8 * np.finfo(np.float32).eps * scale
            assert np.abs(grads[np.float32] - grads[np.float64]).max() <= bound

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cutoffs_are_the_sigmoid_of_the_rounded_argument(self, monkeypatch, dtype):
        # (K, B, P): at float64 bitwise what sigmoid(steepness * (k + 0.5 -
        # rank)) gives; at float32 the same with ranks rounded to float32
        monkeypatch.setattr(objectives, "CHAIN_DTYPE", dtype)
        ranks = np.random.default_rng(4).uniform(1.0, 60.0, (3, 7))
        ks = np.arange(1, 51, dtype=np.float64)
        got = objectives._cutoffs(ranks, ks, 1.7)
        arg = (ks + 0.5).astype(dtype)[:, None, None] - ranks.astype(dtype)
        assert got.dtype == dtype and got.shape == (50, 3, 7)
        assert np.array_equal(got, sigmoid(dtype(1.7) * arg))
        if dtype == np.float64:
            assert np.array_equal(got, sigmoid(1.7 * (ks + 0.5 - ranks[:, :, None]))
                                  .transpose(2, 0, 1))


def one_block_producer_forward(model, ctx, config):
    """``_producer_forward`` with its pair sigmoids run on all rows at once,
    the form the blocked chain replaced, kept as its oracle."""
    rows = np.flatnonzero(ctx.counts)
    at, pad = objectives._padded(ctx, rows)
    relevant = np.arange(ctx.counts[rows].max()) < ctx.counts[rows, None]
    n_rel = relevant.shape[1]
    shifted = np.append(objectives._entry_scores(model, ctx) + ctx.noise, -np.inf)[at]
    shifted -= shifted.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    pair = objectives._pair_sigmoids(np.where(pad, -np.inf, probs), n_rel,
                                     1.0 / config.temperature)
    ranks = pair.sum(axis=2, dtype=np.float64) - 0.5
    expo = np.where(relevant, np.power(config.exposure_patience, ranks), 0.0)
    slope = objectives._rank_slope(pair)
    relevant_items = ctx.items[at[:, :n_rel][relevant]]
    return (at, relevant, relevant_items, probs, expo, slope,
            slope.sum(axis=2, dtype=np.float64))


class TestBlockedProducerChain:
    """The pair chain in row blocks does the same elementwise arithmetic and
    the same per-row sums as one block, so every output is bitwise equal. Each
    row takes its own form of the pair sigmoids: at temperature 0.05 every
    row takes the ratio form, at 0.01 the rows split between the two forms,
    and at 1e-5 (the default) every row takes the half-tanh form."""

    @pytest.mark.parametrize("pair_block", [objectives.PAIR_BLOCK, 100, 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_one_block(self, monkeypatch, seed, pair_block):
        monkeypatch.setattr(objectives, "PAIR_BLOCK", pair_block)
        model, ctx, _ = ragged_producer_world(seed, num_users=40)
        for temperature in (0.05, 0.01, 1e-5):
            config = TrainConfig(temperature=temperature, exposure_patience=0.5)
            reference = one_block_producer_forward(model, ctx, config)
            assert reference[5].dtype == objectives.CHAIN_DTYPE == np.float32
            wide = producer_wide_rows(model, ctx, config)
            assert {0.05: not wide.any(), 0.01: 0 < wide.sum() < wide.size,
                    1e-5: wide.all()}[temperature]
            if pair_block == 100:
                # several rows per block, and several blocks
                rows_per_block = 100 // reference[5][0].size
                assert 1 < rows_per_block < reference[5].shape[0] // 2
            for got, expected in zip(_producer_forward(model, ctx, config), reference,
                                     strict=True):
                assert got.shape == expected.shape
                assert np.array_equal(got, expected)


class TestProducerGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_padded_block_matches_single_rows(self, seed):
        # padding columns score -inf and are left out of the pair sums, so
        # each row's exposures equal those of the row run alone
        model, ctx, _ = ragged_producer_world(seed)
        config = TrainConfig(temperature=0.25, exposure_patience=0.5)
        _, relevant, _, probs, expo, _, _ = _producer_forward(model, ctx, config)
        rows = np.flatnonzero(ctx.counts)
        starts = np.cumsum(ctx.widths) - ctx.widths
        for b, r in enumerate(rows):
            entries = slice(starts[r], starts[r] + ctx.widths[r])
            alone = flat_context([ctx.items[entries]], [ctx.counts[r]], users=[ctx.users[r]],
                                 noise=[ctx.noise[entries]])
            single = _producer_forward(model, alone, config)
            np.testing.assert_allclose(probs[b, :ctx.widths[r]], single[3][0], rtol=1e-13)
            np.testing.assert_array_equal(probs[b, ctx.widths[r]:], 0.0)
            np.testing.assert_allclose(expo[b, :ctx.counts[r]], single[4][0], rtol=1e-13)
            np.testing.assert_array_equal(expo[b, ctx.counts[r]:], 0.0)
            assert relevant[b].sum() == ctx.counts[r]

    @pytest.mark.usefixtures("float64_chain")
    def test_ragged_rows_match_finite_differences(self):
        model, ctx, item_mask = ragged_producer_world(3)
        config = TrainConfig(temperature=0.25, exposure_patience=0.5)
        result = producer_grad(model, ctx, item_mask, config)
        assert finite_difference_error(
            model, result, lambda probe: producer_grad(probe, ctx, item_mask, config).loss) <= 1e-4

    @pytest.mark.usefixtures("float64_chain")
    def test_matches_finite_differences(self):
        model, _, producer, _, _, item_mask = make_gradient_world(seed=5)
        config = TrainConfig(temperature=0.25, exposure_patience=0.5)
        result = producer_grad(model, producer, item_mask, config)

        def loss_of(probe):
            return producer_grad(probe, producer, item_mask, config).loss

        assert result.loss == pytest.approx(loss_of(model), rel=1e-12)
        assert finite_difference_error(model, result, loss_of) <= 1e-4

    def test_zero_loss_zero_gradient(self):
        # equal scores, zero noise, one item per group and every item relevant
        # to one user: the achieved distribution is the flat target
        model = FactorModel(np.random.default_rng(9).normal(size=(2, 2)),
                            np.tile([0.3, -0.2], (4, 1)))
        producer = producer_context_for([[0, 1, 2, 3], [2, 3, 0, 1]], [2, 2])
        item_mask = np.eye(4, dtype=np.int8)
        config = TrainConfig(temperature=0.25, exposure_patience=0.5)
        result = producer_grad(model, producer, item_mask, config)
        assert result.loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(result.grad, 0.0, atol=1e-10)


def dense_bpr_grad(model, batch):
    """The dense BPR gradient over the flattened parameters that the
    sparse-row ``bpr_grad`` replaced, kept as its oracle."""
    u_emb = model.user_embeddings[batch.users]
    diff = model.item_embeddings[batch.pos_items] - model.item_embeddings[batch.neg_items]
    coeff = sigmoid(np.einsum("ij,ij->i", u_emb, diff)) - 1.0
    rows = np.concatenate([batch.users, model.num_users + batch.pos_items,
                           model.num_users + batch.neg_items])
    weights = np.concatenate([coeff[:, None] * diff, coeff[:, None] * u_emb,
                              -coeff[:, None] * u_emb])
    cut = model.num_users * model.dim
    grad = np.bincount((rows[:, None] * model.dim + np.arange(model.dim)).ravel(),
                       weights.ravel(), model.params.size)
    if model.reg > 0:
        users = np.unique(batch.users)
        items = np.unique(np.concatenate([batch.pos_items, batch.neg_items]))
        grad[:cut].reshape(-1, model.dim)[users] += 2.0 * model.reg * model.user_embeddings[users]
        grad[cut:].reshape(-1, model.dim)[items] += 2.0 * model.reg * model.item_embeddings[items]
    return grad


def dense_embedding_grad(model, ctx, d_entries):
    """The dense ``_embedding_grad`` the sparse-row one replaced, kept as its
    oracle: d loss / d score per context entry scattered to a (rows x
    catalog) matrix, one GEMM per embedding matrix, repeated users summed."""
    d_scores = np.zeros((ctx.users.shape[0], model.num_items))
    d_scores[np.repeat(np.arange(ctx.users.shape[0]), ctx.widths), ctx.items] = d_entries[:-1]
    cut = model.num_users * model.dim
    grad = np.zeros(model.params.size)
    grad[:cut] += np.bincount((ctx.users[:, None] * model.dim + np.arange(model.dim)).ravel(),
                              (d_scores @ model.item_embeddings).ravel(), cut)
    grad[cut:] += (d_scores.T @ model.user_embeddings[ctx.users]).ravel()
    return grad


@st.composite
def sparse_worlds(draw):
    """A small random model, triplet batch, consumer and producer contexts
    (distinct users in ascending order, as a training step builds them; users
    without positives; items no context touches) and group masks under which
    no objective is skipped."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    num_users, num_items = draw(st.integers(2, 6)), draw(st.integers(4, 14))
    dim = draw(st.integers(1, 4))
    model = init_model(num_users, num_items, dim, draw(st.sampled_from([0.0, 0.1])), gen,
                       init_std=0.7)
    n = draw(st.integers(1, 8))
    batch = TripletBatch(gen.integers(num_users, size=n), gen.integers(num_items, size=n),
                         gen.integers(num_items, size=n))
    users = np.concatenate([[0, 1], 2 + np.flatnonzero(gen.random(num_users - 2) < 0.5)])
    candidates, counts, noise = [], [], []
    for row in range(users.shape[0]):
        width = int(gen.integers(1, num_items // 2 + 1))
        candidates.append(gen.permutation(num_items)[:width])
        counts.append(max(int(gen.integers(0, width + 1)), int(row < 2)))
        noise.append(gen.gumbel(size=width))
    masks = GroupMaskSet(
        gender=np.eye(2, dtype=np.int8)[np.arange(num_users) % 2].T,
        age=np.eye(7, dtype=np.int8)[np.arange(num_users) % 7].T,
        popularity=np.eye(2, dtype=np.int8)[np.arange(num_items) % 2].T,
        # every item in genre i % 3, some in others too
        genre=((gen.random((3, num_items)) < 0.5)
               | np.eye(3, dtype=bool)[np.arange(num_items) % 3].T).astype(np.int8))
    return (model, batch, flat_context(candidates, counts, users=users),
            flat_context(candidates, counts, users=users, noise=noise), masks)


class TestSparseGradientContract:
    """Every objective's gradient holds sorted, unique rows of the stacked
    (U+I)-row parameters, one gradient row each, and scattered to the
    flattened parameters it equals the dense gradient it replaced."""

    @pytest.mark.parametrize("objective", objectives.OBJECTIVE_IDS)
    @settings(max_examples=40, deadline=None)
    @given(world=sparse_worlds())
    def test_rows_and_dense_oracle(self, objective, world):
        from unittest import mock

        model, batch, consumer, producer, masks = world
        config = TrainConfig(ndcg_k=3, steepness=1.0, temperature=0.25)
        seen = []
        chain = objectives._embedding_grad

        def recording(model, ctx, d_entries):
            seen.append(dense_embedding_grad(model, ctx, d_entries))
            return chain(model, ctx, d_entries)

        with mock.patch.object(objectives, "_embedding_grad", recording):
            result = fairness_grad(objective, model, masks, triplet_batch=batch,
                                   consumer_ctx=consumer, producer_ctx=producer,
                                   config=config, forwards={}, pool=None)
        rows = result.rows
        assert rows.dtype == np.int64
        assert np.all(np.diff(rows) > 0)
        assert rows.size == 0 or 0 <= rows[0] <= rows[-1] < model.num_users + model.num_items
        assert result.grad.shape == (rows.shape[0], model.dim)
        if objective == "bpr":
            oracle = dense_bpr_grad(model, batch)
            np.testing.assert_array_equal(dense_gradient(model, result), oracle)
        else:
            # no seen entry: dL/dG was zero and the zero gradient returned early
            oracle = seen[0] if seen else np.zeros(model.params.size)
            np.testing.assert_allclose(dense_gradient(model, result), oracle,
                                       rtol=0, atol=1e-12)


    # one context row per d-score block, a few, and all of them
    @pytest.mark.parametrize("pair_block", [1, 20, objectives.PAIR_BLOCK])
    @settings(max_examples=40, deadline=None)
    @given(world=sparse_worlds(), seed=st.integers(0, 2 ** 32 - 1))
    def test_embedding_grad_blocks_match_dense_oracle(self, pair_block, world, seed):
        from unittest import mock

        model, _, consumer, producer, _ = world
        gen = np.random.default_rng(seed)
        for ctx in (consumer, producer):
            d_entries = np.append(gen.normal(size=ctx.items.shape[0]), gen.normal())
            with mock.patch.object(objectives, "PAIR_BLOCK", pair_block):
                rows, grad = objectives._embedding_grad(model, ctx, d_entries)
            result = ObjectiveGradient("gender", 0.0, rows, grad)
            np.testing.assert_allclose(dense_gradient(model, result),
                                       dense_embedding_grad(model, ctx, d_entries),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("users", [[1, 1], [1, 0]])
    def test_repeated_or_unsorted_context_users_rejected(self, users):
        # _embedding_grad keeps one row per context user, so a context built
        # over anything but distinct ascending users fails loudly
        model = init_model(2, 4, 2, 0.0, np.random.default_rng(0), init_std=0.7)
        ctx = flat_context([[0, 1], [2, 3]], [1, 1], users=users)
        with pytest.raises(ValueError, match="sorted, unique row id"):
            ObjectiveGradient("gender", 0.0,
                              *objectives._embedding_grad(model, ctx, np.ones(5)))


class TestDispatcher:
    @staticmethod
    def call(objective, model, masks, consumer_ctx=None, producer_ctx=None,
             config=TrainConfig()):
        """``fairness_grad`` as a training step calls it, on a fresh forward."""
        return fairness_grad(objective, model, masks, triplet_batch=None,
                             consumer_ctx=consumer_ctx, producer_ctx=producer_ctx,
                             config=config, forwards={}, pool=None)

    def test_unknown_objective(self, synthetic_masks):
        model = FactorModel(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="unknown objective"):
            self.call("novelty", model, synthetic_masks)

    def test_consumer_dispatch(self, synthetic_dataset, synthetic_masks):
        rng = np.random.default_rng(1)
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 2, 0.0, rng)
        ctx = build_consumer_context(synthetic_dataset, np.arange(6), 5,
                                     derived_rng(1, 2))
        out = self.call("gender", model, synthetic_masks, consumer_ctx=ctx,
                        config=TrainConfig(ndcg_k=3, candidate_negatives=5))
        assert out.objective_id == "gender"
        assert out.grad.shape == (out.rows.shape[0], model.dim)

    def test_producer_dispatch(self, synthetic_dataset, synthetic_masks):
        rng = np.random.default_rng(2)
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 2, 0.0, rng)
        ctx = build_producer_context(synthetic_dataset, np.arange(6), 5, 8,
                                     derived_rng(2, 3))
        out = self.call("popularity", model, synthetic_masks, producer_ctx=ctx,
                        config=TrainConfig(temperature=0.1))
        assert out.objective_id == "popularity"


class TestContextBuilders:
    """The context builders' contract: per row the train positives (capped
    on the producer side), then min(k, free) distinct non-positives,
    ascending, uniform over the sets of that size."""

    def test_consumer_candidates_start_with_positives(self, synthetic_dataset):
        rng = np.random.default_rng(4)
        users = np.arange(5)
        ctx = build_consumer_context(synthetic_dataset, users, 7, rng)
        lists = positive_lists(synthetic_dataset)
        for row, u in enumerate(users):
            n_pos = int(ctx.counts[row])
            np.testing.assert_array_equal(context_rows(ctx)[row][:n_pos], lists[u])
            for j in context_rows(ctx)[row][n_pos:]:
                assert int(j) not in lists[u]

    def test_producer_relevant_capped(self, synthetic_dataset):
        rng = np.random.default_rng(5)
        ctx = build_producer_context(synthetic_dataset, np.arange(5), 3, 6, rng)
        assert np.all(ctx.counts <= 3)
        assert ctx.noise.shape == ctx.items.shape

    def test_deterministic(self, synthetic_dataset):
        a = build_consumer_context(synthetic_dataset, np.arange(4), 6,
                                   np.random.default_rng(6))
        b = build_consumer_context(synthetic_dataset, np.arange(4), 6,
                                   np.random.default_rng(6))
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.widths, b.widths)

    @pytest.fixture(scope="class")
    def dataset(self, synthetic_dataset):
        # user 0 holds every item, user 1 all but three
        n = synthetic_dataset.num_items
        kept = np.setdiff1d(np.arange(n), positive_lists(synthetic_dataset)[1])[3:]
        return with_train_positives(synthetic_dataset, [0] * n + [1] * kept.shape[0],
                                    np.concatenate([np.arange(n), kept]))

    # the synthetic users keep 9 to 16 non-positives: at k = 4 every one
    # draws its negatives; at 7 most draw the ones they leave out; at 12 some
    # take all and the others draw what they leave out
    @pytest.mark.parametrize("k", [4, 7, 12])
    @pytest.mark.parametrize("cap", [None, 4])
    def test_contract(self, dataset, k, cap):
        users = np.arange(dataset.num_users)

        def build(gen):
            if cap is None:
                return build_consumer_context(dataset, users, k, gen)
            return build_producer_context(dataset, users, cap, k, gen)

        ctx, again = (build(derived_rng(k, 0 if cap is None else cap)) for _ in range(2))
        for field in ("users", "items", "widths", "counts", "noise"):
            assert np.array_equal(getattr(ctx, field), getattr(again, field))
        assert ctx.noise.shape == (ctx.items.shape if cap else (0,))
        lists = positive_lists(dataset)
        catalog = np.arange(dataset.num_items)
        free = [dataset.num_items - lists[u].shape[0] for u in users]
        assert free[0] == 0 and free[1] == 3
        np.testing.assert_array_equal(ctx.users, users)
        np.testing.assert_array_equal(ctx.widths, ctx.counts + np.minimum(k, free))
        for row, (u, entries) in enumerate(zip(users, context_rows(ctx), strict=True)):
            n_pos = int(ctx.counts[row])
            np.testing.assert_array_equal(entries[:n_pos], lists[u][:cap])
            negatives = entries[n_pos:]
            assert np.all(np.diff(negatives) > 0)
            assert not np.isin(negatives, lists[u]).any()
            if free[row] <= k:
                np.testing.assert_array_equal(negatives, np.setdiff1d(catalog, lists[u]))
        assert ctx.widths[0] == ctx.counts[0]  # the saturated user has no negatives

    @pytest.mark.parametrize("k", [3, 4])  # 4 of 6 draws the two left out
    def test_subsets_uniform(self, k):
        # one user with six non-positives, drawn in 20 000 rows at once
        positives = [0, 2, 5, 7]
        num_items, rows = 10, 20_000
        dataset = InteractionDataset(1, num_items, np.zeros(4, dtype=np.int64),
                                     np.array(positives), np.zeros(4, dtype=np.int64),
                                     np.full(4, TRAIN), np.arange(1), np.arange(num_items))
        ctx = build_consumer_context(dataset, np.zeros(rows, dtype=np.int64), k,
                                     np.random.default_rng(11))
        np.testing.assert_array_equal(ctx.widths, 4 + k)
        negatives = ctx.items.reshape(rows, 4 + k)[:, 4:]
        subsets = {s: n for n, s in enumerate(itertools.combinations(
            sorted(set(range(num_items)) - set(positives)), k))}
        counts = np.bincount([subsets[tuple(row)] for row in negatives.tolist()],
                             minlength=len(subsets))
        assert stats.chisquare(counts).pvalue > 0.01
