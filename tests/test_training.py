import numpy as np
import pytest

from moofair.data import TRAIN, GroupMaskSet, build_masks, preprocess
from conftest import FIELD_BOUNDS, dominates, make_raw
from moofair.training import (
    DEFAULT_GRID,
    AlphaTrace,
    TrainConfig,
    grid_search,
    run_pareto_rounds,
    train_round,
)

TINY = dict(
    learning_rate=0.05,
    reg=1e-4,
    batch_size=64,
    dim=4,
    epochs_max=6,
    eval_every=2,
    early_stop_patience=10,
    ndcg_k=5,
    candidate_negatives=8,
    n_r_cap=5,
    temperature=0.05,
    seed=0,
    rounds=1,
)


class TestTrainConfig:
    def test_requires_bpr_first(self):
        with pytest.raises(ValueError, match="start with 'bpr'"):
            TrainConfig(objectives=("gender",))

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objectives"):
            TrainConfig(objectives=("bpr", "novelty"))

    def test_fixed_mode_needs_weights(self):
        with pytest.raises(ValueError, match="fixed_weights"):
            TrainConfig(objectives=("bpr", "gender"), mode="fixed_weights")

    def test_weights_without_fixed_mode_rejected(self):
        # mgda would train and silently ignore them
        with pytest.raises(ValueError, match="fixed_weights"):
            TrainConfig(objectives=("bpr", "gender"), fixed_weights=(0.9, 0.1))

    def test_fixed_weights_must_be_simplex(self):
        with pytest.raises(ValueError):
            TrainConfig(objectives=("bpr", "gender"), mode="fixed_weights",
                        fixed_weights=(0.7, 0.7))

    def test_normalization_auto(self):
        assert TrainConfig(objectives=("bpr",)).resolved_normalization() == "none"
        assert TrainConfig(objectives=("bpr", "gender")).resolved_normalization() == "l2"

    @pytest.mark.parametrize("name, rejected, accepted", FIELD_BOUNDS)
    def test_field_ranges(self, name, rejected, accepted):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**{name: rejected})
        assert getattr(TrainConfig(**{name: accepted}), name) == accepted

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=float("nan"))

    def test_missing_mask_detected(self):
        config = TrainConfig(objectives=("bpr", "gender"))
        with pytest.raises(ValueError, match="gender"):
            config.validate_masks(GroupMaskSet())


class TestSingleObjective:
    def test_alpha_is_always_one(self, synthetic_dataset, synthetic_masks):
        config = TrainConfig(objectives=("bpr",), **TINY)
        result = train_round(synthetic_dataset, synthetic_masks, config)
        for _, _, alpha in result.trace.entries:
            np.testing.assert_array_equal(alpha, [1.0])
        assert result.fw_calls == 0

    def test_training_improves_validation_recall(self, synthetic_dataset,
                                                 synthetic_masks):
        config = TrainConfig(objectives=("bpr",), **{**TINY, "epochs_max": 30,
                                                     "eval_every": 5})
        result = train_round(synthetic_dataset, synthetic_masks, config)
        untrained = TrainConfig(objectives=("bpr",), **{**TINY, "epochs_max": 1,
                                                        "eval_every": 1})
        baseline = train_round(synthetic_dataset, synthetic_masks, untrained)
        assert result.val_recall >= baseline.val_recall

    def test_zero_weight_fairness_matches_bpr_only(self, synthetic_dataset,
                                                   synthetic_masks):
        shared = {**TINY, "grad_normalization": "none"}
        bpr_only = TrainConfig(objectives=("bpr",), **shared)
        zero_fair = TrainConfig(objectives=("bpr", "gender"),
                                mode="fixed_weights", fixed_weights=(1.0, 0.0),
                                **shared)
        a = train_round(synthetic_dataset, synthetic_masks, bpr_only)
        b = train_round(synthetic_dataset, synthetic_masks, zero_fair)
        assert np.array_equal(a.model.user_embeddings, b.model.user_embeddings)
        assert np.array_equal(a.model.item_embeddings, b.model.item_embeddings)
        assert b.fw_calls == 0


class TestMultiObjective:
    def test_alpha_on_simplex_and_bounded_by_diag(self, synthetic_dataset,
                                                  synthetic_masks):
        config = TrainConfig(objectives=("bpr", "popularity"), **TINY)
        result = train_round(synthetic_dataset, synthetic_masks, config)
        assert result.fw_calls > 0
        for _, _, alpha in result.trace.entries:
            assert np.all(alpha >= 0.0)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-9)

    def test_min_norm_never_exceeds_single_gradient(self, synthetic_dataset,
                                                    synthetic_masks):
        # recompute one batch by hand and check alpha' M alpha <= min diag
        from moofair.model import attach_negatives, init_model
        from moofair.solver import frank_wolfe_solve, gram_matrix
        from moofair.training import _objective_results, _round_streams

        config = TrainConfig(objectives=("bpr", "gender", "popularity"), **TINY)
        init_gen, batch_gen, ctx_gen = _round_streams(config.seed, 0)
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, config.dim,
                           config.reg, init_gen)
        users, items = synthetic_dataset.split_pairs(0)
        batch = attach_negatives(synthetic_dataset, batch_gen,
                                 users[:64], items[:64])
        results = _objective_results(model, synthetic_dataset, synthetic_masks,
                                     config, batch, ctx_gen)
        grads = [r.grad / (np.linalg.norm(r.grad) + 1e-12)
                 for r in results if r is not None]
        m = gram_matrix(grads)
        weights = frank_wolfe_solve(m)
        value = float(weights.values @ m @ weights.values)
        assert value <= float(np.min(np.diag(m))) + 1e-9

    def test_all_four_fairness_objectives_run(self, synthetic_dataset,
                                              synthetic_masks):
        config = TrainConfig(
            objectives=("bpr", "gender", "age", "popularity", "genre"),
            **{**TINY, "epochs_max": 2},
        )
        result = train_round(synthetic_dataset, synthetic_masks, config)
        assert result.record.objective_values.shape == (5,)
        assert np.all(np.isfinite(result.record.objective_values))


class TestSharedForwards:
    OBJECTIVES = ("bpr", "gender", "age", "popularity", "genre")

    def batch_world(self, dataset):
        from moofair.model import attach_negatives, init_model

        config = TrainConfig(objectives=self.OBJECTIVES, **TINY)
        gen = np.random.default_rng(0)
        # a unit-scale init keeps the consumer soft cutoffs (and so the
        # gender and age gradients) away from exactly 0
        model = init_model(dataset.num_users, dataset.num_items, config.dim,
                           config.reg, gen, init_std=1.0)
        users, items = dataset.split_pairs(TRAIN)
        idx = gen.permutation(users.shape[0])[:config.batch_size]
        batch = attach_negatives(dataset, gen, users[idx], items[idx])
        return config, model, batch

    def test_matches_single_objective_calls(self, synthetic_dataset,
                                            synthetic_masks):
        from moofair.objectives import (
            build_consumer_context,
            build_producer_context,
            fairness_grad,
        )
        from moofair.training import ZERO_GRAD_TOL, _objective_results

        config, model, batch = self.batch_world(synthetic_dataset)
        shared = _objective_results(model, synthetic_dataset, synthetic_masks,
                                    config, batch, np.random.default_rng(5))
        gen = np.random.default_rng(5)
        users = np.unique(batch.users)
        consumer = build_consumer_context(synthetic_dataset, users,
                                          config.candidate_negatives, gen)
        producer = build_producer_context(synthetic_dataset, users, config.n_r_cap,
                                          config.candidate_negatives, gen)
        for objective, result in zip(config.objectives, shared):
            fresh = fairness_grad(objective, model, synthetic_masks,
                                  triplet_batch=batch, consumer_ctx=consumer,
                                  producer_ctx=producer, config=config)
            assert result.objective_id == objective
            assert np.linalg.norm(fresh.grad) > ZERO_GRAD_TOL
            assert result.loss == pytest.approx(fresh.loss, rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(result.grad, fresh.grad, rtol=1e-10,
                                       atol=1e-10)

    def test_each_family_forward_runs_once_per_batch(self, synthetic_dataset,
                                                     synthetic_masks,
                                                     monkeypatch):
        from moofair import objectives
        from moofair.training import _objective_results

        calls = {"_consumer_forward": 0, "_producer_forward": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(objectives, name),
                         **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(objectives, name, counting)
        config, model, batch = self.batch_world(synthetic_dataset)
        results = _objective_results(model, synthetic_dataset, synthetic_masks,
                                     config, batch, np.random.default_rng(5))
        assert all(r is not None for r in results)
        assert calls == {"_consumer_forward": 1, "_producer_forward": 1}


class TestDeterminism:
    def test_identical_seeds_bit_identical(self, synthetic_dataset, synthetic_masks):
        config = TrainConfig(objectives=("bpr", "popularity"), **TINY)
        a = train_round(synthetic_dataset, synthetic_masks, config)
        b = train_round(synthetic_dataset, synthetic_masks, config)
        assert np.array_equal(a.model.user_embeddings, b.model.user_embeddings)
        assert np.array_equal(a.model.item_embeddings, b.model.item_embeddings)
        assert len(a.trace.entries) == len(b.trace.entries)
        for (e1, b1, al1), (e2, b2, al2) in zip(a.trace.entries, b.trace.entries):
            assert (e1, b1) == (e2, b2)
            assert np.array_equal(al1, al2)
        assert np.array_equal(a.record.objective_values, b.record.objective_values)

    def test_different_seeds_differ(self, synthetic_dataset, synthetic_masks):
        config_a = TrainConfig(objectives=("bpr",), **TINY)
        config_b = TrainConfig(objectives=("bpr",), **{**TINY, "seed": 9})
        a = train_round(synthetic_dataset, synthetic_masks, config_a)
        b = train_round(synthetic_dataset, synthetic_masks, config_b)
        assert not np.array_equal(a.model.user_embeddings, b.model.user_embeddings)


class TestParetoRounds:
    def test_single_round_selected(self, synthetic_dataset, synthetic_masks):
        config = TrainConfig(objectives=("bpr",), **TINY)
        selected, results = run_pareto_rounds(synthetic_dataset, synthetic_masks,
                                              config)
        assert len(results) == 1
        assert selected.round_id == 1

    def test_rounds_get_distinct_seeds(self, synthetic_dataset, synthetic_masks):
        config = TrainConfig(objectives=("bpr",), **{**TINY, "rounds": 3,
                                                     "epochs_max": 2})
        selected, results = run_pareto_rounds(synthetic_dataset, synthetic_masks,
                                              config)
        assert [r.record.round_id for r in results] == [1, 2, 3]
        assert not np.array_equal(results[0].model.user_embeddings,
                                  results[1].model.user_embeddings)
        assert selected.round_id in (1, 2, 3)

    def test_selection_consistent_with_dominance(self, synthetic_dataset,
                                                 synthetic_masks):
        config = TrainConfig(objectives=("bpr", "popularity"),
                             **{**TINY, "rounds": 3, "epochs_max": 2})
        selected, results = run_pareto_rounds(synthetic_dataset, synthetic_masks,
                                              config)
        records = [r.record for r in results]
        for rec in records:
            others = [o for o in records if o.round_id != rec.round_id]
            if all(dominates(rec.objective_values, o.objective_values)
                   for o in others):
                assert selected.round_id == rec.round_id

    def test_deterministic_selection(self, synthetic_dataset, synthetic_masks):
        config = TrainConfig(objectives=("bpr",), **{**TINY, "rounds": 2,
                                                     "epochs_max": 2})
        s1, _ = run_pareto_rounds(synthetic_dataset, synthetic_masks, config)
        s2, _ = run_pareto_rounds(synthetic_dataset, synthetic_masks, config)
        assert s1.round_id == s2.round_id
        assert np.array_equal(s1.objective_values, s2.objective_values)


@pytest.fixture(scope="module")
def grid_world():
    """Dataset and masks where every user has 20+ unseen items, as the grid's
    evaluation at k = 10, 20 needs."""
    raw = make_raw(seed=1, num_users=25, num_core_items=60, num_tail_items=20,
                   max_positives=20)
    dataset = preprocess(raw)
    return dataset, build_masks(dataset, raw)


class TestGridSearch:
    def test_requires_two_objectives(self, synthetic_dataset, synthetic_masks):
        config = TrainConfig(objectives=("bpr",), **TINY)
        with pytest.raises(ValueError, match="two objectives"):
            grid_search(synthetic_dataset, synthetic_masks, config)

    def test_full_weight_on_bpr_equals_baseline(self, grid_world):
        from moofair.metrics import evaluate

        dataset, masks = grid_world
        shared = {**TINY, "grad_normalization": "none", "epochs_max": 3}
        config = TrainConfig(objectives=("bpr", "popularity"), **shared)
        out = grid_search(dataset, masks, config, weight_grid=(1.0,))
        baseline_cfg = TrainConfig(objectives=("bpr",), **shared)
        baseline = train_round(dataset, masks, baseline_cfg)
        rows = evaluate(baseline.model, dataset, masks, label="grid_1")
        (weights, grid_rows, _), = out
        assert weights == (1.0, 0.0)
        for grid_row, row in zip(grid_rows, rows):
            assert grid_row["recall"] == row["recall"]
            assert grid_row["ndcg"] == row["ndcg"]

    def test_grid_row_count(self, grid_world):
        config = TrainConfig(objectives=("bpr", "popularity"),
                             **{**TINY, "epochs_max": 1})
        out = grid_search(*grid_world, config, weight_grid=DEFAULT_GRID[:3])
        assert len(out) == 3
        for weights, rows, result in out:
            assert weights[0] + weights[1] == pytest.approx(1.0)
            assert [row["k"] for row in rows] == [10, 20]
            assert result.fw_calls == 0


class TestAlphaTrace:
    def test_csv_round_trip(self, tmp_path):
        trace = AlphaTrace(("bpr", "gender"))
        trace.append(1, 0, np.array([0.3, 0.7]))
        trace.append(1, 1, np.array([0.4, 0.6]))
        path = tmp_path / "alpha.csv"
        trace.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,batch,alpha_bpr,alpha_gender"
        assert lines[1] == "1,0,0.3,0.7"
        assert lines[2] == "1,1,0.4,0.6"
