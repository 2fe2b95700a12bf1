
import csv
import hashlib
import logging
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moofair.cli import DEFAULT_GRID, main
from moofair.data import (
    TRAIN,
    VAL,
    build_masks,
    preprocess,
    save_bundle,
    write_csv,
)
from conftest import FIELD_BOUNDS, dense_gradient, dominates, make_raw, tagged_dataset
from moofair.training import AlphaTrace, TrainConfig, run_pareto_rounds, train_round

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


@pytest.fixture
def pool():
    """The one-worker pool a training round shares each step with."""
    with ThreadPoolExecutor(max_workers=1) as executor:
        yield executor


class TestTrainConfig:
    def test_requires_bpr_first(self):
        with pytest.raises(ValueError, match="start with 'bpr'"):
            TrainConfig(objectives=("gender",))

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objectives"):
            TrainConfig(objectives=("bpr", "novelty"))

    def test_fixed_weights_length_must_match(self):
        with pytest.raises(ValueError, match="fixed_weights length"):
            TrainConfig(objectives=("bpr", "gender"), fixed_weights=(1.0,))

    def test_mode_is_not_a_field(self):
        # fixed_weights alone selects fixed-weight training
        with pytest.raises(TypeError, match="mode"):
            TrainConfig(objectives=("bpr", "gender"), mode="fixed_weights")
        config = TrainConfig(objectives=("bpr", "gender"), fixed_weights=(1, 0))
        assert config.fixed_weights == (1.0, 0.0)
        assert TrainConfig(objectives=("bpr", "gender")).fixed_weights is None

    def test_fixed_weights_must_be_simplex(self):
        with pytest.raises(ValueError):
            TrainConfig(objectives=("bpr", "gender"), fixed_weights=(0.7, 0.7))

    def test_normalization_auto(self):
        # a lone configured objective steps along its gradient as it is; with
        # several configured, the gradients are scaled to unit length
        from moofair.training import _combine_gradients

        results = TestCombineGradients.results([3.0, 4.0])
        _, _, direction, _ = _combine_gradients(results, TrainConfig(objectives=("bpr",)))
        assert direction is results[0].grad
        results = TestCombineGradients.results([3.0, 4.0], [0.0, 0.0])
        _, _, direction, _ = _combine_gradients(results,
                                                TrainConfig(objectives=("bpr", "gender")))
        np.testing.assert_allclose(direction, [[0.6, 0.8]], rtol=1e-12)

    @pytest.mark.parametrize("name, rejected, accepted", FIELD_BOUNDS)
    def test_field_ranges(self, name, rejected, accepted):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**{name: rejected})
        assert getattr(TrainConfig(**{name: accepted}), name) == accepted

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=float("nan"))

    @pytest.mark.parametrize("name", ["learning_rate", "temperature", "steepness",
                                      "reg", "exposure_patience"])
    def test_infinity_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TrainConfig(**{name: float("inf")})

    def test_huge_int_seed_accepted(self):
        assert TrainConfig(seed=10 ** 400).seed == 10 ** 400

    def test_missing_mask_detected(self):
        config = TrainConfig(objectives=("bpr", "gender", "genre"))
        with pytest.raises(ValueError, match=r"\['gender', 'genre'\]"):
            config.validate_masks({})

    def test_missing_mask_rejected_before_any_batch(self, synthetic_dataset,
                                                    synthetic_masks, monkeypatch):
        from moofair import training

        batches = []
        monkeypatch.setattr(training, "attach_negatives", lambda *args: batches.append(args))
        masks = {name: synthetic_masks[name] for name in ("age", "popularity", "genre")}
        config = TrainConfig(objectives=("bpr", "gender", "popularity"), **TINY)
        with pytest.raises(ValueError, match=r"\['gender'\]"):
            train_round(synthetic_dataset, masks, config)
        assert batches == []


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

    def test_last_epoch_is_validated(self, synthetic_dataset, synthetic_masks,
                                     monkeypatch):
        # epoch 3 is no multiple of eval_every but the last: with a recall
        # that rises at every check, its model is the one returned
        from moofair import training

        checked = []

        def rising(model, dataset, k):
            checked.append(model.flatten())
            return float(len(checked))

        monkeypatch.setattr(training, "_validation_recall", rising)
        config = TrainConfig(objectives=("bpr",), **{**TINY, "epochs_max": 3,
                                                     "eval_every": 2})
        result = train_round(synthetic_dataset, synthetic_masks, config)
        assert result.best_epoch == 3
        assert result.val_recall == len(checked) == 2
        np.testing.assert_array_equal(result.model.flatten(), checked[-1])

    def test_zero_weight_fairness_matches_bpr_only(self, synthetic_dataset,
                                                   synthetic_masks, pool):
        # with weight 0 on fairness, a batch's step is BPR alone's step scaled
        # to unit length (a pair steps along unit-length gradients)
        from moofair.model import attach_negatives, init_model
        from moofair.training import (GRAD_NORM_EPS, _combine_gradients,
                                      _objective_results, _round_streams)

        def step(config):
            init_gen, batch_gen, ctx_gen = _round_streams(config.seed, 0)
            model = init_model(synthetic_dataset.num_users, synthetic_dataset.num_items,
                               config.dim, config.reg, init_gen)
            users, items = synthetic_dataset.split_pairs(0)
            batch = attach_negatives(synthetic_dataset, batch_gen, users[:64], items[:64])
            results = _objective_results(model, synthetic_dataset, synthetic_masks,
                                         config, batch, ctx_gen, pool)
            alpha, rows, direction, fw_used = _combine_gradients(results, config)
            dense = np.zeros((model.num_users + model.num_items, model.dim))
            dense[rows] = direction
            return alpha, dense, fw_used, results[1:]

        _, bpr_only, _, _ = step(TrainConfig(objectives=("bpr",), **TINY))
        alpha, zero_fair, fw_used, (fair,) = step(
            TrainConfig(objectives=("bpr", "gender"), fixed_weights=(1.0, 0.0), **TINY))
        assert fair is not None and np.linalg.norm(fair.grad) > 0.0
        np.testing.assert_array_equal(alpha, [1.0, 0.0])
        assert not fw_used
        np.testing.assert_allclose(
            zero_fair, bpr_only / (np.linalg.norm(bpr_only) + GRAD_NORM_EPS),
            rtol=1e-12, atol=1e-15)
        result = train_round(synthetic_dataset, synthetic_masks, TrainConfig(
            objectives=("bpr", "gender"), fixed_weights=(1.0, 0.0), **TINY))
        assert result.fw_calls == 0


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
                                                    synthetic_masks, pool):
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
                                     config, batch, ctx_gen, pool)
        grads = [dense_gradient(model, r) / (np.linalg.norm(r.grad) + 1e-12)
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

    def test_skipped_objective_logged_once_per_round(self, synthetic_dataset,
                                                     synthetic_masks, caplog):
        # an all-zero genre mask is valid, and it routes no exposure in any batch
        masks = {**synthetic_masks, "genre": np.zeros_like(synthetic_masks["genre"])}
        config = TrainConfig(objectives=("bpr", "genre"),
                             **{**TINY, "rounds": 2, "epochs_max": 2})
        with caplog.at_level(logging.WARNING):
            _, results = run_pareto_rounds(synthetic_dataset, masks, config)
        lines = [r.getMessage() for r in caplog.records if "genre" in r.getMessage()]
        steps = [len(result.trace.entries) for result in results]
        assert min(steps) > 1
        assert lines == [f"round {r}: genre skipped in {n} of {n} batches"
                         for r, n in enumerate(steps, start=1)]


    def test_contexts_hold_only_users_with_positives(self, synthetic_dataset,
                                                     synthetic_masks, monkeypatch):
        # the fairness kernels take every context row to have train
        # positives: so does every context a round builds, for its training
        # and its final-value batches
        from moofair import training

        counts = {}
        for name in ("build_consumer_context", "build_producer_context"):
            def recorded(*args, build=getattr(training, name), name=name):
                ctx = build(*args)
                counts.setdefault(name, []).append(int(ctx.counts.min()))
                return ctx

            monkeypatch.setattr(training, name, recorded)
        config = TrainConfig(objectives=("bpr", "gender", "age", "popularity", "genre"),
                             **{**TINY, "epochs_max": 2})
        result = train_round(synthetic_dataset, synthetic_masks, config)
        for name in ("build_consumer_context", "build_producer_context"):
            assert len(counts[name]) > len(result.trace.entries)
            assert min(counts[name]) >= 1


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
                                            synthetic_masks, pool):
        from moofair.objectives import (
            build_consumer_context,
            build_producer_context,
            fairness_grad,
        )
        from moofair.training import ZERO_GRAD_TOL, _objective_results

        config, model, batch = self.batch_world(synthetic_dataset)
        shared = _objective_results(model, synthetic_dataset, synthetic_masks,
                                    config, batch, np.random.default_rng(5), pool)
        gen = np.random.default_rng(5)
        users = np.unique(batch.users)
        consumer = build_consumer_context(synthetic_dataset, users,
                                          config.candidate_negatives, gen)
        producer = build_producer_context(synthetic_dataset, users, config.n_r_cap,
                                          config.candidate_negatives, gen)
        for objective, result in zip(config.objectives, shared):
            fresh = fairness_grad(objective, model, synthetic_masks,
                                  triplet_batch=batch, consumer_ctx=consumer,
                                  producer_ctx=producer, config=config,
                                  forwards={}, pool=None)
            assert result.objective_id == objective
            assert np.linalg.norm(fresh.grad) > ZERO_GRAD_TOL
            assert result.loss == pytest.approx(fresh.loss, rel=1e-10, abs=1e-10)
            np.testing.assert_array_equal(result.rows, fresh.rows)
            np.testing.assert_allclose(result.grad, fresh.grad, rtol=1e-10,
                                       atol=1e-10)

    def test_fairness_rows_are_batch_users_then_catalog(self, synthetic_dataset,
                                                        synthetic_masks, pool):
        # the contexts hold each batch user once, ascending, so every
        # fairness gradient has one row per distinct batch user
        from moofair.training import _objective_results

        config, model, batch = self.batch_world(synthetic_dataset)
        users = np.unique(batch.users)
        assert users.shape[0] < batch.users.shape[0]  # the batch repeats users
        results = _objective_results(model, synthetic_dataset, synthetic_masks,
                                     config, batch, np.random.default_rng(5), pool)
        expected = np.concatenate([users, model.num_users + np.arange(model.num_items)])
        for result in results[1:]:
            np.testing.assert_array_equal(result.rows, expected)

    def test_each_family_forward_runs_once_per_batch(self, synthetic_dataset,
                                                     synthetic_masks,
                                                     monkeypatch, pool):
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
                                     config, batch, np.random.default_rng(5), pool)
        assert all(r is not None for r in results)
        assert calls == {"_consumer_forward": 1, "_producer_forward": 1}


class TestSmoothRankFields:
    """Each smooth-ranking field, moved off its default, changes its family's
    one-batch loss or gradient: a field that cancels out is no setting."""

    @pytest.mark.parametrize("name, value, objective", [
        ("ndcg_k", 3, "gender"),
        ("steepness", 5.0, "gender"),
        ("candidate_negatives", 4, "gender"),
        ("temperature", 0.1, "popularity"),
        ("exposure_patience", 0.8, "popularity"),
        ("n_r_cap", 3, "popularity"),
        ("candidate_negatives", 4, "popularity"),
    ])
    def test_moved_field_changes_result(self, synthetic_dataset, synthetic_masks, pool,
                                        name, value, objective):
        from moofair.model import attach_negatives, init_model
        from moofair.training import _objective_results

        def one_batch(**moved):
            config = TrainConfig(objectives=("bpr", objective), **moved)
            gen = np.random.default_rng(0)
            model = init_model(synthetic_dataset.num_users, synthetic_dataset.num_items,
                               config.dim, config.reg, gen, init_std=1.0)
            users, items = synthetic_dataset.split_pairs(TRAIN)
            batch = attach_negatives(synthetic_dataset, gen, users[:64], items[:64])
            return _objective_results(model, synthetic_dataset, synthetic_masks, config,
                                      batch, np.random.default_rng(5), pool)[1]

        base, moved = one_batch(), one_batch(**{name: value})
        assert base.loss != pytest.approx(moved.loss, rel=1e-9) or not (
            np.array_equal(base.rows, moved.rows)
            and np.allclose(moved.grad, base.grad, rtol=1e-9,
                            atol=1e-9 * np.abs(base.grad).max()))


class TestThreadedStep:
    OBJECTIVES = ("bpr", "gender", "popularity")

    def test_worker_exception_propagates_and_round_cleans_up(
            self, synthetic_dataset, synthetic_masks, monkeypatch, blas_threads):
        from moofair import objectives

        raised_on = []

        def failing(*args, **kwargs):
            raised_on.append(threading.current_thread())
            raise RuntimeError("producer objective failed")

        monkeypatch.setattr(objectives, "producer_fairness_grad", failing)
        threads_before = threading.active_count()
        config = TrainConfig(objectives=self.OBJECTIVES, **TINY)
        with pytest.raises(RuntimeError, match="producer objective failed"):
            train_round(synthetic_dataset, synthetic_masks, config)
        assert raised_on and raised_on[0] is not threading.main_thread()
        assert blas_threads() == 2
        assert threading.active_count() == threads_before

    def test_consumer_block_exception_on_worker_propagates(
            self, synthetic_dataset, synthetic_masks, monkeypatch, blas_threads):
        from moofair import objectives

        pair_sigmoids = objectives._pair_sigmoids
        taken = threading.Event()

        def failing_on_worker(*args, **kwargs):
            if kwargs:  # a producer block, written into the slope
                return pair_sigmoids(*args, **kwargs)
            if threading.current_thread() is threading.main_thread():
                taken.wait(timeout=10)  # hold the caller until the worker took a block
                return pair_sigmoids(*args)
            taken.set()
            raise RuntimeError("consumer block failed")

        monkeypatch.setattr(objectives, "PAIR_BLOCK", 100)
        monkeypatch.setattr(objectives, "_pair_sigmoids", failing_on_worker)
        threads_before = threading.active_count()
        config = TrainConfig(objectives=self.OBJECTIVES, **TINY)
        with pytest.raises(RuntimeError, match="consumer block failed"):
            train_round(synthetic_dataset, synthetic_masks, config)
        assert taken.is_set()
        assert blas_threads() == 2
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("schedule", ["as_is", "worker_late", "caller_late"])
    def test_shared_blocks_match_serial_families(self, synthetic_dataset, synthetic_masks,
                                                 monkeypatch, pool, schedule):
        """The consumer blocks give bit-identical results whichever thread
        runs each of them, against every family run on one thread."""
        from moofair import objectives
        from moofair.model import attach_negatives, init_model
        from moofair.numerics import one_blas_thread
        from moofair.training import ZERO_GRAD_TOL, _objective_results

        config = TrainConfig(objectives=("bpr", "gender", "age", "popularity"), **TINY)
        gen = np.random.default_rng(0)
        # unit scale: the consumer backward runs
        model = init_model(synthetic_dataset.num_users, synthetic_dataset.num_items,
                           config.dim, config.reg, gen, init_std=1.0)
        users, items = synthetic_dataset.split_pairs(TRAIN)
        idx = gen.permutation(users.shape[0])[:config.batch_size]
        batch = attach_negatives(synthetic_dataset, gen, users[idx], items[idx])
        monkeypatch.setattr(objectives, "PAIR_BLOCK", 100)  # many consumer blocks

        def serial():
            gen = np.random.default_rng(5)
            users = np.unique(batch.users)
            consumer = objectives.build_consumer_context(
                synthetic_dataset, users, config.candidate_negatives, gen)
            producer = objectives.build_producer_context(
                synthetic_dataset, users, config.n_r_cap, config.candidate_negatives, gen)
            forwards = {}
            return [objectives.fairness_grad(o, model, synthetic_masks,
                                             triplet_batch=batch, consumer_ctx=consumer,
                                             producer_ctx=producer, config=config,
                                             forwards=forwards, pool=None)
                    for o in config.objectives], len(forwards["consumer"][1])

        with one_blas_thread():
            expected, forward_blocks = serial()
            block_threads = []
            pair_sigmoids = objectives._pair_sigmoids
            producer_forward = objectives._producer_forward

            def recording(*args, **kwargs):
                if kwargs:  # a producer block, written into the slope
                    return pair_sigmoids(*args, **kwargs)
                on_caller = threading.current_thread() is threading.main_thread()
                block_threads.append(on_caller)
                if on_caller and schedule == "caller_late":
                    time.sleep(0.005)
                return pair_sigmoids(*args)

            def late_producer(*args):
                time.sleep(0.2)
                return producer_forward(*args)

            monkeypatch.setattr(objectives, "_pair_sigmoids", recording)
            if schedule == "worker_late":
                monkeypatch.setattr(objectives, "_producer_forward", late_producer)
            shared = _objective_results(model, synthetic_dataset, synthetic_masks,
                                        config, batch, np.random.default_rng(5), pool)
        assert forward_blocks > 10
        if schedule == "worker_late":  # the worker sleeps through the forward
            assert all(block_threads[:forward_blocks])
        if schedule == "caller_late":
            assert block_threads.count(False) > block_threads.count(True)
        for result, fresh in zip(shared, expected):
            assert result.objective_id == fresh.objective_id
            assert np.linalg.norm(fresh.grad) > ZERO_GRAD_TOL
            assert result.loss == fresh.loss
            assert np.array_equal(result.rows, fresh.rows)
            assert np.array_equal(result.grad, fresh.grad)

    def test_one_blas_thread_during_the_step(self, synthetic_dataset, synthetic_masks,
                                             monkeypatch, blas_threads):
        from moofair import objectives

        seen = []
        consumer_grad = objectives.consumer_fairness_grad

        def recording(*args, **kwargs):
            seen.append(blas_threads())
            return consumer_grad(*args, **kwargs)

        monkeypatch.setattr(objectives, "consumer_fairness_grad", recording)
        config = TrainConfig(objectives=self.OBJECTIVES, **{**TINY, "epochs_max": 1})
        train_round(synthetic_dataset, synthetic_masks, config)
        assert seen and set(seen) == {1}
        assert blas_threads() == 2


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
def grid_bundle(tmp_path_factory):
    """Bundle where every user has 20+ unseen items, as the grid's
    evaluation at k = 20 needs."""
    raw = make_raw(seed=1, num_users=25, num_core_items=60, num_tail_items=20,
                   max_positives=20)
    dataset = preprocess(raw)
    path = tmp_path_factory.mktemp("grid") / "bundle"
    save_bundle(str(path), dataset, build_masks(dataset, raw))
    return path


class TestGridSearch:
    def test_requires_two_objectives(self, grid_bundle, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main(["grid", "--bundle", str(grid_bundle), "--out", str(out),
                     "--objectives", "bpr"])
        assert code == 2
        assert "two objectives" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_row_count(self, grid_bundle, tmp_path):
        out = tmp_path / "grid"
        grid = DEFAULT_GRID[:3]
        code = main(["grid", "--bundle", str(grid_bundle), "--out", str(out),
                     "--objectives", "bpr,popularity",
                     "--grid", ",".join(map(str, grid)),
                     "--rounds", "1", "--epochs", "1", "--seed", "0"])
        assert code == 0
        rows = list(csv.DictReader((out / "frontier.csv").read_text().splitlines()))
        assert [row["weight"] for row in rows] == [*map(str, grid), "mgda"]
        for row in rows:
            assert 0.0 <= float(row["recall_at_20"]) <= 1.0

    def test_small_catalog_exits_before_training(self, tmp_path, capsys):
        # make_raw(seed=0) leaves some test users fewer than 20 unseen items
        raw = make_raw(seed=0)
        dataset = preprocess(raw)
        bundle = tmp_path / "bundle"
        save_bundle(str(bundle), dataset, build_masks(dataset, raw))
        out = tmp_path / "grid"
        code = main(["grid", "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr,popularity", "--grid", "0.9,0.5",
                     "--rounds", "2", "--epochs", "3"])
        assert code == 2
        assert "error: grid: catalog too small" in capsys.readouterr().err
        assert not out.exists()

    def test_full_weight_on_bpr_equals_baseline(self, synthetic_dataset, synthetic_masks):
        # a grid point of `moofair grid` at weight 1 on bpr trains like the
        # BPR baseline of a pair, the unit-length BPR gradient, whichever
        # objective has weight 0
        gender, popularity = (
            train_round(synthetic_dataset, synthetic_masks,
                        TrainConfig(objectives=("bpr", other), fixed_weights=(1.0, 0.0),
                                    **TINY))
            for other in ("gender", "popularity"))
        assert np.array_equal(gender.model.user_embeddings, popularity.model.user_embeddings)
        assert np.array_equal(gender.model.item_embeddings, popularity.model.item_embeddings)
        assert gender.best_epoch == popularity.best_epoch
        assert gender.fw_calls == popularity.fw_calls == 0


class TestCombineGradients:
    @staticmethod
    def results(*grads):
        """One-row gradients (row 0) of the given vectors; None is skipped."""
        from moofair.model import ObjectiveGradient

        return [None if g is None else
                ObjectiveGradient("o", 1.0, np.array([0]), np.asarray(g, float)[None, :])
                for g in grads]

    def test_single_active_gradient_is_the_direction(self):
        # scaled to unit length, as three objectives are configured; the
        # solver runs on the one active gradient and weights it exactly 1
        from moofair.training import GRAD_NORM_EPS, _combine_gradients

        results = self.results([3.0, 4.0], [0.0, 0.0], None)
        config = TrainConfig(objectives=("bpr", "gender", "age"))
        alpha, rows, direction, fw_used = _combine_gradients(results, config)
        np.testing.assert_allclose(direction, [[0.6, 0.8]], rtol=1e-12)
        np.testing.assert_array_equal(direction, results[0].grad / (5.0 + GRAD_NORM_EPS))
        np.testing.assert_array_equal(rows, [0])
        np.testing.assert_array_equal(alpha, [1.0, 0.0, 0.0])
        assert fw_used

    def test_fixed_weights_keep_every_weight(self):
        from moofair.training import _combine_gradients

        results = self.results([3.0, 4.0], [0.0, 0.0], [1.0, 0.0])
        config = TrainConfig(objectives=("bpr", "gender", "age"),
                             fixed_weights=(0.5, 0.3, 0.2))
        alpha, rows, direction, fw_used = _combine_gradients(results, config)
        np.testing.assert_array_equal(alpha, [0.5, 0.3, 0.2])
        np.testing.assert_array_equal(rows, [0])
        # the unit-length gradients (0.6, 0.8) and (1, 0), weighted
        np.testing.assert_allclose(direction, [[0.5 * 0.6 + 0.2, 0.5 * 0.8]], rtol=1e-12)
        assert not fw_used

    @pytest.mark.parametrize("fixed_weights, expected",
                             [(None, [0.0, 0.0, 0.0]), ((0.5, 0.3, 0.2), [0.5, 0.3, 0.2])])
    def test_no_active_objective_takes_no_step(self, fixed_weights, expected):
        # MGDA gives every flat or skipped objective weight zero; fixed
        # weights stay as configured, so each alpha row sums to 1
        from moofair.training import _combine_gradients

        results = self.results([0.0, 0.0], [0.0, 0.0], None)
        config = TrainConfig(objectives=("bpr", "gender", "age"), fixed_weights=fixed_weights)
        alpha, rows, direction, fw_used = _combine_gradients(results, config)
        np.testing.assert_array_equal(alpha, expected)
        assert rows.shape == (0,) and direction.shape == (0, 2)
        assert not fw_used
        # the trace keeps each batch's alpha as returned, without a copy
        again = _combine_gradients(results, config)[0]
        assert alpha.dtype == np.float64 and not np.shares_memory(alpha, again)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.booleans())
    def test_union_of_rows_matches_dense_stack(self, seed, t, fixed):
        # oracle: the dense step over the flattened parameters that the
        # sparse-row one replaced (stack, scale to unit length, solve, combine)
        from moofair.model import ObjectiveGradient
        from moofair.solver import frank_wolfe_solve
        from moofair.training import GRAD_NORM_EPS, _combine_gradients

        gen = np.random.default_rng(seed)
        num_rows, dim = 12, 3
        results, dense = [], []
        for _ in range(t):
            rows = np.flatnonzero(gen.random(num_rows) < 0.4)
            grad = gen.normal(size=(rows.shape[0], dim))
            results.append(ObjectiveGradient("o", 1.0, rows, grad))
            full = np.zeros((num_rows, dim))
            full[rows] = grad
            dense.append(full.ravel())
        weights = gen.dirichlet(np.ones(t)) if fixed else None
        config = TrainConfig(objectives=("bpr", "gender", "age", "popularity")[:t],
                             fixed_weights=None if weights is None else tuple(weights))
        alpha, rows, direction, _ = _combine_gradients(results, config)
        active = [k for k in range(t) if np.linalg.norm(dense[k]) > 1e-10]
        assert np.all(np.diff(rows) > 0)
        g = np.stack([dense[k] for k in active]) if active else np.zeros((0, num_rows * dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True) + GRAD_NORM_EPS
        if not fixed and len(active) > 1:
            np.testing.assert_allclose(alpha[active], frank_wolfe_solve(g @ g.T).values,
                                       rtol=1e-9, atol=1e-12)
        expected = (alpha[active] @ g).reshape(num_rows, dim)
        scattered = np.zeros((num_rows, dim))
        scattered[rows] = direction
        np.testing.assert_allclose(scattered, expected, rtol=0, atol=1e-12)


class TestGoldenResults:
    """Pinned results of seed-0 rounds on the synthetic fixture, so that a
    silent change of results fails here: a BPR-only round exactly, and an
    MGDA round to 1e-10 relative. A deliberate change updates these values
    and names them in CHANGES.md. (The fixture leaves some users only 7
    unseen items, so evaluation is at k = 5.)"""

    def test_bpr_round(self, synthetic_dataset, synthetic_masks):
        # BPR alone steps along its raw gradient, summed in a fixed order, so
        # the values are pinned exactly; the best model is the epoch-2
        # snapshot, so restoring it is covered
        from moofair.metrics import evaluate

        config = TrainConfig(objectives=("bpr",), **{**TINY, "epochs_max": 4})
        result = train_round(synthetic_dataset, synthetic_masks, config)
        assert result.best_epoch == 2
        assert result.record.objective_values.tolist() == [38.121020159060684]
        model = result.model
        digest = hashlib.sha256(model.user_embeddings.tobytes()
                                + model.item_embeddings.tobytes()).hexdigest()
        assert digest == "01f6b19902919846946a348623c77cd19102247b59ab2a210bca717f2db20f53"
        row, = evaluate(model, synthetic_dataset, synthetic_masks, k_values=(5,))
        assert {key: row[key] for key in ("recall", "ndcg", "disparity_u", "disparity_i",
                                          "gini", "popularity_rate", "diversity")} == {
            "recall": 0.5094444444444445, "ndcg": 0.5124803580550367,
            "disparity_u": 0.05112131862610297, "disparity_i": 0.0038270320268239105,
            "gini": 0.2192, "popularity_rate": 0.12, "diversity": 0.7918568232662192}

    def test_mgda_round(self, synthetic_dataset, synthetic_masks):
        from moofair.metrics import evaluate

        config = TrainConfig(objectives=("bpr", "gender", "popularity"),
                             **{**TINY, "epochs_max": 4})
        result = train_round(synthetic_dataset, synthetic_masks, config)
        assert result.fw_calls == 28
        np.testing.assert_allclose(
            result.record.objective_values,
            [38.115461824929426, 7.153137482365455e-05, 0.43869498094517895], rtol=1e-10)
        np.testing.assert_allclose(
            np.mean([alpha for _, _, alpha in result.trace.entries], axis=0),
            [0.35553348844026106, 0.28422526735991377, 0.3602412441998251], rtol=1e-10)
        row, = evaluate(result.model, synthetic_dataset, synthetic_masks, k_values=(5,))
        np.testing.assert_allclose(
            [row["recall"], row["ndcg"], row["disparity_i"]],
            [0.5066666666666666, 0.5346096346664857, 0.013485952133194585], rtol=1e-10)

    def test_five_objective_round(self, synthetic_dataset, synthetic_masks):
        # two objectives per fairness family, so each family's shared forward
        # serves a second objective; each of those takes part in training
        from moofair.metrics import evaluate

        config = TrainConfig(objectives=("bpr", "gender", "age", "popularity", "genre"),
                             **{**TINY, "epochs_max": 4})
        result = train_round(synthetic_dataset, synthetic_masks, config)
        assert result.fw_calls == 28
        np.testing.assert_allclose(
            result.record.objective_values,
            [38.12186348528361, 7.133018077197562e-05, 0.00015637247813114858,
             0.4387877226889452, 0.21856260031178162], rtol=1e-10)
        alphas = np.array([alpha for _, _, alpha in result.trace.entries])
        np.testing.assert_allclose(
            alphas.mean(axis=0),
            [0.29458729431988023, 0.161445878942824, 0.17176502164520233,
             0.19020416398303902, 0.18199764110905445], rtol=1e-10)
        assert alphas.shape[0] == 28
        assert np.all(np.count_nonzero(alphas[:, 1:] > 0, axis=0) >= 20)
        row, = evaluate(result.model, synthetic_dataset, synthetic_masks, k_values=(5,))
        np.testing.assert_allclose(
            [row["recall"], row["ndcg"], row["disparity_i"]],
            [0.5161111111111111, 0.5229154040816635, 0.0024997109492426867], rtol=1e-10)


class TestStepMemory:
    def test_bpr_step_allocates_under_a_quarter_of_the_parameters(self, monkeypatch):
        # one batch of 800 BPR pairs touches at most 1 800 of 50 200 rows, so
        # the step (gradient, direction and update) must not allocate (U+I)*d
        from moofair import training

        num_users, num_items, dim = 200, 50_000, 16
        gen = np.random.default_rng(0)
        users = np.repeat(np.arange(num_users), 5)
        items = np.concatenate([gen.choice(num_items, 5, replace=False)
                                for _ in range(num_users)])
        dataset = tagged_dataset(num_users, num_items, users, items,
                                 np.tile([TRAIN] * 4 + [VAL], num_users))
        config = TrainConfig(objectives=("bpr",), dim=dim, batch_size=1024,
                             epochs_max=1, eval_every=1)
        attach = training.attach_negatives
        peaks = []

        class StepDone(Exception):
            pass

        def traced_attach(*args):
            batch = attach(*args)
            tracemalloc.start()
            return batch

        def stop_at_validation(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise StepDone

        monkeypatch.setattr(training, "attach_negatives", traced_attach)
        monkeypatch.setattr(training, "_validation_recall", stop_at_validation)
        try:
            with pytest.raises(StepDone):
                train_round(dataset, {}, config)
        finally:
            tracemalloc.stop()
        dense_bytes = (num_users + num_items) * dim * 8
        assert len(peaks) == 1
        assert peaks[0] < dense_bytes / 4


class TestAlphaTrace:
    def test_csv_round_trip(self, tmp_path):
        trace = AlphaTrace()
        trace.entries += [(1, 0, np.array([0.3, 0.7])), (1, 1, np.array([0.4, 0.6]))]
        path = tmp_path / "alpha.csv"
        write_csv(str(path), ["epoch", "batch", "alpha_bpr", "alpha_gender"],
                  ([epoch, batch, *alpha] for epoch, batch, alpha in trace.entries))
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,batch,alpha_bpr,alpha_gender"
        assert lines[1] == "1,0,0.3,0.7"
        assert lines[2] == "1,1,0.4,0.6"
