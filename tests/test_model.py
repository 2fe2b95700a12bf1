import os

import numpy as np
import pytest
from scipy import stats

from moofair.model import (
    CHECKPOINT_FILE,
    FactorModel,
    TripletBatch,
    attach_negatives,
    bpr_grad,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from moofair.data import TRAIN, DataFormatError, save_npz
from moofair.metrics import top_k_items
from moofair.numerics import sigmoid
from conftest import (dense_gradient, finite_difference_error, positive_lists,
                      with_train_positives)


def tiny_model(user_rows, item_rows, reg=0.0):
    return FactorModel(np.asarray(user_rows, dtype=float),
                       np.asarray(item_rows, dtype=float), reg)


class TestFactorModel:
    def test_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        model = init_model(4, 6, 3, 0.1, rng)
        theta = model.flatten()
        other = init_model(4, 6, 3, 0.1, np.random.default_rng(99))
        users = other.user_embeddings
        other.set_flat(theta)
        # set_flat writes in place, so earlier views see the new values
        assert np.array_equal(users, model.user_embeddings)
        assert np.array_equal(other.item_embeddings, model.item_embeddings)
        assert theta.shape == ((4 + 6) * 3,)

    def test_embeddings_are_views_of_the_stacked_parameters(self):
        model = tiny_model([[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(model.params, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        model.params[2] -= 1.0
        np.testing.assert_array_equal(model.item_embeddings[1], [4.0, 5.0])
        model.user_embeddings[0] *= 2.0
        np.testing.assert_array_equal(model.params[0], [2.0, 4.0])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            tiny_model([[1.0, 0.0]], [[1.0, 0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            tiny_model([[np.nan]], [[1.0]])

    def test_init_statistics(self):
        model = init_model(200, 200, 25, 0.0, np.random.default_rng(5))
        flat = model.flatten()
        assert abs(flat.mean()) < 1e-3
        assert flat.std() == pytest.approx(0.01, rel=0.05)


def score(model, user, k):
    """The top-k items of ``user`` as evaluation ranks them, and their scores."""
    none = np.empty(0, dtype=np.int64)
    lists, top = top_k_items(model, np.array([user]), k, none, none)
    return lists[0], top[0]


class TestScore:
    """Relevance is the user-item inner product, as evaluation scores it."""

    def test_unit_inner_product(self):
        model = tiny_model([[1.0, 0.0]], [[1.0, 0.0]])
        np.testing.assert_array_equal(score(model, 0, 1)[1], [1.0])

    def test_zero_user(self):
        model = tiny_model([[0.0, 0.0]], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(score(model, 0, 2)[1], [0.0, 0.0])

    def test_known_value(self):
        model = tiny_model([[1.0, 2.0]], [[3.0, 4.0]])
        np.testing.assert_array_equal(score(model, 0, 1)[1], [11.0])

    def test_out_of_range(self):
        model = tiny_model([[1.0]], [[1.0]])
        with pytest.raises(IndexError):
            score(model, 3, 1)
        with pytest.raises(IndexError):
            top_k_items(model, np.array([0]), 1, np.array([0]), np.array([5]))

    def test_bilinear_in_user(self):
        rng = np.random.default_rng(1)
        model = init_model(3, 8, 4, 0.0, rng)
        items, base = score(model, 1, 8)
        np.testing.assert_allclose(base, model.item_embeddings[items]
                                   @ model.user_embeddings[1], rtol=1e-12)
        model.user_embeddings[1] *= 2.5
        scaled_items, scaled = score(model, 1, 8)
        np.testing.assert_array_equal(scaled_items, items)
        np.testing.assert_allclose(scaled, 2.5 * base)


def bpr_loss(model, triples):
    """The loss half of ``bpr_grad``."""
    return bpr_grad(model, triples).loss


def batch(users, pos, neg):
    return TripletBatch(np.asarray(users, dtype=np.int64),
                        np.asarray(pos, dtype=np.int64),
                        np.asarray(neg, dtype=np.int64))


class TestBprLoss:
    def test_zero_margins(self):
        model = tiny_model(np.zeros((3, 2)), np.zeros((4, 2)))
        b = batch([0, 1, 2], [0, 1, 2], [3, 3, 3])
        assert bpr_loss(model, b) == pytest.approx(3 * np.log(2.0))

    def test_saturated_margin_leaves_reg_only(self):
        model = tiny_model([[100.0]], [[1.0], [-1.0]], reg=0.5)
        b = batch([0], [0], [1])
        expected_reg = 0.5 * (100.0**2 + 1.0 + 1.0)
        assert bpr_loss(model, b) == pytest.approx(expected_reg, rel=1e-12)

    def test_single_triple(self):
        model = tiny_model([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        b = batch([0], [0], [1])
        assert bpr_loss(model, b) == pytest.approx(-np.log(sigmoid(1.0)), abs=1e-12)
        assert bpr_loss(model, b) == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_positive_unless_saturated(self):
        rng = np.random.default_rng(2)
        model = init_model(5, 7, 3, 0.0, rng)
        b = batch([0, 1], [2, 3], [4, 5])
        assert bpr_loss(model, b) > 0.0

    def test_touched_regularizer_counts_each_embedding_once(self):
        model = tiny_model(np.ones((2, 1)), np.ones((3, 1)), reg=1.0)
        b = batch([0, 0], [1, 1], [2, 2])  # same embeddings twice
        margins_term = 2 * np.logaddexp(0.0, 0.0)
        reg_term = 1.0 * (1.0 + 1.0 + 1.0)  # user 0, items 1 and 2
        assert bpr_loss(model, b) == pytest.approx(margins_term + reg_term)

    def test_empty_batch_rejected(self):
        model = tiny_model([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            bpr_loss(model, batch([], [], []))


class TestBprGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        model = init_model(5, 6, 3, 0.01, rng, init_std=0.5)
        b = batch([0, 1, 2, 3, 4, 0], [0, 1, 2, 3, 4, 5],
                  [1, 2, 3, 4, 5, 0])
        result = bpr_grad(model, b)
        assert finite_difference_error(model, result,
                                       lambda probe: bpr_grad(probe, b).loss) <= 1e-5

    def test_saturated_gradient_vanishes(self):
        model = tiny_model([[50.0]], [[1.0], [-1.0]])
        result = bpr_grad(model, batch([0], [0], [1]))
        np.testing.assert_allclose(result.grad, 0.0, atol=1e-12)

    def test_item_block_antisymmetric(self):
        model = tiny_model([[0.3, -0.2]], [[0.5, 0.1], [0.4, 0.2]])
        result = bpr_grad(model, batch([0], [0], [1]))
        item_block = dense_gradient(model, result)[2:].reshape(2, 2)
        np.testing.assert_allclose(item_block[0], -item_block[1], atol=1e-15)

    def test_untouched_entries_zero(self):
        rng = np.random.default_rng(4)
        model = init_model(4, 9, 2, 0.1, rng)
        result = bpr_grad(model, batch([1], [2], [3]))
        # user 1 and items 2 and 3, stacked after the 4 users
        np.testing.assert_array_equal(result.rows, [1, 4 + 2, 4 + 3])
        grad_items = dense_gradient(model, result)[4 * 2:].reshape(9, 2)
        for item in set(range(9)) - {2, 3}:
            np.testing.assert_array_equal(grad_items[item], 0.0)

    def test_loss_value_matches_bpr_loss(self):
        rng = np.random.default_rng(5)
        model = init_model(4, 5, 3, 0.2, rng, init_std=0.3)
        b = batch([0, 1], [1, 2], [3, 4])
        u, v = model.user_embeddings, model.item_embeddings
        margins = np.einsum("ij,ij->i", u[[0, 1]], v[[1, 2]] - v[[3, 4]])
        expected = (np.sum(-np.log(sigmoid(margins)))
                    + 0.2 * (np.sum(u[[0, 1]] ** 2) + np.sum(v[[1, 2, 3, 4]] ** 2)))
        assert bpr_grad(model, b).loss == pytest.approx(expected, rel=1e-12)


class TestNegativeSampling:
    def test_forced_outcome(self, synthetic_dataset):
        ds = synthetic_dataset
        # craft a user whose train positives cover all items but one
        target_user = 0
        positives = set(positive_lists(ds)[target_user].tolist())
        missing = next(i for i in range(ds.num_items) if i not in positives)
        ds_full = with_train_positives(ds, [target_user] * (ds.num_items - 1),
                                       np.delete(np.arange(ds.num_items), missing))
        out = attach_negatives(ds_full, np.random.default_rng(0),
                               np.array([target_user]), np.array([0]))
        assert out.neg_items[0] == missing

    def test_saturated_user_skipped_with_warning(self, synthetic_dataset, caplog):
        import logging

        ds = synthetic_dataset
        # user 1's train positives cover the whole catalog
        ds_full = with_train_positives(ds, [1] * ds.num_items, np.arange(ds.num_items))
        with caplog.at_level(logging.WARNING):
            out = attach_negatives(ds_full, np.random.default_rng(0),
                                   np.array([1, 2]), np.array([0, 0]))
        assert "no unobserved items" in caplog.text
        assert out.size == 1
        assert out.users[0] == 2

    def test_deterministic(self, synthetic_dataset):
        users, items = synthetic_dataset.split_pairs(TRAIN)
        a = attach_negatives(synthetic_dataset, np.random.default_rng(3),
                             users[:10], items[:10])
        b = attach_negatives(synthetic_dataset, np.random.default_rng(3),
                             users[:10], items[:10])
        assert np.array_equal(a.pos_items, b.pos_items)
        assert np.array_equal(a.neg_items, b.neg_items)

    def test_negatives_not_positives(self, synthetic_dataset):
        users, items = synthetic_dataset.split_pairs(TRAIN)
        out = attach_negatives(synthetic_dataset, np.random.default_rng(4),
                               users, items)
        assert out.size == users.shape[0]
        lists = positive_lists(synthetic_dataset)
        for u, j in zip(out.users, out.neg_items):
            assert int(j) not in lists[u]

    def test_negatives_uniform_over_non_positives(self, synthetic_dataset):
        ds = synthetic_dataset
        user = 0
        positives = set(positive_lists(ds)[user].tolist())
        complement = sorted(set(range(ds.num_items)) - positives)
        out = attach_negatives(ds, np.random.default_rng(5),
                               np.full(10**5, user), np.zeros(10**5, dtype=np.int64))
        counts = np.bincount(out.neg_items, minlength=ds.num_items)[complement]
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = init_model(4, 5, 3, 0.01, np.random.default_rng(6))
        save_checkpoint(model, str(tmp_path / "ckpt"), {"seed": 6, "epoch": 2})
        assert sorted(os.listdir(tmp_path / "ckpt")) == [CHECKPOINT_FILE, "metadata.txt"]
        loaded, meta = load_checkpoint(str(tmp_path / "ckpt"))
        assert np.array_equal(loaded.user_embeddings, model.user_embeddings)
        assert np.array_equal(loaded.item_embeddings, model.item_embeddings)
        assert loaded.reg == model.reg
        assert meta["seed"] == "6"
        assert meta["epoch"] == "2"

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope"))

    def test_csv_checkpoint_of_earlier_version(self, tmp_path):
        # no reader for the CSV layout: the checkpoint is simply not there
        (tmp_path / "user_embeddings.csv").write_text("0.5,0.25\n")
        with pytest.raises(FileNotFoundError, match=f"not found: .*{CHECKPOINT_FILE}"):
            load_checkpoint(str(tmp_path))

    @pytest.mark.parametrize("key, value", [
        ("reg", None),
        ("item_embeddings", None),
        ("user_embeddings", np.zeros(3)),
        ("item_embeddings", np.zeros((5, 2))),
        ("user_embeddings", np.full((4, 3), np.inf)),
        ("reg", np.float64(-1.0)),
    ])
    def test_bad_array_names_file(self, tmp_path, key, value):
        model = init_model(4, 5, 3, 0.01, np.random.default_rng(6))
        arrays = {"user_embeddings": model.user_embeddings,
                  "item_embeddings": model.item_embeddings, "reg": np.float64(0.01)}
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
        save_npz(str(tmp_path / CHECKPOINT_FILE), arrays)
        with pytest.raises(DataFormatError, match=CHECKPOINT_FILE):
            load_checkpoint(str(tmp_path))

    def test_failed_write_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        model = init_model(4, 5, 3, 0.01, np.random.default_rng(6))
        save_checkpoint(model, str(tmp_path), {"epoch": 1})
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np.lib.format, "write_array", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(init_model(4, 5, 3, 0.01, np.random.default_rng(7)),
                            str(tmp_path), {"epoch": 2})
        assert {name: (tmp_path / name).read_bytes()
                for name in os.listdir(tmp_path)} == before
