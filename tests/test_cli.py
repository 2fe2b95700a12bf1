import csv
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from moofair.cli import CliError, main, parse_config_file
from moofair.data import BUNDLE_FILE, TEST, TRAIN, load_bundle, save_bundle, save_npz
from moofair.metrics import build_recommendations, disparity_item, disparity_user
from moofair.model import CHECKPOINT_FILE, FactorModel, load_checkpoint, save_checkpoint
from moofair.training import TrainConfig, train_round
from conftest import FIELD_BOUNDS, GENRES, dataset_rows, make_raw, tagged_dataset


@pytest.fixture(scope="module")
def tsv_corpus(tmp_path_factory):
    """Synthetic rating log written in the generic TSV layout.

    Large enough that every user still has 20+ unseen items for the
    fixed-depth frontier comparison.
    """
    root = tmp_path_factory.mktemp("corpus")
    raw = make_raw(seed=1, num_users=25, num_core_items=60, num_tail_items=20,
                   max_positives=20)
    with open(root / "ratings.tsv", "w") as fh:
        for u, i, r, t in zip(raw.users, raw.items, raw.ratings, raw.timestamps):
            fh.write(f"{u}\t{i}\t{r:g}\t{t}\n")
    with open(root / "users.tsv", "w") as fh:
        for u in sorted(raw.user_gender):
            fh.write(f"{u}\t{raw.user_gender[u]}\t{raw.user_age[u]}\n")
    with open(root / "items.tsv", "w") as fh:
        for i in sorted(raw.item_genres):
            names = "|".join(GENRES[g] for g in raw.item_genres[i])
            fh.write(f"{i}\t{names}\n")
    return root


@pytest.fixture(scope="module")
def bundle(tsv_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("out") / "bundle"
    code = main(["prepare", "--format", "generic_tsv",
                 "--in", str(tsv_corpus), "--out", str(out)])
    assert code == 0
    return out


TRAIN_ARGS = ["--objectives", "bpr,popularity", "--rounds", "1",
              "--epochs", "2", "--seed", "3"]


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "learning_rate = 0.05\n"
        "batch_size = 64\n"
        "dim = 4\n"
        "eval_every = 1\n"
        "ndcg_k = 5\n"
        "candidate_negatives = 8\n"
        "temperature = 0.05\n"
        "# comment lines are fine\n"
    )
    return path


class TestPrepare:
    def test_outputs_written(self, bundle):
        assert sorted(os.listdir(bundle)) == ["bundle.npz", "stats.txt"]
        with np.load(bundle / "bundle.npz", allow_pickle=False) as arrays:
            assert set(arrays.files) == {"items", "indptr", "user_ids", "item_ids",
                                         "mask_gender", "mask_age", "mask_genre"}
            assert arrays["indptr"].dtype == np.int64

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["prepare", "--format", "ml100k",
                     "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: ratings file not found: {tmp_path / 'nope' / 'u.data'}\n")
        assert not (tmp_path / "o").exists()

    def test_rerun_identical_bytes(self, tsv_corpus, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["prepare", "--format", "generic_tsv",
                     "--in", str(tsv_corpus), "--out", str(out_a)]) == 0
        assert main(["prepare", "--format", "generic_tsv",
                     "--in", str(tsv_corpus), "--out", str(out_b)]) == 0
        assert sorted(os.listdir(out_a)) == ["bundle.npz", "stats.txt"]
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_rating_line_exits_2_with_file_and_line(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "u.data").write_text("1\t10\t5\t100\n1\t11\tx\t200\n")
        code = main(["prepare", "--format", "ml100k", "--in", str(raw),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {raw / 'u.data'}:2: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_nothing_left_after_filtering_exits_2(self, tmp_path, capsys):
        (tmp_path / "ratings.tsv").write_text("1\t10\t5\t100\n")
        code = main(["prepare", "--format", "generic_tsv",
                     "--in", str(tmp_path / "ratings.tsv"), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: no interactions remain")


class TestTrain:
    def test_end_to_end(self, bundle, tiny_config, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(tiny_config)] + TRAIN_ARGS)
        assert code == 0
        assert sorted(os.listdir(out / "round_1")) == ["embeddings.npz", "metadata.txt"]
        assert (out / "rounds.csv").exists()
        assert (out / "selection.txt").exists()
        trace = (out / "alpha_trace_round_1.csv").read_text().splitlines()
        assert trace[0] == "epoch,batch,alpha_bpr,alpha_popularity"
        assert len(trace) > 1
        assert not (out / ".moofair.lock").exists()
        # without --weights the rounds train with MGDA weights
        rounds = list(csv.DictReader((out / "rounds.csv").read_text().splitlines()))
        assert list(rounds[0]) == ["round", "loss_bpr", "loss_popularity",
                                   "val_recall_at_20", "fw_calls", "checkpoint"]
        assert int(rounds[0]["fw_calls"]) > 0

    def test_single_objective_selection(self, bundle, tiny_config, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(tiny_config), "--objectives", "bpr",
                     "--rounds", "1", "--epochs", "1"])
        assert code == 0
        assert "selected_round = 1" in (out / "selection.txt").read_text()

    def test_fixed_mode_never_calls_solver(self, bundle, tiny_config, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(tiny_config),
                     "--objectives", "bpr,popularity", "--weights", "0.5,0.5",
                     "--rounds", "1", "--epochs", "1"])
        assert code == 0
        rows = (out / "rounds.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert "fw_calls" in header
        assert rows[1].split(",")[header.index("fw_calls")] == "0"

    def test_unmeasured_objective_is_an_empty_cell(self, bundle, tiny_config, tmp_path):
        # an all-zero genre mask routes no exposure in any final-value batch:
        # genre is unmeasured, NaN and an empty cell, not 0 (perfect parity)
        dataset, masks = load_bundle(str(bundle))
        masks["genre"] = np.zeros_like(masks["genre"])
        no_genre = tmp_path / "bundle"
        save_bundle(str(no_genre), dataset, masks)
        config = TrainConfig(**parse_config_file(str(tiny_config)),
                             objectives=("bpr", "genre"), epochs_max=1)
        values = train_round(*load_bundle(str(no_genre)), config).record.objective_values
        assert np.isfinite(values[0]) and np.isnan(values[1])
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(no_genre), "--out", str(out),
                     "--config", str(tiny_config), "--objectives", "bpr,genre",
                     "--rounds", "2", "--epochs", "1"])
        assert code == 0
        rounds = list(csv.DictReader((out / "rounds.csv").read_text().splitlines()))
        assert [row["loss_genre"] for row in rounds] == ["", ""]
        assert all(float(row["loss_bpr"]) > 0.0 for row in rounds)
        assert "selected_round = " in (out / "selection.txt").read_text()

    def test_mode_flag_and_key_exit_2(self, bundle, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            main(["train", "--bundle", str(bundle), "--out", str(out),
                  "--objectives", "bpr,popularity", "--mode", "fixed",
                  "--weights", "0.9,0.1", "--rounds", "1", "--epochs", "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err
        config = tmp_path / "mode.cfg"
        config.write_text("mode = fixed_weights\nfixed_weights = 0.9,0.1\n")
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(config), "--objectives", "bpr,popularity"])
        assert code == 2
        assert "unknown key 'mode'" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_weights_exit_2(self, bundle, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr,popularity",
                     "--weights", "0.9,x", "--rounds", "1", "--epochs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fixed_weights = '0.9,x': ") and "'x'" in err
        assert not out.exists()

    def test_negative_weight_exits_2(self, bundle, tmp_path, capsys):
        # a weight a hair below zero, even one the sum tolerance would absorb,
        # would step its objective up
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr,popularity", "--weights", "1.0000000005,-5e-10",
                     "--rounds", "1", "--epochs", "1"])
        assert code == 2
        assert "weights must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_bundle_of_earlier_version_exits_2(self, tmp_path, capsys):
        old = tmp_path / "old"
        old.mkdir()
        (old / "interactions.csv").write_text("user,item,timestamp,split\n")
        code = main(["train", "--bundle", str(old), "--out", str(tmp_path / "run"),
                     "--objectives", "bpr", "--rounds", "1", "--epochs", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: not found: {old / BUNDLE_FILE}\n"
        assert not (tmp_path / "run").exists()

    def test_objective_without_mask_rejected(self, tsv_corpus, tmp_path, capsys):
        # rebuild the corpus without attribute files
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "ratings.tsv").write_text((tsv_corpus / "ratings.tsv").read_text())
        bundle_dir = tmp_path / "bundle"
        assert main(["prepare", "--format", "generic_tsv",
                     "--in", str(bare), "--out", str(bundle_dir)]) == 0
        code = main(["train", "--bundle", str(bundle_dir),
                     "--out", str(tmp_path / "run"),
                     "--objectives", "bpr,gender", "--rounds", "1",
                     "--epochs", "1"])
        assert code == 2
        assert "gender" in capsys.readouterr().err

    def test_determinism_across_runs(self, bundle, tiny_config, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(["train", "--bundle", str(bundle), "--out", str(out),
                         "--config", str(tiny_config)] + TRAIN_ARGS)
            assert code == 0
            outs.append(out)
        for name in ("round_1/embeddings.npz", "round_1/metadata.txt",
                     "alpha_trace_round_1.csv", "rounds.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a.replace(str(outs[0]).encode(), b"@") \
                == b.replace(str(outs[1]).encode(), b"@"), name


class TestEval:
    @pytest.fixture()
    def checkpoint(self, bundle, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(tiny_config), "--objectives", "bpr",
                     "--rounds", "1", "--epochs", "2", "--seed", "0"]) == 0
        return out / "round_1"

    def test_default_two_rows(self, bundle, checkpoint, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["eval", "--bundle", str(bundle),
                     "--checkpoint", str(checkpoint), "--out", str(out),
                     "--k", "3,5"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "3"
        assert lines[2].split(",")[1] == "5"

    def test_single_k(self, bundle, checkpoint, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["eval", "--bundle", str(bundle),
                     "--checkpoint", str(checkpoint), "--out", str(out),
                     "--k", "5"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_missing_checkpoint_exits_2(self, bundle, tmp_path, capsys):
        code = main(["eval", "--bundle", str(bundle),
                     "--checkpoint", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: not found: {tmp_path / 'nope' / CHECKPOINT_FILE}\n")
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--k", "10,x"),
                                             ("--patience", "1.5")])
    def test_bad_depth_or_patience_exits_2(self, bundle, checkpoint, tmp_path,
                                           capsys, flag, value):
        out = tmp_path / "m.csv"
        code = main(["eval", "--bundle", str(bundle), "--checkpoint", str(checkpoint),
                     "--out", str(out), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()

    def test_depth_beyond_catalog_exits_2(self, bundle, checkpoint, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(["eval", "--bundle", str(bundle), "--checkpoint", str(checkpoint),
                     "--out", str(out), "--k", "10,5000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --k: catalog too small to recommend 5000")
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        (lambda mask: mask * 3, "array 'mask_gender' holds values outside {0, 1}"),
        (lambda mask: mask[:, 1:], "array 'mask_gender' has")],
        ids=["tripled", "narrow"])
    def test_bad_attribute_mask_exits_2(self, bundle, checkpoint, tmp_path, capsys,
                                        change, message):
        arrays = bundle_arrays(bundle)
        arrays["mask_gender"] = change(arrays["mask_gender"])
        broken = tmp_path / "bundle"
        broken.mkdir()
        save_npz(str(broken / BUNDLE_FILE), arrays)
        out = tmp_path / "m.csv"
        code = main(["eval", "--bundle", str(broken), "--checkpoint", str(checkpoint),
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_stored_popularity_mask_not_read(self, bundle, checkpoint, tmp_path):
        # a bundle of an earlier version, whose stored popularity mask is stale:
        # eval derives the mask from the train split and writes the same metrics
        arrays = bundle_arrays(bundle)
        dataset, masks = load_bundle(str(bundle))
        older = tmp_path / "bundle"
        older.mkdir()
        save_npz(str(older / BUNDLE_FILE),
                 dict(arrays, mask_popularity=masks["popularity"][::-1],
                      genre_names=np.array(GENRES, dtype=str)))
        for directory, name in ((bundle, "now.csv"), (older, "older.csv")):
            assert main(["eval", "--bundle", str(directory), "--checkpoint", str(checkpoint),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "now.csv").read_bytes() == (tmp_path / "older.csv").read_bytes()

    def test_csv_checkpoint_of_earlier_version_exits_2(self, bundle, tmp_path, capsys):
        old = tmp_path / "round_1"
        old.mkdir()
        (old / "user_embeddings.csv").write_text("0.1,0.2\n")
        code = main(["eval", "--bundle", str(bundle), "--checkpoint", str(old),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: not found: {old / CHECKPOINT_FILE}\n"
        assert not (tmp_path / "m.csv").exists()

    def test_checkpoint_of_another_bundle_exits_2(self, tsv_corpus, checkpoint,
                                                  tmp_path, capsys):
        other = tmp_path / "other"
        (tmp_path / "ratings.tsv").write_text(
            "".join(line for line in (tsv_corpus / "ratings.tsv").read_text()
                    .splitlines(keepends=True) if not line.startswith("1\t")))
        assert main(["prepare", "--format", "generic_tsv",
                     "--in", str(tmp_path / "ratings.tsv"), "--out", str(other)]) == 0
        out = tmp_path / "m.csv"
        code = main(["eval", "--bundle", str(other), "--checkpoint", str(checkpoint),
                     "--out", str(out)])
        assert code == 2
        assert "users x" in capsys.readouterr().err
        assert not out.exists()

    def test_stable_across_reruns(self, bundle, checkpoint, tmp_path):
        outs = []
        for name in ("m1.csv", "m2.csv"):
            out = tmp_path / name
            assert main(["eval", "--bundle", str(bundle),
                         "--checkpoint", str(checkpoint), "--out", str(out),
                         "--k", "5"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestGrid:
    def test_frontier_csv(self, bundle, tiny_config, tmp_path):
        out = tmp_path / "grid"
        code = main(["grid", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(tiny_config),
                     "--objectives", "bpr,popularity",
                     "--grid", "0.9,0.5", "--rounds", "2", "--epochs", "1",
                     "--seed", "0"])
        assert code == 0
        lines = (out / "frontier.csv").read_text().splitlines()
        assert lines[0] == "weight,recall_at_20,inv_disparity"
        assert len(lines) == 1 + 2 + 2  # header + grid points + mgda rounds
        assert lines[1].startswith("0.9,")
        assert lines[3].startswith("mgda,")

    def test_unparsable_grid_exits_2(self, bundle, tmp_path, capsys):
        code = main(["grid", "--bundle", str(bundle), "--out", str(tmp_path / "g"),
                     "--objectives", "bpr,popularity", "--grid", "0.9,x"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --grid = '0.9,x': ")
        assert not (tmp_path / "g").exists()

    def test_rejects_three_objectives(self, bundle, tmp_path, capsys):
        code = main(["grid", "--bundle", str(bundle),
                     "--out", str(tmp_path / "g"),
                     "--objectives", "bpr,gender,popularity"])
        assert code == 2
        assert "two objectives" in capsys.readouterr().err

    @pytest.mark.parametrize("fairness", ["age", "genre"])
    def test_frontier_reports_the_objective_disparity(self, bundle, tiny_config,
                                                      tmp_path, fairness):
        out = tmp_path / "grid"
        flags = dict(objectives=("bpr", fairness), rounds=2, epochs_max=1, seed=0)
        code = main(["grid", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(tiny_config), "--objectives", f"bpr,{fairness}",
                     "--grid", "0.9,0.5", "--rounds", "2", "--epochs", "1", "--seed", "0"])
        assert code == 0
        dataset, masks = load_bundle(str(bundle))
        config = TrainConfig(**{**parse_config_file(str(tiny_config)), **flags})
        models = [train_round(dataset, masks, replace(config, fixed_weights=(w, 1 - w))).model
                  for w in (0.9, 0.5)]
        models += [load_checkpoint(str(out / f"round_{r}"))[0] for r in (1, 2)]
        rows = list(csv.DictReader((out / "frontier.csv").read_text().splitlines()))
        assert [row["weight"] for row in rows] == ["0.9", "0.5", "mgda", "mgda"]
        for row, model in zip(rows, models):
            run = build_recommendations(model, dataset, 20)
            if fairness == "age":
                disparity = disparity_user(run, masks, "age")
            else:
                disparity = disparity_item(run, masks["genre"], config.exposure_patience)
            assert row["inv_disparity"] == f"{1.0 / disparity:.6g}"

    def test_undefined_disparity_is_an_empty_cell(self, bundle, tiny_config, tmp_path):
        # every user in one gender group: the gender disparity is undefined
        dataset, masks = load_bundle(str(bundle))
        masks["gender"] = np.zeros_like(masks["gender"])
        masks["gender"][0] = 1
        one_group = tmp_path / "bundle"
        save_bundle(str(one_group), dataset, masks)
        out = tmp_path / "grid"
        code = main(["grid", "--bundle", str(one_group), "--out", str(out),
                     "--config", str(tiny_config), "--objectives", "bpr,gender",
                     "--grid", "0.5", "--rounds", "1", "--epochs", "1"])
        assert code == 0
        rows = list(csv.DictReader((out / "frontier.csv").read_text().splitlines()))
        assert [(row["weight"], row["inv_disparity"]) for row in rows] == [
            ("0.5", ""), ("mgda", "")]
        assert all(float(row["recall_at_20"]) >= 0.0 for row in rows)

    def test_no_listed_item_in_a_group_is_an_empty_cell(self, bundle, tiny_config,
                                                        tmp_path):
        # an all-zero genre mask is valid, and no list holds an item of a genre
        dataset, masks = load_bundle(str(bundle))
        masks["genre"] = np.zeros_like(masks["genre"])
        no_genre = tmp_path / "bundle"
        save_bundle(str(no_genre), dataset, masks)
        out = tmp_path / "grid"
        code = main(["grid", "--bundle", str(no_genre), "--out", str(out),
                     "--config", str(tiny_config), "--objectives", "bpr,genre",
                     "--grid", "0.5", "--rounds", "1", "--epochs", "1"])
        assert code == 0
        rows = list(csv.DictReader((out / "frontier.csv").read_text().splitlines()))
        assert [(row["weight"], row["inv_disparity"]) for row in rows] == [
            ("0.5", ""), ("mgda", "")]

    def test_config_fixed_weights_keep_mgda_rounds(self, bundle, tiny_config, tmp_path):
        config = tmp_path / "fixed.cfg"
        config.write_text(tiny_config.read_text() + "fixed_weights = 0.5,0.5\n")
        out = tmp_path / "grid"
        code = main(["grid", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(config), "--objectives", "bpr,popularity",
                     "--grid", "0.9", "--rounds", "1", "--epochs", "1"])
        assert code == 0
        rounds = list(csv.DictReader((out / "rounds.csv").read_text().splitlines()))
        assert int(rounds[0]["fw_calls"]) > 0
        frontier = (out / "frontier.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in frontier[1:]] == ["0.9", "mgda"]

    def test_out_of_range_grid_weight_exits_2(self, bundle, tmp_path, capsys):
        code = main(["grid", "--bundle", str(bundle), "--out", str(tmp_path / "g"),
                     "--objectives", "bpr,popularity", "--grid", "0.5,1.5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --grid: ")
        assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("command", ["train", "grid", "eval"])
def test_missing_bundle_exits_2(tmp_path, capsys, command):
    # the loader's message names the missing file, not only its directory
    out = tmp_path / "out"
    args = ["--checkpoint", str(tmp_path)] if command == "eval" else []
    code = main([command, "--bundle", str(tmp_path / "nope"), "--out", str(out), *args])
    assert code == 2
    assert capsys.readouterr().err == f"error: not found: {tmp_path / 'nope' / BUNDLE_FILE}\n"
    assert not out.exists()


def bundle_arrays(bundle):
    """Every array of ``bundle``'s bundle.npz, by name."""
    with np.load(bundle / BUNDLE_FILE, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def kept_rows_bundle(dataset, masks, keep, root):
    """A bundle under ``root`` of the interaction rows of ``dataset`` for
    which ``keep(users, split)`` is true, and a zero-embedding checkpoint of
    its shape."""
    users, items, split = dataset_rows(dataset)
    kept = keep(users, split)
    dataset = tagged_dataset(dataset.num_users, dataset.num_items, users[kept], items[kept],
                             split[kept], dataset.user_ids, dataset.item_ids)
    bundle = root / "bundle"
    save_bundle(str(bundle), dataset, masks)
    checkpoint = root / "checkpoint"
    save_checkpoint(FactorModel(np.zeros((dataset.num_users, 2)),
                                np.zeros((dataset.num_items, 2))), str(checkpoint))
    return bundle, checkpoint


class TestNoTestRows:
    """A bundle without TEST rows loads, but nothing in it can be evaluated."""

    @pytest.fixture()
    def untested(self, synthetic_dataset, synthetic_masks, tmp_path):
        return kept_rows_bundle(synthetic_dataset, synthetic_masks,
                                lambda users, split: split != TEST, tmp_path)

    def test_eval_exits_2(self, untested, tmp_path, capsys):
        bundle, checkpoint = untested
        out = tmp_path / "m.csv"
        code = main(["eval", "--bundle", str(bundle), "--checkpoint", str(checkpoint),
                     "--out", str(out), "--k", "5"])
        assert code == 2
        assert capsys.readouterr().err == "error: no user has test positives to evaluate\n"
        assert not out.exists()

    def test_grid_exits_2_before_training(self, untested, tmp_path, capsys):
        bundle, _ = untested
        out = tmp_path / "g"
        code = main(["grid", "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr,popularity", "--grid", "0.5",
                     "--rounds", "1", "--epochs", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: no user has test positives to evaluate\n"
        assert not out.exists()


class TestNoTrainRows:
    """A bundle without TRAIN rows loads, but nothing in it can be trained."""

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_exits_2_and_writes_nothing(self, synthetic_dataset, synthetic_masks,
                                        tmp_path, capsys, command):
        bundle, _ = kept_rows_bundle(synthetic_dataset, synthetic_masks,
                                     lambda users, split: split != TRAIN, tmp_path)
        out = tmp_path / "run"
        code = main([command, "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr,popularity", "--rounds", "1", "--epochs", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: bundle {bundle} has no train interactions\n"
        assert not out.exists()


def test_eval_of_one_slot_leaves_diversity_empty(synthetic_dataset, synthetic_masks,
                                                 tmp_path):
    # one test user at depth 1 fills one slot: Simpson diversity needs two
    bundle, checkpoint = kept_rows_bundle(
        synthetic_dataset, synthetic_masks,
        lambda users, split: (split != TEST) | (users == users[split == TEST][0]), tmp_path)
    out = tmp_path / "m.csv"
    code = main(["eval", "--bundle", str(bundle), "--checkpoint", str(checkpoint),
                 "--out", str(out), "--k", "1"])
    assert code == 0
    [row] = csv.DictReader(out.read_text().splitlines())
    assert row["diversity"] == "" and row["disparity_u"] == ""


@pytest.mark.parametrize("command", ["train", "eval"])
def test_bundle_of_the_earlier_layout_exits_2(synthetic_dataset, synthetic_masks, tmp_path,
                                              capsys, command):
    # an earlier version stored a user, timestamp and split column per row
    # and no offsets; such a bundle must be prepared again
    bundle, checkpoint = kept_rows_bundle(synthetic_dataset, synthetic_masks,
                                          lambda users, split: split >= 0, tmp_path)
    path = bundle / BUNDLE_FILE
    arrays = bundle_arrays(bundle)
    del arrays["indptr"]
    users, _, split = dataset_rows(synthetic_dataset)
    arrays.update(users=users, timestamps=np.arange(users.shape[0]), split=split.astype(np.int8))
    save_npz(str(path), arrays)
    out = tmp_path / "out"
    args = {"train": ["--out", str(out), "--rounds", "1", "--epochs", "1"],
            "eval": ["--checkpoint", str(checkpoint), "--out", str(out / "m.csv")]}[command]
    code = main([command, "--bundle", str(bundle), *args])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: missing array 'indptr'\n"
    assert not out.exists()


class TestOutputPathNotADirectory:
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["prepare", "train", "grid"])
    def test_exits_2(self, tsv_corpus, bundle, tmp_path, capsys, command, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker / "run" if under else blocker
        args = {"prepare": ["--format", "generic_tsv", "--in", str(tsv_corpus)],
                "train": ["--bundle", str(bundle), *TRAIN_ARGS],
                "grid": ["--bundle", str(bundle), *TRAIN_ARGS, "--grid", "0.5"]}[command]
        code = main([command, *args, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: output path is not a directory: {out}\n"
        assert blocker.read_text() == "not a directory"


class TestPackage:
    def test_cli_import_loads_no_numpy_and_submodules_import(self):
        # commands import numpy when they run, so --help and usage errors stay fast
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, moofair.cli\n"
                "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
                "from moofair import data, training\n"
                "assert data.build_masks and training.train_round\n")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learnin_rate = 0.1\n")
        with pytest.raises(CliError, match="unknown key"):
            parse_config_file(str(path))

    def test_eval_k_key_rejected(self, tmp_path):
        # validation recall is always taken at depth 20
        path = tmp_path / "eval_k.cfg"
        path.write_text("eval_k = 20\n")
        with pytest.raises(CliError, match="unknown key 'eval_k'"):
            parse_config_file(str(path))

    def test_all_problems_listed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("foo = 1\nbar = 2\nbatch_size = big\n")
        with pytest.raises(CliError) as err:
            parse_config_file(str(path))
        message = str(err.value)
        assert "foo" in message and "bar" in message and "batch_size" in message

    def test_flags_override_file(self, bundle, tiny_config, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(tiny_config), "--objectives", "bpr",
                     "--rounds", "1", "--epochs", "1", "--seed", "7"])
        assert code == 0
        meta = (out / "round_1" / "metadata.txt").read_text()
        assert "seed = 7" in meta

    # a space after a comma, and a trailing comma, as the config key accepts them
    @pytest.mark.parametrize("listed", ["bpr, popularity", "bpr,popularity,"])
    def test_objectives_flag_parsed_like_the_key(self, bundle, tiny_config, tmp_path,
                                                 listed):
        keyed = tmp_path / "objectives.cfg"
        keyed.write_text(tiny_config.read_text() + f"objectives = {listed}\n")
        for name, args in (("key", ["--config", str(keyed)]),
                           ("flag", ["--config", str(tiny_config), "--objectives", listed])):
            out = tmp_path / name
            code = main(["train", "--bundle", str(bundle), "--out", str(out), *args,
                         "--rounds", "1", "--epochs", "1"])
            assert code == 0, name
            header = (out / "alpha_trace_round_1.csv").read_text().splitlines()[0]
            assert header == "epoch,batch,alpha_bpr,alpha_popularity", name


    def test_keys_are_the_train_config_fields(self, tmp_path):
        config = TrainConfig(objectives=("bpr", "gender"), fixed_weights=(0.25, 0.75),
                             temperature=0.125)
        path = tmp_path / "all.cfg"
        lines = []
        for f in fields(TrainConfig):
            value = getattr(config, f.name)
            text = ",".join(map(str, value)) if isinstance(value, tuple) else value
            lines.append(f"{f.name} = {text}\n")
        path.write_text("".join(lines))
        values = parse_config_file(str(path))
        assert set(values) == {f.name for f in fields(TrainConfig)}
        assert TrainConfig(**values) == config

    @pytest.mark.parametrize(
        "name, value",
        [(name, rejected) for name, rejected, _ in FIELD_BOUNDS]
        + [("learning_rate", -1.0)]
        # inf passed every range test, then training died with a traceback
        + [(name, float("inf")) for name in ("learning_rate", "reg", "steepness",
                                              "temperature")],
    )
    def test_out_of_range_value_exits_2_before_training(self, bundle, tmp_path,
                                                         capsys, name, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{name} = {value}\n")
        flags = {"--rounds": "1", "--epochs": "1"}
        # a flag would override the file's value
        flags.pop({"rounds": "--rounds", "epochs_max": "--epochs"}.get(name), None)
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(path), "--objectives", "bpr"]
                    + [arg for flag in flags.items() for arg in flag])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid training configuration" in err and name in err
        assert not out.exists()


class TestLock:
    # holds a kernel lock on the file it is given, writes its pid there and
    # says so on stdout, then sleeps until killed
    HOLDER = ("import fcntl, os, sys, time\n"
              "fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)\n"
              "fcntl.flock(fd, fcntl.LOCK_EX)\n"
              "os.write(fd, str(os.getpid()).encode())\n"
              "print('locked', flush=True)\n"
              "time.sleep(60)\n")

    def test_concurrent_guard(self, bundle, tmp_path):
        from moofair.cli import OutputLock

        out = tmp_path / "run"
        with OutputLock(str(out)):
            code = main(["train", "--bundle", str(bundle), "--out", str(out),
                         "--objectives", "bpr", "--rounds", "1", "--epochs", "1"])
            assert (out / ".moofair.lock").read_text() == str(os.getpid())
        assert code == 1
        assert not (out / "rounds.csv").exists()

    def test_live_pid_exits_1(self, bundle, tmp_path):
        # another process holds the lock
        out = tmp_path / "run"
        out.mkdir()
        holder = subprocess.Popen([sys.executable, "-c", self.HOLDER,
                                   str(out / ".moofair.lock")],
                                  stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "locked\n"
            code = main(["train", "--bundle", str(bundle), "--out", str(out),
                         "--objectives", "bpr", "--rounds", "1", "--epochs", "1"])
            assert (out / ".moofair.lock").read_text() == str(holder.pid)
        finally:
            holder.kill()
            holder.wait(timeout=10)
            holder.stdout.close()
        assert code == 1
        assert not (out / "rounds.csv").exists()

    def test_file_of_a_live_pid_without_the_lock_is_replaced(self, bundle, tmp_path):
        # a killed run's pid reused by a process that holds no lock
        other = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            out = tmp_path / "run"
            out.mkdir()
            (out / ".moofair.lock").write_text(str(other.pid))
            code = main(["train", "--bundle", str(bundle), "--out", str(out),
                         "--objectives", "bpr", "--rounds", "1", "--epochs", "1"])
        finally:
            other.kill()
            other.wait(timeout=10)
        assert code == 0
        assert (out / "rounds.csv").exists()
        assert not (out / ".moofair.lock").exists()

    def test_file_replaced_before_locking_is_opened_again(self, tmp_path, monkeypatch):
        # the lock's holder removes its file and another run makes a new one
        # between this run's open and its flock
        import fcntl

        from moofair.cli import OutputLock

        path = tmp_path / ".moofair.lock"
        flock = fcntl.flock
        calls = []

        def replaced_first(fd, operation):
            if not calls:
                path.unlink()
                path.write_text("")
            calls.append(fd)
            return flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", replaced_first)
        with OutputLock(str(tmp_path)) as lock:
            assert len(calls) == 2
            assert os.path.samestat(os.fstat(lock.fd), os.stat(path))
            assert path.read_text() == str(os.getpid())
            with pytest.raises(CliError) as blocked, OutputLock(str(tmp_path)):
                pass
            assert blocked.value.code == 1
        assert not path.exists()

    def test_filesystem_without_locks_exits_2(self, bundle, tmp_path, monkeypatch,
                                              capsys):
        import errno
        import fcntl

        def no_locks(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(fcntl, "flock", no_locks)
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr", "--rounds", "1", "--epochs", "1"])
        assert code == 2
        assert f"cannot lock {out / '.moofair.lock'}" in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()

    def test_lock_naming_this_run_is_replaced(self, bundle, tmp_path):
        # a killed run's pid reused by the next run, as PID 1 of a restarted container
        out = tmp_path / "run"
        out.mkdir()
        (out / ".moofair.lock").write_text(str(os.getpid()))
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr", "--rounds", "1", "--epochs", "1"])
        assert code == 0
        assert (out / "rounds.csv").exists()
        assert not (out / ".moofair.lock").exists()

    def test_lock_of_a_finished_run_is_replaced(self, bundle, tmp_path):
        # the lock a killed run leaves names a pid that no longer runs
        child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True, check=True)
        out = tmp_path / "run"
        out.mkdir()
        (out / ".moofair.lock").write_text(child.stdout.strip())
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr", "--rounds", "1", "--epochs", "1"])
        assert code == 0
        assert (out / "rounds.csv").exists()
        assert not (out / ".moofair.lock").exists()

    def test_lock_holds_its_pid(self, tmp_path):
        from moofair.cli import OutputLock

        with OutputLock(str(tmp_path)):
            assert (tmp_path / ".moofair.lock").read_text() == str(os.getpid())
        assert not (tmp_path / ".moofair.lock").exists()
