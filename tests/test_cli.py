import os
from dataclasses import fields

import numpy as np
import pytest

from moofair.cli import CliError, main, parse_config_file
from moofair.training import TrainConfig
from conftest import FIELD_BOUNDS, GENRES, make_raw


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
        for name in ("interactions.csv", "mask_gender.csv", "mask_popularity.csv",
                     "stats.txt"):
            assert (bundle / name).exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["prepare", "--format", "ml100k",
                     "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_rerun_identical_bytes(self, tsv_corpus, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["prepare", "--format", "generic_tsv",
                     "--in", str(tsv_corpus), "--out", str(out_a)]) == 0
        assert main(["prepare", "--format", "generic_tsv",
                     "--in", str(tsv_corpus), "--out", str(out_b)]) == 0
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestTrain:
    def test_end_to_end(self, bundle, tiny_config, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--config", str(tiny_config)] + TRAIN_ARGS)
        assert code == 0
        assert (out / "round_1" / "user_embeddings.csv").exists()
        assert (out / "rounds.csv").exists()
        assert (out / "selection.txt").exists()
        trace = (out / "alpha_trace_round_1.csv").read_text().splitlines()
        assert trace[0] == "epoch,batch,alpha_bpr,alpha_popularity"
        assert len(trace) > 1
        assert not (out / ".moofair.lock").exists()

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
                     "--objectives", "bpr,popularity",
                     "--mode", "fixed", "--weights", "0.5,0.5",
                     "--rounds", "1", "--epochs", "1"])
        assert code == 0
        rows = (out / "rounds.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert "fw_calls" in header
        assert rows[1].split(",")[header.index("fw_calls")] == "0"

    def test_weights_without_fixed_mode_exit_2(self, bundle, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr,popularity", "--weights", "0.9,0.1",
                     "--rounds", "1", "--epochs", "1"])
        assert code == 2
        assert "--mode fixed" in capsys.readouterr().err
        assert not out.exists()

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
        for name in ("round_1/user_embeddings.csv", "round_1/item_embeddings.csv",
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

    def test_rejects_three_objectives(self, bundle, tmp_path, capsys):
        code = main(["grid", "--bundle", str(bundle),
                     "--out", str(tmp_path / "g"),
                     "--objectives", "bpr,gender,popularity"])
        assert code == 2
        assert "two objectives" in capsys.readouterr().err


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learnin_rate = 0.1\n")
        with pytest.raises(CliError, match="unknown key"):
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


    def test_keys_are_the_train_config_fields(self, tmp_path):
        config = TrainConfig(objectives=("bpr", "gender"), mode="fixed_weights",
                             fixed_weights=(0.25, 0.75), temperature=0.125)
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
        + [("learning_rate", -1.0)],
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
    def test_concurrent_guard(self, bundle, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".moofair.lock").touch()
        code = main(["train", "--bundle", str(bundle), "--out", str(out),
                     "--objectives", "bpr", "--rounds", "1", "--epochs", "1"])
        assert code == 1
