import logging
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moofair import data
from moofair.data import (
    AGE_UPPER_BOUNDS,
    BUNDLE_FILE,
    GENDER_LABELS,
    TEST,
    TRAIN,
    VAL,
    DataFormatError,
    EmptyDatasetError,
    RawRatings,
    build_masks,
    ingest,
    load_bundle,
    popularity_mask,
    preprocess,
    save_bundle,
    save_npz,
    write_csv,
)
from moofair.model import attach_negatives
from moofair.objectives import build_consumer_context
from conftest import GENRES, dataset_rows, make_raw, positive_lists, tagged_dataset


def write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


class TestIngestGeneric:
    def test_three_line_single_user(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        write_lines(path, ["7\t1\t5\t100", "7\t2\t4\t200", "7\t3\t3\t300"])
        raw = ingest(str(path), "generic_tsv")
        assert raw.num_records == 3
        assert raw.num_users == 1
        assert raw.user_gender is None

    def test_counts_computed_once(self, monkeypatch):
        raw = RawRatings(np.array([3, 1, 3]), np.array([5, 5, 6]), np.ones(3),
                         np.arange(3))
        calls = []
        real_distinct = data.sorted_distinct
        monkeypatch.setattr(data, "sorted_distinct",
                            lambda *a: calls.append(1) or real_distinct(*a))
        assert (raw.num_users, raw.num_items, raw.num_users, raw.num_items) == (2, 2, 2, 2)
        assert len(calls) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        write_lines(path, [])
        raw = ingest(str(path), "generic_tsv")
        assert raw.num_records == 0
        assert raw.num_users == 0

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        write_lines(path, ["1\t1\t5\t10", "1\t2\tbroken\t20"])
        with pytest.raises(DataFormatError, match=":2:"):
            ingest(str(path), "generic_tsv")

    def test_missing_field_reports_number(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        write_lines(path, ["1\t1\t5"])
        with pytest.raises(DataFormatError, match=":1:"):
            ingest(str(path), "generic_tsv")

    @pytest.mark.parametrize("lines, lineno", [
        # blank lines count as file lines
        (["1\t1\t5\t10", "", "", "1\t2\t3"], 4),
        (["", "1\t1\t5\t10", "   "], 3),
        # a later unparsable line does not hide an earlier bad timestamp
        (["1\t1\t5\t10", "1\t1\t5\tinf", "x\t1\t5\t1"], 2),
        (["1\t1\t5\tnan"], 1),
        (["1\t1\t5\t1e30"], 1),
        (["99999999999999999999\t1\t5\t10"], 1),
        (["1.0\t1\t5\t10"], 1),
    ])
    def test_bad_line_reports_its_file_line(self, tmp_path, lines, lineno):
        path = tmp_path / "ratings.tsv"
        write_lines(path, lines)
        with pytest.raises(DataFormatError, match=rf"ratings\.tsv:{lineno}: "):
            ingest(str(path), "generic_tsv")

    def test_matches_line_by_line_oracle(self, tmp_path):
        assert_matches_line_by_line_oracle(tmp_path)

    # one row per np.loadtxt call, blocks that start on blank lines, and a
    # block that ends with the file's last row
    @pytest.mark.parametrize("parse_rows", [1, 7, 400])
    def test_rows_parsed_in_blocks_match_the_oracle(self, tmp_path, monkeypatch, parse_rows):
        monkeypatch.setattr(data, "PARSE_ROWS", parse_rows)
        lines = assert_matches_line_by_line_oracle(tmp_path)
        lines[300] = "1\t2\tbroken\t3"
        write_lines(tmp_path / "ratings.tsv", lines)
        with pytest.raises(DataFormatError, match=r"ratings\.tsv:301: "):
            ingest(str(tmp_path / "ratings.tsv"), "generic_tsv")

    def test_attribute_files_picked_up(self, tmp_path):
        write_lines(tmp_path / "ratings.tsv", ["1\t1\t5\t10", "2\t1\t4\t20"])
        write_lines(tmp_path / "users.tsv", ["1\tF\t33", "2\tM\t19"])
        write_lines(tmp_path / "items.tsv", ["1\tComedy|Drama"])
        raw = ingest(str(tmp_path), "generic_tsv")
        assert raw.user_gender == {1: "F", 2: "M"}
        assert raw.user_age == {1: 33, 2: 19}
        assert raw.genre_names == ("Comedy", "Drama")
        assert raw.item_genres == {1: (0, 1)}

    def test_malformed_items_line_reports_number(self, tmp_path):
        write_lines(tmp_path / "ratings.tsv", ["1\t1\t5\t10"])
        write_lines(tmp_path / "items.tsv", ["1\tComedy", "2"])
        with pytest.raises(DataFormatError, match=r"items\.tsv:2:"):
            ingest(str(tmp_path), "generic_tsv")
        write_lines(tmp_path / "items.tsv", ["1\tComedy", "x\tDrama"])
        with pytest.raises(DataFormatError, match=r"items\.tsv:2:"):
            ingest(str(tmp_path), "generic_tsv")

    @pytest.mark.parametrize("fmt", ["generic_tsv", "ml100k"])
    def test_crlf_log_ingests_like_its_lf_copy(self, tmp_path, fmt):
        names = {"generic_tsv": ("ratings.tsv", "users.tsv"), "ml100k": ("u.data", "u.user")}[fmt]
        users = ["1\tF\t33", "2\tM\t19"] if fmt == "generic_tsv" else [
            "1|24|M|technician|85711", "2|53|F|other|94043"]
        ratings = ["1\t10\t5\t100", "1\t11\t3\t2.5e2", "", "2\t10\t4\t150\textra",
                   "-3\t12\t4.5\t-7"]
        raws = []
        # text mode also ends a line at a lone "\r"
        for ending, label in (("\n", "lf"), ("\r\n", "crlf"), ("\r", "cr")):
            directory = tmp_path / label
            directory.mkdir()
            for name, lines in zip(names, (ratings, users)):
                (directory / name).write_bytes((ending.join(lines) + ending).encode())
            raws.append(ingest(str(directory), fmt))
        lf = raws[0]
        for other in raws[1:]:
            for name in ("users", "items", "ratings", "timestamps"):
                a, b = getattr(lf, name), getattr(other, name)
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b)
            assert (lf.user_gender, lf.user_age) == (other.user_gender, other.user_age)
        assert lf.num_records == 4

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            ingest(str(tmp_path), "csv")

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest(str(tmp_path / "nope"), "generic_tsv")


class TestIngestMovieLens:
    def test_ml100k_layout(self, tmp_path):
        write_lines(tmp_path / "u.data",
                    ["1\t10\t5\t100", "1\t11\t3\t200", "2\t10\t4\t150"])
        write_lines(tmp_path / "u.user", ["1|24|M|technician|85711",
                                          "2|53|F|other|94043"])
        flags = ["0"] * 19
        flags[1] = "1"  # Action
        flags[5] = "1"  # Comedy
        item_line = "|".join(["10", "Some Movie (1995)", "01-Jan-1995", "", "url"] + flags)
        write_lines(tmp_path / "u.item", [item_line])
        raw = ingest(str(tmp_path), "ml100k")
        assert raw.num_records == 3
        assert raw.user_gender == {1: "M", 2: "F"}
        assert raw.user_age == {1: 24, 2: 53}
        # the "unknown" flag column is not a genre
        assert raw.genre_names[0] == "Action"
        assert raw.item_genres[10] == (0, 4)

    def test_ml1m_layout(self, tmp_path):
        write_lines(tmp_path / "ratings.dat",
                    ["1::1193::5::978300760", "2::1193::4::978302109"])
        write_lines(tmp_path / "users.dat",
                    ["1::F::1::10::48067", "2::M::56::16::70072"])
        write_lines(tmp_path / "movies.dat",
                    ["1193::One Flew Over the Cuckoo's Nest (1975)::Drama"])
        raw = ingest(str(tmp_path), "ml1m")
        assert raw.num_records == 2
        assert raw.user_gender == {1: "F", 2: "M"}
        assert raw.user_age == {1: 1, 2: 56}
        assert raw.item_genres == {1193: (0,)}
        assert raw.genre_names == ("Drama",)

    def test_ml1m_bad_rating_line_reports_number(self, tmp_path):
        write_lines(tmp_path / "ratings.dat",
                    ["1::1193::5::978300760", "", "2::1193::x::978302109"])
        with pytest.raises(DataFormatError, match=r"ratings\.dat:3: .*'x'"):
            ingest(str(tmp_path), "ml1m")

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    @pytest.mark.parametrize("block", [1, 5, 64, 1 << 20])
    def test_ml1m_log_read_in_blocks(self, tmp_path, monkeypatch, ending, block):
        # the ignored fields hold characters that str.splitlines, unlike
        # iterating the file, takes for line ends
        gen = np.random.default_rng(3)
        records = [(int(gen.integers(1, 40)), int(gen.integers(1, 60)),
                    int(gen.integers(1, 6)), 10**9 + int(gen.integers(0, 10**6)))
                   for _ in range(60)]
        extras = ["", "::a\x0bb", "::\x0c", "::x\x1cy\x1dz\x1e", "::\x85:::\x85"]
        lines = ["::".join(map(str, r)) + extras[n % len(extras)]
                 for n, r in enumerate(records)]
        lines.insert(17, "")
        path = tmp_path / "ratings.dat"
        monkeypatch.setattr(data, "READ_BLOCK", block)
        path.write_bytes((ending.join(lines) + ending).encode("latin-1"))
        raw = ingest(str(tmp_path), "ml1m")
        for got, want in zip((raw.users, raw.items, raw.ratings, raw.timestamps),
                             np.asarray(records).T):
            np.testing.assert_array_equal(got, want)
        lines[40] = "1::2::x::3" + extras[4]
        path.write_bytes((ending.join(lines) + ending).encode("latin-1"))
        with pytest.raises(DataFormatError, match=r"ratings\.dat:41: .*'x'"):
            ingest(str(tmp_path), "ml1m")

    def test_malformed_movies_line_reports_number(self, tmp_path):
        write_lines(tmp_path / "ratings.dat", ["1::1193::5::978300760"])
        write_lines(tmp_path / "movies.dat", ["1193::Some Movie (1975)::Drama",
                                             "1194::No Genres (1976)"])
        with pytest.raises(DataFormatError, match=r"movies\.dat:2:"):
            ingest(str(tmp_path), "ml1m")
        write_lines(tmp_path / "movies.dat", ["1193::Some Movie (1975)::Drama",
                                             "", "abc::Bad Id (1976)::Comedy"])
        with pytest.raises(DataFormatError, match=r"movies\.dat:3:"):
            ingest(str(tmp_path), "ml1m")


def assert_matches_line_by_line_oracle(tmp_path):
    """Ingest a 400-record log with blank lines, float timestamps and extra
    fields, check it against ``line_by_line_ratings``; returns its lines."""
    gen = np.random.default_rng(8)
    lines = []
    for k in range(400):
        fields = [str(gen.integers(1, 50)), str(gen.integers(1, 90)),
                  f"{gen.integers(1, 6)}", str(10**9 + int(gen.integers(0, 10**6)))]
        if k % 7 == 0:
            fields[3] = f"{float(fields[3]) + 0.75:.6e}"  # float timestamps truncate
        if k % 11 == 0:
            fields.append("extra")
        lines.append("\t".join(fields))
        if k % 13 == 0:
            lines.append("")
    write_lines(tmp_path / "ratings.tsv", lines)
    raw = ingest(str(tmp_path / "ratings.tsv"), "generic_tsv")
    expected = line_by_line_ratings(str(tmp_path / "ratings.tsv"), "\t")
    for got, want in zip((raw.users, raw.items, raw.ratings, raw.timestamps), expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    return lines


def line_by_line_ratings(path, sep):
    """Per-line split and int/float conversion: the reference the vectorised
    rating parser must match exactly."""
    users, items, ratings, stamps = [], [], [], []
    with open(path) as fh:
        for line in fh:
            parts = line.rstrip("\n").split(sep)
            if parts != [""]:
                users.append(int(parts[0]))
                items.append(int(parts[1]))
                ratings.append(float(parts[2]))
                stamps.append(int(float(parts[3])))
    return (np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64),
            np.asarray(ratings, dtype=np.float64), np.asarray(stamps, dtype=np.int64))


BOUNDARY_AGES = (0, 17, 18, 24, 25, 34, 35, 44, 45, 49, 50, 55, 56, 90, 1)


@pytest.fixture(scope="module")
def boundary_age_masks():
    """Masks of a log whose users cycle through ``BOUNDARY_AGES``, and the
    age of each dense user."""
    raw = make_raw(seed=0)
    raw.user_age = {u: BOUNDARY_AGES[u % len(BOUNDARY_AGES)] for u in raw.user_age}
    dataset = preprocess(raw)
    ages = np.array([raw.user_age[int(orig)] for orig in dataset.user_ids])
    return build_masks(dataset, raw).age, ages


class TestAgeGroups:
    @pytest.mark.parametrize("age,expected", [
        (0, 0), (17, 0), (18, 1), (24, 1), (25, 2), (34, 2), (35, 3),
        (44, 3), (45, 4), (49, 4), (50, 5), (55, 5), (56, 6), (90, 6),
        # the coded brackets of the larger logs land in the same groups
        (1, 0),
    ])
    def test_boundaries(self, boundary_age_masks, age, expected):
        mask, ages = boundary_age_masks
        users = np.flatnonzero(ages == age)
        assert users.shape[0] >= 1
        column = np.zeros(mask.shape[0], dtype=mask.dtype)
        column[expected] = 1
        np.testing.assert_array_equal(mask[:, users], np.repeat(column[:, None],
                                                                users.shape[0], axis=1))


def single_user_raw(num_positives, other_users=12, items_per_other=12):
    """One user with exactly ``num_positives`` positives on popular items,
    plus enough other users to keep those items above the item filter."""
    users, items, ratings, stamps = [], [], [], []
    for k in range(num_positives):
        users.append(999)
        items.append(k + 1)
        ratings.append(5.0)
        stamps.append(k)
    for u in range(other_users):
        for k in range(items_per_other):
            users.append(u + 1)
            items.append(k + 1)
            ratings.append(4.0)
            stamps.append(100 + k)
    return RawRatings(
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        ratings=np.asarray(ratings, dtype=np.float64),
        timestamps=np.asarray(stamps, dtype=np.int64),
    )


class TestPreprocess:
    def test_user_with_nine_positives_removed(self):
        dataset = preprocess(single_user_raw(9))
        assert 999 not in dataset.user_ids

    def test_user_with_ten_positives_kept(self):
        dataset = preprocess(single_user_raw(10))
        assert 999 in dataset.user_ids

    def test_no_op_when_all_above_thresholds(self):
        raw = single_user_raw(12)
        dataset = preprocess(raw)
        assert dataset.num_interactions == raw.num_records

    def test_filter_thresholds_hold(self, synthetic_raw, synthetic_dataset):
        ds = synthetic_dataset
        user_counts = np.bincount(dataset_rows(ds)[0], minlength=ds.num_users)
        assert np.all(user_counts >= 10)
        # item counts as seen at filter time (before the user filter ran)
        positive = synthetic_raw.ratings >= 4
        items = synthetic_raw.items[positive]
        vals, counts = np.unique(items, return_counts=True)
        survived = dict(zip(vals.tolist(), counts.tolist()))
        for orig in ds.item_ids:
            assert survived[int(orig)] >= 5

    def test_split_sizes(self, synthetic_dataset):
        ds = synthetic_dataset
        users, _, split = dataset_rows(ds)
        for u in range(ds.num_users):
            mask = users == u
            c = int(mask.sum())
            tags = split[mask]
            assert int((tags == TRAIN).sum()) == int(np.floor(0.7 * c))
            assert int((tags == VAL).sum()) == int(np.floor(0.1 * c))
            assert int((tags == TEST).sum()) == c - int(np.floor(0.7 * c)) - int(np.floor(0.1 * c))

    def test_split_chronologically_monotone(self, synthetic_raw, synthetic_dataset):
        # each (user, item) pair of the synthetic log is rated once, so the
        # raw log gives each row's timestamp
        ds = synthetic_dataset
        stamp_of = dict(zip(zip(synthetic_raw.users.tolist(), synthetic_raw.items.tolist()),
                            synthetic_raw.timestamps.tolist()))
        assert len(stamp_of) == synthetic_raw.num_records
        users, items, _ = dataset_rows(ds)
        stamps = np.array([stamp_of[ds.user_ids[u], ds.item_ids[i]]
                           for u, i in zip(users, items)])
        for u in range(ds.num_users):
            # a user's rows run train, val, test: each split in time order,
            # and none earlier than the split before it
            assert np.all(np.diff(stamps[users == u]) >= 0)

    def test_deterministic(self, synthetic_raw):
        a = preprocess(synthetic_raw)
        b = preprocess(synthetic_raw)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.indptr, b.indptr)

    def test_record_order_invariant(self, synthetic_raw):
        a = preprocess(synthetic_raw)
        perm = np.random.default_rng(1).permutation(synthetic_raw.num_records)
        shuffled = RawRatings(
            users=synthetic_raw.users[perm],
            items=synthetic_raw.items[perm],
            ratings=synthetic_raw.ratings[perm],
            timestamps=synthetic_raw.timestamps[perm],
        )
        b = preprocess(shuffled)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.indptr, b.indptr)

    def test_dataset_holds_8_bytes_per_interaction_and_24_per_user(self):
        # every array the dataset holds but its id maps, plus the one closing
        # offset; a user, timestamp and split column per row held 25 bytes
        ds = preprocess(make_raw(seed=2))
        held = sum(value.nbytes for name, value in vars(ds).items()
                   if isinstance(value, np.ndarray) and name not in ("user_ids", "item_ids"))
        assert held <= 8 * ds.num_interactions + 24 * ds.num_users + 8

    def test_empty_after_filtering(self):
        raw = RawRatings(
            users=np.array([1, 2], dtype=np.int64),
            items=np.array([1, 1], dtype=np.int64),
            ratings=np.array([2.0, 3.0]),
            timestamps=np.array([1, 2], dtype=np.int64),
        )
        with pytest.raises(EmptyDatasetError):
            preprocess(raw)

    def test_ids_dense(self, synthetic_dataset):
        ds = synthetic_dataset
        assert set(np.unique(dataset_rows(ds)[0])) == set(range(ds.num_users))
        assert set(np.unique(ds.items)) == set(range(ds.num_items))

    @pytest.mark.parametrize("log", ["make_raw", "sparse_ids", "threshold_counts"])
    def test_matches_dict_remap_oracle(self, log):
        raw = make_raw(seed=3, num_users=40)
        if log == "threshold_counts":
            # item and user positive counts straddle the 5 and 10 thresholds
            gen = np.random.default_rng(5)
            n = 1500
            raw = RawRatings(users=gen.integers(1, 81, n), items=gen.integers(1, 61, n),
                             ratings=gen.integers(1, 6, n).astype(np.float64),
                             timestamps=gen.integers(0, 10**6, n))
        if log == "sparse_ids":
            offset = 10**12
            # sparse original ids near 10**12
            gen = np.random.default_rng(4)
            user_map = offset + np.sort(gen.choice(10**9, size=raw.users.max() + 1,
                                                   replace=False))
            item_map = offset + np.sort(gen.choice(10**9, size=raw.items.max() + 1,
                                                   replace=False))[::-1]
            raw.users, raw.items = user_map[raw.users], item_map[raw.items]
        got = preprocess(raw)
        expected = preprocess_oracle(raw)
        for name in ("items", "indptr", "user_ids", "item_ids"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert (got.num_users, got.num_items) == (expected.num_users,
                                                  expected.num_items)


def preprocess_oracle(raw):
    """Per-element set-membership filters and dict id remaps: the reference
    ``preprocess`` must match exactly."""
    positive = raw.ratings >= 4.0
    users, items = raw.users[positive], raw.items[positive]
    stamps = raw.timestamps[positive]
    item_vals, item_counts = np.unique(items, return_counts=True)
    keep_items = set(item_vals[item_counts >= 5].tolist())
    mask = np.fromiter((i in keep_items for i in items), dtype=bool, count=items.shape[0])
    users, items, stamps = users[mask], items[mask], stamps[mask]
    user_vals, user_counts = np.unique(users, return_counts=True)
    keep_users = set(user_vals[user_counts >= 10].tolist())
    mask = np.fromiter((u in keep_users for u in users), dtype=bool, count=users.shape[0])
    users, items, stamps = users[mask], items[mask], stamps[mask]
    user_ids, item_ids = np.unique(users), np.unique(items)
    user_index = {int(u): k for k, u in enumerate(user_ids)}
    item_index = {int(i): k for k, i in enumerate(item_ids)}
    dense_users = np.fromiter((user_index[int(u)] for u in users), dtype=np.int64,
                              count=users.shape[0])
    dense_items = np.fromiter((item_index[int(i)] for i in items), dtype=np.int64,
                              count=items.shape[0])
    order = np.lexsort((dense_items, stamps, dense_users))
    dense_users, dense_items, stamps = dense_users[order], dense_items[order], stamps[order]
    split = np.empty(dense_users.shape[0], dtype=np.int8)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(dense_users)) + 1,
                             [dense_users.shape[0]]))
    for s, e in zip(bounds[:-1], bounds[1:]):
        n_train, n_val = int(np.floor(0.7 * (e - s))), int(np.floor(0.1 * (e - s)))
        split[s:s + n_train] = TRAIN
        split[s + n_train:s + n_train + n_val] = VAL
        split[s + n_train + n_val:e] = TEST
    return tagged_dataset(user_ids.shape[0], item_ids.shape[0], dense_users, dense_items,
                          split, user_ids, item_ids)


# original ids and timestamps are offset + code * stride: none, near -2**62 and
# near +2**62, with sorted, reversed and sparse strides
ID_OFFSETS = (0, -2**62, 2**62)
ID_STRIDES = (1, -3, 2**40)


def drawn_log(seed, core, num_users, num_items, num_records, num_stamps, offsets, strides):
    """A rating log of ``num_records`` random records plus, when ``core`` > 0,
    ``core`` users who each rate 10 of ``core`` items positively (every item
    10 times), so at least ``core`` users and items survive the filters.
    Timestamps are drawn from ``num_stamps`` values, so records of one user
    share timestamps, and (user, item) pairs repeat."""
    gen = np.random.default_rng(seed)
    users = np.concatenate([np.repeat(np.arange(core), 10),
                            gen.integers(0, num_users, num_records)])
    items = np.concatenate([(np.repeat(np.arange(core), 10) + np.tile(np.arange(10), core))
                            % max(core, 1),
                            gen.integers(0, num_items, num_records)])
    ratings = np.concatenate([gen.integers(4, 6, 10 * core),
                              gen.integers(1, 6, num_records)]).astype(np.float64)
    stamps = gen.integers(0, num_stamps, users.shape[0])
    perm = gen.permutation(users.shape[0])
    (user_offset, item_offset, stamp_offset), (user_stride, item_stride) = offsets, strides
    return RawRatings(users=user_offset + users[perm] * user_stride,
                      items=item_offset + items[perm] * item_stride,
                      ratings=ratings[perm],
                      timestamps=stamp_offset + stamps[perm] * 7)


def preprocess_lexsort_reference(raw):
    """The earlier ``preprocess``: unsorted ``searchsorted`` lookups and one
    three-key ``np.lexsort``; the memory reference of the current one. Returns
    the columns that ``InteractionDataset`` held then: dense users, items,
    timestamps and split tags, and the id maps."""
    positive = raw.ratings >= 4.0
    users = raw.users[positive]
    items = raw.items[positive]
    stamps = raw.timestamps[positive]

    item_vals, item_counts = np.unique(items, return_counts=True)
    mask = item_counts[np.searchsorted(item_vals, items)] >= 5
    users, items, stamps = users[mask], items[mask], stamps[mask]

    user_vals, user_counts = np.unique(users, return_counts=True)
    mask = user_counts[np.searchsorted(user_vals, users)] >= 10
    users, items, stamps = users[mask], items[mask], stamps[mask]

    user_ids = np.unique(users)
    item_ids = np.unique(items)
    dense_users = np.searchsorted(user_ids, users).astype(np.int64, copy=False)
    dense_items = np.searchsorted(item_ids, items).astype(np.int64, copy=False)

    order = np.lexsort((dense_items, stamps, dense_users))
    dense_users = dense_users[order]
    dense_items = dense_items[order]
    stamps = stamps[order]

    counts = np.bincount(dense_users)
    position = np.arange(dense_users.shape[0]) - (np.cumsum(counts) - counts)[dense_users]
    n_train = np.floor(0.7 * counts).astype(np.int64)
    n_val = np.floor(0.1 * counts).astype(np.int64)
    split = ((position >= n_train[dense_users]).astype(np.int8)
             + (position >= (n_train + n_val)[dense_users]))
    return dense_users, dense_items, stamps, split, user_ids, item_ids


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPreprocessAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), core=st.sampled_from((0, 0, 255, 256, 257)),
           num_users=st.integers(1, 40), num_items=st.integers(1, 30),
           num_records=st.integers(0, 1500), num_stamps=st.integers(1, 60),
           offsets=st.tuples(*[st.sampled_from(ID_OFFSETS)] * 3),
           strides=st.tuples(*[st.sampled_from(ID_STRIDES)] * 2))
    # 255, 256 and 257 surviving users and items: the largest dense id is
    # inside uint8, at its maximum, and past it (uint16)
    @example(seed=0, core=255, num_users=1, num_items=1, num_records=0, num_stamps=3,
             offsets=(0, 0, 0), strides=(1, 1))
    @example(seed=1, core=256, num_users=1, num_items=1, num_records=0, num_stamps=1,
             offsets=(2**62, -2**62, -2**62), strides=(-3, 2**40))
    @example(seed=2, core=257, num_users=1, num_items=1, num_records=0, num_stamps=2,
             offsets=(-2**62, 2**62, 2**62), strides=(2**40, -3))
    def test_matches_oracle_on_drawn_logs(self, seed, core, num_users, num_items,
                                          num_records, num_stamps, offsets, strides):
        raw = drawn_log(seed, core, num_users, num_items, num_records, num_stamps,
                        offsets, strides)
        expected = preprocess_oracle(raw)
        if expected.num_interactions == 0:
            with pytest.raises(EmptyDatasetError):
                preprocess(raw)
            return
        got = preprocess(raw)
        for name in ("items", "indptr", "user_ids", "item_ids"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert (got.num_users, got.num_items) == (expected.num_users, expected.num_items)
        if core and not num_records:
            assert got.num_users == got.num_items == core

    def test_peak_memory_within_lexsort_reference(self):
        raw = drawn_log(11, 0, 2500, 1800, 200_000, 10**7, (10**9, 10**6, 10**9), (1, 1))
        reference = traced_peak(lambda: preprocess_lexsort_reference(raw))
        assert traced_peak(lambda: preprocess(raw)) <= reference


class TestSetUpMemory:
    # traced bytes per record of ingest + preprocess on the log below: the
    # single parsed copy gives 48.5, where a second int64 timestamp array and
    # np.unique's temporaries gave 74.9
    PEAK_BYTES_PER_RECORD = 60

    def test_ingest_and_preprocess_hold_one_copy_of_the_log(self, tmp_path):
        # ML-1M-like: 500 000 ratings, 58% of them >= 4, no attribute files.
        # Above about 300 000 records preprocess, not the fixed-size blocks
        # that ingest parses, sets the peak.
        n = 500_000
        gen = np.random.default_rng(0)
        columns = (gen.integers(1, 3001, n), gen.integers(1, 2001, n),
                   gen.choice(5, n, p=[0.06, 0.11, 0.25, 0.35, 0.23]) + 1,
                   978_300_000 + gen.integers(0, 10**8, n))
        write_lines(tmp_path / "ratings.dat",
                    ["::".join(map(str, record)) for record in zip(*map(list, columns))])
        del columns
        peak = traced_peak(lambda: preprocess(ingest(str(tmp_path), "ml1m")))
        assert peak <= self.PEAK_BYTES_PER_RECORD * n, peak / n


def dataset_with_counts(counts):
    """Train-split-only dataset where item k appears counts[k] times."""
    users, items = [], []
    u = 0
    for item, c in enumerate(counts):
        for _ in range(c):
            users.append(u % 7)
            items.append(item)
            u += 1
    return tagged_dataset(7, len(counts), users, items)


class TestPopularityMask:
    def test_even_split_ten_items(self):
        ds = dataset_with_counts([10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
        mask = popularity_mask(ds)
        assert mask.shape == (5, 10)
        np.testing.assert_array_equal(mask.sum(axis=1), [2, 2, 2, 2, 2])
        # row 0 is the most popular pair
        np.testing.assert_array_equal(np.flatnonzero(mask[0]), [0, 1])

    def test_eleven_items_extra_goes_to_most_popular(self):
        ds = dataset_with_counts([11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
        mask = popularity_mask(ds)
        np.testing.assert_array_equal(mask.sum(axis=1), [3, 2, 2, 2, 2])
        np.testing.assert_array_equal(np.flatnonzero(mask[0]), [0, 1, 2])

    def test_partition(self, synthetic_dataset):
        mask = popularity_mask(synthetic_dataset)
        np.testing.assert_array_equal(mask.sum(axis=0),
                                      np.ones(synthetic_dataset.num_items))

    def test_count_ties_broken_by_item_id(self):
        ds = dataset_with_counts([5, 5, 5, 5, 5])
        mask = popularity_mask(ds)
        for row in range(5):
            np.testing.assert_array_equal(np.flatnonzero(mask[row]), [row])


def set_based_positives(dataset, split):
    """Per-user ``split`` items gathered in Python sets: the oracle of
    ``positives``."""
    sets = [set() for _ in range(dataset.num_users)]
    users, items = dataset.split_pairs(split)
    for u, i in zip(users, items):
        sets[u].add(int(i))
    return [np.array(sorted(s), dtype=np.int64) for s in sets]


class TestTrainLists:
    def repeated_pair_log(self):
        # user 0 has train pair (0, 3) twice, user 1 only a test item, user 3
        # no interactions; user 2 has val pair (2, 4) twice; rows are not
        # sorted by user
        users = np.array([2, 0, 0, 1, 0, 2, 0, 2], dtype=np.int64)
        items = np.array([4, 3, 1, 2, 3, 0, 2, 4], dtype=np.int64)
        split = np.array([VAL, TRAIN, TRAIN, TEST, TRAIN, TRAIN, TRAIN, VAL], dtype=np.int8)
        return tagged_dataset(4, 5, users, items, split)

    @pytest.mark.parametrize("which", ["repeated_pair", "counts", "synthetic"])
    def test_positive_lists_match_set_oracle(self, which, synthetic_dataset):
        dataset = {"repeated_pair": self.repeated_pair_log,
                   "counts": lambda: dataset_with_counts([10, 9, 3, 8, 1]),
                   "synthetic": lambda: synthetic_dataset}[which]()
        for split in (TRAIN, VAL, TEST):
            indptr, items = dataset.positives(split)
            assert indptr.shape == (dataset.num_users + 1,) and indptr[0] == 0
            assert indptr.dtype == items.dtype == np.int64
            assert dataset.positives(split)[1] is items  # cached
            oracle = set_based_positives(dataset, split)
            assert indptr[-1] == items.shape[0] == sum(len(row) for row in oracle)
            for user, want in enumerate(oracle):
                np.testing.assert_array_equal(items[indptr[user]:indptr[user + 1]], want)

    def test_repeated_pair_lists(self):
        dataset = self.repeated_pair_log()
        # rows by user, each user's split in the order given, splits in order
        assert [a.tolist() for a in dataset.split_pairs(TRAIN)] == [[0, 0, 0, 0, 2],
                                                                   [3, 1, 3, 2, 0]]
        assert [a.tolist() for a in dataset.split_pairs(TRAIN, TEST)] == [
            [0, 0, 0, 0, 2, 2, 2], [3, 1, 3, 2, 0, 4, 4]]
        assert [[row.tolist() for row in positive_lists(dataset, split)]
                for split in (TRAIN, VAL, TEST)] == [
            [[1, 2, 3], [], [0], []], [[], [], [4], []], [[], [2], [], []]]
        complements = dataset.train_complement_lists()
        assert [row.tolist() for row in complements] == [
            [0, 4], [0, 1, 2, 3, 4], [1, 2, 3, 4], [0, 1, 2, 3, 4]]


def dense_train_reference(dataset):
    """The (users x items) bool table of ``split_pairs(TRAIN)``."""
    dense = np.zeros((dataset.num_users, dataset.num_items), dtype=bool)
    dense[dataset.split_pairs(TRAIN)] = True
    return dense


class TestTrainMembership:
    @settings(max_examples=150, deadline=None)
    @given(num_users=st.integers(1, 5), num_items=st.integers(1, 20), full=st.booleans(),
           rows=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                                   st.sampled_from((TRAIN, TRAIN, VAL, TEST))), max_size=60))
    # user 0 holds the catalog, user 1 no train item, user 2 all but item 8,
    # whose byte is one bit short of user 0's
    @example(num_users=3, num_items=9, full=True,
             rows=[(1, 0, TEST)] + [(2, i, TRAIN) for i in range(8)])
    # a catalog past 255 items, where the sampler counts held items in uint16:
    # user 2 holds 250 and draws 20 more, so its count passes 255
    @example(num_users=3, num_items=300, full=True,
             rows=[(1, 0, TEST)] + [(2, i, TRAIN) for i in range(250)])
    def test_packed_rows_match_dense_reference(self, num_users, num_items, full, rows):
        if full:  # user 0 holds the whole catalog
            rows = rows + [(0, i, TRAIN) for i in range(num_items)]
        users, items, split = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        dataset = tagged_dataset(num_users, num_items, users % num_users, items % num_items,
                                 split)
        reference = dense_train_reference(dataset)

        packed = dataset.train_membership()
        assert packed.dtype == np.uint8 and packed.shape == (num_users, (num_items + 7) // 8)
        assert dataset.train_membership() is packed  # cached
        bits = np.unpackbits(packed, axis=1).astype(bool)
        np.testing.assert_array_equal(bits[:, :num_items], reference)
        assert not bits[:, num_items:].any()  # padding bits are 0

        # with a quota of the whole catalog every row takes its complement,
        # which comes from the rows _candidate_context unpacks
        everyone = np.arange(num_users)
        ctx = build_consumer_context(dataset, everyone, num_items, np.random.default_rng(0))
        for row, entries in zip(reference, np.split(ctx.items, np.cumsum(ctx.widths)[:-1])):
            np.testing.assert_array_equal(entries, np.concatenate(
                [np.flatnonzero(row), np.flatnonzero(~row)]))

        # a quota of a fifteenth of the catalog makes rows draw: each holds its
        # positives, then min(quota, free) distinct non-positives, ascending
        quota = max(1, num_items // 15)
        ctx = build_consumer_context(dataset, everyone, quota, np.random.default_rng(2))
        for row, entries in zip(reference, np.split(ctx.items, np.cumsum(ctx.widths)[:-1])):
            n_pos = int(row.sum())
            np.testing.assert_array_equal(entries[:n_pos], np.flatnonzero(row))
            negatives = entries[n_pos:]
            assert negatives.shape[0] == min(quota, num_items - n_pos)
            assert np.all(np.diff(negatives) > 0) and not row[negatives].any()

        # the sampler's packed lookups never return a train positive, and
        # only users holding the whole catalog are dropped
        batch = attach_negatives(dataset, np.random.default_rng(1), np.repeat(everyone, 4),
                                 np.zeros(4 * num_users, dtype=np.int64))
        assert not reference[batch.users, batch.neg_items].any()
        np.testing.assert_array_equal(np.unique(batch.users),
                                      np.flatnonzero(~reference.all(axis=1)))

    def test_footprint_one_bit_per_pair(self, synthetic_dataset):
        for dataset in (synthetic_dataset, dataset_with_counts([3] * 3706)):
            packed = dataset.train_membership()
            assert packed.dtype == np.uint8
            assert packed.nbytes == dataset.num_users * ((dataset.num_items + 7) // 8)


class TestBuildMasks:
    def test_gender_partition(self, synthetic_masks, synthetic_dataset):
        gender = synthetic_masks.gender
        np.testing.assert_array_equal(gender.sum(axis=0),
                                      np.ones(synthetic_dataset.num_users))

    def test_age_partition(self, synthetic_masks, synthetic_dataset):
        age = synthetic_masks.age
        assert age.shape[0] == 7
        np.testing.assert_array_equal(age.sum(axis=0),
                                      np.ones(synthetic_dataset.num_users))

    def test_genre_allows_multiple(self, synthetic_masks):
        assert synthetic_masks.genre.sum(axis=0).max() > 1

    def test_unknown_gender_excluded_with_warning(self, caplog):
        raw = make_raw(seed=3, num_users=12)
        del raw.user_gender[1]
        dataset = preprocess(raw)
        with caplog.at_level(logging.WARNING):
            masks = build_masks(dataset, raw)
        assert "unknown gender" in caplog.text
        dense = int(np.flatnonzero(dataset.user_ids == 1)[0])
        assert masks.gender[:, dense].sum() == 0

    def test_no_attributes_leaves_masks_absent(self, tmp_path):
        raw = make_raw(seed=4, with_attributes=False)
        dataset = preprocess(raw)
        masks = build_masks(dataset, raw)
        assert masks.gender is None
        assert masks.age is None
        assert masks.genre is None
        assert masks.popularity is not None


def build_masks_oracle(dataset, raw):
    """Gender, age and genre masks from per-user and per-item dict lookups
    in Python loops: the reference ``build_masks`` must match."""
    masks = {}
    if raw.user_gender is not None:
        masks["gender"] = np.zeros((len(GENDER_LABELS), dataset.num_users), dtype=np.int8)
        for k, orig in enumerate(dataset.user_ids):
            gender = raw.user_gender.get(int(orig))
            if gender in GENDER_LABELS:
                masks["gender"][GENDER_LABELS.index(gender), k] = 1
    if raw.user_age is not None:
        masks["age"] = np.zeros((len(AGE_UPPER_BOUNDS) + 1, dataset.num_users), dtype=np.int8)
        for k, orig in enumerate(dataset.user_ids):
            age = raw.user_age.get(int(orig))
            if age is not None:
                masks["age"][sum(age > bound for bound in AGE_UPPER_BOUNDS), k] = 1
    if raw.item_genres is not None:
        masks["genre"] = np.zeros((len(raw.genre_names), dataset.num_items), dtype=np.int8)
        for k, orig in enumerate(dataset.item_ids):
            for g in raw.item_genres.get(int(orig), ()):
                masks["genre"][g, k] = 1
    return masks


# ages on both sides of every bracket bound, and far outside the brackets
BRACKET_AGES = tuple(a for bound in AGE_UPPER_BOUNDS for a in (bound, bound + 1)) + (
    -4, 0, 200, 10**30)


class TestBuildMasksAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dict_tables(self, seed):
        raw = make_raw(seed=seed, num_users=45)
        gen = np.random.default_rng(seed)
        users, items = sorted(raw.user_gender), sorted(raw.item_genres)
        for k, u in enumerate(users):
            raw.user_age[u] = BRACKET_AGES[k % len(BRACKET_AGES)]
        for u in gen.choice(users, 6, replace=False).tolist():
            del raw.user_gender[u]  # unknown gender
        raw.user_gender[users[0]] = "X"  # a label outside GENDER_LABELS
        for u in gen.choice(users[len(BRACKET_AGES):], 5, replace=False).tolist():
            del raw.user_age[u]  # unknown or unparsable age
        assert set(raw.user_age.values()) == set(BRACKET_AGES)
        for i in gen.choice(items, 6, replace=False).tolist():
            if i % 2:
                del raw.item_genres[i]
            else:
                raw.item_genres[i] = ()
        self.assert_matches_oracle(raw)

    def test_tables_read_from_files(self, tmp_path):
        raw = make_raw(seed=4, num_users=40)
        write_lines(tmp_path / "ratings.tsv", [
            f"{u}\t{i}\t{r:g}\t{t}" for u, i, r, t in
            zip(raw.users, raw.items, raw.ratings, raw.timestamps)])
        users = sorted(set(raw.users.tolist()))
        ages = BRACKET_AGES[:-1] + ("", "abc", "17.5", "-")
        genders = ("F", "M", "m", "", "X")
        write_lines(tmp_path / "users.tsv", [
            f"{u}\t{genders[k % len(genders)]}\t{ages[k % len(ages)]}"
            for k, u in enumerate(users)])
        write_lines(tmp_path / "items.tsv", [
            f"{i}\t{'|'.join(GENRES[:i % 3])}" for i in sorted(set(raw.items.tolist()))])
        raw = ingest(str(tmp_path), "generic_tsv")
        assert len(raw.user_age) < len(users) and len(raw.user_gender) < len(users)
        self.assert_matches_oracle(raw)

    def test_no_user_tables(self):
        raw = make_raw(seed=5)
        raw.user_gender = raw.user_age = None
        self.assert_matches_oracle(raw)

    @staticmethod
    def assert_matches_oracle(raw):
        dataset = preprocess(raw)
        masks = build_masks(dataset, raw)
        expected = build_masks_oracle(dataset, raw)
        for name in ("gender", "age", "genre"):
            got = masks.mask_for(name)
            if name not in expected:
                assert got is None, name
                continue
            assert got.dtype == expected[name].dtype, name
            np.testing.assert_array_equal(got, expected[name], err_msg=name)


def assert_loads_as_built(directory, dataset, masks):
    """``load_bundle(directory)`` gives ``dataset``'s arrays and ``masks``
    bitwise, dtypes included."""
    loaded, loaded_masks = load_bundle(str(directory))
    assert (loaded.num_users, loaded.num_items) == (dataset.num_users, dataset.num_items)
    for name in ("items", "indptr", "user_ids", "item_ids"):
        got, want = getattr(loaded, name), getattr(dataset, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    for name in ("gender", "age", "popularity", "genre"):
        got, want = getattr(loaded_masks, name), getattr(masks, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    return loaded_masks


def with_arrays(directory, **extra):
    """Rewrite ``directory``'s bundle.npz with ``extra`` arrays added."""
    path = directory / BUNDLE_FILE
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    save_npz(str(path), {**arrays, **extra})


class TestBundle:
    def test_round_trip(self, tmp_path, synthetic_dataset, synthetic_masks):
        out = tmp_path / "bundle"
        save_bundle(str(out), synthetic_dataset, synthetic_masks)
        with np.load(out / BUNDLE_FILE, allow_pickle=False) as archive:
            assert set(archive.files) == {"items", "indptr", "user_ids", "item_ids",
                                          "mask_gender", "mask_age", "mask_genre"}
        assert_loads_as_built(out, synthetic_dataset, synthetic_masks)

    def test_stale_popularity_mask_not_read(self, tmp_path, synthetic_dataset,
                                            synthetic_masks):
        # a stored popularity mask that disagrees with the bundle's train split
        save_bundle(str(tmp_path), synthetic_dataset, synthetic_masks)
        stale = synthetic_masks.popularity[::-1]
        assert not np.array_equal(stale, popularity_mask(synthetic_dataset))
        with_arrays(tmp_path, mask_popularity=stale)
        masks = assert_loads_as_built(tmp_path, synthetic_dataset, synthetic_masks)
        assert np.array_equal(masks.popularity, popularity_mask(synthetic_dataset))

    def test_bundle_of_the_parent_layout(self, tmp_path, synthetic_raw, synthetic_dataset,
                                         synthetic_masks):
        # an earlier version also stored the popularity mask and the genre names
        save_bundle(str(tmp_path), synthetic_dataset, synthetic_masks)
        with_arrays(tmp_path, mask_popularity=synthetic_masks.popularity,
                    genre_names=np.array(synthetic_raw.genre_names, dtype=str))
        assert_loads_as_built(tmp_path, synthetic_dataset,
                              build_masks(synthetic_dataset, synthetic_raw))

    def test_bytes_identical_on_rerun(self, tmp_path, synthetic_dataset, synthetic_masks,
                                      monkeypatch):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        save_bundle(str(out_a), synthetic_dataset, synthetic_masks)
        # a later wall-clock time must not reach the archive
        monkeypatch.setattr(time, "time", lambda: 2e9)
        save_bundle(str(out_b), synthetic_dataset, synthetic_masks)
        assert sorted(os.listdir(out_a)) == [BUNDLE_FILE, "stats.txt"]
        for name in sorted(os.listdir(out_a)):
            with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_missing_bundle(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(str(tmp_path / "nope"))

    def test_csv_bundle_of_earlier_version(self, tmp_path):
        # no reader for the CSV layout: the bundle is simply not there
        (tmp_path / "interactions.csv").write_text("user,item,timestamp,split\n")
        with pytest.raises(FileNotFoundError, match=f"not found: .*{BUNDLE_FILE}"):
            load_bundle(str(tmp_path))

    @pytest.mark.parametrize("key, change", [
        pytest.param("indptr", None, id="indptr-missing"),
        ("items", lambda a: a[:-1]),  # the offsets end past the items
        pytest.param("indptr", lambda a: np.append(a, [a[-1]] * 3), id="indptr-extra-user"),
        pytest.param("indptr", lambda a: a[:-1], id="indptr-short"),
        pytest.param("indptr", lambda a: np.append(1, a[1:]), id="indptr-not-from-0"),
        pytest.param("indptr", lambda a: a[[0, 2, 1, *range(3, a.shape[0])]],
                     id="indptr-decreasing"),
        pytest.param("indptr", lambda a: np.append(a[:-1], a[-1] - 1), id="indptr-short-of-items"),
        ("items", lambda a: a - 1),
        pytest.param("items", lambda a: np.where(np.arange(a.shape[0]) == 3, a.max() + 1, a),
                     id="items-past-catalog"),
        ("mask_gender", lambda a: a[:, :-1]),
        ("mask_genre", lambda a: a[:, 1:]),
        pytest.param("mask_genre", lambda a: a[0], id="mask_genre-1-D"),
        ("mask_age", lambda a: a - 1),  # entries outside {0, 1}
        pytest.param("indptr", lambda a: a.astype(np.float64), id="indptr-float"),
    ])
    def test_inconsistent_array_names_file_and_key(self, tmp_path, synthetic_dataset,
                                                    synthetic_masks, key, change):
        save_bundle(str(tmp_path), synthetic_dataset, synthetic_masks)
        path = tmp_path / BUNDLE_FILE
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        if change is None:
            del arrays[key]
        else:
            arrays[key] = change(arrays[key])
        save_npz(str(path), arrays)
        with pytest.raises(DataFormatError, match=rf"{BUNDLE_FILE}: .*'{key}'"):
            load_bundle(str(tmp_path))

    def test_unreadable_archive(self, tmp_path):
        (tmp_path / BUNDLE_FILE).write_bytes(b"user,item\n1,2\n")
        with pytest.raises(DataFormatError, match=BUNDLE_FILE):
            load_bundle(str(tmp_path))

    def test_failed_write_leaves_no_partial_file(self, tmp_path, synthetic_dataset,
                                                 synthetic_masks, monkeypatch):
        save_bundle(str(tmp_path), synthetic_dataset, synthetic_masks)
        before = (tmp_path / BUNDLE_FILE).read_bytes()
        real_write = np.lib.format.write_array
        calls = []

        def fail_on_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            return real_write(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", fail_on_third)
        with pytest.raises(OSError, match="disk full"):
            save_bundle(str(tmp_path), synthetic_dataset, synthetic_masks)
        assert sorted(os.listdir(tmp_path)) == [BUNDLE_FILE, "stats.txt"]
        assert (tmp_path / BUNDLE_FILE).read_bytes() == before
        fresh = tmp_path / "fresh"
        calls.clear()
        with pytest.raises(OSError, match="disk full"):
            save_bundle(str(fresh), synthetic_dataset, synthetic_masks)
        assert os.listdir(fresh) == []


class TestWriteCsv:
    def test_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["a", "b", "c"], [[1, np.float64(1 / 3), None], ["x", 2.5e-7, 3]])
        assert path.read_bytes() == b"a,b,c\r\n1,0.333333,\r\nx,2.5e-07,3\r\n"

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "rounds.csv"

        def rows():
            yield [1, 0.5]
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_csv(str(path), ["round", "loss"], rows())
        assert os.listdir(tmp_path) == []
        path.write_text("earlier\n")
        with pytest.raises(OSError, match="disk full"):
            write_csv(str(path), ["round", "loss"], rows())
        assert os.listdir(tmp_path) == ["rounds.csv"]
        assert path.read_text() == "earlier\n"
