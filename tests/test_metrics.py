import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dataset_rows, make_raw, tagged_dataset
from moofair import metrics
from moofair.data import TEST, TRAIN, VAL, build_masks, preprocess
from moofair.metrics import (
    RecommendationRun,
    build_recommendations,
    disparity_item,
    disparity_user,
    evaluate,
    gini_from_exposures,
    gini_index,
    ndcg_at_k,
    popularity_rate,
    recall_at_k,
    simpson_diversity,
)
from moofair.data import write_csv
from moofair.metrics import METRIC_COLUMNS
from moofair.model import FactorModel, init_model
from moofair.objectives import group_disparity
from moofair.training import _validation_recall


def run_from(lists, relevance, k=None):
    """Run of per-user ``lists`` and per-user relevant item lists, in the
    run's form: each user's relevant items ascending, one after another."""
    lists = np.asarray(lists, dtype=np.int64)
    k = k or lists.shape[1]
    return RecommendationRun(
        k=k,
        user_ids=np.arange(lists.shape[0], dtype=np.int64),
        lists=lists,
        counts=np.array([len(r) for r in relevance], dtype=np.int64),
        relevant=np.concatenate([np.sort(np.asarray(r, dtype=np.int64)) for r in relevance]),
    )


def relevance_rows(run):
    """The per-user relevant item arrays of a run."""
    return np.split(run.relevant, np.cumsum(run.counts)[:-1])


class TestRecall:
    def test_all_hits(self):
        run = run_from([[0, 1], [2, 3]], [[0, 1], [2, 3]])
        assert recall_at_k(run) == 1.0

    def test_half_hits(self):
        run = run_from([[0, 9]], [[0, 5]])
        assert recall_at_k(run) == 0.5

    def test_no_hits(self):
        run = run_from([[7, 8]], [[0]])
        assert recall_at_k(run) == 0.0


class TestNdcg:
    def test_perfect_ranking(self):
        run = run_from([[0, 1, 2]], [[0, 1, 2]])
        assert ndcg_at_k(run) == pytest.approx(1.0)

    def test_single_hit_at_rank_two(self):
        run = run_from([[9, 0]], [[0]])
        assert ndcg_at_k(run) == pytest.approx(1.0 / np.log2(3.0))
        assert ndcg_at_k(run) == pytest.approx(0.6309297535714574)

    def test_moving_hit_up_increases_ndcg(self):
        low = run_from([[8, 9, 0]], [[0]])
        high = run_from([[0, 8, 9]], [[0]])
        assert ndcg_at_k(high) > ndcg_at_k(low)

    def test_recall_monotone_in_k_and_ndcg_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            items = rng.permutation(30)
            rel = rng.choice(30, size=5, replace=False)
            values = [
                ndcg_at_k(run_from([items[:k]], [rel]))
                for k in range(1, 15)
            ]
            recalls = [
                recall_at_k(run_from([items[:k]], [rel]))
                for k in range(1, 15)
            ]
            assert np.all(np.diff(recalls) >= -1e-12)
            assert np.all((np.asarray(values) >= 0.0) & (np.asarray(values) <= 1.0))

    def test_monotone_in_k_with_single_positive(self):
        # with one relevant item the ideal gain is constant past k=1, so
        # deeper lists can only help
        rng = np.random.default_rng(9)
        for _ in range(20):
            items = rng.permutation(30)
            rel = [int(items[rng.integers(0, 15)])]
            values = [ndcg_at_k(run_from([items[:k]], [rel]))
                      for k in range(1, 15)]
            assert np.all(np.diff(values) >= -1e-12)


class TestDisparityUser:
    def test_constant_gap_arithmetic(self):
        # the disparity kernel on two K=20 vectors differing by 0.1 everywhere
        base = np.full(20, 0.5)
        loss, _ = group_disparity(np.stack([base, base + 0.1]), np.eye(2))
        assert loss == pytest.approx(0.2)

    def test_identical_groups_zero(self, synthetic_masks):
        run = run_from([[0, 1], [0, 1]], [[0], [0]])
        masks = synthetic_masks
        value = disparity_user(run, masks, "gender")
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_matches_brute_force(self, synthetic_dataset, synthetic_masks):
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 4, 0.0, np.random.default_rng(1))
        run = build_recommendations(model, synthetic_dataset, 5)
        got = disparity_user(run, synthetic_masks, "gender")
        # brute force: per-user NDCG vectors, group means, squared distance
        vectors = []
        for row, rel in enumerate(relevance_rows(run)):
            v = []
            for k in range(1, 6):
                hits = np.isin(run.lists[row][:k], rel)
                dcg = np.sum(hits / np.log2(np.arange(2, k + 2)))
                ideal = np.sum(1.0 / np.log2(np.arange(2, min(k, len(rel)) + 2)))
                v.append(dcg / ideal)
            vectors.append(v)
        vectors = np.asarray(vectors)
        g = synthetic_masks.gender[:, run.user_ids].astype(bool)
        means = [vectors[g[0]].mean(axis=0), vectors[g[1]].mean(axis=0)]
        expected = float(np.sum((means[0] - means[1]) ** 2))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_age_variant_same_kernel(self, synthetic_dataset, synthetic_masks):
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 4, 0.0, np.random.default_rng(2))
        run = build_recommendations(model, synthetic_dataset, 5)
        value = disparity_user(run, synthetic_masks, "age")
        assert value is not None and value >= 0.0

    def test_absent_mask_reported_none(self, synthetic_dataset):
        from moofair.data import GroupMaskSet

        run = run_from([[0, 1]], [[0]])
        assert disparity_user(run, GroupMaskSet(), "gender") is None


class TestDisparityItem:
    def test_hand_computed_two_slots(self):
        run = run_from([[0, 1]], [[0]])
        mask = np.array([[1, 0], [0, 1]], dtype=np.int8)
        assert disparity_item(run, mask, 0.5) == pytest.approx(1.0 / 18.0)

    def test_single_group_concentration(self):
        run = run_from([[0, 1]], [[0]])
        mask = np.zeros((5, 4), dtype=np.int8)
        mask[0, :] = 1  # every item in the top group
        assert disparity_item(run, mask, 0.5) == pytest.approx(0.8)

    def test_flat_exposure_is_zero(self):
        # two users, mirrored lists: both groups get one rank-1 and one rank-2
        run = run_from([[0, 1], [1, 0]], [[0], [1]])
        mask = np.array([[1, 0], [0, 1]], dtype=np.int8)
        assert disparity_item(run, mask, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_patience_near_one_approaches_slot_share(self):
        run = run_from([[0, 1, 2, 3]], [[0]])
        mask = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int8)
        value = disparity_item(run, mask, 1.0 - 1e-9)
        assert value == pytest.approx(0.0, abs=1e-6)


class TestGini:
    def test_uniform_exposure(self):
        assert gini_from_exposures(np.full(10, 3.0)) == pytest.approx(0.0)

    def test_single_item_concentration(self):
        assert gini_from_exposures(np.array([0.0, 0.0, 0.0, 8.0])) == pytest.approx(0.75)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(0.0, 1e6, allow_subnormal=False)),
                    min_size=1, max_size=60))
    @example([0.0]).via("all-zero, one item")
    @example([0.0, 0.0, 0.0]).via("all-zero")
    @example([7.25]).via("single item")
    def test_matches_brute_force(self, values):
        e = np.asarray(values)
        n = e.shape[0]
        if e.sum() == 0.0:
            with pytest.raises(ValueError, match="undefined"):
                gini_from_exposures(e)
            return
        brute = np.abs(e[:, None] - e[None, :]).sum() / (2 * n * n * e.mean())
        assert gini_from_exposures(e) == pytest.approx(brute, rel=1e-10, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        e = rng.uniform(0, 5, size=40)
        assert gini_from_exposures(e) == pytest.approx(
            gini_from_exposures(1234.5 * e), abs=1e-10)

    def test_all_zero_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            gini_from_exposures(np.zeros(5))

    def test_run_level_counts(self):
        # item counts (2, 1, 1, 0, 0), items 3 and 4 never listed
        run = run_from([[0, 1], [0, 2]], [[0], [0]])
        # sorted exposures (0, 0, 1, 1, 2): sum (2r - 6) e_r / (5 * 4) = 10 / 20
        assert gini_index(run, 5) == pytest.approx(0.5)


class TestPopularityRate:
    def test_all_top_group(self):
        run = run_from([[0, 1]], [[0]])
        mask = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int8)
        assert popularity_rate(run, mask) == 1.0

    def test_none_top_group(self):
        run = run_from([[2, 2]], [[0]])
        mask = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int8)
        assert popularity_rate(run, mask) == 0.0

    def test_half(self):
        run = run_from([[0, 2]], [[0]])
        mask = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int8)
        assert popularity_rate(run, mask) == 0.5


class TestSimpsonDiversity:
    def test_single_group_zero(self):
        run = run_from([[0, 1]], [[0]])
        mask = np.array([[1, 1]], dtype=np.int8)
        assert simpson_diversity(run, mask) == 0.0

    def test_two_equal_groups(self):
        run = run_from([[0, 1, 2, 3]], [[0]])
        mask = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int8)
        assert simpson_diversity(run, mask) == pytest.approx(2.0 / 3.0)

    def test_more_equal_groups_more_diverse(self):
        # twelve slots split into 2, 3, 4, then 6 equal groups
        values = []
        for groups in (2, 3, 4, 6):
            size = 12 // groups
            mask = np.zeros((groups, 12), dtype=np.int8)
            for g in range(groups):
                mask[g, g * size:(g + 1) * size] = 1
            run = run_from([list(range(12))], [[0]])
            values.append(simpson_diversity(run, mask))
        assert np.all(np.diff(values) > 0)

    def test_label_permutation_invariant(self):
        run = run_from([[0, 1, 2, 3]], [[0]])
        mask = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=np.int8)
        assert simpson_diversity(run, mask) == simpson_diversity(run, mask[::-1])

    def test_too_few_slots(self):
        run = run_from([[0]], [[0]], k=1)
        mask = np.zeros((2, 1), dtype=np.int8)
        with pytest.raises(ValueError):
            simpson_diversity(run, mask)


class TestBuildRecommendations:
    def test_excludes_train_and_val(self, synthetic_dataset):
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 4, 0.0, np.random.default_rng(3))
        run = build_recommendations(model, synthetic_dataset, 5)
        from moofair.data import TRAIN, VAL
        users, items, split = dataset_rows(synthetic_dataset)
        seen = (split == TRAIN) | (split == VAL)
        seen_pairs = set(zip(users[seen].tolist(), items[seen].tolist()))
        for row, u in enumerate(run.user_ids):
            assert len(set(run.lists[row].tolist())) == run.k
            for item in run.lists[row]:
                assert (int(u), int(item)) not in seen_pairs

    def test_only_users_with_test_positives(self, synthetic_dataset):
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 4, 0.0, np.random.default_rng(4))
        run = build_recommendations(model, synthetic_dataset, 5)
        from moofair.data import TEST
        users, _, split = dataset_rows(synthetic_dataset)
        with_test = np.unique(users[split == TEST])
        np.testing.assert_array_equal(run.user_ids, with_test)

    def test_deterministic(self, synthetic_dataset):
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 4, 0.0, np.random.default_rng(5))
        a = build_recommendations(model, synthetic_dataset, 5)
        b = build_recommendations(model, synthetic_dataset, 5)
        assert np.array_equal(a.lists, b.lists)


class TestEvaluate:
    def test_rows_per_k(self, synthetic_dataset, synthetic_masks):
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 4, 0.0, np.random.default_rng(6))
        rows = evaluate(model, synthetic_dataset, synthetic_masks,
                        k_values=(3, 5), label="random")
        assert [row["k"] for row in rows] == [3, 5]
        for row in rows:
            assert set(row) == {"model", "k", "recall", "ndcg", "disparity_u",
                                "disparity_i", "gini", "popularity_rate",
                                "diversity"}
            assert 0.0 <= row["recall"] <= 1.0

    def test_deterministic(self, synthetic_dataset, synthetic_masks):
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 4, 0.0, np.random.default_rng(7))
        a = evaluate(model, synthetic_dataset, synthetic_masks, k_values=(4,))
        b = evaluate(model, synthetic_dataset, synthetic_masks, k_values=(4,))
        assert a == b

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from([-4, -1, 1, 3]))
    def test_rows_unchanged_under_ties_by_exact_rescaling(self, roomy_dataset, seed, dim,
                                                          power):
        # embeddings in {-1, 0, 1} tie most scores; scaling the users by a
        # power of two scales every score exactly, so the order and its ties
        # stay, and so must every metric
        dataset, masks = roomy_dataset
        gen = np.random.default_rng(seed)
        users = gen.integers(-1, 2, size=(dataset.num_users, dim)).astype(np.float64)
        items = gen.integers(-1, 2, size=(dataset.num_items, dim)).astype(np.float64)
        rows = evaluate(FactorModel(users, items), dataset, masks, k_values=(5, 20))
        scaled = evaluate(FactorModel(users * 2.0 ** power, items), dataset, masks,
                          k_values=(5, 20))
        assert scaled == rows

    def test_csv_emission(self, tmp_path, synthetic_dataset, synthetic_masks):
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 4, 0.0, np.random.default_rng(8))
        rows = evaluate(model, synthetic_dataset, synthetic_masks, k_values=(4,))
        out = tmp_path / "metrics.csv"
        rows[0]["disparity_u"] = None
        write_csv(str(out), METRIC_COLUMNS, ([row[c] for c in METRIC_COLUMNS] for row in rows))
        content = out.read_bytes().decode().split("\r\n")
        assert content[0] == "model,k,recall,ndcg,disparity_u,disparity_i,gini,popularity_rate,diversity"
        assert content[1].split(",")[:2] == ["model", "4"]
        assert content[1].split(",")[2] == f"{rows[0]['recall']:.6g}"
        assert content[1].split(",")[4] == ""
        assert content[2:] == [""]


# Full-sort references: the ranking and metric code that top_k_items and the
# vectorised metrics replaced, kept as the oracle they must reproduce.

def reference_build_recommendations(model, dataset, k):
    scores = model.user_embeddings @ model.item_embeddings.T
    users, items, split = dataset_rows(dataset)
    seen = (split == TRAIN) | (split == VAL)
    scores[users[seen], items[seen]] = -np.inf
    test_users, test_items = dataset.split_pairs(TEST)
    relevance_by_user = {}
    for u, i in zip(test_users, test_items):
        relevance_by_user.setdefault(int(u), set()).add(int(i))
    user_ids = np.asarray(sorted(relevance_by_user), dtype=np.int64)
    order = np.argsort(-scores[user_ids], axis=1, kind="stable")
    lists = order[:, :k]
    if np.any(np.take_along_axis(scores[user_ids], lists, axis=1) == -np.inf):
        raise ValueError(f"catalog too small to recommend {k} unseen items")
    relevance = [sorted(relevance_by_user[int(u)]) for u in user_ids]
    return RecommendationRun(k, user_ids, lists, np.array([len(r) for r in relevance]),
                             np.array([i for r in relevance for i in r], dtype=np.int64))


def reference_validation_recall(model, dataset, k):
    scores = model.user_embeddings @ model.item_embeddings.T
    users, items, split = dataset_rows(dataset)
    scores[users[split == TRAIN], items[split == TRAIN]] = -np.inf
    val_users, val_items = dataset.split_pairs(VAL)
    by_user = {}
    for u, i in zip(val_users, val_items):
        by_user.setdefault(int(u), set()).add(int(i))
    if not by_user:
        return 0.0
    users = np.asarray(sorted(by_user), dtype=np.int64)
    order = np.argsort(-scores[users], axis=1, kind="stable")[:, :k]
    total = 0.0
    for row, u in enumerate(users):
        rel = by_user[int(u)]
        total += len(set(order[row].tolist()) & rel) / len(rel)
    return total / users.shape[0]


def reference_hit_matrix(run):
    hits = np.zeros((run.user_ids.shape[0], run.k), dtype=np.float64)
    rows = relevance_rows(run)
    for row, rel in enumerate(rows):
        hits[row] = np.isin(run.lists[row], rel)
    return hits


def reference_disparity_item(run, item_group_mask, patience=0.5):
    slot_exposure = np.power(patience, np.arange(1, run.k + 1, dtype=np.float64))
    raw = np.zeros(item_group_mask.shape[0])
    for row in range(run.user_ids.shape[0]):
        raw += item_group_mask[:, run.lists[row]].astype(np.float64) @ slot_exposure
    diff = raw / raw.sum() - 1.0 / item_group_mask.shape[0]
    return float(diff @ diff)


def reference_evaluate(model, dataset, masks, k_values):
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_hit_matrix", reference_hit_matrix)
        for k in k_values:
            run = reference_build_recommendations(model, dataset, k)
            rows.append({
                "model": "model", "k": k,
                "recall": recall_at_k(run), "ndcg": ndcg_at_k(run),
                "disparity_u": disparity_user(run, masks, "gender"),
                "disparity_i": reference_disparity_item(run, masks.popularity),
                "gini": gini_index(run, dataset.num_items),
                "popularity_rate": popularity_rate(run, masks.popularity),
                "diversity": simpson_diversity(run, masks.popularity),
            })
    return rows


def score_model(scores):
    """A model whose user x item scores are exactly ``scores``."""
    return FactorModel(scores, np.eye(scores.shape[1]))


@st.composite
def ranking_cases(draw):
    num_users = draw(st.integers(1, 9))
    num_items = draw(st.integers(1, 12))
    cells = st.lists(st.integers(-2, 2), min_size=num_items, max_size=num_items)
    scores = np.asarray(draw(st.lists(cells, min_size=num_users, max_size=num_users)),
                        dtype=np.float64)
    flags = st.lists(st.booleans(), min_size=num_items, max_size=num_items)
    excluded = np.asarray(draw(st.lists(flags, min_size=num_users, max_size=num_users)))
    users = np.flatnonzero(draw(st.lists(st.booleans(), min_size=num_users,
                                         max_size=num_users)))
    k = draw(st.integers(1, num_items + 1))
    block = draw(st.integers(1, 4))
    chunks = draw(st.integers(1, num_items))
    return scores, excluded, users, k, block, chunks


# three rows of ten: -1, 0 or 1 everywhere
TIED = np.repeat([[-1.0], [0.0], [1.0]], 10, axis=1)
NONE = np.zeros((3, 10), dtype=bool)
# row 0 has 2 unseen items, row 1 none, row 2 all ten
SPARSE = np.zeros((3, 10), dtype=bool)
SPARSE[0, 2:] = SPARSE[1] = True
ALL = np.arange(3)


class TestTopKItems:
    @settings(max_examples=300, deadline=None)
    @given(ranking_cases())
    @example((TIED, NONE, ALL, 3, 2, 2))  # all-tied rows
    @example((TIED, NONE, ALL, 10, 4, 3))  # k = catalog
    @example((TIED, NONE, ALL, 11, 1, 10))  # k = catalog + 1
    @example((TIED[::-1] * np.arange(10), SPARSE, ALL, 4, 3, 2))  # k-th best is -inf
    @example((TIED[::-1] * np.arange(10), SPARSE, ALL, 4, 1, 10))
    def test_equals_full_stable_sort(self, case):
        # chunk counts below the catalog run the chunk-maxima prefilter
        scores, excluded, users, k, block, chunks = case
        ex_users, ex_items = np.nonzero(excluded)
        masked = np.where(excluded, -np.inf, scores)[users]
        expected = np.argsort(-masked, axis=1, kind="stable")[:, :k]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "USER_BLOCK", block)
            mp.setattr(metrics, "TOP_K_CHUNKS", chunks)
            lists, top = metrics.top_k_items(score_model(scores), users, k,
                                             ex_users, ex_items)
        np.testing.assert_array_equal(lists, expected)
        np.testing.assert_array_equal(top, np.take_along_axis(masked, expected, axis=1))

    def test_catalog_too_small(self, synthetic_dataset):
        model = init_model(synthetic_dataset.num_users,
                           synthetic_dataset.num_items, 4, 0.0, np.random.default_rng(9), 1.0)
        for k in (synthetic_dataset.num_items, synthetic_dataset.num_items + 1):
            with pytest.raises(ValueError, match="catalog too small"):
                build_recommendations(model, synthetic_dataset, k)


@pytest.fixture(scope="module")
def roomy_dataset():
    """Enough unseen items per user for lists of depth 20."""
    raw = make_raw(seed=1, num_users=80, num_core_items=60, num_tail_items=20,
                   max_positives=25)
    dataset = preprocess(raw)
    return dataset, build_masks(dataset, raw)


class TestAgainstFullSort:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_validation_recall_bit_identical(self, roomy_dataset, seed):
        dataset, _ = roomy_dataset
        model = init_model(dataset.num_users, dataset.num_items, 8, 0.0,
                           np.random.default_rng(seed), 1.0)
        for k in (1, 5, 20, dataset.num_items):
            assert (_validation_recall(model, dataset, k)
                    == reference_validation_recall(model, dataset, k))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k_values", [(5, 10, 20), (20, 10)])
    def test_evaluate_rows(self, roomy_dataset, seed, k_values):
        dataset, masks = roomy_dataset
        model = init_model(dataset.num_users, dataset.num_items, 8, 0.0,
                           np.random.default_rng(seed), 1.0)
        got = evaluate(model, dataset, masks, k_values=k_values)
        expected = reference_evaluate(model, dataset, masks, k_values)
        assert [row["k"] for row in got] == list(k_values)
        for row, ref in zip(got, expected):
            assert row.keys() == ref.keys()
            for key, value in ref.items():
                assert row[key] == (value if isinstance(value, (str, int)) or value is None
                                    else pytest.approx(value, rel=1e-12, abs=1e-12))

    def test_no_depths_no_rows(self, roomy_dataset):
        dataset, masks = roomy_dataset
        model = init_model(dataset.num_users, dataset.num_items, 8, 0.0, np.random.default_rng(0))
        assert evaluate(model, dataset, masks, k_values=()) == []


class TestRepeatedPairs:
    """A (user, item) pair listed twice in a split is one relevant item."""

    @staticmethod
    def world(split):
        # user 0: item 1 twice in ``split``, ranked first; user 1: item 1 once,
        # ranked below item 3 (item 2 is user 1's train positive)
        dataset = tagged_dataset(2, 4, [0, 0, 0, 1, 1], [0, 1, 1, 2, 1],
                                 [TRAIN, split, split, TRAIN, split])
        return dataset, score_model(np.array([[0.0, 3.0, 2.0, 1.0], [0.0, 1.0, 2.0, 3.0]]))

    def test_evaluation_relevance(self):
        dataset, model = self.world(TEST)
        run = build_recommendations(model, dataset, 1)
        assert run.counts.tolist() == [1, 1] and run.relevant.tolist() == [1, 1]
        assert recall_at_k(run) == 0.5
        assert ndcg_at_k(run) == 0.5
        run = build_recommendations(model, dataset, 2)
        assert run.lists[0].tolist() == [1, 2]
        assert run.ndcg_vectors[0].tolist() == [1.0, 1.0]

    def test_validation_relevance(self):
        dataset, model = self.world(VAL)
        assert _validation_recall(model, dataset, 1) == 0.5


class TestMemory:
    def test_no_users_by_items_array(self):
        # ~2% dense, so the O(interactions) arrays stay well under the limit
        raw = make_raw(seed=0, num_users=1000, num_core_items=1000, num_tail_items=5,
                       max_positives=20)
        dataset = preprocess(raw)
        masks = build_masks(dataset, raw)
        assert dataset.num_users > 20 * 32
        model = init_model(dataset.num_users, dataset.num_items, 8, 0.0,
                           np.random.default_rng(0), 1.0)
        limit = dataset.num_users * dataset.num_items * 8 / 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "USER_BLOCK", 32)
            for call in (lambda: evaluate(model, dataset, masks),
                         lambda: _validation_recall(model, dataset, 20)):
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < limit
