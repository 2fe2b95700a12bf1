"""Evaluation harness: accuracy, fairness, and diversity of top-k lists.

All metrics run on exact top-k lists from ``top_k_items``, with train and
validation positives excluded from the candidates and the rows of
``positives(TEST)`` as the relevant items. Smooth approximations are training-only.

``top_k_items`` scores users in blocks, each written into one buffer allocated
per call, and sorts only the items of a row that score at least a bound no
top-k item lies below: the k-th largest of the maxima of k or more column
chunks. Ties at the k-th score and rows with fewer than k finite scores fall
out of that one stable sort, so no list takes a second pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import TEST, TRAIN, EmptyDatasetError, InteractionDataset
from .model import FactorModel
from .objectives import CONSUMER_OBJECTIVES, exposure_disparity, group_disparity, ideal_dcg

METRIC_COLUMNS = ("model", "k", "recall", "ndcg", "disparity_u", "disparity_i",
                  "gini", "popularity_rate", "diversity")
USER_BLOCK = 512  # users scored at once when ranking the catalog
TOP_K_CHUNKS = 64  # column chunks whose maxima bound each row's k-th best score


class CatalogTooSmallError(ValueError):
    """Some evaluated user has fewer unseen items than the list depth."""


@dataclass
class RecommendationRun:
    """Top-k lists of the evaluated users (ascending ids) plus their relevant
    items: row r's ``counts[r]`` items, ascending, follow the earlier rows' in
    ``relevant`` (the nonempty rows of ``InteractionDataset.positives``)."""

    k: int
    user_ids: np.ndarray
    lists: np.ndarray
    counts: np.ndarray
    relevant: np.ndarray

    def __post_init__(self):
        if self.k < 1 or self.lists.shape != (self.user_ids.shape[0], self.k):
            raise ValueError("lists must be (num_users, k) with k >= 1")

    # the metrics of a run share these inputs, so each is built once per run
    @cached_property
    def hits(self) -> np.ndarray:
        return _hit_matrix(self)

    @cached_property
    def ndcg_vectors(self) -> np.ndarray:
        """Per-user NDCG@j for j = 1..k, binary relevance, 1-based positions:
        the DCG of the list over ``objectives.ideal_dcg`` of the user's count."""
        gains = 1.0 / np.log2(np.arange(1, self.k + 1, dtype=np.float64) + 1.0)
        return np.cumsum(self.hits * gains, axis=1) / ideal_dcg(self.counts, self.k)


def top_k_items(model: FactorModel, users: np.ndarray, k: int,
                excluded_users: np.ndarray, excluded_items: np.ndarray):
    """Exact top-k items of each of the distinct ``users``, and their scores.

    The lists equal ``np.argsort(-scores, kind="stable")[:, :k]``, with
    ``min(k, num_items)`` columns and excluded (user, item) pairs at -inf.
    Users are scored ``USER_BLOCK`` at a time into one score buffer allocated
    per call.

    Each row's catalog is cut into ``max(TOP_K_CHUNKS, k)`` contiguous chunks
    (at most one per item) and the bound is the k-th largest chunk maximum.
    The k chunks with the largest maxima each hold an item scoring at least
    the bound, so the row's k-th best score is at least the bound and every
    item of its list, ties at the k-th score included, passes
    ``score >= bound``. The passing items (about 24 per row at k = 20 on the
    ML-1M catalog) are ordered by (row, -score) in one stable lexsort; they
    enter in ascending item order, so equal scores keep ascending item ids. A
    row whose k-th best is -inf has a -inf bound and passes its whole
    catalog, so its -inf items follow in id order as well.
    """
    row_of = np.full(model.num_users, -1)
    row_of[users] = np.arange(users.shape[0])
    grouped = np.argsort(row_of[excluded_users], kind="stable")
    rows, excluded_items = row_of[excluded_users[grouped]], excluded_items[grouped]
    num_items = model.num_items
    depth = min(k, num_items)
    chunks = min(max(TOP_K_CHUNKS, depth), num_items)
    chunk_starts = np.arange(chunks) * num_items // chunks
    lists = np.empty((users.shape[0], depth), dtype=np.int64)
    top = np.empty(lists.shape)
    buffer = np.empty((min(USER_BLOCK, users.shape[0]), num_items))
    for start in range(0, users.shape[0], USER_BLOCK):
        stop = min(start + USER_BLOCK, users.shape[0])
        scores = np.matmul(model.user_embeddings[users[start:stop]], model.item_embeddings.T,
                           out=buffer[:stop - start])
        lo, hi = np.searchsorted(rows, (start, stop))
        scores[rows[lo:hi] - start, excluded_items[lo:hi]] = -np.inf
        maxima = np.maximum.reduceat(scores, chunk_starts, axis=1)
        bound = np.partition(maxima, chunks - depth, axis=1)[:, chunks - depth]
        kept = np.flatnonzero(scores >= bound[:, None])
        row, item = np.divmod(kept, num_items)
        value = scores.ravel()[kept]
        # the narrowest row key (uint16 at USER_BLOCK rows) is radix-sorted
        order = np.lexsort((-value, row.astype(np.min_scalar_type(stop - start - 1))))
        # every row keeps at least depth items; its first depth in sort order
        picks = order[np.searchsorted(row, np.arange(stop - start))[:, None]
                      + np.arange(depth)]
        lists[start:stop] = item[picks]
        top[start:stop] = value[picks]
    return lists, top


def rank_split(model: FactorModel, dataset: InteractionDataset, k: int, split: int):
    """Run against ``dataset.positives(split)``, earlier splits' pairs excluded; its scores."""
    indptr, items = dataset.positives(split)
    counts = np.diff(indptr)
    user_ids = np.flatnonzero(counts)
    lists, top = top_k_items(model, user_ids, k, *dataset.split_pairs(TRAIN, split))
    return RecommendationRun(lists.shape[1], user_ids, lists, counts[user_ids], items), top


def build_recommendations(model: FactorModel, dataset: InteractionDataset,
                          k: int) -> RecommendationRun:
    """Rank the catalog per user and keep the top k unseen items.

    Users without test positives are excluded from evaluation;
    ``EmptyDatasetError`` when that leaves none. Ties are broken by item id so
    reruns are byte-stable.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    run, top = rank_split(model, dataset, k, TEST)
    if run.user_ids.shape[0] == 0:
        raise EmptyDatasetError("no user has test positives to evaluate")
    if top.shape[1] < k or np.any(top == -np.inf):
        raise CatalogTooSmallError(f"catalog too small to recommend {k} unseen items")
    return run


def _hit_matrix(run: RecommendationRun) -> np.ndarray:
    """1.0 where a listed item is relevant to its user. The relevant pairs'
    codes row * width + item ascend as they are."""
    width = int(max(run.lists.max(initial=0), run.relevant.max(initial=0))) + 1
    listed = np.arange(run.lists.shape[0])[:, None] * width + run.lists
    codes = np.repeat(np.arange(run.counts.shape[0]), run.counts) * width + run.relevant
    found = np.minimum(np.searchsorted(codes, listed), codes.shape[0] - 1)
    return (codes[found] == listed).astype(np.float64)


def recall_at_k(run: RecommendationRun) -> float:
    """Mean fraction of each user's relevant items in the list, summed in user order."""
    return float(np.cumsum(run.hits.sum(axis=1) / run.counts)[-1] / run.counts.shape[0])


def ndcg_at_k(run: RecommendationRun) -> float:
    """Mean normalized discounted cumulative gain at the run's depth."""
    return float(np.mean(run.ndcg_vectors[:, -1]))


def disparity_user(run: RecommendationRun, masks: dict[str, np.ndarray],
                   variant: str = "gender") -> float | None:
    """Consumer-side disparity: the training loss ``group_disparity`` on exact
    NDCG vectors.

    Per-user vectors of NDCG@1..k are averaged within each group of
    ``masks[variant]``, a consumer objective's id, and the pairwise squared
    distances of the group means are returned. None when ``masks`` has no
    such key or fewer than two groups are evaluated.
    """
    if variant not in CONSUMER_OBJECTIVES:
        raise ValueError(f"variant must be one of {CONSUMER_OBJECTIVES}, got {variant!r}")
    mask = masks.get(variant)
    if mask is None:
        return None
    result = group_disparity(run.ndcg_vectors, mask[:, run.user_ids])
    return None if result is None else result[0]


def disparity_item(run: RecommendationRun, item_group_mask: np.ndarray,
                   patience: float = 0.5) -> float | None:
    """Producer-side disparity: the training loss ``exposure_disparity`` on
    hard exposures.

    The slot at 0-based position r contributes patience**r to every group of
    its item, as the smooth exposure of training; the normalized distribution
    is compared to the flat target. None, like an undefined
    ``disparity_user``, when no listed item belongs to any group.
    """
    if not 0.0 < patience < 1.0:
        raise ValueError(f"patience must be in (0, 1), got {patience}")
    slot_exposure = np.power(patience, np.arange(run.k, dtype=np.float64))
    result = exposure_disparity((item_group_mask[:, run.lists] @ slot_exposure).sum(axis=1))
    return None if result is None else result[0]


def gini_index(run: RecommendationRun, num_items: int) -> float:
    """Inequality of item exposure across the catalog, in [0, 1).

    Exposure is the occurrence count in all lists; items never recommended
    count as zero.
    """
    return gini_from_exposures(
        np.bincount(run.lists.ravel(), minlength=num_items).astype(np.float64))


def gini_from_exposures(exposures: np.ndarray) -> float:
    """Mean absolute pairwise exposure difference over twice the mean.

    Computed from the sorted vector in O(n log n); equal to the pairwise
    double sum (1 / (2 n^2 mean)) * sum_ij |e_i - e_j|.
    """
    e = np.asarray(exposures, dtype=np.float64)
    if e.ndim != 1 or e.shape[0] == 0:
        raise ValueError("exposures must be a nonempty vector")
    if np.any(e < 0):
        raise ValueError("exposures must be nonnegative")
    total = e.sum()
    if total <= 0.0:
        raise ValueError("total exposure is zero; the index is undefined")
    n = e.shape[0]
    ordered = np.sort(e)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum((2.0 * ranks - n - 1.0) * ordered) / (n * total))


def popularity_rate(run: RecommendationRun, popularity_mask: np.ndarray) -> float:
    """Fraction of recommended slots filled by items of the top popularity group."""
    top_group = popularity_mask[0]
    hits = top_group[run.lists.ravel()]
    return float(np.mean(hits))


def simpson_diversity(run: RecommendationRun, group_mask: np.ndarray) -> float | None:
    """One minus the probability that two random slots share an item group;
    None, like an undefined ``disparity_user``, when fewer than two slots
    belong to a group."""
    slot_counts = group_mask[:, run.lists.ravel()].astype(np.float64).sum(axis=1)
    total = slot_counts.sum()
    if total < 2:
        return None
    return float(1.0 - np.sum(slot_counts * (slot_counts - 1.0))
                 / (total * (total - 1.0)))


def evaluate(model: FactorModel, dataset: InteractionDataset, masks: dict[str, np.ndarray],
             k_values=(10, 20), patience: float = 0.5, label: str = "model",
             disparity_user_variant: str = "gender") -> list:
    """All seven metrics at each requested list depth, one row per (model, k):
    ``masks["popularity"]`` groups the items, ``masks[disparity_user_variant]``
    the users of disparity_u. An undefined disparity_u, disparity_i or
    diversity is None."""
    rows = []
    # one ranking at the deepest k: a stable order's shallower lists are prefixes
    deepest = build_recommendations(model, dataset, max(k_values)) if k_values else None
    popularity = masks["popularity"]
    for k in k_values:
        run = replace(deepest, k=k, lists=deepest.lists[:, :k])
        rows.append({
            "model": label,
            "k": int(k),
            "recall": recall_at_k(run),
            "ndcg": ndcg_at_k(run),
            "disparity_u": disparity_user(run, masks, disparity_user_variant),
            "disparity_i": disparity_item(run, popularity, patience),
            "gini": gini_index(run, dataset.num_items),
            "popularity_rate": popularity_rate(run, popularity),
            "diversity": simpson_diversity(run, popularity),
        })
    return rows
