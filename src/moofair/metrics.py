"""Evaluation harness: accuracy, fairness, and diversity of top-k lists.

All metrics run on exact top-k lists from ``top_k_items`` (users scored in
blocks), with train and validation positives excluded from the candidates and
test positives as the relevance sets. Smooth approximations are training-only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import TEST, GroupMaskSet, InteractionDataset
from .model import FactorModel
from .objectives import consumer_group_fairness

METRIC_COLUMNS = ("model", "k", "recall", "ndcg", "disparity_u", "disparity_i",
                  "gini", "popularity_rate", "diversity")
USER_BLOCK = 512  # users scored at once when ranking the catalog


@dataclass
class RecommendationRun:
    """Top-k lists for every evaluated user plus their relevance sets."""

    k: int
    user_ids: np.ndarray
    lists: np.ndarray
    relevance: list

    def __post_init__(self):
        if self.k < 1 or self.lists.shape != (self.user_ids.shape[0], self.k):
            raise ValueError("lists must be (num_users, k) with k >= 1")

    # the metrics of a run share these inputs, so each is built once per run
    @cached_property
    def hits(self) -> tuple[np.ndarray, np.ndarray]:
        return _hit_matrix(self)

    @cached_property
    def ndcg_vectors(self) -> np.ndarray:
        """Per-user NDCG@j for j = 1..k, binary relevance, 1-based positions."""
        hits, counts = self.hits
        positions = np.arange(1, self.k + 1, dtype=np.float64)
        gains = 1.0 / np.log2(positions + 1.0)
        dcg = np.cumsum(hits * gains[None, :], axis=1)
        ideal_hits = positions[None, :] <= counts[:, None]
        idcg = np.cumsum(ideal_hits * gains[None, :], axis=1)
        return dcg / idcg


def top_k_items(model: FactorModel, users: np.ndarray, k: int,
                excluded_users: np.ndarray, excluded_items: np.ndarray):
    """Exact top-k items of each of the distinct ``users``, and their scores.

    Excluded (user, item) pairs score -inf; users are scored ``USER_BLOCK`` at
    a time. The lists equal ``np.argsort(-scores, kind="stable")[:, :k]``.
    """
    row_of = np.full(model.num_users, -1)
    row_of[users] = np.arange(users.shape[0])
    grouped = np.argsort(row_of[excluded_users], kind="stable")
    rows, excluded_items = row_of[excluded_users[grouped]], excluded_items[grouped]
    kth = max(model.num_items - k, 0)
    lists = np.empty((users.shape[0], model.num_items - kth), dtype=np.int64)
    top = np.empty(lists.shape)
    for start in range(0, users.shape[0], USER_BLOCK):
        stop = min(start + USER_BLOCK, users.shape[0])
        scores = model.user_embeddings[users[start:stop]] @ model.item_embeddings.T
        lo, hi = np.searchsorted(rows, (start, stop))
        scores[rows[lo:hi] - start, excluded_items[lo:hi]] = -np.inf
        part = np.argpartition(scores, kth, axis=1)[:, kth:]
        chosen = np.take_along_axis(scores, part, axis=1)
        lists[start:stop] = np.take_along_axis(part, np.lexsort((part, -chosen)), axis=1)
        # part[:, 0] holds the k-th best score; more items reaching it is a tie
        tied = np.count_nonzero(scores >= chosen[:, :1], axis=1) > k
        lists[start:stop][tied] = np.argsort(-scores[tied], axis=1, kind="stable")[:, :k]
        top[start:stop] = np.take_along_axis(scores, lists[start:stop], axis=1)
    return lists, top


def rank_split(model: FactorModel, dataset: InteractionDataset, k: int, split: int):
    """Run against the ``split`` positives, earlier splits' positives excluded; its scores."""
    users, items = dataset.split_pairs(split)
    order = np.lexsort((items, users))
    user_ids, starts = np.unique(users[order], return_index=True)
    seen = dataset.split < split
    lists, top = top_k_items(model, user_ids, k, dataset.users[seen], dataset.items[seen])
    relevance = np.split(items[order], starts)[1:]
    return RecommendationRun(lists.shape[1], user_ids, lists, relevance), top


def build_recommendations(model: FactorModel, dataset: InteractionDataset,
                          k: int) -> RecommendationRun:
    """Rank the catalog per user and keep the top k unseen items.

    Users without test positives are excluded from evaluation. Ties are broken
    by item id so reruns are byte-stable.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    run, top = rank_split(model, dataset, k, TEST)
    if top.shape[1] < k or np.any(top == -np.inf):
        raise ValueError(f"catalog too small to recommend {k} unseen items")
    return run


def _hit_matrix(run: RecommendationRun) -> tuple[np.ndarray, np.ndarray]:
    """1.0 where a listed item is relevant to its user; relevant items per user."""
    counts = np.asarray([rel.shape[0] for rel in run.relevance], dtype=np.int64)
    relevant = np.concatenate(run.relevance)
    width = int(max(run.lists.max(initial=0), relevant.max(initial=0))) + 1
    listed = np.arange(run.lists.shape[0])[:, None] * width + run.lists
    codes = np.sort(np.repeat(np.arange(counts.shape[0]), counts) * width + relevant)
    found = np.minimum(np.searchsorted(codes, listed), codes.shape[0] - 1)
    return (codes[found] == listed).astype(np.float64), counts


def recall_at_k(run: RecommendationRun) -> float:
    """Mean fraction of each user's relevant items in the list, summed in user order."""
    hits, counts = run.hits
    return float(np.cumsum(hits.sum(axis=1) / counts)[-1] / counts.shape[0])


def ndcg_at_k(run: RecommendationRun) -> float:
    """Mean normalized discounted cumulative gain at the run's depth."""
    return float(np.mean(run.ndcg_vectors[:, -1]))


def disparity_user(run: RecommendationRun, masks: GroupMaskSet,
                   variant: str = "gender") -> float | None:
    """Consumer-side disparity: the training objective on exact NDCG vectors.

    Per-user vectors of NDCG@1..k are averaged within each attribute group
    and the pairwise squared distances of the group means are returned.
    None when the mask is missing or fewer than two groups are evaluated.
    """
    if variant not in ("gender", "age"):
        raise ValueError(f"variant must be 'gender' or 'age', got {variant!r}")
    mask = masks.mask_for(variant)
    if mask is None:
        return None
    vectors = run.ndcg_vectors
    group_rows = mask[:, run.user_ids].astype(np.float64)
    counts = group_rows.sum(axis=1)
    means = [group_rows[g] @ vectors / counts[g]
             for g in np.flatnonzero(counts >= 1)]
    if len(means) < 2:
        return None
    return consumer_group_fairness(means)


def disparity_item(run: RecommendationRun, item_group_mask: np.ndarray,
                   patience: float = 0.5) -> float:
    """Producer-side disparity: the training objective on hard exposures.

    Each recommended slot contributes patience**position to every group of
    its item; the normalized distribution is compared to the flat target.
    """
    if not 0.0 < patience < 1.0:
        raise ValueError(f"patience must be in (0, 1), got {patience}")
    slot_exposure = np.power(patience, np.arange(1, run.k + 1, dtype=np.float64))
    groups = item_group_mask.shape[0]
    raw = (item_group_mask[:, run.lists] @ slot_exposure).sum(axis=1)
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("no recommended item belongs to any group")
    eps = raw / total
    diff = eps - 1.0 / groups
    return float(diff @ diff)


def exposure_counts(run: RecommendationRun, num_items: int) -> np.ndarray:
    """How often each catalog item appears across all top-k lists."""
    return np.bincount(run.lists.ravel(), minlength=num_items).astype(np.float64)


def gini_index(run: RecommendationRun, num_items: int) -> float:
    """Inequality of item exposure across the catalog, in [0, 1).

    Exposure is the occurrence count in all lists; items never recommended
    count as zero.
    """
    return gini_from_exposures(exposure_counts(run, num_items))


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


def simpson_diversity(run: RecommendationRun, group_mask: np.ndarray) -> float:
    """One minus the probability that two random slots share an item group."""
    slot_counts = group_mask[:, run.lists.ravel()].astype(np.float64).sum(axis=1)
    total = slot_counts.sum()
    if total < 2:
        raise ValueError("at least two grouped slots are required")
    return float(1.0 - np.sum(slot_counts * (slot_counts - 1.0))
                 / (total * (total - 1.0)))


def evaluate(model: FactorModel, dataset: InteractionDataset, masks: GroupMaskSet,
             k_values=(10, 20), patience: float = 0.5, label: str = "model",
             disparity_user_variant: str = "gender") -> list:
    """All seven metrics at each requested list depth, one row per (model, k)."""
    rows = []
    # one ranking at the deepest k: a stable order's shallower lists are prefixes
    deepest = build_recommendations(model, dataset, max(k_values)) if k_values else None
    for k in k_values:
        run = replace(deepest, k=k, lists=deepest.lists[:, :k])
        rows.append({
            "model": label,
            "k": int(k),
            "recall": recall_at_k(run),
            "ndcg": ndcg_at_k(run),
            "disparity_u": disparity_user(run, masks, disparity_user_variant),
            "disparity_i": disparity_item(run, masks.popularity, patience),
            "gini": gini_index(run, dataset.num_items),
            "popularity_rate": popularity_rate(run, masks.popularity),
            "diversity": simpson_diversity(run, masks.popularity),
        })
    return rows


def write_metrics_csv(rows, path: str) -> None:
    """Emit the metrics table with six significant digits per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for row in rows:
            out = []
            for col in METRIC_COLUMNS:
                value = row.get(col)
                if value is None:
                    out.append("")
                elif isinstance(value, float):
                    out.append(f"{value:.6g}")
                else:
                    out.append(str(value))
            writer.writerow(out)
