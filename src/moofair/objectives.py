"""Differentiable group-fairness objectives over shared embeddings.

Consumer side: per-batch NDCG vectors are built from smooth ranks, averaged
within each user group, and the squared differences of the group means are
penalized (gender and age groupings).

Producer side: item sampling probabilities are Gumbel-perturbed, turned into
smooth ranks and position-biased exposure, aggregated per item group, and the
normalized exposure distribution is pulled toward the flat distribution
(popularity and genre groupings).

The hyperparameters of both smooth-ranking chains are ``TrainConfig``
fields (``training.py``), which validates them: ``ndcg_k`` and ``steepness``
for the sigmoid rank approximation of Qin, Liu & Li (IRJ 2010) with soft
top-k cutoffs on the consumer side; ``temperature``, ``exposure_patience``
and ``rank_offset`` for the temperature ranks and position-biased exposure
of Singh & Joachims (KDD 2018) on the producer side, whose equal-exposure
notion sets the flat target.

Every objective returns its scalar loss together with its analytic gradient
over the flattened model parameters; the gradients backpropagate through the
whole smooth-ranking chain with the Gumbel noise held fixed. Each family has
one smooth-ranking forward (``_consumer_forward``, ``_producer_forward``). It
does not depend on the group masks, so it runs once per batch and each
objective adds only its mask-dependent part.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import GroupMaskSet, InteractionDataset
from .model import FactorModel, ObjectiveGradient, TripletBatch, bpr_grad
from .numerics import sample_gumbel, sigmoid

if TYPE_CHECKING:
    from .training import TrainConfig

logger = logging.getLogger(__name__)

OBJECTIVE_IDS = ("bpr", "gender", "age", "popularity", "genre")
CONSUMER_OBJECTIVES = ("gender", "age")
PRODUCER_OBJECTIVES = ("popularity", "genre")

LN2 = float(np.log(2.0))

# Users per block of the consumer forward and backward; bounds the arrays
# that exist next to the shared forward: (positives x k), (users x items).
USER_BLOCK = 32


@dataclass
class CandidateContext:
    """Frozen per-batch sampling state for one objective family.

    Per user: candidate item ids with the train positives first (the capped
    relevant items, on the producer side), then the sampled negatives;
    ``counts`` holds the length of that positive prefix, and ``noise`` one
    frozen Gumbel draw per candidate (producer side only). Users without
    train positives keep an empty prefix and take part in no group.
    """

    users: np.ndarray
    candidates: list = field(repr=False)
    counts: np.ndarray
    noise: list = field(repr=False, default_factory=list)


def _candidate_lists(dataset: InteractionDataset, users: np.ndarray,
                     gen: np.random.Generator, negatives: int, cap: int | None = None):
    """Per user: the train positives (the first ``cap`` of them when cap is
    given) followed by ``negatives`` sorted non-positives drawn without
    replacement (all of them when fewer exist); plus the positive counts."""
    lists = dataset.train_positive_lists()
    pools = dataset.train_complement_lists()
    candidates, counts = [], []
    for u in users:
        positives = lists[u][:cap]
        pool = pools[u]
        if negatives < pool.shape[0]:
            pool = np.sort(gen.choice(pool, size=negatives, replace=False))
        candidates.append(np.concatenate([positives, pool]))
        counts.append(positives.shape[0])
    return candidates, np.asarray(counts, dtype=np.int64)


def build_consumer_context(dataset: InteractionDataset, users,
                           candidate_negatives: int,
                           rng: np.random.Generator) -> CandidateContext:
    users = np.asarray(users, dtype=np.int64)
    candidates, counts = _candidate_lists(dataset, users, rng, candidate_negatives)
    return CandidateContext(users, candidates, counts)


def build_producer_context(dataset: InteractionDataset, users,
                           n_r_cap: int, candidate_negatives: int,
                           rng: np.random.Generator) -> CandidateContext:
    users = np.asarray(users, dtype=np.int64)
    candidates, counts = _candidate_lists(dataset, users, rng, candidate_negatives,
                                          n_r_cap)
    sizes = [c.shape[0] for c in candidates]
    flat_noise = (sample_gumbel(rng, sum(sizes)) if sum(sizes)
                  else np.empty(0, dtype=np.float64))
    bounds = np.cumsum([0] + sizes)
    noise = [flat_noise[bounds[k]:bounds[k + 1]] for k in range(len(sizes))]
    return CandidateContext(users, candidates, counts, noise)


# ---------------------------------------------------------------------------
# consumer side: group-mean NDCG disparity
# ---------------------------------------------------------------------------

def consumer_group_fairness(group_vectors) -> float:
    """Mean squared distance between all pairs of group representations."""
    vectors = [np.asarray(v, dtype=np.float64) for v in group_vectors]
    if len(vectors) < 2:
        raise ValueError("at least two groups are required")
    n = len(vectors)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            diff = vectors[i] - vectors[j]
            total += float(diff @ diff)
    return total / (n * (n - 1) / 2)


def _consumer_forward(model: FactorModel, ctx: CandidateContext, k_max: int,
                      steepness: float):
    """Smooth NDCG@k rows (k = 1..k_max) of the context users plus, per block
    of users, the intermediates the backward of every consumer objective
    reuses.

    A positive's smooth 1-based rank among its user's candidates is
    0.5 + sum_j sigmoid(steepness * (s_j - s_p)), where the j == p term adds
    the other 0.5; its top-k cutoff is sigmoid(steepness * (k + 0.5 - rank)).
    Independent of the user group masks. A block holds its users with train
    positives, their positive counts, per-user pairwise sigmoid matrices, and
    the smooth ranks, discounts, cutoffs (positives x k) and ideal DCG rows,
    stacked over the block.
    """
    g_matrix = np.zeros((ctx.users.shape[0], k_max))
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    # ideal DCG@k with n relevant items is ideal_cum[min(k, n) - 1]
    ideal_cum = np.cumsum(1.0 / np.log2(ks + 1.0))
    all_scores = model.user_embeddings[ctx.users] @ model.item_embeddings.T
    # freed before the intermediates pile up
    row_scores = [all_scores[row, cand] for row, cand in enumerate(ctx.candidates)]
    del all_scores
    blocks = []
    for start in range(0, ctx.users.shape[0], USER_BLOCK):
        rows = np.arange(start, min(start + USER_BLOCK, ctx.users.shape[0]))
        rows = rows[ctx.counts[rows] > 0]
        if rows.shape[0] == 0:
            continue
        counts = ctx.counts[rows]
        pairs = []
        for r, n in zip(rows, counts):
            scaled = steepness * row_scores[r]
            pairs.append(sigmoid(scaled[None, :] - scaled[:n, None]))
        ranks = 0.5 + np.concatenate([pair.sum(axis=1) for pair in pairs])
        trunc = sigmoid(steepness * (ks[None, :] + 0.5 - ranks[:, None]))
        disc = 1.0 / np.log2(ranks + 1.0)
        idcg = ideal_cum[np.minimum(np.arange(k_max)[None, :], counts[:, None] - 1)]
        g_matrix[rows] = np.add.reduceat(trunc * disc[:, None],
                                         np.cumsum(counts) - counts, axis=0) / idcg
        blocks.append((rows, counts, pairs, ranks, disc, trunc, idcg))
    return g_matrix, blocks


def _consumer_loss_and_ndcg_grad(g_matrix, group_masks, valid,
                                 objective_id: str = "consumer"):
    """Pairwise mean squared distance between the mean NDCG rows of the user
    groups in the batch (rows not ``valid`` count in no group) plus dL/dG, or
    None (with a warning) when fewer than two groups are present."""
    masks = (np.asarray(group_masks, dtype=np.float64) * valid[None, :].astype(np.float64))
    counts = masks.sum(axis=1)
    present = np.flatnonzero(counts >= 1)
    n = present.shape[0]
    if n < 2:
        logger.warning("%s objective skipped: fewer than two user groups in batch",
                       objective_id)
        return None
    means = [masks[g] @ g_matrix / counts[g] for g in present]
    loss = consumer_group_fairness(means)
    stacked = np.stack(means)
    pair_norm = n * (n - 1) / 2
    # dL/dA_g = (2 / C(n,2)) * (n * A_g - sum_h A_h)
    d_means = (2.0 / pair_norm) * (n * stacked - stacked.sum(axis=0)[None, :])
    d_g = np.zeros_like(g_matrix)
    for idx, g in enumerate(present):
        members = masks[g] > 0
        d_g[members] += d_means[idx] / counts[g]
    return loss, d_g


def consumer_fairness_grad(model: FactorModel, ctx: CandidateContext,
                           group_masks: np.ndarray, config: TrainConfig,
                           objective_id: str, forward=None) -> ObjectiveGradient | None:
    """Analytic gradient of a consumer-side objective over the flattened model.

    Backpropagates the group-mean disparity through the smooth NDCG rows, the
    soft top-k cutoffs, the smooth pairwise ranks, and the candidate scores.
    ``forward`` is the batch's shared ``_consumer_forward`` result; it is
    computed here when not given.
    """
    if forward is None:
        forward = _consumer_forward(model, ctx, config.ndcg_k, config.steepness)
    g_matrix, blocks = forward
    result = _consumer_loss_and_ndcg_grad(g_matrix, group_masks, ctx.counts > 0,
                                          objective_id)
    if result is None:
        return None
    loss, d_g = result

    steepness = config.steepness
    grad = np.zeros(model.num_parameters)
    for rows, counts, pairs, ranks, disc, trunc, idcg in blocks:
        if not np.any(d_g[rows]):
            continue
        # d dcg_k / d r_p: soft-cutoff slope times discount, plus cutoff times
        # discount slope
        coeff = np.repeat(d_g[rows] / idcg, counts, axis=0)  # (P, K)
        trunc_slope = 1.0 - trunc
        trunc_slope *= trunc  # times -steepness, applied after the sum over k
        disc_slope = -1.0 / ((ranks + 1.0) * LN2 * np.log2(ranks + 1.0) ** 2)
        d_ranks = (-steepness * np.einsum("pk,pk->p", coeff, trunc_slope) * disc
                   + np.einsum("pk,pk->p", coeff, trunc) * disc_slope)
        d_scores = np.zeros((rows.shape[0], model.num_items))
        for j, (row, pair, d_rank) in enumerate(zip(
                rows, pairs, np.split(d_ranks, np.cumsum(counts)[:-1]))):
            if not np.any(d_rank):
                continue
            # rank -> score: r_p = 0.5 + sum_j sigmoid(steepness (s_j - s_p)),
            # the j == p term is constant
            n_pos = pair.shape[0]
            slope = steepness * pair * (1.0 - pair)  # (P, C)
            slope[np.arange(n_pos), np.arange(n_pos)] = 0.0
            d_row = slope.T @ d_rank
            d_row[:n_pos] -= d_rank * slope.sum(axis=1)
            d_scores[j, ctx.candidates[row]] = d_row  # candidates are unique
        _add_embedding_grad(grad, model, ctx.users[rows], d_scores)
    return ObjectiveGradient(objective_id, loss, grad)


def _add_embedding_grad(grad: np.ndarray, model: FactorModel, users: np.ndarray,
                        d_scores: np.ndarray) -> None:
    """Add to the flattened gradient the chain through score = user . item,
    given d loss / d score(users[row], item) as a dense (len(users),
    num_items) matrix: one GEMM per embedding matrix instead of a scatter of
    per-candidate rows. Repeated users are summed."""
    cut = model.num_users * model.dim
    np.add.at(grad[:cut].reshape(model.num_users, model.dim), users,
              d_scores @ model.item_embeddings)
    item_grad = grad[cut:].reshape(model.num_items, model.dim)
    item_grad += d_scores.T @ model.user_embeddings[users]


# ---------------------------------------------------------------------------
# producer side: group exposure disparity
# ---------------------------------------------------------------------------

def _producer_forward(model: FactorModel, ctx: CandidateContext,
                      config: TrainConfig):
    """Per shape bucket, the part of the producer chain every producer
    objective shares: sampling probabilities, relevant-item exposure, and the
    rank slope pair*(1-pair) with the constant j == i terms zeroed (plus its
    row sums). Independent of the item group masks.

    Probabilities are the softmax of the Gumbel-perturbed candidate scores. A
    relevant item's smooth 0-based rank is
    sum_{j != i} sigmoid(-(p_i - p_j) / temperature), and its exposure is
    exposure_patience ** (rank + rank_offset).

    Rows are bucketed by (relevant count, candidate count), nearly uniform
    (cap + fixed negative draw), so each bucket runs as stacked array ops.
    """
    shapes: dict = {}
    for row, (n_rel, cand) in enumerate(zip(ctx.counts, ctx.candidates)):
        if n_rel:
            shapes.setdefault((int(n_rel), cand.shape[0]), []).append(row)
    all_scores = model.user_embeddings[ctx.users] @ model.item_embeddings.T
    buckets = []
    inv_tau = 1.0 / config.temperature
    for (n_rel, _), rows in shapes.items():
        rows = np.asarray(rows, dtype=np.int64)
        cands = np.stack([ctx.candidates[r] for r in rows])  # (B, C)
        shifted = all_scores[rows[:, None], cands]
        shifted += np.stack([ctx.noise[r] for r in rows])
        shifted -= shifted.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        pair = sigmoid(-inv_tau * (probs[:, :n_rel, None] - probs[:, None, :]))
        ranks = pair.sum(axis=2) - 0.5  # remove the j == i term
        expo = np.power(config.exposure_patience, ranks + config.rank_offset)  # (B, R)
        slope = pair
        slope *= 1.0 - pair
        diag = np.arange(n_rel)
        slope[:, diag, diag] = 0.0
        buckets.append((rows, n_rel, cands, probs, expo, slope, slope.sum(axis=2)))
    return buckets


def _exposure_disparity(forward, item_group_mask: np.ndarray, objective_id: str):
    """The mask-dependent producer part: exposure routed to the item groups,
    then (loss, d loss / d raw group exposure, per-bucket routing) of its
    normalization against the flat distribution. None (with a warning) when
    the batch routes no exposure at all."""
    raw = np.zeros(item_group_mask.shape[0])
    routings = []
    for _, n_rel, cands, _, expo, _, _ in forward:
        routing = item_group_mask[:, cands[:, :n_rel]].astype(np.float64)  # (z, B, R)
        raw += np.einsum("zbr,br->z", routing, expo)
        routings.append(routing)
    total = float(raw.sum())
    if total <= 0.0:
        logger.warning("%s objective skipped: no routed exposure", objective_id)
        return None
    eps = raw / total
    diff = eps - 1.0 / raw.shape[0]
    # d loss / d raw_g through the normalization eps = raw / sum(raw)
    return float(diff @ diff), (2.0 / total) * (diff - float(diff @ eps)), routings


def producer_fairness_grad(model: FactorModel, ctx: CandidateContext,
                           item_group_mask: np.ndarray, config: TrainConfig,
                           objective_id: str = "popularity",
                           forward=None) -> ObjectiveGradient | None:
    """Analytic gradient of a producer-side objective over the flattened model.

    Backpropagates the exposure disparity through the normalization, the
    position-bias decay, the temperature smooth ranks, and the perturbed
    sampling probabilities (noise frozen). ``forward`` is the batch's shared
    ``_producer_forward`` result; it is computed here when not given.
    """
    if forward is None:
        forward = _producer_forward(model, ctx, config)
    result = _exposure_disparity(forward, item_group_mask, objective_id)
    if result is None:
        return None
    loss, d_raw, routings = result

    d_all_scores = np.zeros((ctx.users.shape[0], model.num_items))
    log_patience = float(np.log(config.exposure_patience))
    inv_tau = 1.0 / config.temperature
    for (rows, n_rel, cands, probs, expo, slope, slope_sums), routing in zip(
            forward, routings):
        d_expo = np.einsum("zbr,z->br", routing, d_raw)
        d_rank = d_expo * expo * log_patience  # (B, R)
        # rank -> probs: r_i = sum_{j != i} sigmoid(-(p_i - p_j)/tau)
        d_probs = np.matmul(d_rank[:, None, :], slope)[:, 0, :] * inv_tau  # (B, C)
        d_probs[:, :n_rel] -= d_rank * slope_sums * inv_tau
        # softmax backward (perturbation is additive and frozen)
        inner = np.einsum("bc,bc->b", d_probs, probs)
        # candidates are unique within a row
        d_all_scores[rows[:, None], cands] = probs * (d_probs - inner[:, None])
    grad = np.zeros(model.num_parameters)
    _add_embedding_grad(grad, model, ctx.users, d_all_scores)
    return ObjectiveGradient(objective_id, loss, grad)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _objective_mask(masks: GroupMaskSet, objective_id: str) -> np.ndarray:
    mask = masks.mask_for(objective_id)
    if mask is None:
        raise ValueError(f"{objective_id} objective requires the {objective_id} mask")
    return mask


def fairness_grad(objective_id: str, model: FactorModel, masks: GroupMaskSet,
                  *, triplet_batch: TripletBatch | None = None,
                  consumer_ctx: CandidateContext | None = None,
                  producer_ctx: CandidateContext | None = None,
                  config: TrainConfig | None = None,
                  forwards: dict | None = None) -> ObjectiveGradient | None:
    """Loss and gradient of any configured objective on the current batch.

    Returns None when the objective is skipped for the batch (degenerate
    group composition). ``forwards`` holds the smooth-ranking forward each
    objective family shares within a batch: the family's first objective
    fills it and the others reuse it, so one dict must only be passed to
    calls on the same model state, contexts and config.
    """
    if objective_id == "bpr":
        if triplet_batch is None:
            raise ValueError("bpr objective requires a triplet batch")
        return bpr_grad(model, triplet_batch)
    if forwards is None:
        forwards = {}
    if objective_id in CONSUMER_OBJECTIVES:
        if consumer_ctx is None or config is None:
            raise ValueError(f"{objective_id} objective requires a consumer context")
        mask = _objective_mask(masks, objective_id)
        if "consumer" not in forwards:
            forwards["consumer"] = _consumer_forward(model, consumer_ctx, config.ndcg_k,
                                                     config.steepness)
        return consumer_fairness_grad(model, consumer_ctx,
                                      mask[:, consumer_ctx.users], config,
                                      objective_id, forwards["consumer"])
    if objective_id in PRODUCER_OBJECTIVES:
        if producer_ctx is None or config is None:
            raise ValueError(f"{objective_id} objective requires a producer context")
        mask = _objective_mask(masks, objective_id)
        if "producer" not in forwards:
            forwards["producer"] = _producer_forward(model, producer_ctx, config)
        return producer_fairness_grad(model, producer_ctx, mask, config,
                                      objective_id, forwards["producer"])
    raise ValueError(f"unknown objective {objective_id!r}")
