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
over the parameter rows it touches (``model.ObjectiveGradient``): the batch's
users and the items of its contexts. The gradients backpropagate through the
whole smooth-ranking chain with the Gumbel noise held fixed. Each family has
one smooth-ranking forward (``_consumer_forward``, ``_producer_forward``). It
does not depend on the group masks, so it runs once per batch and each
objective adds only its mask-dependent part: ``group_disparity`` or
``exposure_disparity``, the losses that evaluation (``metrics.py``) reports.

A batch's candidate sets are flat (``CandidateContext``). Both kernels read
them as padded (rows x candidates) blocks (``_padded``) with padding scored
-inf, and share one rank backward (``_rank_backward``). The consumer cuts its
users, sorted by positive count, into blocks whose pairwise sigmoids (ratio
form, or ``numerics.sigmoid`` past ``RATIO_SPREAD``) are summed into ranks and
freed; the backward rebuilds them only where the rank gradient is nonzero.
The producer runs all its rows as one block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import GroupMaskSet, InteractionDataset
from .model import FactorModel, ObjectiveGradient, TripletBatch, bpr_grad, compact_ids
from .numerics import sample_gumbel, sigmoid

if TYPE_CHECKING:
    from .training import TrainConfig

logger = logging.getLogger(__name__)

OBJECTIVE_IDS = ("bpr", "gender", "age", "popularity", "genre")
CONSUMER_OBJECTIVES = ("gender", "age")
PRODUCER_OBJECTIVES = ("popularity", "genre")

LN2 = float(np.log(2.0))

# Padded (users x positives x candidates) pairs per block of the consumer
# kernel: the block's pairwise sigmoids stay cache-sized.
PAIR_BLOCK = 2 ** 18
# Largest scaled score spread of a block the ratio-form pairwise sigmoid
# takes: exp(700) is finite and exp(-700) a normal float64.
RATIO_SPREAD = 700.0


@dataclass
class CandidateContext:
    """Frozen per-batch sampling state for one objective family, flat.

    Row r is user ``users[r]`` and owns the next ``widths[r]`` entries of
    ``items``: its train positives first (the capped relevant items, on the
    producer side), ``counts[r]`` of them, then the sampled negatives.
    ``noise`` holds one frozen Gumbel draw per entry (producer side only).
    Users without train positives keep an empty prefix and take part in no
    group.
    """

    users: np.ndarray
    items: np.ndarray = field(repr=False)
    widths: np.ndarray
    counts: np.ndarray
    noise: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))


def _candidate_context(dataset: InteractionDataset, users, gen: np.random.Generator,
                       negatives: int, cap: int | None = None) -> CandidateContext:
    """Per user: the train positives (the first ``cap`` of them when cap is
    given) followed by ``negatives`` sorted non-positives drawn without
    replacement (all of them when fewer exist)."""
    users = np.asarray(users, dtype=np.int64)
    lists = dataset.train_positive_lists()
    pools = dataset.train_complement_lists()
    parts, counts, widths = [], [], []
    for u in users:
        positives, pool = lists[u][:cap], pools[u]
        if negatives < pool.shape[0]:
            pool = np.sort(gen.choice(pool, size=negatives, replace=False))
        parts += (positives, pool)
        counts.append(positives.shape[0])
        widths.append(positives.shape[0] + pool.shape[0])
    items = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return CandidateContext(users, items, np.asarray(widths, dtype=np.int64),
                            np.asarray(counts, dtype=np.int64))


def build_consumer_context(dataset: InteractionDataset, users,
                           candidate_negatives: int,
                           rng: np.random.Generator) -> CandidateContext:
    return _candidate_context(dataset, users, rng, candidate_negatives)


def build_producer_context(dataset: InteractionDataset, users,
                           n_r_cap: int, candidate_negatives: int,
                           rng: np.random.Generator) -> CandidateContext:
    ctx = _candidate_context(dataset, users, rng, candidate_negatives, n_r_cap)
    if ctx.items.shape[0]:
        ctx.noise = sample_gumbel(rng, ctx.items.shape[0])
    return ctx


def _padded(ctx: CandidateContext, rows: np.ndarray):
    """Flat positions of the entries of ``rows`` as a (rows x widest row)
    array and its padding mask. Padding points one past the last entry, so
    an array over the entries with one value appended reads as a padded
    block, and writes to padding land in that extra slot."""
    widths = ctx.widths[rows]
    cols = np.arange(widths.max())
    pad = cols >= widths[:, None]
    starts = (np.cumsum(ctx.widths) - ctx.widths)[rows]
    return np.where(pad, ctx.items.shape[0], starts[:, None] + cols), pad


def _entry_rows(ctx: CandidateContext) -> np.ndarray:
    return np.repeat(np.arange(ctx.users.shape[0]), ctx.widths)


def _entry_scores(model: FactorModel, ctx: CandidateContext) -> np.ndarray:
    """Score of each context entry: its row's user against its item."""
    return (model.user_embeddings[ctx.users] @ model.item_embeddings.T)[
        _entry_rows(ctx), ctx.items]


def _embedding_grad(model: FactorModel, ctx: CandidateContext,
                    d_entries: np.ndarray):
    """Gradient rows of the context users and of the items the context
    touches, given d loss / d score of each context entry (plus the padding
    slot, ignored): the chain through score = user . item as one GEMM per
    embedding matrix over the touched items only. Repeated users are summed.
    Returns (rows, grad) as ``ObjectiveGradient`` holds them."""
    items, cols = compact_ids(ctx.items)
    d_scores = np.zeros((ctx.users.shape[0], items.shape[0]))
    # flat positions: faster than a 2-D fancy index, and unique per row
    np.put(d_scores, _entry_rows(ctx) * items.shape[0] + cols, d_entries[:-1])
    users, at = compact_ids(ctx.users)
    user_grad = np.bincount((at[:, None] * model.dim + np.arange(model.dim)).ravel(),
                            (d_scores @ model.item_embeddings[items]).ravel(),
                            users.shape[0] * model.dim).reshape(-1, model.dim)
    item_grad = d_scores.T @ model.user_embeddings[ctx.users]
    return (np.concatenate([users, model.num_users + items]),
            np.concatenate([user_grad, item_grad]))


def _rank_slope(pair: np.ndarray) -> np.ndarray:
    """In place: the rank slope pair * (1 - pair) of (rows, P, C) pairwise
    sigmoids, with the constant j == p terms zeroed."""
    pair *= 1.0 - pair
    diag = np.arange(pair.shape[1])
    pair[:, diag, diag] = 0.0
    return pair


def _rank_backward(d_ranks: np.ndarray, slope: np.ndarray, slope_sums: np.ndarray,
                   scale: float) -> np.ndarray:
    """d loss / d scores (rows, C) of smooth ranks
    r_p = const + sum_{j != p} sigmoid(scale * (s_j - s_p)) of the first P
    columns, given d loss / d r (rows, P), the ``_rank_slope`` and its row
    sums."""
    out = np.matmul(d_ranks[:, None, :], slope)[:, 0, :]
    out[:, :d_ranks.shape[1]] -= d_ranks * slope_sums
    out *= scale
    return out


# ---------------------------------------------------------------------------
# consumer side: group-mean NDCG disparity
# ---------------------------------------------------------------------------

def group_disparity(vectors: np.ndarray, group_rows):
    """Mean squared distance over all pairs of group means of the ``vectors``
    rows (group g holds the rows where ``group_rows[g]`` is 1), and its
    gradient over ``vectors``; None when fewer than two groups have a member.
    """
    masks = np.asarray(group_rows, dtype=np.float64)
    counts = masks.sum(axis=1)
    present = np.flatnonzero(counts >= 1)
    n = present.shape[0]
    if n < 2:
        return None
    means = masks[present] @ vectors / counts[present, None]
    first, second = np.triu_indices(n, 1)
    diff = means[first] - means[second]
    loss = float(np.einsum("ij,ij->", diff, diff)) / (n * (n - 1) / 2)
    # dL/dA_g = (2 / C(n,2)) * (n * A_g - sum_h A_h)
    d_means = (4.0 / (n * (n - 1))) * (n * means - means.sum(axis=0)[None, :])
    return loss, masks[present].T @ (d_means / counts[present, None])


def _pair_sigmoids(scaled: np.ndarray, n_pos: int) -> np.ndarray:
    """sigmoid(scaled[b, j] - scaled[b, p]) for the first ``n_pos`` columns p
    and every column j of each row, shape (rows, n_pos, columns).

    Padding is -inf: a padding column j gives 0 and a padding p gives finite
    values. The ratio form E_j / (E_j + E_p), E = exp(scaled - row max), is
    taken as 1 / (1 + E_p * (1 / E_j)): one exp per candidate and positive,
    one multiply, add and reciprocal per pair. Past ``RATIO_SPREAD`` 1 / E_j
    can overflow, so such a block takes ``numerics.sigmoid`` of differences.
    """
    top = scaled.max(axis=1, keepdims=True)
    low = np.where(np.isneginf(scaled), top, scaled).min(axis=1, keepdims=True)
    if np.max(top - low) > RATIO_SPREAD:
        pos = scaled[:, :n_pos].copy()
        pos[np.isneginf(pos)] = 0.0
        return sigmoid(scaled[:, None, :] - pos[:, :, None])
    pos = np.exp(scaled[:, :n_pos] - top)
    pos[pos == 0.0] = 1.0
    out = np.einsum("bp,bc->bpc", pos, np.exp(top - scaled))  # E_p / E_j
    out += 1.0
    return np.reciprocal(out, out=out)


def _consumer_forward(model: FactorModel, ctx: CandidateContext, k_max: int,
                      steepness: float):
    """Smooth NDCG@k rows (k = 1..k_max) of the context users plus, per block
    of users, the intermediates the backward of every consumer objective
    reuses.

    A positive's smooth 1-based rank among its user's candidates is
    0.5 + sum_j sigmoid(steepness * (s_j - s_p)), where the j == p term adds
    the other 0.5; its top-k cutoff is sigmoid(steepness * (k + 0.5 - rank)).
    Independent of the user group masks.

    Users with positives are sorted by positive count and cut into blocks of
    at most ``PAIR_BLOCK`` padded (users x positives x candidates) pairs; no
    pair matrix outlives its block. A block holds its rows, the ``_padded``
    entry positions (B, C), the scaled scores (B, C) padded with -inf, the
    ranks (B, P), the cutoffs (B, P, k), the discounts (B, P), zero on padding
    positives, and the ideal DCG rows (B, k).
    """
    g_matrix = np.zeros((ctx.users.shape[0], k_max))
    order = np.flatnonzero(ctx.counts > 0)
    if order.shape[0] == 0:
        return g_matrix, []
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    # ideal DCG@k with n relevant items is ideal_cum[min(k, n) - 1]
    ideal_cum = np.cumsum(1.0 / np.log2(ks + 1.0))
    order = order[np.argsort(ctx.counts[order], kind="stable")]
    n_pos, widths = ctx.counts[order], ctx.widths[order]
    scaled_entries = np.append(steepness * _entry_scores(model, ctx), -np.inf)
    blocks = []
    start = 0
    while start < order.shape[0]:
        # padded size: rows x the last row's positive count x the widest row
        # since the block's start; rows are added while that fits PAIR_BLOCK
        cost = (np.arange(1, order.shape[0] - start + 1) * n_pos[start:]
                * np.maximum.accumulate(widths[start:]))
        stop = start + max(1, int(np.searchsorted(cost, PAIR_BLOCK, side="right")))
        rows, counts = order[start:stop], n_pos[start:stop]
        at, _ = _padded(ctx, rows)
        scaled = scaled_entries[at]
        n_max = int(counts[-1])
        ranks = 0.5 + _pair_sigmoids(scaled, n_max).sum(axis=2)
        trunc = sigmoid(steepness * (ks + 0.5 - ranks[:, :, None]))  # (B, P, K)
        # padding positives get a zero discount, so they add nothing
        disc = np.where(np.arange(n_max) < counts[:, None], 1.0 / np.log2(ranks + 1.0), 0.0)
        idcg = ideal_cum[np.minimum(np.arange(k_max)[None, :], counts[:, None] - 1)]
        g_matrix[rows] = np.einsum("bpk,bp->bk", trunc, disc) / idcg
        blocks.append((rows, at, scaled, ranks, trunc, disc, idcg))
        start = stop
    return g_matrix, blocks


def consumer_fairness_grad(model: FactorModel, ctx: CandidateContext,
                           group_masks: np.ndarray, config: TrainConfig,
                           objective_id: str, forward) -> ObjectiveGradient | None:
    """Analytic gradient of a consumer-side objective over the rows it touches.

    Backpropagates ``group_disparity`` of the smooth NDCG rows (users without
    positives count in no group) through the soft top-k cutoffs, the smooth
    pairwise ranks, and the candidate scores. ``forward`` is the batch's
    shared ``_consumer_forward`` result. A block's pairs are rebuilt only when
    its rank gradient is nonzero; when dL/dG is zero the zero gradient
    returns at once. None (with a warning) when fewer than two user groups
    are in the batch.
    """
    g_matrix, blocks = forward
    result = group_disparity(g_matrix, group_masks * (ctx.counts > 0))
    if result is None:
        logger.warning("%s objective skipped: fewer than two user groups in batch",
                       objective_id)
        return None
    loss, d_g = result
    if not np.any(d_g):
        return ObjectiveGradient(objective_id, loss, np.empty(0, dtype=np.int64),
                                 np.empty((0, model.dim)))

    steepness = config.steepness
    d_entries = np.zeros(ctx.items.shape[0] + 1)
    for rows, at, scaled, ranks, trunc, disc, idcg in blocks:
        # d dcg_k / d r_p: soft-cutoff slope times discount, plus cutoff times
        # the discount slope -disc^2 / ((r_p + 1) ln 2)
        coeff = d_g[rows] / idcg  # (B, K)
        d_ranks = (-steepness * np.einsum("bpk,bk->bp", trunc * (1.0 - trunc), coeff) * disc
                   - np.einsum("bpk,bk->bp", trunc, coeff) * disc ** 2 / ((ranks + 1.0) * LN2))
        if not np.any(d_ranks):
            continue
        slope = _rank_slope(_pair_sigmoids(scaled, ranks.shape[1]))
        d_entries[at] = _rank_backward(d_ranks, slope, slope.sum(axis=2), steepness)
    return ObjectiveGradient(objective_id, loss, *_embedding_grad(model, ctx, d_entries))


# ---------------------------------------------------------------------------
# producer side: group exposure disparity
# ---------------------------------------------------------------------------

def exposure_disparity(raw: np.ndarray):
    """Squared distance of the normalized group exposure raw / sum(raw) from
    the flat distribution, and its gradient over ``raw``; None when no
    exposure is routed to any group."""
    total = float(raw.sum())
    if total <= 0.0:
        return None
    eps = raw / total
    diff = eps - 1.0 / raw.shape[0]
    # d loss / d raw_g through the normalization eps = raw / sum(raw)
    return float(diff @ diff), (2.0 / total) * (diff - float(diff @ eps))


def _producer_forward(model: FactorModel, ctx: CandidateContext,
                      config: TrainConfig):
    """The part of the producer chain every producer objective shares, over
    one ``_padded`` block of the rows with relevant items: the block's entry
    positions, its relevant-position mask (B, R) and the relevant items in
    that mask's order, the sampling probabilities (B, C), the
    relevant-item exposure (B, R), zero on padding, and the rank slope
    pair*(1-pair) with the constant j == i terms zeroed (plus its row sums).
    Independent of the item group masks; None when no row has relevant items.

    Probabilities are the softmax of the Gumbel-perturbed candidate scores,
    padding scored -inf. A relevant item's smooth 0-based rank is
    sum_{j != i} sigmoid(-(p_i - p_j) / temperature) over the row's
    candidates, and its exposure is exposure_patience ** (rank + rank_offset).
    """
    rows = np.flatnonzero(ctx.counts)
    if rows.shape[0] == 0:
        return None
    at, pad = _padded(ctx, rows)
    relevant = np.arange(ctx.counts[rows].max()) < ctx.counts[rows, None]
    n_rel = relevant.shape[1]
    shifted = np.append(_entry_scores(model, ctx) + ctx.noise, -np.inf)[at]
    shifted -= shifted.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    inv_tau = 1.0 / config.temperature
    pair = sigmoid(-inv_tau * (probs[:, :n_rel, None] - probs[:, None, :]))
    pair *= ~pad[:, None, :]  # padding columns are no candidates
    ranks = pair.sum(axis=2) - 0.5  # remove the j == i term
    expo = np.where(relevant, np.power(config.exposure_patience, ranks + config.rank_offset),
                    0.0)
    slope = _rank_slope(pair)
    relevant_items = ctx.items[at[:, :n_rel][relevant]]
    return at, relevant, relevant_items, probs, expo, slope, slope.sum(axis=2)


def producer_fairness_grad(model: FactorModel, ctx: CandidateContext,
                           item_group_mask: np.ndarray, config: TrainConfig,
                           objective_id: str, forward) -> ObjectiveGradient | None:
    """Analytic gradient of a producer-side objective over the rows it touches.

    Routes each relevant item's exposure to its item groups and
    backpropagates ``exposure_disparity`` of the routed sums through the
    position-bias decay, the temperature smooth ranks, and the perturbed
    sampling probabilities (noise frozen). ``forward`` is the batch's shared
    ``_producer_forward`` result. None (with a warning) when the batch routes
    no exposure at all.
    """
    raw = np.zeros(item_group_mask.shape[0])
    if forward is not None:
        at, relevant, relevant_items, probs, expo, slope, slope_sums = forward
        routing = item_group_mask[:, relevant_items].astype(np.float64)
        raw = routing @ expo[relevant]
    result = exposure_disparity(raw)
    if result is None:
        logger.warning("%s objective skipped: no routed exposure", objective_id)
        return None
    loss, d_raw = result

    d_expo = np.zeros_like(expo)
    d_expo[relevant] = d_raw @ routing
    d_rank = d_expo * expo * float(np.log(config.exposure_patience))
    # rank -> probs: r_i = sum_{j != i} sigmoid(-(p_i - p_j)/tau)
    d_probs = _rank_backward(d_rank, slope, slope_sums, 1.0 / config.temperature)
    # softmax backward (perturbation is additive and frozen); padding has
    # probability 0
    inner = np.einsum("bc,bc->b", d_probs, probs)
    d_entries = np.zeros(ctx.items.shape[0] + 1)
    d_entries[at] = probs * (d_probs - inner[:, None])
    return ObjectiveGradient(objective_id, loss, *_embedding_grad(model, ctx, d_entries))


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
