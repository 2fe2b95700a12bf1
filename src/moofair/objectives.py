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
top-k cutoffs on the consumer side; ``temperature`` and ``exposure_patience``
for the temperature ranks and position-biased exposure of Singh & Joachims
(KDD 2018) on the producer side, whose equal-exposure notion sets the flat
target.

Every objective returns its scalar loss together with its analytic gradient
over the parameter rows it touches (``model.ObjectiveGradient``): the batch's
users and items (every item, for fairness); they backpropagate through the
whole smooth-ranking chain with the Gumbel noise held fixed. Each family has
one smooth-ranking forward (``_consumer_forward``, ``_producer_forward``). It
does not depend on the group masks, so it runs once per batch and each
objective adds only its mask-dependent part: ``group_disparity`` or
``exposure_disparity``, the losses that evaluation (``metrics.py``) reports.

A batch's candidate sets are flat (``CandidateContext``), drawn for all its
users at once by one vectorised sampler (``_candidate_context``). Both
kernels read them as padded (rows x candidates) blocks (``_padded``) with
padding scored -inf, and share one pairwise sigmoid (``_pair_sigmoids``) and
one rank backward (``_rank_backward``). The consumer cuts its users, sorted
by positive count, into blocks whose pairwise sigmoids are summed into ranks
and freed; the backward rebuilds them only where the rank
gradient is nonzero. The soft top-k cutoffs, (positives x k) per user, are
not kept either: the backward recomputes them from the ranks, bitwise equal
(``_cutoffs``), so a kept forward holds O(entries + positives) memory, not
k times that. A block writes only its own rows and entries, so both threads
of a training step share the blocks (``_on_both_threads``, ``training.py``)
with results independent of which thread ran which. The producer runs its
pair chain on row blocks of at most ``PAIR_BLOCK`` pairs too, writing each
block's rank slope in place into the one slope array its backward reads.

Precision: the arrays with one element per pair or per (positive, k) are
``CHAIN_DTYPE``, float32: the pair differences, pair sigmoids
(``_pair_sigmoids``), rank slopes (``_rank_slope``) and soft top-k cutoffs
(``_cutoffs``). Each element is within a few float32 units of roundoff,
relative in the ratio form of the pair sigmoids and absolute in their
half-tanh form, the slopes and the cutoffs, so far in a tail an element
keeps few digits or none. Every sum over them (ranks, slope row sums, NDCG
rows, d loss / d rank, d loss / d score) is taken in float64, the
mixed-precision pattern of Micikevicius et al. (ICLR 2018), and the scores,
probabilities, losses, ``d_entries``, ``_embedding_grad`` and every returned
gradient are float64. On a trained model the losses are within 1e-6 of the
float64 chains relative, the consumer gradients within 1e-5 and the
producer ones within 1e-6 in the ratio form and 5e-4 in the half-tanh form
(``tests/test_objectives.py``, ``TestFloat32Chain``). Setting
``CHAIN_DTYPE`` to float64 runs the same code in float64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import TRAIN, GroupMaskSet, InteractionDataset
from .model import FactorModel, ObjectiveGradient, TripletBatch, bpr_grad
from .numerics import sample_gumbel, sigmoid

if TYPE_CHECKING:
    from .training import TrainConfig

logger = logging.getLogger(__name__)

OBJECTIVE_IDS = ("bpr", "gender", "age", "popularity", "genre")
CONSUMER_OBJECTIVES = ("gender", "age")
PRODUCER_OBJECTIVES = ("popularity", "genre")

LN2 = float(np.log(2.0))

# Padded pairs (users x positives x candidates) per block of both pair
# chains, and d-scores (users x catalog) per block of ``_embedding_grad``:
# a block's arrays stay cache-sized.
PAIR_BLOCK = 2 ** 18
# dtype of the per-pair arrays of both chains: pair differences, pair
# sigmoids, rank slopes and soft top-k cutoffs. Their sums, the losses and
# every gradient are float64.
CHAIN_DTYPE = np.float32


@dataclass
class CandidateContext:
    """Frozen per-batch sampling state for one objective family, flat.

    Row r is user ``users[r]`` and owns the next ``widths[r]`` entries of
    ``items``: its train positives first (the capped relevant items, on the
    producer side), ``counts[r]`` of them, then the sampled negatives.
    ``noise`` holds one frozen Gumbel draw per entry (producer side only).
    Users without train positives keep an empty prefix and take part in no
    group. A training step builds its contexts over the batch's distinct
    users in ascending order, as ``_embedding_grad`` requires.
    """

    users: np.ndarray
    items: np.ndarray = field(repr=False)
    widths: np.ndarray
    counts: np.ndarray
    noise: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))


def _candidate_context(dataset: InteractionDataset, users, gen: np.random.Generator,
                       negatives: int, cap: int | None = None) -> CandidateContext:
    """Per user: the train positives, ascending (the first ``cap`` of them
    when cap is given), followed by min(negatives, free) distinct
    non-positives drawn uniformly without replacement, ascending, where free
    is the user's number of non-positives (so a row with free <= negatives
    takes them all).

    All rows are drawn at once on a (rows x catalog) mask that starts as
    their train positives. Each row still short draws as many item ids, with
    replacement, as it lacks; the mask keeps one entry per new item and
    ignores positives and repeats; this goes on until every row holds its
    quota. The draws are i.i.d. over the catalog and a row stops on the
    number of distinct items it holds, so its final set is uniform among the
    sets of that size. A row that keeps more than half its non-positives
    draws the ones it leaves out instead, so it needs few rounds.
    """
    users = np.asarray(users, dtype=np.int64)
    n = dataset.num_items
    indptr, train_items = dataset.positives(TRAIN)
    n_pos = indptr[users + 1] - indptr[users]
    free = n - n_pos
    quota = np.minimum(negatives, free)
    flip = 2 * quota > free
    goal = n_pos + np.where(flip, free - quota, quota)
    positive = np.unpackbits(dataset.train_membership()[users], axis=1, count=n).view(bool)
    held = positive.copy()
    rows, short = np.arange(users.shape[0]), goal - n_pos
    # a row's held count fits this dtype; summing bytes in it is about 3x
    # faster than count_nonzero along an axis, which casts as it counts
    count_dtype = np.min_scalar_type(n)
    while np.any(short):
        rows, short = rows[short > 0], short[short > 0]
        draws = np.repeat(rows * n, short) + gen.integers(n, size=short.sum())
        held.reshape(-1)[draws] = True
        short = goal[rows] - held[rows].view(np.uint8).sum(axis=1, dtype=count_dtype)
    drawn = held ^ positive
    drawn[flip] = ~held[flip]  # a row that drew what it leaves out keeps the rest
    counts = n_pos if cap is None else np.minimum(n_pos, cap)
    # per entry, whether it is a negative: row r is counts[r] positives, then quota[r]
    negative = np.repeat(np.tile([False, True], users.shape[0]),
                         np.column_stack([counts, quota]).ravel())
    items = np.empty(negative.shape[0], dtype=np.int64)
    # row r's first counts[r] train positives start at indptr[users[r]]
    items[~negative] = train_items[np.arange(counts.sum()) + np.repeat(
        indptr[users] - np.cumsum(counts) + counts, counts)]
    items[negative] = np.flatnonzero(drawn) % n  # row by row, ascending
    return CandidateContext(users, items, counts + quota, counts)


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


def _entry_positions(ctx: CandidateContext, n_items: int) -> np.ndarray:
    """Each context entry's flat position in a (context rows x catalog) matrix."""
    return np.repeat(np.arange(ctx.users.shape[0]) * n_items, ctx.widths) + ctx.items


def _entry_scores(model: FactorModel, ctx: CandidateContext) -> np.ndarray:
    """Score of each context entry: its row's user against its item."""
    return (model.user_embeddings[ctx.users] @ model.item_embeddings.T).ravel()[
        _entry_positions(ctx, model.num_items)]


def _embedding_grad(model: FactorModel, ctx: CandidateContext,
                    d_entries: np.ndarray):
    """Gradient rows of the context users and of every item, given d loss /
    d score of each context entry (plus the padding slot, ignored): the chain
    through score = user . item as GEMMs over the catalog, on blocks of
    context rows whose (rows x catalog) d-scores hold at most ``PAIR_BLOCK``
    entries, so that a family's backward stays small beside the other
    family's. It spans the catalog: at the benchmark shapes a batch's
    contexts touch every item. The context users are distinct and ascending,
    so each is one gradient row as it is. Returns (rows, grad) as
    ``ObjectiveGradient`` holds them."""
    n_rows, n_items = ctx.users.shape[0], model.num_items
    flat = _entry_positions(ctx, n_items)
    grad = np.zeros((n_rows + n_items, model.dim))
    row_grad, item_grad = grad[:n_rows], grad[n_rows:]
    ends = np.cumsum(ctx.widths)
    step = max(1, PAIR_BLOCK // max(n_items, 1))
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        lo, hi = ends[start] - ctx.widths[start], ends[stop - 1]
        d_scores = np.zeros((stop - start, n_items))
        # flat positions: faster than a 2-D fancy index, and unique per row
        np.put(d_scores, flat[lo:hi] - start * n_items, d_entries[lo:hi])
        row_grad[start:stop] = d_scores @ model.item_embeddings
        item_grad += d_scores.T @ model.user_embeddings[ctx.users[start:stop]]
    return np.concatenate([ctx.users, model.num_users + np.arange(n_items)]), grad


def _on_both_threads(fn, items, pool) -> None:
    """Call ``fn`` on each item of the sequence ``items`` from one iterator
    drained by this thread and by a task on ``pool`` (serially when None);
    no two calls may write the same data. Only a thread outside ``pool`` may
    pass it: a worker would wait on the drain it queued and deadlock."""
    todo = iter(items)

    def drain():
        for item in todo:
            fn(item)

    helper = None if pool is None else pool.submit(drain)
    try:
        drain()
    finally:
        if helper is not None:
            helper.result()


def _rank_slope(pair: np.ndarray) -> np.ndarray:
    """In place: the rank slope pair * (1 - pair) of (rows, P, C) pairwise
    sigmoids, with the constant j == p terms zeroed. Where a pair is near 1,
    1 - pair cancels: the slope keeps the pair's absolute error, a few units
    of roundoff, so a slope far in the tail has few correct digits."""
    pair *= 1.0 - pair
    diag = np.arange(pair.shape[1])
    pair[:, diag, diag] = 0.0
    return pair


def _row_sums(pairs: np.ndarray) -> np.ndarray:
    """Sums over the last axis of (rows, P, C) ``CHAIN_DTYPE`` pairs, taken in
    float64; each row's sum depends only on that row."""
    return pairs.sum(axis=2, dtype=np.float64)


def _rank_backward(d_ranks: np.ndarray, slope: np.ndarray, slope_sums: np.ndarray,
                   scale: float) -> np.ndarray:
    """d loss / d scores (rows, C) of smooth ranks
    r_p = const + sum_{j != p} sigmoid(scale * (s_j - s_p)) of the first P
    columns, given d loss / d r (rows, P), the ``CHAIN_DTYPE``
    ``_rank_slope`` and its float64 row sums. The sums over p and the result
    are float64, so each d score carries only the slope's own error: a few
    units of its roundoff per term, absolute, weighted by d loss / d r."""
    out = np.einsum("bp,bpc->bc", d_ranks, slope)
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


def _ratio_spread(dtype) -> float:
    """Largest scaled score spread of a row that the ratio form of
    ``_pair_sigmoids`` takes in ``dtype``: exp(-spread) is a normal number and
    exp(spread) is finite (87 in float32, 708 in float64)."""
    return float(np.floor(-np.log(np.finfo(dtype).tiny)))


def _pair_sigmoids(values: np.ndarray, n_pos: int, scale: float, out=None) -> np.ndarray:
    """sigmoid(scale * (values[b, j] - values[b, p])) for the first ``n_pos``
    columns p and every column j of each float64 row, shape (rows, n_pos,
    columns), ``CHAIN_DTYPE``, in ``out`` when given.

    Padding is -inf: a padding column j gives 0 and a padding p gives finite
    values. The ratio form E_j / (E_j + E_p), E = exp(scale * values - row max),
    is taken as 1 / (1 + E_p * (1 / E_j)): one exp per candidate and positive
    (in float64, then rounded), one multiply, add and reciprocal per pair, so
    each pair is within a few units of roundoff, relative. Past
    ``_ratio_spread`` 1 / E_j can overflow, so such a row takes
    ``numerics.sigmoid`` of scale times the differences of its values
    rounded to ``CHAIN_DTYPE``. That form's error is absolute: a few units of
    roundoff, plus up to a quarter of scale times the rounding error of the
    two values (on a near tie of producer probabilities of 0.01 at
    temperature 1e-5, about 2e-5). A pair far in the lower tail keeps few
    digits, and is 0 below about -20 in float32. Each row takes its own form,
    so its pairs do not depend on the other rows of its block.
    """
    if out is None:
        out = np.empty((values.shape[0], n_pos, values.shape[1]), CHAIN_DTYPE)
    scaled = scale * values
    top = scaled.max(axis=1, keepdims=True)
    low = np.where(np.isneginf(scaled), top, scaled).min(axis=1, keepdims=True)
    wide = (top - low)[:, 0] > _ratio_spread(out.dtype)
    if wide.any() and not wide.all():  # both forms: each row set on its own
        for rows in (wide, ~wide):
            out[rows] = _pair_sigmoids(values[rows], n_pos, scale)
        return out
    if wide.any():
        values = values.astype(out.dtype)
        pos = values[:, :n_pos].copy()
        pos[np.isneginf(pos)] = 0.0
        np.subtract(values[:, None, :], pos[:, :, None], out=out)
        out *= scale
        return sigmoid(out, out=out)
    pos = np.exp(scaled[:, :n_pos] - top).astype(out.dtype, copy=False)
    pos[pos == 0.0] = 1.0  # padding positives
    inv = np.exp(top - scaled).astype(out.dtype, copy=False)
    np.einsum("bp,bc->bpc", pos, inv, out=out)  # E_p / E_j
    out += 1.0
    return np.reciprocal(out, out=out)


def _cutoffs(ranks: np.ndarray, ks: np.ndarray, steepness: float) -> np.ndarray:
    """Soft top-k cutoffs sigmoid(steepness * (k + 0.5 - rank)) of (B, P)
    ranks, laid out (K, B, P) so that each k is one contiguous slab,
    ``CHAIN_DTYPE``. The argument is built in the one output buffer from
    k + 0.5 and the ranks rounded to ``CHAIN_DTYPE`` (within half a unit of
    roundoff of the rank), then scaled and passed through
    ``numerics.sigmoid`` there."""
    out = np.subtract((ks + 0.5).astype(CHAIN_DTYPE)[:, None, None],
                      ranks.astype(CHAIN_DTYPE),
                      out=np.empty(ks.shape + ranks.shape, CHAIN_DTYPE))
    out *= steepness
    return sigmoid(out, out=out)


def _consumer_forward(model: FactorModel, ctx: CandidateContext, k_max: int,
                      steepness: float, pool=None):
    """Smooth NDCG@k rows (k = 1..k_max) of the context users plus, per block
    of users, the intermediates the backward of every consumer objective
    reuses.

    A positive's smooth 1-based rank among its user's candidates is
    0.5 + sum_j sigmoid(steepness * (s_j - s_p)), where the j == p term adds
    the other 0.5; its top-k cutoff is sigmoid(steepness * (k + 0.5 - rank)).
    Independent of the user group masks.

    Users with positives are sorted by positive count and cut into blocks of
    at most ``PAIR_BLOCK`` padded (users x positives x candidates) pairs; no
    pair matrix outlives its block, and neither do the (B, P, k) cutoffs: the
    backward recomputes them from the ranks. The blocks are planned, then run
    largest first on both threads (``_on_both_threads``). A block holds its
    rows, the ``_padded`` entry positions (B, C), the scores (B, C) padded
    with -inf, the ranks (B, P), the discounts (B, P), zero on
    padding positives, and the ideal DCG rows (B, k).
    """
    g_matrix = np.zeros((ctx.users.shape[0], k_max))
    order = np.flatnonzero(ctx.counts > 0)
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    # ideal DCG@k with n relevant items is ideal_cum[min(k, n) - 1]
    ideal_cum = np.cumsum(1.0 / np.log2(ks + 1.0))
    order = order[np.argsort(ctx.counts[order], kind="stable")]
    n_pos, widths = ctx.counts[order], ctx.widths[order]
    entries = np.append(_entry_scores(model, ctx), -np.inf)
    spans = []
    start = 0
    while start < order.shape[0]:
        # padded size: rows x the last row's positive count x the widest row
        # since the block's start; rows are added while that fits PAIR_BLOCK
        cost = (np.arange(1, order.shape[0] - start + 1) * n_pos[start:]
                * np.maximum.accumulate(widths[start:]))
        stop = start + max(1, int(np.searchsorted(cost, PAIR_BLOCK, side="right")))
        spans.append(slice(start, stop))
        start = stop
    blocks = [None] * len(spans)

    def run(i):
        rows, counts = order[spans[i]], n_pos[spans[i]]
        at, _ = _padded(ctx, rows)
        scores = entries[at]
        n_max = int(counts[-1])
        ranks = 0.5 + _row_sums(_pair_sigmoids(scores, n_max, steepness))
        # padding positives get a zero discount, so they add nothing
        disc = np.where(np.arange(n_max) < counts[:, None], 1.0 / np.log2(ranks + 1.0), 0.0)
        idcg = ideal_cum[np.minimum(np.arange(k_max)[None, :], counts[:, None] - 1)]
        g_matrix[rows] = np.einsum("kbp,bp->bk", _cutoffs(ranks, ks, steepness), disc) / idcg
        blocks[i] = (rows, at, scores, ranks, disc, idcg)

    _on_both_threads(run, range(len(spans))[::-1], pool)
    return g_matrix, blocks


def consumer_fairness_grad(model: FactorModel, ctx: CandidateContext,
                           group_masks: np.ndarray, config: TrainConfig,
                           objective_id: str, forward,
                           pool=None) -> ObjectiveGradient | None:
    """Analytic gradient of a consumer-side objective over the rows it touches.

    Backpropagates ``group_disparity`` of the smooth NDCG rows (users without
    positives count in no group) through the soft top-k cutoffs, the smooth
    pairwise ranks, and the candidate scores. ``forward`` is the batch's
    shared ``_consumer_forward`` result. A block's cutoffs are recomputed from
    its ranks only when its rows' dL/dG is nonzero, and its pairs rebuilt
    only when its rank gradient is nonzero; when dL/dG is zero the zero
    gradient returns at once. The blocks run largest first on both threads.
    None (with a warning) when fewer than two user groups are in the batch.
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
    ks = np.arange(1, g_matrix.shape[1] + 1, dtype=np.float64)
    d_entries = np.zeros(ctx.items.shape[0] + 1)

    def run(block):
        rows, at, scores, ranks, disc, idcg = block
        coeff = d_g[rows] / idcg  # (B, K)
        if not np.any(coeff):
            return
        # d dcg_k / d r_p = cut * (-steepness * disc * (1 - cut) + disc slope),
        # the soft-cutoff slope times the discount plus the cutoff times the
        # discount slope -disc^2 / ((r_p + 1) ln 2), in (K, B, P)
        cut = _cutoffs(ranks, ks, steepness)
        d_dcg = np.subtract(1.0, cut)
        d_dcg *= (-steepness * disc).astype(CHAIN_DTYPE)
        d_dcg += (-disc ** 2 / ((ranks + 1.0) * LN2)).astype(CHAIN_DTYPE)
        d_dcg *= cut
        d_ranks = np.einsum("kbp,bk->bp", d_dcg, coeff)
        if not np.any(d_ranks):
            return
        slope = _rank_slope(_pair_sigmoids(scores, ranks.shape[1], steepness))
        d_entries[at] = _rank_backward(d_ranks, slope, _row_sums(slope), steepness)

    _on_both_threads(run, blocks[::-1], pool)
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
    relevant-item exposure (B, R), zero on padding, and the ``CHAIN_DTYPE``
    rank slope pair*(1-pair) with the constant j == i terms zeroed (plus its
    float64 row sums).
    Independent of the item group masks; None when no row has relevant items.

    Probabilities are the softmax of the Gumbel-perturbed candidate scores,
    padding scored -inf. A relevant item's smooth 0-based rank is
    sum_{j != i} sigmoid((p_j - p_i) / temperature) over the row's
    candidates, and its exposure is exposure_patience ** rank, as evaluation's
    slot at 0-based position rank (``metrics.disparity_item``).
    ``_pair_sigmoids`` of the probabilities runs on blocks of rows of at most
    ``PAIR_BLOCK`` pairs, each written in place into its rows of the slope.
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
    values = np.where(pad, -np.inf, probs)  # padding columns are no candidates
    slope = np.empty((rows.shape[0], n_rel, probs.shape[1]), CHAIN_DTYPE)
    ranks = np.empty((rows.shape[0], n_rel))
    slope_sums = np.empty_like(ranks)
    step = max(1, PAIR_BLOCK // slope[0].size)
    for start in range(0, rows.shape[0], step):
        block = slice(start, start + step)
        pair = _pair_sigmoids(values[block], n_rel, 1.0 / config.temperature,
                              out=slope[block])
        ranks[block] = _row_sums(pair) - 0.5  # remove the j == i term
        slope_sums[block] = _row_sums(_rank_slope(pair))
    expo = np.where(relevant, np.power(config.exposure_patience, ranks), 0.0)
    relevant_items = ctx.items[at[:, :n_rel][relevant]]
    return at, relevant, relevant_items, probs, expo, slope, slope_sums


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

def fairness_grad(objective_id: str, model: FactorModel, masks: GroupMaskSet, *,
                  triplet_batch: TripletBatch, consumer_ctx: CandidateContext | None,
                  producer_ctx: CandidateContext | None, config: TrainConfig,
                  forwards: dict, pool) -> ObjectiveGradient | None:
    """Loss and gradient of any configured objective on the current batch.

    Returns None when the objective is skipped for the batch (degenerate
    group composition). A family's context is None when none of its
    objectives is configured; each holds the batch's distinct users in
    ascending order. ``forwards`` holds the smooth-ranking forward each
    objective family shares within a batch: the family's first objective
    fills it and the others reuse it, so one dict must only be passed to
    calls on the same model state, contexts and config. A consumer
    objective shares its blocks with ``pool``'s worker (``_on_both_threads``;
    serially when None). ``masks`` must hold every configured objective's
    mask (``TrainConfig.validate_masks``).
    """
    if objective_id == "bpr":
        return bpr_grad(model, triplet_batch)
    if objective_id in CONSUMER_OBJECTIVES:
        if "consumer" not in forwards:
            forwards["consumer"] = _consumer_forward(model, consumer_ctx, config.ndcg_k,
                                                     config.steepness, pool)
        return consumer_fairness_grad(model, consumer_ctx,
                                      masks.mask_for(objective_id)[:, consumer_ctx.users],
                                      config, objective_id, forwards["consumer"], pool)
    if objective_id in PRODUCER_OBJECTIVES:
        if "producer" not in forwards:
            forwards["producer"] = _producer_forward(model, producer_ctx, config)
        return producer_fairness_grad(model, producer_ctx, masks.mask_for(objective_id),
                                      config, objective_id, forwards["producer"])
    raise ValueError(f"unknown objective {objective_id!r}")
