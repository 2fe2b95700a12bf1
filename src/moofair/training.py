"""Multi-objective training loop.

Each batch computes every active objective's loss and its gradient over the
parameter rows it touches on a shared parameter snapshot, scales the
gradients to unit length when several objectives are configured, takes the
scaling coefficients (the exact min-norm point of the gradients' convex hull,
or the configured fixed weights), and applies one SGD step with the
aggregated direction, in place on the union of those rows. Validation
recall drives early stopping and best-checkpoint selection; multiple
independent rounds form a solution set from which the least-misery rule picks
the final model.

A step uses two threads. The batch's contexts are drawn on the calling
thread, in a fixed order from the round's context stream, so the draws do
not depend on threading. Then one worker, the round's single-thread pool,
runs BPR and the producer family while the calling thread runs the consumer
family (the costliest), whose row blocks the worker then shares: a block
writes only its own rows, so results do not depend on which thread ran it.
Both threads read the same model, and the worker is joined before the
gradients are combined. A worker exception re-raises in the caller, and the
worker ends with the round. For the round OpenBLAS is held to one thread
(``numerics.one_blas_thread``): a multithreaded BLAS call leaves its
workers spinning on the second core, where they would take the time the
two families need. Only BLAS reduction order changes, so results agree to
roundoff, and one BLAS thread alone measured no slower at the benchmark's
ML-100k and ML-1M shapes.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import TRAIN, VAL, EmptyDatasetError, GroupMaskSet, InteractionDataset
from .metrics import rank_split, recall_at_k
from .model import FactorModel, attach_negatives, init_model
from .numerics import one_blas_thread
from .objectives import (
    CONSUMER_OBJECTIVES,
    OBJECTIVE_IDS,
    PRODUCER_OBJECTIVES,
    build_consumer_context,
    build_producer_context,
    fairness_grad,
)
from .solver import (
    SimplexWeights,
    SolutionRecord,
    frank_wolfe_solve,
    gram_matrix,
    least_misery_select,
)

logger = logging.getLogger(__name__)

GRAD_NORM_EPS = 1e-12
ZERO_GRAD_TOL = 1e-10
FINAL_EVAL_BATCHES = 10
VALIDATION_K = 20  # list depth of the validation recall that picks the best epoch

# Allowed range of each numeric TrainConfig field: (fields, bound, test). Each
# must also be finite, tested by comparison so that ints of any size pass.
FIELD_RANGES = (
    (("learning_rate", "temperature", "steepness"), "> 0", lambda v: v > 0),
    (("batch_size", "dim", "epochs_max", "eval_every", "early_stop_patience",
      "ndcg_k", "n_r_cap", "rounds"), ">= 1", lambda v: v >= 1),
    (("reg", "candidate_negatives", "seed"), ">= 0", lambda v: v >= 0),
    (("exposure_patience",), "in (0, 1)", lambda v: 0 < v < 1),
)


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on, validated at construction
    (``FIELD_RANGES`` for the numeric fields).

    ``objectives``, ``"bpr"`` first, is the one list of a run's objectives:
    it orders the per-objective losses, the alpha weights and their output
    columns. When more than one is configured, each active gradient is
    scaled to unit length before weighting (even when only one is active in
    a batch); a lone objective's gradient is left as it is. ``fixed_weights``,
    one per objective on the simplex, selects fixed-weight training; None
    (the default) trains with MGDA weights. ``ndcg_k``, ``steepness``,
    ``temperature`` and ``exposure_patience`` shape the smooth-ranking chains
    of the fairness objectives (``objectives.py``).
    """

    objectives: tuple = ("bpr",)
    learning_rate: float = 1e-3
    reg: float = 1e-4
    batch_size: int = 1024
    dim: int = 50
    epochs_max: int = 300
    eval_every: int = 5
    early_stop_patience: int = 50
    exposure_patience: float = 0.5
    temperature: float = 1e-5
    ndcg_k: int = 50
    steepness: float = 1.0
    n_r_cap: int = 10
    candidate_negatives: int = 200
    seed: int = 0
    fixed_weights: tuple | None = None
    rounds: int = 5

    def __post_init__(self):
        objectives = tuple(self.objectives)
        if not objectives or objectives[0] != "bpr":
            raise ValueError("objectives must start with 'bpr'")
        unknown = [o for o in objectives if o not in OBJECTIVE_IDS]
        if unknown:
            raise ValueError(f"unknown objectives: {unknown}")
        if len(set(objectives)) != len(objectives):
            raise ValueError("objectives must be unique")
        object.__setattr__(self, "objectives", objectives)
        for names, bound, within in FIELD_RANGES:
            for name in names:
                value = getattr(self, name)
                if not (-math.inf < value < math.inf and within(value)):
                    raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
        if self.fixed_weights is not None:
            weights = tuple(float(w) for w in self.fixed_weights)
            if len(weights) != len(objectives):
                raise ValueError("fixed_weights length must match objectives")
            SimplexWeights(np.asarray(weights))  # validates the simplex
            object.__setattr__(self, "fixed_weights", weights)

    def validate_masks(self, masks: GroupMaskSet) -> None:
        missing = [o for o in self.objectives
                   if o != "bpr" and masks.mask_for(o) is None]
        if missing:
            raise ValueError(
                f"objectives {missing} need masks the dataset does not provide"
            )


@dataclass
class AlphaTrace:
    """Per-batch scaling coefficients: one (epoch, batch, alpha) entry per
    optimizer step, alpha ordered as the config's objectives. A class, not a
    plain list, only because perfbench reads ``result.trace.entries``."""

    entries: list = field(default_factory=list)


@dataclass
class RoundResult:
    """One completed training round."""

    record: SolutionRecord
    trace: AlphaTrace
    model: FactorModel
    best_epoch: int
    val_recall: float
    fw_calls: int


def _round_streams(seed: int, round_index: int):
    root = np.random.SeedSequence(seed + round_index)
    init_ss, batch_ss, ctx_ss = root.spawn(3)
    make = lambda ss: np.random.Generator(np.random.PCG64(ss))
    return make(init_ss), make(batch_ss), make(ctx_ss)


def _shared_eval_stream(seed: int) -> np.random.Generator:
    # identical across rounds so their objective vectors are comparable
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(1_000_000,))
    ))


def _validation_recall(model: FactorModel, dataset: InteractionDataset,
                       k: int) -> float:
    """Recall@k against validation positives, excluding train items only."""
    run, _ = rank_split(model, dataset, k, VAL)
    return recall_at_k(run) if run.user_ids.shape[0] else 0.0


def _objective_results(model, dataset, masks, config, batch, ctx_gen, pool):
    """Loss and gradient per configured objective for one batch.

    Contexts (candidate negatives, Gumbel noise) are drawn once per batch, on
    this thread, and shared within each objective family, and so is the
    family's smooth-ranking forward: its first objective computes it, the
    others reuse it, and it is dropped when the family is done. With a
    consumer context, BPR and the producer family run on ``pool``'s worker
    while this thread runs the consumer family, whose row blocks the worker
    then shares; the families fill disjoint results, and the worker is
    joined before return. Without one, everything runs on this thread.
    """
    consumer_ctx = producer_ctx = None
    if len(config.objectives) > 1:  # a fairness family is configured (bpr comes first)
        batch_users = np.flatnonzero(np.bincount(batch.users))  # np.unique's ids, 5-10x faster
        if any(o in CONSUMER_OBJECTIVES for o in config.objectives):
            consumer_ctx = build_consumer_context(dataset, batch_users,
                                                  config.candidate_negatives, ctx_gen)
        if any(o in PRODUCER_OBJECTIVES for o in config.objectives):
            producer_ctx = build_producer_context(dataset, batch_users, config.n_r_cap,
                                                  config.candidate_negatives, ctx_gen)
    results = [None] * len(config.objectives)

    def run(family, pool=None):  # the worker shares no blocks: it would deadlock
        forwards = {}
        for k, objective in enumerate(config.objectives):
            if objective in family:
                results[k] = fairness_grad(
                    objective, model, masks, triplet_batch=batch,
                    consumer_ctx=consumer_ctx, producer_ctx=producer_ctx,
                    config=config, forwards=forwards, pool=pool)

    if consumer_ctx is None:
        run(("bpr",) + PRODUCER_OBJECTIVES)
        return results
    others = pool.submit(run, ("bpr",) + PRODUCER_OBJECTIVES)
    try:
        run(CONSUMER_OBJECTIVES, pool)
    finally:
        others.result()  # re-raises the worker's exception here
    return results


def _combine_gradients(results, config):
    """Scaling coefficients over all configured objectives for one batch (a
    fresh float64 array), and the step direction over the rows the active
    objectives touch.

    Skipped objectives (None results) and those whose gradient has vanished
    for the batch add nothing to the step. Under MGDA they get weight zero: a
    (near-)zero gradient carries no descent information, but as a min-norm
    vertex it would absorb all the weight and stall every other objective.
    Fixed weights are kept as configured, even on a batch with no step. The
    active gradients are scattered once into a (t x |rows| x d) stack G over
    the union of their rows (a row an objective leaves out is zero there,
    and zero rows add nothing to G G^T) and, with several objectives
    configured, scaled to unit length in place; the solver runs on G G^T and
    the direction is alpha[active] @ G. Returns (alpha over all objectives,
    rows, direction rows, fw_used).
    """
    t = len(config.objectives)
    norms = np.array([0.0 if r is None else np.linalg.norm(r.grad) for r in results])
    active = np.flatnonzero(norms > ZERO_GRAD_TOL)
    alpha = (np.zeros(t) if config.fixed_weights is None
             else np.asarray(config.fixed_weights, dtype=np.float64))
    if active.size == 0:  # every objective flat or skipped: no step this batch
        return alpha, results[0].rows[:0], results[0].grad[:0], False
    unit = t > 1  # several objectives step along unit-length gradients
    if config.fixed_weights is None and active.size == 1:  # MGDA's lone direction
        alpha[active] = 1.0
        result = results[active[0]]
        grad = result.grad / (norms[active[0]] + GRAD_NORM_EPS) if unit else result.grad
        return alpha, result.rows, grad, False
    rows = np.flatnonzero(np.bincount(np.concatenate([results[k].rows for k in active])))
    g = np.zeros((active.size, rows.shape[0], results[0].grad.shape[1]))
    for n, k in enumerate(active):
        g[n, np.searchsorted(rows, results[k].rows)] = results[k].grad
    g = g.reshape(active.size, -1)
    if unit:
        g /= norms[active, None] + GRAD_NORM_EPS
    if config.fixed_weights is None:
        alpha[active] = frank_wolfe_solve(gram_matrix(g)).values
    direction = (alpha[active] @ g).reshape(rows.shape[0], -1)
    return alpha, rows, direction, config.fixed_weights is None


def _final_objective_values(model, dataset, masks, config, eval_gen,
                            pool) -> np.ndarray:
    """Mean per-objective losses over a deterministic handful of batches."""
    train_users, train_items = dataset.split_pairs(TRAIN)
    n = train_users.shape[0]
    batches = min(FINAL_EVAL_BATCHES, math.ceil(n / config.batch_size))
    sums = np.zeros(len(config.objectives))
    counts = np.zeros(len(config.objectives))
    for b in range(batches):
        sl = slice(b * config.batch_size, min((b + 1) * config.batch_size, n))
        batch = attach_negatives(dataset, eval_gen, train_users[sl], train_items[sl])
        if batch.size == 0:
            continue
        results = _objective_results(model, dataset, masks, config, batch, eval_gen,
                                     pool)
        for k, result in enumerate(results):
            if result is not None:
                sums[k] += result.loss
                counts[k] += 1
    return sums / np.maximum(counts, 1.0)


def train_round(dataset: InteractionDataset, masks: GroupMaskSet,
                config: TrainConfig, round_index: int = 0) -> RoundResult:
    """One full training run; returns the best-validation model and its trace.

    Every epoch visits all train (user, positive) pairs in a fresh random
    order, one negative sampled per pair. Validation recall is checked every
    ``eval_every`` epochs and after the last one, and training stops after
    ``early_stop_patience`` evaluations without improvement.
    """
    config.validate_masks(masks)
    init_gen, batch_gen, ctx_gen = _round_streams(config.seed, round_index)
    eval_gen = _shared_eval_stream(config.seed)
    model = init_model(dataset.num_users, dataset.num_items, config.dim,
                       config.reg, init_gen)
    train_users, train_items = dataset.split_pairs(TRAIN)
    n_pairs = train_users.shape[0]
    if n_pairs == 0:
        raise EmptyDatasetError("dataset has no train split")
    n_batches = math.ceil(n_pairs / config.batch_size)

    trace = AlphaTrace()
    fw_calls = 0
    best_recall = -np.inf
    stale_evals = 0

    with one_blas_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        for epoch in range(1, config.epochs_max + 1):
            perm = batch_gen.permutation(n_pairs)
            for b in range(n_batches):
                idx = perm[b * config.batch_size:(b + 1) * config.batch_size]
                batch = attach_negatives(dataset, batch_gen,
                                         train_users[idx], train_items[idx])
                if batch.size == 0:
                    continue
                results = _objective_results(model, dataset, masks, config,
                                             batch, ctx_gen, pool)
                alpha, rows, direction, fw_used = _combine_gradients(results, config)
                fw_calls += int(fw_used)
                trace.entries.append((epoch, b, alpha))
                model.params[rows] -= config.learning_rate * direction
            if epoch % config.eval_every == 0 or epoch == config.epochs_max:
                recall = _validation_recall(model, dataset, VALIDATION_K)
                if recall > best_recall:
                    best_recall = recall
                    best_params = model.flatten()
                    best_epoch = epoch
                    stale_evals = 0
                else:
                    stale_evals += 1
                if stale_evals >= config.early_stop_patience:
                    logger.info("round %d: early stop at epoch %d", round_index, epoch)
                    break

        model.set_flat(best_params)  # the last epoch validates, so it is set
        values = _final_objective_values(model, dataset, masks, config, eval_gen,
                                         pool)
    record = SolutionRecord(round_id=round_index + 1, objective_values=values)
    return RoundResult(record=record, trace=trace, model=model,
                       best_epoch=best_epoch, val_recall=float(best_recall),
                       fw_calls=fw_calls)


def run_pareto_rounds(dataset: InteractionDataset, masks: GroupMaskSet,
                      config: TrainConfig):
    """Run ``config.rounds`` independent rounds and pick one by least misery.

    Round r uses seed ``config.seed + r``; the selected record minimizes the
    maximum round-1-normalized objective value.
    """
    results = [train_round(dataset, masks, config, round_index=r)
               for r in range(config.rounds)]
    selected = least_misery_select([r.record for r in results])
    return selected, results
