"""Multi-objective training loop.

Each batch computes every active objective's loss and gradient on a shared
parameter snapshot, optionally normalizes the gradients, solves for the
scaling coefficients (min-norm Frank-Wolfe, or fixed weights in grid mode),
and applies one SGD step with the aggregated direction. Validation recall
drives early stopping and best-checkpoint selection; multiple independent
rounds form a solution set from which the least-misery rule picks the final
model.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import TRAIN, VAL, GroupMaskSet, InteractionDataset
from .metrics import evaluate, rank_split, recall_at_k
from .model import FactorModel, attach_negatives, init_model
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

# Allowed range of each numeric TrainConfig field: (fields, bound, test).
FIELD_RANGES = (
    (("learning_rate", "temperature", "steepness"), "> 0", lambda v: v > 0),
    (("batch_size", "dim", "epochs_max", "eval_every", "early_stop_patience",
      "ndcg_k", "n_r_cap", "rounds", "eval_k"), ">= 1", lambda v: v >= 1),
    (("reg", "rank_offset", "candidate_negatives", "seed"), ">= 0", lambda v: v >= 0),
    (("exposure_patience",), "in (0, 1)", lambda v: 0 < v < 1),
)


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on, validated at construction
    (``FIELD_RANGES`` for the numeric fields).

    ``grad_normalization`` defaults to "auto": unit L2 normalization whenever
    several objectives of very different magnitudes are mixed, none for plain
    single-objective training. ``ndcg_k``, ``steepness``, ``temperature``,
    ``exposure_patience`` and ``rank_offset`` shape the smooth-ranking chains
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
    grad_normalization: str = "auto"
    exposure_patience: float = 0.5
    temperature: float = 1e-5
    ndcg_k: int = 50
    steepness: float = 1.0
    rank_offset: float = 1.0
    n_r_cap: int = 10
    candidate_negatives: int = 200
    seed: int = 0
    mode: str = "mgda"
    fixed_weights: tuple | None = None
    rounds: int = 5
    eval_k: int = 20

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
                if not within(value):
                    raise ValueError(f"{name} must be {bound}, got {value!r}")
        if self.mode not in ("mgda", "fixed_weights"):
            raise ValueError(f"mode must be 'mgda' or 'fixed_weights', got {self.mode!r}")
        if self.grad_normalization not in ("auto", "none", "l2"):
            raise ValueError("grad_normalization must be 'auto', 'none', or 'l2'")
        if self.mode == "fixed_weights":
            if self.fixed_weights is None:
                raise ValueError("fixed_weights mode requires fixed_weights")
            weights = tuple(float(w) for w in self.fixed_weights)
            if len(weights) != len(objectives):
                raise ValueError("fixed_weights length must match objectives")
            SimplexWeights(np.asarray(weights))  # validates the simplex
            object.__setattr__(self, "fixed_weights", weights)
        elif self.fixed_weights is not None:
            raise ValueError("fixed_weights needs mode 'fixed_weights' (--mode fixed), "
                             f"got mode {self.mode!r}")

    @property
    def num_objectives(self) -> int:
        return len(self.objectives)

    def resolved_normalization(self) -> str:
        if self.grad_normalization != "auto":
            return self.grad_normalization
        return "l2" if self.num_objectives > 1 else "none"

    def validate_masks(self, masks: GroupMaskSet) -> None:
        missing = [o for o in self.objectives
                   if o != "bpr" and masks.mask_for(o) is None]
        if missing:
            raise ValueError(
                f"objectives {missing} need masks the dataset does not provide"
            )


@dataclass
class AlphaTrace:
    """Per-batch scaling coefficients, one row per optimizer step."""

    objectives: tuple
    entries: list = field(default_factory=list)

    def append(self, epoch: int, batch: int, alpha: np.ndarray) -> None:
        self.entries.append((epoch, batch, np.asarray(alpha, dtype=np.float64)))

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "batch"]
                            + [f"alpha_{o}" for o in self.objectives])
            for epoch, batch, alpha in self.entries:
                writer.writerow([epoch, batch] + [f"{a:.6g}" for a in alpha])


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


def _objective_results(model, dataset, masks, config, batch, ctx_gen):
    """Loss and gradient per configured objective for one batch.

    Contexts (candidate negatives, Gumbel noise) are drawn once per batch and
    shared within each objective family, and so is the family's
    smooth-ranking forward: its first objective computes it, the others reuse
    it, and it is dropped before the next family runs.
    """
    batch_users = np.unique(batch.users)
    consumer_ctx = None
    producer_ctx = None
    if any(o in CONSUMER_OBJECTIVES for o in config.objectives):
        consumer_ctx = build_consumer_context(dataset, batch_users,
                                              config.candidate_negatives, ctx_gen)
    if any(o in PRODUCER_OBJECTIVES for o in config.objectives):
        producer_ctx = build_producer_context(dataset, batch_users,
                                              config.n_r_cap,
                                              config.candidate_negatives, ctx_gen)
    results = [None] * config.num_objectives
    for family in (("bpr",), CONSUMER_OBJECTIVES, PRODUCER_OBJECTIVES):
        forwards = {}
        for k, objective in enumerate(config.objectives):
            if objective in family:
                results[k] = fairness_grad(
                    objective, model, masks, triplet_batch=batch,
                    consumer_ctx=consumer_ctx, producer_ctx=producer_ctx,
                    config=config, forwards=forwards)
    return results


def _combine_gradients(results, config):
    """Scaling coefficients over all configured objectives for one batch.

    Skipped objectives (None results) get weight zero, and so do objectives
    whose gradient has vanished for the batch: a (near-)zero gradient carries
    no descent information, but as a min-norm vertex it would absorb all the
    weight and stall every other objective. The solver runs on the active
    subset. Returns (alpha over all objectives, direction, fw_used).
    """
    t = config.num_objectives
    active = [k for k, r in enumerate(results)
              if r is not None and np.linalg.norm(r.grad) > ZERO_GRAD_TOL]
    if not active:  # every objective flat or skipped: no step this batch
        zero = np.zeros_like(results[0].grad)
        return np.zeros(t), zero, False
    grads = []
    for k in active:
        g = results[k].grad
        if config.resolved_normalization() == "l2":
            g = g / (np.linalg.norm(g) + GRAD_NORM_EPS)
        grads.append(g)
    alpha = np.zeros(t)
    fw_used = False
    if config.mode == "fixed_weights":
        alpha = np.asarray(config.fixed_weights, dtype=np.float64)
        direction = sum(
            alpha[k] * grads[pos] for pos, k in enumerate(active) if alpha[k] != 0.0
        )
        if not isinstance(direction, np.ndarray):
            direction = np.zeros_like(results[active[0]].grad)
        return alpha, direction, fw_used
    if len(active) == 1:
        alpha[active[0]] = 1.0
        return alpha, grads[0], fw_used
    m = gram_matrix(grads)
    weights = frank_wolfe_solve(m)
    fw_used = True
    for pos, k in enumerate(active):
        alpha[k] = weights.values[pos]
    direction = np.zeros_like(grads[0])
    for pos in range(len(active)):
        direction += weights.values[pos] * grads[pos]
    return alpha, direction, fw_used


def _final_objective_values(model, dataset, masks, config, eval_gen) -> np.ndarray:
    """Mean per-objective losses over a deterministic handful of batches."""
    train_users, train_items = dataset.split_pairs(TRAIN)
    n = train_users.shape[0]
    batches = min(FINAL_EVAL_BATCHES, math.ceil(n / config.batch_size))
    sums = np.zeros(config.num_objectives)
    counts = np.zeros(config.num_objectives)
    for b in range(batches):
        sl = slice(b * config.batch_size, min((b + 1) * config.batch_size, n))
        batch = attach_negatives(dataset, eval_gen, train_users[sl], train_items[sl])
        if batch.size == 0:
            continue
        results = _objective_results(model, dataset, masks, config, batch, eval_gen)
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
    ``eval_every`` epochs and training stops after ``early_stop_patience``
    evaluations without improvement.
    """
    config.validate_masks(masks)
    init_gen, batch_gen, ctx_gen = _round_streams(config.seed, round_index)
    eval_gen = _shared_eval_stream(config.seed)
    model = init_model(dataset.num_users, dataset.num_items, config.dim,
                       config.reg, init_gen)
    train_users, train_items = dataset.split_pairs(TRAIN)
    n_pairs = train_users.shape[0]
    if n_pairs == 0:
        raise ValueError("dataset has no train split")
    n_batches = math.ceil(n_pairs / config.batch_size)

    trace = AlphaTrace(config.objectives)
    fw_calls = 0
    best_recall = -np.inf
    best_model = model.copy()
    best_epoch = 0
    stale_evals = 0

    for epoch in range(1, config.epochs_max + 1):
        perm = batch_gen.permutation(n_pairs)
        for b in range(n_batches):
            idx = perm[b * config.batch_size:(b + 1) * config.batch_size]
            batch = attach_negatives(dataset, batch_gen,
                                     train_users[idx], train_items[idx])
            if batch.size == 0:
                continue
            results = _objective_results(model, dataset, masks, config,
                                         batch, ctx_gen)
            alpha, direction, fw_used = _combine_gradients(results, config)
            fw_calls += int(fw_used)
            trace.append(epoch, b, alpha)
            theta = model.flatten()
            theta -= config.learning_rate * direction
            model.set_flat(theta)
        if epoch % config.eval_every == 0:
            recall = _validation_recall(model, dataset, config.eval_k)
            if recall > best_recall:
                best_recall = recall
                best_model = model.copy()
                best_epoch = epoch
                stale_evals = 0
            else:
                stale_evals += 1
            if stale_evals >= config.early_stop_patience:
                logger.info("round %d: early stop at epoch %d", round_index, epoch)
                break

    if best_recall == -np.inf:  # never evaluated: keep the final state
        best_recall = _validation_recall(model, dataset, config.eval_k)
        best_model = model.copy()
        best_epoch = config.epochs_max

    values = _final_objective_values(best_model, dataset, masks, config, eval_gen)
    record = SolutionRecord(round_id=round_index + 1, objective_values=values)
    return RoundResult(record=record, trace=trace, model=best_model,
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


DEFAULT_GRID = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)


def grid_search(dataset: InteractionDataset, masks: GroupMaskSet,
                config: TrainConfig, weight_grid=DEFAULT_GRID):
    """Fixed-weight scan over two objectives, one training run per point.

    Each grid value is the weight on the ranking objective; the remainder
    goes to the single fairness objective. Returns (weights, metrics rows at
    k = 10, 20, round result) triples ready for a frontier plot.
    """
    if config.num_objectives != 2:
        raise ValueError("grid search requires exactly two objectives")
    out = []
    for w in weight_grid:
        weights = (float(w), 1.0 - float(w))
        run_config = replace(config, mode="fixed_weights", fixed_weights=weights)
        result = train_round(dataset, masks, run_config, round_index=0)
        rows = evaluate(result.model, dataset, masks,
                        patience=config.exposure_patience,
                        label=f"grid_{w:g}")
        out.append((weights, rows, result))
    return out
