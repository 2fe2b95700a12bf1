"""Which moofair functions the traced run wraps, and the per-layer metrics
derived from the recorded spans.

Targets name the attribute where the caller looks a function up: training
imports its helpers by name, so those are wrapped on ``moofair.training``;
``fairness_grad`` calls ``bpr_grad`` and ``sigmoid`` through
``moofair.objectives``; methods are wrapped on their class.

Unless named otherwise, ``_ms`` metrics are milliseconds per training batch
(summed over the calls made in the batch, excluding the final-value batches),
``_s`` metrics are seconds summed over the traced run, and counts are totals
over the training batches.
"""

from __future__ import annotations

import numpy as np

from workloads import ALL_OBJECTIVES

SPANS = (
    ("moofair.data:ingest", "data.ingest"),
    ("moofair.data:preprocess", "data.preprocess"),
    ("moofair.data:build_masks", "data.build_masks"),
    ("moofair.data:save_bundle", "data.save_bundle"),
    ("moofair.data:load_bundle", "data.load_bundle"),
    ("moofair.data:InteractionDataset.train_membership", "data.train_membership"),
    ("moofair.data:InteractionDataset.train_complement_lists",
     "data.train_complement_lists"),
    ("moofair.training:train_round", "training.train_round"),
    ("moofair.training:attach_negatives", "model.attach_negatives"),
    ("moofair.objectives:bpr_grad", "model.bpr_grad"),
    ("moofair.model:FactorModel.flatten", "model.param_step"),
    ("moofair.model:FactorModel.set_flat", "model.param_step"),
    ("moofair.model:save_checkpoint", "model.save_checkpoint"),
    ("moofair.model:load_checkpoint", "model.load_checkpoint"),
    ("moofair.training:build_consumer_context", "objectives.build_consumer_context"),
    ("moofair.training:build_producer_context", "objectives.build_producer_context"),
    ("moofair.training:_combine_gradients", "training.combine"),
    ("moofair.training:gram_matrix", "solver.gram_matrix"),
    ("moofair.training:frank_wolfe_solve", "solver.frank_wolfe_solve"),
    ("moofair.training:_validation_recall", "training.validate"),
    ("moofair.training:_final_objective_values", "training.final_values"),
    ("moofair.metrics:evaluate", "metrics.evaluate"),
    ("moofair.metrics:build_recommendations", "metrics.build_recommendations"),
)
LEAVES = (
    ("moofair.objectives:sigmoid", "numerics.sigmoid"),
    ("moofair.model:sigmoid", "numerics.sigmoid"),
    ("moofair.objectives:sample_gumbel", "numerics.sample_gumbel"),
)
OUTCOMES = ("active", "zero_grad", "skipped")
# Training steps end at these spans of the training loop.
STEP_BREAKS = ("training.validate", "training.final_values")
TAIL_MIN_BEYOND = 10


def _objective_span(objective_id, *args, **kwargs):
    return f"objectives.{objective_id}.grad"


def install(tracer, zero_grad_tol: float) -> None:
    """Wrap every target; absent names are recorded on the tracer."""

    def outcome(args, result):
        if result is None:
            return "skipped"
        grad = getattr(result, "grad", None)
        if grad is not None and not np.linalg.norm(grad) > zero_grad_tol:
            return "zero_grad"
        return "active"

    for target, name in SPANS:
        tracer.wrap(target, name)
    tracer.wrap("moofair.training:fairness_grad", _objective_span, info=outcome)
    for target, name in LEAVES:
        tracer.wrap(target, name, leaf=True)


def _steps(tracer, train_span):
    """Top-level spans of each training batch, in order.

    A batch starts at its ``attach_negatives`` call and holds the spans the
    training loop makes until the next batch, validation or final values.
    """
    steps, open_step = [], False
    for span in tracer.children(train_span.index):
        if span.name == "model.attach_negatives":
            steps.append([span])
            open_step = True
        elif span.name in STEP_BREAKS:
            open_step = False
        elif open_step:
            steps[-1].append(span)
    return steps


def _tail(values):
    """Highest percentile with at least TAIL_MIN_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return float(np.median(ordered)), 50.0
    return ordered[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n


def per_layer(tracer, overhead_pct: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    spans = tracer.spans

    def total_s(name, pool=spans):
        return sum(s.duration_ns for s in pool if s.name == name) / 1e9

    train_span = next(s for s in reversed(spans) if s.name == "training.train_round")
    steps = _steps(tracer, train_span)
    n_steps = max(len(steps), 1)
    step_roots = {s.index for step in steps for s in step}
    in_steps = [s for s in spans
                if s.index in step_roots
                or any(a.index in step_roots for a in tracer.ancestors(s))]

    def per_batch_ms(name):
        return 1e3 * total_s(name, in_steps) / n_steps

    leaves = {}
    for span in in_steps:
        for name, (calls, ns, elements) in span.leaves.items():
            agg = leaves.setdefault(name, [0, 0, 0])
            agg[0] += calls
            agg[1] += ns
            agg[2] += elements

    step_ms = [1e3 * (step[-1].end_ns - step[0].start_ns) / 1e9 for step in steps] or [0.0]
    tail_ms, tail_pct = _tail(step_ms)
    evaluate = [s for s in spans if s.name == "metrics.evaluate"]
    out = {
        "data.ingest_s": (total_s("data.ingest"), "s"),
        "data.preprocess_s": (total_s("data.preprocess"), "s"),
        "data.build_masks_s": (total_s("data.build_masks"), "s"),
        "data.save_bundle_s": (total_s("data.save_bundle"), "s"),
        "data.load_bundle_s": (total_s("data.load_bundle"), "s"),
        "data.train_membership_s": (total_s("data.train_membership"), "s"),
        "data.train_membership.calls": (
            sum(s.name == "data.train_membership" for s in spans), "count"),
        "data.train_complement_lists_s": (total_s("data.train_complement_lists"), "s"),
        "data.train_complement_lists.calls": (
            sum(s.name == "data.train_complement_lists" for s in spans), "count"),
        "model.attach_negatives_ms": (per_batch_ms("model.attach_negatives"), "ms"),
        "model.bpr_grad_ms": (per_batch_ms("model.bpr_grad"), "ms"),
        "model.param_step_ms": (per_batch_ms("model.param_step"), "ms"),
        "model.save_checkpoint_s": (total_s("model.save_checkpoint"), "s"),
        "model.load_checkpoint_s": (total_s("model.load_checkpoint"), "s"),
        "objectives.build_consumer_context_ms": (
            per_batch_ms("objectives.build_consumer_context"), "ms"),
        "objectives.build_producer_context_ms": (
            per_batch_ms("objectives.build_producer_context"), "ms"),
    }
    for oid in ALL_OBJECTIVES:
        name = f"objectives.{oid}.grad"
        out[f"objectives.{oid}.grad_ms"] = (per_batch_ms(name), "ms")
        outcomes = [s.info for s in in_steps if s.name == name]
        for kind in OUTCOMES:
            out[f"objectives.{oid}.{kind}"] = (outcomes.count(kind), "count")
        out[f"objectives.{oid}.active_ratio"] = (
            outcomes.count("active") / n_steps, "ratio")
    sigmoid = leaves.get("numerics.sigmoid", [0, 0, 0])
    gumbel = leaves.get("numerics.sample_gumbel", [0, 0, 0])
    out.update({
        "numerics.sigmoid.calls": (sigmoid[0], "count"),
        "numerics.sigmoid.elements": (sigmoid[2], "count"),
        "numerics.sigmoid_ms": (sigmoid[1] / 1e6 / n_steps, "ms"),
        "numerics.sample_gumbel_ms": (gumbel[1] / 1e6 / n_steps, "ms"),
        "solver.calls": (sum(s.name == "solver.frank_wolfe_solve" for s in in_steps),
                         "count"),
        "solver.gram_matrix_ms": (per_batch_ms("solver.gram_matrix"), "ms"),
        "solver.frank_wolfe_solve_ms": (per_batch_ms("solver.frank_wolfe_solve"), "ms"),
        "training.steps": (len(steps), "count"),
        "training.step_ms.p50": (float(np.median(step_ms)), "ms"),
        "training.step_ms.tail": (tail_ms, "ms"),
        "training.step_ms.tail_pct": (tail_pct, "%"),
        "training.combine_ms": (per_batch_ms("training.combine"), "ms"),
        "training.validate_s": (total_s("training.validate"), "s"),
        "training.final_values_s": (total_s("training.final_values"), "s"),
        "training.self_s": (train_span.self_ns / 1e9, "s"),
        "metrics.build_recommendations_s": (total_s("metrics.build_recommendations"), "s"),
        "metrics.evaluate_self_s": (sum(s.self_ns for s in evaluate) / 1e9, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return out
