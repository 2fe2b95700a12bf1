"""The benchmark workloads: raw-data shape plus every ``TrainConfig`` field.

Every field is pinned so that a later change to the library defaults cannot
silently change what a workload runs.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_OBJECTIVES = ("bpr", "gender", "age", "popularity", "genre")

# TrainConfig defaults at the commit that introduced the benchmark.
BASE_CONFIG = dict(
    objectives=("bpr",),
    learning_rate=1e-3,
    reg=1e-4,
    batch_size=1024,
    dim=50,
    epochs_max=300,
    eval_every=5,
    early_stop_patience=50,
    grad_normalization="auto",
    exposure_patience=0.5,
    temperature=1e-5,
    ndcg_k=50,
    steepness=1.0,
    rank_offset=1.0,
    n_r_cap=10,
    candidate_negatives=200,
    seed=0,  # replaced by the benchmark's --seed
    mode="mgda",
    fixed_weights=None,
    rounds=5,
    eval_k=20,
)


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # raw file format and shape, see gen.SHAPES
    config: dict
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "bpr-ml1m", "ml1m",
        dict(BASE_CONFIG, objectives=("bpr",), epochs_max=2, eval_every=2,
             learning_rate=0.05),
        "BPR only at ML-1M shape: loads the layers whose cost grows with users "
        "and catalog (ingest, bundle I/O, dense gradients, evaluate, memory); "
        "fairness objectives and solver are bypassed.",
    ),
    Workload(
        "mgda5-ml100k", "ml100k",
        dict(BASE_CONFIG, objectives=ALL_OBJECTIVES, epochs_max=1),
        "All five objectives under MGDA at ML-100k shape: time goes to the "
        "fairness objectives, sigmoid and the Frank-Wolfe solver; gender and "
        "age run forward only from a fresh init.",
    ),
    Workload(
        "fixed3-ml100k", "ml100k",
        dict(BASE_CONFIG, objectives=("bpr", "gender", "popularity"), epochs_max=1,
             mode="fixed_weights", fixed_weights=(0.6, 0.2, 0.2),
             candidate_negatives=50),
        "One objective per family with fixed weights at ML-100k shape: solver "
        "bypassed, nothing shared within a family, and the consumer backward "
        "runs every batch.",
    ),
)}
