"""Matrix-factorization recommender trained on pairwise implicit feedback.

Relevance is the inner product of user and item embeddings. The ranking loss
drives the score of each observed item above a sampled unobserved one; its
analytic gradient is exposed over a flattened view of all embeddings so that
several objectives can be combined on the same parameter vector.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset
from .numerics import sigmoid

logger = logging.getLogger(__name__)

INIT_STD = 0.01


@dataclass(frozen=True)
class ObjectiveGradient:
    """One objective's scalar loss and its gradient over the flattened parameters."""

    objective_id: str
    loss: float
    grad: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.loss):
            raise ValueError(f"{self.objective_id}: loss is not finite")
        if self.grad.ndim != 1 or not np.all(np.isfinite(self.grad)):
            raise ValueError(f"{self.objective_id}: gradient must be a finite vector")


class FactorModel:
    """User and item embedding matrices with an L2 regularization strength.

    The flattened parameter view is the concatenation of the user matrix and
    the item matrix in row-major order; ``set_flat`` restores it losslessly.
    """

    def __init__(self, user_embeddings: np.ndarray, item_embeddings: np.ndarray,
                 reg: float = 0.0):
        user_embeddings = np.asarray(user_embeddings, dtype=np.float64)
        item_embeddings = np.asarray(item_embeddings, dtype=np.float64)
        if user_embeddings.ndim != 2 or item_embeddings.ndim != 2:
            raise ValueError("embeddings must be 2-D matrices")
        if user_embeddings.shape[1] != item_embeddings.shape[1]:
            raise ValueError(
                f"dimension mismatch: users {user_embeddings.shape[1]}, "
                f"items {item_embeddings.shape[1]}"
            )
        if user_embeddings.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not (np.all(np.isfinite(user_embeddings)) and np.all(np.isfinite(item_embeddings))):
            raise ValueError("embeddings contain non-finite entries")
        if reg < 0:
            raise ValueError(f"regularization must be nonnegative, got {reg}")
        self.user_embeddings = user_embeddings
        self.item_embeddings = item_embeddings
        self.reg = float(reg)

    @property
    def num_users(self) -> int:
        return self.user_embeddings.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.user_embeddings.shape[1]

    @property
    def num_parameters(self) -> int:
        return (self.num_users + self.num_items) * self.dim

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.user_embeddings.ravel(),
                               self.item_embeddings.ravel()])

    def set_flat(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {theta.shape}"
            )
        cut = self.num_users * self.dim
        self.user_embeddings = theta[:cut].reshape(self.num_users, self.dim).copy()
        self.item_embeddings = theta[cut:].reshape(self.num_items, self.dim).copy()

    def copy(self) -> "FactorModel":
        return FactorModel(self.user_embeddings.copy(),
                           self.item_embeddings.copy(), self.reg)


def init_model(num_users: int, num_items: int, dim: int, reg: float,
               rng: np.random.Generator,
               init_std: float = INIT_STD) -> FactorModel:
    """Fresh model with i.i.d. zero-mean Gaussian entries of the given std."""
    return FactorModel(
        init_std * rng.standard_normal((num_users, dim)),
        init_std * rng.standard_normal((num_items, dim)),
        reg,
    )


@dataclass(frozen=True)
class TripletBatch:
    """(user, positive item, sampled negative item) index triples."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __post_init__(self):
        if not (self.users.shape == self.pos_items.shape == self.neg_items.shape):
            raise ValueError("triple columns must have matching lengths")

    @property
    def size(self) -> int:
        return self.users.shape[0]


def _touched_embeddings(model: FactorModel, batch: TripletBatch):
    users = np.unique(batch.users)
    items = np.unique(np.concatenate([batch.pos_items, batch.neg_items]))
    return users, items


def _margins(model: FactorModel, batch: TripletBatch) -> np.ndarray:
    u = model.user_embeddings[batch.users]
    diff = model.item_embeddings[batch.pos_items] - model.item_embeddings[batch.neg_items]
    return np.einsum("ij,ij->i", u, diff)


def bpr_grad(model: FactorModel, batch: TripletBatch) -> ObjectiveGradient:
    """BPR loss and its analytic gradient over the flattened parameters.

    The loss is the sum of -log sigmoid(score margin) over the batch, plus L2
    on the embeddings the batch touches (each counted once). Gradient entries
    for embeddings the batch never touches are zero.
    """
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    margins = _margins(model, batch)
    coeff = sigmoid(margins) - 1.0  # d(-log sigmoid(x))/dx
    u_emb = model.user_embeddings[batch.users]
    diff = model.item_embeddings[batch.pos_items] - model.item_embeddings[batch.neg_items]

    # one bincount over the flattened parameters (item i is row num_users + i)
    # adds in np.add.at's order: users, then positives, then negatives
    rows = np.concatenate([batch.users, model.num_users + batch.pos_items,
                           model.num_users + batch.neg_items])
    weights = np.concatenate([coeff[:, None] * diff, coeff[:, None] * u_emb,
                              -coeff[:, None] * u_emb])
    grad = np.bincount((rows[:, None] * model.dim + np.arange(model.dim)).ravel(),
                       weights.ravel(), model.num_parameters)
    user_grad = grad[:model.num_users * model.dim].reshape(model.num_users, model.dim)
    item_grad = grad[model.num_users * model.dim:].reshape(model.num_items, model.dim)

    loss = float(np.sum(np.logaddexp(0.0, -margins)))
    if model.reg > 0:
        users, items = _touched_embeddings(model, batch)
        user_grad[users] += 2.0 * model.reg * model.user_embeddings[users]
        item_grad[items] += 2.0 * model.reg * model.item_embeddings[items]
        loss += model.reg * (
            float(np.sum(model.user_embeddings[users] ** 2))
            + float(np.sum(model.item_embeddings[items] ** 2))
        )
    return ObjectiveGradient("bpr", loss, grad)


def attach_negatives(dataset: InteractionDataset, rng: np.random.Generator,
                     users: np.ndarray, pos_items: np.ndarray) -> TripletBatch:
    """Complete (user, positive) pairs into triples by sampling one negative each.

    Negatives are uniform over the items that are not train-split positives of
    the user (vectorized rejection sampling). Users whose positives cover the
    whole catalog are skipped with a warning.
    """
    membership = dataset.train_membership()
    users = np.asarray(users, dtype=np.int64)
    pos_items = np.asarray(pos_items, dtype=np.int64)
    saturated = membership[users].all(axis=1)
    if np.any(saturated):
        for u in np.unique(users[saturated]):
            logger.warning("user %d has no unobserved items; skipping", u)
        users = users[~saturated]
        pos_items = pos_items[~saturated]
    neg = rng.integers(dataset.num_items, size=users.shape[0])
    bad = membership[users, neg]
    while np.any(bad):
        neg[bad] = rng.integers(dataset.num_items, size=int(bad.sum()))
        bad = membership[users, neg]
    return TripletBatch(users.copy(), pos_items.copy(), neg)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: FactorModel, directory: str, metadata: dict | None = None) -> None:
    """Write embeddings as CSV plus a key-value metadata file."""
    os.makedirs(directory, exist_ok=True)
    np.savetxt(os.path.join(directory, "user_embeddings.csv"),
               model.user_embeddings, fmt="%.17g", delimiter=",")
    np.savetxt(os.path.join(directory, "item_embeddings.csv"),
               model.item_embeddings, fmt="%.17g", delimiter=",")
    meta = {"dim": model.dim, "reg": model.reg}
    meta.update(metadata or {})
    with open(os.path.join(directory, "metadata.txt"), "w") as fh:
        for key in sorted(meta):
            fh.write(f"{key} = {meta[key]}\n")


def load_checkpoint(directory: str) -> tuple[FactorModel, dict]:
    """Read a checkpoint written by ``save_checkpoint``."""
    upath = os.path.join(directory, "user_embeddings.csv")
    if not os.path.exists(upath):
        raise FileNotFoundError(f"checkpoint not found: {upath}")
    user = np.loadtxt(upath, delimiter=",", ndmin=2)
    item = np.loadtxt(os.path.join(directory, "item_embeddings.csv"),
                      delimiter=",", ndmin=2)
    meta = {}
    mpath = os.path.join(directory, "metadata.txt")
    if os.path.exists(mpath):
        with open(mpath) as fh:
            for line in fh:
                if "=" in line:
                    key, value = line.split("=", 1)
                    meta[key.strip()] = value.strip()
    reg = float(meta.get("reg", 0.0))
    return FactorModel(user, item, reg), meta
