"""Matrix-factorization recommender trained on pairwise implicit feedback.

Relevance is the inner product of user and item embeddings, stored as one
stacked (U+I) x d parameter matrix where item i is row U + i. The ranking
loss drives the score of each observed item above a sampled unobserved one;
its analytic gradient, like every objective's, covers only the parameter rows
the batch touches, so that several objectives can be combined and stepped on
those rows alone.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .data import DataFormatError, InteractionDataset, atomic_open, load_npz, save_npz
from .numerics import sigmoid

logger = logging.getLogger(__name__)

INIT_STD = 0.01


@dataclass(frozen=True)
class ObjectiveGradient:
    """One objective's scalar loss and its gradient over the rows it touches.

    ``rows`` are sorted, unique ids into the stacked (U+I)-row parameter
    matrix, and row k of the (len(rows), d) ``grad`` is the gradient of row
    ``rows[k]``; every other row has a zero gradient.
    """

    objective_id: str
    loss: float
    rows: np.ndarray
    grad: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.loss):
            raise ValueError(f"{self.objective_id}: loss is not finite")
        if (self.grad.ndim != 2 or self.grad.shape[0] != self.rows.shape[0]
                or np.any(np.diff(self.rows) <= 0) or not np.all(np.isfinite(self.grad))):
            raise ValueError(f"{self.objective_id}: gradient must be finite, one row "
                             "per sorted, unique row id")


def compact_ids(ids: np.ndarray):
    """``np.unique(ids, return_inverse=True)`` of nonnegative integer ids by
    one bincount instead of a sort: the sorted distinct ids, and the index of
    each entry's id among them."""
    table = np.bincount(ids)
    unique = np.flatnonzero(table)
    table[unique] = np.arange(unique.shape[0])
    return unique, table[ids]


class FactorModel:
    """User and item embeddings stacked into one (U+I) x d matrix ``params``,
    with an L2 regularization strength.

    ``user_embeddings`` and ``item_embeddings`` are views of its first U and
    last I rows. ``flatten`` copies ``params`` out in row-major order and
    ``set_flat`` writes such a copy back in place.
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
        self.params = np.concatenate([user_embeddings, item_embeddings])
        self.num_users = user_embeddings.shape[0]
        self.reg = float(reg)

    @property
    def user_embeddings(self) -> np.ndarray:
        return self.params[:self.num_users]

    @property
    def item_embeddings(self) -> np.ndarray:
        return self.params[self.num_users:]

    @property
    def num_items(self) -> int:
        return self.params.shape[0] - self.num_users

    @property
    def dim(self) -> int:
        return self.params.shape[1]

    def flatten(self) -> np.ndarray:
        return self.params.flatten()

    def set_flat(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.params.size,):
            raise ValueError(f"expected {self.params.size} parameters, got {theta.shape}")
        self.params[...] = theta.reshape(self.params.shape)


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


def bpr_grad(model: FactorModel, batch: TripletBatch) -> ObjectiveGradient:
    """BPR loss and its analytic gradient over the rows the batch touches.

    The loss is the sum of -log sigmoid(score margin) over the batch, plus L2
    on the embeddings the batch touches (each counted once).
    """
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    u_emb = model.user_embeddings[batch.users]
    diff = model.item_embeddings[batch.pos_items] - model.item_embeddings[batch.neg_items]
    margins = np.einsum("ij,ij->i", u_emb, diff)
    coeff = sigmoid(margins) - 1.0  # d(-log sigmoid(x))/dx

    # one bincount over the touched rows adds in np.add.at's order: users,
    # then positives, then negatives
    rows, at = compact_ids(np.concatenate([batch.users, model.num_users + batch.pos_items,
                                           model.num_users + batch.neg_items]))
    # filled in place: the (batch x d) temporaries of a concatenation cost
    # about 0.2 ms per step at ML-1M shape
    weights = np.empty((3, batch.size, model.dim))
    np.multiply(coeff[:, None], diff, out=weights[0])
    np.multiply(coeff[:, None], u_emb, out=weights[1])
    np.negative(weights[1], out=weights[2])
    grad = np.bincount((at[:, None] * model.dim + np.arange(model.dim)).ravel(),
                       weights.ravel(), rows.shape[0] * model.dim).reshape(-1, model.dim)

    loss = float(np.sum(np.logaddexp(0.0, -margins)))
    if model.reg > 0:
        touched = model.params[rows]
        cut = int(np.searchsorted(rows, model.num_users))
        loss += model.reg * (float(np.sum(touched[:cut] ** 2))
                             + float(np.sum(touched[cut:] ** 2)))
        touched *= 2.0 * model.reg
        grad += touched
    return ObjectiveGradient("bpr", loss, rows, grad)


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
    neg = rng.integers(dataset.num_items, size=users.shape[0])
    bad = membership[users, neg >> 3] & (128 >> (neg & 7)) > 0  # each pair's packed bit
    # a saturated user's draw is always rejected, so only rejected rows need the test
    full = np.packbits(np.ones(dataset.num_items, dtype=bool))
    saturated = np.flatnonzero(bad)[(membership[users[bad]] == full).all(axis=1)]
    if saturated.size:
        for u in np.unique(users[saturated]):
            logger.warning("user %d has no unobserved items; skipping", u)
        users, pos_items, neg, bad = (np.delete(a, saturated)
                                      for a in (users, pos_items, neg, bad))
    while np.any(bad):
        neg[bad] = rng.integers(dataset.num_items, size=int(bad.sum()))
        bad = membership[users, neg >> 3] & (128 >> (neg & 7)) > 0
    return TripletBatch(users, pos_items, neg)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FILE = "embeddings.npz"

# embeddings.npz entries: (dtype, dimensions, required)
CHECKPOINT_ARRAYS = {"user_embeddings": ("float64", 2, True),
                     "item_embeddings": ("float64", 2, True),
                     "reg": ("float64", 0, True)}


def save_checkpoint(model: FactorModel, directory: str, metadata: dict | None = None) -> None:
    """Write the embeddings and ``reg`` as ``embeddings.npz`` plus a key-value
    ``metadata.txt``, each atomically."""
    os.makedirs(directory, exist_ok=True)
    save_npz(os.path.join(directory, CHECKPOINT_FILE),
             {"user_embeddings": model.user_embeddings,
              "item_embeddings": model.item_embeddings, "reg": np.float64(model.reg)})
    meta = {"dim": model.dim, "reg": model.reg}
    meta.update(metadata or {})
    with atomic_open(os.path.join(directory, "metadata.txt")) as fh:
        for key in sorted(meta):
            fh.write(f"{key} = {meta[key]}\n")


def load_checkpoint(directory: str) -> tuple[FactorModel, dict]:
    """Read a checkpoint written by ``save_checkpoint``."""
    path = os.path.join(directory, CHECKPOINT_FILE)
    arrays = load_npz(path, CHECKPOINT_ARRAYS)
    try:
        model = FactorModel(arrays["user_embeddings"], arrays["item_embeddings"],
                            float(arrays["reg"]))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    meta = {}
    mpath = os.path.join(directory, "metadata.txt")
    if os.path.exists(mpath):
        with open(mpath) as fh:
            meta = dict((part.strip() for part in line.split("=", 1))
                        for line in fh if "=" in line)
    return model, meta
