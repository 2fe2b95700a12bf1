import numpy as np
import pytest

from moofair import numerics, objectives
from moofair.data import TEST, TRAIN, VAL, InteractionDataset, RawRatings, build_masks, preprocess
from moofair.model import FactorModel
from moofair.numerics import as_vector
from moofair.objectives import CandidateContext

GENRES = ("Action", "Comedy", "Drama", "Romance", "Sci-Fi")


def make_raw(seed=0, num_users=30, num_core_items=25, num_tail_items=15,
             with_attributes=True, max_positives=None):
    """Small synthetic rating log that survives the preprocessing filters.

    Every user rates at least 14 core items positively (so the >=10-positives
    filter keeps everyone), while tail items are rated sporadically so some of
    them get dropped by the >=5-ratings item filter.
    """
    gen = np.random.default_rng(seed)
    num_items = num_core_items + num_tail_items
    users, items, ratings, stamps = [], [], [], []
    core_cap = min(max_positives or num_core_items, num_core_items)
    for u in range(num_users):
        n_core = int(gen.integers(14, core_cap + 1))
        core = gen.choice(num_core_items, size=n_core, replace=False)
        n_tail = int(gen.integers(0, 4))
        tail = num_core_items + gen.choice(num_tail_items, size=n_tail, replace=False)
        chosen = np.concatenate([core, tail])
        t = 1000 * u
        for it in chosen:
            users.append(u + 1)  # original ids are 1-based like the real logs
            items.append(int(it) + 1)
            is_core = it < num_core_items
            rating = int(gen.choice([4, 5])) if is_core else int(gen.integers(1, 6))
            ratings.append(rating)
            t += int(gen.integers(1, 50))
            stamps.append(t)
    raw = RawRatings(
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        ratings=np.asarray(ratings, dtype=np.float64),
        timestamps=np.asarray(stamps, dtype=np.int64),
    )
    if with_attributes:
        ages = (5, 19, 27, 38, 47, 52, 61)
        raw.user_gender = {u + 1: ("F" if u % 2 == 0 else "M") for u in range(num_users)}
        raw.user_age = {u + 1: ages[u % len(ages)] for u in range(num_users)}
        raw.item_genres = {
            i + 1: tuple(sorted(gen.choice(len(GENRES),
                                           size=int(gen.integers(1, 4)),
                                           replace=False).tolist()))
            for i in range(num_items)
        }
        raw.genre_names = GENRES
    return raw


@pytest.fixture(scope="session")
def synthetic_raw():
    return make_raw(seed=0)


@pytest.fixture(scope="session")
def synthetic_dataset(synthetic_raw):
    return preprocess(synthetic_raw)


@pytest.fixture(scope="session")
def synthetic_masks(synthetic_raw, synthetic_dataset):
    return build_masks(synthetic_dataset, synthetic_raw)


# Per numeric TrainConfig field: a value just outside its range, and the
# value at (or, for an open bound, just inside) the range's edge.
FIELD_BOUNDS = (
    ("learning_rate", 0.0, 1e-12),
    ("temperature", 0.0, 1e-12),
    ("steepness", 0.0, 1e-12),
    ("batch_size", 0, 1),
    ("dim", 0, 1),
    ("epochs_max", 0, 1),
    ("eval_every", 0, 1),
    ("early_stop_patience", 0, 1),
    ("ndcg_k", 0, 1),
    ("n_r_cap", 0, 1),
    ("rounds", 0, 1),
    ("eval_k", 0, 1),
    ("reg", -1e-12, 0.0),
    ("candidate_negatives", -1, 0),
    ("seed", -1, 0),
    ("exposure_patience", 0.0, 1e-12),
    ("exposure_patience", 1.0, 1.0 - 1e-12),
)


def flat_context(candidates, counts, users=None, noise=None):
    """CandidateContext of per-row candidate lists; row r is user r unless
    ``users`` is given, and ``noise`` holds per-row draws (producer side)."""
    rows = [np.asarray(c, dtype=np.int64) for c in candidates]
    users = np.arange(len(rows)) if users is None else users
    extra = {} if noise is None else {"noise": np.concatenate(noise).astype(np.float64)}
    return CandidateContext(np.asarray(users, dtype=np.int64), np.concatenate(rows),
                            np.array([r.shape[0] for r in rows], dtype=np.int64),
                            np.asarray(counts, dtype=np.int64), **extra)


def context_rows(ctx):
    """The per-row candidate arrays of a flat context."""
    return np.split(ctx.items, np.cumsum(ctx.widths)[:-1])


def positive_lists(dataset, split=TRAIN):
    """The per-user item arrays of ``dataset.positives(split)``."""
    indptr, items = dataset.positives(split)
    return np.split(items, indptr[1:-1])


def tagged_dataset(num_users, num_items, users, items, split=TRAIN, user_ids=None,
                   item_ids=None):
    """The InteractionDataset of rows (users[r], items[r]) of split ``split``
    (one split for all rows, or one per row), ids 0.. unless given. Rows are
    ordered by (user, split) stably, so each user's rows of a split keep their
    order, and the offsets are the counts of each (user, split) summed up."""
    users, items = np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
    split = np.broadcast_to(np.asarray(split, dtype=np.int64), users.shape)
    order = np.lexsort((split, users))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(3 * users + split,
                                                        minlength=3 * num_users))])
    return InteractionDataset(
        num_users, num_items, items[order], indptr.astype(np.int64),
        np.arange(num_users, dtype=np.int64) if user_ids is None else user_ids,
        np.arange(num_items, dtype=np.int64) if item_ids is None else item_ids)


def dataset_rows(dataset):
    """(users, items, split) of every row of ``dataset``, in storage order."""
    per_range = np.diff(dataset.indptr)
    return (np.repeat(np.repeat(np.arange(dataset.num_users), 3), per_range), dataset.items,
            np.repeat(np.tile([TRAIN, VAL, TEST], dataset.num_users), per_range))


def with_train_positives(dataset, users, items):
    """``dataset`` plus train interactions (users[i], items[i])."""
    old_users, old_items, split = dataset_rows(dataset)
    return tagged_dataset(dataset.num_users, dataset.num_items,
                          np.concatenate([old_users, users]), np.concatenate([old_items, items]),
                          np.concatenate([split, np.full(len(users), TRAIN)]),
                          dataset.user_ids, dataset.item_ids)


def derived_rng(seed, index):
    """Independent child stream ``index`` of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def dense_gradient(model, result):
    """An ``ObjectiveGradient``'s rows scattered over the flattened
    parameters (item i is row U + i); rows it leaves out are zero."""
    dense = np.zeros((model.num_users + model.num_items, model.dim))
    dense[result.rows] = result.grad
    return dense.ravel()


def finite_difference_error(model, result, loss_of, step=1e-6, floor=1e-6):
    """Worst elementwise relative error (with an absolute floor) of the
    ``dense_gradient`` of ``result`` against central differences of
    ``loss_of(probe)`` over the flattened parameters, where ``probe`` is a
    model built with the constructor and set to the bumped parameters."""
    theta = model.flatten()
    probe = FactorModel(model.user_embeddings, model.item_embeddings, model.reg)
    numeric = np.empty_like(theta)
    for k in range(theta.shape[0]):
        bumped = theta.copy()
        bumped[k] = theta[k] + step
        probe.set_flat(bumped)
        up = loss_of(probe)
        bumped[k] = theta[k] - step
        probe.set_flat(bumped)
        numeric[k] = (up - loss_of(probe)) / (2.0 * step)
    analytic = dense_gradient(model, result)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def two_objective_alpha(g1, g2) -> float:
    """Closed-form weight on g1 minimizing ||a*g1 + (1-a)*g2||^2 over a in [0, 1].

    a* = ((g2 - g1)^T g2) / ||g1 - g2||^2, clipped to [0, 1]; identical (or
    both-zero) gradients are degenerate and give 0.5. Reference oracle for the
    two-objective case of the Frank-Wolfe solver.
    """
    v1 = as_vector(g1, "g1")
    v2 = as_vector(g2, "g2")
    if v1.shape != v2.shape:
        raise ValueError(f"length mismatch: {v1.shape[0]} vs {v2.shape[0]}")
    diff = v1 - v2
    denom = float(diff @ diff)
    if denom == 0.0:
        return 0.5
    alpha = float(-(diff @ v2) / denom)
    return min(1.0, max(0.0, alpha))


def dominates(a, b) -> bool:
    """True iff objective vector ``a`` is no worse everywhere and better somewhere."""
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape != vb.shape:
        raise ValueError(f"length mismatch: {va.shape[0]} vs {vb.shape[0]}")
    return bool(np.all(va <= vb) and np.any(va < vb))


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, the count set to 2 for the test and
    restored after it."""
    controls = numerics._blas_thread_controls()
    if controls is None:
        pytest.skip("numpy is not linked against a recognised OpenBLAS")
    get, set_ = controls
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.fixture
def float64_chain(monkeypatch):
    """The pair chains of ``objectives`` in float64 (``CHAIN_DTYPE``), for a
    test that pins values or finite differences to float64 roundoff."""
    monkeypatch.setattr(objectives, "CHAIN_DTYPE", np.float64)
