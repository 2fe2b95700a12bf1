"""Ingestion and preprocessing of MovieLens-style rating logs.

Raw (user, item, rating, timestamp) records plus optional user/item attribute
tables are filtered to implicit positive feedback, remapped to dense ids,
split chronologically per user, and turned into the group membership masks
the fairness objectives and metrics consume.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

POSITIVE_RATING = 4.0
MIN_ITEM_RATINGS = 5
MIN_USER_RATINGS = 10
TRAIN_FRACTION = 0.7
VAL_FRACTION = 0.1
POPULARITY_GROUPS = 5

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = ("train", "val", "test")

# Upper bounds (inclusive) of the seven age brackets; the last is open-ended.
AGE_UPPER_BOUNDS = (17, 24, 34, 44, 49, 55)
NUM_AGE_GROUPS = len(AGE_UPPER_BOUNDS) + 1

GENDER_LABELS = ("F", "M")

# Genre flag columns of the ML100k item file, in file order. The leading
# "unknown" flag is a placeholder, not a genre, and is dropped from the mask.
ML100K_GENRE_COLUMNS = (
    "unknown", "Action", "Adventure", "Animation", "Children's", "Comedy",
    "Crime", "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror",
    "Musical", "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)

FORMATS = ("ml100k", "ml1m", "generic_tsv")


class DataFormatError(ValueError):
    """Malformed input file; the message carries file path and line number."""


class EmptyDatasetError(ValueError):
    """No interactions survive ingestion or filtering."""


def age_group(age: int) -> int:
    """0-based index of the age bracket containing ``age``."""
    for idx, upper in enumerate(AGE_UPPER_BOUNDS):
        if age <= upper:
            return idx
    return NUM_AGE_GROUPS - 1


@dataclass
class RawRatings:
    """Parsed rating records plus whatever attribute tables the format provides.

    ``user_gender``/``user_age`` map original user ids to attribute values
    (missing/unparsable values are simply absent); they are None when the
    format supplies no user attribute file at all. ``item_genres`` maps
    original item ids to tuples of indices into ``genre_names``.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray
    user_gender: dict | None = None
    user_age: dict | None = None
    item_genres: dict | None = None
    genre_names: tuple = ()

    @property
    def num_records(self) -> int:
        return self.users.shape[0]

    @property
    def num_users(self) -> int:
        return int(np.unique(self.users).shape[0]) if self.num_records else 0

    @property
    def num_items(self) -> int:
        return int(np.unique(self.items).shape[0]) if self.num_records else 0


@dataclass
class InteractionDataset:
    """Filtered implicit-feedback interactions with per-user chronological splits.

    Ids are dense and 0-based; ``user_ids``/``item_ids`` give the original id
    of each dense index. Interactions are stored sorted by (user, timestamp,
    item) with a split tag per row.
    """

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    split: np.ndarray
    user_ids: np.ndarray
    item_ids: np.ndarray
    _train_lists: list | None = field(default=None, repr=False)
    _train_complements: list | None = field(default=None, repr=False)
    _train_membership: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_interactions(self) -> int:
        return self.users.shape[0]

    @property
    def density(self) -> float:
        return self.num_interactions / float(self.num_users * self.num_items)

    def split_pairs(self, split: int) -> tuple[np.ndarray, np.ndarray]:
        mask = self.split == split
        return self.users[mask], self.items[mask]

    def train_positive_lists(self) -> list:
        """Per-user sorted, de-duplicated int64 arrays of train-split items
        (cached): one sort of the (user, item) pair codes, split by user."""
        if self._train_lists is None:
            users, items = self.split_pairs(TRAIN)
            codes = np.unique(users.astype(np.int64) * self.num_items + items)
            starts = np.searchsorted(codes, np.arange(1, self.num_users, dtype=np.int64)
                                     * self.num_items)
            self._train_lists = np.split(codes % self.num_items, starts)
        return self._train_lists

    def train_membership(self) -> np.ndarray:
        """Boolean (num_users, num_items) matrix of train-split positives (cached)."""
        if self._train_membership is None:
            matrix = np.zeros((self.num_users, self.num_items), dtype=bool)
            mask = self.split == TRAIN
            matrix[self.users[mask], self.items[mask]] = True
            self._train_membership = matrix
        return self._train_membership

    def train_complement_lists(self) -> list:
        """Per-user sorted arrays of items that are not train positives (cached)."""
        if self._train_complements is None:
            catalog = np.arange(self.num_items, dtype=np.int64)
            keep = np.ones(self.num_items, dtype=bool)
            complements = []
            for positives in self.train_positive_lists():
                keep[positives] = False
                complements.append(catalog[keep])
                keep[positives] = True
            self._train_complements = complements
        return self._train_complements


@dataclass
class GroupMaskSet:
    """Binary group membership over users (gender, age) and items (popularity, genre).

    User masks may be None when the source data carried no attribute table.
    Popularity rows are ordered most- to least-popular (labels 5 down to 1).
    Genre columns may hold multiple ones: an item belongs to each of its genres.
    """

    gender: np.ndarray | None = None
    age: np.ndarray | None = None
    popularity: np.ndarray | None = None
    genre: np.ndarray | None = None
    genre_names: tuple = ()

    def mask_for(self, name: str) -> np.ndarray | None:
        return getattr(self, name)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _parse_ratings_file(path: str, sep: str, encoding: str = "utf-8") -> tuple:
    users, items, ratings, stamps = [], [], [], []
    with open(path, encoding=encoding) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) < 4:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 4 fields separated by {sep!r}, "
                    f"got {len(parts)}"
                )
            try:
                users.append(int(parts[0]))
                items.append(int(parts[1]))
                ratings.append(float(parts[2]))
                stamps.append(int(float(parts[3])))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return (
        np.asarray(users, dtype=np.int64),
        np.asarray(items, dtype=np.int64),
        np.asarray(ratings, dtype=np.float64),
        np.asarray(stamps, dtype=np.int64),
    )


def _parse_user_attributes(path: str, sep: str, gender_col: int, age_col: int,
                           encoding: str = "utf-8") -> tuple[dict, dict]:
    gender, age = {}, {}
    with open(path, encoding=encoding) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) <= max(gender_col, age_col):
                raise DataFormatError(
                    f"{path}:{lineno}: expected at least "
                    f"{max(gender_col, age_col) + 1} fields"
                )
            try:
                uid = int(parts[0])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            g = parts[gender_col].strip().upper()
            if g in GENDER_LABELS:
                gender[uid] = g
            try:
                age[uid] = int(parts[age_col])
            except ValueError:
                pass
    return gender, age


def _parse_ml100k_items(path: str) -> tuple[dict, tuple]:
    names = ML100K_GENRE_COLUMNS[1:]  # drop the "unknown" placeholder
    genres = {}
    n_flags = len(ML100K_GENRE_COLUMNS)
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("|")
            if len(parts) < 5 + n_flags:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {5 + n_flags} pipe-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                iid = int(parts[0])
                flags = [int(v) for v in parts[5:5 + n_flags]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            genres[iid] = tuple(k - 1 for k, v in enumerate(flags) if v and k > 0)
    return genres, tuple(names)


def _parse_genre_items(path: str, sep: str, genre_col: int,
                       encoding: str) -> tuple[dict, tuple]:
    """Item id (first field) to genre indices, from a ``|``-joined genre list
    in field ``genre_col``; genre names are indexed in sorted order."""
    raw = {}
    with open(path, encoding=encoding) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) <= genre_col:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {genre_col + 1} fields separated "
                    f"by {sep!r}, got {len(parts)}"
                )
            try:
                iid = int(parts[0])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            raw[iid] = tuple(g for g in parts[genre_col].split("|") if g)
    ordered = tuple(sorted({g for names in raw.values() for g in names}))
    index = {name: k for k, name in enumerate(ordered)}
    genres = {iid: tuple(index[g] for g in names) for iid, names in raw.items()}
    return genres, ordered


def ingest(path: str, fmt: str) -> RawRatings:
    """Parse a rating log (and attribute files when present) at ``path``.

    ml100k: directory with u.data (tab-separated) and pipe-separated
        u.user / u.item attribute files.
    ml1m: directory with '::'-separated ratings.dat / users.dat / movies.dat.
    generic_tsv: a ratings TSV file ``user item rating timestamp`` (or a
        directory containing ratings.tsv), with optional users.tsv
        (``user gender age``) and items.tsv (``item genre|genre|...``)
        alongside.

    Attribute files that are absent set the corresponding tables to None;
    fairness objectives that need them become unavailable downstream.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    raw = RawRatings(
        users=np.empty(0, dtype=np.int64),
        items=np.empty(0, dtype=np.int64),
        ratings=np.empty(0, dtype=np.float64),
        timestamps=np.empty(0, dtype=np.int64),
    )
    if fmt == "ml100k":
        ratings_path = os.path.join(path, "u.data")
        if not os.path.exists(ratings_path):
            raise FileNotFoundError(f"ratings file not found: {ratings_path}")
        raw.users, raw.items, raw.ratings, raw.timestamps = _parse_ratings_file(
            ratings_path, "\t"
        )
        user_path = os.path.join(path, "u.user")
        if os.path.exists(user_path):
            raw.user_gender, raw.user_age = _parse_user_attributes(
                user_path, "|", gender_col=2, age_col=1, encoding="latin-1"
            )
        item_path = os.path.join(path, "u.item")
        if os.path.exists(item_path):
            raw.item_genres, raw.genre_names = _parse_ml100k_items(item_path)
    elif fmt == "ml1m":
        ratings_path = os.path.join(path, "ratings.dat")
        if not os.path.exists(ratings_path):
            raise FileNotFoundError(f"ratings file not found: {ratings_path}")
        raw.users, raw.items, raw.ratings, raw.timestamps = _parse_ratings_file(
            ratings_path, "::", encoding="latin-1"
        )
        user_path = os.path.join(path, "users.dat")
        if os.path.exists(user_path):
            raw.user_gender, raw.user_age = _parse_user_attributes(
                user_path, "::", gender_col=1, age_col=2, encoding="latin-1"
            )
        item_path = os.path.join(path, "movies.dat")
        if os.path.exists(item_path):
            raw.item_genres, raw.genre_names = _parse_genre_items(
                item_path, "::", genre_col=2, encoding="latin-1"
            )
    else:  # generic_tsv
        if os.path.isdir(path):
            ratings_path = os.path.join(path, "ratings.tsv")
            base = path
        else:
            ratings_path = path
            base = os.path.dirname(path)
        if not os.path.exists(ratings_path):
            raise FileNotFoundError(f"ratings file not found: {ratings_path}")
        raw.users, raw.items, raw.ratings, raw.timestamps = _parse_ratings_file(
            ratings_path, "\t"
        )
        user_path = os.path.join(base, "users.tsv")
        if os.path.exists(user_path):
            raw.user_gender, raw.user_age = _parse_user_attributes(
                user_path, "\t", gender_col=1, age_col=2
            )
        item_path = os.path.join(base, "items.tsv")
        if os.path.exists(item_path):
            raw.item_genres, raw.genre_names = _parse_genre_items(
                item_path, "\t", genre_col=1, encoding="utf-8"
            )
    if raw.user_gender is None:
        logger.info("no user attribute file found; gender/age objectives unavailable")
    return raw


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def preprocess(raw: RawRatings) -> InteractionDataset:
    """Filter to implicit positives, remap ids densely, split chronologically.

    Ratings >= 4 become positive feedback. Items with fewer than 5 remaining
    ratings are dropped first, then users with fewer than 10 (single pass, in
    that order). Per user, interactions sorted by (timestamp, item) are tagged
    70% train / 10% val / remainder test, with train and val counts floored so
    the test split is never empty for users at the size threshold.
    """
    positive = raw.ratings >= POSITIVE_RATING
    users = raw.users[positive]
    items = raw.items[positive]
    stamps = raw.timestamps[positive]

    item_vals, item_counts = np.unique(items, return_counts=True)
    mask = item_counts[np.searchsorted(item_vals, items)] >= MIN_ITEM_RATINGS
    users, items, stamps = users[mask], items[mask], stamps[mask]

    user_vals, user_counts = np.unique(users, return_counts=True)
    mask = user_counts[np.searchsorted(user_vals, users)] >= MIN_USER_RATINGS
    users, items, stamps = users[mask], items[mask], stamps[mask]

    if users.shape[0] == 0:
        raise EmptyDatasetError("no interactions remain after filtering")

    # dense id = position among the sorted original ids
    user_ids = np.unique(users)
    item_ids = np.unique(items)
    dense_users = np.searchsorted(user_ids, users).astype(np.int64, copy=False)
    dense_items = np.searchsorted(item_ids, items).astype(np.int64, copy=False)

    order = np.lexsort((dense_items, stamps, dense_users))
    dense_users = dense_users[order]
    dense_items = dense_items[order]
    stamps = stamps[order]

    split = np.empty(dense_users.shape[0], dtype=np.int8)
    boundaries = np.flatnonzero(np.diff(dense_users)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [dense_users.shape[0]]))
    for s, e in zip(starts, ends):
        count = e - s
        n_train = int(np.floor(TRAIN_FRACTION * count))
        n_val = int(np.floor(VAL_FRACTION * count))
        split[s:s + n_train] = TRAIN
        split[s + n_train:s + n_train + n_val] = VAL
        split[s + n_train + n_val:e] = TEST

    return InteractionDataset(
        num_users=user_ids.shape[0],
        num_items=item_ids.shape[0],
        users=dense_users,
        items=dense_items,
        timestamps=stamps,
        split=split,
        user_ids=user_ids,
        item_ids=item_ids,
    )


# ---------------------------------------------------------------------------
# group masks
# ---------------------------------------------------------------------------

def build_masks(dataset: InteractionDataset, raw: RawRatings) -> GroupMaskSet:
    """Build all group membership masks available from the raw attributes.

    Popularity quintiles come from train-split occurrence counts sorted
    descending (ties broken by dense item id ascending); when the catalog size
    is not divisible by five, the extra items go to the most popular groups.
    Users with unknown gender or age are excluded from those masks entirely.
    """
    masks = GroupMaskSet()

    if raw.user_gender is not None:
        gender = np.zeros((2, dataset.num_users), dtype=np.int8)
        unknown = 0
        for k, orig in enumerate(dataset.user_ids):
            g = raw.user_gender.get(int(orig))
            if g == "F":
                gender[0, k] = 1
            elif g == "M":
                gender[1, k] = 1
            else:
                unknown += 1
        if unknown:
            logger.warning(
                "%d users have unknown gender and are excluded from the gender mask",
                unknown,
            )
        masks.gender = gender

    if raw.user_age is not None:
        age = np.zeros((NUM_AGE_GROUPS, dataset.num_users), dtype=np.int8)
        unknown = 0
        for k, orig in enumerate(dataset.user_ids):
            a = raw.user_age.get(int(orig))
            if a is None:
                unknown += 1
            else:
                age[age_group(int(a)), k] = 1
        if unknown:
            logger.warning(
                "%d users have unknown age and are excluded from the age mask",
                unknown,
            )
        masks.age = age

    masks.popularity = popularity_mask(dataset)

    if raw.item_genres is not None:
        g = len(raw.genre_names)
        genre = np.zeros((g, dataset.num_items), dtype=np.int8)
        for k, orig in enumerate(dataset.item_ids):
            for gi in raw.item_genres.get(int(orig), ()):
                genre[gi, k] = 1
        masks.genre = genre
        masks.genre_names = tuple(raw.genre_names)

    return masks


def popularity_mask(dataset: InteractionDataset,
                    groups: int = POPULARITY_GROUPS) -> np.ndarray:
    """Partition items into equal-size popularity groups by train-split counts.

    Row 0 holds the most popular items (label 5 of 5); sizes differ by at
    most one, with the larger groups at the popular end.
    """
    counts = np.zeros(dataset.num_items, dtype=np.int64)
    train_mask = dataset.split == TRAIN
    np.add.at(counts, dataset.items[train_mask], 1)
    order = np.lexsort((np.arange(dataset.num_items), -counts))
    base, extra = divmod(dataset.num_items, groups)
    mask = np.zeros((groups, dataset.num_items), dtype=np.int8)
    pos = 0
    for row in range(groups):
        size = base + (1 if row < extra else 0)
        mask[row, order[pos:pos + size]] = 1
        pos += size
    return mask


# ---------------------------------------------------------------------------
# bundle serialization
# ---------------------------------------------------------------------------

def save_bundle(directory: str, dataset: InteractionDataset, masks: GroupMaskSet) -> None:
    """Write the preprocessed dataset and masks as a CSV bundle directory."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "interactions.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "item", "timestamp", "split"])
        for u, i, ts, sp in zip(dataset.users, dataset.items,
                                dataset.timestamps, dataset.split):
            writer.writerow([int(u), int(i), int(ts), SPLIT_NAMES[sp]])
    np.savetxt(os.path.join(directory, "user_ids.csv"), dataset.user_ids, fmt="%d")
    np.savetxt(os.path.join(directory, "item_ids.csv"), dataset.item_ids, fmt="%d")
    for name in ("gender", "age", "popularity", "genre"):
        mask = masks.mask_for(name)
        if mask is not None:
            np.savetxt(os.path.join(directory, f"mask_{name}.csv"), mask,
                       fmt="%d", delimiter=",")
    if masks.genre_names:
        with open(os.path.join(directory, "genre_names.txt"), "w") as fh:
            fh.write("\n".join(masks.genre_names) + "\n")
    with open(os.path.join(directory, "stats.txt"), "w") as fh:
        fh.write(f"users = {dataset.num_users}\n")
        fh.write(f"items = {dataset.num_items}\n")
        fh.write(f"interactions = {dataset.num_interactions}\n")
        fh.write(f"density = {dataset.density:.6g}\n")


def load_bundle(directory: str) -> tuple[InteractionDataset, GroupMaskSet]:
    """Read a bundle written by ``save_bundle``."""
    path = os.path.join(directory, "interactions.csv")
    if not os.path.exists(path):
        raise FileNotFoundError(f"bundle interactions file not found: {path}")
    users, items, stamps, split = [], [], [], []
    split_index = {name: k for k, name in enumerate(SPLIT_NAMES)}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["user", "item", "timestamp", "split"]:
            raise DataFormatError(f"{path}:1: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                users.append(int(row[0]))
                items.append(int(row[1]))
                stamps.append(int(row[2]))
                split.append(split_index[row[3]])
            except (ValueError, KeyError, IndexError) as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    user_ids = np.loadtxt(os.path.join(directory, "user_ids.csv"),
                          dtype=np.int64, ndmin=1)
    item_ids = np.loadtxt(os.path.join(directory, "item_ids.csv"),
                          dtype=np.int64, ndmin=1)
    dataset = InteractionDataset(
        num_users=user_ids.shape[0],
        num_items=item_ids.shape[0],
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        timestamps=np.asarray(stamps, dtype=np.int64),
        split=np.asarray(split, dtype=np.int8),
        user_ids=user_ids,
        item_ids=item_ids,
    )
    masks = GroupMaskSet()
    for name in ("gender", "age", "popularity", "genre"):
        mpath = os.path.join(directory, f"mask_{name}.csv")
        if os.path.exists(mpath):
            setattr(masks, name, np.loadtxt(mpath, dtype=np.int8,
                                            delimiter=",", ndmin=2))
    npath = os.path.join(directory, "genre_names.txt")
    if os.path.exists(npath):
        with open(npath) as fh:
            masks.genre_names = tuple(line.strip() for line in fh if line.strip())
    return dataset, masks
