"""Ingestion and preprocessing of MovieLens-style rating logs.

Raw (user, item, rating, timestamp) records plus optional user/item attribute
tables are filtered to implicit positive feedback, remapped to dense ids,
split chronologically per user, and turned into the group membership masks
the fairness objectives and metrics consume.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import os
import re
import warnings
import zipfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import sorted_distinct

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
    """No interactions survive ingestion or filtering, or none are in the
    split an operation needs."""


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

    @cached_property
    def num_users(self) -> int:
        return sorted_distinct(self.users).shape[0]

    @cached_property
    def num_items(self) -> int:
        return sorted_distinct(self.items).shape[0]


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
    _train_positives: tuple | None = field(default=None, repr=False)
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

    def train_positives(self) -> tuple[np.ndarray, np.ndarray]:
        """Train-split positives in compressed rows (cached): user u's sorted,
        de-duplicated int64 items are ``items[indptr[u]:indptr[u + 1]]``.
        One sort of the (user, item) pair codes; returns (indptr, items)."""
        if self._train_positives is None:
            users, items = self.split_pairs(TRAIN)
            codes = sorted_distinct(users.astype(np.int64) * self.num_items + items)
            indptr = np.searchsorted(codes, np.arange(self.num_users + 1, dtype=np.int64)
                                     * self.num_items)
            self._train_positives = indptr, codes % self.num_items
        return self._train_positives

    def train_positive_lists(self) -> list:
        """Per-user sorted, de-duplicated int64 arrays of train-split items:
        the rows of ``train_positives``."""
        indptr, items = self.train_positives()
        return np.split(items, indptr[1:-1])

    def train_membership(self) -> np.ndarray:
        """Boolean (num_users, num_items) matrix of train-split positives (cached)."""
        if self._train_membership is None:
            matrix = np.zeros((self.num_users, self.num_items), dtype=bool)
            mask = self.split == TRAIN
            matrix[self.users[mask], self.items[mask]] = True
            self._train_membership = matrix
        return self._train_membership

    def train_complement_lists(self) -> list:
        """Per-user sorted arrays of items that are not train positives.
        Training does not use them; the benchmark's traced run still wraps
        this method."""
        catalog = np.arange(self.num_items, dtype=np.int64)
        keep = np.ones(self.num_items, dtype=bool)
        complements = []
        for positives in self.train_positive_lists():
            keep[positives] = False
            complements.append(catalog[keep])
            keep[positives] = True
        return complements


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

READ_BLOCK = 1 << 20  # characters of a rating log converted to tabs at once

# the four leading fields of a rating line; the timestamp is read as a float
# and truncated toward zero, so "1.5e9" is a valid timestamp
RATING_FIELDS = np.dtype([("user", np.int64), ("item", np.int64),
                          ("rating", np.float64), ("timestamp", np.float64)])


def _load_rating_lines(source) -> np.ndarray:
    """Records of tab-separated rating lines (an iterable of lines) in one
    vectorised pass; ValueError on a line that does not parse or a timestamp
    that is not a finite 64-bit integer."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(source, dtype=RATING_FIELDS, delimiter="\t",
                          usecols=(0, 1, 2, 3), comments=None, ndmin=1)
    stamps = rows["timestamp"]
    bad = ~((stamps >= -2.0 ** 63) & (stamps < 2.0 ** 63))  # NaN fails both
    if np.any(bad):
        raise ValueError(f"timestamp {stamps[bad][0]} is not a finite 64-bit integer")
    return rows


def _tab_lines(fh, sep: str):
    """The lines of ``fh`` with ``sep`` made tabs; a tab-separated file as is.

    ``sep`` is replaced once per block of about ``READ_BLOCK`` characters,
    each block completed to its line end, and the block is split on "\\n"
    alone, as iterating ``fh`` splits it (``str.splitlines`` would also split
    on form feeds, "\\x85", "\\u2028" and others).
    """
    if sep == "\t":
        return fh
    blocks = iter(lambda: fh.read(READ_BLOCK) + fh.readline(), "")
    return (line for block in blocks for line in io.StringIO(block.replace(sep, "\t")))


def _parse_ratings_file(path: str, sep: str, encoding: str) -> tuple:
    """(users, items, ratings, timestamps) of a rating log with one
    ``sep``-separated record per non-empty line; fields past the fourth are
    ignored."""
    try:
        with open(path, encoding=encoding) as fh:
            rows = _load_rating_lines(_tab_lines(fh, sep))
    except ValueError as exc:
        raise _first_bad_line_error(path, sep, encoding, exc) from None
    return rows["user"], rows["item"], rows["rating"], rows["timestamp"].astype(np.int64)


def _first_bad_line_error(path: str, sep: str, encoding: str,
                          exc: ValueError) -> DataFormatError:
    """The error at ``file:line`` of the first line the vectorised parse
    rejects. numpy's row numbers do not reliably match file lines, so the line
    is found by bisecting the file's lines; this runs on the error path only."""
    with open(path, encoding=encoding) as fh:
        lines = list(_tab_lines(fh, sep))
    lo, hi = 0, len(lines)  # lines[:lo] parse, lines[lo:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _load_rating_lines(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    where = path
    try:
        _load_rating_lines(lines[lo:hi])
    except ValueError as line_exc:
        exc, where = line_exc, f"{path}:{lo + 1}"
    return DataFormatError(f"{where}: {re.sub(r' at row [0-9]+', '', str(exc))}")


def _attribute_rows(path: str, sep: str, fields: int, encoding: str):
    """(line number, integer id, fields) of each non-empty line of an attribute
    file whose first field is the id; DataFormatError at ``file:line`` on a
    line with fewer than ``fields`` fields or an id that is not an integer."""
    with open(path, encoding=encoding) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").rstrip("\r").split(sep)
            if parts == [""]:
                continue
            try:
                if len(parts) < fields:
                    raise ValueError(f"expected {fields} fields separated by {sep!r}, "
                                     f"got {len(parts)}")
                uid = int(parts[0])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            yield lineno, uid, parts


def _parse_user_attributes(path: str, sep: str, gender_col: int, age_col: int,
                           encoding: str) -> tuple[dict, dict]:
    gender, age = {}, {}
    for _, uid, parts in _attribute_rows(path, sep, max(gender_col, age_col) + 1,
                                         encoding):
        g = parts[gender_col].strip().upper()
        if g in GENDER_LABELS:
            gender[uid] = g
        with contextlib.suppress(ValueError):
            age[uid] = int(parts[age_col])
    return gender, age


def _parse_ml100k_items(path: str) -> tuple[dict, tuple]:
    genres = {}
    n_flags = len(ML100K_GENRE_COLUMNS)
    for lineno, iid, parts in _attribute_rows(path, "|", 5 + n_flags, "latin-1"):
        try:
            flags = [int(v) for v in parts[5:5 + n_flags]]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        genres[iid] = tuple(k - 1 for k, v in enumerate(flags) if v and k > 0)
    return genres, ML100K_GENRE_COLUMNS[1:]  # drop the "unknown" placeholder


def _parse_genre_items(path: str, sep: str, genre_col: int,
                       encoding: str) -> tuple[dict, tuple]:
    """Item id (first field) to genre indices, from a ``|``-joined genre list
    in field ``genre_col``; genre names are indexed in sorted order."""
    raw = {iid: tuple(g for g in parts[genre_col].split("|") if g)
           for _, iid, parts in _attribute_rows(path, sep, genre_col + 1, encoding)}
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

    The rating log is parsed in one vectorised ``np.loadtxt`` pass: a
    tab-separated log (ml100k, generic_tsv) is read straight from the open
    file, and only the '::' log of ml1m passes through ``_tab_lines``, which
    replaces its separator a block at a time. A malformed line is a
    DataFormatError naming ``file:line``. Attribute files that are absent set the corresponding
    tables to None; fairness objectives that need them become unavailable
    downstream.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    names = {"ml100k": ("u.data", "u.user", "u.item"),
             "ml1m": ("ratings.dat", "users.dat", "movies.dat"),
             "generic_tsv": ("ratings.tsv", "users.tsv", "items.tsv")}[fmt]
    if fmt == "generic_tsv" and not os.path.isdir(path):
        path, ratings_name = os.path.split(path)
        names = (ratings_name,) + names[1:]
    ratings_path, user_path, item_path = (os.path.join(path, name) for name in names)
    if not os.path.exists(ratings_path):
        raise FileNotFoundError(f"ratings file not found: {ratings_path}")
    sep, encoding = ("::", "latin-1") if fmt == "ml1m" else ("\t", "utf-8")
    raw = RawRatings(*_parse_ratings_file(ratings_path, sep, encoding))
    if os.path.exists(user_path):
        raw.user_gender, raw.user_age = (
            _parse_user_attributes(user_path, "|", 2, 1, "latin-1") if fmt == "ml100k"
            else _parse_user_attributes(user_path, sep, 1, 2, encoding))
    if os.path.exists(item_path):
        raw.item_genres, raw.genre_names = (
            _parse_ml100k_items(item_path) if fmt == "ml100k"
            else _parse_genre_items(item_path, sep, 2 if fmt == "ml1m" else 1, encoding))
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

    Each filter counts its id column with one ``np.unique`` and narrows one
    mask of surviving records; dense ids number the surviving ids in sorted
    order by a cumulative sum over the kept codes. Rows are ordered by an
    argsort of the timestamps, then a stable (radix) argsort of the dense users
    in their narrowest unsigned dtype, then by (item, record) within runs of
    equal (user, timestamp): the order of a stable lexsort.
    """
    kept = raw.ratings >= POSITIVE_RATING  # the records that survive so far
    item_vals, item_codes, counts = np.unique(raw.items[kept], return_inverse=True,
                                              return_counts=True)
    keep = (counts >= MIN_ITEM_RATINGS)[item_codes]
    kept[kept] = keep
    item_codes = item_codes[keep]
    user_vals, user_codes, counts = np.unique(raw.users[kept], return_inverse=True,
                                              return_counts=True)
    user_kept = counts >= MIN_USER_RATINGS
    keep = user_kept[user_codes]
    kept[kept] = keep
    user_codes, item_codes = user_codes[keep], item_codes[keep]
    del keep
    if user_codes.shape[0] == 0:
        raise EmptyDatasetError("no interactions remain after filtering")
    stamps = raw.timestamps[kept]
    del kept

    # dense id = position among the sorted surviving original ids
    user_ids = user_vals[user_kept]
    users = (np.cumsum(user_kept) - 1).astype(
        np.min_scalar_type(user_ids.shape[0] - 1))[user_codes]
    del user_codes
    present = np.zeros(item_vals.shape[0], dtype=bool)
    present[item_codes] = True
    item_ids = item_vals[present]
    items = (np.cumsum(present) - 1)[item_codes]
    del item_codes

    order = np.argsort(stamps)
    order = order[np.argsort(users[order], kind="stable")]
    users, items, stamps = users[order], items[order], stamps[order]
    # the rows in runs of two or more equal (user, timestamp), re-sorted by
    # (item, record) within their run
    starts = np.insert((users[1:] != users[:-1]) | (stamps[1:] != stamps[:-1]), 0, True)
    at = np.flatnonzero(~(starts & np.append(starts[1:], True)))
    order = order[at]
    items[at] = items[at][np.lexsort((order, items[at], np.cumsum(starts[at])))]
    del order, starts, at
    users = users.astype(np.int64)

    # each user's rows run train, then val, then test
    counts = counts[user_kept]
    n_train = np.floor(TRAIN_FRACTION * counts).astype(np.int64)
    n_val = np.floor(VAL_FRACTION * counts).astype(np.int64)
    split = np.repeat(np.tile(np.array([TRAIN, VAL, TEST], dtype=np.int8), counts.shape[0]),
                      np.stack([n_train, n_val, counts - n_train - n_val], axis=1).ravel())

    return InteractionDataset(
        num_users=user_ids.shape[0],
        num_items=item_ids.shape[0],
        users=users,
        items=items,
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
    users = dataset.user_ids.tolist()
    # row of each user's attribute value, -1 when it is unknown
    for name, table, size, rows_of in (
            ("gender", raw.user_gender, len(GENDER_LABELS),
             lambda values: [GENDER_LABELS.index(g) if g in GENDER_LABELS else -1
                             for g in values]),
            ("age", raw.user_age, NUM_AGE_GROUPS,
             lambda values: np.where([a is None for a in values], -1, np.searchsorted(
                 AGE_UPPER_BOUNDS, [0 if a is None else int(a) for a in values])))):
        if table is None:
            continue
        rows = np.asarray(rows_of([table.get(u) for u in users]), dtype=np.int64)
        known = np.flatnonzero(rows >= 0)
        mask = np.zeros((size, dataset.num_users), dtype=np.int8)
        mask[rows[known], known] = 1
        if known.shape[0] < len(users):
            logger.warning("%d users have unknown %s and are excluded from the %s mask",
                           len(users) - known.shape[0], name, name)
        setattr(masks, name, mask)

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


def popularity_mask(dataset: InteractionDataset) -> np.ndarray:
    """Partition items into ``POPULARITY_GROUPS`` equal-size popularity groups
    by train-split counts.

    Row 0 holds the most popular items (label 5 of 5); sizes differ by at
    most one, with the larger groups at the popular end.
    """
    counts = np.bincount(dataset.items[dataset.split == TRAIN],
                         minlength=dataset.num_items)
    order = np.lexsort((np.arange(dataset.num_items), -counts))
    base, extra = divmod(dataset.num_items, POPULARITY_GROUPS)
    sizes = base + (np.arange(POPULARITY_GROUPS) < extra)
    mask = np.zeros((POPULARITY_GROUPS, dataset.num_items), dtype=np.int8)
    mask[np.repeat(np.arange(POPULARITY_GROUPS), sizes), order] = 1
    return mask


# ---------------------------------------------------------------------------
# bundle serialization
# ---------------------------------------------------------------------------

BUNDLE_FILE = "bundle.npz"
MASK_NAMES = ("gender", "age", "popularity", "genre")

# bundle.npz entries: (dtype, dimensions, required)
BUNDLE_ARRAYS = {
    "users": ("int64", 1, True), "items": ("int64", 1, True),
    "timestamps": ("int64", 1, True), "split": ("int8", 1, True),
    "user_ids": ("int64", 1, True), "item_ids": ("int64", 1, True),
    **{f"mask_{name}": ("int8", 2, False) for name in MASK_NAMES},
    "genre_names": ("U", 1, False),  # unicode of any width
}


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", newline: str | None = None):
    """A file opened under a temporary name beside ``path`` and renamed over
    ``path`` once written: a write that fails part way leaves no file under
    ``path`` (an older one stays as it was)."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_csv(path: str, header, rows) -> None:
    """Write ``header`` and ``rows`` with the csv module, atomically; float
    cells with six significant digits, None cells empty."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.6g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def save_npz(path: str, arrays: dict) -> None:
    """Write ``arrays`` as an uncompressed .npz, atomically. Its zip entries
    carry zipfile's fixed default date, so equal arrays give equal bytes."""
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_npz(path: str, spec: dict, legacy_file: str, command: str) -> dict:
    """The arrays of a .npz written by ``save_npz``, each checked against its
    ``spec`` entry (dtype, dimensions, required); absent optional arrays are
    left out.

    A missing file is FileNotFoundError, or a DataFormatError asking to re-run
    ``moofair <command>`` when ``legacy_file``, the CSV of an earlier version,
    is there instead. Unreadable files and arrays off their spec are
    DataFormatErrors naming the file and the key.
    """
    if not os.path.exists(path):
        directory = os.path.dirname(path)
        if os.path.exists(os.path.join(directory, legacy_file)):
            raise DataFormatError(
                f"{directory} holds CSV files of an earlier version; re-run "
                f"`moofair {command}` to write {os.path.basename(path)}")
        raise FileNotFoundError(f"not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in spec if key in archive.files}
    except (OSError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataFormatError(f"{path}: not a readable .npz archive: {exc}") from None
    for key, (dtype, ndim, required) in spec.items():
        value = arrays.get(key)
        if value is None:
            if required:
                raise DataFormatError(f"{path}: missing array {key!r}")
        elif not np.issubdtype(value.dtype, dtype) or value.ndim != ndim:
            raise DataFormatError(f"{path}: array {key!r} is {value.ndim}-D "
                                  f"{value.dtype}, expected {ndim}-D {dtype}")
    return arrays


def save_bundle(directory: str, dataset: InteractionDataset, masks: GroupMaskSet) -> None:
    """Write the preprocessed dataset and masks to ``directory``.

    ``bundle.npz`` holds the interaction arrays (split as int8 codes TRAIN,
    VAL, TEST), ``user_ids``/``item_ids``, each available mask as
    ``mask_<name>`` and ``genre_names``; ``stats.txt`` is a human-readable
    summary. Each file is written atomically.
    """
    os.makedirs(directory, exist_ok=True)
    arrays = {"users": dataset.users, "items": dataset.items,
              "timestamps": dataset.timestamps, "split": dataset.split,
              "user_ids": dataset.user_ids, "item_ids": dataset.item_ids}
    for name in MASK_NAMES:
        if masks.mask_for(name) is not None:
            arrays[f"mask_{name}"] = masks.mask_for(name)
    if masks.genre_names:
        arrays["genre_names"] = np.array(masks.genre_names, dtype=str)
    save_npz(os.path.join(directory, BUNDLE_FILE), arrays)
    with atomic_open(os.path.join(directory, "stats.txt")) as fh:
        fh.write(f"users = {dataset.num_users}\n")
        fh.write(f"items = {dataset.num_items}\n")
        fh.write(f"interactions = {dataset.num_interactions}\n")
        fh.write(f"density = {dataset.density:.6g}\n")


def load_bundle(directory: str) -> tuple[InteractionDataset, GroupMaskSet]:
    """Read a bundle written by ``save_bundle``, checking that its arrays
    agree: equal lengths, split codes in {TRAIN, VAL, TEST}, dense ids inside
    ``user_ids``/``item_ids`` and mask widths matching them."""
    path = os.path.join(directory, BUNDLE_FILE)
    arrays = load_npz(path, BUNDLE_ARRAYS, "interactions.csv", "prepare")
    num_users, num_items = arrays["user_ids"].shape[0], arrays["item_ids"].shape[0]
    count = arrays["users"].shape[0]
    for key, limit in (("users", num_users), ("items", num_items),
                       ("timestamps", None), ("split", len(SPLIT_NAMES))):
        values = arrays[key]
        if values.shape[0] != count:
            raise DataFormatError(f"{path}: array {key!r} has {values.shape[0]} "
                                  f"entries, 'users' has {count}")
        if limit is not None and count and (values.min() < 0 or values.max() >= limit):
            raise DataFormatError(f"{path}: array {key!r} holds values outside "
                                  f"[0, {limit})")
    masks = GroupMaskSet()
    for name in MASK_NAMES:
        mask = arrays.get(f"mask_{name}")
        if mask is None:
            continue
        width = num_items if name in ("popularity", "genre") else num_users
        if mask.shape[1] != width:
            raise DataFormatError(f"{path}: array 'mask_{name}' has {mask.shape[1]} "
                                  f"columns, expected {width}")
        setattr(masks, name, mask)
    masks.genre_names = tuple(arrays.get("genre_names", np.array([])).tolist())
    if masks.genre is not None and len(masks.genre_names) != masks.genre.shape[0]:
        raise DataFormatError(f"{path}: array 'genre_names' has {len(masks.genre_names)} "
                              f"names for {masks.genre.shape[0]} genre rows")
    dataset = InteractionDataset(num_users, num_items, *(arrays[key] for key in (
        "users", "items", "timestamps", "split", "user_ids", "item_ids")))
    return dataset, masks
