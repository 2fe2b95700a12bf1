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

from .numerics import run_starts, sorted_distinct

logger = logging.getLogger(__name__)

POSITIVE_RATING = 4.0
MIN_ITEM_RATINGS = 5
MIN_USER_RATINGS = 10
TRAIN_FRACTION = 0.7
VAL_FRACTION = 0.1
POPULARITY_GROUPS = 5

TRAIN, VAL, TEST = 0, 1, 2

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

    ``users``, ``items`` and ``timestamps`` are int64 and ``ratings`` float64.
    As ``ingest`` builds them, each is one contiguous array of exactly the
    records parsed, 32 bytes per record in all: the only copy of the log that
    set-up holds. ``user_gender``/``user_age`` map original user ids to
    attribute values (missing/unparsable values are simply absent); they are
    None when the format supplies no user attribute file at all.
    ``item_genres`` maps original item ids to tuples of indices into
    ``genre_names``.
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
    of each dense index. User u's split-s items, in time order, are
    ``items[indptr[3u + s]:indptr[3u + s + 1]]``: 8 bytes per interaction and
    24 per user, all int64. Only this module reads that layout;
    ``positives(split)`` holds a split's distinct pairs in the one form that
    training and evaluation read.
    """

    num_users: int
    num_items: int
    items: np.ndarray
    indptr: np.ndarray
    user_ids: np.ndarray
    item_ids: np.ndarray
    _positives: dict = field(default_factory=dict, repr=False)
    _train_membership: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_interactions(self) -> int:
        return self.items.shape[0]

    @property
    def density(self) -> float:
        return self.num_interactions / float(self.num_users * self.num_items)

    def split_pairs(self, split: int, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(users, items) of ``split``, or of splits ``split`` to ``stop - 1``,
        user by user in storage order. The rows are picked by a mask of 1 byte
        per row, where int64 positions would take 8."""
        sizes = np.diff(self.indptr).reshape(self.num_users, 3)
        picked = np.zeros(3, dtype=bool)
        picked[split:split + 1 if stop is None else stop] = True
        return (np.repeat(np.arange(self.num_users), sizes[:, picked].sum(axis=1)),
                self.items[np.repeat(np.tile(picked, self.num_users), sizes.ravel())])

    def positives(self, split: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct positives of ``split`` in compressed rows (cached per
        split): user u's sorted int64 items are ``items[indptr[u]:indptr[u + 1]]``.
        One sort of the (user, item) pair codes; returns (indptr, items)."""
        if split not in self._positives:
            users, items = self.split_pairs(split)
            codes = sorted_distinct(users.astype(np.int64) * self.num_items + items)
            indptr = np.searchsorted(codes, np.arange(self.num_users + 1, dtype=np.int64)
                                     * self.num_items)
            self._positives[split] = indptr, codes % self.num_items
        return self._positives[split]

    def train_membership(self) -> np.ndarray:
        """Train-split positives as a bitset (cached): uint8 (num_users,
        ceil(num_items / 8)) in ``np.packbits`` order, so item i of user u is
        bit ``128 >> i % 8`` of byte [u, i // 8]; the padding bits are 0."""
        if self._train_membership is None:
            users, items = self.split_pairs(TRAIN)
            width = (self.num_items + 7) // 8
            packed = np.zeros((self.num_users, width), dtype=np.uint8)
            # OR, not assignment: pairs share bytes, and a repeated pair sets its bit twice
            np.bitwise_or.at(packed.reshape(-1), users * width + (items >> 3),
                             (128 >> (items & 7)).astype(np.uint8))
            self._train_membership = packed
        return self._train_membership

    def train_complement_lists(self) -> list:
        """Per-user sorted arrays of items that are not train positives.
        Training does not use them; the benchmark's traced run still wraps
        this method."""
        catalog = np.arange(self.num_items, dtype=np.int64)
        keep = np.ones(self.num_items, dtype=bool)
        indptr, items = self.positives(TRAIN)
        complements = []
        for positives in np.split(items, indptr[1:-1]):
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

READ_BLOCK = 1 << 18  # characters of a rating log converted to tabs at once
PARSE_ROWS = 1 << 16  # rating lines parsed per np.loadtxt call

# the four leading fields of a rating line; the timestamp is read as a float
# and truncated toward zero, so "1.5e9" is a valid timestamp
RATING_FIELDS = np.dtype([("user", np.int64), ("item", np.int64),
                          ("rating", np.float64), ("timestamp", np.float64)])
# the dtypes of the four arrays that hold the parsed log
RAW_DTYPES = (np.int64, np.int64, np.float64, np.int64)


def _line_bound(path: str) -> int:
    """An upper bound on the lines that text mode reads from ``path``, which
    end at "\\n", "\\r\\n" or "\\r": one per "\\n" or "\\r" byte (each is
    one byte in UTF-8 and latin-1, and no other character holds it), plus an
    unterminated last line."""
    count = 1
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(READ_BLOCK), b""):
            codes = np.frombuffer(block, dtype=np.uint8)
            count += np.count_nonzero(codes == ord("\n")) + np.count_nonzero(codes == ord("\r"))
    return count


def _load_rating_lines(source, count: int) -> tuple:
    """(users, items, ratings, timestamps) of at most ``count`` tab-separated
    rating lines (an iterable of lines): ``np.loadtxt`` parses
    ``PARSE_ROWS`` lines at a time into four arrays of ``count`` rows, which
    are then cut to the rows parsed. ValueError on a line that does not parse
    or a timestamp that is not a finite 64-bit integer.

    Four arrays, not one record array: a quarter-size block fits more often
    into free space that a fragmented heap already holds, where one block of
    32 bytes per record (30 MiB at ML-1M shape) was often mapped anew on top
    of it."""
    fields = tuple(np.empty(count, dtype=dtype) for dtype in RAW_DTYPES)
    lines, done = iter(source), 0
    while True:
        with warnings.catch_warnings():
            # an empty block, or blank lines, which max_rows does not count
            warnings.filterwarnings("ignore",
                                    "(loadtxt: input|Input line [0-9]+) contained no data")
            rows = np.loadtxt(lines, dtype=RATING_FIELDS, delimiter="\t",
                              usecols=(0, 1, 2, 3), comments=None, ndmin=1,
                              max_rows=PARSE_ROWS)
        stamps = rows["timestamp"]
        bad = ~((stamps >= -2.0 ** 63) & (stamps < 2.0 ** 63))  # NaN fails both
        if np.any(bad):
            raise ValueError(f"timestamp {stamps[bad][0]} is not a finite 64-bit integer")
        for field, name in zip(fields, RATING_FIELDS.names):
            field[done:done + rows.shape[0]] = rows[name]  # timestamps truncate toward 0
        done += rows.shape[0]
        if rows.shape[0] < PARSE_ROWS:
            break
    for field in fields:
        field.resize(done, refcheck=False)  # in place: no view of it exists yet
    return fields


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
    count = _line_bound(path)
    try:
        with open(path, encoding=encoding) as fh:
            return _load_rating_lines(_tab_lines(fh, sep), count)
    except ValueError as exc:
        raise _first_bad_line_error(path, sep, encoding, exc) from None


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
            _load_rating_lines(lines[lo:mid], mid - lo)
            lo = mid
        except ValueError:
            hi = mid
    where = path
    try:
        _load_rating_lines(lines[lo:hi], hi - lo)
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

    The rating log is parsed by vectorised ``np.loadtxt`` calls: a
    tab-separated log (ml100k, generic_tsv) is read straight from the open
    file, and only the '::' log of ml1m passes through ``_tab_lines``, which
    replaces its separator a block at a time. A count of the file's line ends
    sizes the four ``RawRatings`` arrays, and ``np.loadtxt`` fills them
    ``PARSE_ROWS`` lines at a time (timestamps parsed as float64 and cast to
    int64), so set-up holds this one copy of the log, 32 bytes per record,
    plus one block of parsed lines. A malformed line is a DataFormatError
    naming ``file:line``. Attribute files that are absent set the corresponding
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

def _dense_codes(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted distinct values of ``ids``, the count of each, and the index of
    each id among the values, in the narrowest unsigned dtype), from one
    argsort: its permutation scatters the run number of each sorted id back
    to the id's position. Sorts ``ids`` in place."""
    order = np.argsort(ids)
    ids.sort()
    starts = run_starts(ids)
    values, counts = ids[starts], np.diff(starts, append=ids.shape[0])
    codes = np.empty(ids.shape[0], dtype=np.min_scalar_type(max(values.shape[0] - 1, 0)))
    codes[order] = np.repeat(np.arange(values.shape[0], dtype=codes.dtype), counts)
    return values, counts, codes


def preprocess(raw: RawRatings) -> InteractionDataset:
    """Filter to implicit positives, remap ids densely, split chronologically.

    Ratings >= 4 become positive feedback. Items with fewer than 5 remaining
    ratings are dropped first, then users with fewer than 10 (single pass, in
    that order). Per user, interactions sorted by (timestamp, item) are split
    70% train / 10% val / remainder test, with train and val counts floored so
    the test split is never empty for users at the size threshold.

    The raw arrays are only read, each through one mask of the records that
    survive so far. Each filter compacts its id column with ``_dense_codes``
    (one argsort and one in-place sort of the gathered column), which gives
    the distinct ids, their counts and each record's code in the narrowest
    unsigned dtype. Dense ids number the surviving ids in sorted order by a
    cumulative sum over the kept codes, and stay narrow until the rows are
    ordered. Rows are ordered by an argsort of the timestamps, then a stable
    (radix) argsort of the dense users, then by item within runs of equal
    (user, timestamp): the order of a lexsort. Each intermediate is dropped
    once used, so beside the raw arrays preprocessing holds at most about 28
    bytes per positive record (plus a 1-byte mask per record while
    filtering). Users and timestamps are dropped once the rows are in order:
    the dataset holds 8 bytes per interaction and 24 per user (its offsets).
    """
    kept = raw.ratings >= POSITIVE_RATING  # the records that survive so far
    item_vals, counts, item_codes = _dense_codes(raw.items[kept])
    keep = (counts >= MIN_ITEM_RATINGS)[item_codes]
    kept[kept] = keep
    item_codes = item_codes[keep]
    user_vals, counts, user_codes = _dense_codes(raw.users[kept])
    user_kept = counts >= MIN_USER_RATINGS
    keep = user_kept[user_codes]
    kept[kept] = keep
    user_codes = user_codes[keep]
    item_codes = item_codes[keep]
    del keep
    if user_codes.shape[0] == 0:
        raise EmptyDatasetError("no interactions remain after filtering")

    # dense id = position among the sorted surviving original ids
    user_ids = user_vals[user_kept]
    users = (np.cumsum(user_kept) - 1).astype(
        np.min_scalar_type(user_ids.shape[0] - 1))[user_codes]
    del user_codes
    present = np.zeros(item_vals.shape[0], dtype=bool)
    present[item_codes] = True
    item_ids = item_vals[present]
    items = (np.cumsum(present) - 1).astype(
        np.min_scalar_type(item_ids.shape[0] - 1))[item_codes]
    del item_codes

    stamps = raw.timestamps[kept]
    del kept
    order = np.argsort(stamps)
    stamps = stamps[order]
    users, items = users[order], items[order]
    order = np.argsort(users, kind="stable")
    stamps = stamps[order]
    users, items = users[order], items[order]
    del order
    # runs of two or more equal (user, timestamp) rows, re-sorted by item;
    # rows that also share the item are equal in every column
    starts = np.insert((users[1:] != users[:-1]) | (stamps[1:] != stamps[:-1]), 0, True)
    del users, stamps
    at = np.flatnonzero(~(starts & np.append(starts[1:], True)))
    items[at] = items[at][np.lexsort((items[at], np.cumsum(starts[at])))]
    del starts, at

    # each user's rows run train, then val, then test
    counts = counts[user_kept]
    n_train = np.floor(TRAIN_FRACTION * counts).astype(np.int64)
    n_val = np.floor(VAL_FRACTION * counts).astype(np.int64)
    indptr = np.cumsum(np.stack([n_train, n_val, counts - n_train - n_val], axis=1))
    return InteractionDataset(
        num_users=user_ids.shape[0],
        num_items=item_ids.shape[0],
        items=items.astype(np.int64),
        indptr=np.insert(indptr, 0, 0),
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
    counts = np.bincount(dataset.split_pairs(TRAIN)[1], minlength=dataset.num_items)
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

# bundle.npz entries: (dtype, dimensions, required); evaluation reads the
# popularity mask, which save_bundle always writes
BUNDLE_ARRAYS = {
    "items": ("int64", 1, True), "indptr": ("int64", 1, True),
    "user_ids": ("int64", 1, True), "item_ids": ("int64", 1, True),
    **{f"mask_{name}": ("int8", 2, name == "popularity") for name in MASK_NAMES},
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

    ``bundle.npz`` holds the dataset's ``items`` and ``indptr``,
    ``user_ids``/``item_ids``, each available mask as ``mask_<name>`` and
    ``genre_names``; ``stats.txt`` is a human-readable summary. Each file is
    written atomically.
    """
    os.makedirs(directory, exist_ok=True)
    arrays = {"items": dataset.items, "indptr": dataset.indptr,
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
    agree: ``indptr`` is 3 * len(user_ids) + 1 offsets rising from 0 to
    len(items), items are inside ``item_ids``, and mask widths match the ids
    with entries in {0, 1}."""
    path = os.path.join(directory, BUNDLE_FILE)
    arrays = load_npz(path, BUNDLE_ARRAYS, "interactions.csv", "prepare")
    num_users, num_items = arrays["user_ids"].shape[0], arrays["item_ids"].shape[0]
    items, indptr = arrays["items"], arrays["indptr"]
    if (indptr.shape[0] != 3 * num_users + 1 or indptr[0] != 0
            or np.any(indptr[1:] < indptr[:-1]) or indptr[-1] != items.shape[0]):
        raise DataFormatError(f"{path}: array 'indptr' is not {3 * num_users + 1} non-decreasing "
                              f"offsets from 0 to len('items') = {items.shape[0]}")
    if items.size and (items.min() < 0 or items.max() >= num_items):
        raise DataFormatError(f"{path}: array 'items' holds values outside [0, {num_items})")
    masks = GroupMaskSet()
    for name in MASK_NAMES:
        mask = arrays.get(f"mask_{name}")
        if mask is None:
            continue
        width = num_items if name in ("popularity", "genre") else num_users
        if mask.shape[1] != width:
            raise DataFormatError(f"{path}: array 'mask_{name}' has {mask.shape[1]} "
                                  f"columns, expected {width}")
        if mask.size and (mask.min() < 0 or mask.max() > 1):
            raise DataFormatError(f"{path}: array 'mask_{name}' holds values outside {{0, 1}}")
        setattr(masks, name, mask)
    masks.genre_names = tuple(arrays.get("genre_names", np.array([])).tolist())
    if masks.genre is not None and len(masks.genre_names) != masks.genre.shape[0]:
        raise DataFormatError(f"{path}: array 'genre_names' has {len(masks.genre_names)} "
                              f"names for {masks.genre.shape[0]} genre rows")
    dataset = InteractionDataset(num_users, num_items, items, indptr,
                                 arrays["user_ids"], arrays["item_ids"])
    return dataset, masks
