"""Seeded MovieLens-format rating logs for the benchmark workloads.

Writes ml100k-format (u.data, u.user, u.item) or ml1m-format (ratings.dat,
users.dat, movies.dat) files shaped like the public datasets. User activity
and item popularity are heavy-tailed. Each user has a latent taste vector
shifted by gender and age group, each item a latent profile from which its
genres follow, and a user picks items by popularity times taste affinity, so
the logs carry learnable, group-dependent signal. The same seed always gives
byte-identical files.

Run as ``python3 perfbench/gen.py --format ml100k --seed 0 --out DIR``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
from statistics import NormalDist

import numpy as np

SHAPES = {
    # users, items, ratings, share of ratings >= 4, median ratings per user
    "ml100k": dict(users=943, items=1682, ratings=100_000, positive_share=0.55,
                   median_activity=65),
    "ml1m": dict(users=6040, items=3706, ratings=1_000_209, positive_share=0.58,
                 median_activity=96),
}

FILES = {
    "ml100k": ("u.data", "u.user", "u.item"),
    "ml1m": ("ratings.dat", "users.dat", "movies.dat"),
}

MIN_ACTIVITY = 20
LATENT_DIM = 8
TASTE_SCALE = 1.5
GENRES = ("Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
          "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
          "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western")
# ML-1M age codes and their shares; ml100k draws an exact age inside the bracket.
AGE_CODES = (1, 18, 25, 35, 45, 50, 56)
AGE_SHARES = (0.04, 0.18, 0.35, 0.20, 0.09, 0.08, 0.06)
AGE_SPANS = ((7, 17), (18, 24), (25, 34), (35, 44), (45, 49), (50, 55), (56, 73))
MALE_SHARE = 0.71
# Group taste shifts have fixed lengths and cancel across groups, so the
# strength of the planted signal does not depend on the seed.
GENDER_SHIFT = 0.7
AGE_SHIFT = 0.5
RATING_SHARES = (0.06, 0.11)  # shares of 1- and 2-star ratings
FIVE_STAR_SHARE = 0.22
EPOCH_START = 874_724_710  # first timestamp of the public ML-100k log
SPAN_SECONDS = 3 * 365 * 86_400
CHUNK_USERS = 256


def _activity(gen, n_users, total, median):
    """Ratings per user: lognormal quantiles around the median, at least
    MIN_ACTIVITY, dealt to users in random order.

    The quantiles are fixed, so every seed gives the same activity
    distribution and only which user gets which count changes.
    """
    normal = NormalDist()
    z = np.asarray([normal.inv_cdf((k + 0.5) / n_users) for k in range(n_users)])
    raw = np.exp(np.log(median - MIN_ACTIVITY / 2) + z)
    counts = MIN_ACTIVITY + raw * (total - MIN_ACTIVITY * n_users) / raw.sum()
    counts = np.floor(counts).astype(np.int64)
    counts[n_users - (total - counts.sum()):] += 1
    return counts[gen.permutation(n_users)]


def _unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def generate(fmt: str, seed: int):
    """All columns of one log: ratings, user attributes and item genres."""
    shape = SHAPES[fmt]
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n_users, n_items = shape["users"], shape["items"]

    male = gen.random(n_users) < MALE_SHARE
    age_bracket = gen.choice(len(AGE_CODES), size=n_users, p=AGE_SHARES)
    gender_shift = GENDER_SHIFT * np.outer([1.0, -1.0],
                                           _unit_rows(gen.normal(0.0, 1.0, LATENT_DIM)))
    age_shift = gen.normal(0.0, 1.0, (len(AGE_CODES), LATENT_DIM))
    age_shift = AGE_SHIFT * _unit_rows(age_shift - age_shift.mean(axis=0))
    taste = (gen.normal(0.0, 1.0, (n_users, LATENT_DIM))
             + gender_shift[male.astype(np.int64)] + age_shift[age_bracket])
    profile = gen.normal(0.0, 1.0 / np.sqrt(LATENT_DIM), (n_items, LATENT_DIM))
    log_pop = -1.1 * np.log(gen.permutation(n_items) + 8.0)

    genre_logits = profile @ gen.normal(0.0, 2.0, (LATENT_DIM, len(GENRES)))
    genre_logits += np.log(np.linspace(1.0, 0.1, len(GENRES)))
    main_genre = np.argmax(genre_logits + gen.gumbel(size=genre_logits.shape), axis=1)
    genre_flags = gen.random((n_items, len(GENRES))) < 0.08
    genre_flags[np.arange(n_items), main_genre] = True

    counts = _activity(gen, n_users, shape["ratings"], shape["median_activity"])
    counts = np.minimum(counts, n_items // 2)
    users, items, affinity = [], [], []
    for start in range(0, n_users, CHUNK_USERS):
        rows = slice(start, min(start + CHUNK_USERS, n_users))
        score = TASTE_SCALE * (taste[rows] @ profile.T)
        keys = log_pop[None, :] + score + gen.gumbel(size=score.shape)
        order = np.argsort(-keys, axis=1, kind="stable")
        for offset, user in enumerate(range(rows.start, rows.stop)):
            chosen = order[offset, : counts[user]]
            users.append(np.full(chosen.shape[0], user, dtype=np.int64))
            items.append(chosen)
            affinity.append(score[offset, chosen])
    users = np.concatenate(users)
    items = np.concatenate(items)
    affinity = np.concatenate(affinity)

    latent = affinity + 0.3 * log_pop[items] + gen.normal(0.0, 1.0, affinity.shape[0])
    lo = np.cumsum(RATING_SHARES)
    cuts = np.quantile(latent, [lo[0], lo[1], 1.0 - shape["positive_share"],
                                1.0 - FIVE_STAR_SHARE])
    ratings = 1 + np.searchsorted(cuts, latent, side="right")

    start = EPOCH_START + gen.integers(0, SPAN_SECONDS, n_users)
    gaps = gen.integers(1, 86_400, users.shape[0])
    order = np.lexsort((gen.random(users.shape[0]), users))
    users, items, ratings = users[order], items[order], ratings[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(users, minlength=n_users))))
    stamps = np.cumsum(gaps)
    stamps -= np.repeat(stamps[bounds[:-1]] - gaps[bounds[:-1]], np.diff(bounds))
    stamps += np.repeat(start, np.diff(bounds))

    age_lo = np.asarray([span[0] for span in AGE_SPANS])
    age_hi = np.asarray([span[1] for span in AGE_SPANS])
    exact_age = gen.integers(age_lo[age_bracket], age_hi[age_bracket] + 1)
    return dict(users=users, items=items, ratings=ratings, stamps=stamps, male=male,
                age_bracket=age_bracket, exact_age=exact_age, genres=genre_flags,
                shuffle=gen.permutation(users.shape[0]))


def _write_ml100k(cols, out):
    table = np.column_stack([cols["users"] + 1, cols["items"] + 1,
                             cols["ratings"], cols["stamps"]])[cols["shuffle"]]
    np.savetxt(os.path.join(out, "u.data"), table, fmt="%d\t%d\t%d\t%d")
    with open(os.path.join(out, "u.user"), "w", encoding="latin-1", newline="\n") as fh:
        for u, (is_male, age) in enumerate(zip(cols["male"], cols["exact_age"])):
            fh.write(f"{u + 1}|{age}|{'M' if is_male else 'F'}|other|{10000 + u:05d}\n")
    with open(os.path.join(out, "u.item"), "w", encoding="latin-1", newline="\n") as fh:
        for i, flags in enumerate(cols["genres"]):
            bits = "|".join(["0"] + [str(int(f)) for f in flags])
            fh.write(f"{i + 1}|Movie {i + 1} (1995)|01-Jan-1995||http://x/{i + 1}|{bits}\n")


def _write_ml1m(cols, out):
    table = np.column_stack([cols["users"] + 1, cols["items"] + 1,
                             cols["ratings"], cols["stamps"]])
    np.savetxt(os.path.join(out, "ratings.dat"), table, fmt="%d::%d::%d::%d")
    with open(os.path.join(out, "users.dat"), "w", encoding="latin-1", newline="\n") as fh:
        for u, (is_male, bracket) in enumerate(zip(cols["male"], cols["age_bracket"])):
            fh.write(f"{u + 1}::{'M' if is_male else 'F'}::{AGE_CODES[bracket]}"
                     f"::0::{10000 + u:05d}\n")
    with open(os.path.join(out, "movies.dat"), "w", encoding="latin-1", newline="\n") as fh:
        for i, flags in enumerate(cols["genres"]):
            names = "|".join(GENRES[g] for g in np.flatnonzero(flags))
            fh.write(f"{i + 1}::Movie {i + 1} (1995)::{names}\n")


def files_digest(fmt: str, directory: str) -> str:
    """SHA-256 over the format's files, in a fixed order."""
    digest = hashlib.sha256()
    for name in FILES[fmt]:
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def write(fmt: str, seed: int, out: str) -> str:
    """Generate the log into ``out`` (replaced atomically); returns its digest."""
    tmp = f"{out}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cols = generate(fmt, seed)
    (_write_ml100k if fmt == "ml100k" else _write_ml1m)(cols, tmp)
    digest = files_digest(fmt, tmp)
    with open(os.path.join(tmp, "SHA256"), "w") as fh:
        fh.write(digest + "\n")
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    return digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(write(args.format, args.seed, args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
