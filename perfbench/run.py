"""moofair benchmark: raw rating files -> prepared bundle -> training -> metrics.

Run from the repository root:

    python3 perfbench/run.py --workload mgda5-ml100k --seed 0 --seconds 8 --trace 0

The seed generates the workload's raw files (cached under perfbench/.cache by
format, seed and generator version). The run then goes through the public
entry points a user calls: ``data.ingest -> preprocess -> build_masks ->
save_bundle -> load_bundle`` (set-up), ``training.train_round +
model.save_checkpoint`` (repeated until ``--seconds`` of training time) and
``model.load_checkpoint + metrics.evaluate``, each repeated and reported as
the median of its repeats. It checks the outputs, prints every metric by name
and unit, and ends with one JSON line. ``--trace 1`` reports the per-layer
metrics instead, from a run whose calls into each layer are wrapped with
spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import Patches, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, ".out")
MAX_THREADS = 2
MIN_REPEATS = 3
IDENTITY_TOL = 1e-10
SIMPLEX_TOL = 1e-9
EVAL_K = (10, 20)


def pin_threads() -> int:
    """Cap the BLAS pools at min(MAX_THREADS, usable CPUs); numpy not yet loaded."""
    threads = max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def raw_files(fmt: str, seed: int) -> tuple[str, str]:
    """Directory and digest of the generated raw files, generating on a miss.

    Generation runs in a child process so its memory stays out of this
    process's peak RSS.
    """
    with open(os.path.join(HERE, "gen.py"), "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()[:12]
    out = os.path.join(CACHE, f"{fmt}-s{seed}-{version}")
    digest_path = os.path.join(out, "SHA256")
    if not os.path.exists(digest_path):
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--format", fmt,
                        "--seed", str(seed), "--out", out],
                       check=True, stdout=subprocess.DEVNULL)
    with open(digest_path) as fh:
        return out, fh.read().strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "moofair", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def train_config(training, pinned: dict):
    """TrainConfig from the pinned fields; reports fields pinned or not."""
    fields = {f.name for f in dataclasses.fields(training.TrainConfig)}
    unknown = sorted(set(pinned) - fields)
    unpinned = sorted(fields - set(pinned))
    if unknown:
        print(f"note: TrainConfig no longer has {unknown}; dropped")
    if unpinned:
        print(f"note: TrainConfig fields {unpinned} are not pinned; defaults used")
    return training.TrainConfig(**{k: v for k, v in pinned.items() if k in fields})


class Bench:
    """One workload run: the phases a user runs, each timed."""

    def __init__(self, mods, workload, raw_dir, work_dir, config):
        self.data, self.model, self.training, self.metrics = mods
        self.workload = workload
        self.raw_dir = raw_dir
        self.bundle_dir = os.path.join(work_dir, "bundle")
        self.ckpt_dir = os.path.join(work_dir, "checkpoint")
        self.config = config
        self.attempted = 0

    def setup(self):
        """ingest -> preprocess -> build_masks -> save_bundle -> load_bundle."""
        self.attempted += 1
        start = time.perf_counter()
        raw = self.data.ingest(self.raw_dir, self.workload.fmt)
        dataset = self.data.preprocess(raw)
        masks = self.data.build_masks(dataset, raw)
        self.data.save_bundle(self.bundle_dir, dataset, masks)
        del raw, dataset, masks
        loaded = self.data.load_bundle(self.bundle_dir)
        return time.perf_counter() - start, loaded

    def train(self, dataset, masks):
        """train_round + save_checkpoint; returns (seconds, RoundResult, pairs trained)."""
        self.attempted += 1
        sizes = []

        def count_pairs(func):
            def wrapper(*args, **kwargs):
                batch = func(*args, **kwargs)
                sizes.append(batch.size)
                return batch
            return wrapper

        with Patches() as patches:
            patches.replace("moofair.training:attach_negatives", count_pairs)
            start = time.perf_counter()
            result = self.training.train_round(dataset, masks, self.config)
            self.model.save_checkpoint(result.model, self.ckpt_dir,
                                       {"seed": self.config.seed,
                                        "epoch": result.best_epoch, "round": 1})
            elapsed = time.perf_counter() - start
        # one alpha row per training batch; the final-value batches come after
        pairs = sum(sizes[:len(result.trace.entries)])
        return elapsed, result, pairs

    def evaluate(self, dataset, masks):
        """load_checkpoint + evaluate at k = 10, 20."""
        self.attempted += 1
        start = time.perf_counter()
        model, _ = self.model.load_checkpoint(self.ckpt_dir)
        rows = self.metrics.evaluate(model, dataset, masks, k_values=EVAL_K,
                                     patience=self.config.exposure_patience,
                                     label=self.workload.name)
        return time.perf_counter() - start, rows


def epochs_run(result) -> int:
    return len({entry[0] for entry in result.trace.entries})


def fingerprint(result, rows) -> dict:
    """Numbers a speed-up must leave unchanged (to IDENTITY_TOL)."""
    at_k = next(r for r in rows if r["k"] == 20)
    alpha = [entry[2] for entry in result.trace.entries]
    return {
        "objective_values": [float(v) for v in result.record.objective_values],
        "mean_alpha": [float(v) for v in sum(alpha) / len(alpha)],
        "eval_at_20": {k: (None if v is None else float(v))
                       for k, v in at_k.items() if k not in ("model", "k")},
    }


def _flat(fp: dict) -> list:
    return (fp["objective_values"] + fp["mean_alpha"]
            + [v for v in fp["eval_at_20"].values()])


def same(a: dict, b: dict) -> bool:
    va, vb = _flat(a), _flat(b)
    if len(va) != len(vb):
        return False
    for x, y in zip(va, vb):
        if (x is None) != (y is None):
            return False
        if x is not None and abs(x - y) > IDENTITY_TOL * max(1.0, abs(x), abs(y)):
            return False
    return True


def check_outputs(result, rows, pairs, n_train_pairs) -> list[str]:
    """Correctness of one trained round and its evaluation; returns failures."""
    import numpy as np

    failures = []
    values = np.asarray(result.record.objective_values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        failures.append(f"non-finite objective values {values.tolist()}")
    alpha = np.asarray([entry[2] for entry in result.trace.entries])
    if alpha.size == 0 or np.any(alpha < 0.0) or np.any(
            np.abs(alpha.sum(axis=1) - 1.0) > SIMPLEX_TOL):
        failures.append("an alpha row is negative or does not sum to 1")
    for row in rows:
        for key in ("recall", "ndcg"):
            if not 0.0 <= row[key] <= 1.0:
                failures.append(f"{key}@{row['k']} = {row[key]} outside [0, 1]")
    expected = epochs_run(result) * n_train_pairs
    if pairs != expected:
        failures.append(f"trained {pairs} pairs, expected epochs x train pairs = {expected}")
    return failures


def check_identity(store_key: str, fp: dict) -> list[str]:
    """Compare with the fingerprint an earlier run of this code, workload and
    seed stored; store it when none exists."""
    path = os.path.join(CACHE, "fingerprints", store_key + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
        if not same(stored, fp):
            return [f"results differ from an earlier identical run ({path})"]
        return []
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(fp, fh)
    os.replace(tmp, path)
    return []


def run_untraced(bench, seconds: float):
    """Set-up, then training until ``seconds``, then set-up and evaluation
    alternating for another ``seconds`` (at least MIN_REPEATS of each).

    Each metric is the median of its repeats. Machine speed on a shared host
    drifts over tens of seconds, so the repeats are spread over the run.
    """
    setup_times, eval_times, rates, fingerprints, failures = [], [], [], [], []
    elapsed, (dataset, masks) = bench.setup()
    setup_times.append(elapsed)
    n_train_pairs = int(dataset.split_pairs(bench.data.TRAIN)[0].shape[0])

    spent = 0.0
    while not rates or spent < seconds:
        if rates:  # empty lazy caches, as in a new process
            dataset, masks = bench.data.load_bundle(bench.bundle_dir)
        elapsed, result, pairs = bench.train(dataset, masks)
        spent += elapsed
        rates.append(epochs_run(result) * n_train_pairs / elapsed)
        elapsed, rows = bench.evaluate(dataset, masks)
        eval_times.append(elapsed)
        failures += check_outputs(result, rows, pairs, n_train_pairs)
        fingerprints.append(fingerprint(result, rows))

    spent = 0.0
    while (spent < seconds or len(setup_times) < MIN_REPEATS
           or len(eval_times) < MIN_REPEATS):
        elapsed = bench.setup()[0]
        setup_times.append(elapsed)
        spent += elapsed
        elapsed, rows = bench.evaluate(dataset, masks)
        eval_times.append(elapsed)
        spent += elapsed
        fingerprints.append(fingerprint(result, rows))
    if any(not same(fingerprints[0], fp) for fp in fingerprints[1:]):
        failures.append("repeated train/eval runs in this process disagree")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_pairs_per_s": (statistics.median(rates), "pairs/s"),
        "eval_s": (statistics.median(eval_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "final_loss_bpr": (fingerprints[0]["objective_values"][0], "loss"),
    }
    at_20 = fingerprints[0]["eval_at_20"]
    quality = {
        "recall_at_20": (at_20["recall"], "ratio"),
        "ndcg_at_20": (at_20["ndcg"], "ratio"),
        "disparity_u_at_20": (at_20["disparity_u"], "ratio"),
        "disparity_i_at_20": (at_20["disparity_i"], "ratio"),
    }
    samples = {"setup_s": setup_times, "eval_s": eval_times, "train_pairs_per_s": rates}
    return metrics, quality, samples, fingerprints[0], failures


def run_traced(bench):
    import layers

    # untraced reference for the tracing overhead
    _, (dataset, masks) = bench.setup()
    n_train_pairs = int(dataset.split_pairs(bench.data.TRAIN)[0].shape[0])
    elapsed, result, pairs = bench.train(dataset, masks)
    untraced_rate = epochs_run(result) * n_train_pairs / elapsed
    _, rows = bench.evaluate(dataset, masks)
    failures = check_outputs(result, rows, pairs, n_train_pairs)
    reference = fingerprint(result, rows)
    del dataset, masks, result

    tracer = Tracer()
    with tracer:
        layers.install(tracer, getattr(bench.training, "ZERO_GRAD_TOL", 1e-10))
        _, (dataset, masks) = bench.setup()
        elapsed, result, _ = bench.train(dataset, masks)
        _, rows = bench.evaluate(dataset, masks)
    traced_rate = epochs_run(result) * n_train_pairs / elapsed
    fp = fingerprint(result, rows)
    if not same(reference, fp):
        failures.append("the traced run's results differ from the untraced run's")
    overhead = 100.0 * (untraced_rate / traced_rate - 1.0)
    return layers.per_layer(tracer, overhead), tracer, fp, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="moofair benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()
    if not os.path.isdir(os.path.join(ROOT, "src", "moofair")):
        print(f"error: moofair sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from moofair import data, metrics, model, training

    workload = WORKLOADS[args.workload]
    raw_dir, raw_digest = raw_files(workload.fmt, args.seed)
    config = train_config(training, dict(workload.config, seed=args.seed))
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    bench = Bench((data, model, training, metrics), workload, raw_dir, work_dir, config)
    try:
        if args.trace:
            metrics_out, tracer, fp, failures = run_traced(bench)
            quality, samples = {}, {}
        else:
            metrics_out, quality, samples, fp, failures = run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    store_key = hashlib.sha256(json.dumps(
        [workload.name, repr(sorted(workload.config.items())), raw_digest,
         source_digest()]).encode()).hexdigest()[:16]
    failures += check_identity(f"{workload.name}-s{args.seed}-{store_key}", fp)

    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "blas_threads": threads, "raw_sha256": raw_digest,
        "config": dataclasses.asdict(config),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
        "quality": {k: {"value": v, "unit": u} for k, (v, u) in quality.items()},
        "samples": samples,
        "fingerprint": fp, "failures": failures,
    }
    if args.trace:
        report.update(tracer.to_json())
    os.makedirs(OUT, exist_ok=True)
    mode = "trace" if args.trace else "e2e"
    with open(os.path.join(OUT, f"BENCH_{workload.name}_s{args.seed}_{mode}.json"),
              "w") as fh:
        json.dump(report, fh, default=float)

    print(f"workload {workload.name}  seed {args.seed}  raw sha256 {raw_digest}  "
          f"blas threads {threads}")
    for name, (value, unit) in {**metrics_out, **quality}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown:>16s} {unit}")
    if args.trace:
        print(f"  absent names: {tracer.absent or 'none'}")
    print(f"  fingerprint: {json.dumps(fp)}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": bench.attempted,
        "failed": 0,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics_out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
