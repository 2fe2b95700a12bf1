"""Command-line front door: prepare, train, eval, grid.

Heavy imports happen after thread setup so MOOFAIR_THREADS can cap the BLAS
worker pools; keep this module free of numpy imports at load time.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields

logger = logging.getLogger(__name__)

LOCK_NAME = ".moofair.lock"

class CliError(Exception):
    """Fatal usage/input error; carries the process exit code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _coerce(key: str, value: str, default):
    """A config value parsed like its TrainConfig field's default; the two
    tuple fields take comma-separated lists."""
    try:
        if key == "objectives":
            return tuple(v.strip() for v in value.split(",") if v.strip())
        if key == "fixed_weights":
            return tuple(float(v) for v in value.split(","))
        return type(default)(value)
    except ValueError as exc:
        raise CliError(f"config key {key!r}: {exc}") from None


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` document; the keys are the TrainConfig fields."""
    from .training import TrainConfig

    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    defaults = {f.name: f.default for f in fields(TrainConfig)}
    values = {}
    problems = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                problems.append(f"{path}:{lineno}: expected 'key = value'")
                continue
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in defaults:
                problems.append(f"{path}:{lineno}: unknown key {key!r}")
                continue
            try:
                values[key] = _coerce(key, raw, defaults[key])
            except CliError as exc:
                problems.append(f"{path}:{lineno}: {exc}")
    if problems:
        raise CliError("invalid config file:\n  " + "\n  ".join(problems))
    return values


def build_train_config(file_values: dict, overrides: dict):
    from .training import TrainConfig

    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return TrainConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid training configuration: {exc}") from None


class OutputLock:
    """Exclusive-creation lock file guarding an output directory."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, LOCK_NAME)

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise CliError(
                f"output directory is locked by another run: {self.path}", code=1
            ) from None
        os.close(fd)
        return self

    def __exit__(self, *exc_info):
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass
        return False


def _setup_threads() -> None:
    limit = os.environ.get("MOOFAIR_THREADS")
    if not limit:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, limit)


def _require_dir(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise CliError(f"{what} not found: {path}")
    return path


def cmd_prepare(args) -> int:
    from .data import build_masks, ingest, preprocess, save_bundle

    _require_dir(args.input, "input path")
    raw = ingest(args.input, args.format)
    dataset = preprocess(raw)
    masks = build_masks(dataset, raw)
    with OutputLock(args.out):
        save_bundle(args.out, dataset, masks)
    print(f"prepared bundle at {args.out}: {raw.num_users} users, "
          f"{raw.num_items} items, {raw.num_records} raw records; "
          f"{dataset.num_users} users / {dataset.num_items} items / "
          f"{dataset.num_interactions} interactions after filtering "
          f"(density {dataset.density:.6g})")
    return 0


def _emit_round_outputs(out_dir: str, config, results, selected) -> None:
    import csv

    from .model import save_checkpoint

    paths = []
    for result in results:
        round_id = result.record.round_id
        ckpt = os.path.join(out_dir, f"round_{round_id}")
        save_checkpoint(result.model, ckpt, {
            "seed": config.seed + round_id - 1,
            "epoch": result.best_epoch,
            "round": round_id,
        })
        result.trace.to_csv(os.path.join(out_dir, f"alpha_trace_round_{round_id}.csv"))
        paths.append(ckpt)
    with open(os.path.join(out_dir, "rounds.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["round"] + [f"loss_{o}" for o in config.objectives]
            + [f"val_recall_at_{config.eval_k}", "fw_calls", "checkpoint"]
        )
        for result, ckpt in zip(results, paths):
            writer.writerow(
                [result.record.round_id]
                + [f"{v:.6g}" for v in result.record.objective_values]
                + [f"{result.val_recall:.6g}", result.fw_calls, ckpt]
            )
    with open(os.path.join(out_dir, "selection.txt"), "w") as fh:
        fh.write(f"selected_round = {selected.round_id}\n")
        fh.write(f"checkpoint = {os.path.join(out_dir, f'round_{selected.round_id}')}\n")


def cmd_train(args) -> int:
    from .data import load_bundle
    from .training import run_pareto_rounds

    _require_dir(args.bundle, "bundle directory")
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {
        "objectives": tuple(args.objectives.split(",")) if args.objectives else None,
        "mode": {"mgda": "mgda", "fixed": "fixed_weights", None: None}.get(
            args.mode, args.mode),
        "fixed_weights": tuple(float(w) for w in args.weights.split(","))
        if args.weights else None,
        "rounds": args.rounds,
        "seed": args.seed,
        "epochs_max": args.epochs,
    }
    config = build_train_config(file_values, overrides)
    dataset, masks = load_bundle(args.bundle)
    try:
        config.validate_masks(masks)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    with OutputLock(args.out):
        selected, results = run_pareto_rounds(dataset, masks, config)
        _emit_round_outputs(args.out, config, results, selected)
    print(f"trained {config.rounds} round(s); selected round {selected.round_id} "
          f"(outputs in {args.out})")
    return 0


def cmd_eval(args) -> int:
    from .data import load_bundle
    from .metrics import evaluate, write_metrics_csv
    from .model import load_checkpoint

    try:
        k_values = tuple(int(k) for k in args.k.split(","))
    except ValueError:
        raise CliError(f"--k must be comma-separated integers, got {args.k!r}") from None
    if min(k_values) < 1:
        raise CliError(f"--k values must be >= 1, got {args.k!r}")
    if not 0.0 < args.patience < 1.0:
        raise CliError(f"--patience must be in (0, 1), got {args.patience!r}")
    _require_dir(args.bundle, "bundle directory")
    _require_dir(args.checkpoint, "checkpoint directory")
    dataset, masks = load_bundle(args.bundle)
    try:
        model, _ = load_checkpoint(args.checkpoint)
    except FileNotFoundError as exc:
        raise CliError(str(exc)) from None
    rows = evaluate(model, dataset, masks, k_values=k_values,
                    patience=args.patience, label=args.label,
                    disparity_user_variant=args.disparity_user)
    write_metrics_csv(rows, args.out)
    print(f"wrote metrics for k in {list(k_values)} to {args.out}")
    return 0


def cmd_grid(args) -> int:
    import csv

    from .data import load_bundle
    from .metrics import evaluate
    from .objectives import CONSUMER_OBJECTIVES
    from .training import DEFAULT_GRID, grid_search, run_pareto_rounds

    _require_dir(args.bundle, "bundle directory")
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {
        "objectives": tuple(args.objectives.split(",")) if args.objectives else None,
        "rounds": args.rounds,
        "seed": args.seed,
        "epochs_max": args.epochs,
    }
    config = build_train_config(file_values, overrides)
    if config.num_objectives != 2:
        raise CliError("grid search requires exactly two objectives")
    dataset, masks = load_bundle(args.bundle)
    try:
        config.validate_masks(masks)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    grid = tuple(float(w) for w in args.grid.split(",")) if args.grid else None
    fairness = config.objectives[1]
    disparity_key = "disparity_u" if fairness in CONSUMER_OBJECTIVES else "disparity_i"

    def frontier_row(rows):
        at_k = next(r for r in rows if r["k"] == 20)
        disparity = at_k[disparity_key]
        inv = float("inf") if disparity == 0 else 1.0 / disparity
        return at_k["recall"], inv

    with OutputLock(args.out):
        points = grid_search(dataset, masks, config,
                             weight_grid=grid or DEFAULT_GRID)
        selected, results = run_pareto_rounds(dataset, masks, config)
        _emit_round_outputs(args.out, config, results, selected)
        path = os.path.join(args.out, "frontier.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["weight", "recall_at_20", "inv_disparity"])
            for weights, rows, _result in points:
                recall, inv = frontier_row(rows)
                writer.writerow([f"{weights[0]:g}", f"{recall:.6g}", f"{inv:.6g}"])
            for result in results:
                rows = evaluate(result.model, dataset, masks, k_values=(10, 20),
                                patience=config.exposure_patience,
                                label=f"mgda_{result.record.round_id}")
                recall, inv = frontier_row(rows)
                writer.writerow(["mgda", f"{recall:.6g}", f"{inv:.6g}"])
    print(f"wrote frontier comparison to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moofair",
        description="Fairness-aware recommendation training with "
                    "multi-objective Pareto optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prepare = sub.add_parser("prepare", help="ingest and preprocess a rating log")
    prepare.add_argument("--format", required=True,
                         choices=("ml100k", "ml1m", "generic_tsv"))
    prepare.add_argument("--in", dest="input", required=True)
    prepare.add_argument("--out", required=True)
    prepare.set_defaults(func=cmd_prepare)

    train = sub.add_parser("train", help="run multi-objective training rounds")
    train.add_argument("--bundle", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--config")
    train.add_argument("--objectives")
    train.add_argument("--mode", choices=("mgda", "fixed"))
    train.add_argument("--weights")
    train.add_argument("--rounds", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--epochs", type=int)
    train.set_defaults(func=cmd_train)

    evaluate_ = sub.add_parser("eval", help="compute the metrics table")
    evaluate_.add_argument("--bundle", required=True)
    evaluate_.add_argument("--checkpoint", required=True)
    evaluate_.add_argument("--out", required=True)
    evaluate_.add_argument("--k", default="10,20")
    evaluate_.add_argument("--patience", type=float, default=0.5)
    evaluate_.add_argument("--label", default="model")
    evaluate_.add_argument("--disparity-user", dest="disparity_user",
                           default="gender", choices=("gender", "age"))
    evaluate_.set_defaults(func=cmd_eval)

    grid = sub.add_parser("grid", help="fixed-weight grid versus learned weights")
    grid.add_argument("--bundle", required=True)
    grid.add_argument("--out", required=True)
    grid.add_argument("--config")
    grid.add_argument("--objectives")
    grid.add_argument("--grid")
    grid.add_argument("--rounds", type=int)
    grid.add_argument("--seed", type=int)
    grid.add_argument("--epochs", type=int)
    grid.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    _setup_threads()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
