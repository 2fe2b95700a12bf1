"""Command-line front door: prepare, train, eval, grid.

Each command imports what it needs when it runs, so ``moofair --help`` and
usage errors answer without loading numpy; keep this module free of numpy
imports at load time.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import logging
import os
import sys
from dataclasses import fields, replace

LOCK_NAME = ".moofair.lock"
# weights on bpr that ``moofair grid`` trains by default
DEFAULT_GRID = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)


class CliError(Exception):
    """Fatal usage/input error; carries the process exit code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _coerce(key: str, value: str, default):
    """A config value or flag parsed like its TrainConfig field's default;
    objectives and weight lists are comma-separated."""
    try:
        if key == "objectives":
            return tuple(v.strip() for v in value.split(",") if v.strip())
        if key in ("fixed_weights", "--grid"):
            return tuple(float(v) for v in value.split(","))
        return type(default)(value)
    except ValueError as exc:
        raise CliError(f"{key} = {value!r}: {exc}") from None


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


class OutputLock:
    """A kernel lock (``flock``, so POSIX only) on a file in an output
    directory. The file holds its run's pid for people to read. The kernel
    drops the lock when the run's process ends, however it ends, so the file
    a killed run leaves blocks no later run. A clean exit removes the file."""

    def __init__(self, directory: str):
        try:
            os.makedirs(directory, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise CliError(f"output path is not a directory: {directory}") from None
        self.path = os.path.join(directory, LOCK_NAME)

    def __enter__(self):
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise CliError(
                    f"output directory is locked by another run: {self.path}", code=1
                ) from None
            except OSError as exc:
                os.close(fd)
                raise CliError(f"cannot lock {self.path}: {exc}") from None
            # a file its holder removed after this run opened it is unlinked,
            # and locking it excludes no one: open the path again
            with contextlib.suppress(FileNotFoundError):
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    break
            os.close(fd)
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        self.fd = fd
        return self

    def __exit__(self, *exc_info):
        # removed before it is unlocked: a run that locks it later finds the
        # path changed and opens it anew
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)
        os.close(self.fd)
        return False


def cmd_prepare(args) -> int:
    from .data import build_masks, ingest, preprocess, save_bundle

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
    from .data import atomic_open, write_csv
    from .model import save_checkpoint
    from .training import VALIDATION_K

    paths = []
    for result in results:
        round_id = result.record.round_id
        ckpt = os.path.join(out_dir, f"round_{round_id}")
        save_checkpoint(result.model, ckpt, {
            "seed": config.seed + round_id - 1,
            "epoch": result.best_epoch,
            "round": round_id,
        })
        write_csv(os.path.join(out_dir, f"alpha_trace_round_{round_id}.csv"),
                  ["epoch", "batch"] + [f"alpha_{o}" for o in config.objectives],
                  ([epoch, batch, *alpha] for epoch, batch, alpha in result.trace.entries))
        paths.append(ckpt)
    write_csv(os.path.join(out_dir, "rounds.csv"),
              ["round"] + [f"loss_{o}" for o in config.objectives]
              + [f"val_recall_at_{VALIDATION_K}", "fw_calls", "checkpoint"],
              ([result.record.round_id, *result.record.objective_values,
                result.val_recall, result.fw_calls, ckpt]
               for result, ckpt in zip(results, paths)))
    with atomic_open(os.path.join(out_dir, "selection.txt")) as fh:
        fh.write(f"selected_round = {selected.round_id}\n")
        fh.write(f"checkpoint = {os.path.join(out_dir, f'round_{selected.round_id}')}\n")


def _training_inputs(args, **flags):
    """TrainConfig from ``--config`` overridden by the flags given, and the
    bundle it trains on; a bad value, a missing mask or a bundle without
    train rows exits 2."""
    from .data import TRAIN, EmptyDatasetError, load_bundle
    from .training import TrainConfig

    values = parse_config_file(args.config) if args.config else {}
    flags.update(rounds=args.rounds, seed=args.seed, epochs_max=args.epochs,
                 objectives=_coerce("objectives", args.objectives, None)
                 if args.objectives else None)
    values.update({k: v for k, v in flags.items() if v is not None})
    try:
        config = TrainConfig(**values)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid training configuration: {exc}") from None
    dataset, masks = load_bundle(args.bundle)
    if dataset.split_pairs(TRAIN)[1].size == 0:
        raise EmptyDatasetError(f"bundle {args.bundle} has no train interactions")
    try:
        config.validate_masks(masks)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return config, dataset, masks


def cmd_train(args) -> int:
    from .training import run_pareto_rounds

    weights = _coerce("fixed_weights", args.weights, None) if args.weights else None
    config, dataset, masks = _training_inputs(args, fixed_weights=weights)
    with OutputLock(args.out):
        selected, results = run_pareto_rounds(dataset, masks, config)
        _emit_round_outputs(args.out, config, results, selected)
    print(f"trained {config.rounds} round(s); selected round {selected.round_id} "
          f"(outputs in {args.out})")
    return 0


def cmd_eval(args) -> int:
    from .data import load_bundle, write_csv
    from .metrics import METRIC_COLUMNS, CatalogTooSmallError, evaluate
    from .model import load_checkpoint

    try:
        k_values = tuple(int(k) for k in args.k.split(","))
    except ValueError:
        raise CliError(f"--k must be comma-separated integers, got {args.k!r}") from None
    if min(k_values) < 1:
        raise CliError(f"--k values must be >= 1, got {args.k!r}")
    if not 0.0 < args.patience < 1.0:
        raise CliError(f"--patience must be in (0, 1), got {args.patience!r}")
    dataset, masks = load_bundle(args.bundle)
    model, _ = load_checkpoint(args.checkpoint)
    if (model.num_users, model.num_items) != (dataset.num_users, dataset.num_items):
        raise CliError(f"checkpoint {args.checkpoint} has {model.num_users} users x "
                       f"{model.num_items} items, the bundle {dataset.num_users} x "
                       f"{dataset.num_items}")
    try:
        rows = evaluate(model, dataset, masks, k_values=k_values,
                        patience=args.patience, label=args.label,
                        disparity_user_variant=args.disparity_user)
    except CatalogTooSmallError as exc:
        raise CliError(f"--k: {exc}") from None
    write_csv(args.out, METRIC_COLUMNS, ([row[c] for c in METRIC_COLUMNS] for row in rows))
    print(f"wrote metrics for k in {list(k_values)} to {args.out}")
    return 0


def cmd_grid(args) -> int:
    """Fixed-weight rounds at each grid weight on bpr, then MGDA rounds; each model's
    recall@20 and 1 / its fairness objective's disparity@20 go to frontier.csv."""
    from .data import write_csv
    from .metrics import (CatalogTooSmallError, build_recommendations, disparity_item,
                          disparity_user, recall_at_k)
    from .model import FactorModel
    from .objectives import CONSUMER_OBJECTIVES
    from .training import run_pareto_rounds, train_round

    config, dataset, masks = _training_inputs(args)
    if len(config.objectives) != 2:
        raise CliError("grid search requires exactly two objectives")
    grid = _coerce("--grid", args.grid, None) if args.grid else DEFAULT_GRID
    try:
        grid_configs = [replace(config, fixed_weights=(w, 1 - w)) for w in grid]
    except ValueError as exc:
        raise CliError(f"--grid: {exc}") from None
    mgda = replace(config, fixed_weights=None)
    fairness = config.objectives[1]
    try:  # every model is ranked at depth 20: check the catalog before any training
        build_recommendations(FactorModel([[0.0]] * dataset.num_users,
                                          [[0.0]] * dataset.num_items), dataset, 20)
    except CatalogTooSmallError as exc:
        raise CliError(f"grid: {exc}") from None

    with OutputLock(args.out):
        models = [(w, train_round(dataset, masks, c).model)
                  for w, c in zip(grid, grid_configs)]
        selected, results = run_pareto_rounds(dataset, masks, mgda)
        _emit_round_outputs(args.out, mgda, results, selected)
        models += [("mgda", result.model) for result in results]
        frontier = []
        for weight, model in models:
            run = build_recommendations(model, dataset, 20)
            if fairness in CONSUMER_OBJECTIVES:
                disparity = disparity_user(run, masks, fairness)
            else:
                disparity = disparity_item(run, masks[fairness], config.exposure_patience)
            inv = None if disparity is None else 1.0 / disparity if disparity else float("inf")
            frontier.append([weight, recall_at_k(run), inv])
        path = os.path.join(args.out, "frontier.csv")
        write_csv(path, ["weight", "recall_at_20", "inv_disparity"], frontier)
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

    # the flags train and grid share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--bundle", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--config")
    run.add_argument("--objectives")
    run.add_argument("--rounds", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--epochs", type=int)

    train = sub.add_parser("train", parents=[run],
                           help="run multi-objective training rounds")
    train.add_argument("--weights", help="comma-separated weights, one per objective: "
                                         "selects fixed-weight training in place of MGDA")
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

    grid = sub.add_parser("grid", parents=[run],
                          help="fixed-weight grid versus learned weights")
    grid.add_argument("--grid", help="comma-separated weights on bpr, one round each")
    grid.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    from .data import DataFormatError, EmptyDatasetError

    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FileNotFoundError, DataFormatError, EmptyDatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
