"""Command-line entry point: dataset generation, training, gradient checks,
evaluation and sweeps, all driven by JSON config files.

Exit codes: 0 success, 1 runtime failure (a diverged run among them), 2
usage/validation error (unreadable config, dataset or checkpoint). Every
command is deterministic given its inputs and --seed; re-runs overwrite
byte-identical outputs apart from the summary timestamp and the wall-time
metrics column.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np

from .data import load_dataset, read_json, replace_text, save_dataset
from .harness import (
    ConfigError,
    METRICS_COLUMNS,
    TrainConfig,
    baseline_ce,
    build_dataset,
    check_view,
    csv_text,
    evaluate,
    load_checkpoint,
    metrics_row,
    run_experiment,
    run_experiments,
    summary,
    write_metrics_csv,
)

USAGE_ERROR = 2
RUNTIME_ERROR = 1
SWEEP_RESULTS = ["selected_epoch", "meta_accuracy", "test_accuracy", "final_test_accuracy"]


def _write_summary(path: str, body: dict) -> None:
    replace_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


def _make_dirs(path: str) -> None:
    """Create directory `path` and its parents; one that cannot be created
    (a file in the way) is a usage error naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create directory {path}: {e.strerror}") from e


def _check_fit(theta, view, dataset: str, checkpoint: str) -> None:
    """Refuse a dataset view whose feature or class count is not the checkpoint classifier's."""
    if (view.dims, view.n_classes) != (theta.in_dim, theta.out_dim):
        raise ConfigError(f"dataset {dataset} ({view.dims} features, {view.n_classes} classes) "
                          f"does not fit checkpoint {checkpoint} "
                          f"({theta.in_dim} features, {theta.out_dim} classes)")


def _load_config(args) -> TrainConfig:
    """The --config file, validated, then with --seed and
    --unlabeled-fraction applied when given."""
    raw = TrainConfig.from_dict(read_json(args.config, "config")).to_dict()
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "unlabeled_fraction", None) is not None:
        raw["train"]["unlabeled_fraction"] = args.unlabeled_fraction
    return TrainConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    if cfg.dataset_path is not None:
        raise ConfigError("gen-data always synthesises a dataset; "
                          f"drop data.path ({cfg.dataset_path}) from the config")
    if os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} is a directory; gen-data writes a file")
    parent = os.path.dirname(args.out)
    if parent:
        _make_dirs(parent)
    ds = build_dataset(cfg)
    save_dataset(ds, args.out)
    print(f"wrote {ds.n} rows ({ds.dims} dims, {ds.n_classes} classes) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    _make_dirs(args.out)
    metrics_path = os.path.join(args.out, "metrics.csv")
    checkpoint_path = os.path.join(args.out, "checkpoint.json")
    state = load_checkpoint(checkpoint_path, cfg) if args.resume else None
    view = build_dataset(cfg).view()  # for the run and the baseline; the Dataset goes
    if state is not None:
        _check_fit(state.theta, view, cfg.dataset_path or f"of {args.config}", checkpoint_path)
    check_view(cfg, view)  # before any output

    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        # already-logged epochs stay at the top of the metrics file
        fh.write(csv_text([METRICS_COLUMNS, *map(metrics_row, state.log if state else [])]))
        fh.flush()

        def on_epoch(row):
            fh.write(csv_text([metrics_row(row)]))
            fh.flush()

        st = run_experiment(cfg, view, checkpoint_path=checkpoint_path,
                            state=state, on_epoch=on_epoch)

    run = summary(cfg, st)
    _write_summary(os.path.join(args.out, "summary.json"),
                   {**run, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")})
    if args.baseline:
        base = baseline_ce(cfg, view)
        write_metrics_csv(base.log, os.path.join(args.out, "baseline_metrics.csv"))
        _write_summary(os.path.join(args.out, "baseline_summary.json"), summary(cfg, base))
    print(f"selected epoch {run['selected_epoch']}: "
          f"meta {run['meta_accuracy']:.4f}, test {run['test_accuracy']:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import gradcheck  # loads the autodiff engine, which only this command uses

    reports = gradcheck.run_all(trials=args.trials, seed=args.seed,
                                tolerance=args.tolerance,
                                corrupt_route=args.corrupt_route)
    for r in reports:
        print(r.line())
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(reports)} checks failed")
        return RUNTIME_ERROR
    print(f"all {len(reports)} checks passed")
    return 0


def cmd_eval(args) -> int:
    theta = load_checkpoint(args.checkpoint).theta_best
    view = load_dataset(args.dataset).view()
    _check_fit(theta, view, args.dataset, args.checkpoint)
    try:
        acc = evaluate(theta, view, args.split)
    except ValueError as e:  # a split with no rows to score
        raise ValueError(f"{args.dataset}: {e}") from e
    print(f"{acc:.6f}")
    return 0


def _set_dotted(d: dict, key: str, value) -> None:
    # keys absent from the base are created; TrainConfig.from_dict rejects
    # anything outside the schema afterwards
    parts = key.split(".")
    cur = d
    for p in parts[:-1]:
        if p in cur and not isinstance(cur[p], dict):
            raise ConfigError(f"sweep grid key {key!r} does not match the config layout")
        cur = cur.setdefault(p, {})
    cur[parts[-1]] = value


def _cell_id(overrides: list[tuple[str, object]]) -> str:
    parts = [f"{k}={json.dumps(v)}" for k, v in overrides]
    return "__".join(parts).replace("/", "_").replace(" ", "")


def _cell_config(base: dict, overrides: list[tuple[str, object]]) -> dict:
    raw = json.loads(json.dumps(base))
    for k, v in overrides:
        _set_dotted(raw, k, v)
    TrainConfig.from_dict(raw)  # every cell is validated before any runs
    return raw


def _run_cells(configs: list[dict], cells: list[list[tuple[str, object]]],
               out_dir: str) -> tuple[list[dict], list[tuple[int, int]]]:
    """Train the cells, compatible ones as lanes of one group, writing each
    cell's directory as soon as its group ends. A failure does not abort
    the sweep: a record's status is "ok" or the failure message. Also
    returns the lane groups trained, as (lanes, lanes rerun alone)."""
    cfgs = [TrainConfig.from_dict(raw) for raw in configs]
    groups: list[tuple[int, int]] = []

    def write(indices, outcomes, reran):
        groups.append((len(indices), reran))
        for i, st in zip(indices, outcomes):
            if isinstance(st, Exception):
                continue
            cell_dir = os.path.join(out_dir, _cell_id(cells[i]))
            os.makedirs(cell_dir, exist_ok=True)
            write_metrics_csv(st.log, os.path.join(cell_dir, "metrics.csv"))
            _write_summary(os.path.join(cell_dir, "summary.json"), summary(cfgs[i], st))

    records = []
    for cfg, overrides, st in zip(cfgs, cells, run_experiments(cfgs, on_group=write)):
        record = {"cell_id": _cell_id(overrides), **dict(overrides)}
        if isinstance(st, Exception):
            record["status"] = str(st) or type(st).__name__
        else:
            cell = summary(cfg, st)
            record.update({k: cell[k] for k in SWEEP_RESULTS}, status="ok")
        records.append(record)
    return records, groups


def _plural(n: int, word: str) -> str:
    return f"{n} {word}{'' if n == 1 else 's'}"


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    raw = read_json(args.config, "config")
    if not isinstance(raw, dict):
        raise ConfigError("sweep config must be a JSON object")
    unknown = set(raw) - {"schema_version", "base", "grid", "cells"}
    if unknown:
        raise ConfigError(f"unknown sweep config keys: {sorted(unknown)}")
    if raw.get("schema_version") != 1:
        raise ConfigError("sweep config requires schema_version = 1")
    base = raw.get("base", {"schema_version": 1})
    TrainConfig.from_dict(base)  # validate the base eagerly
    grid = raw.get("grid")
    explicit = raw.get("cells")
    if (grid is None) == (explicit is None):
        raise ConfigError("sweep config needs exactly one of 'grid' or 'cells'")
    if grid is not None:
        if not isinstance(grid, dict) or not grid:
            raise ConfigError("sweep grid must be a non-empty object")
        for key, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"sweep grid {key!r} must be a non-empty list of values")
        keys = sorted(grid)
        cells = [list(zip(keys, combo))
                 for combo in itertools.product(*(grid[k] for k in keys))]
    else:
        if not isinstance(explicit, list) or not explicit:
            raise ConfigError("sweep cells must be a non-empty list of override objects")
        keys_seen: set[str] = set()
        cells = []
        for i, c in enumerate(explicit):
            if not isinstance(c, dict):
                raise ConfigError(f"sweep cell {i} must be an object of overrides")
            cells.append(sorted(c.items()))
            keys_seen.update(c)
        keys = sorted(keys_seen)
    configs = [_cell_config(base, cell) for cell in cells]
    seen: dict[str, int] = {}
    for i, cell in enumerate(cells):
        j = seen.setdefault(_cell_id(cell), i)
        if j != i:
            raise ConfigError(f"sweep cells {j} and {i} map to the same directory "
                              f"{_cell_id(cell)!r}")
    _make_dirs(args.out)

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # --jobs contiguous chunks of the cells (sizes differ by at most
        # one; none empty), one per process
        cuts = sorted({k * len(cells) // args.jobs for k in range(args.jobs + 1)})
        spans = list(zip(cuts, cuts[1:]))
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            parts = list(pool.map(_run_cells, [configs[a:b] for a, b in spans],
                                  [cells[a:b] for a, b in spans], [args.out] * len(spans)))
    else:
        parts = [_run_cells(configs, cells, args.out)]
    records = [r for part, _ in parts for r in part]
    groups = [g for _, part in parts for g in part]

    sizes = "+".join(str(lanes) for lanes, _ in groups) or "0"
    print(f"{_plural(len(cells), 'cell')} in {_plural(len(groups), 'lane group')} "
          f"({sizes} {'lane' if sizes == '1' else 'lanes'}), "
          f"{_plural(sum(r for _, r in groups), 'lane')} reran solo")
    records.sort(key=lambda r: r["cell_id"])
    agg_path = os.path.join(args.out, "aggregate.csv")
    cols = ["cell_id"] + keys + SWEEP_RESULTS + ["status"]
    replace_text(agg_path, csv_text([cols] + [
        [repr(v) if isinstance(v, float) else v for v in (r.get(c, "") for c in cols)]
        for r in records]))
    print(f"{len(records)} cells -> {agg_path}")
    failed = [r for r in records if r["status"] != "ok"]
    for r in failed:
        print(f"cell {r['cell_id']} failed: {r['status']}", file=sys.stderr)
    return RUNTIME_ERROR if failed else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metalabel",
        description="Soft-label meta-training for noisy-label classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a dataset file from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run a full training experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--unlabeled-fraction", dest="unlabeled_fraction", type=float,
                   default=None, help="override train.unlabeled_fraction")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in the output directory")
    p.add_argument("--baseline", action="store_true",
                   help="also run the plain cross-entropy baseline")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference and route-equivalence suites")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--corrupt-route", dest="corrupt_route", action="store_true",
                   help="deliberately skew the analytic route (negative control)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("eval", help="accuracy of a checkpointed model on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=["train", "meta", "test"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a grid of configs and aggregate results")
    p.add_argument("--config", required=True, help="sweep config (base + grid)")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes; the cells are dealt into this many contiguous chunks")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # the steps and softmax catch every non-finite value
            return args.func(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:  # noqa: BLE001 - boundary of the process
        print(f"runtime failure: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
