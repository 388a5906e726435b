"""The benchmark's workloads: the input files each one writes from the seed,
the `metalabel` commands it runs, and what its outputs must satisfy.

A workload is a function `(seed, shrink) -> Plan`. `seed` makes every input
(config seeds, sweep grid); the program only reads the files written here.
`shrink` is merged into every config and exists for the smoke test's tiny
runs; the named workloads are always run with `shrink=None`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

TRAIN_FRAC = 5000 / 6000  # the config default; every n below is a multiple of 6


@dataclass
class TrainOut:
    """One training run whose output directory is checked."""
    out_dir: str
    warmup_epochs: int
    total_epochs: int
    n_train: int


@dataclass
class Plan:
    files: dict[str, dict]            # file name in the rep directory -> JSON body
    # {"argv": [...]} runs cli.main; an eval step also names the run directory
    # and split it scores ("eval_of"); {"truncate": path} injects a fault
    steps: list[dict]
    setup_steps: int                  # commands before the first training command
    trains: list[TrainOut] = field(default_factory=list)
    sweep_dir: str | None = None
    sweep_seeds: list[int] = field(default_factory=list)
    sweep_cell: TrainOut | None = None  # epochs and rows of every sweep cell


def _merge(base: dict, over: dict | None) -> dict:
    out = copy.deepcopy(base)
    for k, v in (over or {}).items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _n_train(cfg: dict) -> int:
    n = cfg.get("data", {}).get("n", 6000)
    rows = n * TRAIN_FRAC
    if abs(rows - round(rows)) > 1e-9:
        raise ValueError(f"data.n={n} does not split into whole train rows")
    return round(rows)


def _train_out(out_dir: str, cfg: dict) -> TrainOut:
    train = cfg.get("train", {})
    return TrainOut(out_dir, train.get("warmup_epochs", 15),
                    train.get("total_epochs", 60), _n_train(cfg))


def _file_flow(seed: int, gen_cfg: dict, data_file: str, run_dir: str,
               splits: list[str]) -> Plan:
    """gen-data, then train from the written file, then eval per split."""
    train_cfg = _merge(gen_cfg, {"data": {"path": data_file}})
    s = str(seed)
    steps = [
        {"argv": ["gen-data", "--config", "gen.json", "--out", data_file, "--seed", s]},
        {"argv": ["train", "--config", "train.json", "--out", run_dir, "--seed", s]},
    ]
    for split in splits:
        steps.append({"argv": ["eval", "--checkpoint", f"{run_dir}/checkpoint.json",
                               "--dataset", data_file, "--split", split],
                      "eval_of": [run_dir, split]})
    return Plan(files={"gen.json": gen_cfg, "train.json": train_cfg}, steps=steps,
                setup_steps=1, trains=[_train_out(run_dir, train_cfg)])


def quickstart_fd40(seed: int, shrink: dict | None = None) -> Plan:
    gen = _merge({"schema_version": 1, "seed": seed,
                  "noise": {"kind": "feature-dependent", "ratio": 0.4}}, shrink)
    return _file_flow(seed, gen, "blobs.dsv", "runs/fd40", ["test"])


def sweep_fd60_4seed(seed: int, shrink: dict | None = None) -> Plan:
    seeds = [4 * seed + k for k in range(4)]
    base = _merge({"schema_version": 1, "seed": seeds[0], "data": {"n": 3000},
                   "noise": {"kind": "feature-dependent", "ratio": 0.6},
                   "train": {"warmup_epochs": 10, "total_epochs": 40}}, shrink)
    sweep = {"schema_version": 1, "base": base, "grid": {"seed": seeds}}
    steps = [{"argv": ["sweep", "--config", "sweep.json", "--out", "runs/sweep",
                       "--jobs", "1"]}]
    return Plan(files={"sweep.json": sweep}, steps=steps, setup_steps=0,
                sweep_dir="runs/sweep", sweep_seeds=seeds,
                sweep_cell=_train_out("", base))


def bigfile_b512(seed: int, shrink: dict | None = None) -> Plan:
    gen = _merge({"schema_version": 1, "seed": seed, "data": {"n": 60000},
                  "noise": {"kind": "uniform", "ratio": 0.4},
                  "train": {"batch_size": 512, "warmup_epochs": 2, "total_epochs": 4}},
                 shrink)
    return _file_flow(seed, gen, "big.dsv", "runs/big", ["train", "meta", "test"])


WORKLOADS = {
    "quickstart-fd40": quickstart_fd40,
    "sweep-fd60-4seed": sweep_fd60_4seed,
    "bigfile-b512": bigfile_b512,
}
