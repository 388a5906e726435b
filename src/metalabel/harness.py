"""End-to-end training: one run state, one epoch loop and one batch loop
serve warm-up, phase 2 (meta step, then classifier step), the baseline and
the margin oracle; meta-data model selection, metrics and checkpoints.

One run is a pure function of its TrainConfig: every random draw flows from
the config seed through named substreams, so repeat runs agree bit-exactly
and a checkpoint, which is the run state serialised, restores it exactly.

Lanes: the epoch loop `_train` trains a group of runs in lockstep, each run a lane
of one stacked trajectory (see `nn`), and a solo run is a group of one.
Every lane keeps its own RunState: its RNG (permutations are drawn per lane
and gathered into (S, batch) positions), its meta sampler, its model
selection, log and checkpoint. At each epoch the lanes' parameters and
optimizer buffers are stacked, trained, and split back into the RunStates,
so between epochs a lane is exactly the run it would be alone.
`run_experiments` groups compatible configs, up to LANES_MAX lanes a group.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import time
import types
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import data as dt
from .data import Dataset, load_dataset
from .meta import EXTRACTOR_MODES, FeatureExtractor, ce_step, conventional_step, meta_step
from .nn import (
    OPTIMIZERS,
    DivergenceError,
    Mlp,
    check_one_hot,
    init_mlp,
    make_optimizer,
    map_row_blocks,
    mlp_logits,
    one_hot,
    row_blocks,
    softmax,
    stack_lanes,
)

CHECKPOINT_VERSION = 1
LANES_MAX = 4  # lanes per group: the cheapest size per lane, measured on 2 cores


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# ---------------------------------------------------------------------------
# configuration

# JSON layout: section -> {key in the section: TrainConfig field}
_SECTIONS = {
    "data": {"n": "n", "dims": "dims", "classes": "classes",
             "center_scale": "center_scale", "train_frac": "train_frac",
             "meta_frac": "meta_frac", "test_frac": "test_frac", "path": "dataset_path"},
    "noise": {"kind": "noise_kind", "ratio": "noise_ratio"},
    "model": {"hidden": "hidden"},
    "train": {k: k for k in (
        "batch_size", "warmup_epochs", "total_epochs", "lr_schedule", "meta_lr",
        "inner_lr", "classifier_optimizer", "metanet_optimizer", "weight_decay",
        "entropy_loss", "unlabeled_fraction", "extractor_features", "oracle_epochs")},
}
_WIRE_NAME = {"seed": "seed", **{f: f"{section}.{k}" for section, keys in _SECTIONS.items()
                                 for k, f in keys.items()}}


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; ints pass as floats,
    bools never pass as numbers."""
    origin = typing.get_origin(hint)
    if origin is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass
class TrainConfig:
    seed: int = 0
    # data synthesis (ignored when dataset_path is set)
    n: int = 6000
    dims: int = 10
    classes: int = 4
    center_scale: float = 3.0
    train_frac: float = 5000 / 6000
    meta_frac: float = 500 / 6000
    test_frac: float = 500 / 6000
    dataset_path: str | None = None
    # noise
    noise_kind: str = "feature-dependent"
    noise_ratio: float = 0.4
    # model
    hidden: list[int] = field(default_factory=lambda: [32, 16])
    # training
    batch_size: int = 64
    warmup_epochs: int = 15
    total_epochs: int = 60
    lr_schedule: list[list[float]] = field(default_factory=lambda: [[0, 1e-2], [30, 1e-3]])
    meta_lr: float = 1e-2
    inner_lr: float = 1.0
    classifier_optimizer: str = "sgd-momentum"
    metanet_optimizer: str = "adam"
    weight_decay: float = 1e-4
    entropy_loss: bool = True
    unlabeled_fraction: float = 0.0
    extractor_features: str = "penultimate"
    oracle_epochs: int = 50

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, hint in typing.get_type_hints(type(self)).items():
            value = getattr(self, name)
            if not _conforms(value, hint):
                raise ConfigError(f"{_WIRE_NAME[name]} must be "
                                  f"{type(self).__annotations__[name]}, got {value!r}")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(
                f"train.warmup_epochs must satisfy 0 <= warmup < total "
                f"({self.warmup_epochs} vs {self.total_epochs})")
        sched = self.lr_schedule
        if any(len(pair) != 2 for pair in sched):
            raise ConfigError("train.lr_schedule entries must be [epoch, rate] pairs")
        if not sched or sched[0][0] != 0:
            raise ConfigError("train.lr_schedule must start at epoch 0")
        epochs = [int(e) for e, _ in sched]
        if epochs != sorted(set(epochs)):
            raise ConfigError("train.lr_schedule epochs must be strictly increasing")
        if any(lr <= 0 for _, lr in sched):
            raise ConfigError("train.lr_schedule rates must be positive")
        if self.noise_kind not in ("uniform", "feature-dependent"):
            raise ConfigError(f"noise.kind unknown: {self.noise_kind!r}")
        if not 0.0 <= self.noise_ratio <= 1.0:
            raise ConfigError(f"noise.ratio must be in [0, 1], got {self.noise_ratio}")
        if not 0.0 <= self.unlabeled_fraction < 1.0:
            raise ConfigError(
                f"train.unlabeled_fraction must be in [0, 1), got {self.unlabeled_fraction}")
        if self.extractor_features not in EXTRACTOR_MODES:
            raise ConfigError(f"train.extractor_features unknown: {self.extractor_features!r}")
        for name in ("classifier_optimizer", "metanet_optimizer"):
            if getattr(self, name) not in OPTIMIZERS:
                raise ConfigError(f"train.{name} unknown: {getattr(self, name)!r}")
        if self.dataset_path is None:
            fracs = (self.train_frac, self.meta_frac, self.test_frac)
            if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
                raise ConfigError(f"data fractions must sum to 1, got {fracs}")
        if self.batch_size < 1:
            raise ConfigError("train.batch_size must be positive")
        if any(w < 1 for w in self.hidden):
            raise ConfigError(f"model.hidden widths must be positive, got {self.hidden}")
        if self.oracle_epochs < 0:
            raise ConfigError(f"train.oracle_epochs must be >= 0, got {self.oracle_epochs}")
        if self.meta_lr < 0 or self.inner_lr < 0:
            raise ConfigError("learning rates must be non-negative")

    # -- JSON wire format (nested sections, unknown keys rejected) ---------

    def to_dict(self) -> dict:
        out = {"schema_version": 1, "seed": self.seed}
        for section, keys in _SECTIONS.items():
            out[section] = {k: copy.deepcopy(getattr(self, f)) for k, f in keys.items()}
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if raw.get("schema_version") != 1:
            raise ConfigError("config requires schema_version = 1")
        unknown = set(raw) - {"schema_version", "seed", *_SECTIONS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {"seed": raw["seed"]} if "seed" in raw else {}
        for section, keys in _SECTIONS.items():
            src = raw.get(section, {})
            if not isinstance(src, dict):
                raise ConfigError(f"{section} must be an object")
            bad = set(src) - set(keys)
            if bad:
                raise ConfigError(f"unknown keys in {section}: {sorted(bad)}")
            kwargs.update((keys[k], v) for k, v in src.items())
        return cls(**kwargs)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def lr_at(schedule: list[list[float]], epoch: int) -> float:
    current = schedule[0][1]
    for start, value in schedule:
        if epoch >= start:
            current = value
    return current


# ---------------------------------------------------------------------------
# metrics log


@dataclass
class EpochRow:
    epoch: int
    phase: str
    train_acc: float
    meta_acc: float
    test_acc: float
    loss_c: float
    loss_e: float
    loss_meta: float
    mean_similarity: float
    label_diff_mean: float
    label_diff_var: float
    wall_time: float


METRICS_COLUMNS = [f.name for f in fields(EpochRow)]


def metrics_row(r: EpochRow) -> list:
    """One metrics.csv record: epoch and phase as they are, every other
    column as the repr of a float (exact round trip)."""
    return [r.epoch, r.phase] + [repr(float(getattr(r, c))) for c in METRICS_COLUMNS[2:]]


def csv_text(rows) -> str:
    """Rows (lists of cells) as CSV text, each ended by "\\n"."""
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def write_metrics_csv(rows: list[EpochRow], path: str) -> None:
    dt.replace_text(path, csv_text([METRICS_COLUMNS, *map(metrics_row, rows)]))


def read_metrics_csv(path: str) -> list[EpochRow]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != METRICS_COLUMNS:
            raise ValueError("metrics CSV header mismatch")
        for rec in reader:
            rows.append(EpochRow(int(rec[0]), rec[1],
                                 *[float(v) for v in rec[2:]]))
    return rows


# ---------------------------------------------------------------------------
# dataset assembly and evaluation


def derive_seeds(seed: int) -> dict:
    """Named integer substreams of the master seed."""
    state = np.random.SeedSequence(seed).generate_state(8)
    names = ["data", "split", "noise", "unlabeled", "oracle", "init", "run", "spare"]
    return {k: int(v) for k, v in zip(names, state)}


def train_margin_oracle(dss: list[Dataset], hidden: list[int], seeds: list[int],
                        epochs: int = 50, batch_size: int = 64,
                        lr: float = 1e-2) -> list[Mlp]:
    """Clean-label classifiers used only to score decision-boundary margins
    for feature-dependent noise, one per (dataset, seed) pair. They train as
    lanes of one group, so the datasets must agree in dims, classes and
    train rows."""
    sts, sources = [], []
    for d, s in zip(dss, seeds):
        rng = np.random.default_rng(s)
        net = init_mlp([d.dims] + list(hidden) + [d.n_classes], rng)
        sts.append(RunState(theta=net, opt_theta=make_optimizer("sgd-momentum", net.flat.shape,
                                                                 lr=lr), rng=rng))
        idx = d.indices(dt.TRAIN)
        sources.append((d.x, idx, d.y_clean[idx]))
    for epoch in range(epochs):
        _ce_epoch(sts, sources, batch_size, f"margin oracle epoch {epoch}")
    return [st.theta for st in sts]


def _groups(items: list[int], key) -> list[list[int]]:
    """Items with equal keys, in first-seen order, cut into groups of at
    most LANES_MAX."""
    by_key: dict = {}
    for i in items:
        by_key.setdefault(key(i), []).append(i)
    return [g[a:a + LANES_MAX] for g in by_key.values() for a in range(0, len(g), LANES_MAX)]


def _lane_key(cfg: TrainConfig) -> str:
    """What lanes must agree on: the config without seed, noise.* and
    data.path. Synthetic data of equal keys splits into equal row counts."""
    raw = cfg.to_dict()
    del raw["seed"], raw["noise"], raw["data"]["path"]
    return json.dumps(raw, sort_keys=True)


def _needs_oracle(cfg: TrainConfig) -> bool:
    return (cfg.dataset_path is None and cfg.noise_kind == "feature-dependent"
            and cfg.noise_ratio > 0.0)


def _base_dataset(cfg: TrainConfig) -> Dataset:
    """The dataset before feature-dependent noise and unlabeled marking,
    or the finished dataset read from data.path."""
    seeds = derive_seeds(cfg.seed)
    if cfg.dataset_path is not None:
        ds = load_dataset(cfg.dataset_path)
        if cfg.unlabeled_fraction > 0.0:
            if not np.all(ds.labeled):
                raise ConfigError("dataset file already carries unlabeled rows; "
                                  "drop train.unlabeled_fraction or regenerate")
            ds = dt.mark_unlabeled(ds, cfg.unlabeled_fraction, seeds["unlabeled"])
        return ds
    ds = dt.make_synthetic(cfg.n, cfg.classes, cfg.dims, seeds["data"],
                           center_scale=cfg.center_scale)
    ds = dt.split_dataset(ds, cfg.train_frac, cfg.meta_frac, cfg.test_frac,
                          seeds["split"])
    if cfg.noise_kind == "uniform" and cfg.noise_ratio > 0.0:
        ds = dt.inject_uniform(ds, cfg.noise_ratio, seeds["noise"])
    return ds


def _finish_dataset(cfg: TrainConfig, ds: Dataset, oracle: Mlp | None) -> Dataset:
    seeds = derive_seeds(cfg.seed)
    if oracle is not None:
        ds = dt.inject_feature_dependent(ds, cfg.noise_ratio, oracle, seeds["noise"])
    if cfg.dataset_path is None and cfg.unlabeled_fraction > 0.0:
        ds = dt.mark_unlabeled(ds, cfg.unlabeled_fraction, seeds["unlabeled"])
    return ds


def _outcome(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - reported per lane
        return e


def _lanes_or_alone(train, group: list[int]) -> tuple[list, int]:
    """`train(group)`, which returns one outcome per member, as lanes of one
    group. If it raises, each member of a larger group is trained alone, so
    every member ends as it would alone; a group of one is not retrained.
    Returns the outcomes (a result or the exception raised) and the number
    of members that reran alone."""
    out = _outcome(train, group)
    if not isinstance(out, Exception):
        return out, 0
    if len(group) == 1:
        return [out], 0
    return [_outcome(lambda i: train([i])[0], i) for i in group], len(group)


def build_datasets(cfgs: list[TrainConfig]) -> list:
    """`build_dataset` for each config; the margin oracles of configs that
    could be lanes of one run group train as lanes. Returns, per config, its
    dataset or the exception its build raised; a lane group whose oracles
    fail retrains each oracle alone (`_lanes_or_alone`)."""
    out = [_outcome(_base_dataset, cfg) for cfg in cfgs]
    need = [i for i, (cfg, ds) in enumerate(zip(cfgs, out))
            if _needs_oracle(cfg) and not isinstance(ds, Exception)]
    oracles: dict[int, object] = {}

    def train(group):
        return train_margin_oracle([out[i] for i in group], cfgs[group[0]].hidden,
                                   [derive_seeds(cfgs[i].seed)["oracle"] for i in group],
                                   epochs=cfgs[group[0]].oracle_epochs,
                                   batch_size=cfgs[group[0]].batch_size)

    for group in _groups(need, lambda i: _lane_key(cfgs[i])):
        oracles.update(zip(group, _lanes_or_alone(train, group)[0]))
    for i, cfg in enumerate(cfgs):
        if isinstance(oracles.get(i), Exception):
            out[i] = oracles[i]
        elif not isinstance(out[i], Exception):
            out[i] = _outcome(_finish_dataset, cfg, out[i], oracles.get(i))
    return out


def build_dataset(cfg: TrainConfig) -> Dataset:
    """Synthesize (or load), split, inject noise, mark unlabeled — all
    deterministic functions of the config."""
    (ds,) = build_datasets([cfg])
    if isinstance(ds, Exception):
        raise ds
    return ds


def evaluate(theta: Mlp, ds: Dataset, split: str) -> float:
    """Argmax accuracy: against clean labels on meta/test, against the noisy
    labels of labeled rows on train. Runs in row blocks, each reduced to its
    count of hits."""
    if split == dt.TRAIN:
        idx = ds.labeled_train_indices()
        if idx.size == 0:
            raise ValueError("train split has no labeled rows to evaluate")
        y = ds.train_labels(idx)
    else:
        idx = ds.indices(split)
        if idx.size == 0:
            raise ValueError(f"empty split {split!r}")
        y = ds.y_clean[idx]
    hits = 0
    for a, b in row_blocks(idx.size):
        logits = mlp_logits(theta.layers, ds.x[idx[a:b]])
        hits += int(np.count_nonzero(logits.argmax(axis=1) == y[a:b]))
    return hits / idx.size


def mean_prediction_entropy(theta: Mlp, ds: Dataset, split: str) -> float:
    """Batch-mean Shannon entropy of softmax predictions on a split."""
    p = softmax(mlp_logits(theta.layers, ds.x[ds.indices(split)]))
    p = np.clip(p, 1e-300, 1.0)
    return float(-(p * np.log(p)).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# run state and its checkpoint codec


@dataclass
class RunState:
    """Everything a run changes as it trains; a checkpoint is this state
    serialised. Phase-2 members (labeler, extractor, opt_phi) stay None
    until the first phase-2 epoch builds them."""

    theta: Mlp
    opt_theta: object
    rng: np.random.Generator
    epoch_next: int = 0
    theta_best: Mlp | None = None
    best_epoch: int = -1
    best_meta_acc: float = -1.0
    labeler: Mlp | None = None
    extractor: FeatureExtractor | None = None
    opt_phi: object = None
    log: list[EpochRow] = field(default_factory=list)

    @classmethod
    def fresh(cls, cfg: TrainConfig, ds: Dataset) -> "RunState":
        """The classifier at its initialisation, its optimizer and the run
        RNG, each drawn from its own substream of the config seed."""
        seeds = derive_seeds(cfg.seed)
        theta = init_mlp([ds.dims] + list(cfg.hidden) + [ds.n_classes],
                         np.random.default_rng(seeds["init"]))
        opt = make_optimizer(cfg.classifier_optimizer, theta.flat.shape,
                             lr=lr_at(cfg.lr_schedule, 0), weight_decay=cfg.weight_decay)
        return cls(theta=theta, opt_theta=opt, rng=np.random.default_rng(seeds["run"]),
                   theta_best=theta.copy())


def _mat_to_json(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "hex": [v.hex() for v in a.ravel().tolist()]}


def _mat_from_json(d: dict) -> np.ndarray:
    if len(d["shape"]) != 2:  # a checkpoint holds one run: no lane axis
        raise ValueError(f"expected a matrix, got shape {d['shape']}")
    vals = [float.fromhex(h) for h in d["hex"]]
    return np.array(vals, dtype=np.float64).reshape(d["shape"])


def _layers_to_json(layers) -> list[dict]:
    return [{"w": _mat_to_json(w), "b": _mat_to_json(b)} for w, b in layers]


def _layers_from_json(d: list[dict]) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(_mat_from_json(l["w"]), _mat_from_json(l["b"])) for l in d]


def _opt_to_json(opt, net: Mlp) -> dict:
    """Kind, hyperparameters, step count, then each buffer split along net's layers."""
    out = {"kind": opt.kind}
    out.update((k, float(getattr(opt, k)).hex()) for k in opt.HYPER)
    out["step_count"] = opt.step_count
    out.update((k, [_mat_to_json(a) for a in net.with_params(getattr(opt, k)).params()])
               for k in opt.BUFFERS)
    return out


def _opt_from_json(d: dict, net: Mlp):
    cls = OPTIMIZERS[d["kind"]]
    opt = cls(net.flat.shape, **{k: float.fromhex(d[k]) for k in cls.HYPER})
    opt.step_count = d["step_count"]
    for k in cls.BUFFERS:
        mats = [_mat_from_json(a) for a in d[k]]
        if [a.shape for a in mats] != [p.shape for p in net.params()]:
            raise ValueError(f"optimizer {k} shapes {[a.shape for a in mats]} do not "
                             f"match the parameters {[p.shape for p in net.params()]}")
        setattr(opt, k, np.concatenate([a.ravel() for a in mats]))
    return opt


_PHASE2_KEYS = ("extractor", "labeler", "opt_phi")  # all null before phase 2, then all set


def save_checkpoint(path: str, cfg: TrainConfig, state: RunState) -> None:
    """Write the run state atomically (`data.replaced_atomically`): a failed
    write leaves `path` as it was and no other file."""
    g, ex = state.labeler, state.extractor
    blob = {
        "version": CHECKPOINT_VERSION,
        "config_hash": cfg.config_hash(),
        "epoch_next": state.epoch_next,
        "theta": {"layers": _layers_to_json(state.theta.layers)},
        "theta_best": {"layers": _layers_to_json(state.theta_best.layers)},
        "best_epoch": state.best_epoch,
        "best_meta_acc": float.hex(state.best_meta_acc),
        "labeler": None if g is None else _layers_to_json(g.layers)[0],
        "extractor": None if ex is None else {"mode": ex.mode, "in_dim": ex.in_dim,
                                              "layers": _layers_to_json(ex.layers)},
        "opt_theta": _opt_to_json(state.opt_theta, state.theta),
        "opt_phi": None if state.opt_phi is None else _opt_to_json(state.opt_phi, g),
        "rng_state": state.rng.bit_generator.state,
        "log": [{c: getattr(r, c) for c in METRICS_COLUMNS} for r in state.log],
    }
    dt.replace_text(path, json.dumps(blob))


def load_checkpoint(path: str, cfg: TrainConfig | None = None) -> RunState:
    """Restore a run state; when cfg is given its hash must match the one
    the checkpoint was written under. Every way the file can be unreadable
    raises a ValueError that names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"checkpoint {path} is not valid JSON: {e}") from e
    version = blob.get("version") if isinstance(blob, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported checkpoint version {version}")
    if cfg is not None and blob.get("config_hash") != cfg.config_hash():
        raise ValueError(f"checkpoint {path} was written by a different config")
    null = [k for k in _PHASE2_KEYS if blob.get(k) is None]
    if null and len(null) < len(_PHASE2_KEYS):
        raise ValueError(f"checkpoint {path} is malformed: {', '.join(_PHASE2_KEYS)} must "
                         f"be all null or all present; null: {', '.join(null)}")
    try:
        theta = Mlp(_layers_from_json(blob["theta"]["layers"]))
        g = None if blob["labeler"] is None else Mlp(_layers_from_json([blob["labeler"]]))
        ex = blob["extractor"]
        rng = np.random.default_rng(0)
        rng.bit_generator.state = blob["rng_state"]
        st = RunState(
            epoch_next=blob["epoch_next"],
            theta=theta,
            theta_best=Mlp(_layers_from_json(blob["theta_best"]["layers"])),
            best_epoch=blob["best_epoch"],
            best_meta_acc=float.fromhex(blob["best_meta_acc"]),
            labeler=g,
            extractor=None if ex is None else FeatureExtractor(
                _layers_from_json(ex["layers"]), ex["mode"], ex["in_dim"]),
            opt_theta=_opt_from_json(blob["opt_theta"], theta),
            opt_phi=None if blob["opt_phi"] is None else _opt_from_json(blob["opt_phi"], g),
            rng=rng,
            log=[EpochRow(**r) for r in blob["log"]])
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ValueError(f"checkpoint {path} is malformed: {e!r}") from e
    g, ex = st.labeler, st.extractor
    if g is not None and (g.in_dim != ex.n_features or g.out_dim != st.theta.out_dim):
        raise ValueError(f"checkpoint {path} is malformed: the generator maps {g.in_dim} "
                         f"features to {g.out_dim} classes, but the extractor gives "
                         f"{ex.n_features} features and the classifier has "
                         f"{st.theta.out_dim} classes")
    return st


# ---------------------------------------------------------------------------
# training


@dataclass
class _Lane:
    """One run of a lane group: its config, dataset and state, and where its
    epochs go (a checkpoint file and an `on_epoch(row)` callback)."""

    cfg: TrainConfig
    ds: Dataset
    st: RunState
    checkpoint_path: str | None = None
    on_epoch: typing.Callable | None = None


def _stacked(sts: list[RunState], name: str):
    """The lanes' `name` members (a network, generator or optimizer) as one
    lane-stacked object; a group of one keeps its own, with no lane axis
    (see `stack_lanes`)."""
    parts = [getattr(st, name) for st in sts]
    return parts[0] if len(parts) == 1 else type(parts[0]).stack(parts)


def _unstack(sts: list[RunState], **stacked) -> None:
    for name, value in stacked.items():
        for s, st in enumerate(sts):
            setattr(st, name, value if len(sts) == 1 else value.lane(s))


def _epoch(n_rows: int, batch_size: int, rngs: list[np.random.Generator], where: str,
           step) -> np.ndarray:
    """One pass over n_rows rows in a fresh shuffled order per lane (drawn
    from that lane's rng): `step(positions)` trains every lane on one batch,
    positions an (S, batch) array, and returns k losses per lane. Returns
    the batch-mean losses, (k, S). A failure is restated as "where, batch
    B: ..."; a divergence keeps its type (and exit code), anything else
    becomes a RuntimeError."""
    order = np.array([rng.permutation(n_rows) for rng in rngs])
    sums, batches = 0.0, 0
    for start in range(0, n_rows, batch_size):
        try:
            losses = step(order[:, start:start + batch_size])
        except Exception as e:
            kind = DivergenceError if isinstance(e, DivergenceError) else RuntimeError
            raise kind(f"{where}, batch {batches}: {e}") from e
        sums = sums + np.asarray(losses).reshape(-1, len(rngs))
        batches += 1
    return sums / batches


def _ce_epoch(sts: list[RunState], sources: list[tuple], batch_size: int,
              where: str) -> np.ndarray:
    """One epoch of cross-entropy steps of each lane's classifier: lane s
    trains on rows `rows` of `x` with labels `labels`, sources[s] being
    (x, rows, labels). Warm-up, baseline and margin oracle. Returns the
    batch-mean loss per lane."""
    theta, opt = _stacked(sts, "theta"), _stacked(sts, "opt_theta")

    def step(pos):
        nonlocal theta
        x = stack_lanes([x[rows[p]] for (x, rows, _), p in zip(sources, pos)])
        y = stack_lanes([y[p] for (_, _, y), p in zip(sources, pos)])
        theta, loss = ce_step(theta, x, y, opt)
        return (loss,)

    losses = _epoch(sources[0][1].size, batch_size, [st.rng for st in sts], where, step)[0]
    _unstack(sts, theta=theta, opt_theta=opt)
    return losses


def _noisy_rows(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CE source of the labeled train rows: features, rows, noisy labels."""
    idx = ds.labeled_train_indices()
    if idx.size == 0:
        raise ValueError("no labeled train rows")
    return ds.x, idx, ds.train_labels(idx)


class _MetaSampler:
    """Cycles an epoch-shuffled order over the n rows of the meta split and
    returns positions in it; the first order is drawn at the first draw."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.order = np.arange(0)
        self.cursor = 0

    def draw(self, n: int) -> np.ndarray:
        parts = []
        while n > 0:
            if self.cursor == self.order.size:
                self.order = self.rng.permutation(self.n)
                self.cursor = 0
            take = min(n, self.order.size - self.cursor)
            parts.append(self.order[self.cursor:self.cursor + take])
            self.cursor += take
            n -= take
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Phase2Rows(typing.NamedTuple):
    """A lane's phase-2 inputs, fixed for one _train call: its train rows
    and their features, its meta rows and their one-hot labels (built once,
    then gathered per batch)."""

    x: np.ndarray
    rows: np.ndarray
    feats: np.ndarray
    meta_rows: np.ndarray
    meta_y: np.ndarray

    @classmethod
    def of(cls, cfg: TrainConfig, ln: _Lane) -> "_Phase2Rows":
        """Also builds the lane's extractor, generator and generator
        optimizer when it has none yet."""
        st, ds = ln.st, ln.ds
        if st.extractor is None:
            st.extractor = FeatureExtractor.from_classifier(st.theta, cfg.extractor_features)
            # zero init makes the initial soft labels uniform over classes
            f, c = st.extractor.n_features, ds.n_classes
            st.labeler = Mlp([(np.zeros((f, c)), np.zeros((1, c)))])
            st.opt_phi = make_optimizer(cfg.metanet_optimizer, st.labeler.flat.shape,
                                        lr=cfg.meta_lr, weight_decay=cfg.weight_decay)
        rows, meta_rows = ds.indices(dt.TRAIN), ds.indices(dt.META)
        # one block of rows and its activations at a time: a whole split's would
        # be several times the features and the peak of a large run. Logits
        # come from a narrow product, which stays in one piece (map_row_blocks)
        ex = st.extractor
        feats = (ex(ds.x[rows]) if ex.mode == "logits"
                 else map_row_blocks(ex, ds.x, rows, ex.n_features))
        meta_y = one_hot(ds.y_clean[meta_rows], ds.n_classes)
        check_one_hot(meta_y, ds.n_classes)  # once here; the meta step does not recheck
        return cls(ds.x, rows, feats, meta_rows, meta_y)


def _phase2_epoch(cfg: TrainConfig, sts: list[RunState], inputs: list[_Phase2Rows],
                  lam: float, where: str) -> np.ndarray:
    """One phase-2 epoch of every lane: per batch the meta step, then the
    classifier step. Returns the batch-mean (L_c, L_e, L_meta, similarity)
    per lane, (4, S)."""
    theta, opt_theta = _stacked(sts, "theta"), _stacked(sts, "opt_theta")
    labeler, opt_phi = _stacked(sts, "labeler"), _stacked(sts, "opt_phi")
    samplers = [_MetaSampler(inp.meta_rows.size, st.rng) for inp, st in zip(inputs, sts)]

    def step(pos):
        nonlocal theta, labeler
        m = [sampler.draw(pos.shape[1]) for sampler in samplers]
        x = stack_lanes([inp.x[inp.rows[p]] for inp, p in zip(inputs, pos)])
        v = stack_lanes([inp.feats[p] for inp, p in zip(inputs, pos)])
        mx = stack_lanes([inp.x[inp.meta_rows[i]] for inp, i in zip(inputs, m)])
        my = stack_lanes([inp.meta_y[i] for inp, i in zip(inputs, m)])
        labeler, report, fwd = meta_step(labeler, theta, x, v, mx, my,
                                         inner_lr=cfg.inner_lr, optimizer=opt_phi)
        theta, lc, le = conventional_step(theta, labeler, fwd, v, lam, opt_theta,
                                          use_entropy=cfg.entropy_loss)
        return lc, le, report.meta_loss, report.mean_similarity

    losses = _epoch(inputs[0].rows.size, cfg.batch_size, [st.rng for st in sts], where, step)
    _unstack(sts, theta=theta, opt_theta=opt_theta, labeler=labeler, opt_phi=opt_phi)
    return losses


def _label_drift(after: Mlp, before: Mlp, feats: np.ndarray) -> np.ndarray:
    """|softmax(after) - softmax(before)| on every row of feats, per class.
    The soft labels before an epoch are recomputed, not kept, and one lane's
    drift at a time is all the memory this needs. One piece: the generator
    is a narrow product (map_row_blocks)."""
    return np.abs(softmax(mlp_logits(after.layers, feats))
                  - softmax(mlp_logits(before.layers, feats)))


def _train(lanes: list[_Lane], until: int, phase2: bool) -> None:
    """Train every lane from its epoch_next up to epoch `until`, in lockstep.

    The lanes share the train.* fields of their configs (the first lane's
    are used) and their epoch_next, and their datasets share shapes. With
    phase2, epochs before cfg.warmup_epochs are cross-entropy warm-up and
    later ones phase 2 (meta step, then classifier step); without, every
    epoch is the cross-entropy baseline. After each epoch every lane is
    evaluated on all three splits, keeps the classifier with its best meta
    accuracy (earliest epoch on ties), logs its row and passes it to its
    `on_epoch`, and writes its checkpoint when it has a path. A row's
    wall_time is the group's epoch time divided by the number of lanes.
    """
    nan = float("nan")
    cfg, sts = lanes[0].cfg, [ln.st for ln in lanes]
    inputs = None
    for epoch in range(sts[0].epoch_next, until):
        t0 = time.perf_counter()
        lam = lr_at(cfg.lr_schedule, epoch)
        for st in sts:
            st.opt_theta.lr = lam
        if not phase2 or epoch < cfg.warmup_epochs:
            phase, label = ("warmup", "warm-up") if phase2 else ("baseline", "baseline")
            loss_c = _ce_epoch(sts, [_noisy_rows(ln.ds) for ln in lanes], cfg.batch_size,
                               f"epoch {epoch} ({label})")
            losses = [[float(v), nan, nan, nan, nan, nan] for v in loss_c]
        else:
            phase = "phase2"
            if inputs is None:
                inputs = [_Phase2Rows.of(cfg, ln) for ln in lanes]
            before = [st.labeler for st in sts]
            epoch_losses = _phase2_epoch(cfg, sts, inputs, lam, f"epoch {epoch}")
            losses = []
            for s, (st, inp) in enumerate(zip(sts, inputs)):
                diff = _label_drift(st.labeler, before[s], inp.feats)
                losses.append([float(v) for v in epoch_losses[:, s]]
                              + [float(diff.mean()), float(diff.var())])

        accs = [[evaluate(ln.st.theta, ln.ds, split) for split in (dt.TRAIN, dt.META, dt.TEST)]
                for ln in lanes]
        wall_time = (time.perf_counter() - t0) / len(lanes)
        for ln, lane_accs, lane_losses in zip(lanes, accs, losses):
            st = ln.st
            if lane_accs[1] > st.best_meta_acc:
                st.best_meta_acc, st.best_epoch = lane_accs[1], epoch
                st.theta_best = st.theta.copy()
            row = EpochRow(epoch, phase, *lane_accs, *lane_losses, wall_time)
            st.log.append(row)
            st.epoch_next = epoch + 1
            if ln.on_epoch is not None:
                ln.on_epoch(row)
            if ln.checkpoint_path is not None:
                save_checkpoint(ln.checkpoint_path, ln.cfg, st)


# ---------------------------------------------------------------------------
# entry points


@dataclass
class ExperimentResult:
    config: TrainConfig
    log: list[EpochRow]
    theta_best: Mlp
    theta_final: Mlp
    labeler: Mlp | None
    best_epoch: int
    best_meta_acc: float
    test_acc_selected: float
    test_acc_final: float

    def summary(self) -> dict:
        return {
            "schema_version": 1,
            "selected_epoch": self.best_epoch,
            "meta_accuracy": self.best_meta_acc,
            "test_accuracy": self.test_acc_selected,
            "final_test_accuracy": self.test_acc_final,
            "config_hash": self.config.config_hash(),
        }


def _result(ln: _Lane) -> ExperimentResult:
    st = ln.st
    return ExperimentResult(
        config=ln.cfg, log=st.log, theta_best=st.theta_best, theta_final=st.theta,
        labeler=st.labeler, best_epoch=st.best_epoch, best_meta_acc=st.best_meta_acc,
        test_acc_selected=evaluate(st.theta_best, ln.ds, dt.TEST),
        test_acc_final=evaluate(st.theta, ln.ds, dt.TEST))


def _check_meta_size(cfg: TrainConfig, ds: Dataset) -> None:
    meta_size = ds.indices(dt.META).size
    if cfg.batch_size > meta_size:
        raise ConfigError(
            f"train.batch_size {cfg.batch_size} exceeds meta split size {meta_size}")


def _run_lanes(lanes: list[_Lane], until: int, phase2: bool) -> list[ExperimentResult]:
    _train(lanes, until, phase2)
    return [_result(ln) for ln in lanes]


def run_experiment(cfg: TrainConfig, dataset: Dataset | None = None,
                   checkpoint_path: str | None = None,
                   state: RunState | None = None,
                   on_epoch=None) -> ExperimentResult:
    """Warm-up, then phase-2 epochs; per-epoch metrics; keep the classifier
    with the best meta accuracy and score it on test. A group of one lane.

    With checkpoint_path set, the run state is written after every epoch.
    A `state` read back by load_checkpoint continues that run bit-exactly;
    without one the run starts fresh. `on_epoch(row)` runs after each
    logged epoch (for incremental metrics flushing); failures abort with
    epoch/batch context.
    """
    ds = dataset if dataset is not None else build_dataset(cfg)
    _check_meta_size(cfg, ds)
    st = state if state is not None else RunState.fresh(cfg, ds)
    return _run_lanes([_Lane(cfg, ds, st, checkpoint_path, on_epoch)],
                      cfg.total_epochs, True)[0]


def baseline_ce(cfg: TrainConfig, dataset: Dataset | None = None) -> ExperimentResult:
    """Plain cross-entropy on noisy labels with the identical budget,
    schedule and model-selection protocol; the comparison baseline."""
    ds = dataset if dataset is not None else build_dataset(cfg)
    return _run_lanes([_Lane(cfg, ds, RunState.fresh(cfg, ds))], cfg.total_epochs, False)[0]


def _shape_key(ds: Dataset) -> tuple:
    return (ds.dims, ds.n_classes, *(ds.indices(s).size for s in dt.SPLITS),
            ds.labeled_train_indices().size)


def run_experiments(cfgs: list[TrainConfig], datasets: list[Dataset] | None = None, *,
                    baseline: bool = False, on_group=None) -> list:
    """`run_experiment` (or, with baseline, `baseline_ce`) for every config;
    returns, per config, its ExperimentResult or the exception it raised.

    Configs that agree on everything but seed, noise.* and data.path, and
    whose datasets agree in dims, classes and the row counts of each split
    and of labeled train rows, train as lanes of one group of at most
    LANES_MAX, in config order. If any lane of a group raises, each of the
    group's lanes reruns alone, so every config ends exactly as it would
    alone. Without `datasets`, each group's datasets are built (margin
    oracles as lanes) when the group trains and dropped after. After each
    group, `on_group(indices, results, lanes rerun alone)` gets its configs'
    indices and outcomes.
    """
    out: list = [None] * len(cfgs)
    dss: dict[int, Dataset] = {}

    def train(group):
        return _run_lanes([_Lane(cfgs[i], dss[i], RunState.fresh(cfgs[i], dss[i]))
                           for i in group], cfgs[group[0]].total_epochs, not baseline)

    for chunk in _groups(list(range(len(cfgs))), lambda i: _lane_key(cfgs[i])):
        built = (build_datasets([cfgs[i] for i in chunk]) if datasets is None
                 else [datasets[i] for i in chunk])
        for i, ds in zip(chunk, built):
            out[i] = ds if isinstance(ds, Exception) or baseline else (
                _outcome(_check_meta_size, cfgs[i], ds))
            if not isinstance(out[i], Exception):
                dss[i] = ds
        for group in _groups([i for i in chunk if i in dss], lambda i: _shape_key(dss[i])):
            results, reran = _lanes_or_alone(train, group)
            for i, result in zip(group, results):
                out[i] = result
                del dss[i]
            if on_group is not None:
                on_group(group, results, reran)
    return out


def warmup_phase(cfg: TrainConfig, ds: Dataset) -> Mlp:
    """The classifier after cfg.warmup_epochs of cross-entropy on the noisy
    labels of labeled rows, exactly as a full run has it at warm-up end."""
    ln = _Lane(cfg, ds, RunState.fresh(cfg, ds))
    _train([ln], cfg.warmup_epochs, True)
    return ln.st.theta
