"""End-to-end training: one run state, one epoch loop and one batch loop
serve warm-up, phase 2 (meta step, then classifier step), the baseline and
the margin oracle; meta-data model selection, metrics and checkpoints.

One run is a pure function of its TrainConfig: every random draw flows from
the config seed through named substreams, so repeat runs agree bit-exactly
and a checkpoint, which is the run state serialised, restores it exactly.

Lanes: the epoch loop `_train` trains a group of runs in lockstep, each run a lane
of one stacked trajectory (see `nn`), and a solo run is a group of one.
Every lane keeps its own RunState: its RNG (each epoch's permutations are
drawn per lane before its first batch, and the batch loop gathers their
rows a block of batches at a time), its model selection, log and
checkpoint. At each epoch the lanes' parameters and optimizer buffers are
stacked, trained, and split back into the RunStates, so between epochs a
lane is exactly the run it would be alone.
`run_experiments` groups compatible configs, up to LANES_MAX lanes a group.
"""

from __future__ import annotations

import base64
import copy
import csv
import hashlib
import io
import json
import math
import time
import types
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import data as dt
from .data import Dataset, TrainView, load_dataset
from .meta import (
    EXTRACTOR_MODES,
    MetaWork,
    ce_step,
    conventional_step,
    extract_features,
    meta_step,
)
from .nn import (
    GATHER_ROWS,
    OPTIMIZERS,
    DivergenceError,
    Mlp,
    init_mlp,
    make_optimizer,
    map_row_blocks,
    mlp_logits,
    one_hot,
    param_count,
    row_blocks,
    softmax,
)

CHECKPOINT_VERSION = 2
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


def _finite(number) -> bool:
    """Whether a JSON number is finite; an int always is, however large."""
    return not isinstance(number, float) or math.isfinite(number)


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
            if hint is float and not _finite(value):
                raise ConfigError(f"{_WIRE_NAME[name]} must be finite, got {value!r}")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(
                f"train.warmup_epochs must satisfy 0 <= warmup < total "
                f"({self.warmup_epochs} vs {self.total_epochs})")
        sched = self.lr_schedule
        if any(len(pair) != 2 for pair in sched):
            raise ConfigError("train.lr_schedule entries must be [epoch, rate] pairs")
        if not all(_finite(v) for pair in sched for v in pair):
            raise ConfigError(f"train.lr_schedule epochs and rates must be finite, got {sched}")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.oracle_epochs < 0:
            raise ConfigError(f"train.oracle_epochs must be >= 0, got {self.oracle_epochs}")
        for name in ("meta_lr", "inner_lr"):
            if getattr(self, name) < 0:
                raise ConfigError(f"train.{name} must be >= 0, got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise ConfigError(f"train.weight_decay must be >= 0, got {self.weight_decay}")

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
        return hashlib.sha256(_canonical(self.to_dict()).encode()).hexdigest()[:16]


def _canonical(raw) -> str:
    """A JSON value as canonical text: sorted keys, no spaces."""
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


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
_LOGGED = METRICS_COLUMNS[2:]  # the float columns: a row's place gives its epoch and phase


def metrics_row(r: EpochRow) -> list:
    """One metrics.csv record: epoch and phase as they are, every other
    column as the repr of a float (exact round trip)."""
    return [r.epoch, r.phase] + [repr(float(getattr(r, c))) for c in _LOGGED]


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
    """The dataset before feature-dependent noise and unlabeled marking:
    synthesised, or read from data.path."""
    seeds = derive_seeds(cfg.seed)
    if cfg.dataset_path is not None:
        ds = load_dataset(cfg.dataset_path)
        if cfg.unlabeled_fraction > 0.0 and not np.all(ds.labeled):
            raise ConfigError("dataset file already carries unlabeled rows; "
                              "drop train.unlabeled_fraction or regenerate")
        return ds
    ds = dt.make_synthetic(cfg.n, cfg.classes, cfg.dims, seeds["data"],
                           center_scale=cfg.center_scale)
    ds = dt.split_dataset(ds, cfg.train_frac, cfg.meta_frac, cfg.test_frac,
                          seeds["split"])
    if ds.indices(dt.TRAIN).size == 0:  # the margin oracle would train on nothing
        raise ConfigError(f"data.train_frac {cfg.train_frac} leaves no train rows "
                          f"of data.n {cfg.n}")
    if cfg.noise_kind == "uniform" and cfg.noise_ratio > 0.0:
        ds = dt.inject_uniform(ds, cfg.noise_ratio, seeds["noise"])
    return ds


def _finish_dataset(cfg: TrainConfig, ds: Dataset, oracle: Mlp | None) -> Dataset:
    """`_base_dataset`'s dataset with feature-dependent noise from `oracle`
    and unlabeled rows marked; refused, before any output is written, when
    a split is left without a labeled row (`check_view`)."""
    seeds = derive_seeds(cfg.seed)
    if oracle is not None:
        ds = dt.inject_feature_dependent(ds, cfg.noise_ratio, oracle, seeds["noise"])
    if cfg.unlabeled_fraction > 0.0:
        ds = dt.mark_unlabeled(ds, cfg.unlabeled_fraction, seeds["unlabeled"])
    check_view(cfg, ds.view(), baseline=True)
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


def evaluate(theta: Mlp, view: TrainView, split: str) -> float:
    """Argmax accuracy on the split's scored rows, against the labels the
    view holds for them: noisy on train, clean on meta and test. Runs in row
    blocks, each reduced to its count of hits."""
    rows, y = view.scored[split]
    if rows.size == 0:
        raise ValueError(f"{split} split has no labeled rows to evaluate")
    hits = 0
    for a, b in row_blocks(rows.size):
        logits = mlp_logits(theta.layers, view.x[rows[a:b]])
        hits += int(np.count_nonzero(logits.argmax(axis=1) == y[a:b]))
    return hits / rows.size


# ---------------------------------------------------------------------------
# run state and its checkpoint codec


@dataclass
class RunState:
    """Everything a run changes as it trains, as a checkpoint stores it.
    Phase-2 members (labeler, extractor, opt_phi) stay None until the first
    phase-2 epoch builds them (`begin_phase2`). The log is the one record of
    the epochs run: the next epoch and the kept one are read from it."""

    theta: Mlp
    opt_theta: object
    rng: np.random.Generator
    theta_best: Mlp | None = None
    labeler: Mlp | None = None
    extractor: Mlp | None = None
    opt_phi: object = None
    log: list[EpochRow] = field(default_factory=list)

    @classmethod
    def fresh(cls, cfg: TrainConfig, dims: int, classes: int) -> "RunState":
        """The classifier of `dims` inputs and `classes` outputs at its
        initialisation, its optimizer and the run RNG, each drawn from its
        own substream of the config seed."""
        seeds = derive_seeds(cfg.seed)
        theta = init_mlp([dims] + list(cfg.hidden) + [classes],
                         np.random.default_rng(seeds["init"]))
        opt = make_optimizer(cfg.classifier_optimizer, theta.flat.shape,
                             lr=lr_at(cfg.lr_schedule, 0), weight_decay=cfg.weight_decay)
        return cls(theta=theta, opt_theta=opt, rng=np.random.default_rng(seeds["run"]),
                   theta_best=theta.copy())

    def begin_phase2(self, cfg: TrainConfig) -> None:
        """Build the phase-2 members from the classifier as it stands: the
        frozen extractor (all its layers but the output one in "penultimate"
        mode), the zero generator (uniform soft labels) and its optimizer."""
        self.extractor = self.theta.prefix(
            len(self.theta.layers) - (cfg.extractor_features == "penultimate"))
        f, c = self.extractor.out_dim, self.theta.out_dim
        self.labeler = Mlp([(np.zeros((f, c)), np.zeros((1, c)))])
        self.opt_phi = make_optimizer(cfg.metanet_optimizer, self.labeler.flat.shape,
                                      lr=cfg.meta_lr, weight_decay=cfg.weight_decay)

    @property
    def epoch_next(self) -> int:
        return len(self.log)

    @property
    def best_epoch(self) -> int:
        """The first logged epoch of the highest meta_acc, -1 before the first."""
        return max(range(len(self.log)), key=lambda e: self.log[e].meta_acc, default=-1)

    @property
    def best_meta_acc(self) -> float:
        return self.log[self.best_epoch].meta_acc if self.log else -1.0


def _b64(arrays) -> str:
    """The arrays' entries as one vector: base64 of little-endian float64 bytes."""
    return base64.b64encode(b"".join(np.asarray(a, "<f8").tobytes() for a in arrays)).decode()


def _vector(text, name: str, sizes) -> np.ndarray:
    """The vector `_b64` wrote for layers of widths `sizes`, each entry finite
    as training writes it; `name` is its member, for the messages."""
    raw = base64.b64decode(text, validate=True)
    want = param_count(sizes)
    if len(raw) != 8 * want:
        raise ValueError(f"{name} holds {len(raw) / 8:g} floats, layer widths "
                         f"{list(sizes)} need {want}")
    vec = np.frombuffer(raw, "<f8")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} holds a non-finite entry")
    return vec


def save_checkpoint(path: str, cfg: TrainConfig, state: RunState) -> None:
    """Write the run state as checkpoint version 2 (what training cannot
    derive; see `load_checkpoint`), atomically (`data.replaced_atomically`):
    a failed write leaves `path` as it was and no other file."""

    def buffers(opt):
        return None if opt is None else {k: _b64([getattr(opt, k)]) for k in opt.BUFFERS}

    blob = {
        "version": CHECKPOINT_VERSION,
        "config": cfg.to_dict(),
        "sizes": list(state.theta.sizes),
        "theta": _b64([state.theta.flat]),
        "theta_best": _b64([state.theta_best.flat]),
        "labeler": None if state.labeler is None else _b64([state.labeler.flat]),
        "extractor": None if state.extractor is None else _b64([state.extractor.flat]),
        "opt_theta": buffers(state.opt_theta),
        "opt_phi": buffers(state.opt_phi),
        "rng_state": state.rng.bit_generator.state,
        "log": [{c: getattr(r, c) for c in _LOGGED} for r in state.log],
    }
    dt.replace_text(path, json.dumps(blob))


def load_checkpoint(path: str, cfg: TrainConfig | None = None) -> RunState:
    """Restore a run state from a version 2 checkpoint under the config it
    holds, which cfg, when given, must equal as canonical JSON. The file
    holds the classifier's widths `sizes`, each network and optimizer buffer
    as one `_b64` vector, the RNG state and the log rows without epoch and
    phase, which follow from a row's place. The rest follows from the config
    and `sizes`, whose hidden widths must be model.hidden (see `_decode`);
    the step counts read 0 until `run_experiment` counts them on its
    view. Every way the file can be unreadable raises a ValueError that
    names it."""
    blob = dt.read_json(path, "checkpoint")
    version = blob.get("version") if isinstance(blob, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported checkpoint version {version}")
    if cfg is not None and _canonical(blob.get("config")) != _canonical(cfg.to_dict()):
        raise ValueError(f"checkpoint {path} was written by a different config")
    try:
        return _decode(blob, cfg or TrainConfig.from_dict(blob["config"]))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        why = e if isinstance(e, ValueError) else repr(e)
        raise ValueError(f"checkpoint {path} is malformed: {why}") from e


def _decode(blob: dict, cfg: TrainConfig) -> RunState:
    """The run state of a version 2 record written under cfg, built as
    training builds it (`RunState.fresh`, then `begin_phase2` in phase 2)
    and each stored vector read into it; raises on what training never writes."""
    sizes = blob["sizes"]
    if (not isinstance(sizes, list) or len(sizes) < 2
            or any(type(w) is not int or w < 1 for w in sizes)):
        raise ValueError(f"sizes {sizes!r} are not two or more positive integers")
    theta = _vector(blob["theta"], "theta", sizes)  # before anything of that size is built
    if sizes[1:-1] != cfg.hidden:
        raise ValueError(f"sizes {sizes} do not carry model.hidden {cfg.hidden}")
    log = [EpochRow(e, "phase2" if e >= cfg.warmup_epochs else "warmup", **r)
           for e, r in enumerate(blob["log"])]
    for r in log:
        if any(type(getattr(r, c)) is not float for c in _LOGGED):
            raise ValueError(f"log epoch {r.epoch}: values must be floats")
        for c in ("train_acc", "meta_acc", "test_acc"):
            if not 0.0 <= getattr(r, c) <= 1.0:  # NaN fails too
                raise ValueError(f"log epoch {r.epoch}: {c} {getattr(r, c)!r} is not in [0, 1]")
    n = len(log)
    if n > cfg.total_epochs:
        raise ValueError(f"the log's {n} epochs run past train.total_epochs {cfg.total_epochs}")
    phase2 = n > cfg.warmup_epochs
    for k in ("extractor", "labeler", "opt_phi"):  # built together at phase 2's start
        if (blob[k] is not None) != phase2:
            raise ValueError(f"{k} must be {'set' if phase2 else 'null'} after {n} epochs, "
                             f"phase 2 starting at epoch {cfg.warmup_epochs}")

    st = RunState.fresh(cfg, sizes[0], sizes[-1])
    st.log = log
    st.rng.bit_generator.state = blob["rng_state"]
    if phase2:
        st.begin_phase2(cfg)
    st.theta.flat[...] = theta
    for key in ("theta_best", "extractor", "labeler"):  # a phase-2 member None before it
        net = getattr(st, key)
        if net is not None:
            net.flat[...] = _vector(blob[key], key, net.sizes)
    for key, net in (("opt_theta", st.theta), ("opt_phi", st.labeler)):
        opt = getattr(st, key)
        for k in opt.BUFFERS if opt is not None else ():
            getattr(opt, k)[...] = _vector(blob[key][k], f"{key}.{k}", net.sizes)
    return st


# ---------------------------------------------------------------------------
# training


@dataclass
class _Lane:
    """One run of a lane group: its config, view and state, and where its
    epochs go (a checkpoint file and an `on_epoch(row)` callback)."""

    cfg: TrainConfig
    view: TrainView
    st: RunState
    checkpoint_path: str | None = None
    on_epoch: typing.Callable | None = None


def _stacked(sts: list[RunState], name: str):
    """The lanes' `name` members (a network, generator or optimizer) as one
    lane-stacked object; a group of one has no lane axis (see `stack_lanes`)."""
    parts = [getattr(st, name) for st in sts]
    return type(parts[0]).stack(parts)


def _unstack(sts: list[RunState], **stacked) -> None:
    for name, value in stacked.items():
        for s, st in enumerate(sts):
            setattr(st, name, value if len(sts) == 1 else value.lane(s))


class _Gather(typing.NamedTuple):
    """One input of an epoch's batches: lane s's batch holds the rows
    `sources[s][rows[s][order[s, batch]]]` (with `rows` None, the rows
    `sources[s][order[s, batch]]`). `order` is the lanes' drawn positions,
    an (S, n_rows) int32 array."""

    sources: typing.Sequence[np.ndarray]
    rows: typing.Sequence[np.ndarray] | None
    order: np.ndarray


def _epoch(inputs: tuple[_Gather, ...], batch_size: int, where: str, step) -> np.ndarray:
    """One pass over an epoch's drawn plan: `step(*batch)` trains every lane
    on one batch, given each input's (S, batch) rows (no lane axis for a
    group of one), and returns k losses per lane. The rows are gathered a
    block of whole batches at a time (GATHER_ROWS rows, at least one batch)
    into buffers bound once per epoch, and a batch gets views of them. A
    block composes its positions, so their int32 to intp cast is paid once
    per block. Returns the batch-mean losses, (k, S). A failure is restated
    as "where, batch B: ..."; a divergence keeps its type (and exit code),
    anything else becomes a RuntimeError."""
    lanes, n_rows = inputs[0].order.shape
    block = max(GATHER_ROWS // batch_size, 1) * batch_size
    bufs = [np.empty((lanes, block, *g.sources[0].shape[1:]), g.sources[0].dtype)
            for g in inputs]
    sums, batches = 0.0, 0
    for a in range(0, n_rows, block):
        b = min(a + block, n_rows)
        for g, buf in zip(inputs, bufs):
            for s, src in enumerate(g.sources):
                pos = g.order[s, a:b] if g.rows is None else g.rows[s][g.order[s, a:b]]
                # positions are drawn in range: "clip" writes into `out` unbuffered
                src.take(pos, axis=0, out=buf[s, :b - a], mode="clip")
        for start in range(0, b - a, batch_size):
            cut = slice(start, min(start + batch_size, b - a))
            at = (slice(None), cut) if lanes > 1 else (0, cut)
            try:
                losses = step(*(buf[at] for buf in bufs))
            except Exception as e:
                kind = DivergenceError if isinstance(e, DivergenceError) else RuntimeError
                raise kind(f"{where}, batch {batches}: {e}") from e
            sums = sums + np.asarray(losses).reshape(-1, lanes)
            batches += 1
    return sums / batches


def _ce_epoch(sts: list[RunState], sources: list[tuple], batch_size: int,
              where: str) -> np.ndarray:
    """One epoch of cross-entropy steps of a copy of each lane's classifier,
    in place: lane s trains on rows `rows` of `x` with labels `labels`,
    sources[s] being (x, rows, labels), gathered by `_epoch` a block of
    batches at a time. Warm-up, baseline and margin oracle. Returns the
    batch-mean loss per lane."""
    theta, opt = _stacked(sts, "theta").copy(), _stacked(sts, "opt_theta")
    grad = theta.blank()

    def step(x, y):
        return (ce_step(theta, x, y, opt, grad=grad, out=theta)[1],)

    order = np.array([st.rng.permutation(sources[0][1].size) for st in sts], dtype=np.int32)
    xs, rows, labels = zip(*sources)
    losses = _epoch((_Gather(xs, rows, order), _Gather(labels, None, order)),
                    batch_size, where, step)[0]
    _unstack(sts, theta=theta, opt_theta=opt)
    return losses


class _Phase2Rows(typing.NamedTuple):
    """A lane's phase-2 inputs beside its view, fixed for one _train call:
    the features of its train rows and the one-hot labels of its meta rows
    (built once, then gathered by `_epoch` a block of batches at a time)."""

    feats: np.ndarray
    meta_y: np.ndarray

    @classmethod
    def of(cls, cfg: TrainConfig, ln: _Lane) -> "_Phase2Rows":
        """Also begins the lane's phase 2 (`RunState.begin_phase2`) if need be."""
        st, v = ln.st, ln.view
        if st.extractor is None:
            st.begin_phase2(cfg)
        # one block of rows and its activations at a time: a whole split's would
        # be several times the features and the peak of a large run. Logits
        # come from a narrow product, which stays in one piece (map_row_blocks)
        ex, mode = st.extractor, cfg.extractor_features
        feats = (extract_features(ex, v.x[v.train], mode) if mode == "logits" else
                 map_row_blocks(lambda x: extract_features(ex, x, mode), v.x, v.train, ex.out_dim))
        return cls(feats, one_hot(v.scored[dt.META][1], v.n_classes))


def _phase2_epoch(cfg: TrainConfig, lanes: list[_Lane], inputs: list[_Phase2Rows],
                  where: str) -> np.ndarray:
    """One phase-2 epoch of every lane: per batch the meta step, then the
    classifier step. Each lane's rng draws the epoch's plan before the first
    batch: a permutation of the train rows, then as many permutations of the
    meta rows, one after another, as cover the train rows, cut at their
    count, so every batch pairs train rows with as many meta rows. The plan
    holds int32 positions: a Dataset holds under 2**31 rows. The epoch
    steps copies of the lanes' classifiers and generators in place, and
    binds the other networks a batch writes once, so a batch builds none.
    Returns the batch-mean (L_c, L_e, L_meta, similarity) per lane, (4, S)."""
    sts, views = [ln.st for ln in lanes], [ln.view for ln in lanes]
    theta, opt_theta = _stacked(sts, "theta").copy(), _stacked(sts, "opt_theta")
    labeler, opt_phi = _stacked(sts, "labeler").copy(), _stacked(sts, "opt_phi")
    work, grad = MetaWork.like(theta, labeler), theta.blank()
    n, n_meta = views[0].train.size, views[0].scored[dt.META][0].size
    order = np.array([st.rng.permutation(n) for st in sts], dtype=np.int32)
    meta = np.array([np.concatenate([st.rng.permutation(n_meta)
                                     for _ in range(-(-n // n_meta))])[:n] for st in sts],
                    dtype=np.int32)

    def step(x, v, mx, my):
        _, report, fwd = meta_step(labeler, theta, x, v, mx, my, inner_lr=cfg.inner_lr,
                                   optimizer=opt_phi, work=work, out=labeler)
        _, lc, le = conventional_step(theta, labeler, fwd, v, opt_theta,
                                      use_entropy=cfg.entropy_loss, grad=grad, out=theta)
        return lc, le, report.meta_loss, report.mean_similarity

    xs = [v.x for v in views]
    losses = _epoch((_Gather(xs, [v.train for v in views], order),
                     _Gather([inp.feats for inp in inputs], None, order),
                     _Gather(xs, [v.scored[dt.META][0] for v in views], meta),
                     _Gather([inp.meta_y for inp in inputs], None, meta)),
                    cfg.batch_size, where, step)
    _unstack(sts, theta=theta, opt_theta=opt_theta, labeler=labeler, opt_phi=opt_phi)
    return losses


def _label_drift(after: Mlp, before: Mlp, feats: np.ndarray) -> np.ndarray:
    """|softmax(after) - softmax(before)| on every row of feats, per class.
    The soft labels before an epoch are recomputed, not kept. Each
    generator's logits are one piece: the generator is a narrow product
    (map_row_blocks). The softmaxes, the difference and its magnitude run
    in place, one block of `row_blocks` at a time, so this holds the two
    (rows, classes) logits arrays plus one block of transients."""
    drift = mlp_logits(after.layers, feats)
    prior = mlp_logits(before.layers, feats)
    for a, b in row_blocks(len(feats)):
        block = drift[a:b]
        softmax(block, out=block)
        block -= softmax(prior[a:b], out=prior[a:b])
        np.abs(block, out=block)
    return drift


def _moments(drift: np.ndarray) -> list[float]:
    """The mean and the variance of `drift`, with the bits of drift.mean()
    and drift.var(). The deviations are squared in place, so no second
    array of drift's size is made; `drift` is overwritten."""
    mean = np.add.reduce(drift, axis=None) / drift.size
    drift -= mean
    drift *= drift
    return [float(mean), float(np.add.reduce(drift, axis=None) / drift.size)]


def _train(lanes: list[_Lane], until: int, phase2: bool) -> list[RunState]:
    """Train every lane from its epoch_next up to epoch `until`, in lockstep.

    The lanes share the train.* fields of their configs (the first lane's
    are used) and their epoch_next, and their views share shapes. With
    phase2, epochs before cfg.warmup_epochs are cross-entropy warm-up and
    later ones phase 2 (meta step, then classifier step); without, every
    epoch is the cross-entropy baseline. After each epoch every lane is
    evaluated on all three splits, keeps the classifier with its best meta
    accuracy (earliest epoch on ties), logs its row and passes it to its
    `on_epoch`, and writes its checkpoint when it has a path. A row's
    wall_time is the group's epoch time divided by the number of lanes.
    Returns the lanes' RunStates.
    """
    nan = float("nan")
    cfg, sts = lanes[0].cfg, [ln.st for ln in lanes]
    sources = [(ln.view.x, *ln.view.scored[dt.TRAIN]) for ln in lanes]
    inputs = None
    for epoch in range(sts[0].epoch_next, until):
        t0 = time.perf_counter()
        for st in sts:  # the one place the classifier's rate is set
            st.opt_theta.lr = lr_at(cfg.lr_schedule, epoch)
        if not phase2 or epoch < cfg.warmup_epochs:
            phase, label = ("warmup", "warm-up") if phase2 else ("baseline", "baseline")
            loss_c = _ce_epoch(sts, sources, cfg.batch_size, f"epoch {epoch} ({label})")
            losses = [[float(v), nan, nan, nan, nan, nan] for v in loss_c]
        else:
            phase = "phase2"
            if inputs is None:
                inputs = [_Phase2Rows.of(cfg, ln) for ln in lanes]
            before = [st.labeler for st in sts]
            epoch_losses = _phase2_epoch(cfg, lanes, inputs, f"epoch {epoch}")
            losses = []
            for s, (st, inp) in enumerate(zip(sts, inputs)):
                drift = _label_drift(st.labeler, before[s], inp.feats)
                losses.append([float(v) for v in epoch_losses[:, s]] + _moments(drift))
                del drift  # one lane's drift at a time, and none while evaluate runs

        accs = [[evaluate(ln.st.theta, ln.view, split) for split in dt.SPLITS] for ln in lanes]
        wall_time = (time.perf_counter() - t0) / len(lanes)
        for ln, lane_accs, lane_losses in zip(lanes, accs, losses):
            st = ln.st
            if lane_accs[1] > st.best_meta_acc:
                st.theta_best = st.theta.copy()
            row = EpochRow(epoch, phase, *lane_accs, *lane_losses, wall_time)
            st.log.append(row)
            if ln.on_epoch is not None:
                ln.on_epoch(row)
            if ln.checkpoint_path is not None:
                save_checkpoint(ln.checkpoint_path, ln.cfg, st)
    return sts


# ---------------------------------------------------------------------------
# entry points


def check_view(cfg: TrainConfig, view: TrainView, baseline: bool = False) -> TrainView:
    """The view, refused before a run writes unless the run can use it: each
    split needs a labeled row (else the data.path file or the key that emptied
    it is named) and, but for the baseline, the meta split a whole batch."""
    for split, name in zip(dt.SPLITS, ("unlabeled_fraction", "meta_frac", "test_frac")):
        if view.scored[split][0].size == 0:
            keyed = cfg.dataset_path is None or (split == dt.TRAIN and cfg.unlabeled_fraction > 0)
            raise ConfigError(
                f"{_WIRE_NAME[name]} {getattr(cfg, name)} leaves no labeled {split} rows" if keyed
                else f"{cfg.dataset_path}: no labeled {split} rows")
    meta_size = view.scored[dt.META][0].size
    if not baseline and cfg.batch_size > meta_size:
        raise ConfigError(
            f"train.batch_size {cfg.batch_size} exceeds meta split size {meta_size}")
    return view


def _count_steps(cfg: TrainConfig, view: TrainView, st: RunState) -> None:
    """Set st's step counts to those its logged epochs made on the view, one
    a batch: warm-up steps the classifier over the labeled train rows, phase
    2 the classifier and the generator over all train rows."""
    labeled, rows = (-(-idx.size // cfg.batch_size)
                     for idx in (view.scored[dt.TRAIN][0], view.train))
    warmup = min(st.epoch_next, cfg.warmup_epochs)
    phase2 = (st.epoch_next - warmup) * rows
    st.opt_theta.step_count = warmup * labeled + phase2
    if st.opt_phi is not None:
        st.opt_phi.step_count = phase2


def summary(cfg: TrainConfig, st: RunState) -> dict:
    """The summary.json body of a finished run; its test accuracies are logged ones."""
    return {
        "schema_version": 1,
        "selected_epoch": st.best_epoch,
        "meta_accuracy": st.best_meta_acc,
        "test_accuracy": st.log[st.best_epoch].test_acc,
        "final_test_accuracy": st.log[-1].test_acc,
        "config_hash": cfg.config_hash(),
    }


def run_experiment(cfg: TrainConfig, view: TrainView | None = None,
                   checkpoint_path: str | None = None,
                   state: RunState | None = None,
                   on_epoch=None) -> RunState:
    """Warm-up, then phase-2 epochs, a group of one lane, on `view` (by
    default the view of the config's dataset), refused first by
    `check_view`. Returns the run's RunState: `theta` is the last epoch's
    classifier, `theta_best` the kept one.

    With checkpoint_path set, the run state is written after every epoch.
    A `state` read back by load_checkpoint continues that run bit-exactly
    (its step counts are counted on this view); without one the run
    starts fresh. `on_epoch(row)` runs after each
    logged epoch (for incremental metrics flushing); failures abort with
    epoch/batch context.
    """
    view = check_view(cfg, view if view is not None else build_dataset(cfg).view())
    st = state if state is not None else RunState.fresh(cfg, view.dims, view.n_classes)
    _count_steps(cfg, view, st)
    return _train([_Lane(cfg, view, st, checkpoint_path, on_epoch)], cfg.total_epochs, True)[0]


def baseline_ce(cfg: TrainConfig, view: TrainView | None = None) -> RunState:
    """Plain cross-entropy on noisy labels with the identical budget,
    schedule and model-selection protocol; the comparison baseline."""
    view = check_view(cfg, view if view is not None else build_dataset(cfg).view(),
                      baseline=True)
    st = RunState.fresh(cfg, view.dims, view.n_classes)
    return _train([_Lane(cfg, view, st)], cfg.total_epochs, False)[0]


def _shape_key(view: TrainView) -> tuple:
    return (view.dims, view.n_classes, view.train.size,
            *(rows.size for rows, _ in view.scored.values()))


def run_experiments(cfgs: list[TrainConfig], datasets: list[Dataset] | None = None, *,
                    baseline: bool = False, on_group=None) -> list:
    """`run_experiment` (or, with baseline, `baseline_ce`) for every config;
    returns, per config, its finished RunState or the exception it raised.

    Configs that agree on everything but seed, noise.* and data.path, and
    whose datasets agree in dims, classes and the row counts of each split
    and of labeled train rows, train as lanes of one group of at most
    LANES_MAX, in config order. If any lane of a group raises, each of the
    group's lanes reruns alone, so every config ends exactly as it would
    alone. Without `datasets`, each group's datasets are built (margin
    oracles as lanes) when the group trains and dropped after. After each
    group, `on_group(indices, outcomes, lanes rerun alone)` gets its
    configs' indices and outcomes. A config whose view `check_view`
    refuses gets that error and does not train.
    """
    out: list = [None] * len(cfgs)
    views: dict[int, TrainView] = {}

    def train(group):
        return _train([_Lane(cfgs[i], views[i], RunState.fresh(cfgs[i], views[i].dims,
                                                               views[i].n_classes))
                       for i in group], cfgs[group[0]].total_epochs, not baseline)

    for chunk in _groups(list(range(len(cfgs))), lambda i: _lane_key(cfgs[i])):
        built = (build_datasets([cfgs[i] for i in chunk]) if datasets is None
                 else [datasets[i] for i in chunk])
        for i, ds in zip(chunk, built):
            out[i] = ds if isinstance(ds, Exception) else (
                _outcome(check_view, cfgs[i], ds.view(), baseline))
            if not isinstance(out[i], Exception):
                views[i] = out[i]
        del built, ds  # the runs hold only their views
        for group in _groups([i for i in chunk if i in views], lambda i: _shape_key(views[i])):
            results, reran = _lanes_or_alone(train, group)
            for i, result in zip(group, results):
                out[i] = result
                del views[i]
            if on_group is not None:
                on_group(group, results, reran)
    return out

