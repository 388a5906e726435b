"""End-to-end training: one run state, one epoch loop and one batch loop
serve warm-up, phase 2 (meta step, then classifier step), the baseline and
the margin oracle; meta-data model selection, metrics and checkpoints.

One run is a pure function of its TrainConfig: every random draw flows from
the config seed through named substreams, so repeat runs agree bit-exactly
and a checkpoint, which is the run state serialised, restores it exactly.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import data as dt
from .data import Dataset, load_dataset
from .meta import FeatureExtractor, SoftLabeler, ce_step, conventional_step, meta_step
from .nn import (
    OPTIMIZERS,
    DivergenceError,
    Mlp,
    init_mlp,
    make_optimizer,
    mlp_logits,
    one_hot,
    softmax,
)

CHECKPOINT_VERSION = 1
EVAL_CHUNK = 4096  # rows per forward pass in evaluate; bounds its peak memory


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
        if self.extractor_features not in ("penultimate", "logits"):
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


def write_metrics_csv(rows: list[EpochRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        writer.writerows(metrics_row(r) for r in rows)


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


def train_margin_oracle(ds: Dataset, hidden: list[int], seed: int,
                        epochs: int = 50, batch_size: int = 64,
                        lr: float = 1e-2) -> Mlp:
    """Clean-label classifier used only to score decision-boundary margins
    for feature-dependent noise."""
    rng = np.random.default_rng(seed)
    net = init_mlp([ds.dims] + list(hidden) + [ds.n_classes], rng)
    st = RunState(theta=net, opt_theta=make_optimizer("sgd-momentum", _shapes(net), lr=lr),
                  rng=rng)
    idx = ds.indices(dt.TRAIN)
    x, labels = ds.x[idx], ds.y_clean[idx]
    for epoch in range(epochs):
        _ce_epoch(st, x, labels, batch_size, f"margin oracle epoch {epoch}")
    return st.theta


def build_dataset(cfg: TrainConfig) -> Dataset:
    """Synthesize (or load), split, inject noise, mark unlabeled — all
    deterministic functions of the config."""
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
    spec = dt.NoiseSpec(cfg.noise_kind, cfg.noise_ratio, seeds["noise"])
    if spec.ratio > 0.0:
        if spec.kind == "uniform":
            ds = dt.inject_uniform(ds, spec.ratio, spec.seed)
        else:
            oracle = train_margin_oracle(ds, cfg.hidden, seeds["oracle"],
                                         epochs=cfg.oracle_epochs,
                                         batch_size=cfg.batch_size)
            ds = dt.inject_feature_dependent(ds, spec.ratio, oracle, spec.seed)
    if cfg.unlabeled_fraction > 0.0:
        ds = dt.mark_unlabeled(ds, cfg.unlabeled_fraction, seeds["unlabeled"])
    return ds


def evaluate(theta: Mlp, ds: Dataset, split: str) -> float:
    """Argmax accuracy: against clean labels on meta/test, against the noisy
    labels of labeled rows on train. Runs EVAL_CHUNK rows at a time."""
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
    for start in range(0, idx.size, EVAL_CHUNK):
        logits = mlp_logits(theta.layers, ds.x[idx[start:start + EVAL_CHUNK]])
        hits += int(np.count_nonzero(logits.argmax(axis=1) == y[start:start + EVAL_CHUNK]))
    return hits / idx.size


def mean_prediction_entropy(theta: Mlp, ds: Dataset, split: str) -> float:
    """Batch-mean Shannon entropy of softmax predictions on a split."""
    p = softmax(mlp_logits(theta.layers, ds.x[ds.indices(split)]))
    p = np.clip(p, 1e-300, 1.0)
    return float(-(p * np.log(p)).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# run state and its checkpoint codec


def _shapes(net) -> list[tuple[int, ...]]:
    return [p.shape for p in net.params()]


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
    labeler: SoftLabeler | None = None
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
        opt = make_optimizer(cfg.classifier_optimizer, _shapes(theta),
                             lr=lr_at(cfg.lr_schedule, 0), weight_decay=cfg.weight_decay)
        return cls(theta=theta, opt_theta=opt, rng=np.random.default_rng(seeds["run"]),
                   theta_best=theta.copy())


def _mat_to_json(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "hex": [v.hex() for v in a.ravel().tolist()]}


def _mat_from_json(d: dict) -> np.ndarray:
    vals = [float.fromhex(h) for h in d["hex"]]
    return np.array(vals, dtype=np.float64).reshape(d["shape"])


def _layers_to_json(layers) -> list[dict]:
    return [{"w": _mat_to_json(w), "b": _mat_to_json(b)} for w, b in layers]


def _layers_from_json(d: list[dict]) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(_mat_from_json(l["w"]), _mat_from_json(l["b"])) for l in d]


def _opt_to_json(opt) -> dict:
    out = opt.state()
    for k in opt.HYPER:
        out[k] = float(out[k]).hex()
    for k in opt.BUFFERS:
        out[k] = [_mat_to_json(a) for a in out[k]]
    return out


def _opt_from_json(d: dict):
    cls = OPTIMIZERS[d["kind"]]
    state = dict(d)
    for k in cls.HYPER:
        state[k] = float.fromhex(d[k])
    for k in cls.BUFFERS:
        state[k] = [_mat_from_json(a) for a in d[k]]
    opt = cls([a.shape for a in state[cls.BUFFERS[0]]], lr=state["lr"])
    opt.load_state(state)
    return opt


def _rng_from_json(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def _optional(f):
    return lambda v: None if v is None else f(v)


def _same(v):
    return v


_MLP = (lambda m: {"layers": _layers_to_json(m.layers)},
        lambda d: Mlp(_layers_from_json(d["layers"])))

# RunState field, checkpoint key, encoder, decoder; in the order of the file
_CODEC = [
    ("epoch_next", "epoch_next", _same, _same),
    ("theta", "theta", *_MLP),
    ("theta_best", "theta_best", *_MLP),
    ("best_epoch", "best_epoch", _same, _same),
    ("best_meta_acc", "best_meta_acc", float.hex, float.fromhex),
    ("labeler", "labeler", _optional(lambda s: _layers_to_json([s.params()])[0]),
     _optional(lambda d: SoftLabeler(*_layers_from_json([d])[0]))),
    ("extractor", "extractor",
     _optional(lambda e: {"mode": e.mode, "in_dim": e.in_dim,
                          "layers": _layers_to_json(e.layers)}),
     _optional(lambda d: FeatureExtractor(_layers_from_json(d["layers"]), d["mode"],
                                          d["in_dim"]))),
    ("opt_theta", "opt_theta", _opt_to_json, _opt_from_json),
    ("opt_phi", "opt_phi", _optional(_opt_to_json), _optional(_opt_from_json)),
    ("rng", "rng_state", lambda r: r.bit_generator.state, _rng_from_json),
    ("log", "log", lambda rows: [asdict(r) for r in rows],
     lambda rows: [EpochRow(**r) for r in rows]),
]


def save_checkpoint(path: str, cfg: TrainConfig, state: RunState) -> None:
    """Write the run state atomically (temporary file, then rename)."""
    blob = {"version": CHECKPOINT_VERSION, "config_hash": cfg.config_hash()}
    blob.update((key, enc(getattr(state, name))) for name, key, enc, _ in _CODEC)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(blob))
    os.replace(tmp, path)


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
    try:
        return RunState(**{name: dec(blob[key]) for name, key, _, dec in _CODEC})
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ValueError(f"checkpoint {path} is malformed: {e!r}") from e


# ---------------------------------------------------------------------------
# training


def _epoch(n_rows: int, batch_size: int, rng: np.random.Generator, where: str,
           step) -> list[float]:
    """One pass over n_rows rows in a fresh shuffled order: `step(positions)`
    trains on one batch and returns its losses. Returns the batch-mean
    losses. A failure is restated as "where, batch B: ..."; a divergence
    keeps its type (and exit code), anything else becomes a RuntimeError."""
    order = rng.permutation(n_rows)
    sums, batches = 0.0, 0
    for start in range(0, n_rows, batch_size):
        try:
            losses = step(order[start:start + batch_size])
        except Exception as e:
            kind = DivergenceError if isinstance(e, DivergenceError) else RuntimeError
            raise kind(f"{where}, batch {batches}: {e}") from e
        sums = sums + np.asarray(losses)
        batches += 1
    return [float(v) for v in sums / batches]


def _ce_epoch(st: RunState, x: np.ndarray, labels: np.ndarray, batch_size: int,
              where: str) -> float:
    """One epoch of cross-entropy steps of st.theta on the rows (x, labels):
    warm-up, baseline and margin oracle. Returns the batch-mean loss."""
    def step(pos):
        st.theta, loss = ce_step(st.theta, x[pos], labels[pos], st.opt_theta)
        return (loss,)
    return _epoch(len(x), batch_size, st.rng, where, step)[0]


def _noisy_rows(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Features and noisy labels of the labeled train rows."""
    idx = ds.labeled_train_indices()
    if idx.size == 0:
        raise ValueError("no labeled train rows")
    return ds.x[idx], ds.train_labels(idx)


class _MetaSampler:
    """Cycles an epoch-shuffled order over the meta split; the first order
    is drawn at the first draw."""

    def __init__(self, meta_idx: np.ndarray, rng: np.random.Generator):
        self.meta_idx = meta_idx
        self.rng = rng
        self.order = meta_idx[:0]
        self.cursor = 0

    def draw(self, n: int) -> np.ndarray:
        out = []
        while len(out) < n:
            if self.cursor == self.order.size:
                self.order = self.rng.permutation(self.meta_idx.size)
                self.cursor = 0
            take = min(n - len(out), self.order.size - self.cursor)
            out.extend(self.order[self.cursor:self.cursor + take])
            self.cursor += take
        return self.meta_idx[np.asarray(out)]


def _train(cfg: TrainConfig, ds: Dataset, st: RunState, until: int, phase2: bool,
           checkpoint_path: str | None = None, on_epoch=None) -> RunState:
    """Train st from st.epoch_next up to epoch `until`.

    With phase2, epochs before cfg.warmup_epochs are cross-entropy warm-up
    and later ones phase 2 (meta step, then classifier step); without, every
    epoch is the cross-entropy baseline. Each epoch is evaluated on all three
    splits, the classifier with the best meta accuracy is kept (earliest
    epoch on ties), the row is logged and passed to `on_epoch`, and with
    checkpoint_path set the state is written.
    """
    nan = float("nan")
    train_idx = ds.indices(dt.TRAIN)
    feats = prev_soft = None
    for epoch in range(st.epoch_next, until):
        t0 = time.perf_counter()
        lam = lr_at(cfg.lr_schedule, epoch)
        st.opt_theta.lr = lam
        if not phase2 or epoch < cfg.warmup_epochs:
            phase, label = ("warmup", "warm-up") if phase2 else ("baseline", "baseline")
            loss_c = _ce_epoch(st, *_noisy_rows(ds), cfg.batch_size, f"epoch {epoch} ({label})")
            losses = [loss_c, nan, nan, nan, nan, nan]
        else:
            phase = "phase2"
            if st.extractor is None:
                st.extractor = FeatureExtractor.from_classifier(st.theta, cfg.extractor_features)
                st.labeler = SoftLabeler.zeros(st.extractor.n_features, ds.n_classes)
                st.opt_phi = make_optimizer(cfg.metanet_optimizer, _shapes(st.labeler),
                                            lr=cfg.meta_lr, weight_decay=cfg.weight_decay)
            if feats is None:
                feats = st.extractor(ds.x[train_idx])
                prev_soft = st.labeler.soft_labels(feats)
            sampler = _MetaSampler(ds.indices(dt.META), st.rng)

            def step(pos):
                rows = train_idx[pos]
                x, v = ds.x[rows], feats[pos]
                m_rows = sampler.draw(rows.size)
                st.labeler, report = meta_step(
                    st.labeler, st.theta, x, v, ds.x[m_rows],
                    one_hot(ds.y_clean[m_rows], ds.n_classes),
                    inner_lr=cfg.inner_lr, optimizer=st.opt_phi)
                st.theta, lc, le = conventional_step(
                    st.theta, st.labeler, x, v, lam, st.opt_theta,
                    use_entropy=cfg.entropy_loss)
                return lc, le, report.meta_loss, report.mean_similarity

            losses = _epoch(train_idx.size, cfg.batch_size, st.rng, f"epoch {epoch}", step)
            cur_soft = st.labeler.soft_labels(feats)
            diff = np.abs(cur_soft - prev_soft)
            losses += [float(diff.mean()), float(diff.var())]
            prev_soft = cur_soft

        accs = [evaluate(st.theta, ds, split) for split in (dt.TRAIN, dt.META, dt.TEST)]
        if accs[1] > st.best_meta_acc:
            st.best_meta_acc, st.best_epoch = accs[1], epoch
            st.theta_best = st.theta.copy()
        row = EpochRow(epoch, phase, *accs, *losses, time.perf_counter() - t0)
        st.log.append(row)
        st.epoch_next = epoch + 1
        if on_epoch is not None:
            on_epoch(row)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, cfg, st)
    return st


# ---------------------------------------------------------------------------
# entry points


@dataclass
class ExperimentResult:
    config: TrainConfig
    log: list[EpochRow]
    theta_best: Mlp
    theta_final: Mlp
    labeler: SoftLabeler | None
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


def _result(cfg: TrainConfig, ds: Dataset, st: RunState) -> ExperimentResult:
    return ExperimentResult(
        config=cfg, log=st.log, theta_best=st.theta_best, theta_final=st.theta,
        labeler=st.labeler, best_epoch=st.best_epoch, best_meta_acc=st.best_meta_acc,
        test_acc_selected=evaluate(st.theta_best, ds, dt.TEST),
        test_acc_final=evaluate(st.theta, ds, dt.TEST))


def run_experiment(cfg: TrainConfig, dataset: Dataset | None = None,
                   checkpoint_path: str | None = None,
                   state: RunState | None = None,
                   on_epoch=None) -> ExperimentResult:
    """Warm-up, then phase-2 epochs; per-epoch metrics; keep the classifier
    with the best meta accuracy and score it on test.

    With checkpoint_path set, the run state is written after every epoch.
    A `state` read back by load_checkpoint continues that run bit-exactly;
    without one the run starts fresh. `on_epoch(row)` runs after each
    logged epoch (for incremental metrics flushing); failures abort with
    epoch/batch context.
    """
    ds = dataset if dataset is not None else build_dataset(cfg)
    meta_size = ds.indices(dt.META).size
    if cfg.batch_size > meta_size:
        raise ConfigError(
            f"train.batch_size {cfg.batch_size} exceeds meta split size {meta_size}")
    st = state if state is not None else RunState.fresh(cfg, ds)
    return _result(cfg, ds, _train(cfg, ds, st, cfg.total_epochs, True,
                                   checkpoint_path, on_epoch))


def baseline_ce(cfg: TrainConfig, dataset: Dataset | None = None) -> ExperimentResult:
    """Plain cross-entropy on noisy labels with the identical budget,
    schedule and model-selection protocol; the comparison baseline."""
    ds = dataset if dataset is not None else build_dataset(cfg)
    return _result(cfg, ds, _train(cfg, ds, RunState.fresh(cfg, ds), cfg.total_epochs, False))


def warmup_phase(cfg: TrainConfig, ds: Dataset) -> Mlp:
    """The classifier after cfg.warmup_epochs of cross-entropy on the noisy
    labels of labeled rows, exactly as a full run has it at warm-up end."""
    return _train(cfg, ds, RunState.fresh(cfg, ds), cfg.warmup_epochs, True).theta
