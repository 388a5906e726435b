"""End-to-end training: warm-up, extractor cloning, per-batch three-step
iteration, schedules, meta-data model selection, metrics and checkpoints.

One run is a pure function of its TrainConfig: every random draw flows from
the config seed through named substreams, so repeat runs agree bit-exactly
and a checkpoint restores the exact mid-run state.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import data as dt
from .data import Dataset, load_dataset
from .engine import Tensor, no_grad, softmax
from .meta import FeatureExtractor, SoftLabeler, ce_step, conventional_step, meta_step
from .nn import DivergenceError, Mlp, init_mlp, make_optimizer, mlp_logits, one_hot

CHECKPOINT_VERSION = 1

METRICS_COLUMNS = [
    "epoch", "phase", "train_acc", "meta_acc", "test_acc",
    "loss_c", "loss_e", "loss_meta", "mean_similarity",
    "label_diff_mean", "label_diff_var", "wall_time",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# ---------------------------------------------------------------------------
# configuration


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
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(
                f"train.warmup_epochs must satisfy 0 <= warmup < total "
                f"({self.warmup_epochs} vs {self.total_epochs})")
        sched = self.lr_schedule
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
            if getattr(self, name) not in ("sgd-momentum", "adam", "adaptive-moment"):
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
        return {
            "schema_version": 1,
            "seed": self.seed,
            "data": {
                "n": self.n, "dims": self.dims, "classes": self.classes,
                "center_scale": self.center_scale,
                "train_frac": self.train_frac, "meta_frac": self.meta_frac,
                "test_frac": self.test_frac, "path": self.dataset_path,
            },
            "noise": {"kind": self.noise_kind, "ratio": self.noise_ratio},
            "model": {"hidden": list(self.hidden)},
            "train": {
                "batch_size": self.batch_size,
                "warmup_epochs": self.warmup_epochs,
                "total_epochs": self.total_epochs,
                "lr_schedule": [list(p) for p in self.lr_schedule],
                "meta_lr": self.meta_lr, "inner_lr": self.inner_lr,
                "classifier_optimizer": self.classifier_optimizer,
                "metanet_optimizer": self.metanet_optimizer,
                "weight_decay": self.weight_decay,
                "entropy_loss": self.entropy_loss,
                "unlabeled_fraction": self.unlabeled_fraction,
                "extractor_features": self.extractor_features,
                "oracle_epochs": self.oracle_epochs,
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if raw.get("schema_version") != 1:
            raise ConfigError("config requires schema_version = 1")
        sections = {"schema_version", "seed", "data", "noise", "model", "train"}
        unknown = set(raw) - sections
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        def take(section: str, allowed: dict) -> dict:
            src = raw.get(section, {})
            if not isinstance(src, dict):
                raise ConfigError(f"{section} must be an object")
            bad = set(src) - set(allowed)
            if bad:
                raise ConfigError(f"unknown keys in {section}: {sorted(bad)}")
            return {allowed[k]: v for k, v in src.items()}

        kwargs: dict = {}
        if "seed" in raw:
            kwargs["seed"] = raw["seed"]
        kwargs.update(take("data", {
            "n": "n", "dims": "dims", "classes": "classes",
            "center_scale": "center_scale", "train_frac": "train_frac",
            "meta_frac": "meta_frac", "test_frac": "test_frac",
            "path": "dataset_path"}))
        kwargs.update(take("noise", {"kind": "noise_kind", "ratio": "noise_ratio"}))
        kwargs.update(take("model", {"hidden": "hidden"}))
        kwargs.update(take("train", {
            "batch_size": "batch_size", "warmup_epochs": "warmup_epochs",
            "total_epochs": "total_epochs", "lr_schedule": "lr_schedule",
            "meta_lr": "meta_lr", "inner_lr": "inner_lr",
            "classifier_optimizer": "classifier_optimizer",
            "metanet_optimizer": "metanet_optimizer",
            "weight_decay": "weight_decay", "entropy_loss": "entropy_loss",
            "unlabeled_fraction": "unlabeled_fraction",
            "extractor_features": "extractor_features",
            "oracle_epochs": "oracle_epochs"}))
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


def write_metrics_csv(rows: list[EpochRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for r in rows:
            d = asdict(r)
            writer.writerow([d["epoch"], d["phase"]]
                            + [repr(float(d[c])) for c in METRICS_COLUMNS[2:]])


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
    opt = make_optimizer("sgd-momentum", [p.shape for p in net.params()], lr=lr)
    idx = ds.indices(dt.TRAIN)
    x, labels = ds.x[idx], ds.y_clean[idx]
    for epoch in range(epochs):
        net, _ = _ce_epoch(net, x, labels, opt, batch_size, rng,
                           f"margin oracle epoch {epoch}")
    return net


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
    labels of labeled rows on train."""
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
    logits = mlp_logits([(w.value, b.value) for w, b in theta.layers], ds.x[idx])
    return float((logits.argmax(axis=1) == y).mean())


def mean_prediction_entropy(theta: Mlp, ds: Dataset, split: str) -> float:
    """Batch-mean Shannon entropy of softmax predictions on a split."""
    idx = ds.indices(split)
    with no_grad():
        logits, _ = theta.forward(Tensor(ds.x[idx]))
        p = softmax(logits).value
    p = np.clip(p, 1e-300, 1.0)
    return float(-(p * np.log(p)).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# training phases


def clone_extractor(theta: Mlp, mode: str = "penultimate") -> FeatureExtractor:
    """Deep-frozen encoder from the warm-up classifier; later classifier
    training never changes its outputs."""
    return FeatureExtractor.from_classifier(theta, mode)


def _in_context(where: str, err: Exception) -> Exception:
    """`err` restated with where in the run it happened; a divergence keeps
    its type (and exit code), anything else becomes a RuntimeError."""
    kind = DivergenceError if isinstance(err, DivergenceError) else RuntimeError
    return kind(f"{where}: {err}")


def _noisy_rows(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Features and noisy labels of the labeled train rows."""
    idx = ds.labeled_train_indices()
    if idx.size == 0:
        raise ValueError("no labeled train rows")
    return ds.x[idx], ds.train_labels(idx)


def _ce_epoch(theta: Mlp, x: np.ndarray, labels: np.ndarray, opt, batch_size: int,
              rng: np.random.Generator, where: str) -> tuple[Mlp, float]:
    """One epoch of cross-entropy steps over the rows (x, labels) in a fresh
    shuffled order: warm-up, baseline and margin-oracle training. Returns the
    classifier and the batch-mean loss; failures name `where` and the batch."""
    order = rng.permutation(len(x))
    total, batches = 0.0, 0
    for start in range(0, len(x), batch_size):
        pos = order[start:start + batch_size]
        try:
            theta, loss = ce_step(theta, x[pos], labels[pos], opt)
        except Exception as e:
            raise _in_context(f"{where}, batch {batches}", e) from e
        total += loss
        batches += 1
    return theta, total / batches


def warmup_phase(cfg: TrainConfig, ds: Dataset) -> Mlp:
    """Standalone warm-up: cfg.warmup_epochs of momentum-SGD cross-entropy
    on noisy labels of labeled rows. Returns the classifier at warm-up end."""
    seeds = derive_seeds(cfg.seed)
    rng = np.random.default_rng(seeds["run"])
    theta = init_mlp([ds.dims] + list(cfg.hidden) + [ds.n_classes],
                     np.random.default_rng(seeds["init"]))
    opt = make_optimizer(cfg.classifier_optimizer, [p.shape for p in theta.params()],
                         lr=lr_at(cfg.lr_schedule, 0), weight_decay=cfg.weight_decay)
    x, labels = _noisy_rows(ds)
    for epoch in range(cfg.warmup_epochs):
        opt.lr = lr_at(cfg.lr_schedule, epoch)
        theta, _ = _ce_epoch(theta, x, labels, opt, cfg.batch_size, rng,
                             f"epoch {epoch} (warm-up)")
    return theta


class _MetaSampler:
    """Cycles an epoch-shuffled order over the meta split."""

    def __init__(self, meta_idx: np.ndarray, rng: np.random.Generator):
        self.meta_idx = meta_idx
        self.rng = rng
        self.order = rng.permutation(meta_idx.size)
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


# ---------------------------------------------------------------------------
# experiment driver


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


def _mat_to_json(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "hex": [float(v).hex() for v in a.ravel()]}


def _mat_from_json(d: dict) -> np.ndarray:
    vals = [float.fromhex(h) for h in d["hex"]]
    return np.array(vals, dtype=np.float64).reshape(d["shape"])


def _mlp_to_json(net: Mlp) -> dict:
    return {"layers": [{"w": _mat_to_json(w.value), "b": _mat_to_json(b.value)}
                       for w, b in net.layers]}


def _mlp_from_json(d: dict) -> Mlp:
    return Mlp([(Tensor(_mat_from_json(l["w"])), Tensor(_mat_from_json(l["b"])))
                for l in d["layers"]])


_OPT_FLOAT_KEYS = {"lr", "momentum", "weight_decay", "beta1", "beta2", "eps"}
_OPT_ARRAY_KEYS = {"buffers", "m", "v"}


def _opt_state_to_json(state: dict) -> dict:
    out = {}
    for k, v in state.items():
        if k in _OPT_FLOAT_KEYS:
            out[k] = float(v).hex()
        elif k in _OPT_ARRAY_KEYS:
            out[k] = [_mat_to_json(a) for a in v]
        else:
            out[k] = v
    return out


def _opt_state_from_json(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        if k in _OPT_FLOAT_KEYS:
            out[k] = float.fromhex(v)
        elif k in _OPT_ARRAY_KEYS:
            out[k] = [_mat_from_json(a) for a in v]
        else:
            out[k] = v
    return out


def save_checkpoint(path: str, *, cfg: TrainConfig, epoch_next: int, theta: Mlp,
                    theta_best: Mlp, best_epoch: int, best_meta_acc: float,
                    labeler: SoftLabeler | None, extractor: FeatureExtractor | None,
                    opt_theta, opt_phi, rng: np.random.Generator,
                    log: list[EpochRow]) -> None:
    blob = {
        "version": CHECKPOINT_VERSION,
        "config_hash": cfg.config_hash(),
        "epoch_next": epoch_next,
        "theta": _mlp_to_json(theta),
        "theta_best": _mlp_to_json(theta_best),
        "best_epoch": best_epoch,
        "best_meta_acc": float(best_meta_acc).hex(),
        "labeler": None if labeler is None else {
            "w": _mat_to_json(labeler.weight.value),
            "b": _mat_to_json(labeler.bias.value)},
        "extractor": None if extractor is None else {
            "mode": extractor.mode, "in_dim": extractor.in_dim,
            "layers": [{"w": _mat_to_json(w.value), "b": _mat_to_json(b.value)}
                       for w, b in extractor.layers]},
        "opt_theta": _opt_state_to_json(opt_theta.state()),
        "opt_phi": None if opt_phi is None else _opt_state_to_json(opt_phi.state()),
        "rng_state": rng.bit_generator.state,
        "log": [asdict(r) for r in log],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str, cfg: TrainConfig | None = None) -> dict:
    """Restore a checkpoint; when cfg is given its hash must match the one
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
        return _checkpoint_from_json(blob)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ValueError(f"checkpoint {path} is malformed: {e!r}") from e


def _checkpoint_from_json(blob: dict) -> dict:
    out = {
        "epoch_next": blob["epoch_next"],
        "theta": _mlp_from_json(blob["theta"]),
        "theta_best": _mlp_from_json(blob["theta_best"]),
        "best_epoch": blob["best_epoch"],
        "best_meta_acc": float.fromhex(blob["best_meta_acc"]),
        "labeler": None,
        "extractor": None,
        "opt_theta": _opt_state_from_json(blob["opt_theta"]),
        "opt_phi": None if blob["opt_phi"] is None
        else _opt_state_from_json(blob["opt_phi"]),
        "rng_state": blob["rng_state"],
        "log": [EpochRow(**r) for r in blob["log"]],
    }
    if blob["labeler"] is not None:
        out["labeler"] = SoftLabeler(Tensor(_mat_from_json(blob["labeler"]["w"])),
                                     Tensor(_mat_from_json(blob["labeler"]["b"])))
    if blob["extractor"] is not None:
        e = blob["extractor"]
        out["extractor"] = FeatureExtractor(
            layers=[(Tensor(_mat_from_json(l["w"])), Tensor(_mat_from_json(l["b"])))
                    for l in e["layers"]],
            mode=e["mode"], in_dim=e["in_dim"])
    return out


def run_experiment(cfg: TrainConfig, dataset: Dataset | None = None,
                   checkpoint_path: str | None = None,
                   resume: bool = False,
                   on_epoch=None) -> ExperimentResult:
    """Warm-up, clone, phase-2 epochs; per-epoch metrics; keep the classifier
    with the best meta accuracy (earliest epoch on ties) and score it on test.

    With checkpoint_path set, the full mutable state is written after every
    epoch; resume=True continues from it bit-exactly. `on_epoch(row)` runs
    after each logged epoch (for incremental metrics flushing); failures
    abort with epoch/batch context.
    """
    ds = dataset if dataset is not None else build_dataset(cfg)
    meta_idx = ds.indices(dt.META)
    if cfg.batch_size > meta_idx.size:
        raise ConfigError(
            f"train.batch_size {cfg.batch_size} exceeds meta split size {meta_idx.size}")
    seeds = derive_seeds(cfg.seed)
    sizes = [ds.dims] + list(cfg.hidden) + [ds.n_classes]

    theta = init_mlp(sizes, np.random.default_rng(seeds["init"]))
    opt_theta = make_optimizer(cfg.classifier_optimizer,
                               [p.shape for p in theta.params()],
                               lr=lr_at(cfg.lr_schedule, 0),
                               weight_decay=cfg.weight_decay)
    run_rng = np.random.default_rng(seeds["run"])
    labeler: SoftLabeler | None = None
    extractor: FeatureExtractor | None = None
    opt_phi = None
    log: list[EpochRow] = []
    best_epoch, best_meta_acc = -1, -1.0
    theta_best = theta.copy()
    start_epoch = 0

    if resume:
        if checkpoint_path is None or not os.path.exists(checkpoint_path):
            raise FileNotFoundError("resume requested but no checkpoint found")
        st = load_checkpoint(checkpoint_path, cfg)
        start_epoch = st["epoch_next"]
        theta, theta_best = st["theta"], st["theta_best"]
        best_epoch, best_meta_acc = st["best_epoch"], st["best_meta_acc"]
        labeler, extractor = st["labeler"], st["extractor"]
        opt_theta.load_state(st["opt_theta"])
        if st["opt_phi"] is not None:
            opt_phi = make_optimizer(cfg.metanet_optimizer,
                                     [p.shape for p in (labeler.params())],
                                     lr=cfg.meta_lr, weight_decay=cfg.weight_decay)
            opt_phi.load_state(st["opt_phi"])
        run_rng.bit_generator.state = st["rng_state"]
        log = st["log"]

    train_idx = ds.indices(dt.TRAIN)
    feats: np.ndarray | None = None
    prev_soft: np.ndarray | None = None
    if extractor is not None:
        feats = extractor(ds.x[train_idx])
        with no_grad():
            prev_soft = labeler.soft_labels(feats).value

    def enter_phase2():
        nonlocal extractor, labeler, opt_phi, feats, prev_soft
        extractor = clone_extractor(theta, cfg.extractor_features)
        labeler = SoftLabeler.zeros(extractor.n_features, ds.n_classes)
        opt_phi = make_optimizer(cfg.metanet_optimizer,
                                 [p.shape for p in labeler.params()],
                                 lr=cfg.meta_lr, weight_decay=cfg.weight_decay)
        feats = extractor(ds.x[train_idx])
        with no_grad():
            prev_soft = labeler.soft_labels(feats).value

    for epoch in range(start_epoch, cfg.total_epochs):
        t0 = time.perf_counter()
        lam = lr_at(cfg.lr_schedule, epoch)
        nan = float("nan")
        if epoch < cfg.warmup_epochs:
            opt_theta.lr = lam
            theta, loss_c = _ce_epoch(theta, *_noisy_rows(ds), opt_theta,
                                      cfg.batch_size, run_rng, f"epoch {epoch} (warm-up)")
            phase, loss_e, loss_meta = "warmup", nan, nan
            mean_sim, diff_mean, diff_var = nan, nan, nan
        else:
            if extractor is None:
                enter_phase2()
            order = run_rng.permutation(train_idx.size)
            sampler = _MetaSampler(meta_idx, run_rng)
            sums = np.zeros(4)
            batches = 0
            for start in range(0, train_idx.size, cfg.batch_size):
                try:
                    pos = order[start:start + cfg.batch_size]
                    rows = train_idx[pos]
                    x, v = ds.x[rows], feats[pos]
                    m_rows = sampler.draw(rows.size)
                    mx = ds.x[m_rows]
                    my = one_hot(ds.y_clean[m_rows], ds.n_classes)
                    labeler, report = meta_step(
                        labeler, theta, x, v, mx, my,
                        inner_lr=cfg.inner_lr, optimizer=opt_phi)
                    theta, lc, le = conventional_step(
                        theta, labeler, x, v, lam, opt_theta,
                        use_entropy=cfg.entropy_loss)
                except Exception as e:
                    raise _in_context(f"epoch {epoch}, batch {batches}", e) from e
                sums += (lc, le, report.meta_loss, report.mean_similarity)
                batches += 1
            loss_c, loss_e, loss_meta, mean_sim = sums / batches
            with no_grad():
                cur_soft = labeler.soft_labels(feats).value
            diff = np.abs(cur_soft - prev_soft)
            diff_mean, diff_var = float(diff.mean()), float(diff.var())
            prev_soft = cur_soft
            phase = "phase2"

        train_acc = evaluate(theta, ds, dt.TRAIN)
        meta_acc = evaluate(theta, ds, dt.META)
        test_acc = evaluate(theta, ds, dt.TEST)
        if meta_acc > best_meta_acc:
            best_meta_acc, best_epoch = meta_acc, epoch
            theta_best = theta.copy()
        row = EpochRow(epoch, phase, train_acc, meta_acc, test_acc,
                       loss_c, loss_e, loss_meta, mean_sim,
                       diff_mean, diff_var, time.perf_counter() - t0)
        log.append(row)
        if on_epoch is not None:
            on_epoch(row)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, cfg=cfg, epoch_next=epoch + 1,
                            theta=theta, theta_best=theta_best,
                            best_epoch=best_epoch, best_meta_acc=best_meta_acc,
                            labeler=labeler, extractor=extractor,
                            opt_theta=opt_theta, opt_phi=opt_phi,
                            rng=run_rng, log=log)

    return ExperimentResult(
        config=cfg, log=log, theta_best=theta_best, theta_final=theta,
        labeler=labeler, best_epoch=best_epoch, best_meta_acc=best_meta_acc,
        test_acc_selected=evaluate(theta_best, ds, dt.TEST),
        test_acc_final=evaluate(theta, ds, dt.TEST))


def baseline_ce(cfg: TrainConfig, dataset: Dataset | None = None) -> ExperimentResult:
    """Plain cross-entropy on noisy labels with the identical budget,
    schedule and model-selection protocol; the comparison baseline."""
    ds = dataset if dataset is not None else build_dataset(cfg)
    seeds = derive_seeds(cfg.seed)
    theta = init_mlp([ds.dims] + list(cfg.hidden) + [ds.n_classes],
                     np.random.default_rng(seeds["init"]))
    opt = make_optimizer(cfg.classifier_optimizer, [p.shape for p in theta.params()],
                         lr=lr_at(cfg.lr_schedule, 0), weight_decay=cfg.weight_decay)
    run_rng = np.random.default_rng(seeds["run"])
    log: list[EpochRow] = []
    best_epoch, best_meta_acc = -1, -1.0
    theta_best = theta.copy()
    nan = float("nan")
    x, labels = _noisy_rows(ds)
    for epoch in range(cfg.total_epochs):
        t0 = time.perf_counter()
        opt.lr = lr_at(cfg.lr_schedule, epoch)
        theta, loss_c = _ce_epoch(theta, x, labels, opt, cfg.batch_size, run_rng,
                                  f"epoch {epoch} (baseline)")
        train_acc = evaluate(theta, ds, dt.TRAIN)
        meta_acc = evaluate(theta, ds, dt.META)
        test_acc = evaluate(theta, ds, dt.TEST)
        if meta_acc > best_meta_acc:
            best_meta_acc, best_epoch = meta_acc, epoch
            theta_best = theta.copy()
        log.append(EpochRow(epoch, "baseline", train_acc, meta_acc, test_acc,
                            loss_c, nan, nan, nan, nan, nan,
                            time.perf_counter() - t0))
    return ExperimentResult(
        config=cfg, log=log, theta_best=theta_best, theta_final=theta,
        labeler=None, best_epoch=best_epoch, best_meta_acc=best_meta_acc,
        test_acc_selected=evaluate(theta_best, ds, dt.TEST),
        test_acc_final=evaluate(theta, ds, dt.TEST))
