"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Conventions used throughout (run with `pytest tests/test_acceptance.py -s -v`
to see the lines as they complete):

- the method is scored at its meta-selected epoch (its model-selection
  protocol); the plain cross-entropy baseline is scored at its final epoch
  (plain training has no selection step);
- "points" are percentage points of test accuracy;
- runs are cached and shared between criteria, always pairing method and
  baseline on the identical dataset.
"""

import json
import math
import time

import numpy as np

from metalabel import gradcheck
from metalabel.data import make_synthetic, split_dataset, inject_uniform, margins
from metalabel.harness import (
    TrainConfig,
    build_datasets,
    run_experiment,
    run_experiments,
)
from metalabel.meta import meta_step
from metalabel.nn import Mlp, init_mlp, make_optimizer, mlp_logits, one_hot, softmax

SEEDS = (0, 1, 2, 3)

_datasets: dict = {}
_runs: dict = {}


def report(num: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def config_for(seed: int, kind: str, ratio: float, **overrides) -> TrainConfig:
    return TrainConfig(seed=seed, noise_kind=kind, noise_ratio=ratio, **overrides)


def data_key(cfg: TrainConfig) -> str:
    """The config fields `build_dataset` reads: the seed, data.*, noise.*,
    model.hidden, and the margin oracle's and the unlabeled marking's train.*
    fields. Configs that differ elsewhere (an ablation) share a dataset."""
    raw = cfg.to_dict()
    train = {k: raw["train"][k] for k in ("batch_size", "oracle_epochs", "unlabeled_fraction")}
    return json.dumps([raw["seed"], raw["data"], raw["noise"], raw["model"]["hidden"], train],
                      sort_keys=True)


def datasets_for(cfgs: list[TrainConfig]) -> list:
    """Cached datasets, keyed by `data_key`; the missing ones are built
    together, so their margin oracles train as lanes."""
    missing = list({data_key(c): c for c in cfgs if data_key(c) not in _datasets}.values())
    for cfg, ds in zip(missing, build_datasets(missing)):
        if isinstance(ds, Exception):
            raise ds
        _datasets[data_key(cfg)] = ds
    return [_datasets[data_key(c)] for c in cfgs]


def dataset_for(cfg: TrainConfig):
    return datasets_for([cfg])[0]


def _run_seeds(seed: int, key, config, baseline: bool):
    """Train every seed of a cell in one call, so the seeds run as lanes of
    one group; each run's time is its share of the group's."""
    seeds = SEEDS if seed in SEEDS else (seed,)
    cfgs = [config(s) for s in seeds]
    t0 = time.perf_counter()
    results = run_experiments(cfgs, datasets_for(cfgs), baseline=baseline)
    share = (time.perf_counter() - t0) / len(seeds)
    for s, result in zip(seeds, results):
        if isinstance(result, Exception):
            raise result
        _runs[key(s)] = (result, share)


def method_run(seed: int, kind: str, ratio: float, **overrides):
    def key(s):
        return ("m", s, kind, ratio, tuple(sorted(overrides.items())))

    if key(seed) not in _runs:
        _run_seeds(seed, key, lambda s: config_for(s, kind, ratio, **overrides), False)
    return _runs[key(seed)]


def baseline_run(seed: int, kind: str, ratio: float):
    def key(s):
        return ("b", s, kind, ratio)

    if key(seed) not in _runs:
        _run_seeds(seed, key, lambda s: config_for(s, kind, ratio), True)
    return _runs[key(seed)]


def selected(st) -> float:
    """A finished run's test accuracy at its meta-selected epoch."""
    return st.log[st.best_epoch].test_acc


def gap_points(seed: int, kind: str, ratio: float) -> float:
    method, _ = method_run(seed, kind, ratio)
    base, _ = baseline_run(seed, kind, ratio)
    return 100.0 * (selected(method) - base.log[-1].test_acc)


# -- criterion 1: second-order gradient correctness ------------------------------


def test_criterion_01_meta_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rep = gradcheck.check_meta_gradient(n_seeds=20, tolerance=1e-4)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    report(1, ok, f"worst rel err {rep.worst_err:.3e} over 20 seeds "
                  f"(tol 1e-4), {elapsed:.1f}s (< 10s)")


# -- criterion 2: route equivalence ----------------------------------------------


def test_criterion_02_route_equivalence():
    t0 = time.perf_counter()
    rep = gradcheck.check_route_equivalence(n_seeds=20, tolerance=1e-6)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 30.0
    report(2, ok, f"worst abs err {rep.worst_err:.3e} over 20 seeds "
                  f"(tol 1e-6), {elapsed:.1f}s (< 30s)")


# -- criteria 3-4: accuracy gaps at 40% and 80% feature-dependent noise ------------


def test_criterion_03_feature_noise_40_gap():
    gaps, times = [], []
    for s in SEEDS:
        gaps.append(gap_points(s, "feature-dependent", 0.4))
        times.append(method_run(s, "feature-dependent", 0.4)[1]
                     + baseline_run(s, "feature-dependent", 0.4)[1])
    ok = all(g >= 5.0 for g in gaps) and all(t < 300 for t in times)
    report(3, ok, "gaps " + ", ".join(f"{g:.1f}" for g in gaps)
           + f" points (need >= 5.0 in 4/4); max {max(times):.0f}s/seed")


def test_criterion_04_feature_noise_80_gap():
    gaps, times = [], []
    for s in SEEDS:
        gaps.append(gap_points(s, "feature-dependent", 0.8))
        times.append(method_run(s, "feature-dependent", 0.8)[1]
                     + baseline_run(s, "feature-dependent", 0.8)[1])
    ok = sum(g >= 15.0 for g in gaps) >= 3 and all(t < 300 for t in times)
    report(4, ok, "gaps " + ", ".join(f"{g:.1f}" for g in gaps)
           + f" points (need >= 15.0 in 3/4); max {max(times):.0f}s/seed")


# -- criterion 5: noise-type asymmetry ---------------------------------------------


def test_criterion_05_feature_noise_beats_uniform_noise_gap():
    fd = [gap_points(s, "feature-dependent", 0.6) for s in SEEDS]
    uni = [gap_points(s, "uniform", 0.6) for s in SEEDS]
    ok = float(np.mean(fd)) >= float(np.mean(uni))
    report(5, ok, f"mean gap feature-dependent {np.mean(fd):.1f} vs "
                  f"uniform {np.mean(uni):.1f} points at 60% noise")


# -- criterion 6: unlabeled mode ----------------------------------------------------


def test_criterion_06_unlabeled_mode_holds_accuracy():
    diffs = []
    for s in SEEDS:
        labeled, _ = method_run(s, "feature-dependent", 0.4)
        unlabeled, _ = method_run(s, "feature-dependent", 0.4,
                                  unlabeled_fraction=0.5)
        cfg = config_for(s, "feature-dependent", 0.4, unlabeled_fraction=0.5)
        ds = dataset_for(cfg)
        assert (~ds.labeled).sum() == round(0.5 * ds.indices("train").size)
        diffs.append(100.0 * (selected(unlabeled) - selected(labeled)))
    ok = sum(d >= -3.0 for d in diffs) >= 3
    report(6, ok, "unlabeled-minus-labeled " + ", ".join(f"{d:+.1f}" for d in diffs)
           + " points (need >= -3.0 in 3/4); label guard never fired")


# -- criterion 7: label stability ----------------------------------------------------


def test_criterion_07_labels_stabilize_over_training():
    oks, details = [], []
    for s in SEEDS:
        result, _ = method_run(s, "feature-dependent", 0.4)
        diffs = [r.label_diff_mean for r in result.log if r.phase == "phase2"]
        first5, last10 = float(np.mean(diffs[:5])), float(np.mean(diffs[-10:]))
        oks.append(last10 < first5)
        details.append(f"{first5:.4f}->{last10:.4f}")
    report(7, all(oks), "mean |label change| first5 -> last10: "
           + ", ".join(details) + " (need decrease in 4/4)")


# -- criterion 8: warm-up ablation -----------------------------------------------------


def test_criterion_08_skipping_warmup_hurts():
    drops = []
    for s in SEEDS:
        default, _ = method_run(s, "feature-dependent", 0.6)
        no_warmup, _ = method_run(s, "feature-dependent", 0.6, warmup_epochs=0)
        drops.append(100.0 * (selected(default) - selected(no_warmup)))
    ok = float(np.mean(drops)) >= 2.0
    report(8, ok, "default-minus-no-warmup " + ", ".join(f"{d:+.1f}" for d in drops)
           + f" points, mean {np.mean(drops):.1f} (need >= 2.0)")


# -- criterion 9: entropy-loss effect ---------------------------------------------------


def mean_prediction_entropy(theta: Mlp, ds, split: str) -> float:
    """Batch-mean Shannon entropy of softmax predictions on a split."""
    p = softmax(mlp_logits(theta.layers, ds.x[ds.indices(split)]))
    p = np.clip(p, 1e-300, 1.0)
    return float(-(p * np.log(p)).sum(axis=1).mean())


def test_criterion_09_entropy_loss_sharpens_predictions():
    oks, details = [], []
    for s in SEEDS:
        with_term, _ = method_run(s, "feature-dependent", 0.4)
        without, _ = method_run(s, "feature-dependent", 0.4, entropy_loss=False)
        ds = dataset_for(config_for(s, "feature-dependent", 0.4))
        h_on = mean_prediction_entropy(with_term.theta_best, ds, "test")
        h_off = mean_prediction_entropy(without.theta_best, ds, "test")
        oks.append(h_off > h_on)
        details.append(f"{h_off:.3f}>{h_on:.3f}")
    report(9, all(oks), "test prediction entropy off>on: "
           + ", ".join(details) + " (need strict in 4/4)")


# -- criterion 10: invariant suites ------------------------------------------------------


def test_criterion_10_invariant_suites():
    t0 = time.perf_counter()
    problems = []

    # nn-core finite-difference checks, 100 trials per loss
    for rep in gradcheck.check_loss_gradients(trials=100, seed=0, tolerance=1e-4):
        if not rep.passed:
            problems.append(rep.line())
    dd = gradcheck.check_double_gradient(trials=20, seed=0)
    if not dd.passed:
        problems.append(dd.line())

    # soft-label simplex invariants
    rng = np.random.default_rng(0)
    lab = Mlp([(rng.normal(size=(6, 4)), rng.normal(size=(1, 4)))])
    probs = softmax(mlp_logits(lab.layers, rng.normal(size=(50, 6))))
    if not (np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
            and np.all(probs > 0.0) and np.all(probs < 1.0)):
        problems.append("soft labels left the open simplex")

    # noise-injector count/quota properties
    ds = split_dataset(make_synthetic(2000, 4, 6, seed=3), 0.8, 0.1, 0.1, seed=4)
    train = ds.indices("train")
    uni = inject_uniform(ds, 0.4, seed=5)
    flips = int((uni.y_noisy[train] != uni.y_clean[train]).sum())
    sigma = math.sqrt(train.size * 0.4 * 0.6)
    if abs(flips - 0.4 * train.size) > 3 * sigma:
        problems.append(f"uniform flip count {flips} outside binomial bounds")
    from metalabel.data import inject_feature_dependent
    w = np.zeros((6, 4))
    w[np.arange(4), np.arange(4)] = 4.0
    oracle = Mlp([(w, np.zeros((1, 4)))])
    fd = inject_feature_dependent(ds, 0.3, oracle, seed=6)
    margin, runner = margins(oracle, ds.x[train])
    k = math.ceil(0.3 * train.size)
    quota = np.argsort(margin)[:k]
    got = fd.y_noisy[train][quota]
    if not np.array_equal(got, runner[quota]):
        problems.append("feature-dependent quota rows not set to runner-up")

    # determinism: bit-identical repeat runs (small configuration)
    cfg = TrainConfig(seed=11, n=480, dims=6, classes=3, train_frac=0.75,
                      meta_frac=0.125, test_frac=0.125, noise_kind="uniform",
                      noise_ratio=0.4, hidden=[8, 6], batch_size=32,
                      warmup_epochs=3, total_epochs=8,
                      lr_schedule=[[0, 1e-2]], oracle_epochs=10)
    a, b = run_experiment(cfg), run_experiment(cfg)
    same = all(np.array_equal(wa, wb) and np.array_equal(ba, bb)
               for (wa, ba), (wb, bb) in zip(a.theta.layers, b.theta.layers))
    if not (same and a.best_epoch == b.best_epoch and selected(a) == selected(b)):
        problems.append("repeat runs were not bit-identical")

    # classifier isolation of the meta step
    rng = np.random.default_rng(2)
    theta = init_mlp([4, 3, 3], rng)
    before = [p.copy() for p in theta.params()]
    lab = Mlp([(rng.normal(size=(3, 3)), rng.normal(size=(1, 3)))])
    opt = make_optimizer("adam", lab.flat.shape, lr=1e-2)
    meta_step(lab, theta, rng.normal(size=(5, 4)), rng.normal(size=(5, 3)),
              rng.normal(size=(5, 4)), one_hot(rng.integers(0, 3, 5), 3),
              inner_lr=1.0, optimizer=opt)
    if not all(np.array_equal(p, q) for p, q in zip(theta.params(), before)):
        problems.append("meta step modified classifier parameters")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 180.0
    report(10, ok, f"fd/simplex/noise/determinism/isolation suites clean in "
                   f"{elapsed:.0f}s (< 180s)" + ("; " + "; ".join(problems)
                                                 if problems else ""))