import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from metalabel.data import Dataset, make_synthetic, split_dataset
from metalabel.harness import (
    ConfigError,
    METRICS_COLUMNS,
    RunState,
    TrainConfig,
    _Lane,
    _train,
    baseline_ce,
    build_dataset,
    check_view,
    derive_seeds,
    evaluate,
    load_checkpoint,
    lr_at,
    read_metrics_csv,
    run_experiment,
    summary,
    write_metrics_csv,
)
from metalabel.meta import extract_features
from metalabel.nn import Mlp, init_mlp, mlp_logits, softmax


def small_config(**kw) -> TrainConfig:
    base = dict(
        seed=0, n=480, dims=6, classes=3, center_scale=3.0,
        train_frac=0.75, meta_frac=0.125, test_frac=0.125,
        noise_kind="feature-dependent", noise_ratio=0.4,
        hidden=[8, 6], batch_size=32, warmup_epochs=3, total_epochs=10,
        lr_schedule=[[0, 1e-2], [6, 1e-3]], meta_lr=1e-2, oracle_epochs=15,
    )
    base.update(kw)
    return TrainConfig(**base)


def warmed_up(cfg: TrainConfig, ds: Dataset) -> Mlp:
    """The classifier after cfg.warmup_epochs of cross-entropy on the noisy
    labels: the baseline ignores warmup_epochs, so one stopped where warm-up
    ends (test_baseline_and_method_share_the_warmup pins that equality)."""
    short = dataclasses.replace(cfg, warmup_epochs=0, total_epochs=cfg.warmup_epochs)
    return baseline_ce(short, ds.view()).theta


def rows_equal(a, b) -> bool:
    fields = [f.name for f in dataclasses.fields(a) if f.name != "wall_time"]
    return all(getattr(a, f) == getattr(b, f)
               or (isinstance(getattr(a, f), float)
                   and math.isnan(getattr(a, f)) and math.isnan(getattr(b, f)))
               for f in fields)


# -- configuration --------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_config(warmup_epochs=10, total_epochs=10)
    with pytest.raises(ConfigError):
        small_config(lr_schedule=[[5, 1e-2]])
    with pytest.raises(ConfigError):
        small_config(lr_schedule=[[0, 1e-2], [0, 1e-3]])
    with pytest.raises(ConfigError):
        small_config(noise_kind="salt-and-pepper")
    with pytest.raises(ConfigError):
        small_config(noise_ratio=1.2)
    with pytest.raises(ConfigError):
        small_config(train_frac=0.9)  # fractions no longer sum to 1
    with pytest.raises(ConfigError):
        small_config(unlabeled_fraction=1.0)
    for change, name in [({"hidden": [0]}, "model.hidden"), ({"hidden": [8, -3]}, "model.hidden"),
                         ({"oracle_epochs": -2}, "train.oracle_epochs")]:
        with pytest.raises(ConfigError, match=name):
            small_config(**change)
    assert small_config(hidden=[], oracle_epochs=0).hidden == []  # no hidden layer is valid


@pytest.mark.parametrize("change, name", [
    ({"center_scale": math.nan}, "data.center_scale"),
    ({"train_frac": math.nan}, "data.train_frac"),
    ({"meta_frac": math.inf}, "data.meta_frac"),
    ({"test_frac": -math.inf}, "data.test_frac"),
    ({"meta_lr": math.inf}, "train.meta_lr"),
    ({"inner_lr": math.nan}, "train.inner_lr"),
    ({"weight_decay": math.nan}, "train.weight_decay"),
    ({"weight_decay": -1.0}, "train.weight_decay"),
    ({"lr_schedule": [[0, 1e-2], [6, math.nan]]}, "train.lr_schedule"),
], ids=["center_scale-nan", "train_frac-nan", "meta_frac-inf", "test_frac-minus-inf",
        "meta_lr-inf", "inner_lr-nan", "weight_decay-nan", "weight_decay-negative",
        "lr_schedule-rate-nan"])
def test_a_config_value_out_of_range_is_an_error_naming_the_field(change, name):
    with pytest.raises(ConfigError, match=name):
        small_config(**change)


def _with(section: str | None, key: str, value) -> dict:
    """The wire form of small_config() with one value replaced: `key` in
    `section`, or at the top level for section None."""
    raw = small_config().to_dict()
    (raw if section is None else raw[section])[key] = value
    return raw


@pytest.mark.parametrize("raw, name", [
    (_with("train", "lr_schedule", [[0, 0.0]]), "train.lr_schedule"),
    (_with("train", "lr_schedule", [[0, 1e-2], [6, -1e-3]]), "train.lr_schedule"),
    (_with("train", "extractor_features", "hidden"), "train.extractor_features"),
    (_with("train", "classifier_optimizer", "sgd"), "train.classifier_optimizer"),
    (_with("train", "metanet_optimizer", "rmsprop"), "train.metanet_optimizer"),
    (_with("train", "batch_size", 0), "train.batch_size"),
    (_with("train", "meta_lr", -1e-2), "train.meta_lr"),
    (_with("train", "inner_lr", -1.0), "train.inner_lr"),
    ([small_config().to_dict()], "config"),
    (_with(None, "train", [["batch_size", 32]]), "train"),
], ids=["lr_schedule-rate-zero", "lr_schedule-rate-negative", "extractor_features-unknown",
        "classifier_optimizer-unknown", "metanet_optimizer-unknown", "batch_size-zero",
        "meta_lr-negative", "inner_lr-negative", "config-not-an-object",
        "section-not-an-object"])
def test_a_rejected_config_is_an_error_naming_the_field(raw, name):
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} "):
        TrainConfig.from_dict(raw)


def test_config_dict_roundtrip_and_unknown_keys():
    cfg = small_config(unlabeled_fraction=0.25)
    back = TrainConfig.from_dict(cfg.to_dict())
    assert back == cfg
    raw = cfg.to_dict()
    raw["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        TrainConfig.from_dict(raw)
    raw = cfg.to_dict()
    raw["noise"]["ratioo"] = 0.4
    del raw["noise"]["ratio"]
    with pytest.raises(ConfigError, match="ratioo"):
        TrainConfig.from_dict(raw)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"schema_version": 2})


def test_config_hash_tracks_content():
    a, b = small_config(), small_config()
    assert a.config_hash() == b.config_hash()
    c = small_config(seed=1)
    assert a.config_hash() != c.config_hash()


def test_lr_schedule_lookup():
    sched = [[0, 1e-2], [6, 1e-3], [8, 1e-4]]
    assert lr_at(sched, 0) == 1e-2
    assert lr_at(sched, 5) == 1e-2
    assert lr_at(sched, 6) == 1e-3
    assert lr_at(sched, 9) == 1e-4


# -- evaluation -----------------------------------------------------------------


def fixture_dataset() -> Dataset:
    # 10-row hand fixture over 2 classes in 2 dims
    x = np.array([[3.0, 0.0]] * 5 + [[0.0, 3.0]] * 5)
    y = np.array([0] * 5 + [1] * 5)
    split = np.array(["train"] * 4 + ["meta"] * 3 + ["test"] * 3, dtype="<U5")
    return Dataset(x, y, y.copy(), np.ones(10, bool), split, 2)


def test_evaluate_perfect_predictor():
    ds = fixture_dataset()
    net = Mlp([(np.eye(2), np.zeros((1, 2)))])
    assert evaluate(net, ds.view(), "test") == 1.0
    assert evaluate(net, ds.view(), "meta") == 1.0
    assert evaluate(net, ds.view(), "train") == 1.0


def test_evaluate_constant_predictor_on_balanced_classes():
    ds = make_synthetic(400, classes=4, dims=6, seed=0)
    ds = split_dataset(ds, 0.8, 0.1, 0.1, seed=1)
    zero = Mlp([(np.zeros((6, 4)), np.zeros((1, 4)))])
    assert evaluate(zero, ds.view(), "test") == pytest.approx(0.25, abs=1e-12)


def test_evaluate_matches_hand_count():
    ds = fixture_dataset()
    # flip one test row's clean label; the predictor now misses 1 of 3
    y = ds.y_clean.copy()
    y[-1] = 0
    ds = Dataset(ds.x, y, y.copy(), ds.labeled, ds.split, 2)
    net = Mlp([(np.eye(2), np.zeros((1, 2)))])
    assert evaluate(net, ds.view(), "test") == pytest.approx(2 / 3)


def test_evaluate_rejects_empty_split():
    ds = make_synthetic(100, classes=2, dims=3, seed=0)
    ds = split_dataset(ds, 0.9, 0.1, 0.0, seed=0)
    net = init_mlp([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        evaluate(net, ds.view(), "test")


# -- warm-up --------------------------------------------------------------------


def test_warmup_zero_epochs_returns_initialization():
    # phase 2 starts from the initialization: its extractor is that classifier's
    cfg = small_config(warmup_epochs=0, total_epochs=1, noise_ratio=0.0, noise_kind="uniform")
    ds = build_dataset(cfg)
    init = init_mlp([cfg.dims] + cfg.hidden + [cfg.classes],
                    np.random.default_rng(derive_seeds(cfg.seed)["init"]))
    extractor = run_experiment(cfg, ds.view()).extractor
    assert len(extractor.layers) == len(init.layers) - 1
    for (w, b), (wi, bi) in zip(extractor.layers, init.layers):
        assert np.array_equal(w, wi)
        assert np.array_equal(b, bi)


def test_warmup_is_deterministic():
    cfg = small_config(noise_ratio=0.2)
    ds = build_dataset(cfg)
    a, b = warmed_up(cfg, ds), warmed_up(cfg, ds)
    for (wa, _), (wb, _) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)


def test_warmup_fits_clean_separable_blobs():
    cfg = small_config(noise_ratio=0.0, noise_kind="uniform", warmup_epochs=30,
                       total_epochs=31, center_scale=6.0)
    ds = build_dataset(cfg)
    theta = warmed_up(cfg, ds)
    assert evaluate(theta, ds.view(), "train") >= 0.95


def test_warmup_requires_labeled_rows():
    cfg = small_config()
    ds = build_dataset(cfg)
    all_unlabeled = Dataset(ds.x, ds.y_clean, ds.y_noisy,
                            ds.split != "train", ds.split, ds.n_classes)
    with pytest.raises(ConfigError, match="no labeled train rows"):
        warmed_up(cfg, all_unlabeled)


# -- full runs --------------------------------------------------------------------


def test_run_experiment_is_deterministic():
    cfg = small_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert len(a.log) == len(b.log)
    assert all(rows_equal(x, y) for x, y in zip(a.log, b.log))
    assert a.best_epoch == b.best_epoch
    for (wa, ba), (wb, bb) in zip(a.theta_best.layers, b.theta_best.layers):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)


def test_epoch_accounting_and_phases():
    cfg = small_config()
    res = run_experiment(cfg)
    assert len(res.log) == cfg.total_epochs
    assert [r.epoch for r in res.log] == list(range(cfg.total_epochs))
    phases = [r.phase for r in res.log]
    assert phases[:cfg.warmup_epochs] == ["warmup"] * cfg.warmup_epochs
    assert phases[cfg.warmup_epochs:] == ["phase2"] * (cfg.total_epochs - cfg.warmup_epochs)


def test_model_selection_invariant():
    cfg = small_config(seed=3)
    res = run_experiment(cfg)
    metas = [r.meta_acc for r in res.log]
    assert res.best_meta_acc == max(metas)
    assert res.best_epoch == int(np.argmax(metas))  # earliest epoch wins ties


def test_zero_meta_lr_freezes_labels():
    cfg = small_config(meta_lr=0.0)
    res = run_experiment(cfg)
    p2 = [r for r in res.log if r.phase == "phase2"]
    assert all(r.label_diff_mean == 0.0 for r in p2)
    assert all(r.label_diff_var == 0.0 for r in p2)


def test_phase2_does_no_harm_on_clean_data():
    # enough rows that one test sample is well under the 0.01 allowance
    cfg = small_config(n=1000, noise_ratio=0.0, noise_kind="uniform",
                       warmup_epochs=5, total_epochs=20,
                       lr_schedule=[[0, 1e-2], [10, 1e-3]])
    res = run_experiment(cfg)
    warm_end = res.log[cfg.warmup_epochs - 1].test_acc
    assert res.log[-1].test_acc >= warm_end - 0.01


def test_meta_data_cleanliness_is_load_bearing():
    cfg = small_config(noise_ratio=0.6, total_epochs=14, seed=5)
    clean_ds = build_dataset(cfg)
    rng = np.random.default_rng(99)
    poisoned = copy.deepcopy(clean_ds)
    meta_rows = poisoned.indices("meta")
    flips = rng.integers(1, poisoned.n_classes, size=meta_rows.size)
    bad = (poisoned.y_clean[meta_rows] + flips) % poisoned.n_classes
    poisoned.y_clean[meta_rows] = bad
    poisoned.y_noisy[meta_rows] = bad
    res_clean = run_experiment(cfg, clean_ds.view())
    res_poisoned = run_experiment(cfg, poisoned.view())
    assert (res_poisoned.log[res_poisoned.best_epoch].test_acc
            < res_clean.log[res_clean.best_epoch].test_acc)


def test_phase2_batch_count_per_epoch(monkeypatch):
    import metalabel.harness as hmod

    calls = []
    real = hmod.meta_step

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(hmod, "meta_step", counting)
    cfg = small_config(warmup_epochs=3, total_epochs=4)  # exactly one phase-2 epoch
    run_experiment(cfg)
    n_train = round(0.75 * cfg.n)
    assert len(calls) == math.ceil(n_train / cfg.batch_size)


def test_method_matches_baseline_on_clean_default_config():
    cfg = TrainConfig(seed=0, noise_kind="uniform", noise_ratio=0.0)
    ds = build_dataset(cfg)
    method = run_experiment(cfg, ds.view())
    base = baseline_ce(cfg, ds.view())
    assert abs(method.log[method.best_epoch].test_acc - base.log[-1].test_acc) <= 0.01


def test_unlabeled_mode_completes_without_guard_firing():
    cfg = small_config(unlabeled_fraction=0.5)
    res = run_experiment(cfg)
    assert len(res.log) == cfg.total_epochs
    ds = build_dataset(cfg)
    assert int((~ds.labeled).sum()) == round(0.5 * ds.indices("train").size)


def test_batch_size_must_fit_meta_split():
    cfg = small_config(batch_size=100)  # meta split has 60 rows
    with pytest.raises(ConfigError, match="meta split"):
        run_experiment(cfg)


def test_a_batch_of_the_whole_meta_split_is_accepted():
    view = build_dataset(small_config()).view()
    assert view.scored["meta"][0].size == 60
    assert check_view(small_config(batch_size=60), view) is view
    with pytest.raises(ConfigError, match="^train.batch_size 61 exceeds meta split size 60$"):
        check_view(small_config(batch_size=61), view)
    assert check_view(small_config(batch_size=61), view, baseline=True) is view


def test_training_reads_no_hidden_label():
    # the clean labels of the train rows and the noisy labels of the masked
    # rows may hold anything: the method and the baseline run as before
    cfg = small_config(unlabeled_fraction=0.5)
    ds = build_dataset(cfg)
    train, masked = ds.indices("train"), np.flatnonzero(~ds.labeled)
    assert masked.size == 180 and cfg.noise_kind == "feature-dependent"
    poisoned = copy.deepcopy(ds)
    rng = np.random.default_rng(11)
    poisoned.y_clean[train] = rng.integers(0, ds.n_classes, train.size)
    poisoned.y_noisy[masked] = rng.integers(0, ds.n_classes, masked.size)
    assert np.mean(poisoned.y_clean[train] != ds.y_clean[train]) > 0.5
    assert np.mean(poisoned.y_noisy[masked] != ds.y_noisy[masked]) > 0.5
    for run in (run_experiment, baseline_ce):
        a, b = run(cfg, ds.view()), run(cfg, poisoned.view())
        assert len(a.log) == len(b.log) == cfg.total_epochs
        assert all(rows_equal(x, y) for x, y in zip(a.log, b.log))
        assert a.theta_best.flat.tobytes() == b.theta_best.flat.tobytes()
        assert summary(cfg, a) == summary(cfg, b)


def test_the_kept_classifier_is_the_one_of_the_first_best_epoch():
    # seed 5 reaches its best meta accuracy at epochs 6 and 7: the kept
    # classifier is epoch 6's, which a second run stopped after epoch 6 ends with
    cfg = small_config(seed=5)
    view = build_dataset(cfg).view()
    st = run_experiment(cfg, view)
    ties = [e for e, r in enumerate(st.log) if r.meta_acc == st.best_meta_acc]
    assert ties == [6, 7] and st.best_epoch == 6
    (short,) = _train([_Lane(cfg, view, RunState.fresh(cfg, view.dims, view.n_classes))],
                      st.best_epoch + 1, True)
    assert rows_equal(short.log[-1], st.log[st.best_epoch])
    assert st.theta_best.flat.tobytes() == short.theta.flat.tobytes()
    assert st.theta.flat.tobytes() != short.theta.flat.tobytes()


def test_the_logged_label_drift_is_the_generator_move_over_an_epoch():
    # the second phase-2 epoch, so that neither generator is the zero one
    cfg = small_config(warmup_epochs=3, total_epochs=5)
    view = build_dataset(cfg).view()
    ln = _Lane(cfg, view, RunState.fresh(cfg, view.dims, view.n_classes))
    _train([ln], cfg.warmup_epochs + 1, True)
    before = ln.st.labeler
    _train([ln], cfg.warmup_epochs + 2, True)
    feats = extract_features(ln.st.extractor, view.x[view.train], cfg.extractor_features)
    drift = np.abs(softmax(mlp_logits(ln.st.labeler.layers, feats))
                   - softmax(mlp_logits(before.layers, feats)))
    row = ln.st.log[-1]
    assert row.label_diff_mean > 0 and row.label_diff_var > 0
    assert row.label_diff_mean == pytest.approx(drift.mean(), rel=1e-12, abs=0)
    assert row.label_diff_var == pytest.approx(drift.var(), rel=1e-12, abs=0)


def test_baseline_is_deterministic_and_tagged():
    cfg = small_config()
    a = baseline_ce(cfg)
    b = baseline_ce(cfg)
    assert all(rows_equal(x, y) for x, y in zip(a.log, b.log))
    assert all(r.phase == "baseline" for r in a.log)
    assert len(a.log) == cfg.total_epochs


def test_baseline_and_method_share_the_warmup():
    # one epoch loop: the method's warm-up epochs are the baseline's first
    # epochs, and phase 2 extracts its features from the classifier they end with
    cfg = small_config(noise_kind="uniform")
    ds = build_dataset(cfg)
    method, base = run_experiment(cfg, ds.view()), baseline_ce(cfg, ds.view())
    for m, b in zip(method.log[:cfg.warmup_epochs], base.log):
        assert (m.phase, b.phase) == ("warmup", "baseline")
        assert rows_equal(dataclasses.replace(m, phase="baseline"), b)
    assert not rows_equal(dataclasses.replace(method.log[cfg.warmup_epochs], phase="baseline"),
                          base.log[cfg.warmup_epochs])
    # the baseline ignores warmup_epochs, so warmed_up's stops where warm-up ends
    short = warmed_up(cfg, ds)
    assert len(method.extractor.layers) == len(short.layers) - 1  # penultimate
    for (w, b), (ws, bs) in zip(method.extractor.layers, short.layers):
        assert np.array_equal(w, ws)
        assert np.array_equal(b, bs)


def test_run_abort_carries_epoch_context():
    cfg = small_config()

    def boom(row):
        raise KeyboardInterrupt  # not caught by the context wrapper

    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg, on_epoch=boom)


def test_phase2_batch_runs_without_the_engine(monkeypatch):
    # the engine's reverse mode is the reference route only: warm-up and
    # phase-2 batches must not call it
    import sys

    import metalabel.engine as engine

    def no_engine(*args, **kw):
        raise AssertionError("engine.grad called in the training hot path")

    real = engine.grad
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("metalabel") \
                and getattr(mod, "grad", None) is real:
            monkeypatch.setattr(mod, "grad", no_engine)
    assert engine.grad is no_engine
    res = run_experiment(small_config(warmup_epochs=1, total_epochs=2))
    assert [r.phase for r in res.log] == ["warmup", "phase2"]
    assert np.isfinite(res.log[-1].loss_meta)


def test_divergence_names_the_epoch_and_batch():
    from metalabel.harness import train_margin_oracle
    from metalabel.nn import DivergenceError

    with pytest.raises(DivergenceError, match=r"epoch 0 \(warm-up\), batch \d+: diverged"):
        run_experiment(small_config(lr_schedule=[[0, 1e6]]))
    with pytest.raises(DivergenceError, match=r"^epoch 3, batch \d+: diverged"):
        run_experiment(small_config(lr_schedule=[[0, 1e-2], [3, 1e6]]))
    ds = build_dataset(small_config(noise_kind="uniform"))
    with pytest.raises(DivergenceError,
                       match=r"margin oracle epoch \d+, batch \d+: diverged"):
        train_margin_oracle([ds], [8, 6], seeds=[0], epochs=3, lr=1e6)


def _phase2_lane(theta: Mlp):
    """A one-hidden-layer run (3 classes) set up for its first phase-2
    epoch, epoch 1, from `theta`, and its phase-2 inputs."""
    import metalabel.harness as hmod

    cfg = small_config(noise_kind="uniform", hidden=[4], warmup_epochs=1, total_epochs=2)
    ds = build_dataset(cfg)
    ln = hmod._Lane(cfg, ds.view(), hmod.RunState.fresh(cfg, ds.dims, ds.n_classes))
    ln.st.theta = theta
    return cfg, ln, [hmod._Phase2Rows.of(cfg, ln)]


def test_a_gradient_that_overflows_in_the_virtual_update_names_the_batch():
    # every hidden activation is 1e307 and the output weights are zero, so the
    # logits are the finite output bias; a generator that gives class 1 a
    # log-probability near -700 makes that logit's soft-label gradient about
    # 58, and the output weights' inner gradient, 1e307 x 58, overflows
    import metalabel.harness as hmod
    from metalabel.nn import DivergenceError

    theta = Mlp([(np.zeros((6, 4)), np.full((1, 4), 1e307)),
                 (np.zeros((4, 3)), np.array([[0.0, 3.0, 0.0]]))])
    cfg, ln, inputs = _phase2_lane(theta)
    ln.st.labeler.layers[0][1][...] = [[0.0, -700.0, 0.0]]
    with pytest.raises(DivergenceError, match=r"^epoch 1, batch 0: diverged: non-finite "
                                              r"gradient in virtual update$"), \
            np.errstate(all="ignore"):  # the overflow is the point
        hmod._phase2_epoch(cfg, [ln], inputs, "epoch 1")


def test_a_failing_oracle_of_a_lone_config_trains_once(monkeypatch):
    import metalabel.harness as harness_mod
    from metalabel.nn import DivergenceError

    lanes = []
    real = harness_mod.train_margin_oracle

    def counting(dss, *args, **kw):
        lanes.append(len(dss))
        return real(dss, *args, **kw)

    monkeypatch.setattr(harness_mod, "train_margin_oracle", counting)
    with pytest.raises(DivergenceError, match=r"margin oracle epoch \d+, batch \d+: diverged"):
        build_dataset(small_config(center_scale=1e200))
    assert lanes == [1]


# -- metrics CSV ------------------------------------------------------------------


def test_metrics_csv_roundtrip(tmp_path):
    cfg = small_config(total_epochs=6, warmup_epochs=2)
    res = run_experiment(cfg)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(res.log, str(path))
    header = path.read_text().splitlines()[0]
    assert header == ",".join(METRICS_COLUMNS)
    back = read_metrics_csv(str(path))
    assert all(rows_equal(x, y) for x, y in zip(res.log, back))
    assert [r.wall_time for r in back] == [r.wall_time for r in res.log]


# -- checkpoint / resume ------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    {},
    {"classifier_optimizer": "adam", "unlabeled_fraction": 0.5},
    {"extractor_features": "logits", "metanet_optimizer": "sgd-momentum"},
    {"hidden": []},
], ids=["sgd", "adam-half-unlabeled", "logits-sgd-generator", "no-hidden-layer"])
def test_checkpoint_resume_is_bit_exact(tmp_path, kw):
    # resume at the last warm-up epoch, at the first phase-2 epoch (the
    # extractor and generator are built after the resume), mid phase 2 and
    # at the schedule's drop at epoch 6 (the epoch loop sets the rate).
    # The step counts are not stored: with an adam classifier they feed its
    # bias correction, and with half the train rows unlabeled a warm-up epoch
    # takes half the batches of a phase-2 epoch. The extractor is the whole
    # classifier in logits mode and no layer without hidden layers
    cfg = small_config(seed=7, **kw)
    ds = build_dataset(cfg)
    straight = run_experiment(cfg, ds.view())

    class Stop(Exception):
        pass

    for resume_at in (cfg.warmup_epochs - 1, cfg.warmup_epochs, 5, 6):
        cp = str(tmp_path / f"checkpoint{resume_at}.json")

        def stop(row):
            if row.epoch == resume_at:
                raise Stop

        with pytest.raises(Stop):
            run_experiment(cfg, ds.view(), checkpoint_path=cp, on_epoch=stop)
        state = load_checkpoint(cp, cfg)
        assert state.epoch_next == resume_at
        resumed = run_experiment(cfg, ds.view(), checkpoint_path=cp, state=state)

        assert len(resumed.log) == len(straight.log)
        assert all(rows_equal(a, b) for a, b in zip(resumed.log, straight.log))
        assert resumed.best_epoch == straight.best_epoch
        for name in ("opt_theta", "opt_phi"):
            assert getattr(resumed, name).step_count == getattr(straight, name).step_count
        for (wa, ba), (wb, bb) in zip(resumed.theta.layers, straight.theta.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)
        assert np.array_equal(resumed.labeler.layers[0][0], straight.labeler.layers[0][0])


@pytest.mark.parametrize("mode, hidden, width", [
    ("penultimate", [8, 6], 6), ("logits", [8, 6], 3), ("penultimate", [], 6), ("logits", [], 3),
])
def test_phase2_begins_with_a_copied_prefix_and_a_zero_generator(mode, hidden, width):
    from metalabel.harness import RunState

    cfg = small_config(extractor_features=mode, hidden=hidden, metanet_optimizer="sgd-momentum")
    st = RunState.fresh(cfg, 6, 3)
    st.begin_phase2(cfg)
    k = len(hidden) + (mode == "logits")
    assert st.extractor.sizes == st.theta.sizes[:k + 1] and st.extractor.out_dim == width
    assert np.array_equal(st.extractor.flat, st.theta.flat[:st.extractor.flat.size])
    assert not np.shares_memory(st.extractor.flat, st.theta.flat)
    assert st.labeler.sizes == (width, 3) and not st.labeler.flat.any()
    assert (st.opt_phi.kind, st.opt_phi.lr) == ("sgd-momentum", cfg.meta_lr)
    assert st.opt_phi.buffers.shape == st.labeler.flat.shape


def test_resume_requires_checkpoint(tmp_path):
    cfg = small_config()
    with pytest.raises(ValueError, match="checkpoint not found: .*nope.json"):
        load_checkpoint(str(tmp_path / "nope.json"), cfg)
    with pytest.raises(ValueError, match=f"checkpoint {tmp_path} cannot be read"):
        load_checkpoint(str(tmp_path), cfg)


def test_checkpoint_rejects_other_config(tmp_path):
    cfg = small_config(total_epochs=6, warmup_epochs=2)
    cp = str(tmp_path / "c.json")
    run_experiment(cfg, checkpoint_path=cp)
    with pytest.raises(ValueError):
        load_checkpoint(cp, small_config(seed=123, total_epochs=6, warmup_epochs=2))


@pytest.mark.parametrize("sizes", [[6], [6, 0, 3], [6, 8.0, 6, 3], "6,8,6,3", None],
                         ids=["one-width", "a-zero-width", "a-float-width", "a-string", "null"])
def test_checkpoint_with_sizes_of_no_network_is_malformed(tmp_path, sizes):
    # every vector's length follows from sizes, so they must be layer widths
    cfg = small_config(total_epochs=6, warmup_epochs=2)
    cp = tmp_path / "c.json"
    run_experiment(cfg, checkpoint_path=str(cp))
    blob = json.loads(cp.read_text())
    blob["sizes"] = sizes
    cp.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=f"checkpoint {cp} is malformed: sizes"):
        load_checkpoint(str(cp), cfg)


def test_checkpoint_saved_loaded_and_saved_again_is_the_same_bytes(tmp_path):
    # mid phase 2, so the generator, extractor and both optimizers are set
    from metalabel.harness import save_checkpoint

    cfg = small_config(total_epochs=6, warmup_epochs=2)
    cp = tmp_path / "c.json"
    run_experiment(cfg, checkpoint_path=str(cp))
    again = tmp_path / "again.json"
    save_checkpoint(str(again), cfg, load_checkpoint(str(cp), cfg))
    assert again.read_bytes() == cp.read_bytes()


def test_a_failed_checkpoint_write_leaves_the_last_checkpoint_and_no_other_file(
        tmp_path, monkeypatch):
    import metalabel.harness as hmod

    cfg = small_config(total_epochs=6, warmup_epochs=2)
    ds = build_dataset(cfg)
    st = hmod.RunState.fresh(cfg, ds.dims, ds.n_classes)
    cp = tmp_path / "checkpoint.json"
    hmod.save_checkpoint(str(cp), cfg, st)
    first = cp.read_bytes()

    real_dumps = hmod.json.dumps

    def no_space(obj, *args, **kw):  # on the checkpoint, not on the config hash
        if isinstance(obj, dict) and "version" in obj:
            raise OSError(28, "No space left on device")
        return real_dumps(obj, *args, **kw)

    monkeypatch.setattr(hmod.json, "dumps", no_space)
    st.rng.random()  # a state whose write would change the file
    with pytest.raises(OSError, match="No space left"):
        hmod.save_checkpoint(str(cp), cfg, st)
    assert cp.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]


@pytest.mark.parametrize("seeds", [[4], [4, 5]], ids=["solo", "two-lanes"])
def test_a_phase2_epoch_draws_the_train_order_then_the_meta_orders(monkeypatch, seeds):
    # per lane, the run RNG gives one permutation of the train rows, then
    # permutations of the meta rows, one after another, cut into the batches;
    # 336 train rows and 72 meta rows: the fifth meta order is cut, and
    # batches of 32 straddle the meta orders and end with a short batch
    import metalabel.harness as hmod

    cfgs = [small_config(seed=s, noise_kind="uniform", train_frac=0.7, meta_frac=0.15,
                         test_frac=0.15, warmup_epochs=1, total_epochs=2) for s in seeds]
    dss = [build_dataset(c) for c in cfgs]
    lanes = [hmod._Lane(c, ds.view(), hmod.RunState.fresh(c, ds.dims, ds.n_classes))
             for c, ds in zip(cfgs, dss)]
    hmod._train(lanes, 1, True)
    inputs = [hmod._Phase2Rows.of(c, ln) for c, ln in zip(cfgs, lanes)]
    n_train, n_meta = (dss[0].indices(split).size for split in ("train", "meta"))
    assert (n_train, n_meta) == (336, 72)
    rngs = [copy.deepcopy(ln.st.rng) for ln in lanes]
    seen = []
    real_step = hmod.meta_step

    def recording(labeler, theta, x, v, mx, *args, **kw):
        seen.append((x.copy(), mx.copy()))  # views of buffers the next block rewrites
        return real_step(labeler, theta, x, v, mx, *args, **kw)

    monkeypatch.setattr(hmod, "meta_step", recording)
    hmod._phase2_epoch(cfgs[0], lanes, inputs, "epoch 1")
    assert len(seen) == math.ceil(n_train / cfgs[0].batch_size)
    for s, (rng, ds, ln) in enumerate(zip(rngs, dss, lanes)):
        order = rng.permutation(n_train)
        meta = np.concatenate([rng.permutation(n_meta) for _ in range(5)])[:n_train]
        assert rng.bit_generator.state == ln.st.rng.bit_generator.state  # nothing more
        for b, (x, mx) in enumerate(seen):
            cut = slice(b * cfgs[0].batch_size, (b + 1) * cfgs[0].batch_size)
            if len(lanes) > 1:
                x, mx = x[s], mx[s]
            assert np.array_equal(x, ds.x[ds.indices("train")[order[cut]]])
            assert np.array_equal(mx, ds.x[ds.indices("meta")[meta[cut]]])


def test_a_phase2_batch_runs_two_classifier_forward_passes(monkeypatch):
    # theta on the train batch, shared by the meta step and the classifier
    # step, and theta_hat on the meta batch
    import metalabel.harness as hmod
    import metalabel.meta as meta_mod

    cfg = small_config(warmup_epochs=3, total_epochs=4)
    ds = build_dataset(cfg)
    ln = hmod._Lane(cfg, ds.view(), hmod.RunState.fresh(cfg, ds.dims, ds.n_classes))
    hmod._train([ln], cfg.warmup_epochs, True)
    inputs = [hmod._Phase2Rows.of(cfg, ln)]
    batches, passes = [], []
    real_step, real_forward = hmod.meta_step, meta_mod.mlp_forward

    def counting_step(labeler, theta, x, v, mx, *args, **kw):
        batches.append((theta, x, mx))
        return real_step(labeler, theta, x, v, mx, *args, **kw)

    def counting_forward(layers, x):
        passes.append((layers, x))
        return real_forward(layers, x)

    monkeypatch.setattr(hmod, "meta_step", counting_step)
    monkeypatch.setattr(meta_mod, "mlp_forward", counting_forward)
    hmod._phase2_epoch(cfg, [ln], inputs, "epoch 3")
    assert len(batches) == math.ceil(ds.indices("train").size / cfg.batch_size)
    assert len(passes) == 2 * len(batches)
    for (theta, x, mx), (at_theta, at_hat) in zip(batches, zip(passes[0::2], passes[1::2])):
        assert at_theta[0] is theta.layers and at_theta[1] is x
        assert at_hat[0] is not theta.layers and at_hat[1] is mx
