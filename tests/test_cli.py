import csv
import json

import numpy as np
import pytest

import metalabel.cli as cli_mod
import metalabel.harness as harness_mod
from metalabel.cli import main
from metalabel.data import load_dataset
from metalabel.harness import TrainConfig, build_dataset


def tiny_config(**kw) -> dict:
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "data": {"n": 320, "dims": 5, "classes": 2, "center_scale": 4.0,
                 "train_frac": 0.75, "meta_frac": 0.125, "test_frac": 0.125},
        "noise": {"kind": "uniform", "ratio": 0.3},
        "model": {"hidden": [6, 4]},
        "train": {"batch_size": 20, "warmup_epochs": 2, "total_epochs": 6,
                  "lr_schedule": [[0, 0.01]], "meta_lr": 0.01,
                  "oracle_epochs": 10},
    }
    for key, value in kw.items():
        section, _, name = key.partition(".")
        if name:
            cfg[section][name] = value
        else:
            cfg[section] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def strip_wall_time(csv_path) -> list[list[str]]:
    with open(csv_path, newline="") as fh:
        rows = [r for r in csv.reader(fh)]
    drop = rows[0].index("wall_time")
    return [r[:drop] + r[drop + 1:] for r in rows]


# -- gen-data ---------------------------------------------------------------------


def test_gen_data_roundtrips(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "data.dsv"
    assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
    assert out.exists()
    ds = load_dataset(str(out))
    assert ds.n == 320 and ds.dims == 5


def test_gen_data_flip_count_matches_in_memory(tmp_path):
    cfg_dict = tiny_config()
    cfg_path = write_config(tmp_path, cfg_dict)
    out = tmp_path / "data.dsv"
    assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
    reloaded = load_dataset(str(out))
    direct = build_dataset(TrainConfig.from_dict(cfg_dict))
    assert np.array_equal(reloaded.y_noisy, direct.y_noisy)
    flips_file = int((reloaded.y_noisy != reloaded.y_clean).sum())
    flips_mem = int((direct.y_noisy != direct.y_clean).sum())
    assert flips_file == flips_mem > 0


def test_gen_data_rejects_bad_ratio(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(**{"noise.ratio": 1.5}))
    code = main(["gen-data", "--config", cfg_path, "--out", str(tmp_path / "x.dsv")])
    assert code == 2
    assert "noise.ratio" in capsys.readouterr().err


def test_gen_data_missing_config_is_usage_error(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x.dsv")]) == 2


@pytest.mark.parametrize("exists", [True, False], ids=["existing", "missing"])
def test_gen_data_rejects_a_dataset_path(tmp_path, capsys, exists):
    # gen-data always synthesises; a config naming a dataset file is refused
    # before anything is written, whether or not that file exists
    source = tmp_path / "source.dsv"
    if exists:
        assert main(["gen-data", "--config", write_config(tmp_path, tiny_config()),
                     "--out", str(source)]) == 0
    before = source.read_bytes() if exists else None
    cfg_path = write_config(tmp_path, tiny_config(**{"data.path": str(source)}), "path.json")
    out = tmp_path / "out.dsv"
    assert main(["gen-data", "--config", cfg_path, "--out", str(out), "--seed", "9"]) == 2
    assert "data.path" in capsys.readouterr().err
    assert not out.exists()
    assert (source.read_bytes() if exists else None) == before
    assert source.exists() == exists


def test_a_label_edited_after_gen_data_is_read(tmp_path):
    out = tmp_path / "data.dsv"
    assert main(["gen-data", "--config", write_config(tmp_path, tiny_config()),
                 "--out", str(out)]) == 0
    before = load_dataset(str(out))
    row = int(np.flatnonzero(before.split == "train")[0])
    lines = out.read_text().splitlines(keepends=True)
    cells = lines[row + 2].split(",")
    cells[-3] = str(1 - int(cells[-3]))  # y_noisy, of two classes
    lines[row + 2] = ",".join(cells)
    out.write_text("".join(lines))
    after = load_dataset(str(out))
    assert after.y_noisy[row] == 1 - before.y_noisy[row]
    after.y_noisy[row] = before.y_noisy[row]
    assert np.array_equal(after.y_noisy, before.y_noisy)


def test_gen_data_creates_the_parent_directory(tmp_path):
    out = tmp_path / "nodir" / "x.dsv"
    assert main(["gen-data", "--config", write_config(tmp_path, tiny_config()),
                 "--out", str(out)]) == 0
    assert load_dataset(str(out)).n == 320


# -- train ------------------------------------------------------------------------


@pytest.mark.parametrize("key, value", [
    ("train.total_epochs", "6"), ("train.batch_size", 20.5), ("model.hidden", "abc"),
    ("train.lr_schedule", 0.01), ("train.meta_lr", "0.01"), ("seed", "0"),
    ("data.n", 320.0), ("data.dims", "5"), ("train.entropy_loss", "no"),
    ("train.lr_schedule", [[0, 0.01, 5]]), ("train.batch_size", True), ("data.path", 3),
    ("model.hidden", [6.0, 4]),
])
def test_config_type_error_is_usage_error_naming_the_field(tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path, tiny_config(**{key: value}))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_invalid_json_config_names_the_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"schema_version": 1,')
    for command in ("train", "sweep"):
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert str(bad) in capsys.readouterr().err




def test_train_writes_metrics_checkpoint_and_summary(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for key in ("selected_epoch", "meta_accuracy", "test_accuracy",
                "config_hash", "timestamp"):
        assert key in summary
    assert (out / "checkpoint.json").exists()
    rows = strip_wall_time(out / "metrics.csv")
    assert len(rows) == 1 + 6  # header + one row per epoch
    for r in rows[1:]:
        assert np.isfinite(float(r[5]))  # loss_c parses and is finite
        if r[1] == "phase2":
            assert np.isfinite(float(r[7]))  # loss_meta


def test_train_is_idempotent_modulo_timestamps(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg_path, "--out", str(out_a), "--seed", "5"]) == 0
    assert main(["train", "--config", cfg_path, "--out", str(out_b), "--seed", "5"]) == 0
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("timestamp")
    sb.pop("timestamp")
    assert sa == sb
    assert strip_wall_time(out_a / "metrics.csv") == strip_wall_time(out_b / "metrics.csv")

    def checkpoint_sans_times(path):
        blob = json.loads(path.read_text())
        for row in blob["log"]:
            row["wall_time"] = 0.0
        return blob

    assert checkpoint_sans_times(out_a / "checkpoint.json") \
        == checkpoint_sans_times(out_b / "checkpoint.json")


def test_train_unlabeled_override(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out),
                 "--unlabeled-fraction", "0.5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["test_accuracy"] <= 1.0


def test_train_missing_dataset_file_is_usage_error(tmp_path):
    cfg = tiny_config()
    cfg["data"]["path"] = str(tmp_path / "missing.dsv")
    cfg_path = write_config(tmp_path, cfg)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2


def _truncate_mid_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    half = len(lines) // 2
    return "".join(lines[:half]) + lines[half][:lines[half].index(",", 3)]


def _non_numeric_cell(text: str, cell: str = "abc") -> str:
    """Row 3 of the body (line 6 of the file) with `cell` as its x_2."""
    lines = text.splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[2] = cell
    lines[5] = ",".join(cells)
    return "".join(lines)


def _drop_a_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:7] + lines[8:])


def _non_json_header(text: str) -> str:
    return "version 1\n" + text.split("\n", 1)[1]


@pytest.mark.parametrize("corrupt, detail", [
    (_truncate_mid_row, "columns"),
    (_non_numeric_cell, "'abc'"),
    (_drop_a_row, "header says 320 rows, the body has 319"),
    (_non_json_header, "line 1 column 1"),
    *(pytest.param(lambda text, c=c: _non_numeric_cell(text, c),
                   f"row 3 (line 6): x_2 = {c} is not a finite number", id=f"{c}_cell")
      for c in ("nan", "inf", "-inf")),
])
def test_malformed_dataset_file_is_usage_error_naming_the_file(tmp_path, capsys,
                                                               corrupt, detail):
    data_path = tmp_path / "data.dsv"
    assert main(["gen-data", "--config", write_config(tmp_path, tiny_config()),
                 "--out", str(data_path)]) == 0
    data_path.write_text(corrupt(data_path.read_text()))
    cfg = tiny_config()
    cfg["data"]["path"] = str(data_path)
    cfg_path = write_config(tmp_path, cfg, name="train.json")
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data_path}: ") and detail in err, err


def test_eval_on_a_dataset_file_with_a_non_finite_cell_is_usage_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(**{"train.total_epochs": 3}))
    data_path, out = tmp_path / "data.dsv", tmp_path / "run"
    assert main(["gen-data", "--config", cfg_path, "--out", str(data_path)]) == 0
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    data_path.write_text(_non_numeric_cell(data_path.read_text(), "nan"))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--dataset", str(data_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data_path}: ") and "x_2 = nan" in err, err


def test_train_baseline_builds_the_dataset_once(tmp_path, monkeypatch):
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return build_dataset(cfg)

    monkeypatch.setattr(cli_mod, "build_dataset", counting)
    monkeypatch.setattr(harness_mod, "build_dataset", counting)
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out), "--baseline"]) == 0
    assert len(calls) == 1
    assert (out / "baseline_summary.json").exists()


def test_train_baseline_builds_no_tensors(tmp_path, monkeypatch):
    # training, the baseline, the margin oracle and the checkpoints all run on
    # plain arrays; the autodiff engine is the reference route only
    from metalabel import engine

    built = []
    init = engine.Tensor.__init__

    def counting_init(tensor, *args, **kwargs):
        built.append(1)
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(engine.Tensor, "__init__", counting_init)
    cfg = {"schema_version": 1, "data": {"n": 600},
           "train": {"batch_size": 16, "warmup_epochs": 2, "total_epochs": 6,
                     "oracle_epochs": 3}}
    assert main(["train", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "run"), "--seed", "5", "--baseline"]) == 0
    assert (tmp_path / "run" / "baseline_summary.json").exists()
    assert len(built) == 0


def test_train_resume_decodes_the_checkpoint_once(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    calls = []
    load = harness_mod.load_checkpoint

    def counting(*args, **kw):
        calls.append(args)
        return load(*args, **kw)

    monkeypatch.setattr(cli_mod, "load_checkpoint", counting)
    monkeypatch.setattr(harness_mod, "load_checkpoint", counting)
    assert main(["train", "--config", cfg_path, "--out", str(out), "--resume"]) == 0
    assert len(calls) == 1


def test_train_resume_matches_straight_run(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg_path, "--out", str(out_a)]) == 0
    # a completed checkpoint resumes to the identical summary
    assert main(["train", "--config", cfg_path, "--out", str(out_b)]) == 0
    assert main(["train", "--config", cfg_path, "--out", str(out_b), "--resume"]) == 0
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("timestamp")
    sb.pop("timestamp")
    assert sa == sb


def test_train_divergence_is_a_runtime_error_naming_epoch_and_batch(tmp_path, capsys):
    cases = (([[0, 1e6]], "epoch 0 (warm-up), batch "),
             ([[0, 1e-2], [1, 1e6]], "epoch 1, batch "))
    for i, (schedule, where) in enumerate(cases):
        cfg = tiny_config(**{"train.lr_schedule": schedule, "train.warmup_epochs": 1})
        cfg_path = write_config(tmp_path, cfg, name=f"config{i}.json")
        capsys.readouterr()
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / f"r{i}")]) == 1
        err = capsys.readouterr().err
        assert where in err and "diverged" in err, err


def test_train_resume_without_checkpoint_is_usage_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out), "--resume"]) == 2
    assert f"checkpoint not found: {out / 'checkpoint.json'}" in capsys.readouterr().err


def test_truncated_checkpoint_is_usage_error_naming_the_file(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    data_path = tmp_path / "data.dsv"
    out = tmp_path / "run"
    assert main(["gen-data", "--config", cfg_path, "--out", str(data_path)]) == 0
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    cp = out / "checkpoint.json"
    cp.write_text(cp.read_text()[:200])
    metrics = (out / "metrics.csv").read_text()
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out), "--resume"]) == 2
    assert str(cp) in capsys.readouterr().err
    assert (out / "metrics.csv").read_text() == metrics  # not truncated by the failed resume
    assert main(["eval", "--checkpoint", str(cp), "--dataset", str(data_path)]) == 2
    assert str(cp) in capsys.readouterr().err
    # valid JSON with a field missing
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    blob = json.loads(cp.read_text())
    del blob["theta"]
    cp.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out), "--resume"]) == 2
    assert str(cp) in capsys.readouterr().err


def _mat(a) -> dict:
    return {"shape": list(a.shape), "hex": [v.hex() for v in a.ravel().tolist()]}


def _arr(d: dict) -> np.ndarray:
    return np.array([float.fromhex(h) for h in d["hex"]]).reshape(d["shape"])


class _Stop(Exception):
    pass


@pytest.mark.parametrize("change", [
    lambda w, b: (w, np.vstack([b, b])),
    lambda w, b: (w[:-1], b),
    lambda w, b: (np.hstack([w, w]), np.hstack([b, b])),
], ids=["two-bias-rows", "narrower-than-the-extractor", "more-classes-than-the-classifier"])
def test_checkpoint_with_an_unfitting_generator_is_usage_error_naming_the_file(
        tmp_path, capsys, change):
    cfg = tiny_config()
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    out.mkdir()
    cp = out / "checkpoint.json"

    def stop(row):
        if row.epoch == 3:  # the checkpoint holds epochs 0-2, phase 2 from epoch 2
            raise _Stop

    with pytest.raises(_Stop):
        harness_mod.run_experiment(TrainConfig.from_dict(cfg), checkpoint_path=str(cp),
                                   on_epoch=stop)
    blob = json.loads(cp.read_text())
    w, b = change(_arr(blob["labeler"]["w"]), _arr(blob["labeler"]["b"]))
    blob["labeler"] = {"w": _mat(w), "b": _mat(b)}
    cp.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out), "--resume"]) == 2
    assert f"checkpoint {cp} is malformed" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["extractor", "labeler", "opt_phi"])
def test_checkpoint_with_part_of_the_phase2_state_is_usage_error_naming_the_file(
        tmp_path, capsys, key):
    # the extractor, generator and generator optimizer are built together at
    # the first phase-2 epoch, so a checkpoint holds all three or none
    cfg = tiny_config()
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    out.mkdir()
    cp = out / "checkpoint.json"

    def stop(row):
        if row.epoch == 3:  # the checkpoint holds epochs 0-2, phase 2 from epoch 2
            raise _Stop

    with pytest.raises(_Stop):
        harness_mod.run_experiment(TrainConfig.from_dict(cfg), checkpoint_path=str(cp),
                                   on_epoch=stop)
    blob = json.loads(cp.read_text())
    blob[key] = None
    cp.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {cp} is malformed" in err and key in err


# -- gradcheck ----------------------------------------------------------------------


def test_gradcheck_passes_and_reports_per_loss(tmp_path, capsys):
    assert main(["gradcheck", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for name in ("cce-loss", "kl-loss", "entropy-loss",
                 "meta gradient (fused)", "route equivalence"):
        assert name in out
    assert "all" in out and "passed" in out


def test_gradcheck_corrupt_route_fails(capsys):
    assert main(["gradcheck", "--trials", "5", "--corrupt-route"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


# -- eval --------------------------------------------------------------------------


def test_eval_prints_single_decimal(tmp_path, capsys):
    cfg = tiny_config(**{"noise.ratio": 0.0, "train.total_epochs": 8,
                         "train.warmup_epochs": 3})
    cfg_path = write_config(tmp_path, cfg)
    data_path = tmp_path / "data.dsv"
    assert main(["gen-data", "--config", cfg_path, "--out", str(data_path)]) == 0
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--dataset", str(data_path), "--split", "train"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    acc = float(printed)
    assert 0.0 <= acc <= 1.0
    assert acc >= 0.9  # clean separable data after a full run


def test_eval_missing_checkpoint_is_usage_error(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "none.json"),
                 "--dataset", str(tmp_path / "none.dsv")]) == 2


def test_eval_of_a_directory_is_usage_error_naming_it(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(**{"train.total_epochs": 3}))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--dataset", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")


@pytest.mark.parametrize("key, value", [("data.dims", 8), ("data.classes", 3)],
                         ids=["more-features", "more-classes"])
def test_eval_with_a_dataset_that_does_not_fit_the_checkpoint_names_both_files(
        tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path, tiny_config(**{"train.total_epochs": 3}))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    other = write_config(tmp_path, tiny_config(**{key: value}), name="other.json")
    data_path = tmp_path / "other.dsv"
    assert main(["gen-data", "--config", other, "--out", str(data_path)]) == 0
    capsys.readouterr()
    cp = out / "checkpoint.json"
    assert main(["eval", "--checkpoint", str(cp), "--dataset", str(data_path)]) == 2
    err = capsys.readouterr().err
    assert f"dataset {data_path} " in err and f"checkpoint {cp} " in err, err


# -- finished outputs ----------------------------------------------------------------


def test_a_failed_output_write_leaves_the_old_file_and_no_other(tmp_path, monkeypatch):
    # summary.json, the metrics CSVs of a baseline and of sweep cells, and
    # aggregate.csv are replaced whole: a write that fails leaves the old bytes
    from metalabel.harness import EpochRow, write_metrics_csv

    summary, metrics = tmp_path / "summary.json", tmp_path / "metrics.csv"
    cli_mod._write_summary(str(summary), {"test_accuracy": 0.5})
    write_metrics_csv([EpochRow(0, "warmup", *[0.5] * 10)], str(metrics))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(TypeError):
        cli_mod._write_summary(str(summary), {"test_accuracy": object()})
    with pytest.raises(ValueError):
        write_metrics_csv([EpochRow(1, "warmup", *["not a float"] * 10)], str(metrics))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    sweep = {"schema_version": 1, "base": tiny_config(**{"train.total_epochs": 3}),
             "grid": {"seed": [0]}}
    cfg_path = write_config(tmp_path, sweep, "sweep.json")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    files, aggregate = sorted(out.rglob("*")), (out / "aggregate.csv").read_bytes()

    def fail(rows):  # only aggregate.csv; the cell files are written again
        raise RuntimeError("serialisation failed")

    monkeypatch.setattr(cli_mod, "csv_text", fail)
    with pytest.raises(RuntimeError, match="serialisation failed"):
        cli_mod.cmd_sweep(cli_mod.build_parser().parse_args(
            ["sweep", "--config", cfg_path, "--out", str(out)]))
    assert sorted(out.rglob("*")) == files
    assert (out / "aggregate.csv").read_bytes() == aggregate


# -- sweep -------------------------------------------------------------------------


def test_sweep_grid_runs_all_cells(tmp_path):
    sweep = {
        "schema_version": 1,
        "base": tiny_config(),
        "grid": {"seed": [0, 1], "train.unlabeled_fraction": [0.0, 0.4]},
    }
    cfg_path = write_config(tmp_path, sweep, "sweep.json")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    summaries = list(out.glob("*/summary.json"))
    assert len(summaries) == 4
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:1] == ["cell_id"]
    assert len(rows) == 5
    ids = [r[0] for r in rows[1:]]
    assert ids == sorted(ids)


def test_sweep_explicit_cells_meta_size_saturation(tmp_path):
    # meta split of 100 / 250 / 500 rows with the train split absorbing the
    # difference; accuracy should plateau once the meta split passes a few
    # dozen rows per class
    n, test = 3500, 500
    cells = []
    for msize in (100, 250, 500):
        cells.append({"data.meta_frac": msize / n,
                      "data.train_frac": (n - test - msize) / n})
    sweep = {
        "schema_version": 1,
        "base": {
            "schema_version": 1,
            "seed": 1,
            "data": {"n": n, "dims": 10, "classes": 4,
                     "train_frac": 1.0 - 0.1 - test / n, "meta_frac": 0.1,
                     "test_frac": test / n},
            "noise": {"kind": "feature-dependent", "ratio": 0.6},
            "train": {"batch_size": 64, "warmup_epochs": 12,
                      "total_epochs": 45,
                      "lr_schedule": [[0, 0.01], [25, 0.001]]},
        },
        "cells": cells,
    }
    cfg_path = write_config(tmp_path, sweep, "sweep.json")
    out = tmp_path / "meta_size"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    by_meta = {}
    for r in rows[1:]:
        rec = dict(zip(head, r))
        size = round(float(rec["data.meta_frac"]) * n)
        by_meta[size] = float(rec["test_accuracy"])
    assert set(by_meta) == {100, 250, 500}
    # plateau: growing the meta split from 250 to 500 changes little
    assert abs(by_meta[500] - by_meta[250]) <= 0.03


def test_sweep_parallel_jobs_match_serial(tmp_path):
    sweep = {"schema_version": 1, "base": tiny_config(), "grid": {"seed": [0, 1]}}
    cfg_path = write_config(tmp_path, sweep, "sweep.json")
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", "--config", cfg_path, "--out", str(serial)]) == 0
    assert main(["sweep", "--config", cfg_path, "--out", str(parallel),
                 "--jobs", "2"]) == 0
    assert (serial / "aggregate.csv").read_bytes() == (parallel / "aggregate.csv").read_bytes()


@pytest.mark.parametrize("sweep", [
    {"grid": {"data.path": ["a/b.dsv", "a_b.dsv"]}},
    {"cells": [{"seed": 1}, {"seed": 2}, {"seed": 1}]},
])
def test_sweep_rejects_cells_sharing_a_directory(tmp_path, capsys, sweep):
    cfg_path = write_config(tmp_path, {"schema_version": 1, "base": tiny_config(), **sweep},
                            "sweep.json")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert "same directory" in capsys.readouterr().err
    assert not out.exists()  # rejected before any cell ran


def test_sweep_failing_cell_keeps_the_others_and_reports_status(tmp_path, capsys):
    sweep = {"schema_version": 1, "base": tiny_config(),
             "grid": {"train.lr_schedule": [[[0, 0.01]], [[0, 1e6]]]}}
    cfg_path = write_config(tmp_path, sweep, "sweep.json")
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--jobs", jobs]) == 1
        assert "failed" in capsys.readouterr().err
        with open(out / "aggregate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        status = {r["train.lr_schedule"]: r["status"] for r in rows}
        assert status["[[0, 0.01]]"] == "ok"
        assert "epoch 0 (warm-up), batch 1: diverged" in status["[[0, 1000000.0]]"]
        assert len(list(out.glob("*/summary.json"))) == 1
        outs.append((out / "aggregate.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    sweep = {"schema_version": 1, "base": tiny_config(), "grid": {"seed": [0, 1]}}
    cfg_path = write_config(tmp_path, sweep, "sweep.json")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_unknown_keys(tmp_path):
    sweep = {"schema_version": 1, "base": tiny_config(), "grid": {"seed": [0]},
             "extra": 1}
    cfg_path = write_config(tmp_path, sweep, "sweep.json")
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "s")]) == 2


def test_sweep_rejects_bad_grid_key(tmp_path):
    sweep = {"schema_version": 1, "base": tiny_config(),
             "grid": {"train.bogus_knob": [1, 2]}}
    cfg_path = write_config(tmp_path, sweep, "sweep.json")
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "s")]) == 2


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2