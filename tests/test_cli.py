import base64
import csv
import json
from pathlib import Path

import numpy as np
import pytest

import metalabel.cli as cli_mod
import metalabel.harness as harness_mod
from metalabel.cli import main
from metalabel.data import load_dataset, save_dataset
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


def test_gen_data_into_a_directory_is_usage_error_before_the_dataset_is_built(
        tmp_path, capsys, monkeypatch):
    def build(cfg):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(cli_mod, "build_dataset", build)
    cfg_path = write_config(tmp_path, tiny_config(**{"noise.kind": "feature-dependent"}))
    out = tmp_path / "data"
    out.mkdir()
    assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"--out {out} is a directory" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_gen_data_creates_the_parent_directory(tmp_path):
    out = tmp_path / "nodir" / "x.dsv"
    assert main(["gen-data", "--config", write_config(tmp_path, tiny_config()),
                 "--out", str(out)]) == 0
    assert load_dataset(str(out)).n == 320


@pytest.mark.parametrize("command", ["gen-data", "train", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_an_output_directory_a_file_stands_in_the_way_of_is_usage_error_naming_it(
        tmp_path, capsys, command, below):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    cfg = tiny_config(**{"train.total_epochs": 3})
    if command == "sweep":
        cfg = {"schema_version": 1, "base": cfg, "grid": {"seed": [0]}}
    # the directory to create: --out itself, or the parent of gen-data's file
    target = afile / "sub" if below else afile
    out = target / "x.dsv" if command == "gen-data" else target
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot create directory {target}: " in err, err
    assert afile.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


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


@pytest.mark.parametrize("text", [b'{"schema_version": 1,', b'\xff{}'],
                         ids=["truncated", "not-utf-8"])
def test_invalid_json_config_names_the_file(tmp_path, capsys, text):
    bad = tmp_path / "broken.json"
    bad.write_bytes(text)
    for command in ("train", "sweep"):
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"config {bad} is not valid JSON" in capsys.readouterr().err




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


@pytest.mark.parametrize("command", ["train", "sweep", "eval", "resume", "data.path"])
def test_a_directory_given_as_an_input_file_is_usage_error_naming_it(tmp_path, capsys,
                                                                    command):
    cfg = tiny_config(**{"train.total_epochs": 3})
    cfg_path = write_config(tmp_path, cfg)
    out, folder = tmp_path / "run", tmp_path / "folder"
    folder.mkdir()
    if command in ("eval", "resume"):
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    if command == "resume":  # the checkpoint in --out is a directory
        folder = out / "checkpoint.json"
        folder.unlink()
        folder.mkdir()
    argv = {"train": ["train", "--config", str(folder), "--out", str(out)],
            "sweep": ["sweep", "--config", str(folder), "--out", str(out)],
            "eval": ["eval", "--checkpoint", str(folder), "--dataset", str(tmp_path / "x.dsv")],
            "resume": ["train", "--config", cfg_path, "--out", str(out), "--resume"],
            "data.path": ["train", "--config", write_config(
                tmp_path, tiny_config(**{"data.path": str(folder)}), "path.json"),
                          "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err and "Is a directory" in err, err


def test_train_missing_dataset_file_is_usage_error(tmp_path):
    cfg = tiny_config()
    cfg["data"]["path"] = str(tmp_path / "missing.dsv")
    cfg_path = write_config(tmp_path, cfg)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2


def test_a_dataset_file_with_an_unlabeled_fraction_marks_its_train_rows(tmp_path):
    # the file's train rows are marked from the config seed, as those of the
    # synthesised dataset it was written from are
    data_path = tmp_path / "data.dsv"
    assert main(["gen-data", "--config", write_config(tmp_path, tiny_config()),
                 "--out", str(data_path)]) == 0
    half = {"train.unlabeled_fraction": 0.5}
    on_file = TrainConfig.from_dict(tiny_config(**{"data.path": str(data_path), **half}))
    ds, plain = build_dataset(on_file), load_dataset(str(data_path))
    assert np.array_equal(ds.labeled, build_dataset(on_file).labeled)
    assert np.array_equal(ds.labeled, build_dataset(TrainConfig.from_dict(
        tiny_config(**half))).labeled)
    assert np.array_equal(ds.x, plain.x) and np.array_equal(ds.y_noisy, plain.y_noisy)
    train = plain.indices("train")
    assert np.count_nonzero(~ds.labeled) == np.count_nonzero(~ds.labeled[train]) \
        == round(0.5 * train.size)
    cfg_path = write_config(tmp_path, on_file.to_dict(), "path.json")
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 0


def test_a_dataset_file_with_unlabeled_rows_and_an_unlabeled_fraction_is_usage_error(
        tmp_path, capsys):
    data_path = tmp_path / "data.dsv"
    half = tiny_config(**{"train.unlabeled_fraction": 0.5})
    assert main(["gen-data", "--config", write_config(tmp_path, half),
                 "--out", str(data_path)]) == 0
    cfg = tiny_config(**{"data.path": str(data_path), "train.unlabeled_fraction": 0.25})
    capsys.readouterr()
    assert main(["train", "--config", write_config(tmp_path, cfg, "path.json"),
                 "--out", str(tmp_path / "r")]) == 2
    assert "dataset file already carries unlabeled rows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_an_empty_train_split_is_usage_error_naming_train_frac(tmp_path, capsys,
                                                              monkeypatch, command):
    # with feature-dependent noise the margin oracle would train on no rows
    cfg = tiny_config(**{"data.n": 120, "data.train_frac": 0.0, "data.meta_frac": 0.5,
                         "data.test_frac": 0.5, "noise.kind": "feature-dependent"})

    def refuse(*args, **kw):
        raise AssertionError("the margin oracle trained")

    monkeypatch.setattr(harness_mod, "train_margin_oracle", refuse)
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: data.train_frac 0.0 leaves no train rows" in capsys.readouterr().err


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


def _renamed_column(text: str) -> str:
    header, columns, body = text.split("\n", 2)
    return "\n".join([header, columns.replace("x_1", "x_one"), body])


def _class_out_of_range(text: str) -> str:
    """Row 3 of the body with y_clean (the column after x_0..x_4) set to the
    class count."""
    lines = text.splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[5] = "2"
    lines[5] = ",".join(cells)
    return "".join(lines)


def _header_without_classes(text: str) -> str:
    header, rest = text.split("\n", 1)
    fields = json.loads(header)
    del fields["c"]
    return json.dumps(fields) + "\n" + rest


@pytest.mark.parametrize("corrupt, detail", [
    (_truncate_mid_row, "columns"),
    (_non_numeric_cell, "'abc'"),
    (_drop_a_row, "header says 320 rows, the body has 319"),
    (_non_json_header, "line 1 column 1"),
    (_renamed_column, "column header mismatch"),
    (_header_without_classes, "the header has no 'c' field"),
    (_class_out_of_range, "class index out of range"),
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


@pytest.mark.parametrize("code", [3, -1])
def test_a_split_code_out_of_range_in_the_sidecar_is_usage_error_naming_the_file(
        tmp_path, capsys, code):
    # the sidecar holds the file's digest, so its arrays are read, and checked
    # as the text's are: its last record is the split, one int8 code a row
    data_path = tmp_path / "data.dsv"
    assert main(["gen-data", "--config", write_config(tmp_path, tiny_config()),
                 "--out", str(data_path)]) == 0
    sidecar = tmp_path / ".data.dsv.parsed"
    blob = bytearray(sidecar.read_bytes())
    blob[-1:] = np.int8(code).tobytes()
    sidecar.write_bytes(bytes(blob))
    cfg = tiny_config()
    cfg["data"]["path"] = str(data_path)
    cfg_path = write_config(tmp_path, cfg, name="train.json")
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data_path}: ") and "split codes" in err, err


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


def _unlabel_the_train_rows(ds) -> None:
    ds.labeled[ds.indices("train")] = False


def _move_the_test_rows_to_meta(ds) -> None:
    ds.codes[ds.indices("test")] = ds.codes[ds.indices("meta")[0]]


@pytest.mark.parametrize("edit, split, detail", [
    (_unlabel_the_train_rows, "train", "train split has no labeled rows to evaluate"),
    (_move_the_test_rows_to_meta, "test", "test split has no labeled rows to evaluate"),
], ids=["no-labeled-train-rows", "no-test-rows"])
def test_eval_of_a_split_with_no_rows_to_score_is_usage_error_naming_the_file(
        tmp_path, capsys, edit, split, detail):
    _, cp, data_path = _finished_run(tmp_path)
    ds = load_dataset(str(data_path))
    edit(ds)
    save_dataset(ds, str(data_path))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(cp), "--dataset", str(data_path),
                 "--split", split]) == 2
    assert capsys.readouterr().err == f"error: {data_path}: {detail}\n"


def test_a_dataset_file_without_labeled_train_rows_is_usage_error_naming_it(tmp_path,
                                                                          capsys):
    data_path, out = tmp_path / "data.dsv", tmp_path / "r"
    assert main(["gen-data", "--config", write_config(tmp_path, tiny_config()),
                 "--out", str(data_path)]) == 0
    ds = load_dataset(str(data_path))
    _unlabel_the_train_rows(ds)
    save_dataset(ds, str(data_path))
    capsys.readouterr()
    cfg = tiny_config(**{"data.path": str(data_path)})
    assert main(["train", "--config", write_config(tmp_path, cfg, "path.json"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {data_path}: no labeled train rows\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize("on_file", [False, True], ids=["synthesised", "data.path"])
def test_an_unlabeled_fraction_that_marks_every_train_row_is_usage_error_naming_it(
        tmp_path, capsys, on_file):
    # 60 train rows, round(0.995 * 60) = 60 of them marked unlabeled; refused
    # before anything is written
    cfg = tiny_config(**{"data.n": 120, "data.train_frac": 0.5, "data.meta_frac": 0.25,
                         "data.test_frac": 0.25})
    if on_file:
        data_path = tmp_path / "data.dsv"
        assert main(["gen-data", "--config", write_config(tmp_path, cfg),
                     "--out", str(data_path)]) == 0
        cfg["data"]["path"] = str(data_path)
    cfg["train"]["unlabeled_fraction"] = 0.995
    out = tmp_path / "r"
    capsys.readouterr()
    assert main(["train", "--config", write_config(tmp_path, cfg, "marked.json"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: train.unlabeled_fraction 0.995 leaves no "
                                       "labeled train rows\n")
    assert not list(out.iterdir())


_SPLIT_REFUSALS = {
    "no-test-rows": ({"data.train_frac": 0.875, "data.test_frac": 0.0},
                     "data.test_frac 0.0 leaves no labeled test rows"),
    "no-meta-rows": ({"data.train_frac": 0.875, "data.meta_frac": 0.0},
                     "data.meta_frac 0.0 leaves no labeled meta rows"),
    "batch-above-meta-rows": ({"train.batch_size": 41},
                              "train.batch_size 41 exceeds meta split size 40"),
}


@pytest.mark.parametrize("case", sorted(_SPLIT_REFUSALS))
def test_a_split_a_run_cannot_use_is_usage_error_before_any_output(tmp_path, capsys,
                                                                   monkeypatch, case):
    # 320 rows, 40 of them meta: refused before metrics.csv is opened, not
    # after the first epoch
    overrides, detail = _SPLIT_REFUSALS[case]

    def refuse(*args, **kw):
        raise AssertionError("a run trained")

    monkeypatch.setattr(harness_mod, "_train", refuse)
    out = tmp_path / "r"
    assert main(["train", "--config", write_config(tmp_path, tiny_config(**overrides)),
                 "--out", str(out), "--baseline"]) == 2
    assert capsys.readouterr().err == f"error: {detail}\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize("split", ["meta", "test"])
def test_a_dataset_file_with_an_empty_split_is_usage_error_naming_it(tmp_path, capsys,
                                                                     split):
    data_path, out = tmp_path / "data.dsv", tmp_path / "r"
    cfg = tiny_config(**{"data.train_frac": 0.875, f"data.{split}_frac": 0.0})
    assert main(["gen-data", "--config", write_config(tmp_path, cfg),
                 "--out", str(data_path)]) == 0
    capsys.readouterr()
    on_file = tiny_config(**{"data.path": str(data_path)})
    assert main(["train", "--config", write_config(tmp_path, on_file, "path.json"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {data_path}: no labeled {split} rows\n"
    assert not list(out.iterdir())


def test_a_sweep_cell_with_a_split_it_cannot_use_fails_without_training(tmp_path, capsys):
    cells = [{"data.test_frac": 0.125}, {"data.train_frac": 0.875, "data.test_frac": 0.0}]
    sweep = {"schema_version": 1, "base": tiny_config(), "cells": cells}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, sweep, "sweep.json"),
                 "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("2 cells in 1 lane group (1 lane), 0 lanes reran solo\n")
    with open(out / "aggregate.csv", newline="") as fh:
        status = {r["data.test_frac"]: r["status"] for r in csv.DictReader(fh)}
    assert status == {"0.125": "ok", "0.0": "data.test_frac 0.0 leaves no labeled test rows"}
    assert len(list(out.glob("*/metrics.csv"))) == 1


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


@pytest.mark.filterwarnings("error::RuntimeWarning")  # its one line is all stderr holds
def test_a_step_that_writes_non_finite_parameters_stops_its_batch(tmp_path, capsys):
    # one batch an epoch; the first step overflows 70 of the 83 parameters,
    # so nothing is logged or kept from that classifier
    cfg = tiny_config(**{"data": {"n": 480, "dims": 6, "classes": 3, "train_frac": 0.4,
                                  "meta_frac": 0.45, "test_frac": 0.15},
                         "noise.ratio": 0.2, "model.hidden": [8], "train.batch_size": 200,
                         "train.lr_schedule": [[0, 1e308]], "train.weight_decay": 100})
    out = tmp_path / "r"
    capsys.readouterr()
    assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("runtime failure: epoch 0 (warm-up), batch 0: "
                                       "diverged: non-finite parameters\n")
    assert (out / "metrics.csv").read_text().count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv"]


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
    cp.write_bytes(b"\xff" + cp.read_bytes())  # not UTF-8
    assert main(["eval", "--checkpoint", str(cp), "--dataset", str(data_path)]) == 2
    assert f"checkpoint {cp} is not valid JSON" in capsys.readouterr().err
    # valid JSON with a field missing
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    blob = json.loads(cp.read_text())
    del blob["theta"]
    cp.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out), "--resume"]) == 2
    assert str(cp) in capsys.readouterr().err


class _Stop(Exception):
    pass


def _finished_run(tmp_path) -> tuple[str, Path, Path]:
    """A finished run of 2 warm-up and 2 phase-2 epochs and its dataset
    file: the config's path, the checkpoint and the dataset."""
    cfg_path = write_config(tmp_path, tiny_config(**{"train.total_epochs": 4}))
    data_path, out = tmp_path / "data.dsv", tmp_path / "run"
    assert main(["gen-data", "--config", cfg_path, "--out", str(data_path)]) == 0
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    return cfg_path, out / "checkpoint.json", data_path


def test_a_version_1_checkpoint_is_usage_error_naming_the_file_and_version(tmp_path,
                                                                          capsys):
    cfg_path, cp, data_path = _finished_run(tmp_path)
    cfg = TrainConfig.from_dict(json.loads(Path(cfg_path).read_text()))
    cp.write_text(json.dumps({"version": 1, "config_hash": cfg.config_hash(),
                              "epoch_next": 4}))
    capsys.readouterr()
    for argv in (["train", "--config", cfg_path, "--out", str(cp.parent), "--resume"],
                 ["eval", "--checkpoint", str(cp), "--dataset", str(data_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {cp}: unsupported checkpoint version 1" in err, err


def _one_float_short(vec: np.ndarray) -> np.ndarray:
    return vec[:-1]


def _one_entry(value: float):
    def corrupt(vec: np.ndarray) -> np.ndarray:
        vec[len(vec) // 2] = value
        return vec
    return corrupt


_MEMBERS = ["theta", "theta_best", "extractor", "labeler", "opt_theta.buffers", "opt_phi.m",
            "opt_phi.v"]


@pytest.mark.parametrize("key, corrupt, detail", [
    *(pytest.param(key, _one_float_short, "floats, layer widths", id=key) for key in _MEMBERS),
    *(pytest.param(key, _one_entry(value), "a non-finite entry",
                   id=f"{key}-{value}")
      for value in (np.nan, np.inf, -np.inf) for key in _MEMBERS),
])
def test_a_checkpoint_vector_one_float_short_is_usage_error_naming_the_member(
        tmp_path, capsys, key, corrupt, detail):
    # each vector's length follows from sizes, the config and the class count,
    # and training never writes a non-finite entry
    cfg_path, cp, data_path = _finished_run(tmp_path)
    blob = json.loads(cp.read_text())
    *path, last = key.split(".")
    rec = blob[path[0]] if path else blob
    rec[last] = _b64(corrupt(np.frombuffer(base64.b64decode(rec[last]), "<f8").copy()))
    cp.write_text(json.dumps(blob))
    capsys.readouterr()
    for argv in (["train", "--config", cfg_path, "--out", str(cp.parent), "--resume"],
                 ["eval", "--checkpoint", str(cp), "--dataset", str(data_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {cp} is malformed: {key} holds " in err and detail in err, err


def _b64(a) -> str:
    return base64.b64encode(np.asarray(a, "<f8").tobytes()).decode()


@pytest.mark.parametrize("change", [
    lambda w, b: (w, np.vstack([b, b])),
    lambda w, b: (w[:-1], b),
    lambda w, b: (np.hstack([w, w]), np.hstack([b, b])),
], ids=["two-bias-rows", "narrower-than-the-extractor", "more-classes-than-the-classifier"])
def test_checkpoint_with_an_unfitting_generator_is_usage_error_naming_the_file(
        tmp_path, capsys, change):
    # the generator's vector is read for the extractor's width and the class count
    cfg_path, cp, _ = _finished_run(tmp_path)
    blob = json.loads(cp.read_text())
    c = blob["sizes"][-1]
    flat = np.frombuffer(base64.b64decode(blob["labeler"]), "<f8")
    w, b = change(flat[:-c].reshape(-1, c), flat[-c:].reshape(1, c))
    blob["labeler"] = _b64(np.concatenate([w.ravel(), b.ravel()]))
    cp.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(cp.parent), "--resume"]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {cp} is malformed: labeler holds {w.size + b.size} floats" in err, err


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


@pytest.mark.parametrize("edit, word", [
    (lambda b: b["log"][3].update(test_acc="x"), "log epoch 3: values"),
    (lambda b: b["log"][3].update(meta_acc=None), "log epoch 3: values"),
    (lambda b: b["log"][3].update(test_acc=7.5), "test_acc 7.5"),
    (lambda b: b["log"][1].update(meta_acc=float("nan")), "meta_acc nan"),
    (lambda b: b["log"][0].update(train_acc=float("-inf")), "train_acc -inf"),
    (lambda b: b["log"][2].update(test_acc=-0.25), "test_acc -0.25"),
    (lambda b: b["rng_state"].update(has_uint32=float("inf")), "OverflowError"),
    (lambda b: b["rng_state"]["state"].update(inc=-1), "OverflowError"),
    (lambda b: b.update(extractor=None, labeler=None, opt_phi=None), "must be set"),
    (lambda b: b.update(log=b["log"][:2]), "must be null"),
    (lambda b: b["log"].append(b["log"][-1]), "past train.total_epochs 4"),
    (lambda b: b["log"][1].update(epoch=1), "epoch"),
    (lambda b: b["opt_phi"].update(buffers=b["opt_phi"].pop("m")), "KeyError('m')"),
    (lambda b: b.update(theta=b["theta"][:-4] + "!!!!"), "Only base64 data is allowed"),
    (lambda b: b.update(theta_best={"shape": [5, 6], "hex": ["0x0p+0"] * 30}), "TypeError"),
    (lambda b: b["opt_theta"].update(buffers=_b64(np.zeros(
        len(base64.b64decode(b["opt_theta"]["buffers"])) // 8 + 1))),
     "opt_theta.buffers holds"),
    (lambda b: b.update(rng_state="PCG64"), "TypeError('state must be a dict')"),
], ids=["log-value-a-string", "log-value-null", "log-accuracy-above-1", "log-accuracy-nan",
        "log-accuracy-infinite", "log-accuracy-negative", "rng-has_uint32-infinite",
        "rng-inc-negative", "phase2-members-missing-after-warmup",
        "phase2-members-before-phase2", "log-past-total_epochs", "log-row-with-an-epoch",
        "opt_phi-buffers-of-another-kind", "vector-not-base64", "vector-a-version-1-matrix",
        "vector-one-float-long", "rng-not-an-object"])
def test_a_checkpoint_field_training_never_writes_is_usage_error_naming_the_file(
        tmp_path, capsys, edit, word):
    cfg_path, cp, _ = _finished_run(tmp_path)
    blob = json.loads(cp.read_text())
    edit(blob)
    cp.write_text(json.dumps(blob))
    metrics = (cp.parent / "metrics.csv").read_bytes()
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(cp.parent), "--resume"]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {cp} is malformed" in err and word in err, err
    assert (cp.parent / "metrics.csv").read_bytes() == metrics



@pytest.mark.parametrize("edit, word", [
    (lambda b: b.pop("config"), "KeyError('config')"),
    (lambda b: b.update(config="tiny"), "config must be a JSON object"),
    (lambda b: b["config"].update(extra=1), "unknown config keys: ['extra']"),
    (lambda b: b["config"]["train"].update(total_epochs=3), "past train.total_epochs 3"),
    (lambda b: b["log"][0].update(phase="warmup"), "phase"),
    (lambda b: b["log"][2].update(meta_acc=1.5), "meta_acc 1.5"),
    (lambda b: b.update(sizes=[5, 6, 4, 3]), "theta holds"),
], ids=["config-missing", "config-not-an-object", "config-unknown-key",
        "log-past-the-configs-total_epochs", "log-row-with-a-phase", "log-accuracy-above-1",
        "sizes-not-the-vectors"])
def test_eval_of_a_checkpoint_training_never_writes_is_usage_error_naming_the_file(
        tmp_path, capsys, edit, word):
    # without a config given, eval reads the checkpoint under the config it holds
    _, cp, data_path = _finished_run(tmp_path)
    blob = json.loads(cp.read_text())
    edit(blob)
    cp.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(cp), "--dataset", str(data_path)]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {cp} is malformed" in err and word in err, err


def test_a_checkpoint_whose_sizes_are_not_model_hidden_is_usage_error_naming_it(tmp_path,
                                                                              capsys):
    # a [5, 3, 2] network with vectors that fit it, under the config's hidden
    # widths [6, 4]
    cfg_path, cp, data_path = _finished_run(tmp_path)
    narrow = write_config(tmp_path, tiny_config(**{"train.total_epochs": 4,
                                                   "model.hidden": [3]}), "narrow.json")
    assert main(["train", "--config", narrow, "--out", str(tmp_path / "narrow")]) == 0
    blob = json.loads((tmp_path / "narrow" / "checkpoint.json").read_text())
    blob["config"] = json.loads(cp.read_text())["config"]
    cp.write_text(json.dumps(blob))
    before = {p.name: p.read_bytes() for p in cp.parent.iterdir()}
    capsys.readouterr()
    for argv in (["train", "--config", cfg_path, "--out", str(cp.parent), "--resume"],
                 ["eval", "--checkpoint", str(cp), "--dataset", str(data_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (f"checkpoint {cp} is malformed: sizes [5, 3, 2] do not carry model.hidden "
                "[6, 4]") in err, err
    assert {p.name: p.read_bytes() for p in cp.parent.iterdir()} == before


@pytest.mark.parametrize("written, epochs", [
    ({"data.dims": 6}, 1),
    ({"data.dims": 6}, 3),
    ({"data.classes": 3}, 3),
], ids=["more-features-in-warm-up", "more-features-in-phase-2", "more-classes"])
def test_a_resume_on_a_dataset_that_does_not_fit_the_checkpoint_names_both_files(
        tmp_path, capsys, written, epochs):
    # the data.path file is written again, narrower, after the checkpoint of
    # `epochs` epochs (phase 2 begins at epoch 2); refused before any output
    data_path, out = tmp_path / "data.dsv", tmp_path / "run"
    assert main(["gen-data", "--config", write_config(tmp_path, tiny_config(**written)),
                 "--out", str(data_path)]) == 0
    cfg = tiny_config(**{"data.path": str(data_path)})
    out.mkdir()
    cp = out / "checkpoint.json"

    def stop(row):
        if row.epoch == epochs:
            raise _Stop

    with pytest.raises(_Stop):
        harness_mod.run_experiment(TrainConfig.from_dict(cfg), checkpoint_path=str(cp),
                                   on_epoch=stop)
    before = cp.read_bytes()
    assert main(["gen-data", "--config", write_config(tmp_path, tiny_config(), "narrow.json"),
                 "--out", str(data_path)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", write_config(tmp_path, cfg, "path.json"),
                 "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert f"dataset {data_path} (5 features, 2 classes) does not fit checkpoint {cp} " in err
    assert cp.read_bytes() == before and [p.name for p in out.iterdir()] == ["checkpoint.json"]


@pytest.mark.parametrize("key, value", [("seed", 1), ("train.total_epochs", 6),
                                        ("train.meta_lr", 0.02)])
def test_a_resume_under_another_config_is_usage_error_naming_the_file(tmp_path, capsys,
                                                                      key, value):
    _, cp, _ = _finished_run(tmp_path)
    other = write_config(tmp_path, tiny_config(**{"train.total_epochs": 4, key: value}),
                         "other.json")
    metrics = (cp.parent / "metrics.csv").read_bytes()
    capsys.readouterr()
    assert main(["train", "--config", other, "--out", str(cp.parent), "--resume"]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {cp} was written by a different config" in err, err
    assert (cp.parent / "metrics.csv").read_bytes() == metrics


def test_a_resume_under_the_config_with_its_defaults_spelled_out_continues(tmp_path):
    # the stored config is compared as the config it reads as, not as its text
    cfg_path, cp, _ = _finished_run(tmp_path)
    spelled = TrainConfig.from_dict(json.loads(Path(cfg_path).read_text())).to_dict()
    assert spelled != json.loads(Path(cfg_path).read_text())
    spelled_path = write_config(tmp_path, spelled, "spelled.json")
    before = cp.read_bytes()
    assert main(["train", "--config", spelled_path, "--out", str(cp.parent), "--resume"]) == 0
    assert cp.read_bytes() == before  # the run had finished: nothing more to train

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


@pytest.mark.parametrize("sweep, name", [
    ({"cells": [3]}, "sweep cell 0"),
    ({"cells": [{"seed": 1}, ["seed", 2]]}, "sweep cell 1"),
    ({"grid": {"seed": 3}}, "sweep grid 'seed'"),
    ({"grid": {"seed": []}}, "sweep grid 'seed'"),
    ({"grid": {"data.path": "ab"}}, "sweep grid 'data.path'"),  # not the paths "a" and "b"
    ({"grid": {"seed.x": [1]}}, "sweep grid key 'seed.x' does not match the config layout"),
    ({"grid": {}}, "sweep grid must be a non-empty object"),
    ({"grid": [["seed", [1]]]}, "sweep grid must be a non-empty object"),
    ({"cells": []}, "sweep cells must be a non-empty list"),
    ({"cells": {"seed": 1}}, "sweep cells must be a non-empty list"),
    ({"grid": {"seed": [1]}, "cells": [{"seed": 2}]}, "exactly one of 'grid' or 'cells'"),
], ids=["cell-a-number", "cell-a-list", "grid-value-a-number", "grid-value-empty",
        "grid-value-a-string", "grid-key-through-a-number", "grid-empty", "grid-a-list",
        "cells-empty", "cells-an-object", "grid-and-cells"])
def test_sweep_config_of_the_wrong_shape_is_usage_error_naming_the_key(
        tmp_path, capsys, sweep, name):
    cfg_path = write_config(tmp_path, {"schema_version": 1, "base": tiny_config(), **sweep},
                            "sweep.json")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep, message", [
    ([{"schema_version": 1}], "sweep config must be a JSON object"),
    ("sweep", "sweep config must be a JSON object"),
    ({"grid": {"seed": [1]}}, "sweep config requires schema_version = 1"),
    ({"schema_version": 2, "grid": {"seed": [1]}}, "sweep config requires schema_version = 1"),
    ({"schema_version": 1}, "exactly one of 'grid' or 'cells'"),
    ({"schema_version": 1, "base": {"schema_version": 1}}, "exactly one of 'grid' or 'cells'"),
], ids=["a-list", "a-string", "no-schema_version", "schema_version-2", "neither",
        "a-base-alone"])
def test_a_sweep_config_file_of_the_wrong_shape_is_usage_error(tmp_path, capsys, sweep,
                                                              message):
    cfg_path = write_config(tmp_path, sweep, "sweep.json")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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