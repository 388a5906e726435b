"""Lanes: runs that share a step formula train as one stacked trajectory, and
each lane must end exactly as the same run alone.

The kernel test checks one S-lane step against S solo steps; the sweep tests
go through `cli.main` and compare every laned cell's outputs with a solo
`train` and a one-cell sweep of the same seed. CI reruns this file with
OPENBLAS_NUM_THREADS unset, so identity must not depend on the BLAS thread
count.
"""

import csv
import json

import numpy as np
import pytest

from metalabel.cli import main
from metalabel.data import load_dataset, save_dataset
from metalabel.meta import ce_step, conventional_step, meta_step
from metalabel.nn import Mlp, init_mlp, make_optimizer, one_hot

# -- kernels -------------------------------------------------------------------


def _solo_inputs(rng, n=7, dims=5, feats=4, classes=3):
    theta = init_mlp([dims, 6, 5, classes], rng)
    labeler = Mlp([(rng.normal(size=(feats, classes)) * 0.5,
                    rng.normal(size=(1, classes)) * 0.1)])
    batch = (rng.normal(size=(n, dims)), rng.normal(size=(n, feats)),
             rng.normal(size=(n, dims)), one_hot(rng.integers(0, classes, n), classes),
             rng.integers(0, classes, n))
    return theta, labeler, batch


def _train_steps(theta, labeler, batches, opt_theta, opt_phi, opt_ce):
    """Three batches of meta step + classifier step, then a CE step, on one
    set of (solo or stacked) arrays; every value each step reports."""
    seen = []
    for x, v, mx, my, labels in batches:
        labeler, report, fwd = meta_step(labeler, theta, x, v, mx, my, inner_lr=0.7,
                                         optimizer=opt_phi)
        theta, lc, le = conventional_step(theta, labeler, fwd, v, opt_theta)
        theta, loss = ce_step(theta, x, labels, opt_ce)
        seen.append((report.meta_loss, report.grad_phi_norm, report.mean_similarity,
                     lc, le, loss))
    return theta, labeler, seen


def _optimizers(theta, labeler):
    return (make_optimizer("sgd-momentum", theta.flat.shape, lr=0.05),
            make_optimizer("adam", labeler.flat.shape, lr=1e-2),
            make_optimizer("adam", theta.flat.shape, lr=1e-2))


@pytest.mark.parametrize("lanes", [1, 2, 4])
def test_a_stacked_step_equals_its_solo_steps_bit_for_bit(lanes):
    rng = np.random.default_rng(lanes)
    runs = []
    for _ in range(lanes):
        theta, labeler, _ = _solo_inputs(rng)
        runs.append((theta, labeler, [_solo_inputs(rng)[2] for _ in range(3)]))

    solo = [_train_steps(theta, labeler, batches, *_optimizers(theta, labeler))
            for theta, labeler, batches in runs]

    # a real lane axis, also for one lane (a group of one carries none)
    theta = runs[0][0].with_params(np.stack([r[0].flat for r in runs]))
    labeler = runs[0][1].with_params(np.stack([r[1].flat for r in runs]))
    batches = [tuple(np.stack([r[2][b][k] for r in runs]) for k in range(5))
               for b in range(3)]
    stacked = _train_steps(theta, labeler, batches, *_optimizers(theta, labeler))

    for s, (theta_s, labeler_s, seen_s) in enumerate(solo):
        for a, b in zip(stacked[0].lane(s).params() + stacked[1].lane(s).params(),
                        theta_s.params() + labeler_s.params()):
            assert np.array_equal(a, b)
        for step_stacked, step_solo in zip(stacked[2], seen_s):
            assert [v[s] for v in step_stacked] == list(step_solo)


# -- sweeps through the CLI ------------------------------------------------------


def fd_config(**train) -> dict:
    return {"schema_version": 1, "seed": 0,
            "data": {"n": 320, "dims": 5, "classes": 2, "center_scale": 4.0,
                     "train_frac": 0.75, "meta_frac": 0.125, "test_frac": 0.125},
            "noise": {"kind": "feature-dependent", "ratio": 0.4},
            "model": {"hidden": [6, 4]},
            "train": {"batch_size": 20, "warmup_epochs": 2, "total_epochs": 6,
                      "lr_schedule": [[0, 0.01]], "meta_lr": 0.01, "oracle_epochs": 10,
                      **train}}


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def sweep(tmp_path, name, base, grid, capsys) -> tuple[int, str]:
    cfg = write_json(tmp_path / f"{name}.json", {"schema_version": 1, "base": base, "grid": grid})
    capsys.readouterr()
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / name)])
    return code, capsys.readouterr().out


def strip_wall_time(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time")
    return [r[:drop] + r[drop + 1:] for r in rows]


def summary(path) -> dict:
    out = json.loads(path.read_text())
    out.pop("timestamp", None)
    return out


def assert_same_run(laned_dir, solo_dir):
    assert strip_wall_time(laned_dir / "metrics.csv") == strip_wall_time(solo_dir / "metrics.csv")
    assert summary(laned_dir / "summary.json") == summary(solo_dir / "summary.json")


def solo_aggregate(tmp_path, base, key, values, capsys) -> list[str]:
    """aggregate.csv as one-cell sweeps (each a group of one) write it."""
    lines = []
    for i, value in enumerate(values):
        code, out = sweep(tmp_path, f"solo{i}", base, {key: [value]}, capsys)
        assert "1 cell in 1 lane group (1 lane), 0 lanes reran solo" in out
        lines.append((tmp_path / f"solo{i}" / "aggregate.csv").read_text().splitlines())
    return [lines[0][0]] + sorted(line[1] for line in lines)


@pytest.mark.parametrize("cells, line", [
    (1, "1 cell in 1 lane group (1 lane), 0 lanes reran solo"),
    (2, "2 cells in 1 lane group (2 lanes), 0 lanes reran solo"),
    (4, "4 cells in 1 lane group (4 lanes), 0 lanes reran solo"),
    (5, "5 cells in 2 lane groups (4+1 lanes), 0 lanes reran solo"),
])
def test_sweep_lanes_match_solo_runs(tmp_path, capsys, cells, line):
    seeds = list(range(cells))
    code, out = sweep(tmp_path, "laned", fd_config(), {"seed": seeds}, capsys)
    assert code == 0
    assert line in out.splitlines()
    base_path = write_json(tmp_path / "base.json", fd_config())
    for s in seeds:
        solo = tmp_path / f"train{s}"
        assert main(["train", "--config", base_path, "--out", str(solo), "--seed", str(s)]) == 0
        assert_same_run(tmp_path / "laned" / f"seed={s}", solo)
    laned = (tmp_path / "laned" / "aggregate.csv").read_text().splitlines()
    assert laned == solo_aggregate(tmp_path, fd_config(), "seed", seeds, capsys)


def test_a_diverging_data_file_leaves_the_other_lanes_as_they_are_alone(tmp_path, capsys):
    gen = write_json(tmp_path / "gen.json", fd_config())
    paths = []
    for s in range(3):
        paths.append(str(tmp_path / f"data{s}.dsv"))
        assert main(["gen-data", "--config", gen, "--out", paths[-1], "--seed", str(s)]) == 0
    ds = load_dataset(paths[1])
    ds.x *= 1e300  # the logits overflow in the first warm-up batch
    save_dataset(ds, paths[1])

    code, out = sweep(tmp_path, "laned", fd_config(), {"data.path": paths}, capsys)
    assert code == 1
    assert "3 cells in 1 lane group (3 lanes), 3 lanes reran solo" in out
    laned = (tmp_path / "laned" / "aggregate.csv").read_text().splitlines()
    assert laned == solo_aggregate(tmp_path, fd_config(), "data.path", paths, capsys)
    assert "diverged" in laned[1 + sorted(paths).index(paths[1])]
    for i in (0, 2):
        cfg = fd_config()
        cfg["data"]["path"] = paths[i]
        solo = tmp_path / f"train{i}"
        assert main(["train", "--config", write_json(tmp_path / f"t{i}.json", cfg),
                     "--out", str(solo)]) == 0
        cell = "data.path=" + json.dumps(paths[i]).replace("/", "_").replace(" ", "")
        assert_same_run(tmp_path / "laned" / cell, solo)


def test_lanes_that_all_diverge_each_get_their_solo_message(tmp_path, capsys):
    base = fd_config(lr_schedule=[[0, 0.01], [3, 1e6]])
    code, out = sweep(tmp_path, "laned", base, {"seed": [0, 1, 2]}, capsys)
    assert code == 1
    assert "3 cells in 1 lane group (3 lanes), 3 lanes reran solo" in out
    laned = (tmp_path / "laned" / "aggregate.csv").read_text().splitlines()
    assert laned == solo_aggregate(tmp_path, base, "seed", [0, 1, 2], capsys)
    assert all("epoch 3, batch" in row and "diverged" in row for row in laned[1:])
    assert not list((tmp_path / "laned").glob("*/summary.json"))


def test_lane_dot_sums_equal_the_solo_vdot_sums():
    # mean_similarity and grad_phi_norm are metrics.csv values: each lane's
    # sum must be bit for bit the vdot sum a solo step computes
    from metalabel.meta import _lane_vdot

    rng = np.random.default_rng(0)
    shapes = [(10, 32), (1, 32), (32, 16), (1, 16), (16, 4), (1, 4)]
    xs = [rng.normal(size=(4, *s)) * 10.0 ** rng.integers(-3, 4) for s in shapes]
    ys = [rng.normal(size=(4, *s)) for s in shapes]
    laned = _lane_vdot(xs, ys)
    for s in range(4):
        solo = sum(float(np.vdot(x[s], y[s])) for x, y in zip(xs, ys))
        assert laned[s] == solo
        assert _lane_vdot([x[s] for x in xs], [y[s] for y in ys]) == solo


def test_sweep_writes_each_group_as_it_ends(tmp_path, capsys, monkeypatch):
    # a stopped sweep keeps the cells its finished groups trained
    import metalabel.harness as harness

    seen = []
    train = harness._train

    def recording(lanes, *args):
        seen.append(len(list((tmp_path / "laned").glob("*/summary.json"))))
        return train(lanes, *args)

    monkeypatch.setattr(harness, "_train", recording)
    code, _ = sweep(tmp_path, "laned", fd_config(), {"seed": list(range(5))}, capsys)
    assert code == 0
    assert seen == [0, 4]


# -- the row max of the softmaxes --------------------------------------------------


def _old_log_softmax(z):
    """log_softmax as it took its row max with np.maximum.reduce."""
    s = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    logp = s - np.log(np.add.reduce(np.exp(s), axis=-1, keepdims=True))
    return logp, np.exp(logp)


def _old_softmax(z):
    e = np.subtract(z, z.max(axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _logits(rng, shape, ties: bool):
    """Logits of a wide spread, or, with ties, rows of zeros of either sign
    among negative values, so the row max is a tie of +0 and -0."""
    if ties:
        return rng.choice([-0.0, 0.0, -1.0, -2.5], size=shape)
    return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)


def _shapes(classes: int) -> list[tuple[int, ...]]:
    """One row, a batch, and lanes (one or several, of one row or more)."""
    return [(1, classes), (64, classes), (3, 1, classes), (4, 64, classes),
            (2, 3, 37, classes)]


@pytest.mark.parametrize("classes", range(1, 17))
def test_the_row_max_is_the_reduced_max(classes):
    # the same bits wherever the maximum is one value; a tie of +0 and -0 may
    # give either zero (numpy's reduce returns the other one from 9 classes up)
    from metalabel.nn import _row_max

    rng = np.random.default_rng(classes)
    for shape, ties in ((s, t) for s in _shapes(classes) for t in (False, True)):
        for _ in range(10):
            z = _logits(rng, shape, ties)
            want = np.maximum.reduce(z, axis=-1, keepdims=True)
            got = _row_max(z)
            assert got.shape == want.shape and np.array_equal(got, want)
            if not ties:
                assert _same_bits(got, want)


@pytest.mark.parametrize("classes", range(1, 17))
def test_the_softmaxes_give_the_bits_of_the_reduced_max_formula(classes):
    # a +-0 tie cannot show: it puts exp(0) = 1 twice into the row sum, so
    # log(sum) >= log 2 and every entry of s - log(sum) has the one sign
    from metalabel.nn import log_softmax, softmax

    rng = np.random.default_rng(100 + classes)
    for shape, ties in ((s, t) for s in _shapes(classes) for t in (False, True)):
        for _ in range(10):
            z = _logits(rng, shape, ties)
            (logp, p), (want_logp, want_p) = log_softmax(z), _old_log_softmax(z)
            assert _same_bits(logp, want_logp) and _same_bits(p, want_p)
            assert _same_bits(softmax(z), _old_softmax(z))
            inplace = z.copy()
            assert softmax(inplace, out=inplace) is inplace
            assert _same_bits(inplace, _old_softmax(z))
