"""Passes over a whole split in row blocks (`nn.row_blocks`,
`nn.map_row_blocks`) must equal the one-shot pass bit for bit and hold one
block of transients; the passes that keep a narrow product's values run in
one piece.

The edge tests shrink ROW_BLOCK to check every way a split can end against
the block size. The caller tests run at the real block size on a train split
of N_ROWS rows. That is above 15,625 rows, where OpenBLAS 0.3.31 runs the
generator's 16 -> 4 product (any product with 2 to 4 output columns, once
rows x inputs x outputs passes 10**6) on another kernel than over a 4,096-row
block, so the last bits of a blocked pass differ there. So these tests pin
both halves: evaluation and the penultimate features, whose kept products
are wide, equal the one-shot pass in blocks; the label drift, the margins
and logits features equal it because they are one piece. Floats are
compared through their int64 views, so a last-bit difference (or a sign of
zero) fails. CI reruns this file with OPENBLAS_NUM_THREADS unset: a matmul
on a block must give each row the same sums as the matmul on the whole
split under threaded BLAS too.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from metalabel import nn
from metalabel.data import make_synthetic, margins, split_dataset
from metalabel.harness import (
    RunState,
    TrainConfig,
    _label_drift,
    _Lane,
    _Phase2Rows,
    evaluate,
)
from metalabel.meta import FeatureExtractor
from metalabel.nn import Mlp, init_mlp, map_row_blocks, mlp_logits, softmax


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# -- the helper at the block edges ---------------------------------------------------

B = 5


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_blocks_equal_the_one_shot_pass_at_every_edge(monkeypatch, n):
    monkeypatch.setattr(nn, "ROW_BLOCK", B)
    rng = np.random.default_rng(n)
    net = init_mlp([10, 32, 16, 4], rng)
    x = rng.normal(size=(n + 3, 10))
    rows = rng.permutation(n + 3)[:n]
    seen = []

    def fn(block):
        seen.append(block.shape[0])
        return softmax(mlp_logits(net.layers, block))

    out = map_row_blocks(fn, x, rows, 4)
    assert same_bits(out, softmax(mlp_logits(net.layers, x[rows]))) and out.dtype == np.float64
    # blocks of B rows; a 1-row tail joins the block before it
    want = {0: [], 1: [1], B - 1: [B - 1], B: [B], B + 1: [B + 1], 2 * B + 1: [B, B + 1]}[n]
    assert seen == want
    assert [b - a for a, b in nn.row_blocks(n)] == want


# -- every caller at the real block size -----------------------------------------------

N_ROWS = 4 * nn.ROW_BLOCK + 3  # > 15,625: see the module docstring


@pytest.fixture(scope="module")
def big():
    """A dataset whose train split holds at least N_ROWS rows, at the default model shape,
    with a classifier fresh from its initialisation."""
    cfg = TrainConfig(dims=10, classes=4, hidden=[32, 16])
    ds = split_dataset(make_synthetic(N_ROWS * 5 // 4 + 4, 4, 10, seed=3), 0.8, 0.1, 0.1,
                       seed=4)
    assert ds.indices("train").size >= N_ROWS
    return cfg, ds, RunState.fresh(cfg, ds).theta


def test_evaluate_equals_the_one_shot_accuracy(big):
    _, ds, theta = big
    idx = ds.labeled_train_indices()
    logits = mlp_logits(theta.layers, ds.x[idx])
    want = int(np.count_nonzero(logits.argmax(axis=1) == ds.train_labels(idx))) / idx.size
    assert evaluate(theta, ds, "train") == want


@pytest.mark.parametrize("mode", ["penultimate", "logits"])
def test_phase2_features_equal_the_one_shot_extractor(big, mode):
    cfg, ds, theta = big
    cfg = dataclasses.replace(cfg, extractor_features=mode)
    st = RunState.fresh(cfg, ds)
    st.theta = theta
    feats = _Phase2Rows.of(cfg, _Lane(cfg, ds, st)).feats
    one_shot = FeatureExtractor.from_classifier(theta, mode)(ds.x[ds.indices("train")])
    assert same_bits(feats, one_shot)


def test_label_drift_equals_the_one_shot_columns(big):
    _, ds, theta = big
    rng = np.random.default_rng(5)
    feats = FeatureExtractor.from_classifier(theta)(ds.x[ds.indices("train")])
    after, before = (Mlp([(rng.normal(size=(16, 4)), rng.normal(size=(1, 4)))])
                     for _ in range(2))
    one_shot = np.abs(softmax(mlp_logits(after.layers, feats))
                      - softmax(mlp_logits(before.layers, feats)))
    assert same_bits(_label_drift(after, before, feats), one_shot)


def test_margins_equal_the_one_shot_oracle(big):
    _, ds, theta = big
    x = ds.x[ds.indices("train")]
    probs = softmax(mlp_logits(theta.layers, x))
    order = np.argsort(-probs, axis=1, kind="stable")
    rows = np.arange(x.shape[0])
    margin, runner = margins(theta, x)
    assert same_bits(margin, probs[rows, order[:, 0]] - probs[rows, order[:, 1]])
    assert np.array_equal(runner, order[:, 1])


# -- memory ------------------------------------------------------------------------


def test_phase2_features_hold_one_block_of_transients():
    """Building the phase-2 inputs of a 20k-row dataset peaks under

        feats.nbytes + index + block + slack,

    where, with B = ROW_BLOCK rows, d input columns and kept hidden widths h:
    - the features, (n_train, h[-1]) float64, are the result and stay;
    - index: the train and meta row indices (8 bytes a row), the split
      mask each is taken from (1 byte a row of the dataset), and the meta
      one-hot labels (8 bytes a class per meta row);
    - block: one block's gathered rows (B x d) and, at most, every kept
      layer's activation at once (B x sum(h)), float64; mlp_logits frees
      each activation once the next is made and adds biases in place;
    - slack: 128 KiB, half for numpy's ufunc buffer (8,192 float64
      elements, used by the broadcast bias add), half for the small objects
      built alongside (the frozen extractor, the zero generator and its
      optimizer).
    A pass over the whole split holds its gathered rows and every activation
    for all n_train rows: 4.7 times the features here.
    """
    cfg = TrainConfig(dims=10, classes=4, hidden=[32, 16])
    ds = split_dataset(make_synthetic(20000, 4, 10, seed=1), 0.8, 0.1, 0.1, seed=2)
    ln = _Lane(cfg, ds, RunState.fresh(cfg, ds))
    n_train, n_meta = ds.indices("train").size, ds.indices("meta").size
    index = 8 * (n_train + n_meta) + ds.n + 8 * n_meta * ds.n_classes
    block = 8 * nn.ROW_BLOCK * (ds.dims + sum(cfg.hidden))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        inp = _Phase2Rows.of(cfg, ln)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert inp.feats.shape == (n_train, cfg.hidden[-1])
    assert peak < inp.feats.nbytes + index + block + 128 * 1024, (peak, inp.feats.nbytes)
