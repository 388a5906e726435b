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

The memory tests bound what a pass, a loaded dataset or a batch loop
holds: the label drift computes in place in row blocks, a dataset holds one
byte of split code a row, and the batch loops step copies of the lanes'
networks in place, with buffers bound once per epoch. A step into a buffer
or into the network it steps must give the bits the allocating form gives,
and an epoch must leave every network its run states held as it was. The
batch loops gather their rows a block of batches at a time into buffers of
one block: an epoch must give the bits of per-batch gathers, wherever its
blocks and batches end.
"""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from metalabel import harness, nn
from metalabel.data import load_dataset, make_synthetic, margins, save_dataset, split_dataset
from metalabel.harness import (
    RunState,
    TrainConfig,
    _ce_epoch,
    _label_drift,
    _Lane,
    _moments,
    _Phase2Rows,
    _phase2_epoch,
    _stacked,
    build_dataset,
    evaluate,
)
from metalabel.meta import (
    ce_step,
    classifier_pass,
    conventional_step,
    extract_features,
    meta_step,
)
from metalabel.nn import (
    Adam,
    Mlp,
    SgdMomentum,
    init_mlp,
    make_optimizer,
    map_row_blocks,
    mlp_backward,
    mlp_forward,
    mlp_logits,
    one_hot,
    softmax,
    stack_lanes,
)


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
    return cfg, ds, RunState.fresh(cfg, ds.dims, ds.n_classes).theta


def test_evaluate_equals_the_one_shot_accuracy(big):
    _, ds, theta = big
    idx = ds.indices("train")
    idx = idx[ds.labeled[idx]]
    logits = mlp_logits(theta.layers, ds.x[idx])
    want = int(np.count_nonzero(logits.argmax(axis=1) == ds.y_noisy[idx])) / idx.size
    assert evaluate(theta, ds.view(), "train") == want


@pytest.mark.parametrize("mode", ["penultimate", "logits"])
def test_phase2_features_equal_the_one_shot_extractor(big, mode):
    cfg, ds, theta = big
    cfg = dataclasses.replace(cfg, extractor_features=mode)
    st = RunState.fresh(cfg, ds.dims, ds.n_classes)
    st.theta = theta
    feats = _Phase2Rows.of(cfg, _Lane(cfg, ds.view(), st)).feats
    ex = theta.prefix(len(theta.layers) - (mode == "penultimate"))
    one_shot = extract_features(ex, ds.x[ds.indices("train")], mode)
    assert same_bits(feats, one_shot)


def test_label_drift_equals_the_one_shot_columns(big):
    _, ds, theta = big
    rng = np.random.default_rng(5)
    feats = extract_features(theta.prefix(2), ds.x[ds.indices("train")], "penultimate")
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
    - index: the meta one-hot labels (8 bytes a class per meta row); the
      train and meta rows are the view's, built before;
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
    ln = _Lane(cfg, ds.view(), RunState.fresh(cfg, ds.dims, ds.n_classes))
    n_train, n_meta = ds.indices("train").size, ds.indices("meta").size
    index = 8 * n_meta * ds.n_classes
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


def test_label_drift_and_its_moments_hold_two_soft_label_arrays():
    """The drift of 50,000 rows of 16 features over 4 classes, then its mean
    and variance, peak at most two (n, c) float64 arrays plus one block of
    ROW_BLOCK rows of (B, c) float64 over the live inputs. The two logits
    arrays are the peak: each softmax, the difference and its magnitude run
    in place one block at a time, so the transients are one block's row
    maxima, row sums and finiteness mask (B x (16 + c) bytes); the moments
    then square the deviations in place. A whole-array softmax held its
    (n, 1) maxima and sums and an (n, c) mask beside both arrays, and
    drift.var() one (n, c) array of deviations beside the drift."""
    n, f, c = 50_000, 16, 4
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(n, f))
    after, before = (Mlp([(rng.normal(size=(f, c)), rng.normal(size=(1, c)))])
                     for _ in range(2))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        drift = _label_drift(after, before, feats)
        moments = _moments(drift)
        del drift
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(moments))
    assert peak <= 2 * n * c * 8 + nn.ROW_BLOCK * c * 8, (peak, n * c * 8)


def test_a_loaded_dataset_holds_one_byte_of_split_a_row(tmp_path):
    """A dataset of 20,000 rows, loaded from its file, holds per row its d
    features and two labels (8 bytes each), one byte of labeled mask and
    one byte of split code, plus 16 KiB of slack for the objects around the
    arrays (the provenance, the array headers). Split tags of `<U5` held 20
    bytes a row."""
    ds = split_dataset(make_synthetic(20000, 4, 10, seed=1), 0.8, 0.1, 0.1, seed=2)
    path = tmp_path / "d.dsv"
    save_dataset(ds, str(path))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        back = load_dataset(str(path))
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert back.n == ds.n and np.array_equal(back.codes, ds.codes)
    assert held <= back.n * (8 * back.dims + 2 * 8 + 1 + 1) + 16 * 1024, (held, back.n)


# -- buffers of the batch loops ----------------------------------------------------


def _lanes(make, lanes):
    """One network (or array) from `make(rng)`, or `lanes` of them stacked."""
    rng = np.random.default_rng(11)
    if lanes == 1:
        return make(rng)
    parts = [make(rng) for _ in range(lanes)]
    return Mlp.stack(parts) if isinstance(parts[0], Mlp) else np.stack(parts)


@pytest.mark.parametrize("lanes", [1, 4])
def test_backward_into_a_buffer_gives_the_bits_of_a_new_gradient(lanes):
    net = _lanes(lambda r: init_mlp([10, 32, 16, 4], r), lanes)
    x = _lanes(lambda r: r.normal(size=(64, 10)), lanes)
    dz = _lanes(lambda r: r.normal(size=(64, 4)), lanes)
    _, acts, masks = mlp_forward(net.layers, x)
    out = net.blank()
    out.flat[...] = np.nan  # every entry must be written
    assert mlp_backward(net, acts, masks, dz, out=out) is out
    assert same_bits(out.flat, mlp_backward(net, acts, masks, dz).flat)


@pytest.mark.parametrize("kind", [SgdMomentum, Adam])
@pytest.mark.parametrize("lanes", [1, 4])
@pytest.mark.parametrize("in_place", [False, True], ids=["buffer", "params"])
def test_a_step_into_a_buffer_gives_the_bits_of_a_new_vector(kind, lanes, in_place):
    # into a buffer of unwritten entries, or into the parameter vector itself
    params = _lanes(lambda r: r.normal(size=(948,)), lanes)
    into, new = kind(params.shape, lr=1e-2), kind(params.shape, lr=1e-2)
    out = params.copy() if in_place else np.full(params.shape, np.nan)
    rng = np.random.default_rng(12)
    for _ in range(5):
        grads = rng.normal(size=params.shape)
        assert into.step(out if in_place else params, grads, out=out) is out
        want = new.step(params, grads)
        assert same_bits(out, want)
        params = want
    assert all(same_bits(getattr(into, k), getattr(new, k)) for k in kind.BUFFERS)


def _step_inputs(lanes: int):
    """A classifier, a generator and one batch of each input a step reads,
    solo or stacked over `lanes`."""
    theta = _lanes(lambda r: init_mlp([5, 6, 3], r), lanes)
    labeler = _lanes(lambda r: Mlp([(r.normal(size=(4, 3)), r.normal(size=(1, 3)))]), lanes)
    x, mx = (_lanes(lambda r: r.normal(size=(16, 5)), lanes) for _ in range(2))
    v = _lanes(lambda r: r.normal(size=(16, 4)), lanes)
    my = _lanes(lambda r: one_hot(r.integers(0, 3, 16), 3), lanes)
    labels = _lanes(lambda r: r.integers(0, 3, 16), lanes)
    return theta, labeler, x, v, mx, my, labels


@pytest.mark.parametrize("step", ["ce_step", "meta_step", "conventional_step"])
@pytest.mark.parametrize("kind", ["sgd-momentum", "adam"])
@pytest.mark.parametrize("lanes", [1, 2])
def test_a_step_into_the_network_it_steps_gives_the_bits_of_a_new_network(step, kind, lanes):
    theta, labeler, x, v, mx, my, labels = _step_inputs(lanes)

    def run(net, opt, out):
        """One step of `net` (the generator for meta_step, else the
        classifier): the stepped network and the values the step reports."""
        if step == "ce_step":
            return ce_step(net, x, labels, opt, out=out)
        if step == "meta_step":
            g, report, _ = meta_step(net, theta, x, v, mx, my, inner_lr=0.7, optimizer=opt,
                                     out=out)
            return g, report.meta_loss, report.grad_phi_norm, report.mean_similarity
        return conventional_step(net, labeler, classifier_pass(net, x), v, opt, out=out)

    net = labeler if step == "meta_step" else theta
    new_opt, own_opt = (make_optimizer(kind, net.flat.shape, lr=0.05) for _ in range(2))
    new, own = net, net.copy()
    for _ in range(3):
        new, *new_values = run(new, new_opt, None)
        stepped, *own_values = run(own, own_opt, own)
        assert stepped is own and same_bits(own.flat, new.flat)
        for a, b in zip(own_values, new_values):
            assert same_bits(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    assert own_opt.step_count == new_opt.step_count == 3
    assert all(same_bits(getattr(own_opt, k), getattr(new_opt, k)) for k in own_opt.BUFFERS)


def _phase2_lanes(lanes: int, batch_size: int = 25):
    """Configs of `lanes` seeds of a small feature-dependent run (500 train
    rows), their states at the start of phase 2 and their phase-2 inputs."""
    cfgs = [TrainConfig(seed=s, n=600, dims=6, classes=3, hidden=[8, 6],
                        batch_size=batch_size, warmup_epochs=1, total_epochs=3,
                        oracle_epochs=2) for s in range(lanes)]
    lns = [_Lane(cfg, v, RunState.fresh(cfg, v.dims, v.n_classes)) for cfg, v in
           ((cfg, build_dataset(cfg).view()) for cfg in cfgs)]
    return lns, [_Phase2Rows.of(ln.cfg, ln) for ln in lns]


def _ce_sources(lns: list[_Lane]) -> list[tuple]:
    """The lanes' warm-up sources, as `_train` takes them from their views."""
    return [(ln.view.x, *ln.view.scored["train"]) for ln in lns]


def _held(st: RunState) -> list[np.ndarray]:
    """The arrays of every network a run state holds: the classifier, the
    generator (the label drift reads it after the epoch), the classifier
    kept by model selection and the extractor."""
    return [st.theta.flat, st.labeler.flat, st.theta_best.flat, st.extractor.flat]


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_an_epoch_never_writes_the_networks_it_starts_from(lanes):
    lns, inputs = _phase2_lanes(lanes)
    cfg, sts = lns[0].cfg, [ln.st for ln in lns]
    for epoch in range(4):  # each epoch starts from what the one before kept
        held = [_held(st) for st in sts]
        bits = [[a.copy() for a in arrays] for arrays in held]
        if epoch % 2 == 0:
            _phase2_epoch(cfg, lns, inputs, f"epoch {epoch}")
        else:
            _ce_epoch(sts, _ce_sources(lns), cfg.batch_size, f"epoch {epoch}")
        for st, arrays, arrays_bits in zip(sts, held, bits):
            assert st.theta.flat is not arrays[0]
            assert all(same_bits(a, b) for a, b in zip(arrays, arrays_bits))


def _builds(monkeypatch, fn) -> int:
    """The networks fn() builds: its calls of Mlp.__init__ and Mlp.with_params."""
    count = 0

    def counting(method):
        def wrapper(*args, **kwargs):
            nonlocal count
            count += 1
            return method(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(Mlp, "__init__", counting(Mlp.__init__))
        m.setattr(Mlp, "with_params", counting(Mlp.with_params))
        fn()
    return count


@pytest.mark.parametrize("lanes", [1, 3])
def test_a_batch_builds_no_network(monkeypatch, lanes):
    # an epoch of 20 batches builds as many networks as one of 10: its buffers and
    # the stacking, once per epoch, and none per batch
    phase2, ce = {}, {}
    for batch_size in (25, 50):
        lns, inputs = _phase2_lanes(lanes, batch_size)
        cfg, sts = lns[0].cfg, [ln.st for ln in lns]
        sources = _ce_sources(lns)
        phase2[batch_size] = _builds(
            monkeypatch, lambda: _phase2_epoch(cfg, lns, inputs, "epoch"))
        ce[batch_size] = _builds(monkeypatch, lambda: _ce_epoch(sts, sources, batch_size, "epoch"))
    assert phase2[25] == phase2[50] and ce[25] == ce[50], (phase2, ce)


# -- gathering a block of batches at a time -------------------------------------------


def _per_batch_phase2(cfg, sts, views, inputs):
    """A phase-2 epoch whose every batch gathers its own rows from the plan
    and stacks the lanes' rows, on new networks: the reference the blocked
    gathers of `_phase2_epoch` must equal. Returns the networks, optimizers
    and batch-mean losses (4, S)."""
    theta, opt_theta = _stacked(sts, "theta"), _stacked(sts, "opt_theta")
    labeler, opt_phi = _stacked(sts, "labeler"), _stacked(sts, "opt_phi")
    meta_rows = [v.scored["meta"][0] for v in views]
    n, n_meta = views[0].train.size, meta_rows[0].size
    order = [st.rng.permutation(n) for st in sts]
    meta = [np.concatenate([st.rng.permutation(n_meta) for _ in range(-(-n // n_meta))])[:n]
            for st in sts]
    sums, batches = 0.0, 0
    for start in range(0, n, cfg.batch_size):
        cut = slice(start, start + cfg.batch_size)
        x = stack_lanes([w.x[w.train[o[cut]]] for w, o in zip(views, order)])
        v = stack_lanes([inp.feats[o[cut]] for inp, o in zip(inputs, order)])
        mx = stack_lanes([w.x[r[m[cut]]] for w, r, m in zip(views, meta_rows, meta)])
        my = stack_lanes([inp.meta_y[m[cut]] for inp, m in zip(inputs, meta)])
        labeler, report, fwd = meta_step(labeler, theta, x, v, mx, my, inner_lr=cfg.inner_lr,
                                         optimizer=opt_phi)
        theta, lc, le = conventional_step(theta, labeler, fwd, v, opt_theta,
                                          use_entropy=cfg.entropy_loss)
        losses = (lc, le, report.meta_loss, report.mean_similarity)
        sums = sums + np.asarray(losses).reshape(-1, len(sts))
        batches += 1
    return (theta, opt_theta, labeler, opt_phi), sums / batches


def _per_batch_ce(sts, sources, batch_size):
    """The cross-entropy epoch with per-batch gathers, as `_per_batch_phase2`."""
    theta, opt = _stacked(sts, "theta"), _stacked(sts, "opt_theta")
    order = [st.rng.permutation(sources[0][1].size) for st in sts]
    sums, batches = 0.0, 0
    for start in range(0, order[0].size, batch_size):
        cut = slice(start, start + batch_size)
        x = stack_lanes([x[rows[o[cut]]] for (x, rows, _), o in zip(sources, order)])
        y = stack_lanes([y[o[cut]] for (_, _, y), o in zip(sources, order)])
        theta, loss = ce_step(theta, x, y, opt)
        sums = sums + np.asarray((loss,)).reshape(-1, len(sts))
        batches += 1
    return (theta, opt), (sums / batches)[0]


def _lane_bits(stacked, s: int, lanes: int) -> list[np.ndarray]:
    """Lane s of stacked networks and optimizers, as flat arrays."""
    out = []
    for obj in stacked:
        part = obj if lanes == 1 else obj.lane(s)
        out += [part.flat] if isinstance(part, Mlp) else [getattr(part, k) for k in part.BUFFERS]
    return out


@pytest.mark.parametrize("lanes", [1, 3])
def test_a_block_gathered_epoch_equals_per_batch_gathers(monkeypatch, lanes):
    # 501 train rows in batches of 30 and blocks of 3 batches (90 rows): five
    # blocks end mid-epoch, and the last block holds one batch and a 21-row one
    monkeypatch.setattr(harness, "GATHER_ROWS", 100)
    lns, inputs = _phase2_lanes(lanes, batch_size=30)
    cfg, sts = lns[0].cfg, [ln.st for ln in lns]
    assert lns[0].view.train.size == 501
    for epoch in range(2):
        ref_sts = [dataclasses.replace(st, rng=copy.deepcopy(st.rng)) for st in sts]
        if epoch == 0:
            want, want_losses = _per_batch_phase2(cfg, ref_sts, [ln.view for ln in lns], inputs)
            losses = _phase2_epoch(cfg, lns, inputs, "epoch")
            got = [(st.theta, st.opt_theta, st.labeler, st.opt_phi) for st in sts]
        else:
            sources = _ce_sources(lns)
            want, want_losses = _per_batch_ce(ref_sts, sources, cfg.batch_size)
            losses = _ce_epoch(sts, sources, cfg.batch_size, "epoch")
            got = [(st.theta, st.opt_theta) for st in sts]
        assert same_bits(losses, want_losses)
        for s, st in enumerate(sts):
            assert st.rng.bit_generator.state == ref_sts[s].rng.bit_generator.state
            assert all(same_bits(a, b) for a, b in
                       zip(_lane_bits(got[s], 0, 1), _lane_bits(want, s, lanes)))


def test_an_epoch_gathers_into_buffers_of_one_block():
    """A pass of `_epoch` over 20,000 rows of 3 lanes, whose step keeps
    nothing, peaks under its buffers, one block of every input for every
    lane, plus one block's positions (composed as int32, and numpy's intp
    copies of them in the fancy index and in the take: 4 + 8 + 8 bytes a
    row) and 32 KiB of slack for numpy's index buffers and the small
    objects. Positions composed for the whole epoch would hold 80,000 bytes
    a lane. Every batch's rows are views of the same buffers."""
    lanes, n, d, batch_size = 3, 20_000, 10, 64
    rng = np.random.default_rng(13)
    xs = [rng.normal(size=(n + 7, d)) for _ in range(lanes)]
    rows = [rng.permutation(n + 7)[:n].astype(np.int32) for _ in range(lanes)]
    labels = [rng.integers(0, 4, n) for _ in range(lanes)]
    order = np.array([rng.permutation(n) for _ in range(lanes)], dtype=np.int32)
    bases = set()

    def step(x, y):
        bases.update((id(x.base), id(y.base)))
        return (np.zeros(lanes),)

    block = (harness.GATHER_ROWS // batch_size) * batch_size
    buffers = lanes * block * (d + 1) * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        harness._epoch((harness._Gather(xs, rows, order), harness._Gather(labels, None, order)),
                       batch_size, "epoch", step)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(bases) == 2
    assert peak < buffers + block * (4 + 8 + 8) + 32 * 1024, (peak, buffers)
