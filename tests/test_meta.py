import numpy as np
import pytest

from metalabel.engine import GradError, Tensor, grad, softmax
from metalabel.gradcheck import (
    check_meta_gradient,
    check_route_equivalence,
    fd_gradient,
    forward,
    kl_loss,
    meta_loss,
    mixed_error,
    soft_labels,
    virtual_update,
)
from metalabel.meta import (
    MetaStepReport,
    classifier_pass,
    conventional_step,
    extract_features,
    meta_step,
)
from metalabel.nn import (
    Mlp,
    SgdMomentum,
    init_mlp,
    make_optimizer,
    mlp_logits,
    one_hot,
    param_count,
)
from metalabel.nn import softmax as nn_softmax


def generated(labeler, v):
    """The generator's soft labels, as training reads them."""
    return nn_softmax(mlp_logits(labeler.layers, v))


@pytest.fixture()
def tiny():
    rng = np.random.default_rng(0)
    theta = init_mlp([4, 3, 3], rng)
    labeler = Mlp([(rng.normal(size=(3, 3)) * 0.5,
                    rng.normal(size=(1, 3)) * 0.1)])
    x = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 3))
    mx = rng.normal(size=(5, 4))
    my = one_hot(rng.integers(0, 3, 5), 3)
    return theta, labeler, x, v, mx, my


# -- feature extractor --------------------------------------------------------


def test_extractor_matches_full_network_hidden_output():
    rng = np.random.default_rng(1)
    net = init_mlp([6, 5, 4, 3], rng)
    x = rng.normal(size=(7, 6))
    feats = extract_features(net.prefix(2), x, "penultimate")
    _, hidden = forward(net.params(), Tensor(x))
    assert np.array_equal(feats, hidden.value)
    assert feats.shape == (7, 4)


def test_a_prefix_is_a_frozen_copy():
    rng = np.random.default_rng(2)
    net = init_mlp([4, 3, 2], rng)
    ext = net.prefix(1)
    x = rng.normal(size=(5, 4))
    before = extract_features(ext, x, "penultimate")
    # mutate the source network in place; the extractor must not move
    for w, b in net.layers:
        w += 100.0
    assert np.array_equal(extract_features(ext, x, "penultimate"), before)


def test_extractor_zero_input_zero_bias_gives_zero_features():
    net = Mlp([(np.random.default_rng(0).normal(size=(3, 4)), np.zeros((1, 4))),
               (np.zeros((4, 2)), np.zeros((1, 2)))])
    assert np.array_equal(extract_features(net.prefix(1), np.zeros((2, 3)), "penultimate"),
                          np.zeros((2, 4)))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_prefix_holds_the_first_k_layers(k):
    # its vector is the leading slice of the network's: layer order, weight first
    net = init_mlp([6, 8, 5, 3], np.random.default_rng(0))
    ext = net.prefix(k)
    assert ext.sizes == (6, 8, 5, 3)[:k + 1] and len(ext.layers) == k
    assert ext.flat.size == param_count(ext.sizes)
    assert np.array_equal(ext.flat, net.flat[:ext.flat.size])
    assert ext.out_dim == (6, 8, 5, 3)[k]


def test_extractor_logits_mode_returns_pre_softmax_output():
    rng = np.random.default_rng(4)
    net = init_mlp([5, 4, 3], rng)
    x = rng.normal(size=(6, 5))
    logits, _ = forward(net.params(), Tensor(x))
    assert np.array_equal(extract_features(net.prefix(2), x, "logits"), logits.value)
    assert np.array_equal(extract_features(net.prefix(2), x, "logits"),
                          mlp_logits(net.layers, x))


def test_extractor_of_a_classifier_without_hidden_layers():
    # a `hidden: []` classifier: penultimate features are the input itself
    rng = np.random.default_rng(5)
    net = init_mlp([5, 3], rng)
    x = rng.normal(size=(4, 5))
    ext = net.prefix(0)
    assert ext.layers == [] and ext.sizes == (5,) and ext.flat.size == 0
    assert np.array_equal(extract_features(ext, x, "penultimate"), x)
    assert np.array_equal(extract_features(net.prefix(1), x, "logits"),
                          mlp_logits(net.layers, x))


# -- soft-label generation ------------------------------------------------------


def test_zero_generator_gives_uniform_labels():
    lab = Mlp([(np.zeros((6, 4)), np.zeros((1, 4)))])
    out = generated(lab, np.random.default_rng(0).normal(size=(5, 6)))
    assert np.allclose(out, 0.25)


def test_soft_labels_live_on_the_simplex():
    rng = np.random.default_rng(6)
    lab = Mlp([(rng.normal(size=(4, 3)), rng.normal(size=(1, 3)))])
    out = generated(lab, rng.normal(size=(8, 4)))
    assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(out > 0.0)


def test_soft_labels_closed_form_single_row():
    lab = Mlp([(np.array([[1.0, -1.0], [0.5, 0.0]]), np.array([[0.1, -0.1]]))])
    v = np.array([[2.0, 3.0]])
    z = v @ lab.layers[0][0] + lab.layers[0][1]
    expected = np.exp(z) / np.exp(z).sum()
    assert np.allclose(generated(lab, v), expected, atol=1e-12)


# -- virtual update -------------------------------------------------------------


def test_virtual_update_fixed_point_at_own_predictions(tiny):
    theta, _, x, _, _, _ = tiny
    logits, _ = forward(theta.params(), Tensor(x))
    y_hat = Tensor(softmax(logits).value)
    theta_hat, _, _ = virtual_update(theta.params(), x, Tensor(y_hat.value), inner_lr=1.0)
    for p, q in zip(theta.params(), theta_hat):
        assert np.allclose(p, q.value, atol=1e-13, rtol=0)


def test_virtual_update_zero_inner_lr_is_identity(tiny):
    theta, labeler, x, v, _, _ = tiny
    theta_hat, _, _ = virtual_update(theta.params(), x, generated(labeler, v), inner_lr=0.0)
    for p, q in zip(theta.params(), theta_hat):
        assert np.array_equal(p, q.value)


def test_virtual_update_matches_finite_difference_gradient(tiny):
    theta, labeler, x, v, _, _ = tiny
    y_hat = generated(labeler, v)
    inner_lr = 0.7
    theta_hat, _, _ = virtual_update(theta.params(), x, Tensor(y_hat), inner_lr=inner_lr)
    w0 = theta.layers[0][0]

    def loss_at(wv):
        logits, _ = forward([wv] + theta.params()[1:], Tensor(x))
        return kl_loss(softmax(logits), Tensor(y_hat)).item()

    fd = fd_gradient(loss_at, w0)
    implied = (w0 - theta_hat[0].value) / inner_lr
    assert mixed_error(implied, fd) < 1e-4


# -- meta loss ------------------------------------------------------------------


def test_meta_loss_perfect_predictions_are_near_zero():
    net = Mlp([(np.eye(2) * 50.0, np.zeros((1, 2)))])
    mx = np.array([[1.0, 0.0], [0.0, 1.0]])
    my = one_hot(np.array([0, 1]), 2)
    assert meta_loss(net.params(), mx, my).item() < 1e-12


def test_meta_loss_uniform_predictions_are_log_c():
    net = Mlp([(np.zeros((3, 4)), np.zeros((1, 4)))])
    mx = np.random.default_rng(0).normal(size=(6, 3))
    my = one_hot(np.zeros(6, dtype=int), 4)
    assert meta_loss(net.params(), mx, my).item() == pytest.approx(np.log(4), abs=1e-12)


def test_meta_loss_matches_scalar_oracle(tiny):
    theta, _, _, _, mx, my = tiny
    logits, _ = forward(theta.params(), Tensor(mx))
    p = softmax(logits).value
    expected = float(np.mean([-np.log(p[i, my[i].argmax()]) for i in range(len(mx))]))
    assert meta_loss(theta.params(), mx, my).item() == pytest.approx(expected, abs=1e-12)


# -- meta step ------------------------------------------------------------------


def test_meta_step_gradient_matches_finite_differences():
    report = check_meta_gradient(n_seeds=5, tolerance=1e-4)
    assert report.passed, report.line()


def test_route_equivalence_on_tiny_configuration():
    report = check_route_equivalence(n_seeds=5, tolerance=1e-6)
    assert report.passed, report.line()


def test_route_equivalence_holds_for_non_unit_inner_lr():
    report = check_route_equivalence(n_seeds=3, tolerance=1e-6, inner_lr=0.37)
    assert report.passed, report.line()


@pytest.mark.parametrize("analytic, reference", [
    (np.full((2, 3), np.nan), np.zeros((2, 3))),
    (np.array([[1.0, np.nan, 0.0]]), np.array([[1.0, 2.0, 0.0]])),
    (np.array([[1.0, 1e-9, 0.0]]), np.array([[1.0, -np.inf, 0.0]])),
], ids=["all-nan", "one-nan", "reference-inf"])
def test_a_non_finite_entry_is_an_error_of_inf(analytic, reference):
    assert mixed_error(analytic, reference) == np.inf
    assert mixed_error(analytic, reference, small=np.inf) == np.inf
    assert mixed_error(reference, analytic) == np.inf


@pytest.mark.parametrize("check", [check_meta_gradient, check_route_equivalence])
def test_a_nan_in_the_fused_gradient_fails_the_meta_checks(monkeypatch, check):
    import metalabel.gradcheck as gradcheck_mod

    real = gradcheck_mod._fused_phi_grad

    def one_nan(*args):
        grads = real(*args)
        grads[0][0, 0] = np.nan
        return grads

    monkeypatch.setattr(gradcheck_mod, "_fused_phi_grad", one_nan)
    report = check(n_seeds=2)
    assert report.worst_err == np.inf and not report.passed


def test_meta_step_leaves_classifier_untouched(tiny):
    theta, labeler, x, v, mx, my = tiny
    before = [p.copy() for p in theta.params()]
    opt = make_optimizer("adam", labeler.flat.shape, lr=1e-2)
    new_lab, report, _ = meta_step(labeler, theta, x, v, mx, my,
                                   inner_lr=1.0, optimizer=opt)
    for p, b in zip(theta.params(), before):
        assert np.array_equal(p, b)
    assert isinstance(report, MetaStepReport)
    assert not np.array_equal(new_lab.layers[0][0], labeler.layers[0][0])


def test_meta_step_zero_gradient_keeps_generator_fixed():
    # classifier predicting the meta labels perfectly and already agreeing
    # with the generated labels: meta loss gradient is ~0
    rng = np.random.default_rng(8)
    theta = Mlp([(np.eye(2) * 60.0, np.zeros((1, 2)))])
    lab = Mlp([(np.zeros((3, 2)), np.zeros((1, 2)))])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = rng.normal(size=(2, 3))
    mx, my = x.copy(), one_hot(np.array([0, 1]), 2)
    opt = SgdMomentum(lab.flat.shape, lr=1e-2, momentum=0.0, weight_decay=0.0)
    new_lab, report, _ = meta_step(lab, theta, x, v, mx, my,
                                   inner_lr=1.0, optimizer=opt)
    assert report.grad_phi_norm < 1e-8
    assert np.allclose(new_lab.layers[0][0], lab.layers[0][0], atol=1e-10)
    assert np.allclose(new_lab.layers[0][1], lab.layers[0][1], atol=1e-10)


def test_meta_step_requires_matching_batch_sizes(tiny):
    theta, labeler, x, v, mx, my = tiny
    opt = make_optimizer("adam", labeler.flat.shape, lr=1e-2)
    with pytest.raises(ValueError):
        meta_step(labeler, theta, x, v, mx[:3], my[:3], inner_lr=1.0, optimizer=opt)


def test_meta_step_detached_labels_raise_not_silently_degrade(tiny):
    theta, labeler, x, v, mx, my = tiny
    y_hat = generated(labeler, v)  # no recorded graph to the generator
    theta_hat, _, _ = virtual_update(theta.params(), x, Tensor(y_hat), 1.0)
    with pytest.raises(GradError):
        grad(meta_loss(theta_hat, mx, my), [Tensor(p) for p in labeler.params()])


# -- conventional step -------------------------------------------------------------


def test_conventional_step_zero_lr_keeps_parameters(tiny):
    theta, labeler, x, v, _, _ = tiny
    opt = make_optimizer("sgd-momentum", theta.flat.shape, lr=0.0)
    new_theta, lc, le = conventional_step(theta, labeler, classifier_pass(theta, x), v, opt)
    assert opt.lr == 0.0  # the step runs at the optimizer's rate and leaves it
    for p, q in zip(theta.params(), new_theta.params()):
        assert np.array_equal(p, q)
    assert np.isfinite(lc) and np.isfinite(le)


def test_conventional_step_gradient_matches_finite_differences(tiny):
    theta, labeler, x, v, _, _ = tiny
    from metalabel.gradcheck import entropy_loss

    y_hat = generated(labeler, v)

    def total_loss(params) -> float:
        logits, _ = forward(params, Tensor(x))
        p = softmax(logits)
        return (kl_loss(p, Tensor(y_hat)) + entropy_loss(p)).item()

    params = [Tensor(q) for q in theta.params()]
    logits, _ = forward(params, Tensor(x))
    p = softmax(logits)
    loss = kl_loss(p, Tensor(y_hat)) + entropy_loss(p)
    grads = grad(loss, params)
    w0 = theta.layers[0][0]
    fd = fd_gradient(lambda wv: total_loss([wv] + theta.params()[1:]), w0)
    assert mixed_error(grads[0].value, fd) < 1e-4


def test_repeated_conventional_steps_descend_on_fixed_batch(tiny):
    theta, labeler, x, v, _, _ = tiny
    opt = SgdMomentum(theta.flat.shape, lr=1e-2, momentum=0.0, weight_decay=0.0)
    losses = []
    for _ in range(10):
        theta, lc, le = conventional_step(theta, labeler, classifier_pass(theta, x), v, opt)
        losses.append(lc + le)
    assert all(b < a for a, b in zip(losses, losses[1:]))

# -- fused route vs the engine at default sizes --------------------------------------


class RecordingOptimizer:
    """Stands in for an optimizer of `net`: records the gradient vector it is
    handed as net's arrays and leaves the parameters where they are."""

    def __init__(self, net):
        self.net = net
        self.grads = None

    def step(self, params, grads, out=None):
        self.grads = self.net.with_params(np.array(grads)).params()
        if out is None:
            return np.array(params)
        out[...] = params
        return out


@pytest.fixture(scope="module")
def warmed():
    # default sizes (10 dims, hidden [32, 16], 4 classes, batch 64) after the
    # default 15-epoch warm-up
    from metalabel.harness import TrainConfig, baseline_ce, build_dataset

    cfg = TrainConfig(seed=0, noise_kind="uniform")
    ds = build_dataset(cfg)
    # the baseline ignores warmup_epochs: 15 epochs of it are the warm-up
    theta = baseline_ce(TrainConfig(seed=0, noise_kind="uniform", warmup_epochs=0,
                                    total_epochs=cfg.warmup_epochs), ds.view()).theta
    extractor = theta.prefix(len(theta.layers) - 1)
    rng = np.random.default_rng(1)
    labeler = Mlp([(rng.normal(size=(extractor.out_dim, 4)) * 0.5,
                    rng.normal(size=(1, 4)) * 0.1)])
    rows, m_rows = ds.indices("train")[:64], ds.indices("meta")[:64]
    x = ds.x[rows]
    return (theta, labeler, x, extract_features(extractor, x, "penultimate"), ds.x[m_rows],
            one_hot(ds.y_clean[m_rows], 4), ds.y_noisy[rows])


def assert_close(fused, reference):
    for a, b in zip(fused, reference):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


def test_fused_meta_gradient_matches_engine_at_default_sizes(warmed):
    from metalabel.meta import meta_gradient

    theta, labeler, x, v, mx, my, _ = warmed
    for inner_lr in (1.0, 0.37):
        phi = [Tensor(p) for p in labeler.params()]
        theta_hat, _, inner = virtual_update(theta.params(), x, soft_labels(phi, v), inner_lr)
        l_meta = meta_loss(theta_hat, mx, my)
        grads = grad(l_meta, phi + theta_hat)
        mean_sim = sum(float(np.vdot(a.value, b.value))
                       for a, b in zip(inner, grads[2:]))

        phi_grad, report, _ = meta_gradient(labeler, theta, x, v, mx, my,
                                            inner_lr=inner_lr)
        phi_grads = phi_grad.params()
        assert_close(phi_grads, [g.value for g in grads[:2]])
        assert report.meta_loss == pytest.approx(l_meta.item(), abs=1e-13)
        assert report.mean_similarity == pytest.approx(mean_sim, abs=1e-12)
        assert np.abs(phi_grads[0]).max() > 1e-3  # a real gradient, not zeros


def test_classifier_steps_match_engine_at_default_sizes(warmed):
    from metalabel.meta import ce_step
    from metalabel.gradcheck import cce_loss, entropy_loss

    theta, labeler, x, v, _, _, labels = warmed
    y_hat = generated(labeler, v)
    params = [Tensor(p) for p in theta.params()]
    for use_entropy in (True, False):
        opt = RecordingOptimizer(theta)
        _, lc, le = conventional_step(theta, labeler, classifier_pass(theta, x), v, opt,
                                      use_entropy=use_entropy)
        probs = softmax(forward(params, Tensor(x))[0])
        l_c = kl_loss(probs, Tensor(y_hat))
        l_e = entropy_loss(probs)
        total = l_c + l_e if use_entropy else l_c
        assert_close(opt.grads, [g.value for g in grad(total, params)])
        assert lc == pytest.approx(l_c.item(), abs=1e-13)
        assert le == (pytest.approx(l_e.item(), abs=1e-13) if use_entropy else 0.0)

    opt = RecordingOptimizer(theta)
    _, loss = ce_step(theta, x, labels, opt)
    ref = cce_loss(softmax(forward(params, Tensor(x))[0]), one_hot(labels, 4))
    assert_close(opt.grads, [g.value for g in grad(ref, params)])
    assert loss == pytest.approx(ref.item(), abs=1e-13)


def test_meta_step_applies_the_fused_gradient(tiny):
    from metalabel.meta import meta_gradient

    theta, labeler, x, v, mx, my = tiny
    opt = RecordingOptimizer(labeler)
    _, report, _ = meta_step(labeler, theta, x, v, mx, my, inner_lr=1.0, optimizer=opt)
    phi_grad, expected, _ = meta_gradient(labeler, theta, x, v, mx, my, inner_lr=1.0)
    phi_grads = phi_grad.params()
    assert all(np.array_equal(a, b) for a, b in zip(opt.grads, phi_grads))
    assert report == expected


def test_meta_step_divergence_is_a_typed_error(tiny):
    from metalabel.nn import DivergenceError

    theta, labeler, x, v, mx, my = tiny
    opt = make_optimizer("adam", labeler.flat.shape, lr=1e-2)
    huge = theta.with_params(theta.flat * 1e6)
    with pytest.raises(DivergenceError, match="diverged"):
        meta_step(labeler, huge, x, v, mx, my, inner_lr=1e6, optimizer=opt)
    with pytest.raises(DivergenceError, match="diverged"):
        MetaStepReport(meta_loss=float("inf"), grad_phi_norm=0.0, mean_similarity=0.0)
