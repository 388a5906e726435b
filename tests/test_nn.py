import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalabel.engine import Tensor, softmax
from metalabel.gradcheck import cce_loss, entropy_loss, forward, kl_loss
from metalabel.nn import (
    Adam,
    Mlp,
    SgdMomentum,
    ShapeError,
    check_one_hot,
    init_mlp,
    make_optimizer,
    one_hot,
)


def scalar_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Layer-by-layer scalar-loop evaluation, the independent oracle."""
    h = x
    for li, (w, b) in enumerate(net.layers):
        wv, bv = w, b
        out = np.zeros((h.shape[0], wv.shape[1]))
        for i in range(h.shape[0]):
            for j in range(wv.shape[1]):
                acc = bv[0, j]
                for k in range(h.shape[1]):
                    acc += h[i, k] * wv[k, j]
                out[i, j] = acc
        if li < len(net.layers) - 1:
            out = np.where(out > 0, out, 0.0)
        h = out
    return h


SIMPLEX_GRID = 2 ** 16


def _on_simplex(r: list[float]) -> list[float]:
    """r normalized and snapped to multiples of 1/SIMPLEX_GRID, the last
    entry taking the remainder, so the row sums to exactly 1. A row left as
    v / sum(r) can sum to 1 -+ an ulp, and then its exact KL to a row of the
    other sign is negative."""
    k = [round(v / sum(r) * SIMPLEX_GRID) for v in r[:-1]]
    return [c / SIMPLEX_GRID for c in k + [SIMPLEX_GRID - sum(k)]]


simplex_rows = st.lists(
    st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
    min_size=1, max_size=4,
).map(lambda rows: np.array([_on_simplex(r) for r in rows]))


# -- forward pass -------------------------------------------------------------


def test_forward_zero_params_gives_zeros():
    net = Mlp([(np.zeros((3, 4)), np.zeros((1, 4))),
               (np.zeros((4, 2)), np.zeros((1, 2)))])
    logits, hidden = forward(net.params(), Tensor(np.random.default_rng(0).normal(size=(5, 3))))
    assert np.array_equal(logits.value, np.zeros((5, 2)))
    assert np.array_equal(hidden.value, np.zeros((5, 4)))


def test_forward_identity_single_layer():
    net = Mlp([(np.eye(2), np.zeros((1, 2)))])
    logits, hidden = forward(net.params(), Tensor(np.array([[1.0, 2.0]])))
    assert np.array_equal(logits.value, [[1.0, 2.0]])
    # with no hidden layer, the pre-output activation is the input itself
    assert np.array_equal(hidden.value, [[1.0, 2.0]])


def test_forward_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    net = init_mlp([4, 5, 3], rng)
    x = rng.normal(size=(6, 4))
    logits, _ = forward(net.params(), Tensor(x))
    assert np.allclose(logits.value, scalar_forward(net, x), atol=1e-12)


def test_forward_dimension_mismatch_names_layer():
    net = init_mlp([4, 5, 3], np.random.default_rng(0))
    with pytest.raises(ShapeError, match="layer 0"):
        forward(net.params(), Tensor(np.zeros((2, 7))))


def test_mlp_rejects_unchained_layers():
    with pytest.raises(ShapeError):
        Mlp([(np.zeros((3, 4)), np.zeros((1, 4))),
             (np.zeros((5, 2)), np.zeros((1, 2)))])


@pytest.mark.parametrize("call, match", [
    (lambda: Mlp([]), "need at least one layer"),
    (lambda: Mlp([(np.zeros(3), np.zeros((1, 3)))]), "layer 0 weight must be a matrix"),
    (lambda: Mlp([(np.zeros((3, 4)), np.zeros((1, 4))),
                  (np.zeros((2, 4, 2)), np.zeros((2, 1, 2)))]),
     "layer 1 weight must be a matrix, got ndim=3"),
    (lambda: Mlp([(np.zeros((3, 4)), np.zeros((1, 3)))]),
     r"layer 0 bias shape \(1, 3\), want \(1, 4\)"),
    (lambda: init_mlp([3, 4], np.random.default_rng(0)).with_params(np.zeros(5)),
     "parameter vector length 5, want 16"),
    (lambda: init_mlp([3], np.random.default_rng(0)), "need at least input and output widths"),
    (lambda: check_one_hot(np.array([0.0, 1.0])), "labels must be a one-hot matrix"),
    (lambda: check_one_hot(np.eye(3), 2), "labels must be a one-hot matrix"),
    (lambda: one_hot(np.zeros((2, 1), dtype=np.int64), 3), "class labels must be a flat index"),
], ids=["no-layer", "vector-weight", "lanes-differ", "bias", "vector-length", "one-width",
        "one-hot-vector", "one-hot-width", "index-matrix"])
def test_a_shape_that_does_not_fit_is_a_shape_error(call, match):
    with pytest.raises(ShapeError, match=match):
        call()


def test_init_is_seeded_and_scaled():
    a = init_mlp([6, 4, 3], np.random.default_rng(11))
    b = init_mlp([6, 4, 3], np.random.default_rng(11))
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)
    s0 = math.sqrt(6.0 / (6 + 4))
    assert np.abs(a.layers[0][0]).max() <= s0
    assert np.array_equal(a.layers[0][1], np.zeros((1, 4)))


# -- cross-entropy ------------------------------------------------------------


def test_cce_perfect_prediction_is_zero():
    probs = Tensor(np.array([[1.0 - 2e-12, 1e-12, 1e-12]]))
    y = one_hot(np.array([0]), 3)
    assert cce_loss(probs, y).item() < 1e-11


def test_cce_uniform_is_log_c():
    probs = Tensor(np.full((3, 4), 0.25))
    y = one_hot(np.array([0, 1, 3]), 4)
    assert abs(cce_loss(probs, y).item() - math.log(4)) < 1e-12


def test_cce_batch_mean_matches_scalar_oracle():
    p = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    y = one_hot(np.array([0, 2]), 3)
    expected = (-math.log(0.7) - math.log(0.6)) / 2
    assert abs(cce_loss(Tensor(p), y).item() - expected) < 1e-12


def test_cce_rejects_non_one_hot():
    p = Tensor(np.full((2, 3), 1 / 3))
    with pytest.raises(ValueError):
        cce_loss(p, np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))


def test_cce_agrees_with_log_sum_exp_closed_form():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(8, 5)) * 3
    labels = rng.integers(0, 5, size=8)
    y = one_hot(labels, 5)
    loss = cce_loss(softmax(Tensor(z)), y).item()
    lse = np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1)) \
        + z.max(axis=1, keepdims=True)[:, 0]
    closed = float((lse - z[np.arange(8), labels]).mean())
    assert abs(loss - closed) < 1e-10


# -- KL divergence ------------------------------------------------------------


def test_kl_identity_is_zero():
    p = Tensor(np.array([[0.2, 0.3, 0.5]]))
    assert kl_loss(p, Tensor(p.value.copy())).item() == 0.0


def test_kl_closed_form_value():
    val = kl_loss(Tensor(np.array([[0.5, 0.5]])),
                  Tensor(np.array([[0.25, 0.75]]))).item()
    expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
    assert abs(val - expected) < 1e-12
    assert abs(val - 0.14384) < 1e-4


def test_kl_is_asymmetric():
    p = Tensor(np.array([[0.9, 0.1]]))
    q = Tensor(np.array([[0.5, 0.5]]))
    assert kl_loss(p, q).item() != kl_loss(q, p).item()


def test_kl_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        kl_loss(Tensor(np.array([[1.0, 0.0]])), Tensor(np.array([[0.5, 0.5]])))


def test_kl_rejects_rows_that_are_not_a_matrix_of_the_target_shape():
    with pytest.raises(ShapeError, match="pred must be a matrix of row distributions"):
        kl_loss(Tensor(0.5), Tensor(np.array([[0.5, 0.5]])))
    with pytest.raises(ShapeError, match=r"pred \(1, 2\) vs target \(1, 3\)"):
        kl_loss(Tensor(np.array([[0.5, 0.5]])), Tensor(np.full((1, 3), 1 / 3)))


@settings(max_examples=60, deadline=None)
@given(simplex_rows, simplex_rows)
def test_kl_nonnegative_and_zero_iff_equal(p_rows, q_rows):
    n = min(len(p_rows), len(q_rows))
    p, q = p_rows[:n], q_rows[:n]
    assert kl_loss(Tensor(p), Tensor(q)).item() >= 0.0
    assert kl_loss(Tensor(p), Tensor(p.copy())).item() == 0.0


def test_kl_does_not_mutate_inputs():
    p = np.array([[0.5, 0.5]])
    q = np.array([[0.25, 0.75]])
    pt, qt = Tensor(p.copy()), Tensor(q.copy())
    kl_loss(pt, qt)
    assert np.array_equal(pt.value, p)
    assert np.array_equal(qt.value, q)


# -- entropy ------------------------------------------------------------------


def test_entropy_uniform_is_log_c():
    probs = Tensor(np.full((2, 10), 0.1))
    assert abs(entropy_loss(probs).item() - math.log(10)) < 1e-12


def test_entropy_near_one_hot_vanishes():
    eps = 1e-9
    probs = Tensor(np.array([[1 - 3 * eps, eps, eps, eps]]))
    assert entropy_loss(probs).item() < 1e-7


def test_entropy_batch_mean_matches_scalar_oracle():
    p = np.array([[0.5, 0.5], [0.9, 0.1]])
    expected = np.mean([-(0.5 * math.log(0.5)) * 2,
                        -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))])
    assert abs(entropy_loss(Tensor(p)).item() - expected) < 1e-12


def test_entropy_invariant_to_row_and_class_permutation():
    rng = np.random.default_rng(9)
    p = rng.dirichlet(np.ones(5), size=6)
    base = entropy_loss(Tensor(p)).item()
    assert entropy_loss(Tensor(p[::-1].copy())).item() == pytest.approx(base, abs=1e-12)
    perm = rng.permutation(5)
    assert entropy_loss(Tensor(p[:, perm].copy())).item() == pytest.approx(base, abs=1e-12)


# -- optimizers ---------------------------------------------------------------


def test_sgd_zero_grad_no_decay_is_identity():
    opt = SgdMomentum((2, 2), lr=0.1, momentum=0.0, weight_decay=0.0)
    p = np.ones((2, 2))
    out = opt.step(p, np.zeros((2, 2)))
    assert np.array_equal(out, p)


def test_sgd_first_step_is_plain_descent():
    opt = SgdMomentum((1, 3), lr=0.5, momentum=0.9, weight_decay=0.0)
    p = np.zeros((1, 3))
    g = np.array([[1.0, 2.0, 3.0]])
    out = opt.step(p, g)
    assert np.allclose(out, -0.5 * g)
    assert np.allclose(opt.buffers, g)


def test_sgd_three_steps_match_hand_unrolled_recurrence():
    lr, mom = 0.1, 0.9
    opt = SgdMomentum((1, 1), lr=lr, momentum=mom, weight_decay=0.0)
    p = np.array([[1.0]])
    g = np.array([[2.0]])
    v = 0.0
    expect = 1.0
    for _ in range(3):
        p = opt.step(p, g)
        v = mom * v + 2.0
        expect -= lr * v
        assert p[0, 0] == pytest.approx(expect, abs=1e-15)


def test_sgd_weight_decay_couples_into_gradient():
    opt = SgdMomentum((1, 1), lr=1.0, momentum=0.0, weight_decay=0.1)
    out = opt.step(np.array([[2.0]]), np.array([[0.0]]))
    assert out[0, 0] == pytest.approx(2.0 - 0.2)


def test_adam_zero_grad_no_decay_is_identity():
    opt = Adam((2, 1), lr=0.1, weight_decay=0.0)
    p = np.ones((2, 1))
    out = opt.step(p, np.zeros((2, 1)))
    assert np.array_equal(out, p)


def test_adam_first_step_magnitude():
    # with bias correction the first update has magnitude ~lr
    opt = Adam((1, 1), lr=0.01, weight_decay=0.0)
    out = opt.step(np.array([[0.0]]), np.array([[3.0]]))
    assert out[0, 0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_matches_hand_computation_two_steps():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    opt = Adam((1, 1), lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=0.0)
    p = np.array([[1.0]])
    m = v = 0.0
    ph = 1.0
    for t, gval in enumerate([0.5, -0.25], start=1):
        p = opt.step(p, np.array([[gval]]))
        m = b1 * m + (1 - b1) * gval
        v = b2 * v + (1 - b2) * gval * gval
        mh, vh = m / (1 - b1 ** t), v / (1 - b2 ** t)
        ph -= lr * mh / (math.sqrt(vh) + eps)
        assert p[0, 0] == pytest.approx(ph, abs=1e-15)


def test_optimizer_shape_mismatch_raises():
    opt = make_optimizer("sgd-momentum", (2, 2), lr=0.1)
    with pytest.raises(ShapeError):
        opt.step(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        make_optimizer("newton", (1, 1), lr=0.1)
    with pytest.raises(ValueError, match="adaptive-moment"):
        make_optimizer("adaptive-moment", (1, 1), lr=0.1)


def test_optimizer_state_roundtrip():
    # an optimizer rebuilt as a checkpoint restores it (kind and
    # hyperparameters from the config, each buffer from its vector, the step
    # count counted) steps exactly as the original
    from metalabel.harness import _b64, _vector

    rng = np.random.default_rng(0)
    net = init_mlp([3, 4, 2], rng)
    for kind in ("sgd-momentum", "adam"):
        opt = make_optimizer(kind, net.flat.shape, lr=0.05, weight_decay=3e-4)
        p = opt.step(net.flat, rng.normal(size=net.flat.shape))
        clone = make_optimizer(kind, net.flat.shape, lr=0.05, weight_decay=3e-4)
        for k in opt.BUFFERS:
            text = json.loads(json.dumps(_b64([getattr(opt, k)])))
            setattr(clone, k, _vector(text, k, net.sizes))
        clone.step_count = 1
        g = rng.normal(size=net.flat.shape)
        assert np.array_equal(opt.step(p, g), clone.step(p, g))
        for k in opt.BUFFERS:
            assert np.array_equal(getattr(opt, k), getattr(clone, k))


def _per_array_step(kind, arrays, grads, bufs, t, lr=0.05, wd=1e-4):
    """The optimizer formulas applied array by array; returns the new arrays."""
    out = []
    for i, (p, g) in enumerate(zip(arrays, grads)):
        g = g + wd * p
        if kind == "sgd-momentum":
            bufs[0][i] = 0.9 * bufs[0][i] + g
            out.append(p - lr * bufs[0][i])
        else:
            bufs[0][i] = 0.9 * bufs[0][i] + (1.0 - 0.9) * g
            bufs[1][i] = 0.999 * bufs[1][i] + (1.0 - 0.999) * g * g
            m_hat = bufs[0][i] / (1.0 - 0.9 ** t)
            v_hat = bufs[1][i] / (1.0 - 0.999 ** t)
            out.append(p - lr * m_hat / (np.sqrt(v_hat) + 1e-8))
    return out


@pytest.mark.parametrize("lanes", [None, 4])
@pytest.mark.parametrize("kind", ["sgd-momentum", "adam"])
def test_a_flat_step_equals_the_per_array_formulas_bit_for_bit(kind, lanes):
    rng = np.random.default_rng(3)
    nets = [init_mlp([5, 7, 6, 3], rng) for _ in range(lanes or 1)]
    net = nets[0] if lanes is None else Mlp.stack(nets)
    opt = make_optimizer(kind, net.flat.shape, lr=0.05)
    arrays = [p.copy() for p in net.params()]
    bufs = [[np.zeros(p.shape) for p in arrays] for _ in opt.BUFFERS]
    for t in range(1, 4):
        grad = net.with_params(rng.normal(size=net.flat.shape) * 10.0 ** (t - 2))
        net = net.with_params(opt.step(net.flat, grad.flat))
        arrays = _per_array_step(kind, arrays, grad.params(), bufs, t)
        assert all(np.array_equal(a, b) for a, b in zip(net.params(), arrays))
    for k, per_array in zip(opt.BUFFERS, bufs):
        assert all(np.array_equal(a, b)
                   for a, b in zip(net.with_params(getattr(opt, k)).params(), per_array))


@pytest.mark.parametrize("kind, param, grad, lr", [
    *(pytest.param(kind, 0.0, g, 1e-3, id=f"{kind}-{name}")
      for kind in ("sgd-momentum", "adam") for name, g in (("inf", np.inf), ("nan", np.nan))),
    *(pytest.param(kind, -1.5e308, 1.0, 1e308, id=f"{kind}-update-overflows")
      for kind in ("sgd-momentum", "adam")),
    # adam divides by the root of v, so a v that overflows would only zero the update
    pytest.param("adam", 0.0, 1e200, 1e-3, id="adam-second-moment-overflows"),
])
@pytest.mark.parametrize("lanes", [None, 3])
def test_a_step_that_writes_a_non_finite_entry_diverges(kind, param, grad, lr, lanes):
    # one entry of one lane goes non-finite; the rest step from zero to zero
    from metalabel.nn import DivergenceError

    shape = (5,) if lanes is None else (lanes, 5)
    opt = make_optimizer(kind, shape, lr=lr, weight_decay=0.0)
    params, grads = np.zeros(shape), np.zeros(shape)
    assert np.array_equal(opt.step(params, grads), params)
    last = (-1,) * len(shape)
    params[last], grads[last] = param, grad
    with pytest.raises(DivergenceError, match="^diverged: non-finite parameters$"), \
            np.errstate(all="ignore"):  # the overflow is the point
        opt.step(params, grads, out=params)


def test_layers_are_views_of_the_flat_vector():
    rng = np.random.default_rng(4)
    nets = [init_mlp([5, 7, 3], rng) for _ in range(3)]
    for net in (nets[0], Mlp.stack(nets), Mlp.stack(nets).lane(1)):
        assert all(np.shares_memory(a, net.flat) for a in net.params())
        assert net.flat.size == sum(a.size for a in net.params())
    assert np.array_equal(Mlp.stack(nets).lane(1).flat, nets[1].flat)


def test_one_hot_roundtrip_and_validation():
    y = one_hot(np.array([0, 2, 1]), 3)
    assert np.array_equal(y.argmax(axis=1), [0, 2, 1])
    with pytest.raises(ValueError):
        one_hot(np.array([3]), 3)


# -- numpy kernels ------------------------------------------------------------------


def kernel_net(seed=0):
    from metalabel.nn import mlp_forward

    rng = np.random.default_rng(seed)
    net = init_mlp([5, 7, 6, 3], rng)
    layers = net.layers
    x = rng.normal(size=(9, 5))
    z, acts, masks = mlp_forward(layers, x)
    return rng, net, layers, x, z, acts, masks


def test_kernel_forward_matches_mlp_forward_exactly():
    from metalabel.nn import mlp_logits

    _, net, layers, x, z, acts, _ = kernel_net()
    logits, hidden = forward(net.params(), Tensor(x))
    assert np.array_equal(z, logits.value)
    assert np.array_equal(acts[-1], hidden.value)
    assert np.array_equal(mlp_logits(layers, x), z)
    assert np.allclose(z, scalar_forward(net, x), atol=1e-12)


def test_kernel_backward_matches_engine_gradient():
    from metalabel.engine import grad, mul, sum_all
    from metalabel.nn import mlp_backward

    rng, net, layers, x, _, acts, masks = kernel_net(1)
    r = rng.normal(size=(9, 3))
    params = [Tensor(p) for p in net.params()]
    logits, _ = forward(params, Tensor(x))
    ref = grad(sum_all(mul(logits, Tensor(r))), params)
    for a, b in zip(mlp_backward(net, acts, masks, r).params(), ref):
        assert np.allclose(a, b.value, rtol=0, atol=1e-13)


def test_kernel_jvp_matches_central_differences():
    from metalabel.nn import mlp_jvp, mlp_logits

    rng, net, layers, x, _, acts, masks = kernel_net(2)
    tangents = [rng.normal(size=p.shape) for p in net.params()]
    eps = 1e-6

    def shifted(sign):
        flat = [p + sign * eps * t for p, t in zip(net.params(), tangents)]
        return mlp_logits(list(zip(flat[0::2], flat[1::2])), x)

    fd = (shifted(1.0) - shifted(-1.0)) / (2 * eps)
    assert np.allclose(mlp_jvp(layers, acts, masks, tangents), fd, rtol=1e-6, atol=1e-8)


def test_log_softmax_matches_softmax_and_flags_divergence():
    from metalabel.nn import DivergenceError, log_softmax

    z = np.array([[1.0, -2.0, 0.5], [300.0, 299.0, -40.0]])
    log_p, p = log_softmax(z)
    # exp amplifies the rounding of log p by |log p| (up to ~340 here)
    assert np.allclose(p, softmax(Tensor(z)).value, rtol=1e-12, atol=0)
    assert np.allclose(log_p, np.log(softmax(Tensor(z)).value), rtol=1e-14, atol=0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(DivergenceError, match="non-finite logits"), np.errstate(all="ignore"):
            log_softmax(np.array([[0.0, 1.0], [bad, 0.0]]))
    with pytest.raises(DivergenceError, match="underflowed"):
        log_softmax(np.array([[0.0, -1e4]]))


def test_softmax_kernel_matches_the_engine_and_flags_divergence():
    from metalabel.nn import DivergenceError
    from metalabel.nn import softmax as softmax_kernel

    z = np.array([[1.0, -2.0, 0.5], [300.0, 299.0, -40.0]])
    assert np.array_equal(softmax_kernel(z), softmax(Tensor(z)).value)
    with pytest.raises(DivergenceError, match="non-finite logits"):
        softmax_kernel(np.array([[np.nan, 0.0]]))
