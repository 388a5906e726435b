import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalabel.engine import (
    GradError,
    Tensor,
    exp,
    grad,
    linear,
    log,
    matmul,
    mul,
    relu,
    softmax,
    sum_all,
    sum_cols,
    sum_rows,
    transpose,
)


def fd(f, x, step=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[ij] += step
        xm[ij] -= step
        g[ij] = (f(xp) - f(xm)) / (2 * step)
    return g


def test_scalar_chain_rule():
    # d/dw (w*x) at w=2, x=3 is 3
    w = Tensor(2.0)
    (gw,) = grad(mul(w, 3.0), [w])
    assert gw.item() == 3.0


def test_tensor_rank_restriction():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3))  # 1-D vectors are spelled as 1xN matrices


def test_matmul_gradients_match_fd():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    at, bt = Tensor(a), Tensor(b)
    out = sum_all(matmul(at, bt))
    ga, gb = grad(out, [at, bt])
    assert np.allclose(ga.value, fd(lambda m: (m @ b).sum(), a), atol=1e-8)
    assert np.allclose(gb.value, fd(lambda m: (a @ m).sum(), b), atol=1e-8)


def test_broadcast_add_bias_gradient():
    rng = np.random.default_rng(1)
    x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
    coeff = rng.normal(size=(5, 2))
    bt = Tensor(b)
    out = sum_all(mul(linear(Tensor(x), Tensor(w), bt), Tensor(coeff)))
    (gb,) = grad(out, [bt])
    ref = fd(lambda m: ((x @ w + m) * coeff).sum(), b)
    assert gb.shape == (1, 2)
    assert np.allclose(gb.value, ref, atol=1e-7)


def test_elementwise_op_gradients():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.5, 2.0, size=(3, 3))
    xt = Tensor(x)
    out = sum_all(mul(exp(xt), log(xt)))
    (gx,) = grad(out, [xt])
    ref = fd(lambda m: (np.exp(m) * np.log(m)).sum(), x)
    assert np.max(np.abs(gx.value - ref)) < 1e-7


def test_relu_gradient_mask():
    x = np.array([[-1.0, 2.0], [3.0, -4.0]])
    xt = Tensor(x)
    (gx,) = grad(sum_all(relu(xt)), [xt])
    assert np.array_equal(gx.value, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_sum_rows_cols_shapes_and_grads():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert sum_rows(x).shape == (2, 1)
    assert sum_cols(x).shape == (1, 3)
    (g,) = grad(sum_all(mul(sum_rows(x), Tensor(np.array([[2.0], [3.0]])))), [x])
    assert np.array_equal(g.value, np.array([[2.0] * 3, [3.0] * 3]))


def test_transpose_roundtrip_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    (g,) = grad(sum_all(mul(transpose(x), Tensor(np.ones((3, 2))))), [x])
    assert np.array_equal(g.value, np.ones((2, 3)))


# -- softmax contract --------------------------------------------------------


def test_softmax_symmetric_rows():
    out = softmax(Tensor(np.array([[0.0, 0.0]])))
    assert np.allclose(out.value, [[0.5, 0.5]])
    out = softmax(Tensor(np.array([[7.3, 7.3, 7.3]])))
    assert np.allclose(out.value, [[1 / 3] * 3])


def test_softmax_closed_form():
    out = softmax(Tensor(np.log(np.array([[1.0, 2.0, 3.0]]))))
    assert np.allclose(out.value, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one_and_shift_invariant(rows):
    z = np.array(rows, dtype=np.float64)
    s = softmax(Tensor(z)).value
    assert np.all(np.abs(s.sum(axis=1) - 1.0) < 1e-9)
    shifted = softmax(Tensor(z + 13.7)).value
    assert np.max(np.abs(s - shifted)) < 1e-12


def test_softmax_rejects_nonfinite():
    # the value is nn.softmax's, and so is the check
    from metalabel.nn import DivergenceError

    with pytest.raises(DivergenceError, match="non-finite logits"):
        softmax(Tensor(np.array([[np.inf, 0.0]])))


# -- differentiation machinery ------------------------------------------------


def test_grad_requires_scalar_output():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(GradError):
        grad(mul(x, x), [x])


def test_grad_of_unrelated_tensor_raises():
    x, y = Tensor(1.0), Tensor(2.0)
    for wrt in ([y], [x, y]):
        with pytest.raises(GradError, match="a requested tensor is not reachable"):
            grad(mul(x, x), wrt)


def test_repeated_operand_accumulates():
    x = Tensor(4.0)
    (g,) = grad(mul(x, x), [x])
    assert g.item() == 8.0


def test_second_order_closed_form():
    # h(w) = sum(exp(w) * w); s = ||grad h||^2; ds/dw = 2 e^{2w} (w+1)(w+2)
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(2, 3)))
    (g,) = grad(sum_all(mul(exp(w), w)), [w], create_graph=True)
    (gg,) = grad(sum_all(mul(g, g)), [w])
    wv = w.value
    expected = 2 * np.exp(2 * wv) * (wv + 1) * (wv + 2)
    assert np.max(np.abs(gg.value - expected)) < 1e-10


def test_second_order_vs_fd_of_first_gradient():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(2, 2))

    def grad_map(wv):
        wt = Tensor(wv)
        (g,) = grad(sum_all(mul(exp(wt), wt)), [wt])
        return g.value

    wt = Tensor(w)
    (g,) = grad(sum_all(mul(exp(wt), wt)), [wt], create_graph=True)
    (gg,) = grad(sum_all(mul(g, g)), [wt])

    g0 = grad_map(w)
    ref = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        wp, wm = w.copy(), w.copy()
        wp[ij] += 1e-5
        wm[ij] -= 1e-5
        ref[ij] = 2 * ((grad_map(wp) - grad_map(wm)) / 2e-5 * g0).sum()
    rel = np.abs(gg.value - ref) / np.maximum(np.abs(ref), 1e-12)
    assert rel.max() < 1e-5


def test_create_graph_false_output_is_detached():
    x = Tensor(2.0)
    (g,) = grad(mul(x, x), [x])
    with pytest.raises(GradError):
        grad(mul(g, g), [x])


def test_kl_gradient_vs_fd_tight_tolerance():
    from metalabel.gradcheck import kl_loss

    rng = np.random.default_rng(17)
    z = rng.normal(size=(4, 5)) * 2
    target = rng.dirichlet(np.ones(5), size=4)

    def loss_at(zv):
        return kl_loss(softmax(Tensor(zv)), Tensor(target)).item()

    zt = Tensor(z)
    (gz,) = grad(kl_loss(softmax(zt), Tensor(target)), [zt])
    ref = fd(loss_at, z)
    rel = np.abs(gz.value - ref) / np.maximum(np.abs(ref), 1e-12)
    assert rel.max() < 1e-6


def test_package_import_leaves_the_engine_unloaded():
    # only the reference route in gradcheck needs the engine
    import os
    import subprocess
    import sys

    import metalabel

    src = os.path.dirname(os.path.dirname(metalabel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # the CLI loads gradcheck, and with it the engine, only for its command
    for module in ("metalabel", "metalabel.cli"):
        probe = (f"import sys, {module}; print('metalabel.engine' in sys.modules, "
                 f"'metalabel.gradcheck' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "False False", module
