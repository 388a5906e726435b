"""MLP parameters and kernels, and first-order optimizers.

A network keeps all its parameters in one contiguous float64 vector,
`Mlp.flat`: layer order, weight before bias, each array row-major. Its
`layers` are (weight, bias) views reshaped from that vector. The kernels
(`mlp_forward`, `mlp_backward`, `mlp_jvp`, `log_softmax`, `softmax`) are
hand-written numpy passes over the layers of the fixed network shape:
rectifier hidden layers, identity output. `mlp_backward` writes a parameter
gradient into a network shaped like the given one: `out`, or a new one. The
optimizers step a whole vector in one pass, into `out` or a new vector:
parameter updates are ordinary numerics, elementwise and never
differentiated. The training steps in `meta` run on these alone. The
engine form of the network and the losses, which the kernels are checked
against, lives in `gradcheck`.

A pass over a whole split through wide layers (evaluation, the phase-2
features) runs ROW_BLOCK rows at a time (`row_blocks`, `map_row_blocks`),
so its memory is its result plus one block of transients. A batch loop
gathers its batches' rows GATHER_ROWS at a time (`harness._epoch`).

Lanes: every kernel and optimizer also takes arrays with leading lane axes,
so S runs that share a network shape train as one stacked trajectory. A
parameter vector is then (S, P), its weight views (S, in, out), its bias
views (S, 1, out), and a batch is (S, n, in). Transposes swap the last two
axes and reductions run on axes -1 and -2, so each lane computes exactly
what it computes alone: batched matmul calls the same BLAS routine per lane,
and elementwise IEEE operations are exact per element. `stack_lanes`,
`Mlp.stack`/`Mlp.lane` and `_Optimizer.stack`/`_Optimizer.lane` move between
solo and stacked form, one call per vector.
"""

from __future__ import annotations

import copy

import numpy as np


class ShapeError(ValueError):
    """Dimension mismatch between data and parameters."""


class DivergenceError(ArithmeticError):
    """Training left the representable range: a non-finite value, or a
    probability that underflowed to 0."""


# ---------------------------------------------------------------------------
# parameters


def stack_lanes(arrays: list[np.ndarray]) -> np.ndarray:
    """Equal-shaped arrays stacked on a new leading lane axis. One array is
    returned as it is: a group of one carries no lane axis, so a solo run
    steps on its own arrays."""
    return arrays[0] if len(arrays) == 1 else np.array(arrays)


def param_count(sizes) -> int:
    """The length of the parameter vector of layer widths `sizes`."""
    return sum((a + 1) * z for a, z in zip(sizes, sizes[1:]))


def _slice_plan(sizes: tuple[int, ...]) -> list:
    """Per layer of widths `sizes`: where its weight starts and ends, where
    its bias ends, and the two arrays' shapes."""
    plan, at = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = at + fan_in * fan_out
        plan.append((at, end, end + fan_out, (fan_in, fan_out), (1, fan_out)))
        at = end + fan_out
    return plan


def _layer_views(flat: np.ndarray, sizes: tuple[int, ...]) -> list:
    """(weight, bias) views of a parameter vector for layer widths `sizes`;
    leading axes of `flat` are lanes. Each lane's block of an array is
    contiguous, so every reshape is a view."""
    lanes = flat.shape[:-1]
    return [(flat[..., a:e].reshape(*lanes, *ws), flat[..., e:f].reshape(*lanes, *bs))
            for a, e, f, ws, bs in _slice_plan(sizes)]


class Mlp:
    """Dense network parameters: rectifier hidden layers, identity output.
    The classifier, the soft-label generator (one layer) and the frozen
    extractor (a `prefix` of the classifier, perhaps of no layer) are Mlps.

    `flat` is the parameter vector (P,), or (S, P) for S lanes; `sizes`
    the layer widths, input first. `layers[i]` is a (weight, bias) pair of
    views of `flat`, weight (in, out) and bias (1, out), after the lane
    axes. An epoch trains copies of its lanes' networks, stepped in place,
    and writes gradients and theta_hat into buffers it binds fresh, so a
    network a `RunState` holds is never written.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        """A network holding a copy of `layers`, (weight, bias) pairs that
        chain; a lane-stacked network puts the same leading lane axes on
        every array."""
        if not layers:
            raise ShapeError("need at least one layer")
        lanes = layers[0][0].shape[:-2]
        for i, (w, b) in enumerate(layers):
            if w.ndim < 2 or w.shape[:-2] != lanes:
                raise ShapeError(f"layer {i} weight must be a matrix, got ndim={w.ndim}")
            if b.shape != (*lanes, 1, w.shape[-1]):
                raise ShapeError(f"layer {i} bias shape {b.shape}, "
                                 f"want {(*lanes, 1, w.shape[-1])}")
        for i in range(len(layers) - 1):
            w_out = layers[i][0].shape[-1]
            w_in = layers[i + 1][0].shape[-2]
            if w_out != w_in:
                raise ShapeError(f"layer {i} outputs {w_out} but layer {i + 1} expects {w_in}")
        self._bind(np.concatenate([a.reshape(*lanes, -1) for pair in layers for a in pair],
                                  axis=-1, dtype=np.float64),
                   (layers[0][0].shape[-2], *(w.shape[-1] for w, _ in layers)))

    def _bind(self, flat: np.ndarray, sizes: tuple[int, ...]) -> None:
        self.flat = flat
        self.sizes = sizes
        self.layers = _layer_views(flat, sizes)

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def with_params(self, flat: np.ndarray) -> "Mlp":
        """This network's shape on the parameter vector `flat` (any lane
        axes); the new network's layers are views of `flat`, not copies."""
        if flat.shape[-1] != self.flat.shape[-1]:
            raise ShapeError(f"parameter vector length {flat.shape[-1]}, "
                             f"want {self.flat.shape[-1]}")
        net = object.__new__(Mlp)
        net._bind(flat, self.sizes)
        return net

    @classmethod
    def stack(cls, nets: list["Mlp"]) -> "Mlp":
        """The networks as lanes of one stacked network."""
        return nets[0].with_params(stack_lanes([n.flat for n in nets]))

    def lane(self, s: int) -> "Mlp":
        """Lane s of a stacked network, as views."""
        return self.with_params(self.flat[s])

    def params(self) -> list[np.ndarray]:
        """The arrays as a list: layer order, weight before bias (views)."""
        return [a for pair in self.layers for a in pair]

    def copy(self) -> "Mlp":
        return self.with_params(self.flat.copy())

    def prefix(self, k: int) -> "Mlp":
        """A copy of the first k layers; k = 0 gives a network of no layer."""
        net = object.__new__(Mlp)
        net._bind(self.flat[..., :param_count(self.sizes[:k + 1])].copy(), self.sizes[:k + 1])
        return net

    def blank(self) -> "Mlp":
        """This network's shape on a new vector whose entries are not yet
        written: a buffer for a kernel or a step to fill."""
        return self.with_params(np.empty(self.flat.shape))


def init_mlp(sizes: list[int], rng: np.random.Generator) -> Mlp:
    """Scaled-uniform init: weights U(-s, s) with s = sqrt(6/(fan_in+fan_out)),
    biases zero."""
    if len(sizes) < 2:
        raise ShapeError("need at least input and output widths")
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-s, s, size=(fan_in, fan_out))
        layers.append((w, np.zeros((1, fan_out))))
    return Mlp(layers)


# ---------------------------------------------------------------------------
# passes over a whole split

ROW_BLOCK = 4096  # rows per block of a pass over a whole split; bounds its transients
GATHER_ROWS = 256  # rows a batch loop gathers at once, in whole batches (at least one)


def row_blocks(n: int):
    """(start, stop) of each block of a pass over n rows: ROW_BLOCK rows,
    except that a 1-row tail joins the block before it, because numpy runs
    a 1-row matmul as a matrix-vector product, whose sums round
    differently."""
    start = 0
    while start < n:
        stop = min(start + ROW_BLOCK, n)
        if n - stop == 1:
            stop = n
        yield start, stop
        start = stop


def map_row_blocks(fn, x: np.ndarray, rows: np.ndarray, width: int) -> np.ndarray:
    """`fn` over the rows `rows` of x, one block of `row_blocks` at a time,
    written into one (len(rows), width) float64 array.

    `fn` must be row-wise: row i of its output depends on row i of its
    input alone. Only one block's gathered rows and transients exist at
    once, so a pass holds its result plus one block, whatever the split's
    size. The result is the one-shot `fn(x[rows])` wherever BLAS runs a
    block's matmul on the kernel it runs the whole split's on. OpenBLAS does
    not for a narrow product (2 to 4 output columns, such as logits) once
    rows x inputs x outputs passes 10**6: on a split that large the blocks'
    last bits differ. So a pass that keeps the values of such a product (the
    soft labels, the margins, logits features) runs in one piece.
    """
    out = np.empty((rows.shape[0], width))
    for a, b in row_blocks(rows.shape[0]):
        out[a:b] = fn(x[rows[a:b]])
    return out


# ---------------------------------------------------------------------------
# kernels on raw arrays: `layers` is a list of (weight, bias) arrays and a
# parameter list runs in layer order, weight before bias (as Mlp.params);
# rows are on axis -2, so any leading axes are lanes


def mlp_logits(layers, x: np.ndarray) -> np.ndarray:
    """Logits only; each hidden activation is freed once the next layer has
    consumed it, and every bias is added in place."""
    h = x
    for w, b in layers[:-1]:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
    w, b = layers[-1]
    z = h @ w
    z += b
    return z


def mlp_forward(layers, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Returns (logits, acts, masks): acts[l] is the input of layer l, so
    acts[0] is x and acts[l > 0] the rectified output of layer l - 1;
    masks[l] is where hidden layer l's pre-activation is positive, the
    rectifier's derivative that every backward and forward-mode pass at this
    point reads."""
    acts, masks = [x], []
    for w, b in layers[:-1]:
        a = acts[-1] @ w
        a += b
        masks.append(a > 0.0)
        acts.append(np.maximum(a, 0.0, out=a))
    w, b = layers[-1]
    return acts[-1] @ w + b, acts, masks


def mlp_backward(net: Mlp, acts: list[np.ndarray], masks: list[np.ndarray],
                 dz: np.ndarray, out: Mlp | None = None) -> Mlp:
    """Parameter gradients from dz, the gradient with respect to the logits,
    as a network of net's shape: `out`, or a new one, every entry written.
    From the last layer back, `d` is the gradient with respect to the
    layer's pre-activation (row i depends only on sample i), and the layer's
    gradient is written as soon as its `d` is known."""
    grad = net.blank() if out is None else out
    d = dz
    for l in range(len(net.layers) - 1, -1, -1):
        gw, gb = grad.layers[l]
        np.matmul(acts[l].swapaxes(-1, -2), d, out=gw)
        np.add.reduce(d, axis=-2, keepdims=True, out=gb)
        if l:
            d = (d @ net.layers[l][0].swapaxes(-1, -2)) * masks[l - 1]
    return grad


def mlp_jvp(layers, acts: list[np.ndarray], masks: list[np.ndarray],
            tangents: list[np.ndarray]) -> np.ndarray:
    """Forward-mode derivative of the logits along a parameter direction
    (a list shaped like Mlp.params()), at the point acts and masks came
    from."""
    dh = None
    for l, (w, _) in enumerate(layers):
        da = acts[l] @ tangents[2 * l] + tangents[2 * l + 1]
        if dh is not None:
            da += dh @ w
        if l + 1 < len(layers):
            dh = da * masks[l]
    return da


def _row_max(z: np.ndarray) -> np.ndarray:
    """The row maxima of z, keeping the class axis: column 0 copied, then
    columns 1 to c-1 folded in one at a time (a NaN propagates). A few calls
    over whole columns beat `np.maximum.reduce`, which loops over the short
    rows. The maximum of finite values does not depend on the order it is
    taken in, except that a tie of +0 and -0 may give either zero, which
    changes no bit of a softmax (see `log_softmax`)."""
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j:j + 1], out=m)
    return m


def log_softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (log p, p) for p = softmax(z).

    Raises DivergenceError for non-finite logits (which make p NaN or 0) and
    for a probability that underflows to 0, both found by one `p > 0` test.
    A row max tied between +0 and -0 leaves every bit as it is: the tie puts
    exp(0) = 1 twice into the row sum, so log(sum) >= log 2 > 0.
    """
    s = z - _row_max(z)
    logp = s - np.log(np.add.reduce(np.exp(s), axis=-1, keepdims=True))
    p = np.exp(logp)
    if not (p > 0.0).all():
        if not np.isfinite(z).all():
            raise DivergenceError("diverged: non-finite logits")
        raise DivergenceError("diverged: a probability underflowed to 0")
    return logp, p


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max; the one
    formula the engine's softmax shares. Written into `out` (z itself
    allowed), or a new array. Raises DivergenceError for non-finite
    logits."""
    if not np.isfinite(z).all():
        raise DivergenceError("diverged: non-finite logits")
    e = np.subtract(z, _row_max(z), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# ---------------------------------------------------------------------------
# labels


def check_one_hot(y: np.ndarray, n_classes: int | None = None) -> None:
    """One-hot rows on the last axis; leading axes past the rows are lanes."""
    y = np.asarray(y)
    if y.ndim < 2 or (n_classes is not None and y.shape[-1] != n_classes):
        raise ShapeError("labels must be a one-hot matrix")
    ok = np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=-1) == 1.0)
    if not ok:
        raise ValueError("labels must be one-hot rows")


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError("class labels must be a flat index array")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("class index out of range")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# optimizers


class _Optimizer:
    """Shared bookkeeping: a subclass names its buffers (BUFFERS) once, the
    state a checkpoint stores (`harness` derives the kind, hyperparameters
    and step count). Each buffer is one array of the parameter vector's
    shape, and `step` updates the whole vector at once with elementwise
    formulas, into `out` when given, else into a new vector. `out` may be
    the parameter vector itself: each element is read before it is written.
    A step is the one place training writes parameters: it raises
    DivergenceError, after writing, on a non-finite entry in any lane of the
    new parameters, or of Adam's v (an inf there would only zero an update).

    A lane-stacked optimizer holds (S, P) buffers; its hyperparameters and
    step count are shared, because the lanes share a schedule."""

    kind: str
    BUFFERS: tuple[str, ...]

    def _check(self, params: np.ndarray, grads: np.ndarray) -> None:
        want = getattr(self, self.BUFFERS[0]).shape
        if params.shape != want or grads.shape != want:
            raise ShapeError(f"optimizer shape mismatch: parameters {params.shape}, "
                             f"gradient {grads.shape}, buffers {want}")

    @staticmethod
    def _finite(written: np.ndarray, *buffers: np.ndarray) -> np.ndarray:
        """`written`, the new parameters, once it and `buffers` are finite."""
        if not all(np.isfinite(a).all() for a in (written, *buffers)):
            raise DivergenceError("diverged: non-finite parameters")
        return written

    @classmethod
    def stack(cls, opts: list["_Optimizer"]) -> "_Optimizer":
        """The lanes' optimizers as one; hyperparameters and step count are
        the first lane's."""
        out = copy.copy(opts[0])
        for k in cls.BUFFERS:
            setattr(out, k, stack_lanes([getattr(o, k) for o in opts]))
        return out

    def lane(self, s: int) -> "_Optimizer":
        """Lane s of a stacked optimizer; its buffers are views."""
        out = copy.copy(self)
        for k in self.BUFFERS:
            setattr(out, k, getattr(self, k)[s])
        return out


class SgdMomentum(_Optimizer):
    """Momentum SGD: v <- momentum*v + g, p <- p - lr*v, with classic L2
    coupling (g includes weight_decay*p)."""

    kind = "sgd-momentum"
    BUFFERS = ("buffers",)

    def __init__(self, shape: tuple[int, ...], lr: float, momentum: float = 0.9,
                 weight_decay: float = 1e-4):
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buffers = np.zeros(shape)
        self.step_count = 0

    def step(self, params: np.ndarray, grads: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        self._check(params, grads)
        g = grads + self.weight_decay * params
        self.buffers = self.momentum * self.buffers + g
        self.step_count += 1
        return self._finite(np.subtract(params, self.lr * self.buffers, out=out))


class Adam(_Optimizer):
    """Adaptive-moment optimizer with bias correction; weight decay coupled
    into the gradient (classic L2), decays 0.9/0.999, epsilon 1e-8."""

    kind = "adam"
    BUFFERS = ("m", "v")

    def __init__(self, shape: tuple[int, ...], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 1e-4):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.step_count = 0

    def step(self, params: np.ndarray, grads: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        self._check(params, grads)
        self.step_count += 1
        t = self.step_count
        g = grads + self.weight_decay * params
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        m_hat = self.m / (1.0 - self.beta1 ** t)
        v_hat = self.v / (1.0 - self.beta2 ** t)
        return self._finite(np.subtract(params, self.lr * m_hat / (np.sqrt(v_hat) + self.eps),
                                        out=out), self.v)


OPTIMIZERS = {cls.kind: cls for cls in (SgdMomentum, Adam)}


def make_optimizer(kind: str, shape: tuple[int, ...], lr: float,
                   weight_decay: float = 1e-4):
    """An optimizer of `kind` for a parameter vector of `shape`."""
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return OPTIMIZERS[kind](shape, lr=lr, weight_decay=weight_decay)
