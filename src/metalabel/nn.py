"""MLP parameters and kernels, and first-order optimizers.

Parameters are float64 arrays. The kernels (`mlp_forward`, `mlp_backward`,
`mlp_jvp`, `log_softmax`, `softmax`) are hand-written numpy passes over the
fixed network shape: rectifier hidden layers, identity output. The training
steps in `meta` run on them alone. Optimizers work on the same arrays:
parameter updates are ordinary numerics, never differentiated. The engine
form of the network and the losses, which the kernels are checked against,
lives in `gradcheck`.

Lanes: every kernel and optimizer also takes arrays with leading lane axes,
so S runs that share a network shape train as one stacked trajectory. A
weight is then (S, in, out), a bias (S, 1, out) and a batch (S, n, in).
Transposes swap the last two axes and reductions run on axes -1 and -2, so
each lane computes exactly what it computes alone: batched matmul calls the
same BLAS routine per lane, and elementwise IEEE operations are exact per
element. `stack_lanes`, `Mlp.stack`/`Mlp.lane` and
`_Optimizer.stack`/`_Optimizer.lane` move between solo and stacked form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

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


@dataclass
class Mlp:
    """Dense network parameters: rectifier hidden layers, identity output.
    Both the classifier and the soft-label generator (one layer) are Mlps.

    `layers[i]` is a (weight, bias) pair of float64 arrays with weight
    (in, out) and bias (1, out); consecutive layers chain and the last
    output width is the class count. A lane-stacked network puts the same
    leading lane axes on every array.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        lanes = self.layers[0][0].shape[:-2] if self.layers else ()
        for i, (w, b) in enumerate(self.layers):
            if w.ndim < 2 or w.shape[:-2] != lanes:
                raise ShapeError(f"layer {i} weight must be a matrix, got ndim={w.ndim}")
            if b.shape != (*lanes, 1, w.shape[-1]):
                raise ShapeError(f"layer {i} bias shape {b.shape}, "
                                 f"want {(*lanes, 1, w.shape[-1])}")
        for i in range(len(self.layers) - 1):
            w_out = self.layers[i][0].shape[-1]
            w_in = self.layers[i + 1][0].shape[-2]
            if w_out != w_in:
                raise ShapeError(f"layer {i} outputs {w_out} but layer {i + 1} expects {w_in}")

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[-2]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[-1]

    @classmethod
    def stack(cls, nets: list["Mlp"]) -> "Mlp":
        """The networks as lanes of one stacked network."""
        return nets[0].with_params([stack_lanes(list(ps))
                                    for ps in zip(*(n.params() for n in nets))])

    def lane(self, s: int) -> "Mlp":
        """Lane s of a stacked network, as views."""
        return self.with_params([p[s] for p in self.params()])

    def params(self) -> list[np.ndarray]:
        """Flat parameter list: layer order, weight before bias."""
        out = []
        for w, b in self.layers:
            out.append(w)
            out.append(b)
        return out

    def with_params(self, flat: list[np.ndarray]) -> "Mlp":
        if len(flat) != 2 * len(self.layers):
            raise ShapeError("parameter list length mismatch")
        return Mlp([(flat[2 * i], flat[2 * i + 1]) for i in range(len(self.layers))])

    def copy(self) -> "Mlp":
        return Mlp([(w.copy(), b.copy()) for w, b in self.layers])


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
# kernels on raw arrays: `layers` is a list of (weight, bias) arrays and
# parameter lists are flat, layer order, weight before bias (as Mlp.params);
# rows are on axis -2, so any leading axes are lanes


def mlp_logits(layers, x: np.ndarray) -> np.ndarray:
    """Logits only; each hidden activation is freed once the next layer has
    consumed it."""
    h = x
    for w, b in layers[:-1]:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
    w, b = layers[-1]
    return h @ w + b


def mlp_forward(layers, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (logits, acts): acts[l] is the input of layer l, so acts[0] is
    x and acts[l > 0] the rectified output of layer l - 1."""
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    w, b = layers[-1]
    return acts[-1] @ w + b, acts


def mlp_deltas(layers, acts: list[np.ndarray], dz: np.ndarray) -> list[np.ndarray]:
    """Gradient of the loss with respect to each layer's pre-activation,
    given dz with respect to the logits; row i depends only on sample i."""
    deltas = [dz]
    for l in range(len(layers) - 1, 0, -1):
        deltas.append((deltas[-1] @ layers[l][0].swapaxes(-1, -2)) * (acts[l] > 0.0))
    return deltas[::-1]


def mlp_backward(layers, acts: list[np.ndarray], dz: np.ndarray) -> list[np.ndarray]:
    """Parameter gradients from dz, the gradient with respect to the logits."""
    out = []
    for h, d in zip(acts, mlp_deltas(layers, acts, dz)):
        out.append(h.swapaxes(-1, -2) @ d)
        out.append(d.sum(axis=-2, keepdims=True))
    return out


def mlp_jvp(layers, acts: list[np.ndarray], tangents: list[np.ndarray]) -> np.ndarray:
    """Forward-mode derivative of the logits along a parameter direction
    (a flat list shaped like the parameters), at the point acts came from."""
    dh = None
    for l, (w, _) in enumerate(layers):
        da = acts[l] @ tangents[2 * l] + tangents[2 * l + 1]
        if dh is not None:
            da += dh @ w
        if l + 1 < len(layers):
            dh = da * (acts[l + 1] > 0.0)
    return da


def log_softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (log p, p) for p = softmax(z).

    Raises DivergenceError for non-finite logits and for a probability that
    underflows to 0, the two ways a diverging classifier shows up here.
    """
    if not np.all(np.isfinite(z)):
        raise DivergenceError("diverged: non-finite logits")
    s = z - z.max(axis=-1, keepdims=True)
    logp = s - np.log(np.exp(s).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    if not np.all(p > 0.0):
        raise DivergenceError("diverged: a probability underflowed to 0")
    return logp, p


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max; the one
    formula the engine's softmax shares. Raises DivergenceError for
    non-finite logits."""
    if not np.all(np.isfinite(z)):
        raise DivergenceError("diverged: non-finite logits")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
    """Shared bookkeeping: a subclass names its scalar hyperparameters
    (HYPER) and its per-parameter buffer lists (BUFFERS) once; `state()` and
    `load_state()` read and write exactly those, plus the step count.

    A lane-stacked optimizer holds (S, ...) buffers; its hyperparameters and
    step count are shared, because the lanes share a schedule."""

    kind: str
    HYPER: tuple[str, ...]
    BUFFERS: tuple[str, ...]

    def _check(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        slots = getattr(self, self.BUFFERS[0])
        if len(params) != len(slots) or len(grads) != len(slots):
            raise ShapeError("optimizer buffer count mismatch")
        for i, (p, g, b) in enumerate(zip(params, grads, slots)):
            if p.shape != b.shape or g.shape != p.shape:
                raise ShapeError(f"optimizer shape mismatch at slot {i}")

    @classmethod
    def stack(cls, opts: list["_Optimizer"]) -> "_Optimizer":
        """The lanes' optimizers as one; hyperparameters and step count are
        the first lane's."""
        out = copy.copy(opts[0])
        for k in cls.BUFFERS:
            setattr(out, k, [stack_lanes(list(b)) for b in zip(*(getattr(o, k) for o in opts))])
        return out

    def lane(self, s: int) -> "_Optimizer":
        """Lane s of a stacked optimizer; its buffers are views."""
        out = copy.copy(self)
        for k in self.BUFFERS:
            setattr(out, k, [b[s] for b in getattr(self, k)])
        return out

    def state(self) -> dict:
        out = {"kind": self.kind}
        out.update((k, getattr(self, k)) for k in self.HYPER)
        out["step_count"] = self.step_count
        out.update((k, [b.copy() for b in getattr(self, k)]) for k in self.BUFFERS)
        return out

    def load_state(self, state: dict) -> None:
        for k in self.HYPER:
            setattr(self, k, state[k])
        self.step_count = state["step_count"]
        for k in self.BUFFERS:
            setattr(self, k, [np.asarray(b, dtype=np.float64).copy() for b in state[k]])


class SgdMomentum(_Optimizer):
    """Momentum SGD: v <- momentum*v + g, p <- p - lr*v, with classic L2
    coupling (g includes weight_decay*p)."""

    kind = "sgd-momentum"
    HYPER = ("lr", "momentum", "weight_decay")
    BUFFERS = ("buffers",)

    def __init__(self, shapes: list[tuple[int, ...]], lr: float, momentum: float = 0.9,
                 weight_decay: float = 1e-4):
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buffers = [np.zeros(s) for s in shapes]
        self.step_count = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        self._check(params, grads)
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            g = g + self.weight_decay * p
            self.buffers[i] = self.momentum * self.buffers[i] + g
            out.append(p - self.lr * self.buffers[i])
        self.step_count += 1
        return out


class Adam(_Optimizer):
    """Adaptive-moment optimizer with bias correction; weight decay coupled
    into the gradient (classic L2), decays 0.9/0.999, epsilon 1e-8."""

    kind = "adam"
    HYPER = ("lr", "beta1", "beta2", "eps", "weight_decay")
    BUFFERS = ("m", "v")

    def __init__(self, shapes: list[tuple[int, ...]], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 1e-4):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.step_count = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        self._check(params, grads)
        self.step_count += 1
        t = self.step_count
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            g = g + self.weight_decay * p
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1 ** t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** t)
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out


OPTIMIZERS = {cls.kind: cls for cls in (SgdMomentum, Adam)}


def make_optimizer(kind: str, shapes: list[tuple[int, ...]], lr: float,
                   weight_decay: float = 1e-4):
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return OPTIMIZERS[kind](shapes, lr=lr, weight_decay=weight_decay)
