"""Soft-label generation and the training steps.

The generator (MetaLabelNet) is a one-layer `Mlp` over frozen features
(`extract_features`): the softmax of its logits is a row's soft label. Its
update differentiates the meta objective through a one-step virtual SGD
update of the classifier, i.e. a gradient is pushed through a gradient.

`meta_gradient`, behind `meta_step`, computes that gradient without a graph:
the meta gradient with respect to the generator's logits is
(inner_lr / n) (J - q * rowsum J), where J is the forward-mode derivative
(Pearlmutter's R-operator) of the classifier's softmax at theta along g, the
meta-loss gradient at the virtually updated parameters. This is the batch
form of the gradient-similarity identity of Ren et al. 2018. It runs on the
numpy kernels of `nn`, as do the classifier steps. Every parameter and
gradient is one flat float64 vector with layer views, so the virtual update
theta_hat = theta - inner_lr * g is one operation on the vectors. The
unrolled route, which records the virtual update on the autodiff engine and
differentiates through it, is the reference this one is checked against; it
lives in `gradcheck`.

A phase-2 batch runs the classifier forward at theta once. `meta_step`
computes it (`classifier_pass`: activations, rectifier masks, log p and p)
for the inner gradient and the forward-mode pass, and returns it;
`conventional_step` takes it, because the meta step leaves theta as it is.
The batch runs two classifier forward passes in all: theta on the train
batch and theta_hat on the meta batch.

Buffers: an epoch trains copies of its lanes' networks, so a network a
`RunState` holds is never written. Its batch loop binds `MetaWork` and a
gradient once and passes them in, with `out` the network a step moves, so
a batch builds no network. A step writes every entry of a buffer before it
reads it, and reads its network in full before its optimizer writes it.

Lanes: the generator, the classifier and the batches may carry leading lane
axes (see `nn`), and every step then advances all lanes at once. Losses are
reduced over axes (-1, -2), so a step's losses and report fields are arrays
over the lanes (scalars for a solo call), each equal to the lane's
solo value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import (
    DivergenceError,
    Mlp,
    log_softmax,
    mlp_backward,
    mlp_forward,
    mlp_jvp,
    mlp_logits,
)

EXTRACTOR_MODES = ("penultimate", "logits")


def extract_features(extractor: Mlp, x: np.ndarray, mode: str) -> np.ndarray:
    """The frozen features of rows x: the logits of `extractor` (a classifier's
    `Mlp.prefix`), rectified in "penultimate" mode, or x if it has no layer."""
    if not extractor.layers:
        return x
    z = mlp_logits(extractor.layers, x)
    return z if mode == "logits" else np.maximum(z, 0.0, out=z)


@dataclass
class MetaStepReport:
    """Per-lane values: floats for a solo step, arrays over the lanes."""

    meta_loss: float
    grad_phi_norm: float
    mean_similarity: float

    def __post_init__(self):
        vals = (self.meta_loss, self.grad_phi_norm, self.mean_similarity)
        if not np.isfinite(vals).all():
            raise DivergenceError(
                f"diverged: non-finite meta step report {tuple(np.asarray(vals).tolist())}")


# ---------------------------------------------------------------------------
# the training steps (numpy kernels)


class MetaWork(NamedTuple):
    """The networks the meta gradient writes: the inner gradient, theta_hat
    and g, shaped like the classifier, and the generator's gradient."""

    inner: Mlp
    hat: Mlp
    g: Mlp
    phi_grad: Mlp

    @classmethod
    def like(cls, theta: Mlp, labeler: Mlp) -> "MetaWork":
        return cls(theta.blank(), theta.blank(), theta.blank(), labeler.blank())


class ClassifierPass(NamedTuple):
    """The classifier's forward pass at theta on a train batch: each layer's
    input (acts[0] is the batch), the rectifier masks, and row-wise log p
    and p of its softmax."""

    acts: list[np.ndarray]
    masks: list[np.ndarray]
    log_p: np.ndarray
    p: np.ndarray


def classifier_pass(theta: Mlp, x: np.ndarray) -> ClassifierPass:
    """The forward pass at theta on x that both steps of a phase-2 batch
    read. Raises DivergenceError on non-finite logits or a probability
    underflow."""
    z, acts, masks = mlp_forward(theta.layers, x)
    return ClassifierPass(acts, masks, *log_softmax(z))


def _soft_label_dz(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-row logit gradient of sum(p * w) with p = softmax(z), w held fixed."""
    return p * (w - np.add.reduce(p * w, axis=-1, keepdims=True))


def _lane_vdot(xs: list[np.ndarray], ys: list[np.ndarray]):
    """Per lane, sum over the array pairs (in list order) of np.vdot(x, y):
    a float for solo arrays, an array over the lane axis otherwise. A lane's
    product is a (1, n) @ (n, 1) matmul of its flattened arrays, which numpy
    computes with the same dot routine as vdot, so each lane's sum is bit
    for bit its solo sum."""
    if xs[0].ndim == 2:
        return sum(float(np.vdot(x, y)) for x, y in zip(xs, ys))
    lanes = xs[0].shape[:-2]
    total = 0.0
    for x, y in zip(xs, ys):
        total = total + (x.reshape(*lanes, 1, -1) @ y.reshape(*lanes, -1, 1))[..., 0, 0]
    return total


def meta_gradient(labeler: Mlp, theta: Mlp, x: np.ndarray, v: np.ndarray,
                  meta_x: np.ndarray, meta_y_onehot: np.ndarray, *, inner_lr: float,
                  work: MetaWork | None = None) -> tuple[Mlp, MetaStepReport, ClassifierPass]:
    """Gradient of the meta loss through the virtual update with respect to
    the generator's parameters (`work.phi_grad`), the step report, and the
    classifier's pass at theta on x; no graph is built. Without `work`,
    its networks are new.

    Passes: forward at theta on x and backward (the inner gradient), forward
    and backward at theta_hat on the meta batch (g), one forward-mode pass
    at theta along g. meta_y_onehot must hold one-hot rows (`nn.one_hot`
    builds them); they are not checked here. Raises DivergenceError on a
    non-finite value or a probability underflow.

    The `q * rowsum J` term of G is zero in exact arithmetic: rowsum J =
    sum_k p_k (dz_k - sum_j p_j dz_j) = 0 because the p_k sum to 1. It only
    moves the rounding of G, and stays so that runs keep their bits.
    """
    n = x.shape[-2]
    if meta_x.shape[-2] != n:
        raise ValueError(f"meta batch size {meta_x.shape[-2]} != train batch size {n}")
    work = MetaWork.like(theta, labeler) if work is None else work
    log_q, q = log_softmax(mlp_logits(labeler.layers, v))

    fwd = classifier_pass(theta, x)
    acts, masks, p = fwd.acts, fwd.masks, fwd.p
    inner = mlp_backward(theta, acts, masks, _soft_label_dz(p, fwd.log_p - log_q) / n,
                         out=work.inner)
    if not np.isfinite(inner.flat).all():
        raise DivergenceError("diverged: non-finite gradient in virtual update")

    hat = work.hat
    np.subtract(theta.flat, inner_lr * inner.flat, out=hat.flat)
    z_hat, acts_hat, masks_hat = mlp_forward(hat.layers, meta_x)
    log_p_hat, p_hat = log_softmax(z_hat)
    l_meta = -np.add.reduce(meta_y_onehot * log_p_hat, axis=(-1, -2)) / n
    g = mlp_backward(hat, acts_hat, masks_hat, (p_hat - meta_y_onehot) / n, out=work.g)

    dz = mlp_jvp(theta.layers, acts, masks, g.params())
    jac = p * (dz - np.add.reduce(p * dz, axis=-1, keepdims=True))
    big_g = (inner_lr / n) * (jac - q * np.add.reduce(jac, axis=-1, keepdims=True))
    phi_grad = mlp_backward(labeler, [v], [], big_g, out=work.phi_grad)

    phi_arrays = phi_grad.params()
    report = MetaStepReport(meta_loss=l_meta,
                            grad_phi_norm=np.sqrt(_lane_vdot(phi_arrays, phi_arrays)),
                            mean_similarity=_lane_vdot(inner.params(), g.params()))
    return phi_grad, report, fwd


def meta_step(labeler: Mlp, theta: Mlp, x: np.ndarray, v: np.ndarray,
              meta_x: np.ndarray, meta_y_onehot: np.ndarray, *,
              inner_lr: float, optimizer, work: MetaWork | None = None,
              out: Mlp | None = None) -> tuple[Mlp, MetaStepReport, ClassifierPass]:
    """Update the generator by the gradient of the meta loss through the
    virtual update (`meta_gradient`, on `work`), into `out` or a new
    network. `out` may be the generator itself: the gradient has read it in
    full before the optimizer writes. The classifier is not modified, so
    the pass at theta on x it returns is the one `conventional_step` takes.

    The optimizer's learning rate is the meta step size.
    """
    phi_grad, report, fwd = meta_gradient(labeler, theta, x, v, meta_x, meta_y_onehot,
                                          inner_lr=inner_lr, work=work)
    out = labeler.blank() if out is None else out
    optimizer.step(labeler.flat, phi_grad.flat, out=out.flat)
    return out, report, fwd


def conventional_step(theta: Mlp, labeler: Mlp, fwd: ClassifierPass,
                      v: np.ndarray, optimizer, *,
                      use_entropy: bool = True, grad: Mlp | None = None,
                      out: Mlp | None = None) -> tuple[Mlp, float, float]:
    """One optimizer step of the classifier on regenerated soft labels, at
    fwd = `classifier_pass(theta, x)` (as `meta_step` returns it), at the
    optimizer's learning rate, as in `ce_step`. The gradient goes into
    `grad` and the stepped classifier into `out`, each a new network when
    not given. `out` may be theta itself: the gradient has read it in full
    before the optimizer writes.

    Labels come from the freshly updated generator and act as constants;
    the loss, finite because `log_softmax` keeps every log-probability above
    about -745, is the KL classification term plus (optionally) the entropy
    term that keeps predictions peaked. Returns (theta', L_c, L_e).
    """
    log_q, _ = log_softmax(mlp_logits(labeler.layers, v))
    log_p, p = fwd.log_p, fwd.p
    n = p.shape[-2]
    l_c = np.add.reduce(p * (log_p - log_q), axis=(-1, -2)) / n
    l_e = (-np.add.reduce(p * log_p, axis=(-1, -2)) / n if use_entropy
           else np.zeros(np.shape(l_c))[()])
    # KL plus entropy is the cross-entropy -sum(p log q)
    dz = _soft_label_dz(p, -log_q if use_entropy else log_p - log_q) / n
    grad = mlp_backward(theta, fwd.acts, fwd.masks, dz, out=grad)
    out = theta.blank() if out is None else out
    optimizer.step(theta.flat, grad.flat, out=out.flat)
    return out, l_c, l_e


def ce_step(theta: Mlp, x: np.ndarray, labels: np.ndarray, optimizer, *,
            grad: Mlp | None = None, out: Mlp | None = None) -> tuple[Mlp, float]:
    """One optimizer step of batch-mean cross-entropy on hard class labels
    (warm-up, baseline and margin oracle); labels has x's leading axes.
    The gradient and the stepped classifier go into `grad` and `out` (theta
    itself allowed), as in `conventional_step`. Returns (theta', loss)."""
    z, acts, masks = mlp_forward(theta.layers, x)
    log_p, p = log_softmax(z)
    n, c = z.shape[-2:]
    rows, cols = np.arange(labels.size), labels.reshape(-1)
    loss = -log_p.reshape(-1, c)[rows, cols].reshape(labels.shape).sum(axis=-1) / n
    dz = p.copy()
    dz.reshape(-1, c)[rows, cols] -= 1.0
    dz /= n
    grad = mlp_backward(theta, acts, masks, dz, out=grad)
    out = theta.blank() if out is None else out
    optimizer.step(theta.flat, grad.flat, out=out.flat)
    return out, loss
