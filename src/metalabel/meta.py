"""Soft-label generation and the training steps.

The generator is a single dense layer + softmax over frozen features. Its
update differentiates the meta objective through a one-step virtual SGD
update of the classifier, i.e. a gradient is pushed through a gradient.

`meta_gradient`, behind `meta_step`, computes that gradient without a graph:
the meta gradient with respect to the generator's logits is
(inner_lr / n) (J - q * rowsum J), where J is the forward-mode derivative
(Pearlmutter's R-operator) of the classifier's softmax at theta along g, the
meta-loss gradient at the virtually updated parameters. This is the batch
form of the gradient-similarity identity of Ren et al. 2018. It runs on the
numpy kernels of `nn`, as do the classifier steps, and every parameter is a
float64 array. The unrolled route, which records the virtual update on the
autodiff engine and differentiates through it, is the reference this one is
checked against; it lives in `gradcheck`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (
    DivergenceError,
    Mlp,
    check_one_hot,
    log_softmax,
    mlp_backward,
    mlp_deltas,
    mlp_forward,
    mlp_jvp,
    mlp_logits,
    softmax,
)

EXTRACTOR_MODES = ("penultimate", "logits")


@dataclass
class FeatureExtractor:
    """Frozen copy of a trained classifier used as an encoder.

    "penultimate" drops the output layer and returns the last hidden
    activation; "logits" keeps the whole network and returns its pre-softmax
    output. Immutable after creation: built from deep copies.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    mode: str
    in_dim: int

    @classmethod
    def from_classifier(cls, net: Mlp, mode: str = "penultimate") -> "FeatureExtractor":
        if mode not in EXTRACTOR_MODES:
            raise ValueError(f"extractor mode must be one of {EXTRACTOR_MODES}")
        frozen = net.copy()
        kept = frozen.layers[:-1] if mode == "penultimate" else frozen.layers
        return cls(layers=kept, mode=mode, in_dim=net.in_dim)

    @property
    def n_features(self) -> int:
        if not self.layers:
            return self.in_dim
        return self.layers[-1][0].shape[1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Encode rows of x; deterministic, never differentiated."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"extractor expects (N, {self.in_dim}) input, got {x.shape}")
        if self.mode == "logits":
            return mlp_logits(self.layers, x)
        for w, b in self.layers:
            x = np.maximum(x @ w + b, 0.0)
        return x


@dataclass
class SoftLabeler:
    """Single dense layer + softmax mapping features to soft labels."""

    weight: np.ndarray  # (F, C)
    bias: np.ndarray    # (1, C)

    @classmethod
    def zeros(cls, n_features: int, n_classes: int) -> "SoftLabeler":
        # zero init makes the initial labels uniform over classes
        return cls(np.zeros((n_features, n_classes)), np.zeros((1, n_classes)))

    @property
    def n_classes(self) -> int:
        return self.weight.shape[1]

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def soft_labels(self, v: np.ndarray) -> np.ndarray:
        """Row distributions over classes for feature rows v."""
        if v.shape[1] != self.weight.shape[0]:
            raise ValueError(
                f"feature width {v.shape[1]} does not match generator ({self.weight.shape[0]})")
        return softmax(v @ self.weight + self.bias)


@dataclass
class MetaStepReport:
    meta_loss: float
    grad_phi_norm: float
    mean_similarity: float

    def __post_init__(self):
        vals = (self.meta_loss, self.grad_phi_norm, self.mean_similarity)
        if not all(np.isfinite(v) for v in vals):
            raise DivergenceError(f"diverged: non-finite meta step report {vals}")


# ---------------------------------------------------------------------------
# the training steps (numpy kernels)


def _soft_label_dz(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-row logit gradient of sum(p * w) with p = softmax(z), w held fixed."""
    return p * (w - (p * w).sum(axis=1, keepdims=True))


def meta_gradient(labeler: SoftLabeler, theta: Mlp, x: np.ndarray, v: np.ndarray,
                  meta_x: np.ndarray, meta_y_onehot: np.ndarray, *,
                  inner_lr: float) -> tuple[list[np.ndarray], MetaStepReport]:
    """Gradient of the meta loss through the virtual update with respect to
    the generator's (weight, bias), and the step report; no graph is built.

    Passes: forward and backward at theta on x (the inner gradient), forward
    and backward at theta_hat on the meta batch (g), one forward-mode pass at
    theta along g. Raises DivergenceError on a non-finite value or a
    probability underflow.
    """
    n = len(x)
    if len(meta_x) != n:
        raise ValueError(f"meta batch size {len(meta_x)} != train batch size {n}")
    check_one_hot(meta_y_onehot, theta.out_dim)
    layers = theta.layers
    log_q, q = log_softmax(v @ labeler.weight + labeler.bias)

    z, acts = mlp_forward(layers, x)
    log_p, p = log_softmax(z)
    inner = mlp_backward(layers, acts, _soft_label_dz(p, log_p - log_q) / n)
    if not all(np.all(np.isfinite(g)) for g in inner):
        raise DivergenceError("diverged: non-finite gradient in virtual update")

    hat = [(w - inner_lr * gw, b - inner_lr * gb)
           for (w, b), gw, gb in zip(layers, inner[0::2], inner[1::2])]
    z_hat, acts_hat = mlp_forward(hat, meta_x)
    log_p_hat, p_hat = log_softmax(z_hat)
    l_meta = -float((meta_y_onehot * log_p_hat).sum()) / n
    g = mlp_backward(hat, acts_hat, (p_hat - meta_y_onehot) / n)

    dz = mlp_jvp(layers, acts, g)
    jac = p * (dz - (p * dz).sum(axis=1, keepdims=True))
    big_g = (inner_lr / n) * (jac - q * jac.sum(axis=1, keepdims=True))
    phi_grads = [v.T @ big_g, big_g.sum(axis=0, keepdims=True)]

    report = MetaStepReport(
        meta_loss=l_meta,
        grad_phi_norm=float(np.sqrt(sum(float(np.vdot(a, a)) for a in phi_grads))),
        mean_similarity=sum(float(np.vdot(a, b)) for a, b in zip(inner, g)))
    return phi_grads, report


def meta_step(labeler: SoftLabeler, theta: Mlp, x: np.ndarray, v: np.ndarray,
              meta_x: np.ndarray, meta_y_onehot: np.ndarray, *,
              inner_lr: float, optimizer) -> tuple[SoftLabeler, MetaStepReport]:
    """Update the generator by the gradient of the meta loss through the
    virtual update (`meta_gradient`). The classifier is not modified.

    The optimizer's learning rate is the meta step size.
    """
    phi_grads, report = meta_gradient(labeler, theta, x, v, meta_x, meta_y_onehot,
                                      inner_lr=inner_lr)
    return SoftLabeler(*optimizer.step(labeler.params(), phi_grads)), report


def conventional_step(theta: Mlp, labeler: SoftLabeler, x: np.ndarray,
                      v: np.ndarray, lam: float, optimizer, *,
                      use_entropy: bool = True) -> tuple[Mlp, float, float]:
    """Momentum-SGD step of the classifier on regenerated soft labels.

    Labels come from the freshly updated generator and act as constants;
    the loss is the KL classification term plus (optionally) the entropy
    term that keeps predictions peaked. Returns (theta', L_c, L_e).
    """
    log_q, _ = log_softmax(v @ labeler.weight + labeler.bias)
    z, acts = mlp_forward(theta.layers, x)
    log_p, p = log_softmax(z)
    n = len(x)
    l_c = float((p * (log_p - log_q)).sum()) / n
    l_e = -float((p * log_p).sum()) / n if use_entropy else 0.0
    if not np.isfinite(l_c + l_e):
        raise DivergenceError("diverged: non-finite classifier loss")
    # KL plus entropy is the cross-entropy -sum(p log q)
    dz = _soft_label_dz(p, -log_q if use_entropy else log_p - log_q) / n
    optimizer.lr = lam
    new_theta = theta.with_params(
        optimizer.step(theta.params(), mlp_backward(theta.layers, acts, dz)))
    return new_theta, l_c, l_e


def ce_step(theta: Mlp, x: np.ndarray, labels: np.ndarray,
            optimizer) -> tuple[Mlp, float]:
    """One optimizer step of batch-mean cross-entropy on hard class labels
    (warm-up, baseline and margin oracle). Returns (theta', loss)."""
    z, acts = mlp_forward(theta.layers, x)
    log_p, p = log_softmax(z)
    rows = np.arange(len(x))
    loss = -float(log_p[rows, labels].sum()) / len(x)
    dz = p.copy()
    dz[rows, labels] -= 1.0
    dz /= len(x)
    return theta.with_params(
        optimizer.step(theta.params(), mlp_backward(theta.layers, acts, dz))), loss


# ---------------------------------------------------------------------------
# diagnostics


def similarity_matrix(theta: Mlp, theta_hat: Mlp, x: np.ndarray, y_hat: np.ndarray,
                      meta_x: np.ndarray, meta_y_onehot: np.ndarray) -> np.ndarray:
    """S[i, j] = inner product of train sample i's classification-loss
    gradient (at theta) with meta sample j's cross-entropy gradient (at
    theta_hat), gradients flattened layer by layer, weight before bias.

    A dense layer's per-sample gradient is the outer product of its input
    row h and its pre-activation gradient row d, so
    S = sum over layers of (H H'^T + 1) * (D D'^T). Diagnostic only.
    """
    layers, hat = theta.layers, theta_hat.layers
    z, acts = mlp_forward(layers, x)
    log_p, p = log_softmax(z)
    dz = _soft_label_dz(p, log_p - np.log(y_hat))
    z_hat, acts_hat = mlp_forward(hat, meta_x)
    _, p_hat = log_softmax(z_hat)
    s = np.zeros((len(x), len(meta_x)))
    for h, d, h2, d2 in zip(acts, mlp_deltas(layers, acts, dz),
                            acts_hat, mlp_deltas(hat, acts_hat, p_hat - meta_y_onehot)):
        s += (h @ h2.T + 1.0) * (d @ d2.T)
    return s
