"""The reference route on the autodiff engine, and finite-difference oracles
for every analytic gradient path.

This is the only module that differentiates with the engine. Its reference
route is the engine form of the network (`forward`), the generator
(`soft_labels`), the three losses, and the unrolled meta update
(`virtual_update`, `meta_loss`). Parameters arrive as the float64 arrays the
rest of the package stores and become `Tensor`s here, at this boundary.

Central differences are the independent reference: nothing here reuses the
machinery it is checking, beyond evaluating the function being differenced.
The meta gradient is checked on the fused route that training runs
(`meta_gradient`), against differences of the unrolled engine route and
against that route's own reverse-mode gradient. Entries with vanishing
analytic gradient are compared absolutely, everything else relatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Tensor, as_tensor, clip_min, grad, linear, log, mul, relu, softmax, sum_all
from .meta import meta_gradient
from .nn import Mlp, ShapeError, check_one_hot, init_mlp, one_hot

PROB_FLOOR = 1e-12  # clamp applied inside losses only, never to stored labels

FD_STEP = 1e-5
SMALL_GRAD = 1e-8

# tiny configuration used by the second-order and route checks
TINY = {"dims": 4, "n_features": 3, "classes": 3, "batch": 5, "hidden": [3]}


@dataclass
class CheckReport:
    name: str
    worst_err: float
    tolerance: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.worst_err < self.tolerance

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: worst error {self.worst_err:.3e} "
                f"(tolerance {self.tolerance:.1e}, {self.trials} trials)")


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function over a matrix."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[ij] += step
        xm[ij] -= step
        g[ij] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def mixed_error(analytic: np.ndarray, reference: np.ndarray,
                small: float = SMALL_GRAD) -> float:
    """Relative error where the analytic gradient is appreciable, absolute
    error where it is below `small` (everywhere, for `small` inf). A
    non-finite entry in either array is an error of inf, not a NaN, which
    `max` would drop."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if not (np.isfinite(analytic).all() and np.isfinite(reference).all()):
        return np.inf
    denom = np.where(np.abs(analytic) >= small, np.maximum(np.abs(reference), small), 1.0)
    return float((np.abs(analytic - reference) / denom).max(initial=0.0))


# ---------------------------------------------------------------------------
# the reference route: parameter lists are flat, layer order, weight before
# bias (as Mlp.params), of arrays or Tensors; arrays are wrapped on entry


def forward(params, x) -> tuple[Tensor, Tensor]:
    """Returns (logits, hidden): hidden is the activation feeding the output
    layer (the input itself for a single-layer net)."""
    params = [as_tensor(p) for p in params]
    h = as_tensor(x)
    if h.shape[1] != params[0].shape[0]:
        raise ShapeError(f"input width {h.shape[1]} does not match layer 0 "
                         f"({params[0].shape[0]})")
    for w, b in zip(params[:-2:2], params[1:-2:2]):
        h = relu(linear(h, w, b))
    return linear(h, params[-2], params[-1]), h


def soft_labels(phi, v) -> Tensor:
    """The generator's row distributions for feature rows v, differentiable
    with respect to phi = [weight, bias]."""
    return softmax(linear(v, *phi))


def _check_probs(p: Tensor, name: str) -> None:
    if p.value.ndim != 2:
        raise ShapeError(f"{name} must be a matrix of row distributions")
    if np.any(p.value <= 0.0):
        raise ValueError(f"{name} must be strictly positive")


def cce_loss(probs, y_onehot: np.ndarray) -> Tensor:
    """Batch-mean categorical cross-entropy against one-hot targets."""
    probs = as_tensor(probs)
    _check_probs(probs, "probs")
    check_one_hot(y_onehot, probs.shape[1])
    n = probs.shape[0]
    picked = mul(Tensor(np.asarray(y_onehot, dtype=np.float64)), log(probs))
    return sum_all(picked) * (-1.0 / n)


def kl_loss(pred, target) -> Tensor:
    """Batch-mean KL(pred row || target row); prediction in the first slot.

    Entries are floored at PROB_FLOOR inside the computation only; callers'
    arrays are never mutated.
    """
    pred, target = as_tensor(pred), as_tensor(target)
    _check_probs(pred, "pred")
    _check_probs(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} vs target {target.shape}")
    n = pred.shape[0]
    p = clip_min(pred, PROB_FLOOR)
    q = clip_min(target, PROB_FLOOR)
    return sum_all(mul(p, log(p) - log(q))) * (1.0 / n)


def entropy_loss(probs) -> Tensor:
    """Batch-mean Shannon entropy of prediction rows; pressure toward
    single-class peaks when minimized."""
    probs = as_tensor(probs)
    _check_probs(probs, "probs")
    n = probs.shape[0]
    p = clip_min(probs, PROB_FLOOR)
    return sum_all(mul(p, log(p))) * (-1.0 / n)


def virtual_update(params, x, y_hat, inner_lr: float = 1.0):
    """Hypothetical classifier parameters after one plain SGD step on the
    batch-mean KL against the generated labels, kept differentiable with
    respect to the parameters and whatever y_hat depends on. No momentum, no
    weight decay.

    Returns (theta_hat, loss, inner_grads), theta_hat a flat Tensor list."""
    params = [as_tensor(p) for p in params]
    logits, _ = forward(params, x)
    loss = kl_loss(softmax(logits), y_hat)
    inner_grads = grad(loss, params, create_graph=True)
    return [p - inner_lr * g for p, g in zip(params, inner_grads)], loss, inner_grads


def meta_loss(theta_hat, meta_x, meta_y_onehot: np.ndarray) -> Tensor:
    """Batch-mean cross-entropy of the virtually updated classifier (a flat
    parameter list) on a clean meta batch."""
    check_one_hot(meta_y_onehot, theta_hat[-1].shape[1])
    logits, _ = forward(theta_hat, meta_x)
    return cce_loss(softmax(logits), meta_y_onehot)


# ---------------------------------------------------------------------------
# first-order loss checks


def _loss_cases(rng: np.random.Generator):
    n, c = int(rng.integers(2, 7)), int(rng.integers(2, 6))
    z = rng.normal(size=(n, c)) * 2.0
    target = rng.dirichlet(np.ones(c), size=n)
    y = one_hot(rng.integers(0, c, size=n), c)
    return z, target, y


def check_loss_gradients(trials: int = 100, seed: int = 0,
                         tolerance: float = 1e-4) -> list[CheckReport]:
    """Analytic vs central-difference gradients through softmax for each of
    the three losses, over random logits."""
    rng = np.random.default_rng(seed)
    worst = {"cce": 0.0, "kl": 0.0, "entropy": 0.0}
    for _ in range(trials):
        z, target, y = _loss_cases(rng)

        def run(name, value_fn):
            zt = Tensor(z)
            (gz,) = grad(value_fn(zt), [zt])
            fd = fd_gradient(lambda a: value_fn(Tensor(a)).item(), z)
            worst[name] = max(worst[name], mixed_error(gz.value, fd))

        run("cce", lambda t: cce_loss(softmax(t), y))
        run("kl", lambda t: kl_loss(softmax(t), Tensor(target)))
        run("entropy", lambda t: entropy_loss(softmax(t)))
    return [CheckReport(f"{k}-loss gradient vs finite differences", v,
                        tolerance, trials) for k, v in worst.items()]


def check_double_gradient(trials: int = 20, seed: int = 0,
                          tolerance: float = 1e-5) -> CheckReport:
    """Gradient-of-gradient: for s(w) = ||d/dw h(w)||^2 with a softmax-KL
    inner function, compare the analytic gradient of s against central
    differences of the first gradient map."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = rng.normal(size=(2, 3))
        target = rng.dirichlet(np.ones(3), size=2)

        def inner_grad(wv: np.ndarray) -> np.ndarray:
            wt = Tensor(wv)
            loss = kl_loss(softmax(wt), Tensor(target))
            (g,) = grad(loss, [wt])
            return g.value

        wt = Tensor(w)
        loss = kl_loss(softmax(wt), Tensor(target))
        (g,) = grad(loss, [wt], create_graph=True)
        (gg,) = grad(sum_all(mul(g, g)), [wt])

        # d/dw ||G(w)||^2 = 2 J_G(w)^T G(w), with J from differences of G
        g0 = inner_grad(w)
        fd = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            wp, wm = w.copy(), w.copy()
            wp[ij] += FD_STEP
            wm[ij] -= FD_STEP
            fd[ij] = float(((inner_grad(wp) - inner_grad(wm)) / (2 * FD_STEP) * g0).sum()) * 2.0
        worst = max(worst, mixed_error(gg.value, fd))
    return CheckReport("gradient-of-gradient vs finite differences", worst,
                       tolerance, trials)


# ---------------------------------------------------------------------------
# second-order meta checks on the tiny configuration


def _tiny_problem(seed: int):
    t = TINY
    rng = np.random.default_rng(seed)
    theta = init_mlp([t["dims"]] + t["hidden"] + [t["classes"]], rng)
    labeler = Mlp([(rng.normal(size=(t["n_features"], t["classes"])) * 0.5,
                    rng.normal(size=(1, t["classes"])) * 0.1)])
    x = rng.normal(size=(t["batch"], t["dims"]))
    v = rng.normal(size=(t["batch"], t["n_features"]))
    mx = rng.normal(size=(t["batch"], t["dims"]))
    my = one_hot(rng.integers(0, t["classes"], t["batch"]), t["classes"])
    return theta, labeler, x, v, mx, my


def _unrolled_phi_grad(labeler, theta, x, v, mx, my, inner_lr):
    phi = [Tensor(p) for p in labeler.params()]
    theta_hat, _, _ = virtual_update(theta.params(), x, soft_labels(phi, v), inner_lr)
    return [g.value for g in grad(meta_loss(theta_hat, mx, my), phi)]


def _fused_phi_grad(labeler, theta, x, v, mx, my, inner_lr):
    return meta_gradient(labeler, theta, x, v, mx, my, inner_lr=inner_lr)[0].params()


def check_meta_gradient(n_seeds: int = 20, tolerance: float = 1e-4,
                        inner_lr: float = 1.0) -> CheckReport:
    """Fused generator gradient (the one training uses) vs central
    differences that rebuild labels, virtual update and meta loss on the
    engine at each perturbed point."""
    worst = 0.0
    for seed in range(n_seeds):
        theta, labeler, x, v, mx, my = _tiny_problem(seed)
        analytic = _fused_phi_grad(labeler, theta, x, v, mx, my, inner_lr)

        def loss_at(wv, bv) -> float:
            y_hat = soft_labels([wv, bv], v)
            theta_hat, _, _ = virtual_update(theta.params(), x, y_hat, inner_lr)
            return meta_loss(theta_hat, mx, my).item()

        w0, b0 = labeler.params()
        fd_w = fd_gradient(lambda a: loss_at(a, b0), w0)
        fd_b = fd_gradient(lambda a: loss_at(w0, a), b0)
        worst = max(worst, mixed_error(analytic[0], fd_w),
                    mixed_error(analytic[1], fd_b))
    return CheckReport("meta gradient (fused) vs finite differences",
                       worst, tolerance, n_seeds)


def check_route_equivalence(n_seeds: int = 20, tolerance: float = 1e-6,
                            inner_lr: float = 1.0, *,
                            corrupt: bool = False) -> CheckReport:
    """Fused forward-mode gradient vs the unrolled engine gradient; absolute
    comparison. `corrupt` deliberately skews the fused route (negative
    control for the reporting pipeline)."""
    worst = 0.0
    for seed in range(n_seeds):
        theta, labeler, x, v, mx, my = _tiny_problem(seed)
        unrolled = _unrolled_phi_grad(labeler, theta, x, v, mx, my, inner_lr)
        fused = _fused_phi_grad(labeler, theta, x, v, mx, my, inner_lr)
        if corrupt:
            fused = [a + 1e-3 for a in fused]
        for a, b in zip(unrolled, fused):
            worst = max(worst, mixed_error(b, a, small=np.inf))
    return CheckReport("meta gradient route equivalence (absolute)", worst,
                       tolerance, n_seeds)


def run_all(trials: int = 100, seed: int = 0, tolerance: float = 1e-4, *,
            corrupt_route: bool = False) -> list[CheckReport]:
    reports = check_loss_gradients(trials=trials, seed=seed, tolerance=tolerance)
    reports.append(check_double_gradient(trials=max(5, trials // 5), seed=seed,
                                         tolerance=1e-5))
    reports.append(check_meta_gradient(n_seeds=20, tolerance=tolerance))
    reports.append(check_route_equivalence(n_seeds=20, tolerance=1e-6,
                                           corrupt=corrupt_route))
    return reports
