"""Finite-difference oracles for every analytic gradient path.

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

from .engine import Tensor, grad, mul, softmax, sum_all
from .meta import SoftLabeler, meta_gradient, meta_loss, virtual_update
from .nn import cce_loss, entropy_loss, init_mlp, kl_loss, one_hot

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
    error where it is below `small`."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    big = np.abs(analytic) >= small
    worst = 0.0
    if big.any():
        denom = np.maximum(np.abs(reference[big]), small)
        worst = float((np.abs(analytic - reference)[big] / denom).max())
    if (~big).any():
        worst = max(worst, float(np.abs(analytic - reference)[~big].max()))
    return worst


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
    labeler = SoftLabeler(Tensor(rng.normal(size=(t["n_features"], t["classes"])) * 0.5),
                          Tensor(rng.normal(size=(1, t["classes"])) * 0.1))
    x = rng.normal(size=(t["batch"], t["dims"]))
    v = rng.normal(size=(t["batch"], t["n_features"]))
    mx = rng.normal(size=(t["batch"], t["dims"]))
    my = one_hot(rng.integers(0, t["classes"], t["batch"]), t["classes"])
    return theta, labeler, x, v, mx, my


def _unrolled_phi_grad(labeler, theta, x, v, mx, my, inner_lr):
    y_hat = labeler.soft_labels(v)
    theta_hat, _, _ = virtual_update(theta, x, y_hat, inner_lr)
    return [g.value for g in grad(meta_loss(theta_hat, mx, my), labeler.params())]


def _fused_phi_grad(labeler, theta, x, v, mx, my, inner_lr):
    return meta_gradient(labeler, theta, x, v, mx, my, inner_lr=inner_lr)[0]


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
            lab = SoftLabeler(Tensor(wv), Tensor(bv))
            y_hat = lab.soft_labels(v)
            theta_hat, _, _ = virtual_update(theta, x, y_hat, inner_lr)
            return meta_loss(theta_hat, mx, my).item()

        w0, b0 = labeler.weight.value, labeler.bias.value
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
            worst = max(worst, float(np.abs(a - b).max()))
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
