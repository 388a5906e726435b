"""Reverse-mode autodiff on dense float64 matrices.

Small tape-free engine: every operation returns a `Tensor` that remembers its
inputs and one vector-Jacobian closure per input. Backward passes are built
from the same traced operations, so the output of `grad(..., create_graph=True)`
is itself a differentiable node and gradients can be pushed through gradients
(needed for the one-step unrolled meta update).

Training does not run on the engine: the training steps use the numpy
kernels of `nn`. The engine is the reference they are checked against,
through the reference route in `gradcheck` (the engine forward pass, the
losses and the unrolled meta update).

Only rank-0 scalars and rank-2 matrices exist; vectors are 1xN or Nx1
matrices. All values are float64.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import nn

__all__ = [
    "Tensor",
    "GradError",
    "grad",
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "matmul",
    "transpose",
    "exp",
    "log",
    "relu",
    "clip_min",
    "sum_all",
    "sum_rows",
    "sum_cols",
    "linear",
    "softmax",
    "as_tensor",
]


class GradError(Exception):
    """Raised for invalid differentiation requests (non-scalar output,
    targets not reachable from the output, malformed graphs)."""


class Tensor:
    """A float64 scalar or matrix plus the recorded operation that made it.

    Leaf tensors have no parents. `_vjps[i]` maps the upstream gradient to
    the gradient of parent i; the closures use Tensor operations so the
    backward pass is itself recordable.
    """

    __slots__ = ("value", "_parents", "_vjps")

    def __init__(self, value, _parents=(), _vjps=()):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim not in (0, 2):
            raise ValueError(f"tensors are scalars or matrices, got ndim={v.ndim}")
        self.value = v
        self._parents = _parents
        self._vjps = _vjps

    # -- convenience ------------------------------------------------------

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    # -- operators --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _sum_to_value(v: np.ndarray, shape) -> np.ndarray:
    """Undo numpy broadcasting: reduce `v` back to `shape` by summation."""
    if v.shape == shape:
        return v
    if len(shape) == 0:
        return v.sum()
    out = v
    while out.ndim > len(shape):
        out = out.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and out.shape[ax] != 1:
            out = out.sum(axis=ax, keepdims=True)
    return out


def sum_to(t: Tensor, shape) -> Tensor:
    """Reduce `t` to `shape` by summing broadcast axes (adjoint of broadcast)."""
    t = as_tensor(t)
    if t.shape == tuple(shape):
        return t
    src = t.shape
    return Tensor(_sum_to_value(t.value, tuple(shape)), (t,),
                  (lambda g: broadcast_to(g, src),))


def broadcast_to(t: Tensor, shape) -> Tensor:
    t = as_tensor(t)
    if t.shape == tuple(shape):
        return t
    src = t.shape
    return Tensor(np.broadcast_to(t.value, tuple(shape)).copy(), (t,),
                  (lambda g: sum_to(g, src),))


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return Tensor(a.value + b.value, (a, b),
                  (lambda g: sum_to(g, sa), lambda g: sum_to(g, sb)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return Tensor(a.value - b.value, (a, b),
                  (lambda g: sum_to(g, sa), lambda g: sum_to(neg(g), sb)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.value, (a,), (lambda g: neg(g),))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return Tensor(a.value * b.value, (a, b),
                  (lambda g: sum_to(mul(g, b), sa), lambda g: sum_to(mul(g, a), sb)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return Tensor(a.value / b.value, (a, b),
                  (lambda g: sum_to(div(g, b), sa),
                   lambda g: sum_to(neg(div(mul(g, a), mul(b, b))), sb)))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul needs matrices")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return Tensor(a.value @ b.value, (a, b),
                  (lambda g: matmul(g, transpose(b)),
                   lambda g: matmul(transpose(a), g)))


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.value.ndim != 2:
        raise ValueError("transpose needs a matrix")
    return Tensor(a.value.T.copy(), (a,), (lambda g: transpose(g),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.value), (a,), ())
    out._vjps = (lambda g: mul(g, out),)
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.log(a.value), (a,), (lambda g: div(g, a),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = Tensor((a.value > 0.0).astype(np.float64))
    return Tensor(np.maximum(a.value, 0.0), (a,), (lambda g: mul(g, mask),))


def clip_min(a, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient passes where a >= floor."""
    a = as_tensor(a)
    mask = Tensor((a.value >= floor).astype(np.float64))
    return Tensor(np.maximum(a.value, floor), (a,), (lambda g: mul(g, mask),))


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    return Tensor(a.value.sum(), (a,), (lambda g: broadcast_to(g, shape),))


def sum_rows(a) -> Tensor:
    """Row sums: (N, C) -> (N, 1)."""
    a = as_tensor(a)
    shape = a.shape
    return Tensor(a.value.sum(axis=1, keepdims=True), (a,),
                  (lambda g: broadcast_to(g, shape),))


def sum_cols(a) -> Tensor:
    """Column sums: (N, C) -> (1, C)."""
    a = as_tensor(a)
    shape = a.shape
    return Tensor(a.value.sum(axis=0, keepdims=True), (a,),
                  (lambda g: broadcast_to(g, shape),))


def linear(x, w, b) -> Tensor:
    """Fused affine map x @ w + b with b a 1xC row."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"linear shape mismatch: x {x.shape} vs w {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ValueError(f"linear bias shape {b.shape}, want (1, {w.shape[1]})")
    return Tensor(x.value @ w.value + b.value, (x, w, b),
                  (lambda g: matmul(g, transpose(w)),
                   lambda g: matmul(transpose(x), g),
                   lambda g: sum_cols(g)))


def softmax(logits) -> Tensor:
    """Row-wise softmax, stabilized by subtracting the (constant) row max.

    The shift is exact: softmax is invariant to adding a constant per row,
    so treating the max as non-differentiable changes nothing.
    """
    z = as_tensor(logits)
    if z.value.ndim != 2:
        raise ValueError("softmax needs a matrix of logits")
    out = Tensor(nn.softmax(z.value), (z,), ())
    # vjp: s * (g - rowsum(g * s))
    out._vjps = (lambda g: mul(out, sub(g, sum_rows(mul(g, out)))),)
    return out


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents before children


def grad(output: Tensor, wrt: Sequence[Tensor], *, create_graph: bool = False) -> list[Tensor]:
    """Gradients of a scalar `output` with respect to each tensor in `wrt`.

    The backward pass is recorded like any other computation. With
    create_graph=True the returned gradients carry that graph and can be
    differentiated again; otherwise they are returned as leaves. A target
    that the output does not depend on raises GradError.
    """
    if output.value.ndim != 0:
        raise GradError("grad requires a scalar output")
    wrt = list(wrt)
    order = _toposort(output)

    # Restrict the backward sweep to nodes that lie between wrt and output.
    wrt_ids = {id(w) for w in wrt}
    needed: set[int] = set()
    for node in order:  # parents first
        if id(node) in wrt_ids or any(id(p) in needed for p in node._parents):
            needed.add(id(node))

    grads: dict[int, Tensor] = {id(output): Tensor(1.0)}
    for node in reversed(order):
        nid = id(node)
        if nid not in grads or nid not in needed:
            continue
        g = grads[nid]
        for parent, vjp in zip(node._parents, node._vjps):
            pid = id(parent)
            if pid not in needed:
                continue
            pg = vjp(g)
            if pg.shape != parent.shape:  # pragma: no cover - op bug guard
                raise GradError(
                    f"vjp produced shape {pg.shape} for parent {parent.shape}")
            grads[pid] = pg if pid not in grads else add(grads[pid], pg)

    if any(id(w) not in grads for w in wrt):
        raise GradError("a requested tensor is not reachable from the output")
    return [grads[id(w)] if create_graph else Tensor(grads[id(w)].value) for w in wrt]
