"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for a recurrent policy net: elementwise arithmetic,
2-D matmul, the usual nonlinearities, reductions, row/column gathers and a
masked log-softmax. Everything is double precision so gradient checks can
use tight tolerances. Not a general-purpose autodiff system.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import AutodiffError, DeadEndError

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (sampling path)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A float64 array plus an optional gradient accumulator.

    Gradients accumulate across backward calls; the optimizer owns resetting
    them. Tensors created by operations carry the backward closure linking
    them to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_backward_ran")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._backward_ran = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _build(data: np.ndarray, links: Sequence[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]) -> Tensor:
    """Create the output tensor, wiring backward closures for tracked parents."""
    tracked = _grad_enabled and any(p.requires_grad for p, _ in links)
    out = Tensor(data, requires_grad=tracked)
    if not tracked:
        return out
    live = tuple((p, vjp) for p, vjp in links if p.requires_grad)
    out._parents = tuple(p for p, _ in live)

    def _bw(g: np.ndarray) -> None:
        for parent, vjp in live:
            contrib = vjp(g)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# elementwise and linear ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _build(a.data + b.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ])


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _build(a.data - b.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(-g, b.data.shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _build(a.data * b.data, [
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    ])


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise AutodiffError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    return _build(a.data @ b.data, [
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    ])


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _build(out_data, [(a, lambda g: g * out_data)])


def log(a) -> Tensor:
    a = as_tensor(a)
    return _build(np.log(a.data), [(a, lambda g: g / a.data)])


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    return _build(out_data, [(a, lambda g: g * (1.0 - out_data * out_data))])


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # numerically symmetric form, exact at 0
    out_data = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    return _build(out_data, [(a, lambda g: g * out_data * (1.0 - out_data))])


def tsum(a) -> Tensor:
    a = as_tensor(a)
    return _build(np.asarray(a.data.sum()), [(a, lambda g: np.broadcast_to(g, a.data.shape).copy())])


def tmean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return _build(np.asarray(a.data.mean()), [(a, lambda g: np.broadcast_to(g / n, a.data.shape).copy())])


# ---------------------------------------------------------------------------
# structural ops


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return full

    return _build(a.data[..., start:stop].copy(), [(a, vjp)])


def take_rows(table: Tensor, index) -> Tensor:
    """Row gather: out[b] = table[index[b]] (embedding lookup)."""
    table = as_tensor(table)
    index = np.asarray(index, dtype=np.intp)

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, index, g)
        return full

    return _build(table.data[index], [(table, vjp)])


def take_per_row(a: Tensor, index) -> Tensor:
    """Per-row column gather: out[b] = a[b, index[b]]."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.intp)
    rows = np.arange(a.data.shape[0])

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, index), g)
        return full

    return _build(a.data[rows, index].copy(), [(a, vjp)])


def masked_log_softmax(logits, mask) -> Tensor:
    """Log-softmax normalized over the unmasked entries only.

    Masked entries are excluded from the normalization sum (not pushed down
    with a large negative offset), so their probability is exactly zero and
    the output carries -inf there. `mask` broadcasts against `logits` along
    leading axes.
    """
    logits = as_tensor(logits)
    mask_arr = np.broadcast_to(np.asarray(mask, dtype=bool), logits.data.shape)
    if not mask_arr.any(axis=-1).all():
        raise DeadEndError("masked_log_softmax: a row has no unmasked entry")
    z = logits.data
    zmax = np.max(np.where(mask_arr, z, -np.inf), axis=-1, keepdims=True)
    expz = np.where(mask_arr, np.exp(z - zmax), 0.0)
    lse = np.log(expz.sum(axis=-1, keepdims=True)) + zmax
    out_data = np.where(mask_arr, z - lse, -np.inf)

    def vjp(g):
        g_valid = np.where(mask_arr, g, 0.0)
        probs = np.where(mask_arr, np.exp(out_data, where=mask_arr, out=np.zeros_like(z)), 0.0)
        return g_valid - probs * g_valid.sum(axis=-1, keepdims=True)

    return _build(out_data, [(logits, vjp)])


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Populate gradients of every tracked tensor reachable from `loss`.

    Gradients accumulate into `.grad`; calling backward twice on the same
    loss without rebuilding the graph is an error.
    """
    if not isinstance(loss, Tensor):
        raise AutodiffError("backward expects a Tensor")
    if loss.data.size != 1:
        raise AutodiffError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if loss._backward_ran:
        raise AutodiffError("backward already ran on this loss; rebuild the graph before calling again")
    if not loss.requires_grad:
        raise AutodiffError("loss does not depend on any tracked tensor")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    loss._backward_ran = True
