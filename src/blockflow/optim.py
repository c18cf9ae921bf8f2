"""Adam with bias correction and per-parameter learning rates, over flat buffers."""

from __future__ import annotations

import math

import numpy as np

from .errors import BlockflowError, ValidationError
from .model import named_views


def adam_update(value, grad, m, v, step, lr, beta1, beta2, eps, work) -> None:
    """One Adam step, in place on the float64 ndarrays value, m and v.

    `step` is 1-based and eps sits outside the square root. `work` is a pair
    of arrays of value's shape that the step overwrites. The operations keep
    the order of the textbook recurrence

        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        value = value - lr * m_hat / (sqrt(v_hat) + eps)

    so the result is bit-identical to evaluating it out of place.
    """
    t1, t2 = work
    np.multiply(grad, 1.0 - beta1, out=t1)
    np.multiply(m, beta1, out=m)
    np.add(m, t1, out=m)
    np.multiply(grad, 1.0 - beta2, out=t1)
    np.multiply(t1, grad, out=t1)
    np.multiply(v, beta2, out=v)
    np.add(v, t1, out=v)
    np.divide(v, 1.0 - beta2 ** step, out=t1)
    np.sqrt(t1, out=t1)
    np.add(t1, eps, out=t1)
    np.divide(m, 1.0 - beta1 ** step, out=t2)
    np.multiply(t2, lr, out=t2)
    np.divide(t2, t1, out=t2)
    np.subtract(value, t2, out=value)


# elements per adam_update call. Adam is elementwise, so blocks give the bytes
# of one call per parameter, and a block's four operands and two work rows
# (768 KB) stay in cache across the update's fourteen passes
_BLOCK = 1 << 14


class Adam:
    """Adam over the named arrays `params`, updated in one flat buffer.

    `step` takes the parameters and their gradient as flat buffers laid out
    by `model.named_views`, the layout of `m` and `v` too. `lr_overrides`
    maps parameter names to their own rate; the log-partition scalar usually
    trains on a separate rate from the network. The betas and eps are
    fixed.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 lr_overrides: dict[str, float] | None = None):
        if not (0 < lr < math.inf):  # NaN fails this test too
            raise ValidationError(f"learning rate must be finite and positive, got {lr!r}")
        lr_overrides = dict(lr_overrides or {})
        for name, rate in lr_overrides.items():
            if name not in params:
                raise ValidationError(f"lr override for unknown parameter {name!r}")
            if not (0 < rate < math.inf):
                raise ValidationError(
                    f"lr override for {name!r} must be finite and positive, got {rate!r}")
        self.lr = {name: lr_overrides.get(name, lr) for name in params}
        self.step_count = 0
        self._sizes = {name: (p.size,) for name, p in params.items()}  # each one as a 1-D piece
        self.m = np.zeros(sum(p.size for p in params.values()))
        self.v = np.zeros_like(self.m)
        self._work = np.empty((2, _BLOCK))

    def step(self, value: np.ndarray, grad: np.ndarray) -> None:
        """Update the flat parameters `value` in place from the flat gradient `grad`.

        The gradient is checked before anything changes, so a non-finite one
        leaves the parameters, moments and step count as they were.
        """
        for name, finite in named_views(np.isfinite(grad), self._sizes).items():
            if not finite.all():
                raise BlockflowError(f"non-finite gradient in parameter {name!r}")
        self.step_count += 1
        spans = [named_views(a, self._sizes) for a in (value, grad, self.m, self.v)]
        for name, rate in self.lr.items():
            for lo in range(0, self._sizes[name][0], _BLOCK):
                block = [span[name][lo:lo + _BLOCK] for span in spans]
                adam_update(*block, self.step_count, rate, self.BETA1, self.BETA2,
                            self.EPS, self._work[:, :block[0].size])
