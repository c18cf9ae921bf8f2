"""Forward and backward kernels of the policy net over float64 numpy arrays.

Two kernels, each a plain forward function and its hand-derived VJP: the
fused LSTM cell and the masked log-softmax. `FlowModel.balance_grad` chains
their VJPs back through time; there is no general tape. Everything is
double precision so gradient checks can use tight tolerances.
"""

from __future__ import annotations

import numpy as np

from .errors import BlockflowError


def lstm_cell(x, state, w_x, b):
    """One LSTM step; returns (h_new, c_new, gates, tanh_c).

    The pre-activations z = x @ w_x + h @ w_h + b hold the input, forget,
    cell and output gates side by side, each `hidden` wide:
    i, f, o = sigmoid(z_i, z_f, z_o), g = tanh(z_g), c_new = f * c + i * g
    and h_new = o * tanh(c_new). `state` is the previous h's product h @ w_h
    and the previous c, or None for the zero state, where both terms are
    skipped; the caller takes the product, so rows that share a previous h
    can share it. `gates` holds i, f, g and o side by side and `tanh_c` is
    tanh(c_new): the forward values `lstm_cell_vjp` reads.
    """
    hid = w_x.shape[1] // 4
    z = x @ w_x
    if state is not None:
        h_w, c = state
        z += h_w
    z += b
    # activations in place; sigmoid(a) = 0.5 * (tanh(0.5 * a) + 1), exact at 0
    for gates in (z[:, :2 * hid], z[:, 3 * hid:]):
        gates *= 0.5
        np.tanh(gates, out=gates)
        gates += 1.0
        gates *= 0.5
    np.tanh(z[:, 2 * hid:3 * hid], out=z[:, 2 * hid:3 * hid])
    i, f, g, o = (z[:, k * hid:(k + 1) * hid] for k in range(4))
    c_new = i * g
    if state is not None:
        c_new += f * c
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, z, tanh_c


def lstm_cell_vjp(gates, tanh_c, c_prev, dh, dc, dz):
    """Backward of `lstm_cell`: writes the pre-activation gradient into `dz`,
    an array shaped like `gates`, and returns the total dc.

    `dh` and `dc` are the gradients reaching h_new and c_new; `dc` is None
    when nothing downstream reads c_new. `c_prev` is the previous cell state,
    or None for the zero state, whose forget-gate gradient is zero. The
    caller chains dz into x, w_x, b (and h, w_h) and dc * f into c_prev.
    The operation order is that of the elementwise chain rule, so the
    gradients are bit-identical to the same cell built from separate ops.
    """
    hid = tanh_c.shape[1]
    i, f, g, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
    di, df, dg, do = (dz[:, k * hid:(k + 1) * hid] for k in range(4))
    np.multiply(dh, tanh_c, out=do)
    do *= o
    do *= 1.0 - o
    dc_h = dh * o
    dc_h *= 1.0 - tanh_c * tanh_c
    dc = dc_h if dc is None else dc + dc_h
    np.multiply(dc, g, out=di)
    di *= i
    di *= 1.0 - i
    np.multiply(dc, i, out=dg)
    dg *= 1.0 - g * g
    if c_prev is None:
        df.fill(0.0)
    else:
        np.multiply(dc, c_prev, out=df)
        df *= f
        df *= 1.0 - f
    return dc


def masked_log_softmax(logits, mask):
    """Log-softmax normalized over the unmasked entries only.

    Masked entries are excluded from the normalization sum (not pushed down
    with a large negative offset), so their probability is exactly zero and
    the output carries -inf there. `mask` broadcasts against `logits` along
    leading axes.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
    if not mask.any(axis=-1).all():
        raise BlockflowError("masked_log_softmax: a row has no unmasked entry")
    zmax = np.max(np.where(mask, logits, -np.inf), axis=-1, keepdims=True)
    expz = np.where(mask, np.exp(logits - zmax), 0.0)
    lse = np.log(expz.sum(axis=-1, keepdims=True)) + zmax
    return np.where(mask, logits - lse, -np.inf)


def masked_log_softmax_vjp(out, mask, g):
    """Backward of `masked_log_softmax` from its output `out`: the logits' gradient.

    Masked entries neither pass nor receive gradient.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), out.shape)
    g_valid = np.where(mask, g, 0.0)
    probs = np.where(mask, np.exp(out, where=mask, out=np.zeros_like(out)), 0.0)
    return g_valid - probs * g_valid.sum(axis=-1, keepdims=True)
