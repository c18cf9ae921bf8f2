"""Recurrent sequence policy: token embedding, one LSTM cell, projection head.

The model also owns the learned log-partition scalar `log_z`, which is a
free parameter and is never derived from the network outputs. Parameters
are named views of one flat float64 buffer, laid out by `named_views`, and
are updated in place; `balance_grad` is the one backward pass, written out
by hand into a second buffer of that layout: one product over all slots per
weight, with only the recurrent gradients carried back through time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ValidationError

# Rows per block of the cell in a step. Measured on a grid
# rollout(8000), 1,000 rows at its last slot: 256-, 128-, 64- and 32-row
# blocks peaked at 10.9, 7.5, 5.7 and 4.9 MiB traced, and 32-row blocks ran
# as fast as any; a block's gate pre-activations, and its rows of the
# parents' h @ w_h, are then 32 x 1,024 x 8 B = 256 KB each at hidden 256.
_ROWS = 32
# Rows per head group of a `last` step without a cache: a split group keeps >= 256
# rows, past the ~200 from which OpenBLAS's SkylakeX head rounds like one over all rows.
_HEAD_ROWS = 512


def _spans(lo: int, hi: int, most: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into the fewest balanced spans of at most `most` rows."""
    k = -(-(hi - lo) // most)
    return [(lo + i * (hi - lo) // k, lo + (i + 1) * (hi - lo) // k) for i in range(k)]


def named_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views of consecutive pieces of the 1-D `flat`, one of each shape in `shapes`.

    The pieces lie in sorted-name order, the order of a checkpoint body; the
    dict keeps the key order of `shapes`.
    """
    views, lo = {}, 0
    for name in sorted(shapes):
        size = math.prod(shapes[name])
        views[name] = flat[lo:lo + size].reshape(shapes[name])
        lo += size
    return {name: views[name] for name in shapes}


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 256

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"ModelConfig.{name} must be >= 1")


class FlowModel:
    """LSTM policy over tokens plus the log-partition parameter.

    Parameters, in this order, are views of `flat`, the one buffer that holds them:
      embed  (vocab_size + 1, embed_dim)   last row is the start sentinel
      w_x    (embed_dim, 4 * hidden_dim)
      w_h    (hidden_dim, 4 * hidden_dim)
      b      (4 * hidden_dim,)
      w_out  (hidden_dim, vocab_size)
      b_out  (vocab_size,)
      log_z  ()
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        """The model whose parameters are views of `flat`, which it adopts, not copies."""
        self.config = config
        shapes = self.param_shapes(config)
        size = sum(math.prod(shape) for shape in shapes.values())
        if flat.dtype != np.float64 or flat.shape != (size,) or not flat.flags.c_contiguous:
            raise ValidationError(
                f"parameters must be one contiguous float64 buffer of shape ({size},), "
                f"got {flat.dtype} {flat.shape}")
        self.flat = flat
        self._params = named_views(flat, shapes)
        for name, view in self._params.items():
            if not np.isfinite(view).all():
                raise ValidationError(f"parameter {name!r} contains non-finite values")
        self.grad = None  # made by the first balance_grad, reused by every later one

    @staticmethod
    def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape under `config`."""
        v, e, h = config.vocab_size, config.embed_dim, config.hidden_dim
        return {
            "embed": (v + 1, e),
            "w_x": (e, 4 * h),
            "w_h": (h, 4 * h),
            "b": (4 * h,),
            "w_out": (h, v),
            "b_out": (v,),
            "log_z": (),
        }

    # -- constructors ----------------------------------------------------
    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "FlowModel":
        """Uniform init in [-1/sqrt(hidden), +1/sqrt(hidden)], forget bias +1."""
        rng = np.random.Generator(np.random.PCG64(seed))
        bound = 1.0 / np.sqrt(config.hidden_dim)
        shapes = cls.param_shapes(config)
        flat = np.empty(sum(math.prod(shape) for shape in shapes.values()))
        params = named_views(flat, shapes)
        for name in ("embed", "w_x", "w_h", "b", "w_out", "b_out"):
            params[name][...] = rng.uniform(-bound, bound, size=shapes[name])
        h = config.hidden_dim
        params["b"][h:2 * h] += 1.0
        params["log_z"][...] = 0.0
        return cls(config, flat)

    # -- accessors ---------------------------------------------------------
    def parameters(self) -> dict[str, np.ndarray]:
        return self._params

    @property
    def log_z_value(self) -> float:
        return float(self._params["log_z"])

    @property
    def start_token(self) -> int:
        return self.config.vocab_size

    # -- forward -----------------------------------------------------------
    def step(self, tokens, state=None, cache: list | None = None, *, parents=None, last=False):
        """One recurrent step over a batch of tokens.

        `tokens` are vocabulary indices or the start sentinel; `state` is the
        (h, c) pair from the previous step, or None at sequence start, and
        `parents` maps each token to its row of `state` (None: its own row).
        Returns next-token logits (batch, vocab_size) and the new state; a
        `last` step builds no c and returns None for it: nothing steps from it.
        The parents' h @ w_h is taken once over all of `state`; the cell runs
        over the fewest balanced blocks of at most `_ROWS` rows, each gathering
        its rows of that product and of c, and the head over all rows at once,
        or in a `last` step without a cache over each group of `_HEAD_ROWS` rows
        at most once its h is built. The values are those of one cell over all
        rows up to how BLAS rounds a 1-row product (one parent, or the narrow
        head at small row counts) on some kernels. With a `cache` list, the step
        appends the record that `balance_grad` reads: the tokens, the given
        state, the new h, and the gates and tanh(c) of all blocks.
        """
        tokens = np.atleast_1d(np.asarray(tokens, dtype=np.intp))
        if tokens.min() < 0 or tokens.max() > self.config.vocab_size:
            raise ValidationError(
                f"token index out of range [0, {self.config.vocab_size}]: {tokens.min()}..{tokens.max()}")
        if state is not None:
            h, c = state
            expected = (tokens.shape[0] if parents is None else h.shape[0], self.config.hidden_dim)
            if h.shape != expected or c.shape != expected:
                raise ValidationError(
                    f"recurrent state shape {h.shape}/{c.shape} does not match "
                    f"(batch={expected[0]}, hidden={expected[1]})")

        p, m, hid = self._params, tokens.shape[0], self.config.hidden_dim
        h_w = None if state is None else state[0] @ p["w_h"]
        groups = _spans(0, m, _HEAD_ROWS if last and cache is None else m)
        h_new, c_new = np.empty((-(-m // len(groups)), hid)), None if last else np.empty((m, hid))
        logits = np.empty((m, self.config.vocab_size))
        if cache is not None:
            gates, tanh_c = np.empty((m, 4 * hid)), np.empty((m, hid))
            cache.append(dict(tokens=tokens, state=state, gates=gates, tanh_c=tanh_c, h=h_new))
        for g_lo, g_hi in groups:  # h_new holds one group's rows of h at a time
            for lo, hi in _spans(g_lo, g_hi, _ROWS):
                rows = slice(lo, hi) if parents is None else parents[lo:hi]
                h_new[lo - g_lo:hi - g_lo], c, block_gates, block_tanh_c = ad.lstm_cell(
                    p["embed"][tokens[lo:hi]],
                    None if state is None else (h_w[rows], state[1][rows]), p["w_x"], p["b"])
                if c_new is not None:
                    c_new[lo:hi] = c
                if cache is not None:
                    gates[lo:hi], tanh_c[lo:hi] = block_gates, block_tanh_c
            logits[g_lo:g_hi] = h_new[:g_hi - g_lo] @ p["w_out"] + p["b_out"]
        return logits, None if last else (h_new, c_new)

    # -- backward ----------------------------------------------------------
    def balance_grad(self, cache: list[dict], d_residual: np.ndarray) -> dict[str, np.ndarray]:
        """Gradient of sum_i d_residual[i] * residual_i for the episodes in `cache`.

        The residual is log_z + the episode's summed log-probs - log reward,
        and `cache` holds the per-slot records of the rollout that drew the
        episodes, one state row per episode: each is the record `step`
        appended, to which `rollout` added the slot's log-probs, mask and
        picked actions. The embedding rows a slot read are gathered again
        from its tokens. The gradients go into `grad`, a buffer laid out as
        `flat` that the model keeps across updates; its views are returned.

        Each weight's gradient is one product over the stacked slots; only
        dh, dc and each slot's dz run back through time. The first slot
        starts from the zero state, so w_h's product takes the later slots
        only, and a one-slot topology leaves its gradient exactly zero.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.flat)
        p, grads = self._params, named_views(self.grad, self.param_shapes(self.config))
        n_slots, n = len(cache), d_residual.shape[0]
        hid = self.config.hidden_dim
        np.copyto(grads["log_z"], d_residual.sum())
        # head: all slots at once; each slot's picked log-prob takes its episode's d_residual
        log_probs = np.stack([rec["log_probs"] for rec in cache])
        d_log_probs = np.zeros_like(log_probs)
        actions = np.stack([rec["actions"] for rec in cache])
        d_log_probs[np.arange(n_slots)[:, None], np.arange(n), actions] = d_residual
        masks = np.stack([rec["mask"] for rec in cache])[:, None, :]
        d_logits = ad.masked_log_softmax_vjp(log_probs, masks, d_log_probs).reshape(n_slots * n, -1)
        h = np.concatenate([rec["h"] for rec in cache])
        np.matmul(h.T, d_logits, out=grads["w_out"])
        d_logits.sum(axis=0, out=grads["b_out"])
        dh_head = (d_logits @ p["w_out"].T).reshape(n_slots, n, hid)
        # cell: back through time for the pre-activation gradients
        dz = np.empty((n_slots, n, 4 * hid))
        dh, dc = dh_head[-1], None
        for t in reversed(range(n_slots)):
            rec = cache[t]
            c_prev = None if t == 0 else rec["state"][1]
            dc = ad.lstm_cell_vjp(rec["gates"], rec["tanh_c"], c_prev, dh, dc, dz[t])
            if t > 0:
                dh = dh_head[t - 1] + dz[t] @ p["w_h"].T
                dc = dc * rec["gates"][:, hid:2 * hid]
        dz = dz.reshape(n_slots * n, -1)
        tokens = np.concatenate([rec["tokens"] for rec in cache])
        np.matmul(p["embed"][tokens].T, dz, out=grads["w_x"])
        dz.sum(axis=0, out=grads["b"])
        # slot t's incoming h is slot t - 1's output
        np.matmul(h[:-n].T, dz[n:], out=grads["w_h"])
        grads["embed"].fill(0.0)
        np.add.at(grads["embed"], tokens, dz @ p["w_x"].T)
        return grads
