"""Recurrent sequence policy: token embedding, one LSTM cell, projection head.

The model also owns the learned log-partition scalar `log_z`, which is a
free parameter and is never derived from the network outputs. Parameters
are plain float64 arrays, updated in place; `balance_grad` is the one
backward pass, written out by hand through time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 256

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"ModelConfig.{name} must be >= 1")


# Fused gate layout along the last axis of w_x / w_h / b, each hidden_dim wide.
GATE_ORDER = ("input", "forget", "cell", "output")


class FlowModel:
    """LSTM policy over tokens plus the log-partition parameter.

    Parameters (all float64 arrays):
      embed  (vocab_size + 1, embed_dim)   last row is the start sentinel
      w_x    (embed_dim, 4 * hidden_dim)
      w_h    (hidden_dim, 4 * hidden_dim)
      b      (4 * hidden_dim,)
      w_out  (hidden_dim, vocab_size)
      b_out  (vocab_size,)
      log_z  ()
    """

    PARAM_NAMES = ("embed", "w_x", "w_h", "b", "w_out", "b_out", "log_z")

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        expected = self._expected_shapes(config)
        if set(params) != set(self.PARAM_NAMES):
            raise ConfigurationError(f"parameter names {sorted(params)} != {sorted(self.PARAM_NAMES)}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ConfigurationError(
                    f"parameter {name!r} has shape {params[name].shape}, expected {shape}")
            if not np.all(np.isfinite(params[name])):
                raise ConfigurationError(f"parameter {name!r} contains non-finite values")
        self._params = params
        # gradient buffers, and scratch for one weight-sized product, reused by every update
        self._grads = {name: np.zeros_like(p) for name, p in params.items()}
        self._work = np.empty(max(p.size for p in params.values()))

    @staticmethod
    def _expected_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
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
        shapes = cls._expected_shapes(config)
        params = {name: rng.uniform(-bound, bound, size=shapes[name])
                  for name in ("embed", "w_x", "w_h", "b", "w_out", "b_out")}
        h = config.hidden_dim
        params["b"][h:2 * h] += 1.0
        params["log_z"] = np.zeros(())
        return cls(config, params)

    @classmethod
    def zero_init(cls, config: ModelConfig) -> "FlowModel":
        shapes = cls._expected_shapes(config)
        return cls(config, {name: np.zeros(shape) for name, shape in shapes.items()})

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
    def step(self, tokens, state=None, cache: list | None = None):
        """One recurrent step over a batch of tokens.

        `tokens` are vocabulary indices or the start sentinel; `state` is the
        (h, c) pair from the previous step, or None at sequence start.
        Returns next-token logits (batch, vocab_size) and the new state.
        With a `cache` list, the step appends a record of the forward values
        that `balance_grad` reads.
        """
        tokens = np.atleast_1d(np.asarray(tokens, dtype=np.intp))
        if tokens.min() < 0 or tokens.max() > self.config.vocab_size:
            raise ConfigurationError(
                f"token index out of range [0, {self.config.vocab_size}]: {tokens.min()}..{tokens.max()}")
        if state is not None:
            h, c = state
            expected = (tokens.shape[0], self.config.hidden_dim)
            if h.shape != expected or c.shape != expected:
                raise ConfigurationError(
                    f"recurrent state shape {h.shape}/{c.shape} does not match "
                    f"(batch={expected[0]}, hidden={expected[1]})")

        p = self._params
        x = p["embed"][tokens]
        h_new, c_new, gates, tanh_c = ad.lstm_cell(x, state, p["w_x"], p["w_h"], p["b"])
        logits = h_new @ p["w_out"] + p["b_out"]
        if cache is not None:
            cache.append({"tokens": tokens, "x": x, "state": state, "gates": gates,
                          "tanh_c": tanh_c, "h": h_new})
        return logits, (h_new, c_new)

    # -- backward ----------------------------------------------------------
    def balance_grad(self, cache: list[dict], d_residual: np.ndarray) -> dict[str, np.ndarray]:
        """Gradient of sum_i d_residual[i] * residual_i for the episodes in `cache`.

        The residual is log_z + the episode's summed log-probs - log reward,
        and `cache` holds the per-slot records of the rollout that drew the
        episodes, one state row per episode: each is the record `step`
        appended, to which `rollout` added the slot's log-probs, mask and
        picked actions. The gradients go into buffers the model keeps
        across updates, which are returned by name.

        Contributions are summed in a fixed order: log_z takes one sum; the
        head (b_out, w_out) takes the slots first to last; then, back through
        time from the last slot, the cell's w_x, b, w_h and embed. The first
        contribution to a buffer overwrites it and the rest are added in
        place. w_h gets none at the first slot, which starts from the zero
        state, so a one-slot topology leaves its gradient exactly zero.
        """
        p, grads = self._params, self._grads
        hid = self.config.hidden_dim
        episodes = np.arange(d_residual.shape[0])
        np.copyto(grads["log_z"], d_residual.sum())
        if len(cache) == 1:  # no slot carries a state into the cell
            grads["w_h"].fill(0.0)
        dh_head = []
        for t, rec in enumerate(cache):
            d_log_probs = np.zeros_like(rec["log_probs"])
            d_log_probs[episodes, rec["actions"]] += d_residual
            d_logits = ad.masked_log_softmax_vjp(rec["log_probs"], rec["mask"], d_log_probs)
            self._add_grad("b_out", t == 0, d_logits.sum(axis=0))
            self._add_grad("w_out", t == 0, rec["h"].T, d_logits)
            dh_head.append(d_logits @ p["w_out"].T)
        dh_carried = dc = None
        for t in reversed(range(len(cache))):
            rec, last = cache[t], t == len(cache) - 1
            dh = dh_head[t] if dh_carried is None else dh_head[t] + dh_carried
            h_prev, c_prev = (None, None) if rec["state"] is None else rec["state"]
            dz, dc = ad.lstm_cell_vjp(rec["gates"], rec["tanh_c"], c_prev, dh, dc)
            dx = dz @ p["w_x"].T
            self._add_grad("w_x", last, rec["x"].T, dz)
            self._add_grad("b", last, dz.sum(axis=0))
            if c_prev is not None:
                dh_carried = dz @ p["w_h"].T
                dc = dc * rec["gates"][:, hid:2 * hid]
                self._add_grad("w_h", last, h_prev.T, dz)
            # row scatter into a zeroed array, added to the sum as a whole
            scatter = grads["embed"] if last else self._scratch("embed")
            scatter.fill(0.0)
            np.add.at(scatter, rec["tokens"], dx)
            if not last:
                np.add(grads["embed"], scatter, out=grads["embed"])
        return grads

    def _scratch(self, name: str) -> np.ndarray:
        shape = self._grads[name].shape
        return self._work[:self._grads[name].size].reshape(shape)

    def _add_grad(self, name: str, first: bool, a: np.ndarray, b: np.ndarray | None = None) -> None:
        """Add `a`, or the product a @ b, to `name`'s gradient; the first contribution overwrites it."""
        grad = self._grads[name]
        if b is not None:
            a = np.matmul(a, b, out=grad if first else self._scratch(name))
        if first:
            if a is not grad:
                np.copyto(grad, a)
        else:
            np.add(grad, a, out=grad)
