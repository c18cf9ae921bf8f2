"""Recurrent sequence policy: token embedding, one LSTM cell, projection head.

The model also owns the learned log-partition scalar `log_z`, which is a
free parameter and is never derived from the network outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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

    Parameters (all float64 tensors):
      embed  (vocab_size + 1, embed_dim)   last row is the start sentinel
      w_x    (embed_dim, 4 * hidden_dim)
      w_h    (hidden_dim, 4 * hidden_dim)
      b      (4 * hidden_dim,)
      w_out  (hidden_dim, vocab_size)
      b_out  (vocab_size,)
      log_z  ()
    """

    PARAM_NAMES = ("embed", "w_x", "w_h", "b", "w_out", "b_out", "log_z")

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        expected = self._expected_shapes(config)
        if set(params) != set(self.PARAM_NAMES):
            raise ConfigurationError(f"parameter names {sorted(params)} != {sorted(self.PARAM_NAMES)}")
        for name, shape in expected.items():
            if params[name].data.shape != shape:
                raise ConfigurationError(
                    f"parameter {name!r} has shape {params[name].data.shape}, expected {shape}")
            if not np.all(np.isfinite(params[name].data)):
                raise ConfigurationError(f"parameter {name!r} contains non-finite values")
        self._params = params

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
        params: dict[str, Tensor] = {}
        for name in ("embed", "w_x", "w_h", "b", "w_out", "b_out"):
            params[name] = Tensor(rng.uniform(-bound, bound, size=shapes[name]), requires_grad=True)
        h = config.hidden_dim
        params["b"].data[h:2 * h] += 1.0
        params["log_z"] = Tensor(np.float64(0.0), requires_grad=True)
        return cls(config, params)

    @classmethod
    def zero_init(cls, config: ModelConfig) -> "FlowModel":
        shapes = cls._expected_shapes(config)
        params = {name: Tensor(np.zeros(shape), requires_grad=True) for name, shape in shapes.items()}
        return cls(config, params)

    # -- accessors ---------------------------------------------------------
    def parameters(self) -> dict[str, Tensor]:
        return self._params

    @property
    def log_z(self) -> Tensor:
        return self._params["log_z"]

    @property
    def log_z_value(self) -> float:
        return float(self._params["log_z"].data)

    @property
    def start_token(self) -> int:
        return self.config.vocab_size

    # -- forward -----------------------------------------------------------
    def step(self, tokens, state=None) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """One recurrent step over a batch of tokens.

        `tokens` are vocabulary indices or the start sentinel; `state` is the
        (h, c) pair from the previous step, or None at sequence start.
        Returns next-token logits (batch, vocab_size) and the new state.
        """
        tokens = np.atleast_1d(np.asarray(tokens, dtype=np.intp))
        if tokens.min() < 0 or tokens.max() > self.config.vocab_size:
            raise ConfigurationError(
                f"token index out of range [0, {self.config.vocab_size}]: {tokens.min()}..{tokens.max()}")
        batch = tokens.shape[0]
        hdim = self.config.hidden_dim
        if state is None:
            state = (Tensor(np.zeros((batch, hdim))), Tensor(np.zeros((batch, hdim))))
        h, c = state
        if h.data.shape != (batch, hdim) or c.data.shape != (batch, hdim):
            raise ConfigurationError(
                f"recurrent state shape {h.data.shape}/{c.data.shape} does not match (batch={batch}, hidden={hdim})")

        p = self._params
        x = ad.take_rows(p["embed"], tokens)
        z = ad.matmul(x, p["w_x"]) + ad.matmul(h, p["w_h"]) + p["b"]
        gi = ad.sigmoid(ad.slice_cols(z, 0, hdim))
        gf = ad.sigmoid(ad.slice_cols(z, hdim, 2 * hdim))
        gc = ad.tanh(ad.slice_cols(z, 2 * hdim, 3 * hdim))
        go = ad.sigmoid(ad.slice_cols(z, 3 * hdim, 4 * hdim))
        c_new = gf * c + gi * gc
        h_new = go * ad.tanh(c_new)
        logits = ad.matmul(h_new, p["w_out"]) + p["b_out"]
        return logits, (h_new, c_new)
