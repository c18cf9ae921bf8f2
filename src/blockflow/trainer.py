"""Training loop for the sequence sampler.

The objective is a squared balance residual per trajectory:

    (log_z + sum of forward log-probs - log floored_reward)^2

averaged over a batch. Construction paths are unique here (slots are filled
in a fixed order), so the backward-policy term that a general balance loss
carries is identically zero and is omitted.

Determinism contract: each episode consumes exactly one uniform draw per
slot from the run's generator, and nothing else touches that generator, so
restoring the serialized RNG state resumes the sample stream bit-exactly.
Parameter updates happen only on full batches.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward, no_grad
from .checkpoint import (load_checkpoint, restore_optimizer, restore_rng,
                         save_checkpoint)
from .env import Environment
from .errors import ConfigurationError, TrainingAbort, ValidationError
from .model import FlowModel
from .optim import Adam
from .reward import RewardModel, loss_reward

METRICS_HEADER = ["episode", "loss", "smoothedLoss", "logZ", "reward", "bestReward"]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate_model: float = 5e-3
    learning_rate_logz: float = 5e-3
    max_episodes: int = 100_000
    batch_size: int = 16
    stop_window: int = 10_000
    stop_threshold: float = 1.8
    smooth_window: int = 1_000
    exploration_epsilon: float = 0.0
    checkpoint_every: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate_model <= 0 or self.learning_rate_logz <= 0:
            raise ConfigurationError("learning rates must be positive")
        for name in ("max_episodes", "batch_size", "stop_window", "smooth_window"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"TrainConfig.{name} must be >= 1")
        if self.stop_threshold < 0:
            raise ConfigurationError("stop threshold must be non-negative")
        if not (0.0 <= self.exploration_epsilon <= 1.0):
            raise ConfigurationError("exploration epsilon must be in [0, 1]")
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0 (0 disables)")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


def rollout(policy, env: Environment, rng: np.random.Generator, n: int,
            epsilon: float = 0.0) -> tuple[np.ndarray, Tensor]:
    """Sample n episodes together, one batched policy step per slot.

    All n * n_slots uniform draws are taken up front in episode-major order,
    the same stream as n episodes of one draw per slot. With epsilon > 0 the
    behavior policy is mixed with uniform over the slot's valid tokens; the
    returned log-probs are always the pure policy's.

    Returns the (n, n_slots) actions and each episode's summed log-prob as a
    Tensor, which records the graph back to the parameters when grad is on.
    """
    if n < 1:
        raise ConfigurationError("rollout size must be >= 1")
    if not (0.0 <= epsilon <= 1.0):
        raise ConfigurationError("exploration epsilon must be in [0, 1]")
    u = rng.random((n, env.n_slots))
    actions = np.empty((n, env.n_slots), dtype=np.intp)
    tokens = np.full(n, policy.start_token, dtype=np.intp)
    state = None
    log_prob_sum = None
    for t in range(env.n_slots):
        logits, state = policy.step(tokens, state)
        tokens, log_prob = _draw_slot(logits, env.slot_masks[t], u[:, t], epsilon)
        actions[:, t] = tokens
        log_prob_sum = log_prob if log_prob_sum is None else log_prob_sum + log_prob
    return actions, log_prob_sum


def _draw_slot(logits: Tensor, mask: np.ndarray, u: np.ndarray,
               epsilon: float) -> tuple[np.ndarray, Tensor]:
    """Pick one valid token per row by inverse cdf; return it and its log-prob.

    A function of its own so that the slot's temporaries are freed before
    the next policy step allocates its large arrays. Kept alive across that
    step, they fragmented the heap: under glibc malloc the peak RSS of an
    8,000-draw grid sample rose from 332 to 395 MB.
    """
    valid = np.flatnonzero(mask)
    if np.isneginf(logits.data[:, valid]).any():
        raise ValidationError("policy gives a valid token zero probability; "
                              "was it built for another environment?")
    log_probs = ad.masked_log_softmax(logits, mask)
    probs = np.exp(log_probs.data[:, valid])
    if epsilon > 0.0:
        probs = (1.0 - epsilon) * probs + epsilon / valid.shape[0]
    cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    # per row: searchsorted(cdf, u, side="right"), clamped to the last valid token
    tokens = valid[np.minimum((u[:, None] >= cdf).sum(axis=1), valid.shape[0] - 1)]
    return tokens, ad.take_per_row(log_probs, tokens)


def uniform_rollout(env: Environment, n: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Draw n sequences uniformly over each slot's valid tokens."""
    if n < 1:
        raise ConfigurationError("rollout size must be >= 1")
    sequences = np.empty((n, env.n_slots), dtype=np.intp)
    for t in range(env.n_slots):
        valid = np.flatnonzero(env.slot_masks[t])
        sequences[:, t] = valid[rng.integers(0, valid.shape[0], size=n)]
    return [tuple(int(x) for x in row) for row in sequences]


@dataclass
class TrainResult:
    episodes_run: int
    stopped_early: bool
    best_reward: float
    best_record: str | None
    log_z: float
    final_loss_mean: float | None
    metrics_path: Path | None
    checkpoint_path: Path | None


def _format_row(episode: int, loss: float, smoothed: float | None,
                log_z: float, rwd: float, best: float) -> list[str]:
    return [
        str(episode),
        repr(float(loss)),
        "" if smoothed is None else repr(float(smoothed)),
        repr(float(log_z)),
        repr(float(rwd)),
        repr(float(best)),
    ]


def _window_mean(tail: deque, window: int) -> float | None:
    """Mean of the last `window` losses, or None until that many are logged."""
    if len(tail) < window:
        return None
    return float(np.mean(list(tail)[-window:]))


def _trim_metrics(path: Path, last_episode: int) -> None:
    """Drop metric rows past a checkpoint so a resumed run appends cleanly.

    A crash can cut the file at any byte, so a last line without its line
    terminator and any row without all the columns are dropped as well.
    """
    if not path.exists():
        return
    with open(path, newline="") as fh:
        complete_lines = fh.read().split("\n")[:-1]
    rows = list(csv.reader(complete_lines))
    kept = rows[:1] + [r for r in rows[1:]
                       if len(r) == len(METRICS_HEADER) and int(r[0]) <= last_episode]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(kept)


# Train-config fields a resumed run may change without breaking exactness.
RESUMABLE_FIELDS = ("max_episodes", "checkpoint_every")


def _check_resume_config(echo: dict, config: TrainConfig) -> None:
    saved = echo.get("train")
    if not isinstance(saved, dict):
        raise ValidationError("checkpoint carries no training config to resume against")
    current = asdict(config)
    drift = sorted(key for key in saved.keys() | current.keys()
                   if key not in RESUMABLE_FIELDS and saved.get(key) != current.get(key))
    if drift:
        detail = ", ".join(f"{key} {saved.get(key)!r} -> {current.get(key)!r}" for key in drift)
        raise ValidationError(
            f"resumed training config differs from the checkpoint's ({detail}); "
            f"only {' and '.join(RESUMABLE_FIELDS)} may change on resume")


def train(config: TrainConfig, model: FlowModel, env: Environment,
          reward_model: RewardModel, out_dir: str | Path | None = None,
          resume_from: str | Path | None = None) -> TrainResult:
    """Run the training loop; optionally resume from a checkpoint.

    Each update samples one batch with the graph recorded and takes the
    balance loss from that same forward pass. Only full batches train, so a
    short last batch is logged but leaves the parameters alone. Stopping and
    checkpointing both happen only at full-batch boundaries, so a resumed
    run replays the uninterrupted run bit for bit. Each batch is scored
    with one `score_batch` call.
    """
    tail_len = max(config.stop_window, config.smooth_window)
    start_episode = 0
    best_reward = 0.0
    best_record: str | None = None
    loss_tail: deque[float] = deque(maxlen=tail_len)

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.env_hash != env.env_hash:
            raise ValidationError("checkpoint was produced for a different topology or vocabulary")
        expected = {"vocab_size": model.config.vocab_size,
                    "embed_dim": model.config.embed_dim,
                    "hidden_dim": model.config.hidden_dim}
        if ckpt.model_config != expected:
            raise ValidationError(f"checkpoint model dims {ckpt.model_config} != {expected}")
        _check_resume_config(ckpt.config, config)
        for name, tensor in model.parameters().items():
            arr = ckpt.params[name]
            tensor.data = arr if arr.shape != () else np.float64(arr)
        optimizer = restore_optimizer(ckpt, model)
        rng = restore_rng(ckpt)
        start_episode = ckpt.episode
        best_reward = ckpt.best_reward
        best_record = ckpt.config.get("best_record")
        loss_tail.extend(ckpt.loss_tail)
    else:
        optimizer = Adam(model.parameters(), lr=config.learning_rate_model,
                         lr_overrides={"log_z": config.learning_rate_logz})
        rng = np.random.Generator(np.random.PCG64(config.seed))

    metrics_path: Path | None = None
    checkpoint_path: Path | None = None
    metrics_file = None
    writer = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": "blockflow-run-manifest/1",
            "command": "train",
            "seed": config.seed,
            "env_hash": env.env_hash,
            "topology": env.topology.name,
            "config": asdict(config),
            "resume_from": None if resume_from is None else str(resume_from),
        }
        (out_dir / "run_manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
        metrics_path = out_dir / "metrics.csv"
        checkpoint_path = out_dir / "checkpoint.json"
        _trim_metrics(metrics_path, start_episode)
        fresh = not metrics_path.exists() or metrics_path.stat().st_size == 0
        metrics_file = open(metrics_path, "a", newline="")
        writer = csv.writer(metrics_file)
        if fresh:
            writer.writerow(METRICS_HEADER)

    saved_episode: int | None = None

    def snapshot(episode: int) -> None:
        nonlocal saved_episode
        if checkpoint_path is None or saved_episode == episode:
            return
        if metrics_file is not None:
            metrics_file.flush()
        echo = {
            "train": asdict(config),
            "reward": {
                "cutoff": reward_model.spec.cutoff,
                "reward_floor": reward_model.spec.reward_floor,
                "surrogate_scale": reward_model.spec.surrogate_scale,
                "evaluator": reward_model.spec.evaluator,
            },
            "topology": env.topology.name,
            "best_record": best_record,
        }
        save_checkpoint(checkpoint_path, model, optimizer, rng, episode,
                        best_reward, list(loss_tail), env.env_hash, echo)
        saved_episode = episode

    episode = start_episode
    stopped_early = False
    last_snapshot = start_episode
    full = True
    try:
        while episode < config.max_episodes:
            n = min(config.batch_size, config.max_episodes - episode)
            full = n == config.batch_size
            if not full:
                # the short last batch will not train: checkpoint the last
                # full-batch boundary, where a longer run can resume exactly
                snapshot(episode)
            with nullcontext() if full else no_grad():
                actions, log_prob_sum = rollout(model, env, rng, n, config.exploration_epsilon)
                sequences = [tuple(row) for row in actions.tolist()]
                rewards = [r for r, _ in reward_model.score_batch(sequences)]
                floored = np.array([loss_reward(reward_model.spec, r) for r in rewards])
                residual = model.log_z + log_prob_sum - Tensor(np.log(floored))
            for i, (seq, rwd) in enumerate(zip(sequences, rewards)):
                episode += 1
                res = float(residual.data[i])
                if not math.isfinite(res):
                    raise TrainingAbort(
                        f"non-finite residual at episode {episode}; actions {seq} "
                        f"log-prob sum {float(log_prob_sum.data[i])!r} reward {float(floored[i])!r}")
                loss_val = res * res
                loss_tail.append(loss_val)
                if rwd > best_reward:
                    best_reward = rwd
                    best_record = env.format_assembly_record(seq)
                if writer is not None:
                    smoothed = _window_mean(loss_tail, config.smooth_window)
                    writer.writerow(_format_row(episode, loss_val, smoothed,
                                                model.log_z_value, rwd, best_reward))
            if not full:
                break
            optimizer.zero_grad()
            backward((residual * residual).mean())
            optimizer.step()
            del residual, log_prob_sum  # free the graph before a checkpoint save
            if (config.checkpoint_every > 0
                    and episode - last_snapshot >= config.checkpoint_every):
                snapshot(episode)
                last_snapshot = episode
            stop_mean = _window_mean(loss_tail, config.stop_window)
            if stop_mean is not None and stop_mean < config.stop_threshold:
                stopped_early = True
                break
        if full:  # otherwise the boundary before the short batch was saved
            snapshot(episode)
    finally:
        if metrics_file is not None:
            metrics_file.close()

    final_mean = _window_mean(loss_tail, config.stop_window)
    return TrainResult(
        episodes_run=episode,
        stopped_early=stopped_early,
        best_reward=best_reward,
        best_record=best_record,
        log_z=model.log_z_value,
        final_loss_mean=final_mean,
        metrics_path=metrics_path,
        checkpoint_path=checkpoint_path,
    )
