"""Training loop for the sequence sampler.

The objective is a squared balance residual per trajectory:

    (log_z + sum of forward log-probs - log floored_reward)^2

averaged over a batch. Construction paths are unique here (slots are filled
in a fixed order), so the backward-policy term that a general balance loss
carries is identically zero and is omitted.

Each update draws its batch with `rollout`, which records every slot's
forward values in a cache; `FlowModel.balance_grad` takes each weight's
gradient from that cache as one product over the slots, and Adam applies
it.

Determinism contract: each episode consumes exactly one uniform draw per
slot from the run's generator, and nothing else touches that generator, so
restoring the serialized RNG state resumes the sample stream bit-exactly.
Parameter updates happen only on full batches.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import load_run_checkpoint, save_checkpoint
from .env import Environment
from .errors import BlockflowError, ValidationError
from .files import trim_table, write_manifest
from .model import FlowModel
from .optim import Adam
from .reward import RewardModel

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
        for rate in (self.learning_rate_model, self.learning_rate_logz):  # NaN fails both tests
            if not (0 < rate < math.inf):
                raise ValidationError(f"learning rates must be finite and positive, got {rate!r}")
        for name in ("max_episodes", "batch_size", "stop_window", "smooth_window"):
            if getattr(self, name) < 1:
                raise ValidationError(f"TrainConfig.{name} must be >= 1")
        if not (0 <= self.stop_threshold < math.inf):
            raise ValidationError(
                f"stop threshold must be finite and non-negative, got {self.stop_threshold!r}")
        if not (0.0 <= self.exploration_epsilon <= 1.0):
            raise ValidationError("exploration epsilon must be in [0, 1]")
        if self.checkpoint_every < 0:
            raise ValidationError("checkpoint_every must be >= 0 (0 disables)")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def rollout(policy, env: Environment, rng: np.random.Generator, n: int,
            epsilon: float = 0.0, cache: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sample n episodes together, one batched policy step per slot.

    All n * n_slots uniform draws are taken up front in episode-major order,
    the same stream as n episodes of one draw per slot. With epsilon > 0 the
    behavior policy is mixed with uniform over the slot's valid tokens; the
    returned log-probs are always the pure policy's.

    Each slot is one policy step, given the previous step's state and each
    new state row's parent row in it; the last returns no state. Only the
    row numbering differs between the jobs. With a `cache` list (training),
    every episode is its own row, and each slot appends a record of its
    forward values, plus its log-probs, mask and picks, for `balance_grad`.
    Without one, episodes that share a prefix share a row: slots fill in a
    fixed order, so the prefix is the whole state, and the policy steps once
    per distinct prefix. Each episode draws from its row.

    Returns the (n, n_slots) actions and each episode's summed log-prob.
    """
    if n < 1:
        raise ValidationError("rollout size must be >= 1")
    if not (0.0 <= epsilon <= 1.0):
        raise ValidationError("exploration epsilon must be in [0, 1]")
    u = rng.random((n, env.n_slots))
    actions = np.empty((n, env.n_slots), dtype=np.intp)
    rows = np.arange(n) if cache is not None else np.zeros(n, dtype=np.intp)  # each episode's row
    tokens = np.full(rows.max() + 1, policy.start_token, dtype=np.intp)  # one per state row
    state = parents = None  # parents: each state row's row in the previous step's state
    log_prob_sum = np.zeros(n)
    for t in range(env.n_slots):
        mask, last = env.slot_masks[t], t + 1 == env.n_slots
        logits, state = policy.step(tokens, state, cache, parents=parents, last=last)
        picked, log_probs = _draw_slot(logits, rows, mask, u[:, t], epsilon)
        actions[:, t] = picked
        log_prob_sum += log_probs[rows, picked]
        if cache is not None:
            cache[-1].update(log_probs=log_probs, mask=mask, actions=picked)
        if not last:  # the next rows: one per episode, or one per distinct (row, token) pair
            next_rows, first = ((rows, rows) if cache is not None
                                else distinct_rows(np.column_stack([rows, picked])))
            tokens, parents, rows = picked[first], rows[first], next_rows
    return actions, log_prob_sum


def _draw_slot(logits: np.ndarray, rows: np.ndarray, mask: np.ndarray, u: np.ndarray,
               epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Pick one valid token per episode by inverse cdf; return the picks and the log-probs.

    `logits` has one row per state row, and `rows` maps each episode to its
    state row. The log-softmax and cdf are taken once per state row, and
    each cdf column is gathered to the episodes in turn; the log-probs are
    returned per state row.
    """
    valid = np.flatnonzero(mask)
    if np.isneginf(logits[:, valid]).any():
        raise ValidationError("policy gives a valid token zero probability; "
                              "was it built for another environment?")
    log_probs = ad.masked_log_softmax(logits, mask)
    probs = np.exp(log_probs[:, valid])
    if epsilon > 0.0:
        probs = (1.0 - epsilon) * probs + epsilon / valid.shape[0]
    cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    # per episode: searchsorted(cdf, u, side="right"), clamped to the last valid token,
    # counted one cdf column at a time, so no (episodes, valid tokens) gather is built
    picks = np.zeros(rows.shape[0], dtype=np.intp)
    for column in cdf.T:
        picks += u >= column[rows]
    return valid[np.minimum(picks, valid.shape[0] - 1)], log_probs


def distinct_rows(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of a 2-D token array by first appearance.

    Returns each row's number and, per number, the index of its first row.
    Rows are told apart by one integer key, renumbered by a 1-D unique before
    each column past the second so that it cannot overflow; one unique over
    whole rows compares them as byte records, an order of magnitude slower.
    """
    key = np.zeros(draws.shape[0], dtype=np.intp)
    for t, column in enumerate(draws.T):
        if t > 1:
            _, key = np.unique(key, return_inverse=True)
        key = key * (column.max() + 1) + column
    _, first, ids = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return rank[ids], first[order]


@dataclass
class TrainResult:
    episodes_run: int
    stopped_early: bool
    best_reward: float
    best_record: str | None
    log_z: float
    evaluator_failures: int  # episodes of this invocation a failed evaluation scored
    first_evaluator_error: str | None


def _window_means(losses: np.ndarray, n: int, window: int) -> list[float | None]:
    """The mean of the `window` losses up to each of the last `n` of `losses`,
    None for each that has fewer than `window` losses up to it."""
    buf = losses[max(0, losses.shape[0] - n - window + 1):]
    k = buf.shape[0] - window + 1  # the number of whole windows
    means = buf[np.arange(k)[:, None] + np.arange(window)].mean(axis=1).tolist() if k > 0 else []
    return [None] * (n - len(means)) + means


# Train-config fields a resumed run may change without breaking exactness.
RESUMABLE_FIELDS = ("max_episodes", "checkpoint_every")


def _run_echo(config: TrainConfig, reward_model: RewardModel, env: Environment) -> dict:
    """What a checkpoint records of the run, and what a resume must match."""
    return {"train": asdict(config), "reward": asdict(reward_model.spec),
            "topology": env.topology.name}


def _check_resume_config(saved: dict, current: dict) -> None:
    """Refuse a resume whose train block (bar RESUMABLE_FIELDS), reward block or
    topology differs from the checkpoint's echo."""
    if not isinstance(saved.get("train"), dict):
        raise ValidationError("checkpoint carries no training config to resume against")

    def flat(echo):
        return {**{key: value for key, value in echo["train"].items()
                   if key not in RESUMABLE_FIELDS},
                **{f"reward.{key}": value for key, value in echo.get("reward", {}).items()},
                "topology": echo.get("topology")}

    old, new = flat(saved), flat(current)
    drift = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    if drift:
        detail = ", ".join(f"{key} {old.get(key)!r} -> {new.get(key)!r}" for key in drift)
        raise ValidationError(
            f"resumed run differs from the checkpoint's ({detail}); "
            f"only {' and '.join(RESUMABLE_FIELDS)} may change on resume")


def train(config: TrainConfig, model: FlowModel, env: Environment,
          reward_model: RewardModel, out_dir: str | Path,
          resume_from: str | Path | None = None) -> TrainResult:
    """Run the training loop into `out_dir`; optionally resume from a checkpoint.

    `out_dir` gets the run's manifest, which makes it once the resume checks
    pass, then its metrics table and its checkpoint.

    Each update samples one batch with its forward values cached and takes
    the balance loss and its gradient from that same forward pass. Only
    full batches train, so a short last batch is logged but leaves the
    parameters alone. Stopping and checkpointing both happen only at
    full-batch boundaries, so a resumed run replays the uninterrupted run
    bit for bit. Each batch is scored with one `score_batch` call.
    """
    tail_len = max(config.stop_window, config.smooth_window)
    start_episode = 0
    best_reward = 0.0
    best_record: str | None = None
    loss_tail = np.empty(0)  # the last tail_len losses
    evaluator_failures = 0
    first_evaluator_error: str | None = None

    optimizer = Adam(model.parameters(), lr=config.learning_rate_model,
                     lr_overrides={"log_z": config.learning_rate_logz})
    rng = np.random.Generator(np.random.PCG64(config.seed))
    if resume_from is not None:
        ckpt = load_run_checkpoint(resume_from, env.env_hash, model.config, moments=True)
        _check_resume_config(ckpt.config, _run_echo(config, reward_model, env))
        if ckpt.episode % config.batch_size:
            raise ValidationError(
                f"checkpoint episode {ckpt.episode} is not a multiple of batch_size "
                f"{config.batch_size}, and only full batches train")
        if len(ckpt.loss_tail) != min(ckpt.episode, tail_len):
            raise ValidationError(
                f"checkpoint loss tail holds {len(ckpt.loss_tail)} losses, and episode "
                f"{ckpt.episode} needs {min(ckpt.episode, tail_len)}")
        np.copyto(model.flat, ckpt.params)
        # Adam took one step per full batch; its rates are the config's
        optimizer.step_count = ckpt.episode // config.batch_size
        optimizer.m, optimizer.v = ckpt.m, ckpt.v
        rng = ckpt.rng
        start_episode = ckpt.episode
        best_reward = ckpt.best_reward
        best_record = ckpt.config.get("best_record")
        loss_tail = np.array(ckpt.loss_tail, dtype=np.float64)
        del ckpt  # the optimizer adopted m and v; the model copied the parameter row: free it

    out_dir = Path(out_dir)
    write_manifest(out_dir / "run_manifest.json", "train", {
        "seed": config.seed,
        "env_hash": env.env_hash,
        "topology": env.topology.name,
        "config": asdict(config),
        "resume_from": None if resume_from is None else str(resume_from),
    })
    trim_table(out_dir / "metrics.csv", METRICS_HEADER, start_episode)

    episode = start_episode
    stopped_early = False
    full = True
    saved: int | None = None  # the episode of this run's last checkpoint save
    with open(out_dir / "metrics.csv", "a", newline="", encoding="utf-8") as metrics_file:
        writer = csv.writer(metrics_file)  # appends each row as it comes

        def snapshot(episode: int) -> None:
            nonlocal saved
            if saved == episode:
                return
            metrics_file.flush()
            echo = {**_run_echo(config, reward_model, env), "best_record": best_record}
            save_checkpoint(out_dir / "checkpoint.json", model, optimizer, rng, episode,
                            best_reward, loss_tail.tolist(), env.env_hash, echo)
            saved = episode

        while episode < config.max_episodes:
            n = min(config.batch_size, config.max_episodes - episode)
            full = n == config.batch_size
            if not full:
                # the short last batch will not train: checkpoint the last
                # full-batch boundary, where a longer run can resume exactly
                snapshot(episode)
            cache: list[dict] = []
            actions, log_prob_sum = rollout(model, env, rng, n, config.exploration_epsilon, cache)
            scores = reward_model.score_batch(actions)
            evaluator_failures += len(scores.errors)
            first_evaluator_error = first_evaluator_error or next(iter(scores.errors.values()), None)
            floored = np.maximum(scores.reward, reward_model.spec.reward_floor)
            residual = model.parameters()["log_z"] + log_prob_sum - np.log(floored)
            losses = residual * residual
            loss_tail = np.concatenate([loss_tail, losses])
            smoothed = _window_means(loss_tail, n, config.smooth_window)
            loss_tail = loss_tail[-tail_len:]
            rows = zip(residual.tolist(), losses.tolist(), smoothed, scores.reward.tolist())
            for i, (res, loss_val, smooth, rwd) in enumerate(rows):
                episode += 1
                if not math.isfinite(res):
                    raise BlockflowError(
                        f"non-finite residual at episode {episode}; actions "
                        f"{tuple(actions[i].tolist())} log-prob sum {float(log_prob_sum[i])!r} "
                        f"reward {float(floored[i])!r}")
                if rwd > best_reward:
                    best_reward = rwd
                    best_record = env.format_assembly_records(actions[i:i + 1])[0]
                writer.writerow([episode, loss_val, smooth, model.log_z_value, rwd, best_reward])
            if not full:
                break
            d_residual = (2.0 / n) * residual  # d mean(residual^2) / d residual
            model.balance_grad(cache, d_residual)
            optimizer.step(model.flat, model.grad)
            del cache  # free the forward values before a checkpoint save
            since = episode - (start_episode if saved is None else saved)
            if config.checkpoint_every > 0 and since >= config.checkpoint_every:
                snapshot(episode)
            stop_mean = _window_means(loss_tail, 1, config.stop_window)[0]
            if stop_mean is not None and stop_mean < config.stop_threshold:
                stopped_early = True
                break
        if full:  # otherwise the boundary before the short batch was saved
            snapshot(episode)

    return TrainResult(
        episodes_run=episode,
        stopped_early=stopped_early,
        best_reward=best_reward,
        best_record=best_record,
        log_z=model.log_z_value,
        evaluator_failures=evaluator_failures,
        first_evaluator_error=first_evaluator_error,
    )
