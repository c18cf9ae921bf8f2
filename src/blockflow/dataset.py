"""Sampling-to-dataset pipeline (draw, deduplicate, score, rank, persist), the
trained-versus-uniform baseline, and the exact-flow oracle for the sampler: one
flow array per depth over the terminals' enumeration order, O(terminals) in memory.

The draws come from one RNG stream, the first child of the seed's seed
sequence, so the same (seed, n) pair always yields the same dataset. How
many external evaluations run at once is up to the reward model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .env import Environment
from .errors import ValidationError
from .files import read_table, write_table
from .reward import RewardModel
from .trainer import distinct_rows, rollout

DATASET_HEADER = ["assembly_record", "gsa_m2_per_g", "reward", "sample_count", "first_seen_episode"]


# Episodes per rollout in `generate` and `baseline_comparison`; CHANGES.md has the 10^6 sweep.
_CHUNK = 1 << 16


@dataclass(slots=True)
class CandidateRecord:
    record: str
    tokens: tuple[int, ...]
    gsa: float | None
    reward: float
    sample_count: int
    first_seen_episode: int


def _chunks(model, env: Environment, stream: np.random.SeedSequence, n: int):
    """n episodes of the policy on `stream`, `_CHUNK` at a time, as (first index, actions)."""
    rng = np.random.Generator(np.random.PCG64(stream))
    for lo in range(0, n, _CHUNK):
        yield lo, rollout(model, env, rng, min(_CHUNK, n - lo))[0]


def generate(model, env: Environment, reward_model: RewardModel, n: int,
             seed: int) -> list[CandidateRecord]:
    """Draw n sequences from the policy in chunks and fold each into the unique records.

    A missing gsa (empty CSV cell on save) marks an evaluation failure; the
    reward for such a record is 0 by definition.
    """
    if n < 0:
        raise ValidationError("sample count must be >= 0")
    rows = np.empty((0, env.n_slots), dtype=np.intp)  # the distinct terminals, by first draw
    first = counts = np.empty(0, dtype=np.intp)  # each one's first draw and its draw count
    for lo, draws in _chunks(model, env, np.random.SeedSequence(seed).spawn(1)[0], n):
        both = np.concatenate([rows, draws])
        ids, firsts = distinct_rows(both)  # known terminals keep their ids; each weighs its count
        counts = np.bincount(ids, np.concatenate([counts, np.ones(len(draws))])).astype(np.intp)
        rows, first = both[firsts], np.concatenate([first, lo + np.arange(len(draws))])[firsts]
    scores = reward_model.score_batch(rows)
    return [CandidateRecord(record=record, tokens=tuple(seq), gsa=None if math.isnan(gsa) else gsa,
                            reward=rwd, sample_count=count, first_seen_episode=first_index + 1)
            for record, seq, gsa, rwd, count, first_index
            in zip(env.format_assembly_records(rows), rows.tolist(), scores.gsa.tolist(),
                   scores.reward.tolist(), counts.tolist(), first.tolist())]


def top_k(records: list[CandidateRecord], k: int) -> list[CandidateRecord]:
    """Best k by reward; ties broken by record string for a stable order."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > len(records):
        warnings.warn(f"asked for top {k} of {len(records)} records; returning all")
        k = len(records)
    return sorted(records, key=lambda r: (-r.reward, r.record))[:k]


def save_dataset(path: str | Path, records: list[CandidateRecord]) -> None:
    write_table(path, DATASET_HEADER,
                ([rec.record, rec.gsa, rec.reward, rec.sample_count, rec.first_seen_episode]
                 for rec in records))


def load_dataset(path: str | Path, env: Environment) -> list[CandidateRecord]:
    _, rows = read_table(path, DATASET_HEADER)
    out = []
    for lineno, row in rows:
        try:
            out.append(CandidateRecord(
                record=row[0],
                tokens=env.parse_assembly_record(row[0]),
                gsa=float(row[1]) if row[1] else None,
                reward=float(row[2]),
                sample_count=int(row[3]),
                first_seen_episode=int(row[4]),
            ))
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# baseline comparison


@dataclass(frozen=True)
class BaselineSummary:
    n_samples: int
    trained_mean: float
    trained_max: float
    uniform_mean: float
    uniform_max: float
    bin_edges: np.ndarray
    trained_counts: np.ndarray
    uniform_counts: np.ndarray


class _Uniform:
    """The uniform policy behind the model's step interface: zero logits, so
    `rollout` draws each slot's valid tokens alike."""

    def __init__(self, env: Environment):
        self.start_token = self.vocab_size = len(env.vocabulary)  # the start sentinel, as the model's

    def step(self, tokens, state=None, cache=None, *, parents=None, last=False):
        return np.zeros((len(tokens), self.vocab_size)), None


def baseline_comparison(model, env: Environment, reward_model: RewardModel,
                        n_samples: int, seed: int) -> BaselineSummary:
    """Sample the policy and a uniform policy on split RNG streams; bin both rewards in 20 bins."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    rewards = np.empty((2, n_samples))  # one row per arm: trained, uniform
    for row, policy, stream in zip(rewards, (model, _Uniform(env)),
                                   np.random.SeedSequence(seed).spawn(2)):
        for lo, draws in _chunks(policy, env, stream, n_samples):
            row[lo:lo + _CHUNK] = reward_model.score_batch(draws).reward
    r_trained, r_uniform = rewards
    lo, hi = rewards.min(), rewards.max()
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, 21)
    return BaselineSummary(
        n_samples=n_samples,
        trained_mean=float(r_trained.mean()),
        trained_max=float(r_trained.max()),
        uniform_mean=float(r_uniform.mean()),
        uniform_max=float(r_uniform.max()),
        bin_edges=edges,
        trained_counts=np.histogram(r_trained, edges)[0],
        uniform_counts=np.histogram(r_uniform, edges)[0],
    )


# ---------------------------------------------------------------------------
# exact-flow oracle


@dataclass
class ExactFlows:
    """Terminals in enumeration order; `flows[d][i]` is the floored-reward mass below `prefixes(d)[i]`."""

    terminals: np.ndarray
    flows: list[np.ndarray]
    log_z: float
    terminal_probs: dict[tuple[int, ...], float]

    def prefixes(self, depth: int) -> np.ndarray:
        """The depth-d prefixes in order: the first d tokens of every stride-th terminal."""
        return self.terminals[::len(self.terminals) // len(self.flows[depth]), :depth]


def exact_flows(env: Environment, reward_model: RewardModel,
                bound: int = 1_000_000) -> ExactFlows:
    """Enumerate terminals and push floored rewards up every prefix.

    A prefix's flow sums its terminals, one run of the enumeration, left to right: the
    last column of a cumsum. The induced policy P(a|s) = F(child)/F(parent) satisfies the
    balance identity exactly: zero residual on every trajectory, terminals at floored-R / Z.
    """
    terminals = env.enumerate_terminals(bound)
    floored = np.maximum(reward_model.score_batch(terminals).reward, reward_model.spec.reward_floor)
    counts = [1, *np.cumprod(env.slot_masks.sum(axis=1)).tolist()]  # prefixes at each depth
    flows = [np.cumsum(floored.reshape(count, -1), axis=1)[:, -1] for count in counts]
    z = flows[0][0]
    probs = dict(zip(map(tuple, terminals.tolist()), (flows[-1] / z).tolist()))
    return ExactFlows(terminals=terminals, flows=flows, log_z=float(np.log(z)), terminal_probs=probs)
