"""Sampling-to-dataset pipeline: draw, deduplicate, score, rank, persist.

The draws are split over `workers` RNG streams, spawned from one seed
sequence; each stream owns a contiguous range of the global, 1-based draw
index, so the same (seed, n, workers) triple always yields the same dataset.
`workers` sets only that split: how many external evaluations run at once
is up to the reward model.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .env import Environment
from .errors import ConfigurationError, ValidationError
from .reward import RewardModel
from .trainer import distinct_rows, rollout

DATASET_HEADER = ["assembly_record", "gsa_m2_per_g", "reward", "sample_count", "first_seen_episode"]


@dataclass
class CandidateRecord:
    record: str
    tokens: tuple[int, ...] | None
    gsa: float | None
    reward: float
    sample_count: int
    first_seen_episode: int


def generate(model, env: Environment, reward_model: RewardModel, n: int,
             seed: int, workers: int = 1) -> list[CandidateRecord]:
    """Draw n sequences from the policy and fold them into unique records.

    A missing gsa (empty CSV cell on save) marks an evaluation failure; the
    reward for such a record is 0 by definition.
    """
    if n < 0:
        raise ConfigurationError("sample count must be >= 0")
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if n == 0:
        return []
    workers = min(workers, n)
    streams = [np.random.Generator(np.random.PCG64(s))
               for s in np.random.SeedSequence(seed).spawn(workers)]
    base, rem = divmod(n, workers)
    draws = []
    for w, rng in enumerate(streams):
        actions, _ = rollout(model, env, rng, base + (1 if w < rem else 0))
        draws.append(actions)
    # each stream owns the next range of draw indices, so row i is draw i + 1
    draws = np.concatenate(draws)
    ids, first = distinct_rows(draws)
    sequences = [tuple(seq) for seq in draws[first].tolist()]
    scored = reward_model.score_batch(sequences)
    return [CandidateRecord(record=env.format_assembly_record(seq), tokens=seq,
                            gsa=gsa_res.value, reward=rwd, sample_count=count,
                            first_seen_episode=first_index + 1)
            for seq, count, first_index, (rwd, gsa_res)
            in zip(sequences, np.bincount(ids).tolist(), first.tolist(), scored)]


def top_k(records: list[CandidateRecord], k: int) -> list[CandidateRecord]:
    """Best k by reward; ties broken by record string for a stable order."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if k > len(records):
        warnings.warn(f"asked for top {k} of {len(records)} records; returning all")
        k = len(records)
    return sorted(records, key=lambda r: (-r.reward, r.record))[:k]


def save_dataset(path: str | Path, records: list[CandidateRecord],
                 manifest: dict | None = None) -> None:
    path = Path(path)
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for rec in records:
            writer.writerow([
                rec.record,
                "" if rec.gsa is None else repr(float(rec.gsa)),
                repr(float(rec.reward)),
                str(rec.sample_count),
                str(rec.first_seen_episode),
            ])
    if manifest is not None:
        with atomic_write(path.with_name(path.name + ".manifest.json")) as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=1))


def load_dataset(path: str | Path, env: Environment | None = None) -> list[CandidateRecord]:
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != DATASET_HEADER:
        raise ValidationError(f"{path}: expected header {','.join(DATASET_HEADER)}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(DATASET_HEADER):
            raise ValidationError(f"{path}:{lineno}: expected {len(DATASET_HEADER)} fields")
        try:
            tokens = env.parse_assembly_record(row[0]) if env is not None else None
            out.append(CandidateRecord(
                record=row[0],
                tokens=tokens,
                gsa=float(row[1]) if row[1] else None,
                reward=float(row[2]),
                sample_count=int(row[3]),
                first_seen_episode=int(row[4]),
            ))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return out
