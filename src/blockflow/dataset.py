"""Sampling-to-dataset pipeline: draw, deduplicate, score, rank, persist.

The draw index is global and 1-based across workers: worker streams are
spawned from one seed sequence and own contiguous index ranges, so the same
(seed, n, workers) triple always yields the same dataset.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import no_grad
from .env import Environment
from .errors import ConfigurationError, ValidationError
from .reward import RewardModel
from .trainer import rollout

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
    counts: dict[tuple[int, ...], int] = {}
    first_seen: dict[tuple[int, ...], int] = {}
    offset = 0
    for w, rng in enumerate(streams):
        chunk = base + (1 if w < rem else 0)
        if chunk == 0:
            continue
        with no_grad():
            actions, _ = rollout(model, env, rng, chunk)
        for i, seq in enumerate(map(tuple, actions.tolist())):
            draw_index = offset + i + 1
            if seq in counts:
                counts[seq] += 1
                first_seen[seq] = min(first_seen[seq], draw_index)
            else:
                counts[seq] = 1
                first_seen[seq] = draw_index
        offset += chunk
    unique = sorted(counts, key=first_seen.__getitem__)
    scored = reward_model.score_batch(unique, workers=workers)
    out = []
    for seq, (rwd, gsa_res) in zip(unique, scored):
        out.append(CandidateRecord(
            record=env.format_assembly_record(seq),
            tokens=seq,
            gsa=gsa_res.value,
            reward=rwd,
            sample_count=counts[seq],
            first_seen_episode=first_seen[seq],
        ))
    return out


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
    with open(path, "w", newline="") as fh:
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
        sidecar = path.with_name(path.name + ".manifest.json")
        sidecar.write_text(json.dumps(manifest, sort_keys=True, indent=1))


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
