"""Output checks for the benchmark's CLI commands.

Each check reads what a command wrote and raises CheckFailed when it is
wrong; a failed check counts the command as failed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np

from blockflow import (BlockflowError, load_checkpoint, load_dataset, reward,
                       surrogate_gsa)

# The documented metrics.csv columns.
METRICS_HEADER = ["episode", "loss", "smoothedLoss", "logZ", "reward", "bestReward"]

# Simple-cubic fixture: the six nearest neighbours sit one cell edge away.
CUBIC_FIXTURE = "cubic_po.cif"
CUBIC_EDGE = 3.345


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(path: Path) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def digest(path: Path) -> str | None:
    """sha256 of a file, or None when it is missing."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def stdout_float(stdout: str, key: str) -> float:
    match = re.search(rf"\b{key}=(\S+)", stdout)
    require(match is not None, f"no {key}= in command output")
    return float(match.group(1))


def metrics_csv(path: Path, episodes: int) -> None:
    """Header, contiguous episodes 1..n and finite floats in every row."""
    rows = _rows(path)
    require(bool(rows) and rows[0] == METRICS_HEADER, f"{path.name}: bad header")
    body = rows[1:]
    require(all(len(r) == len(METRICS_HEADER) for r in body), f"{path.name}: ragged row")
    require([r[0] for r in body] == [str(i) for i in range(1, episodes + 1)],
            f"{path.name}: episodes are not 1..{episodes}")
    for r in body:
        cells = [r[1]] + [c for c in r[2:3] if c] + r[3:]
        require(all(math.isfinite(float(c)) for c in cells), f"{path.name}: non-finite row {r[0]}")


def checkpoint_file(path: Path, env_hash: str, episode: int) -> None:
    try:
        ckpt = load_checkpoint(path)
    except BlockflowError as exc:
        raise CheckFailed(f"checkpoint does not load: {exc}") from None
    require(ckpt.env_hash == env_hash, "checkpoint is for another environment")
    require(ckpt.episode == episode, f"checkpoint at episode {ckpt.episode}, expected {episode}")


def dataset_csv(path: Path, n: int, env, spec) -> dict[tuple[int, ...], int]:
    """Counts sum to n and each reward is the surrogate's; returns the counts."""
    try:
        records = load_dataset(path, env)
    except BlockflowError as exc:
        raise CheckFailed(f"{path.name} does not load: {exc}") from None
    require(sum(r.sample_count for r in records) == n, f"{path.name}: counts do not sum to {n}")
    for rec in records:
        gsa = surrogate_gsa(env.vocabulary, rec.tokens, spec.surrogate_scale)
        require(rec.gsa == gsa and rec.reward == reward(spec, gsa),
                f"{path.name}: wrong score for {rec.record}")
    return {r.tokens: r.sample_count for r in records}


def baseline_csv(out: Path, n: int) -> None:
    summary = _rows(out / "baseline.csv")
    require(len(summary) == 2 and summary[1][0] == str(n), "baseline.csv: wrong n_samples")
    require(all(math.isfinite(float(c)) for c in summary[1][1:]), "baseline.csv: non-finite value")
    hist = _rows(out / "baseline_hist.csv")[1:]
    for col, label in ((2, "trained"), (3, "uniform")):
        require(sum(int(r[col]) for r in hist) == n, f"baseline_hist.csv: {label} counts != {n}")


def amd_csv(out: Path, names: list[str], k: int, stdout: str) -> None:
    """Every file processed, finite descriptors, the cubic fixture exact."""
    require("skipped=0" in stdout, "amd skipped a structure")
    rows = _rows(out / "amd.csv")
    require([r[0] for r in rows[1:]] == names, "amd.csv: files missing or out of order")
    values = {r[0]: [float(c) for c in r[1:]] for r in rows[1:]}
    require(all(len(v) == k and all(math.isfinite(x) for x in v) for v in values.values()),
            "amd.csv: wrong length or non-finite entry")
    first = values[CUBIC_FIXTURE][:6]
    require(all(math.isclose(v, CUBIC_EDGE, rel_tol=1e-12) for v in first),
            f"amd.csv: {CUBIC_FIXTURE} leading entries {first} != {CUBIC_EDGE}")
    matrix = _rows(out / "distance_matrix.csv")
    require(matrix[0][1:] == names and len(matrix) == len(names) + 1,
            "distance_matrix.csv: wrong shape")


def regression_csv(out: Path, x: np.ndarray, y: np.ndarray) -> None:
    """The fit agrees with an independent least-squares solve."""
    rows = _rows(out / "regression.csv")
    require(len(rows) == 2, "regression.csv: expected one result row")
    doc = dict(zip(rows[0], rows[1]))
    slope, intercept = np.polyfit(x, y, 1)
    require(int(doc["n"]) == x.shape[0], "regression.csv: wrong n")
    require(math.isclose(float(doc["slope"]), slope, rel_tol=1e-9)
            and math.isclose(float(doc["intercept"]), intercept, rel_tol=1e-9),
            "regression.csv: fit disagrees with numpy.polyfit")
    require(all(math.isfinite(float(doc[key])) for key in ("test_r2_mean", "test_rmse_mean")),
            "regression.csv: non-finite cross-validation summary")


def terminal_l1(counts: dict[tuple[int, ...], int], exact: dict[tuple[int, ...], float]) -> float:
    """L1 distance between sampled terminal frequencies and the exact R/Z."""
    total = sum(counts.values())
    require(set(counts) <= set(exact), "sampled a terminal outside the enumeration")
    return float(sum(abs(counts.get(seq, 0) / total - p) for seq, p in exact.items()))
