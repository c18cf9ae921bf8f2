"""Statistical validation and post-processing.

Covers the descriptor-to-uptake regression (OLS with k-fold cross-validation
and a repeated holdout mode), capture metrics from isotherm tables and
percentile ranking against a reference set. It needs only numpy, so the
`regress` command loads none of the sampler.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .files import read_table

# ---------------------------------------------------------------------------
# regression


def average_ranks(values) -> np.ndarray:
    """1-based ranks; ties get the average of the ranks they span."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    first = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])  # where each run of equal values starts
    last = np.r_[first[1:], v.shape[0]] - 1
    ranks = np.empty(v.shape[0])
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise ValidationError("correlation undefined for a constant series")
    return float((xc * yc).sum() / denom)


def spearman_rho(x, y) -> float:
    return pearson_r(average_ranks(x), average_ranks(y))


@dataclass(frozen=True)
class CrossValSummary:
    scheme: str  # "kfold" or "holdout"
    rounds: int
    splits: int
    test_r2_mean: float
    test_r2_std: float
    test_rmse_mean: float
    test_rmse_std: float
    train_r2_mean: float
    train_r2_std: float
    train_rmse_mean: float
    train_rmse_std: float


@dataclass(frozen=True)
class RegressionReport:
    slope: float
    intercept: float
    r2: float
    rmse: float
    spearman_rho: float
    n: int


def _fit_splits(x, y, train_idx, test_idx):
    """OLS fits of y on x, one per split, with (r2, rmse) on the train and on
    the test rows; r2 is NaN where y is constant on those rows.

    The index arrays have shape (..., size), one split per row, and every sum
    runs along axis -1. A gather keeps its index array's memory order, so give
    them row-major (a C-ordered array or a slice of one): each split is then
    summed over its own contiguous row, bit-identically to a 1-D split.
    """
    xt, yt = x[train_idx], y[train_idx]
    x_mean = xt.mean(axis=-1, keepdims=True)
    y_mean = yt.mean(axis=-1, keepdims=True)
    xc = xt - x_mean
    sxx = (xc * xc).sum(axis=-1, keepdims=True)
    if (sxx <= 0.0).any():
        raise ValidationError("x is constant; the regression is degenerate")
    slope = (xc * (yt - y_mean)).sum(axis=-1, keepdims=True) / sxx
    intercept = y_mean - slope * x_mean
    scores = []
    for idx in (train_idx, test_idx):
        yi = y[idx]
        res = yi - (slope * x[idx] + intercept)
        ssr = (res * res).sum(axis=-1)
        yc = yi - yi.mean(axis=-1, keepdims=True)
        sst = (yc * yc).sum(axis=-1)
        r2 = 1.0 - np.divide(ssr, sst, out=np.full_like(ssr, np.nan), where=sst != 0.0)
        scores.append((r2, np.sqrt(ssr / yi.shape[-1])))
    return (slope[..., 0], intercept[..., 0], *scores)


def fit_univariate(x, y) -> RegressionReport:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be 1-D arrays of equal length")
    if x.shape[0] < 3:
        raise ValidationError("need at least 3 points to fit")
    rows = np.arange(x.shape[0])
    slope, intercept, (r2, rmse), _ = _fit_splits(x, y, rows, rows)
    return RegressionReport(slope=float(slope), intercept=float(intercept), r2=float(r2),
                            rmse=float(rmse), spearman_rho=spearman_rho(x, y), n=x.shape[0])


def _summarize(scheme, rounds, splits, train, test) -> CrossValSummary:
    """Means and stds over every split; `train` and `test` list (r2, rmse)
    pairs of arrays that hold the splits in round-major order."""
    tr = np.concatenate([np.stack(pair, axis=-1) for pair in train])
    te = np.concatenate([np.stack(pair, axis=-1) for pair in test])
    return CrossValSummary(
        scheme=scheme, rounds=rounds, splits=splits,
        test_r2_mean=float(te[:, 0].mean()), test_r2_std=float(te[:, 0].std()),
        test_rmse_mean=float(te[:, 1].mean()), test_rmse_std=float(te[:, 1].std()),
        train_r2_mean=float(tr[:, 0].mean()), train_r2_std=float(tr[:, 0].std()),
        train_rmse_mean=float(tr[:, 1].mean()), train_rmse_std=float(tr[:, 1].std()),
    )


# index entries per _fit_splits call: however many folds or rounds there are,
# each temporary stays within 64 KB (L2-sized) or one split, whichever is larger
_SPLIT_BATCH = 1 << 13


def cross_validate(x, y, folds: int = 10, rounds: int = 50, seed: int = 0) -> CrossValSummary:
    """Repeated k-fold: shuffle, split into k folds, fit on the complement.

    Reported standard deviations are population-style (ddof 0) over all
    rounds x folds split evaluations.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if folds < 2:
        raise ValidationError("folds must be >= 2")
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    if x.shape[0] < folds:
        raise ValidationError(f"{folds}-fold split needs at least {folds} points")
    n = x.shape[0]
    # array_split's first n % folds folds are one row longer, and a fold
    # trains on the rest of the permutation, in order. Folds of one size are
    # fitted together, at most _SPLIT_BATCH // n of them per call
    long, per_call = n % folds, max(1, _SPLIT_BATCH // n)
    starts = np.arange(folds) * (n // folds) + np.minimum(np.arange(folds), long)
    batches = []  # (test positions, a row per fold; train positions before the fold's skip)
    for lo, hi, size in ((0, long, n // folds + 1), (long, folds, n // folds)):
        rest = np.arange(n - size)
        batches += [(starts[at:min(at + per_call, hi), None] + np.arange(size), rest)
                    for at in range(lo, hi, per_call)]
    rng = np.random.Generator(np.random.PCG64(seed))
    train, test = [], []
    for _ in range(rounds):
        perm = rng.permutation(n)
        for test_pos, rest in batches:
            train_pos = np.where(rest < test_pos[:, :1], rest, rest + test_pos.shape[1])
            _, _, tr, te = _fit_splits(x, y, perm[train_pos], perm[test_pos])
            train.append(tr)
            test.append(te)
    return _summarize("kfold", rounds, folds, train, test)


def holdout_validate(x, y, rounds: int = 50, seed: int = 0) -> CrossValSummary:
    """Repeated random 80-20 holdout, the alternative protocol."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    n_test = max(1, int(round(0.2 * x.shape[0])))
    if n_test >= x.shape[0]:
        raise ValidationError("holdout leaves no training points")
    rng = np.random.Generator(np.random.PCG64(seed))
    train, test = [], []
    per_call = max(1, _SPLIT_BATCH // x.shape[0])
    for start in range(0, rounds, per_call):
        perms = np.array([rng.permutation(x.shape[0])
                          for _ in range(min(per_call, rounds - start))])
        _, _, tr, te = _fit_splits(x, y, perms[:, n_test:], perms[:, :n_test])
        train.append(tr)
        test.append(te)
    return _summarize("holdout", rounds, 1, train, test)


# ---------------------------------------------------------------------------
# capture metrics


def working_capacity(q_high: float, q_low: float) -> float:
    """Uptake difference between the high- and low-pressure conditions."""
    value = float(q_high) - float(q_low)
    if value < 0:
        warnings.warn(f"negative working capacity {value}; physically suspect inputs")
    return value


def selectivity(q_co2: float, q_n2: float, f_co2: float = 0.15, f_n2: float = 0.85) -> float:
    """(Q_co2 / Q_n2) / (f_co2 / f_n2); NaN when the N2 uptake is zero."""
    if q_co2 < 0 or q_n2 < 0:
        raise ValidationError("uptakes must be non-negative")
    if f_co2 <= 0 or f_n2 <= 0:
        raise ValidationError("gas fractions must be positive")
    if not math.isclose(f_co2 + f_n2, 1.0, rel_tol=0, abs_tol=1e-12):
        raise ValidationError("gas fractions must sum to 1")
    if q_n2 == 0.0:
        return math.nan
    return (q_co2 / q_n2) / (f_co2 / f_n2)


@dataclass(frozen=True)
class IsothermRow:
    material: str
    q_co2_16bar: float
    q_co2_015bar: float
    q_mix_co2_015bar: float
    q_mix_n2_015bar: float

    def __post_init__(self):
        for name in ISOTHERM_HEADER[1:]:
            if not (0 <= getattr(self, name) < math.inf):  # NaN fails both tests
                raise ValidationError(f"{self.material}: {name} must be finite and non-negative, "
                                      f"got {getattr(self, name)!r}")

    def working_capacity(self) -> float:
        return working_capacity(self.q_co2_16bar, self.q_co2_015bar)

    def selectivity(self) -> float:
        return selectivity(self.q_mix_co2_015bar, self.q_mix_n2_015bar)


ISOTHERM_HEADER = [f.name for f in fields(IsothermRow)]


def load_isotherm_table(path: str | Path) -> list[IsothermRow]:
    _, rows = read_table(path, ISOTHERM_HEADER)
    out = []
    for lineno, row in rows:
        try:
            out.append(IsothermRow(row[0], *(float(v) for v in row[1:])))
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return out


def percentile_rank(value: float, reference) -> float:
    """100 times the fraction of reference values strictly below `value`."""
    ref = np.asarray(reference, dtype=np.float64)
    if ref.size == 0:
        raise ValidationError("reference set is empty")
    return float(100.0 * (ref < value).sum() / ref.size)
