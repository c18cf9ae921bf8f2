"""Statistical validation and post-processing.

Covers the descriptor-to-uptake regression (OLS with k-fold cross-validation
and a repeated holdout mode), capture metrics from isotherm tables, the
trained-versus-uniform baseline comparison, percentile ranking against a
reference set, and the exact-flow oracle used to test the sampler.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, no_grad
from .env import Environment
from .errors import (ConfigurationError, DegenerateInputError,
                     TerminalStateError, ValidationError)
from .reward import RewardModel, loss_reward
from .trainer import rollout, uniform_rollout

# ---------------------------------------------------------------------------
# regression


def average_ranks(values) -> np.ndarray:
    """1-based ranks; ties get the average of the ranks they span."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    ranks = np.empty(v.shape[0])
    i = 0
    while i < v.shape[0]:
        j = i
        while j + 1 < v.shape[0] and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise DegenerateInputError("correlation undefined for a constant series")
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
    cross_validation: CrossValSummary | None = None


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xc = x - x.mean()
    sxx = (xc * xc).sum()
    if sxx <= 0.0:
        raise DegenerateInputError("x is constant; the regression is degenerate")
    slope = float((xc * (y - y.mean())).sum() / sxx)
    return slope, float(y.mean() - slope * x.mean())


def _r2_rmse(y: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    res = y - pred
    ssr = float((res * res).sum())
    yc = y - y.mean()
    sst = float((yc * yc).sum())
    r2 = math.nan if sst == 0.0 else 1.0 - ssr / sst
    return r2, float(np.sqrt(ssr / y.shape[0]))


def fit_univariate(x, y) -> RegressionReport:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be 1-D arrays of equal length")
    if x.shape[0] < 3:
        raise DegenerateInputError("need at least 3 points to fit")
    slope, intercept = _ols(x, y)
    r2, rmse = _r2_rmse(y, slope * x + intercept)
    return RegressionReport(slope=slope, intercept=intercept, r2=r2, rmse=rmse,
                            spearman_rho=spearman_rho(x, y), n=x.shape[0])


def _split_metrics(x, y, train_idx, test_idx):
    slope, intercept = _ols(x[train_idx], y[train_idx])
    tr = _r2_rmse(y[train_idx], slope * x[train_idx] + intercept)
    te = _r2_rmse(y[test_idx], slope * x[test_idx] + intercept)
    return tr, te


def _summarize(scheme, rounds, splits, train_stats, test_stats) -> CrossValSummary:
    tr = np.asarray(train_stats)
    te = np.asarray(test_stats)
    return CrossValSummary(
        scheme=scheme, rounds=rounds, splits=splits,
        test_r2_mean=float(te[:, 0].mean()), test_r2_std=float(te[:, 0].std()),
        test_rmse_mean=float(te[:, 1].mean()), test_rmse_std=float(te[:, 1].std()),
        train_r2_mean=float(tr[:, 0].mean()), train_r2_std=float(tr[:, 0].std()),
        train_rmse_mean=float(tr[:, 1].mean()), train_rmse_std=float(tr[:, 1].std()),
    )


def cross_validate(x, y, folds: int = 10, rounds: int = 50, seed: int = 0) -> CrossValSummary:
    """Repeated k-fold: shuffle, split into k folds, fit on the complement.

    Reported standard deviations are population-style (ddof 0) over all
    rounds x folds split evaluations.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if folds < 2:
        raise ConfigurationError("folds must be >= 2")
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    if x.shape[0] < folds:
        raise DegenerateInputError(f"{folds}-fold split needs at least {folds} points")
    rng = np.random.Generator(np.random.PCG64(seed))
    train_stats, test_stats = [], []
    for _ in range(rounds):
        perm = rng.permutation(x.shape[0])
        for test_idx in np.array_split(perm, folds):
            train_idx = np.setdiff1d(perm, test_idx, assume_unique=True)
            tr, te = _split_metrics(x, y, train_idx, test_idx)
            train_stats.append(tr)
            test_stats.append(te)
    return _summarize("kfold", rounds, folds, train_stats, test_stats)


def holdout_validate(x, y, test_fraction: float = 0.2, rounds: int = 50,
                     seed: int = 0) -> CrossValSummary:
    """Repeated random holdout (default 80-20), the alternative protocol."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (0.0 < test_fraction < 1.0):
        raise ConfigurationError("test fraction must be in (0, 1)")
    n_test = max(1, int(round(test_fraction * x.shape[0])))
    if n_test >= x.shape[0]:
        raise DegenerateInputError("holdout leaves no training points")
    rng = np.random.Generator(np.random.PCG64(seed))
    train_stats, test_stats = [], []
    for _ in range(rounds):
        perm = rng.permutation(x.shape[0])
        tr, te = _split_metrics(x, y, perm[n_test:], perm[:n_test])
        train_stats.append(tr)
        test_stats.append(te)
    return _summarize("holdout", rounds, 1, train_stats, test_stats)


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


ISOTHERM_HEADER = ["material", "q_co2_16bar", "q_co2_015bar", "q_mix_co2_015bar", "q_mix_n2_015bar"]


@dataclass(frozen=True)
class IsothermRow:
    material: str
    q_co2_16bar: float
    q_co2_015bar: float
    q_mix_co2_015bar: float
    q_mix_n2_015bar: float

    def __post_init__(self):
        for name in ("q_co2_16bar", "q_co2_015bar", "q_mix_co2_015bar", "q_mix_n2_015bar"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{self.material}: {name} must be non-negative")

    def working_capacity(self) -> float:
        return working_capacity(self.q_co2_16bar, self.q_co2_015bar)

    def selectivity(self) -> float:
        return selectivity(self.q_mix_co2_015bar, self.q_mix_n2_015bar)


def load_isotherm_table(path: str | Path) -> list[IsothermRow]:
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ISOTHERM_HEADER:
        raise ValidationError(f"{path}: expected header {','.join(ISOTHERM_HEADER)}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(ISOTHERM_HEADER):
            raise ValidationError(f"{path}:{lineno}: expected {len(ISOTHERM_HEADER)} fields")
        try:
            out.append(IsothermRow(row[0], *(float(v) for v in row[1:])))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return out


def percentile_rank(value: float, reference) -> float:
    """100 times the fraction of reference values strictly below `value`."""
    ref = np.asarray(reference, dtype=np.float64)
    if ref.size == 0:
        raise DegenerateInputError("reference set is empty")
    return float(100.0 * (ref < value).sum() / ref.size)


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


def baseline_comparison(model, env: Environment, reward_model: RewardModel,
                        n_samples: int, seed: int, bins: int = 20) -> BaselineSummary:
    """Sample the policy and a uniform policy on split RNG streams."""
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    seq_trained, seq_uniform = np.random.SeedSequence(seed).spawn(2)
    with no_grad():
        trained, _ = rollout(model, env, np.random.Generator(np.random.PCG64(seq_trained)),
                             n_samples)
    uniform = uniform_rollout(env, n_samples, np.random.Generator(np.random.PCG64(seq_uniform)))
    r_trained = np.array([r for r, _ in reward_model.score_batch(trained.tolist())])
    r_uniform = np.array([r for r, _ in reward_model.score_batch(uniform)])
    lo = min(r_trained.min(), r_uniform.min())
    hi = max(r_trained.max(), r_uniform.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
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
    """Prefix flows: each prefix maps to the floored-reward mass below it."""

    flows: dict[tuple[int, ...], float]
    log_z: float
    terminal_probs: dict[tuple[int, ...], float]


def exact_flows(env: Environment, reward_model: RewardModel,
                bound: int = 1_000_000) -> ExactFlows:
    """Enumerate terminals and push floored rewards up every prefix.

    The induced policy P(a|s) = F(child)/F(parent) satisfies the balance
    identity exactly, so its squared residual is 0 on every trajectory and
    its terminal distribution is floored-R / Z.
    """
    terminals = list(env.enumerate_terminals(bound))
    flows: dict[tuple[int, ...], float] = {}
    for seq, (rwd, _) in zip(terminals, reward_model.score_batch(terminals)):
        value = loss_reward(reward_model.spec, rwd)
        for cut in range(len(seq) + 1):
            prefix = seq[:cut]
            flows[prefix] = flows.get(prefix, 0.0) + value
    z = flows[()]
    probs = {seq: flows[seq] / z for seq in terminals}
    return ExactFlows(flows=flows, log_z=float(np.log(z)), terminal_probs=probs)


class TabularPolicy:
    """Exact policy over an enumerable environment, behind the model's
    batched step interface: the state holds each episode's prefix and the
    logits are the log flows of the prefix's children."""

    def __init__(self, flows: ExactFlows, env: Environment):
        self.flows = flows
        self.env = env
        self._child_rows: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def log_z_value(self) -> float:
        return self.flows.log_z

    @property
    def start_token(self) -> int:
        return len(self.env.vocabulary)

    def log_prob(self, prefix: tuple[int, ...], action: int) -> float:
        child = prefix + (int(action),)
        if child not in self.flows.flows:
            return -math.inf
        return math.log(self.flows.flows[child]) - math.log(self.flows.flows[prefix])

    def step(self, tokens, state=None) -> tuple[Tensor, list[tuple[int, ...]]]:
        """Child log flows for a batch; `state` is the prefixes before `tokens`.

        At sequence start (state None) the tokens are start sentinels and are
        not part of any prefix.
        """
        if state is None:
            prefixes = [()] * len(tokens)
        else:
            prefixes = [prefix + (int(tok),) for prefix, tok in zip(state, tokens)]
        return Tensor(np.stack([self._child_log_flows(p) for p in prefixes])), prefixes

    def _child_log_flows(self, prefix: tuple[int, ...]) -> np.ndarray:
        row = self._child_rows.get(prefix)
        if row is None:
            slot = len(prefix)
            if slot >= self.env.n_slots:
                raise TerminalStateError("episode already terminal")
            row = np.full(len(self.env.vocabulary), -np.inf)
            for action in np.flatnonzero(self.env.slot_masks[slot]):
                flow = self.flows.flows.get(prefix + (int(action),))
                if flow:
                    row[action] = math.log(flow)
            self._child_rows[prefix] = row
        return row
