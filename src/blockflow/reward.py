"""Gravimetric-surface-area reward.

reward(g) = exp((g - cutoff) / cutoff) when g >= cutoff, else 0. The step is
closed at the cutoff, so a value exactly at the cutoff earns reward 1. A
failed evaluation (a NaN GSA) scores 0; the positive floor is applied only
where a log is needed, never to reported rewards.

Scoring works on arrays: `RewardModel.score_batch` takes the (m, n_slots)
token rows the sampler draws, and the surrogate and the reward each take one
pass over all of them. The process and pool modules the external evaluator
needs are imported where it runs, so a surrogate run does not load them.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .env import Environment, Vocabulary
from .errors import ValidationError


@dataclass(frozen=True)
class RewardSpec:
    cutoff: float = 5000.0
    reward_floor: float = 1e-6
    surrogate_scale: float = 1.0
    evaluator: str = "surrogate"  # "surrogate" or "external"

    def __post_init__(self):
        if not (0 < self.cutoff < math.inf):
            raise ValidationError(f"reward cutoff must be finite and positive, got {self.cutoff!r}")
        if not (0 < self.reward_floor <= 1):
            raise ValidationError("reward floor must be in (0, 1]")
        if not (0 < self.surrogate_scale < math.inf):
            raise ValidationError(
                f"surrogate scale must be finite and positive, got {self.surrogate_scale!r}")
        if self.evaluator not in ("surrogate", "external"):
            raise ValidationError(f"unknown evaluator {self.evaluator!r}")


def reward(spec: RewardSpec, gsa):
    """The reward of each GSA in `gsa`; a float for a float (or None).

    A GSA that is NaN or infinite, or None, is a failed evaluation and earns 0.
    """
    g = np.asarray(gsa, dtype=np.float64)  # None becomes NaN
    r = np.where(np.isfinite(g) & (g >= spec.cutoff), np.exp((g - spec.cutoff) / spec.cutoff), 0.0)
    return float(r) if r.ndim == 0 else r


def surrogate_gsa(vocabulary: Vocabulary, tokens, scale: float = 1.0):
    """Additive stand-in: scaled total token surface over total token mass.

    `tokens` is one sequence, which gives a float, or an array of them along
    its last axis, which gives an array of the leading shape.
    """
    idx = np.asarray(tokens, dtype=np.intp)
    g = scale * vocabulary.surfaces[idx].sum(axis=-1) / vocabulary.masses[idx].sum(axis=-1)
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True)
class AdapterConfig:
    """External evaluator invocation: `command` as given, the record on stdin,
    one number on stdout."""

    command: tuple[str, ...]
    timeout_s: float = 60.0

    def __post_init__(self):
        if not self.command:
            raise ValidationError("adapter command is empty")
        if not (0 < self.timeout_s < math.inf):
            raise ValidationError(
                f"adapter timeout must be finite and positive, got {self.timeout_s!r}")


def external_gsa(adapter: AdapterConfig, record: str,
                 running: _RunningAdapters | None = None) -> tuple[float, str | None]:
    """Run the adapter once: `(gsa, None)` on success, `(nan, message)` on any failure.

    The adapter runs in a session of its own. If its answer does not come
    (a timeout, an error, an interrupt), the whole process group is killed
    and reaped, so nothing it forked outlives the call; an interrupt is
    re-raised after that. A batch passes its `running` adapters.
    """
    try:
        proc = (running or _RunningAdapters()).start(list(adapter.command))
    except OSError as exc:
        return np.nan, f"adapter did not run: {exc}"
    try:
        stdout, stderr = proc.communicate(record + "\n", timeout=adapter.timeout_s)
    except Exception as exc:
        _kill_group(proc)
        return np.nan, f"adapter did not run: {exc}"
    except BaseException:
        _kill_group(proc)
        raise
    if proc.returncode != 0:
        return np.nan, f"adapter exit code {proc.returncode}: {stderr.strip()[:200]}"
    fields = stdout.split()
    if not fields:
        return np.nan, "adapter produced no output"
    try:
        value = float(fields[0])
    except ValueError:
        return np.nan, f"adapter output not a number: {fields[0]!r}"
    if not np.isfinite(value):
        return np.nan, f"adapter output not finite: {value!r}"
    return value, None


class _RunningAdapters:
    """The adapters one batch started; once stopped, it kills them and starts no more."""

    def __init__(self):
        self._lock = threading.Lock()
        self._procs: list[subprocess.Popen] = []
        self._stopped = False

    def start(self, argv: list[str]) -> subprocess.Popen:
        import subprocess
        with self._lock:
            if self._stopped:
                raise OSError("the batch was interrupted")
            self._procs.append(subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, encoding="utf-8", errors="replace", start_new_session=True))
            return self._procs[-1]

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            for proc in self._procs:
                if proc.returncode is None:  # the thread waiting on it reaps it
                    _kill_group(proc, reap=False)


def _evaluation_slots() -> int:
    """External evaluations run at once: the CPUs this process may run on.

    An adapter run is CPU-bound, so more at a time than that buys nothing.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kill_group(proc: subprocess.Popen, reap: bool = True) -> None:
    import signal
    # The adapter is not reaped yet, so its pid still names its group.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if reap:
        proc.communicate()


class Scores(NamedTuple):
    """What `RewardModel.score_batch` found for each row, in row order."""

    gsa: np.ndarray  # float64, NaN where the evaluation failed
    reward: np.ndarray  # float64, 0 where the evaluation failed
    errors: dict[int, str]  # each failed row's index and its evaluation's error


class RewardModel:
    """Scores token rows for one environment; an external evaluator runs once per distinct row."""

    def __init__(self, spec: RewardSpec, env: Environment,
                 adapter: AdapterConfig | None = None):
        if (spec.evaluator == "external") != (adapter is not None):
            raise ValidationError(
                f"an adapter config goes with the external evaluator and only with it; got "
                f"evaluator {spec.evaluator!r} {'with' if adapter else 'without'} an adapter")
        self.spec = spec
        self.env = env
        self.adapter = adapter
        self._cache: dict[tuple[int, ...], tuple[float, str | None]] = {}

    def score_batch(self, rows) -> Scores:
        """The scores of each row of `rows`, an (m, n_slots) array of token indices.

        The surrogate scores all rows at once. The external evaluator runs
        once for each distinct row not seen before, in first-appearance
        order, in a thread pool as wide as the CPUs this process may use. An
        interrupt reaches only this thread, which then kills the running
        adapters and starts no more.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if self.spec.evaluator == "surrogate":
            gsa = surrogate_gsa(self.env.vocabulary, rows, self.spec.surrogate_scale)
            return Scores(gsa, reward(self.spec, gsa), {})
        from concurrent.futures import ThreadPoolExecutor
        keys = list(map(tuple, rows.tolist()))
        pending = list(dict.fromkeys(key for key in keys if key not in self._cache))
        if pending:  # a pool of no workers is refused
            records = self.env.format_assembly_records(pending)
            running = _RunningAdapters()
            with ThreadPoolExecutor(max_workers=min(_evaluation_slots(), len(pending))) as pool:
                try:
                    results = list(pool.map(
                        lambda record: external_gsa(self.adapter, record, running), records))
                except BaseException:
                    running.stop()
                    raise
            self._cache.update(zip(pending, results))
        results = [self._cache[key] for key in keys]
        gsa = np.array([value for value, _ in results])
        errors = {i: error for i, (_, error) in enumerate(results) if error is not None}
        return Scores(gsa, reward(self.spec, gsa), errors)
