"""Gravimetric-surface-area reward.

reward(g) = exp((g - cutoff) / cutoff) when g >= cutoff, else 0. The step is
closed at the cutoff, so a value exactly at the cutoff earns reward 1. A
failed evaluation scores 0; the positive floor is applied only where a log
is needed, never to reported rewards.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .env import Environment, Vocabulary
from .errors import ConfigurationError


@dataclass(frozen=True)
class RewardSpec:
    cutoff: float = 5000.0
    reward_floor: float = 1e-6
    surrogate_scale: float = 1.0
    evaluator: str = "surrogate"  # "surrogate" or "external"

    def __post_init__(self):
        if not (self.cutoff > 0):
            raise ConfigurationError("reward cutoff must be positive")
        if not (0 < self.reward_floor <= 1):
            raise ConfigurationError("reward floor must be in (0, 1]")
        if not (self.surrogate_scale > 0):
            raise ConfigurationError("surrogate scale must be positive")
        if self.evaluator not in ("surrogate", "external"):
            raise ConfigurationError(f"unknown evaluator {self.evaluator!r}")


@dataclass(frozen=True)
class GsaResult:
    value: float | None
    error: str | None = None

    @classmethod
    def of(cls, value: float) -> "GsaResult":
        return cls(value=float(value), error=None)

    @classmethod
    def fail(cls, message: str) -> "GsaResult":
        return cls(value=None, error=message)

    @property
    def ok(self) -> bool:
        return self.value is not None


def reward(spec: RewardSpec, gsa: GsaResult | float | None) -> float:
    if isinstance(gsa, GsaResult):
        gsa = gsa.value
    if gsa is None or not np.isfinite(gsa):
        return 0.0
    if gsa < spec.cutoff:
        return 0.0
    return float(np.exp((gsa - spec.cutoff) / spec.cutoff))


def loss_reward(spec: RewardSpec, value: float) -> float:
    """Floored reward used inside the balance loss so its log is finite."""
    return max(float(value), spec.reward_floor)


def surrogate_gsa(vocabulary: Vocabulary, tokens: tuple[int, ...], scale: float = 1.0) -> float:
    """Additive stand-in: scaled total token surface over total token mass."""
    idx = np.asarray(tokens, dtype=np.intp)
    return float(scale * vocabulary.surfaces[idx].sum() / vocabulary.masses[idx].sum())


@dataclass(frozen=True)
class AdapterConfig:
    """External evaluator invocation: record on stdin, one number on stdout."""

    command: tuple[str, ...]
    timeout_s: float = 60.0
    probe_radius: float = 1.525
    sample_count: int = 2000

    def __post_init__(self):
        if not self.command:
            raise ConfigurationError("adapter command is empty")
        if not (self.timeout_s > 0):
            raise ConfigurationError("adapter timeout must be positive")

    def argv(self) -> list[str]:
        return list(self.command) + [
            f"--probe-radius={self.probe_radius}",
            f"--samples={self.sample_count}",
        ]


def external_gsa(adapter: AdapterConfig, record: str, running: _RunningAdapters | None = None) -> GsaResult:
    """Run the adapter once. Every failure mode becomes a GsaResult.fail.

    The adapter runs in a session of its own. If its answer does not come
    (a timeout, an error, an interrupt), the whole process group is killed
    and reaped, so nothing it forked outlives the call; an interrupt is
    re-raised after that. A parallel batch passes its `running` adapters.
    """
    try:
        proc = (running or _RunningAdapters()).start(adapter.argv())
    except OSError as exc:
        return GsaResult.fail(f"adapter did not run: {exc}")
    try:
        stdout, stderr = proc.communicate(record + "\n", timeout=adapter.timeout_s)
    except Exception as exc:
        _kill_group(proc)
        return GsaResult.fail(f"adapter did not run: {exc}")
    except BaseException:
        _kill_group(proc)
        raise
    if proc.returncode != 0:
        return GsaResult.fail(f"adapter exit code {proc.returncode}: {stderr.strip()[:200]}")
    fields = stdout.split()
    if not fields:
        return GsaResult.fail("adapter produced no output")
    try:
        value = float(fields[0])
    except ValueError:
        return GsaResult.fail(f"adapter output not a number: {fields[0]!r}")
    if not np.isfinite(value):
        return GsaResult.fail(f"adapter output not finite: {value!r}")
    return GsaResult.of(value)


class _RunningAdapters:
    """The adapters one batch started; once stopped, it kills them and starts no more."""

    def __init__(self):
        self._lock = threading.Lock()
        self._procs: list[subprocess.Popen] = []
        self._stopped = False

    def start(self, argv: list[str]) -> subprocess.Popen:
        with self._lock:
            if self._stopped:
                raise OSError("the batch was interrupted")
            self._procs.append(subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, start_new_session=True))
            return self._procs[-1]

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            for proc in self._procs:
                if proc.returncode is None:  # the thread waiting on it reaps it
                    _kill_group(proc, reap=False)


def _kill_group(proc: subprocess.Popen, reap: bool = True) -> None:
    # The adapter is not reaped yet, so its pid still names its group.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if reap:
        proc.communicate()


class RewardModel:
    """Scores token sequences for one environment, evaluating each distinct one once."""

    def __init__(self, spec: RewardSpec, env: Environment,
                 adapter: AdapterConfig | None = None):
        if spec.evaluator == "external" and adapter is None:
            raise ConfigurationError("external evaluator requires an adapter config")
        self.spec = spec
        self.env = env
        self.adapter = adapter
        self._cache: dict[tuple[int, ...], GsaResult] = {}

    def _evaluate(self, tokens: tuple[int, ...], running: _RunningAdapters | None = None) -> GsaResult:
        if self.spec.evaluator == "surrogate":
            return GsaResult.of(surrogate_gsa(self.env.vocabulary, tokens, self.spec.surrogate_scale))
        record = self.env.format_assembly_record(tokens)
        return external_gsa(self.adapter, record, running)

    def score_batch(self, sequences, workers: int = 1) -> list[tuple[float, GsaResult]]:
        """Reward and GSA result per sequence, in order.

        Sequences not seen before are evaluated once each, in first-appearance
        order; with an external evaluator and workers > 1 they run in a
        thread pool. An interrupt reaches only this thread, which then kills
        the running adapters and starts no more.
        """
        sequences = [tuple(int(t) for t in seq) for seq in sequences]
        pending = [seq for seq in dict.fromkeys(sequences) if seq not in self._cache]
        if pending and self.spec.evaluator == "external" and workers > 1:
            running = _RunningAdapters()
            with ThreadPoolExecutor(max_workers=workers) as pool:
                try:
                    results = list(pool.map(lambda seq: self._evaluate(seq, running), pending))
                except BaseException:
                    running.stop()
                    raise
        else:
            results = [self._evaluate(seq) for seq in pending]
        self._cache.update(zip(pending, results))
        return [(reward(self.spec, self._cache[seq]), self._cache[seq]) for seq in sequences]
