import math
import os
import subprocess
import time
from concurrent.futures import Future

import numpy as np
import pytest

from blockflow import (AdapterConfig, GsaResult, RewardModel, RewardSpec,
                       external_gsa, loss_reward, reward, surrogate_gsa)
from blockflow.errors import ConfigurationError
from conftest import stub_adapter_command

SPEC = RewardSpec(cutoff=5000.0)


def test_reward_spot_values():
    c = SPEC.cutoff
    assert reward(SPEC, c) == 1.0  # step is closed at the cutoff
    assert reward(SPEC, 2 * c) == pytest.approx(math.e, abs=1e-12)
    assert reward(SPEC, 0.9 * c) == 0.0
    assert reward(SPEC, 0.0) == 0.0
    assert reward(SPEC, GsaResult.fail("boom")) == 0.0
    assert reward(SPEC, None) == 0.0
    assert reward(SPEC, math.inf) == 0.0


def test_reward_is_monotone_above_cutoff():
    gsas = np.linspace(5000, 20000, 50)
    vals = [reward(SPEC, g) for g in gsas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_loss_reward_floor():
    assert loss_reward(SPEC, 0.0) == 1e-6
    assert loss_reward(SPEC, 1e-9) == 1e-6
    assert loss_reward(SPEC, 2.5) == 2.5
    tight = RewardSpec(reward_floor=1e-3)
    assert loss_reward(tight, 0.0) == 1e-3


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        RewardSpec(cutoff=0.0)
    with pytest.raises(ConfigurationError):
        RewardSpec(reward_floor=0.0)
    with pytest.raises(ConfigurationError):
        RewardSpec(reward_floor=2.0)
    with pytest.raises(ConfigurationError):
        RewardSpec(surrogate_scale=-1.0)
    with pytest.raises(ConfigurationError):
        RewardSpec(evaluator="dft")


def test_surrogate_matches_independent_recompute(bridge_env):
    # plain-python recompute over token objects, no shared numpy path
    vocab = bridge_env.vocabulary
    for seq in bridge_env.enumerate_terminals():
        mass = sum(vocab[i].mass_g_mol for i in seq)
        surface = sum(vocab[i].surface_a2 for i in seq)
        expect = 1000.0 * surface / mass
        assert surrogate_gsa(vocab, seq, scale=1000.0) == pytest.approx(expect, rel=1e-14)
        assert mass == 175.0  # fixture is mass-uniform by construction


def test_surrogate_known_value(bridge_env):
    # N1 + N4 + E1: surfaces 300+200+50, masses 100+50+25
    assert surrogate_gsa(bridge_env.vocabulary, (0, 3, 5), scale=1000.0) == \
        pytest.approx(1000.0 * 550.0 / 175.0, rel=1e-15)


def test_reward_model_twelve_terminal_table(bridge_env, bridge_reward):
    spec = bridge_reward.spec
    rewards = {}
    terminals = list(bridge_env.enumerate_terminals())
    for seq, (r, res) in zip(terminals, bridge_reward.score_batch(terminals)):
        assert res.ok
        # independent: exp((gsa-c)/c) with gsa rebuilt from raw fields
        vocab = bridge_env.vocabulary
        gsa = 1000.0 * sum(vocab[i].surface_a2 for i in seq) / sum(vocab[i].mass_g_mol for i in seq)
        assert r == pytest.approx(math.exp((gsa - spec.cutoff) / spec.cutoff), rel=1e-12)
        rewards[seq] = r
    assert len(rewards) == 12
    assert min(rewards.values()) > 1.0  # cutoff sits below every fixture GSA


def test_reward_model_zero_below_cutoff(bridge_env):
    high = RewardModel(RewardSpec(cutoff=7000.0, surrogate_scale=1000.0), bridge_env)
    # gsa 3142.9 < 7000, then 14571.4
    (r_low, res), (r_high, _) = high.score_batch([(0, 3, 5), (2, 4, 6)])
    assert res.ok and r_low == 0.0
    assert r_high > 1.0


# -- external adapter ---------------------------------------------------------


def test_external_adapter_happy_path():
    adapter = AdapterConfig(command=stub_adapter_command(
        "import sys; sys.stdin.read(); print(4321.5)"))
    res = external_gsa(adapter, "bfx:N1,N4,E1")
    assert res.ok and res.value == 4321.5


def test_external_adapter_receives_record_and_flags():
    body = (
        "import sys\n"
        "line = sys.stdin.readline().strip()\n"
        "assert line == 'bfx:N1,N4,E1', line\n"
        "assert '--probe-radius=1.525' in sys.argv, sys.argv\n"
        "assert '--samples=2000' in sys.argv, sys.argv\n"
        "print(123.0)\n"
    )
    res = external_gsa(AdapterConfig(command=stub_adapter_command(body)), "bfx:N1,N4,E1")
    assert res.ok, res.error


@pytest.mark.parametrize("body,needle", [
    ("import sys; sys.exit(3)", "exit code 3"),
    ("print('not-a-number')", "not a number"),
    ("pass", "no output"),
    ("print(float('nan'))", "not finite"),
])
def test_external_adapter_failures_become_results(body, needle):
    res = external_gsa(AdapterConfig(command=stub_adapter_command(body)), "x:N1")
    assert not res.ok
    assert needle in res.error


def test_external_adapter_timeout():
    adapter = AdapterConfig(command=stub_adapter_command("import time; time.sleep(30)"),
                            timeout_s=0.5)
    res = external_gsa(adapter, "x:N1")
    assert not res.ok
    assert "did not run" in res.error


def _running(pid: int) -> bool:
    """True while pid names a live process; a zombie counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _gone_soon(pid: int, within_s: float = 1.0) -> bool:
    deadline = time.monotonic() + within_s
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return not _running(pid)


def forking_adapter(pid_file) -> tuple[str, ...]:
    """An adapter that starts one sleeping child, notes its pid, then hangs."""
    return stub_adapter_command(
        "import pathlib, subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(4)'])\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(child.pid))\n"
        "time.sleep(4)\n")


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_external_adapter_timeout_kills_its_children(tmp_path):
    pid_file = tmp_path / "child.pid"
    adapter = AdapterConfig(command=forking_adapter(pid_file), timeout_s=1.0)
    res = external_gsa(adapter, "x:N1")
    assert not res.ok and "did not run" in res.error
    assert _gone_soon(int(pid_file.read_text()))


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("error", [KeyboardInterrupt, OSError])
def test_external_adapter_interrupted_wait_kills_its_children(tmp_path, monkeypatch, error):
    # the wait for the adapter's answer is cut short once its child runs:
    # an interrupt propagates, any other error becomes a failed result,
    # and neither leaves a process behind
    pid_file = tmp_path / "child.pid"
    adapters = []
    real_communicate = subprocess.Popen.communicate

    def cut_short(self, input=None, timeout=None):
        if adapters:
            return real_communicate(self, input, timeout)
        adapters.append(self)
        deadline = time.monotonic() + 5.0
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        time.sleep(0.05)  # let the pid write finish
        raise error("wait cut short")

    monkeypatch.setattr(subprocess.Popen, "communicate", cut_short)
    adapter = AdapterConfig(command=forking_adapter(pid_file))
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            external_gsa(adapter, "x:N1")
    else:
        res = external_gsa(adapter, "x:N1")
        assert not res.ok and "wait cut short" in res.error
    assert adapters[0].returncode is not None  # the adapter was reaped
    assert _gone_soon(int(pid_file.read_text()))


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_interrupted_parallel_batch_kills_running_adapters(bridge_env, tmp_path, monkeypatch):
    # two workers, three sequences: the interrupt comes once two adapters
    # run; they are killed, not waited on, and the third never starts
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    body = ("import os, pathlib, time\n"
            f"pathlib.Path({str(pid_dir)!r}, str(os.getpid())).touch()\n"
            "time.sleep(10)\n")
    adapter = AdapterConfig(command=stub_adapter_command(body), timeout_s=60.0)
    rm = RewardModel(RewardSpec(evaluator="external"), bridge_env, adapter=adapter)

    def interrupted(self, timeout=None):
        deadline = time.monotonic() + 5.0
        while len(list(pid_dir.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        raise KeyboardInterrupt

    monkeypatch.setattr(Future, "result", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        rm.score_batch(list(bridge_env.enumerate_terminals())[:3], workers=2)
    assert time.monotonic() - started < 5.0
    pids = [int(f.name) for f in pid_dir.iterdir()]
    assert len(pids) == 2
    assert not any(_running(pid) for pid in pids)


def test_external_adapter_missing_binary():
    res = external_gsa(AdapterConfig(command=("/no/such/binary",)), "x:N1")
    assert not res.ok


def test_adapter_config_validation():
    with pytest.raises(ConfigurationError):
        AdapterConfig(command=())
    with pytest.raises(ConfigurationError):
        AdapterConfig(command=("x",), timeout_s=0.0)


def test_external_evaluator_requires_adapter(bridge_env):
    with pytest.raises(ConfigurationError):
        RewardModel(RewardSpec(evaluator="external"), bridge_env)


def test_external_failure_scores_zero_and_does_not_raise(bridge_env):
    spec = RewardSpec(cutoff=100.0, evaluator="external")
    adapter = AdapterConfig(command=stub_adapter_command("import sys; sys.exit(1)"))
    rm = RewardModel(spec, bridge_env, adapter=adapter)
    [(r, res)] = rm.score_batch([(0, 3, 5)])
    assert r == 0.0 and not res.ok


def test_memoization_calls_adapter_once(bridge_env, tmp_path):
    counter = tmp_path / "calls"
    body = (
        "import sys, pathlib\n"
        "sys.stdin.read()\n"
        f"p = pathlib.Path({str(counter)!r})\n"
        "p.write_text(str(int(p.read_text()) + 1 if p.exists() else 1))\n"
        "print(9000.0)\n"
    )
    counter.write_text("0")
    spec = RewardSpec(cutoff=100.0, evaluator="external")
    rm = RewardModel(spec, bridge_env, adapter=AdapterConfig(command=stub_adapter_command(body)))
    first = rm.score_batch([(0, 3, 5), (0, 3, 5)])  # twice within one call
    second = rm.score_batch([(0, 3, 5)])  # and again in a second call
    assert first == second * 2
    assert first[0][0] > 0.0
    assert counter.read_text() == "1"


def test_score_batch_matches_direct_reward(bridge_env, bridge_reward):
    spec = bridge_reward.spec
    seqs = list(bridge_env.enumerate_terminals())[:5] * 2
    batch = bridge_reward.score_batch(seqs)
    assert len(batch) == 10
    for seq, (r, res) in zip(seqs, batch):
        gsa = surrogate_gsa(bridge_env.vocabulary, seq, spec.surrogate_scale)
        assert (r, res.value) == (reward(spec, gsa), gsa)


def test_score_batch_threaded_external(bridge_env):
    spec = RewardSpec(cutoff=100.0, evaluator="external")
    body = "import sys; line = sys.stdin.readline(); print(float(len(line)) * 100)"
    rm = RewardModel(spec, bridge_env, adapter=AdapterConfig(command=stub_adapter_command(body)))
    seqs = list(bridge_env.enumerate_terminals())
    threaded = rm.score_batch(seqs, workers=4)
    plain = RewardModel(spec, bridge_env, adapter=AdapterConfig(command=stub_adapter_command(body)))
    sequential = plain.score_batch(seqs, workers=1)
    assert [r for r, _ in threaded] == [r for r, _ in sequential]
