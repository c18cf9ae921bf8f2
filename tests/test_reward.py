import math
import os
import subprocess
import sys
import time
from concurrent.futures import Future

import numpy as np
import pytest

from blockflow import (AdapterConfig, RewardModel, RewardSpec, exact_flows, external_gsa,
                       reward, surrogate_gsa)
from blockflow.cli import load_run_config
from blockflow.errors import ValidationError
from conftest import CONFIGS, prefix_flow, process_running, stub_adapter_command, terminal_tuples

SPEC = RewardSpec(cutoff=5000.0)


def test_reward_spot_values():
    c = SPEC.cutoff
    assert reward(SPEC, c) == 1.0  # step is closed at the cutoff
    assert reward(SPEC, 2 * c) == pytest.approx(math.e, abs=1e-12)
    assert reward(SPEC, 0.9 * c) == 0.0
    assert reward(SPEC, 0.0) == 0.0
    assert reward(SPEC, math.nan) == 0.0  # a failed evaluation
    assert reward(SPEC, None) == 0.0
    assert reward(SPEC, math.inf) == 0.0
    assert type(reward(SPEC, c)) is float


def test_reward_of_an_array_is_the_reward_of_each_element():
    c = SPEC.cutoff
    gsa = np.array([[c, 2 * c, 0.9 * c], [math.nan, math.inf, -math.inf]])
    expected = [[reward(SPEC, g) for g in row] for row in gsa.tolist()]
    assert reward(SPEC, gsa).tolist() == expected


def test_reward_is_monotone_above_cutoff():
    gsas = np.linspace(5000, 20000, 50)
    vals = [reward(SPEC, g) for g in gsas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("floor", [1e-6, 1e-3])
def test_reward_floor_enters_the_flows_but_not_the_reported_reward(bridge_env, floor):
    # cutoff 7000: 4 of the 12 bridge terminals score 0 and flow at the floor
    rm = RewardModel(RewardSpec(cutoff=7000.0, reward_floor=floor, surrogate_scale=1000.0),
                     bridge_env)
    terminals = terminal_tuples(bridge_env)
    rewards = rm.score_batch(terminals).reward.tolist()
    flows = exact_flows(bridge_env, rm)
    assert sum(r == 0.0 for r in rewards) == 4
    for seq, r in zip(terminals, rewards):
        assert prefix_flow(flows, seq) == (floor if r == 0.0 else r)


def test_spec_validation():
    with pytest.raises(ValidationError, match="reward cutoff must be finite and positive, got 0.0"):
        RewardSpec(cutoff=0.0)
    with pytest.raises(ValidationError, match=r"reward floor must be in \(0, 1\]"):
        RewardSpec(reward_floor=0.0)
    with pytest.raises(ValidationError, match=r"reward floor must be in \(0, 1\]"):
        RewardSpec(reward_floor=2.0)
    with pytest.raises(ValidationError, match="surrogate scale must be finite and positive, got -1.0"):
        RewardSpec(surrogate_scale=-1.0)
    with pytest.raises(ValidationError, match="unknown evaluator 'dft'"):
        RewardSpec(evaluator="dft")


def test_surrogate_matches_independent_recompute(bridge_env):
    # plain-python recompute over token objects, no shared numpy path
    vocab = bridge_env.vocabulary
    for seq in terminal_tuples(bridge_env):
        mass = sum(vocab[i].mass_g_mol for i in seq)
        surface = sum(vocab[i].surface_a2 for i in seq)
        expect = 1000.0 * surface / mass
        assert surrogate_gsa(vocab, seq, scale=1000.0) == pytest.approx(expect, rel=1e-14)
        assert mass == 175.0  # fixture is mass-uniform by construction


def test_surrogate_known_value(bridge_env):
    # N1 + N4 + E1: surfaces 300+200+50, masses 100+50+25
    assert surrogate_gsa(bridge_env.vocabulary, (0, 3, 5), scale=1000.0) == \
        pytest.approx(1000.0 * 550.0 / 175.0, rel=1e-15)
    assert type(surrogate_gsa(bridge_env.vocabulary, (0, 3, 5))) is float


@pytest.mark.parametrize("config", ["train_grid.json", "train_bridge.json"])
def test_array_scores_bit_equal_the_scalar_formula_on_every_terminal(config):
    # the benchmark checks each written score with `==` against the scalar calls
    run = load_run_config(CONFIGS / config)
    spec, vocab = run.reward_spec, run.env.vocabulary
    terminals = terminal_tuples(run.env)
    scores = RewardModel(spec, run.env).score_batch(terminals)
    gsa = [surrogate_gsa(vocab, seq, spec.surrogate_scale) for seq in terminals]
    assert scores.gsa.tolist() == gsa
    assert scores.reward.tolist() == [reward(spec, g) for g in gsa]
    assert scores.errors == {}


def test_surrogate_rows_bit_equal_single_sequences_on_long_rows(bridge_env):
    # rows of 8 or more tokens take numpy's blocked summation
    rng = np.random.Generator(np.random.PCG64(5))
    rows = rng.integers(0, len(bridge_env.vocabulary), (200, 37))
    expected = [surrogate_gsa(bridge_env.vocabulary, tuple(row), 3.0) for row in rows.tolist()]
    assert surrogate_gsa(bridge_env.vocabulary, rows, 3.0).tolist() == expected


def test_reward_model_twelve_terminal_table(bridge_env, bridge_reward):
    spec = bridge_reward.spec
    rewards = {}
    terminals = terminal_tuples(bridge_env)
    scores = bridge_reward.score_batch(terminals)
    assert scores.errors == {} and not np.isnan(scores.gsa).any()
    for seq, r in zip(terminals, scores.reward.tolist()):
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
    scores = high.score_batch([(0, 3, 5), (2, 4, 6)])
    r_low, r_high = scores.reward.tolist()
    assert scores.errors == {} and r_low == 0.0
    assert r_high > 1.0


# -- external adapter ---------------------------------------------------------


def test_external_adapter_happy_path():
    adapter = AdapterConfig(command=stub_adapter_command(
        "import sys; sys.stdin.read(); print(4321.5)"))
    assert external_gsa(adapter, "bfx:N1,N4,E1") == (4321.5, None)


def test_external_adapter_runs_its_command_as_given():
    body = (
        "import sys\n"
        "line = sys.stdin.readline().strip()\n"
        "assert line == 'bfx:N1,N4,E1', line\n"
        "assert sys.argv == ['-c'], sys.argv\n"  # the command as given, and no flag after it
        "print(123.0)\n"
    )
    gsa, error = external_gsa(AdapterConfig(command=stub_adapter_command(body)), "bfx:N1,N4,E1")
    assert error is None and gsa == 123.0, error


@pytest.mark.parametrize("body,needle", [
    ("import sys; sys.exit(3)", "exit code 3"),
    ("print('not-a-number')", "not a number"),
    ("pass", "no output"),
    ("print(float('nan'))", "not finite"),
    # an answer that is not UTF-8 is a failed evaluation, not a traceback
    ("import sys; sys.stdout.buffer.write(bytes([255]) + b'12')", "not a number"),
    ("import sys; sys.stderr.buffer.write(bytes([255])); sys.exit(3)", "exit code 3"),
])
def test_external_adapter_failures_become_results(body, needle):
    gsa, error = external_gsa(AdapterConfig(command=stub_adapter_command(body)), "x:N1")
    assert np.isnan(gsa)
    assert needle in error


def test_external_adapter_timeout():
    adapter = AdapterConfig(command=stub_adapter_command("import time; time.sleep(30)"),
                            timeout_s=0.5)
    gsa, error = external_gsa(adapter, "x:N1")
    assert np.isnan(gsa)
    assert "did not run" in error


def _gone_soon(pid: int, within_s: float = 1.0) -> bool:
    deadline = time.monotonic() + within_s
    while process_running(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return not process_running(pid)


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
    gsa, error = external_gsa(adapter, "x:N1")
    assert np.isnan(gsa) and "did not run" in error
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
        gsa, error = external_gsa(adapter, "x:N1")
        assert np.isnan(gsa) and "wait cut short" in error
    assert adapters[0].returncode is not None  # the adapter was reaped
    assert _gone_soon(int(pid_file.read_text()))


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("slots", [1, 2])
def test_interrupted_parallel_batch_kills_running_adapters(bridge_env, tmp_path, monkeypatch,
                                                          set_evaluation_slots, slots):
    # three sequences: the interrupt comes once `slots` adapters run; they
    # are killed, not waited on, and the rest never start
    set_evaluation_slots(slots)
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    body = ("import os, pathlib, time\n"
            f"pathlib.Path({str(pid_dir)!r}, str(os.getpid())).touch()\n"
            "time.sleep(10)\n")
    adapter = AdapterConfig(command=stub_adapter_command(body), timeout_s=60.0)
    rm = RewardModel(RewardSpec(evaluator="external"), bridge_env, adapter=adapter)

    def interrupted(self, timeout=None):
        deadline = time.monotonic() + 5.0
        while len(list(pid_dir.iterdir())) < slots and time.monotonic() < deadline:
            time.sleep(0.02)
        raise KeyboardInterrupt

    monkeypatch.setattr(Future, "result", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        rm.score_batch(bridge_env.enumerate_terminals()[:3])
    assert time.monotonic() - started < 5.0
    pids = [int(f.name) for f in pid_dir.iterdir()]
    assert len(pids) == slots
    assert not any(process_running(pid) for pid in pids)


def test_external_adapter_missing_binary():
    gsa, error = external_gsa(AdapterConfig(command=("/no/such/binary",)), "x:N1")
    assert np.isnan(gsa) and error


def test_adapter_config_validation():
    with pytest.raises(ValidationError, match="adapter command is empty"):
        AdapterConfig(command=())
    with pytest.raises(ValidationError, match="adapter timeout must be finite and positive, got 0.0"):
        AdapterConfig(command=("x",), timeout_s=0.0)


def test_external_evaluator_requires_adapter(bridge_env):
    with pytest.raises(ValidationError, match="adapter config goes with the external evaluator"):
        RewardModel(RewardSpec(evaluator="external"), bridge_env)


def test_external_failure_scores_zero_and_does_not_raise(bridge_env):
    spec = RewardSpec(cutoff=100.0, evaluator="external")
    adapter = AdapterConfig(command=stub_adapter_command("import sys; sys.exit(1)"))
    rm = RewardModel(spec, bridge_env, adapter=adapter)
    scores = rm.score_batch([(0, 3, 5)])
    assert scores.reward.tolist() == [0.0] and np.isnan(scores.gsa[0])
    assert scores.errors == {0: "adapter exit code 1: "}


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
    assert first.reward.tolist() == second.reward.tolist() * 2
    assert first.gsa.tolist() == [9000.0, 9000.0]
    assert first.reward[0] > 0.0
    assert counter.read_text() == "1"


def test_score_batch_matches_direct_reward(bridge_env, bridge_reward):
    spec = bridge_reward.spec
    seqs = terminal_tuples(bridge_env)[:5] * 2
    batch = bridge_reward.score_batch(seqs)
    assert batch.gsa.shape == batch.reward.shape == (10,)
    for seq, r, g in zip(seqs, batch.reward.tolist(), batch.gsa.tolist()):
        gsa = surrogate_gsa(bridge_env.vocabulary, seq, spec.surrogate_scale)
        assert (r, g) == (reward(spec, gsa), gsa)


def _most_at_once(marker_dir) -> int:
    """Most adapters running at one time, from their start and end markers."""
    events = []
    for f in marker_dir.iterdir():
        kind, _ = f.name.split("-")
        events.append((int(f.read_text()), 1 if kind == "start" else -1))
    running = most = 0
    for _, step in sorted(events):  # at a tie an end counts before a start
        running += step
        most = max(most, running)
    return most


@pytest.mark.parametrize("slots", [1, 3])
def test_score_batch_runs_at_most_slots_adapters_at_once(bridge_env, tmp_path,
                                                         set_evaluation_slots, slots):
    set_evaluation_slots(slots)
    markers = tmp_path / "markers"
    markers.mkdir()
    body = ("import os, pathlib, sys, time\n"
            f"def mark(kind): pathlib.Path({str(markers)!r}, f'{{kind}}-{{os.getpid()}}')"
            ".write_text(str(time.time_ns()))\n"
            "mark('start')\n"
            "line = sys.stdin.readline()\n"
            "time.sleep(0.05)\n"
            "print(float(len(line)) * 100)\n"
            "mark('end')\n")
    spec = RewardSpec(cutoff=100.0, evaluator="external")
    rm = RewardModel(spec, bridge_env, adapter=AdapterConfig(command=stub_adapter_command(body)))
    seqs = terminal_tuples(bridge_env)
    seqs = seqs[::-1] + seqs[:4]  # repeats are read from the cache
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
    try:
        scored = rm.score_batch(seqs)
    finally:
        sys.setswitchinterval(interval)
    assert len(list(markers.iterdir())) == 2 * 12  # each distinct sequence ran once
    assert 1 <= _most_at_once(markers) <= slots
    expected = [float(len(record) + 1) * 100 for record in bridge_env.format_assembly_records(seqs)]
    assert scored.gsa.tolist() == expected  # in input order
    assert scored.reward.tolist() == [reward(spec, g) for g in expected]
