import csv
import dataclasses
import filecmp
import math
import os
import time
import tracemalloc
import weakref
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from blockflow import (Adam, AdapterConfig, Environment, FlowModel, ModelConfig, RewardModel,
                       RewardSpec, Topology, TrainConfig, Vocabulary,
                       exact_flows, load_checkpoint, rollout, train)
from blockflow import autodiff
from blockflow.autodiff import masked_log_softmax
from blockflow.cli import load_run_config
from blockflow.dataset import _Uniform
from blockflow.errors import BlockflowError, ValidationError
from blockflow.model import _HEAD_ROWS, _ROWS
from blockflow.trainer import _window_means
from conftest import (CONFIGS, FIXTURES, TabularPolicy, flow_log_prob, process_running,
                      stub_adapter_command, surrogate_adapter_command, terminal_tuples, zero_model)

SMALL = ModelConfig(vocab_size=7, embed_dim=8, hidden_dim=12)


def small_model(seed=0):
    return FlowModel.init(SMALL, seed=seed)


def quick_config(**kw):
    base = dict(learning_rate_model=5e-3, learning_rate_logz=5e-2,
                max_episodes=64, batch_size=8, stop_window=32,
                stop_threshold=1e-9, smooth_window=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def episode_log_prob(model, env, actions):
    """Log-prob of one action sequence, stepping the model at batch 1."""
    total = 0.0
    state = None
    token = model.start_token
    for t, action in enumerate(actions):
        logits, state = model.step([token], state)
        total += float(masked_log_softmax(logits, env.slot_masks[t])[0, action])
        token = action
    return total


def chi_squared(counts, expected):
    return sum((counts.get(seq, 0) - e) ** 2 / e for seq, e in expected.items())


def test_rollout_respects_masks(bridge_env, rng):
    model = small_model()
    actions, log_prob_sum = rollout(model, bridge_env, rng, 50)
    assert actions.shape == (50, bridge_env.n_slots)
    assert log_prob_sum.shape == (50,)
    bridge_env.check_sequences(actions)
    assert np.all(log_prob_sum <= 0.0)


def test_rollout_deterministic_per_stream(bridge_env):
    model = small_model()
    a, lp_a = rollout(model, bridge_env, np.random.Generator(np.random.PCG64(9)), 20)
    b, lp_b = rollout(model, bridge_env, np.random.Generator(np.random.PCG64(9)), 20)
    np.testing.assert_array_equal(a, b)
    assert lp_a.tobytes() == lp_b.tobytes()


def test_rollout_consumes_one_draw_per_slot(bridge_env):
    model = small_model()
    rng1 = np.random.Generator(np.random.PCG64(42))
    rollout(model, bridge_env, rng1, 5)
    rng2 = np.random.Generator(np.random.PCG64(42))
    rng2.random(5 * bridge_env.n_slots)
    # both generators must now sit at the same point in the stream
    assert rng1.random() == rng2.random()


def test_rollout_draws_are_episode_major(bridge_env):
    # one call for n episodes reads the stream like n calls for one episode
    model = small_model(seed=2)
    together, lp_together = rollout(model, bridge_env, np.random.Generator(np.random.PCG64(4)), 30)
    rng = np.random.Generator(np.random.PCG64(4))
    one_by_one = [rollout(model, bridge_env, rng, 1) for _ in range(30)]
    np.testing.assert_array_equal(together, np.vstack([a for a, _ in one_by_one]))
    np.testing.assert_allclose(lp_together, [float(lp[0]) for _, lp in one_by_one],
                               rtol=1e-12)


def test_epsilon_one_is_uniform_chi_squared(bridge_env):
    # with full exploration the behavior policy is uniform per slot
    model = small_model()
    rng = np.random.Generator(np.random.PCG64(7))
    n = 6000
    actions, _ = rollout(model, bridge_env, rng, n, epsilon=1.0)
    counts = Counter(map(tuple, actions.tolist()))
    assert sum(counts.values()) == n
    chi2 = chi_squared(counts, {seq: n / 12.0 for seq in terminal_tuples(bridge_env)})
    # 11 dof, alpha = 1e-3
    assert chi2 < stats.chi2.ppf(0.999, 11)


def test_epsilon_records_pure_policy_log_probs(bridge_env):
    model = small_model()
    for eps in (0.0, 0.5, 1.0):
        rng = np.random.Generator(np.random.PCG64(3))
        actions, log_prob_sum = rollout(model, bridge_env, rng, 200, epsilon=eps)
        for seq, got in zip(actions.tolist(), log_prob_sum):
            assert got == pytest.approx(episode_log_prob(model, bridge_env, seq), rel=1e-12)


def test_rollout_zero_init_draws_are_uniform(bridge_env):
    # a zero-init model and baseline's zero-logit policy are uniform, so batch draws should be too
    for policy in (zero_model(SMALL), _Uniform(bridge_env)):
        rng = np.random.Generator(np.random.PCG64(11))
        actions, _ = rollout(policy, bridge_env, rng, 6000)
        bridge_env.check_sequences(actions)
        counts = Counter(map(tuple, actions.tolist()))
        assert len(counts) == 12
        chi2 = chi_squared(counts, {seq: 6000 / 12.0 for seq in terminal_tuples(bridge_env)})
        assert chi2 < stats.chi2.ppf(0.999, 11)


def test_rollout_matches_model_distribution(bridge_env):
    # a sharpened random model is far from uniform; the batched draws must
    # follow the terminal probabilities obtained by stepping it one by one
    model = small_model(seed=8)
    model.parameters()["w_out"] *= 6.0
    probs = {seq: math.exp(episode_log_prob(model, bridge_env, seq))
             for seq in terminal_tuples(bridge_env)}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert max(probs.values()) > 2 * min(probs.values())
    n = 6000
    actions, _ = rollout(model, bridge_env, np.random.Generator(np.random.PCG64(12)), n)
    counts = Counter(map(tuple, actions.tolist()))
    chi2 = chi_squared(counts, {seq: n * p for seq, p in probs.items()})
    assert chi2 < stats.chi2.ppf(0.999, 11)


def test_rollout_of_tabular_policy_matches_reward_over_z(bridge_env, bridge_reward):
    flows = exact_flows(bridge_env, bridge_reward)
    policy = TabularPolicy(flows, bridge_env)
    n = 20000
    actions, log_prob_sum = rollout(policy, bridge_env, np.random.Generator(np.random.PCG64(2)), n)
    counts = Counter(map(tuple, actions.tolist()))
    for seq, p in flows.terminal_probs.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts.get(seq, 0) - n * p) < 4 * sigma, seq
    for seq, got in zip(actions.tolist()[:50], log_prob_sum):
        assert got == pytest.approx(math.log(flows.terminal_probs[tuple(seq)]), abs=1e-12)


def test_shared_rows_give_each_episode_its_own_pick(single_env):
    # log_prob[b] = log_probs[rows[b], picks[b]]: on one slot every episode
    # shares the start row, and each reads the log-prob of its own pick
    model = small_model(seed=3)
    actions, log_prob_sum = rollout(model, single_env, np.random.Generator(np.random.PCG64(5)), 40)
    logits, _ = model.step([model.start_token])
    row = masked_log_softmax(logits, single_env.slot_masks[0])[0]
    np.testing.assert_array_equal(log_prob_sum, row[actions[:, 0]])
    picks = Counter(actions[:, 0].tolist())
    assert len(picks) > 1 and max(picks.values()) > 1  # distinct and repeated picks


class StepRecorder:
    """A policy wrapper that records how many state rows each step is given."""

    def __init__(self, policy):
        self.policy = policy
        self.start_token = policy.start_token
        self.rows = []

    def step(self, tokens, state=None, cache=None, **rows):
        self.rows.append(len(tokens))
        return self.policy.step(tokens, state, cache, **rows)


def replay_episode(policy, env, u, epsilon):
    """One episode stepped alone: the inverse-cdf pick of each slot's u, and
    the summed log-prob of the picks."""
    actions, total = [], 0.0
    token, state = policy.start_token, None
    for t in range(env.n_slots):
        logits, state = policy.step([token], state)
        log_probs = masked_log_softmax(logits, env.slot_masks[t])[0]
        valid = np.flatnonzero(env.slot_masks[t])
        probs = (1.0 - epsilon) * np.exp(log_probs[valid]) + epsilon / valid.shape[0]
        pick = np.searchsorted(np.cumsum(probs / probs.sum()), u[t], side="right")
        token = int(valid[min(pick, valid.shape[0] - 1)])
        actions.append(token)
        total += log_probs[token]
    return actions, total


def _grid_env():
    return Environment(Topology.load(FIXTURES / "topo_grid.json"),
                       Vocabulary.load(FIXTURES / "vocab_grid.csv"))


def record_cell_rows(monkeypatch) -> list[int]:
    """Record how many rows each LSTM cell call is given, from now on."""
    rows, cell = [], autodiff.lstm_cell

    def recorded(x, *args):
        rows.append(x.shape[0])
        return cell(x, *args)

    monkeypatch.setattr(autodiff, "lstm_cell", recorded)
    return rows


def slot_blocks(calls, prefixes):
    """Split the rows of each cell call into the slots whose distinct-prefix
    counts are `prefixes`, checking that every call is a block of at most
    `_ROWS` rows and that no slot of more than one row steps a 1-row block."""
    calls, stepped = iter(calls), []
    for count in prefixes:
        blocks = []
        while sum(blocks) < count:
            blocks.append(next(calls))
        assert max(blocks) <= _ROWS and (len(blocks) == 1 or min(blocks) > 1), blocks
        stepped.append(blocks)
    assert next(calls, None) is None
    return stepped


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_shared_prefix_rollout_matches_the_cached_path(bridge_env, bridge_reward, seed,
                                                       monkeypatch):
    # without a cache, episodes sharing a prefix share one state row; the
    # draws must be the ones every-episode-its-own-row sampling makes
    grid_env = _grid_env()
    grid_model = FlowModel.init(ModelConfig(vocab_size=len(grid_env.vocabulary),
                                            embed_dim=8, hidden_dim=16), seed=seed)
    # bridge_reward is of product form, so its exact policy's conditionals never
    # depend on the earlier tokens; cutoff 7000 floors 4 terminals, so they do
    floored = RewardModel(RewardSpec(cutoff=7000.0, surrogate_scale=1000.0), bridge_env)
    cases = [
        (bridge_env, small_model(seed), 400, 0.0),
        (bridge_env, TabularPolicy(exact_flows(bridge_env, bridge_reward), bridge_env), 400, 0.0),
        (bridge_env, TabularPolicy(exact_flows(bridge_env, floored), bridge_env), 400, 0.0),
        (grid_env, grid_model, 3000, 0.0),
        (grid_env, grid_model, 3000, 0.1),
    ]
    cell_rows = record_cell_rows(monkeypatch)
    for env, policy, n, epsilon in cases:
        shared = StepRecorder(policy)
        cell_rows.clear()
        actions, log_prob_sum = rollout(shared, env, np.random.Generator(np.random.PCG64(seed)),
                                        n, epsilon)
        shared_cells = list(cell_rows)
        if isinstance(policy, FlowModel):  # the only policy that keeps a cache
            cached, cache = StepRecorder(policy), []
            cached_actions, cached_log_prob_sum = rollout(
                cached, env, np.random.Generator(np.random.PCG64(seed)), n, epsilon, cache)
            np.testing.assert_array_equal(actions, cached_actions)
            np.testing.assert_allclose(log_prob_sum, cached_log_prob_sum, rtol=1e-12, atol=0)
            assert cached.rows == [n] * env.n_slots and len(cache) == env.n_slots
            for t, record in enumerate(cache):
                np.testing.assert_array_equal(record["actions"], cached_actions[:, t])
        u = np.random.Generator(np.random.PCG64(seed)).random((n, env.n_slots))
        for i in range(0, n, n // 20):
            alone, total = replay_episode(policy, env, u[i], epsilon)
            assert actions[i].tolist() == alone, i
            assert log_prob_sum[i] == pytest.approx(total, rel=1e-12), i
        prefixes = [len({tuple(row[:t]) for row in actions.tolist()}) for t in range(env.n_slots)]
        assert shared.rows == prefixes
        if isinstance(policy, FlowModel):
            # the cell steps each slot's prefixes in blocks of at most _ROWS rows
            assert [sum(blocks) for blocks in slot_blocks(shared_cells, prefixes)] == prefixes
    # the grid has 10 tokens per slot: 1, 10, 100 and 1,000 distinct prefixes at most
    assert all(rows <= 10 ** t for t, rows in enumerate(shared.rows))
    assert shared.rows[-1] > 3 * _ROWS  # so the last slot steps in 4 blocks


@pytest.mark.parametrize("m", [255, 256, 257, 513, 769])
@pytest.mark.parametrize("start", [True, False])
def test_blocked_step_matches_one_cell_over_all_rows(m, start, monkeypatch):
    # a 256-row split of 257, 513 or 769 rows would leave a 1-row block, whose
    # products BLAS takes on its matrix-vector path and can round differently.
    # The reference is one cell over all rows and the head, computed here; a
    # cached step records each block's forward values in place
    env = _grid_env()
    model = FlowModel.init(load_run_config(CONFIGS / "train_grid.json").model_config, seed=1)
    rng = np.random.Generator(np.random.PCG64(m))
    hid = model.config.hidden_dim
    if start:
        tokens, state = np.full(m, model.start_token), None
    else:
        tokens = rng.integers(0, len(env.vocabulary), m)
        state = (rng.uniform(-1, 1, (m, hid)), rng.uniform(-2, 2, (m, hid)))
    cell_rows = record_cell_rows(monkeypatch)
    logits, (h, c) = model.step(tokens, state)
    assert len(slot_blocks(cell_rows, [m])[0]) == -(-m // _ROWS)
    p = model.parameters()
    whole_h, whole_c, whole_gates, whole_tanh_c = autodiff.lstm_cell(
        p["embed"][tokens], None if state is None else (state[0] @ p["w_h"], state[1]),
        p["w_x"], p["b"])
    whole_logits = whole_h @ p["w_out"] + p["b_out"]
    assert cell_rows[-1] == m
    np.testing.assert_array_equal(logits, whole_logits)
    np.testing.assert_array_equal(h, whole_h)
    np.testing.assert_array_equal(c, whole_c)
    cache = []
    cached_logits, (cached_h, cached_c) = model.step(tokens, state, cache)
    for got, want in ((cached_logits, logits), (cached_h, h), (cached_c, c),
                      (cache[0]["h"], h), (cache[0]["gates"], whole_gates),
                      (cache[0]["tanh_c"], whole_tanh_c)):
        np.testing.assert_array_equal(got, want)
    assert cache[0]["state"] is state and cache[0]["tokens"].tolist() == list(tokens)
    # a last step with no cache builds h and the head one group of rows at a time
    cell_rows.clear()
    last_logits, last_state = model.step(tokens, state, last=True)
    slot_blocks(cell_rows, [m])  # still blocks of at most _ROWS rows, none of one row
    assert last_state is None
    np.testing.assert_array_equal(last_logits, whole_logits)


def test_shared_rollout_memory_is_bounded_by_the_row_block():
    # numpy reports its buffers to tracemalloc. Past the episodes' uniforms
    # and actions, the last slot holds one head group of its prefixes' h, its
    # parents' (h, c) and their h @ w_h, and a few blocks of the cell: no c
    # and no state gathered out to the prefixes. Gathering (h, c) to the
    # 1,000 prefixes, building their c and multiplying each by w_h peaked at
    # 13.5 MiB in this test with 256-row blocks; without, 4.9 MiB, and with
    # h built one head group at a time, 4.2 MiB.
    env = _grid_env()
    model = FlowModel.init(load_run_config(CONFIGS / "train_grid.json").model_config, seed=0)
    hid = model.config.hidden_dim
    tracemalloc.start()
    try:
        actions, _ = rollout(model, env, np.random.Generator(np.random.PCG64(0)), 8000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    prefixes = [len({tuple(row[:t]) for row in actions.tolist()}) for t in (2, 3)]
    assert prefixes[0] == 100 and 3 * _ROWS < prefixes[1] <= 1000
    draws = 2 * actions.nbytes  # the uniforms and the actions
    h = _HEAD_ROWS * hid * 8  # one head group of the last slot's h
    parents = 100 * (2 * hid + 4 * hid) * 8  # its 100 parents' (h, c) and h @ w_h
    block = _ROWS * 4 * hid * 8  # one block's gate pre-activations
    assert peak < draws + h + parents + 8 * block


def test_rollout_validation(bridge_env, rng):
    model = small_model()
    for n in (0, -1):
        with pytest.raises(ValidationError, match="rollout size must be >= 1"):
            rollout(model, bridge_env, rng, n)
    for eps in (-0.1, 1.5):
        with pytest.raises(ValidationError, match=r"exploration epsilon must be in \[0, 1\]"):
            rollout(model, bridge_env, rng, 4, epsilon=eps)


def test_metrics_loss_is_squared_balance_residual(tmp_path):
    # the loss column is (logZ + sum log pi - log floored R)^2, spelled out
    # by hand from an independent batch-1 replay of the same draws
    env, reward_model = _fresh_setup()
    train(quick_config(max_episodes=8), small_model(seed=3), env, reward_model, out_dir=tmp_path)
    rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    model = small_model(seed=3)
    actions, _ = rollout(model, env, np.random.Generator(np.random.PCG64(0)), 8)
    assert len(rows) == 8
    scores = reward_model.score_batch(actions)
    for row, seq, r in zip(rows, actions.tolist(), scores.reward.tolist()):
        episode, loss, _, log_z, rwd, _ = row.split(",")
        residual = model.log_z_value + episode_log_prob(model, env, seq) - math.log(
            max(r, reward_model.spec.reward_floor))
        assert float(loss) == pytest.approx(residual ** 2, rel=1e-10)
        assert float(log_z) == model.log_z_value
        assert float(rwd) == r


def balance_loss(model, env, reward_model, seed, n, cache=None):
    """The mean squared balance residual of n episodes drawn from `seed`: the
    draws, the residuals and the loss."""
    actions, log_prob_sum = rollout(model, env, np.random.Generator(np.random.PCG64(seed)), n,
                                    cache=cache)
    floored = np.maximum(reward_model.score_batch(actions).reward, reward_model.spec.reward_floor)
    residual = model.parameters()["log_z"] + log_prob_sum - np.log(floored)
    return actions, residual, float(np.mean(residual * residual))


def balance_grad(model, env, reward_model, seed, n):
    """The draws and the gradient of `balance_loss`, by `FlowModel.balance_grad`."""
    cache = []
    actions, residual, _ = balance_loss(model, env, reward_model, seed, n, cache)
    return actions, model.balance_grad(cache, 2.0 * residual / n)


def test_train_update_is_adam_on_mean_squared_residual(tmp_path):
    env, reward_model = _fresh_setup()
    cfg = quick_config(max_episodes=8)
    trained = small_model(seed=3)
    train(cfg, trained, env, reward_model, out_dir=tmp_path)

    model = small_model(seed=3)
    actions, residual, loss = balance_loss(model, env, reward_model, cfg.seed, 8)
    log_probs = [episode_log_prob(model, env, seq) for seq in actions.tolist()]
    floored = [max(r, reward_model.spec.reward_floor)
               for r in reward_model.score_batch(actions).reward.tolist()]
    by_hand = np.mean([(model.log_z_value + lp - math.log(f)) ** 2
                       for lp, f in zip(log_probs, floored)])
    assert loss == pytest.approx(by_hand, rel=1e-12)
    balance_grad(model, env, reward_model, cfg.seed, 8)
    Adam(model.parameters(), lr=cfg.learning_rate_model,
         lr_overrides={"log_z": cfg.learning_rate_logz}).step(model.flat, model.grad)
    for name, param in trained.parameters().items():
        np.testing.assert_allclose(param, model.parameters()[name],
                                   rtol=1e-10, atol=1e-14, err_msg=name)


def test_rollout_gradient_fd_spot_check(bridge_env, bridge_reward):
    model = small_model(seed=5)
    actions, grads = balance_grad(model, bridge_env, bridge_reward, 1, 3)

    def loss_value():
        again, _, value = balance_loss(model, bridge_env, bridge_reward, 1, 3)
        np.testing.assert_array_equal(again, actions)  # same draws, same episodes
        return value

    h = 1e-6
    start = model.start_token  # the row all three episodes read at slot 0
    for name, idx in [("log_z", ()), ("w_out", (4, 2)), ("b", (7,)), ("embed", (2, 1)),
                      ("w_h", (3, 9)), *(("embed", (start, k)) for k in range(SMALL.embed_dim))]:
        param = model.parameters()[name]
        grad, orig = float(grads[name][idx]), float(param[idx])
        param[idx] = orig + h
        up = loss_value()
        param[idx] = orig - h
        down = loss_value()
        param[idx] = orig
        fd = (up - down) / (2 * h)
        denom = max(abs(fd), abs(grad), 1e-8)
        assert abs(fd - grad) / denom < 1e-4, (name, idx)


def test_one_slot_topology_leaves_w_h_alone(bridge_env, bridge_reward, single_env, tmp_path):
    # one slot starts from the zero state, so nothing reaches w_h: its
    # gradient is exactly zero, even in a buffer a longer rollout filled
    model = small_model(seed=6)
    _, grads = balance_grad(model, bridge_env, bridge_reward, 0, 4)
    assert np.any(grads["w_h"] != 0.0)
    single_reward = RewardModel(bridge_reward.spec, single_env)
    _, grads = balance_grad(model, single_env, single_reward, 0, 4)
    assert np.all(grads["w_h"] == 0.0) and np.any(grads["b"] != 0.0)
    w_h = model.parameters()["w_h"].copy()
    result = train(quick_config(max_episodes=16), model, single_env, single_reward,
                   out_dir=tmp_path)
    assert result.episodes_run == 16
    assert model.parameters()["w_h"].tobytes() == w_h.tobytes()


def _snapshot(arrays):
    return {name: np.array(value, copy=True) for name, value in arrays.items()}


def test_balance_grad_overwrites_the_same_buffers(bridge_env, bridge_reward):
    # a second backward over the same cache gives the same bytes, in the
    # same buffer: it is allocated once and never accumulates across calls
    model, cache = small_model(seed=7), []
    _, residual, _ = balance_loss(model, bridge_env, bridge_reward, 2, 6, cache)
    first = model.balance_grad(cache, 2.0 * residual / 6)
    buffer, values = model.grad, _snapshot(first)
    second = model.balance_grad(cache, 2.0 * residual / 6)
    assert model.grad is buffer and list(second) == list(model.parameters())
    for name, grad in second.items():
        assert grad.base is buffer, name
        assert grad.shape == model.parameters()[name].shape, name
        assert grad.tobytes() == values[name].tobytes(), name


def test_balance_grad_leaves_parameters_and_cache_alone(bridge_env, bridge_reward):
    model, cache = small_model(seed=8), []
    _, residual, _ = balance_loss(model, bridge_env, bridge_reward, 3, 5, cache)
    params = _snapshot(model.parameters())
    records = [_snapshot({k: v for k, v in rec.items() if isinstance(v, np.ndarray)})
               for rec in cache]
    model.balance_grad(cache, 2.0 * residual / 5)
    for name, value in model.parameters().items():
        assert value.tobytes() == params[name].tobytes(), name
    for rec, before in zip(cache, records):
        for key, value in before.items():
            assert rec[key].tobytes() == value.tobytes(), key


def test_log_z_gradient_is_the_sum_of_d_residual(bridge_env, bridge_reward):
    # d(residual_i)/d(log_z) = 1, so log_z's gradient is sum_i d_residual[i];
    # for the mean squared residual that is 2 * mean(residual)
    model = small_model(seed=9)
    actions, residual, _ = balance_loss(model, bridge_env, bridge_reward, 4, 8)
    _, grads = balance_grad(model, bridge_env, bridge_reward, 4, 8)
    assert grads["log_z"].shape == ()
    assert float(grads["log_z"]) == pytest.approx(2.0 * float(np.mean(residual)), rel=1e-14)
    cache = []
    balance_loss(model, bridge_env, bridge_reward, 4, 8, cache)
    zero = model.balance_grad(cache, np.zeros(len(actions)))
    for name, grad in zero.items():
        assert np.all(grad == 0.0), name


def test_balance_grad_sums_the_episodes_it_shares_rows_with(bridge_env, bridge_reward,
                                                            monkeypatch):
    # the gradient is linear in d_residual: the whole batch's gradient is the
    # sum of each episode's alone, even where episodes read one embed row.
    # 40 episodes step each slot in two 20-row blocks
    model = small_model(seed=10)
    cell_rows = record_cell_rows(monkeypatch)
    for n, blocks in ((6, [6]), (40, [20, 20])):
        cell_rows.clear()
        cache = []
        actions, residual, _ = balance_loss(model, bridge_env, bridge_reward, 5, n, cache)
        assert slot_blocks(cell_rows, [n] * bridge_env.n_slots) == [blocks] * bridge_env.n_slots
        d = 2.0 * residual / n
        whole = _snapshot(model.balance_grad(cache, d))
        parts = {name: np.zeros_like(g) for name, g in whole.items()}
        for i in range(len(d)):
            alone = model.balance_grad(cache, np.where(np.arange(len(d)) == i, d, 0.0))
            for name, grad in alone.items():
                parts[name] += grad
        for name in whole:
            np.testing.assert_allclose(whole[name], parts[name], rtol=1e-12, atol=1e-15,
                                       err_msg=f"{name}, {n} episodes")
        # every episode reads the start row first; no one reads the last slot's pick
        read = {model.start_token, *actions[:, :-1].ravel().tolist()}
        assert np.any(whole["embed"][model.start_token] != 0.0)
        for token in range(model.start_token + 1):
            if token not in read:
                assert np.all(whole["embed"][token] == 0.0), (token, n)


def test_train_nonfinite_residual_names_its_episode(tmp_path):
    env, reward_model = _fresh_setup()

    class NanOnThirdScore(RewardModel):
        def score_batch(self, rows):  # the first batch aborts the run
            scores = super().score_batch(rows)
            scores.reward[2] = math.nan
            return scores

    poisoned = NanOnThirdScore(reward_model.spec, env)
    with pytest.raises(BlockflowError, match="at episode 3;") as err:
        train(quick_config(max_episodes=8), small_model(), env, poisoned, out_dir=tmp_path)
    assert not isinstance(err.value, ValidationError)
    # the two episodes before it are logged
    assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 3


def test_exact_flow_policy_zeroes_every_residual(bridge_env, bridge_reward):
    # the flow-matching solution satisfies the balance identity exactly
    flows = exact_flows(bridge_env, bridge_reward)
    policy = TabularPolicy(flows, bridge_env)
    floor = bridge_reward.spec.reward_floor
    terminals = terminal_tuples(bridge_env)
    for seq, r in zip(terminals, bridge_reward.score_batch(terminals).reward.tolist()):
        log_probs = []
        prefix = ()
        for action in seq:
            log_probs.append(flow_log_prob(flows, prefix, action))
            prefix = prefix + (action,)
        assert abs(policy.log_z_value + sum(log_probs) - math.log(max(r, floor))) < 1e-12
    # and so does every episode the batched sampler draws from it
    actions, log_prob_sum = rollout(policy, bridge_env, np.random.Generator(np.random.PCG64(6)), 200)
    rewards = bridge_reward.score_batch(actions).reward.tolist()
    for r, lp in zip(rewards, log_prob_sum):
        assert abs(policy.log_z_value + lp - math.log(max(r, floor))) < 1e-12


def test_exact_flow_terminal_probs_are_reward_over_z(bridge_env, bridge_reward):
    flows = exact_flows(bridge_env, bridge_reward)
    z = math.exp(flows.log_z)
    total = 0.0
    terminals = terminal_tuples(bridge_env)
    for seq, r in zip(terminals, bridge_reward.score_batch(terminals).reward.tolist()):
        floored = max(r, bridge_reward.spec.reward_floor)
        p = flows.terminal_probs[seq]
        assert p == pytest.approx(floored / z, rel=1e-12)
        total += p
    assert total == pytest.approx(1.0, abs=1e-12)


# -- the loop itself ----------------------------------------------------------


def _fresh_setup():
    import conftest
    vocab = Vocabulary.load(conftest.FIXTURES / "vocab_bridge.csv")
    topo = Topology.load(conftest.FIXTURES / "topo_bridge.json")
    env = Environment(topo, vocab)
    reward_model = RewardModel(RewardSpec(cutoff=2500.0, surrogate_scale=1000.0), env)
    return env, reward_model


def test_train_scores_each_batch_in_one_call(tmp_path):
    env, reward_model = _fresh_setup()
    received = []

    class RecordsBatches(RewardModel):
        def score_batch(self, rows):
            received.append(len(rows))
            return super().score_batch(rows)

    train(quick_config(max_episodes=20), small_model(), env,
          RecordsBatches(reward_model.spec, env), out_dir=tmp_path)
    assert received == [8, 8, 4]


def test_train_counts_episodes_a_failed_evaluation_scored(tmp_path):
    env, reward_model = _fresh_setup()
    failing = AdapterConfig(command=stub_adapter_command(
        "import sys; sys.stderr.write('no surface today'); sys.exit(1)"))
    spec = dataclasses.replace(reward_model.spec, evaluator="external")
    result = train(quick_config(max_episodes=32), small_model(), env,
                   RewardModel(spec, env, adapter=failing), out_dir=tmp_path)
    assert result.evaluator_failures == 32
    assert result.first_evaluator_error == "adapter exit code 1: no surface today"


def test_parallel_external_training_writes_the_surrogate_bytes(tmp_path, monkeypatch,
                                                               set_evaluation_slots):
    run = load_run_config(CONFIGS / "train_bridge.json")
    config = dataclasses.replace(run.train_config, max_episodes=64)
    adapter = AdapterConfig(command=surrogate_adapter_command(
        FIXTURES / "vocab_bridge.csv", run.reward_spec.surrogate_scale))
    external_spec = dataclasses.replace(run.reward_spec, evaluator="external")
    submitted = []
    real_submit = ThreadPoolExecutor.submit
    monkeypatch.setattr(ThreadPoolExecutor, "submit",
                        lambda pool, *a, **kw: submitted.append(1) or real_submit(pool, *a, **kw))

    def train_into(name, reward_model):
        model = FlowModel.init(run.model_config, seed=run.init_seed)
        result = train(config, model, run.env, reward_model, out_dir=tmp_path / name)
        assert result.episodes_run == 64 and result.evaluator_failures == 0
        return tmp_path / name

    surrogate = train_into("surrogate", RewardModel(run.reward_spec, run.env))
    set_evaluation_slots(1)
    serial = train_into("serial", RewardModel(external_spec, run.env, adapter=adapter))
    assert submitted  # one slot: the misses went through a pool of one worker
    submitted.clear()
    set_evaluation_slots(3)
    parallel = train_into("parallel", RewardModel(external_spec, run.env, adapter=adapter))
    assert submitted
    for out in (serial, parallel):
        assert filecmp.cmp(surrogate / "metrics.csv", out / "metrics.csv", shallow=False)
    assert filecmp.cmp(serial / "checkpoint.json", parallel / "checkpoint.json", shallow=False)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_interrupted_parallel_training_kills_adapters_and_keeps_first_batch(
        tmp_path, monkeypatch, set_evaluation_slots):
    # two slots; the second batch has four misses, and its adapters hang:
    # the interrupt comes once two of them run
    set_evaluation_slots(2)
    env, reward_model = _fresh_setup()
    pids, hung, hang = tmp_path / "pids", tmp_path / "hung", tmp_path / "hang"
    pids.mkdir()
    hung.mkdir()
    body = ("import os, pathlib, time\n"
            f"pathlib.Path({str(pids)!r}, str(os.getpid())).touch()\n"
            f"if pathlib.Path({str(hang)!r}).exists():\n"
            f"    pathlib.Path({str(hung)!r}, str(os.getpid())).touch()\n"
            "    time.sleep(10)\n"
            "print(9000.0)\n")
    adapter = AdapterConfig(command=stub_adapter_command(body), timeout_s=60.0)
    spec = dataclasses.replace(reward_model.spec, evaluator="external")

    class HangsOnSecondBatch(RewardModel):
        batches = 0

        def score_batch(self, rows):
            self.batches += 1
            if self.batches == 2:
                hang.touch()
            return super().score_batch(rows)

    real_result = Future.result

    def interrupted(self, timeout=None):
        if not hang.exists():
            return real_result(self, timeout)
        deadline = time.monotonic() + 5.0
        while len(list(hung.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        raise KeyboardInterrupt

    monkeypatch.setattr(Future, "result", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        train(quick_config(max_episodes=16), small_model(), env,
              HangsOnSecondBatch(spec, env, adapter=adapter), out_dir=tmp_path / "run")
    assert time.monotonic() - started < 8.0  # the hung adapters were not waited on
    assert len(list(hung.iterdir())) == 2  # and no third one started
    assert not any(process_running(int(f.name)) for f in pids.iterdir())

    monkeypatch.undo()
    hang.unlink()
    train(quick_config(max_episodes=8), small_model(), env,
          RewardModel(spec, env, adapter=adapter), out_dir=tmp_path / "first_batch")
    assert filecmp.cmp(tmp_path / "run" / "metrics.csv",
                       tmp_path / "first_batch" / "metrics.csv", shallow=False)


def test_smoothed_loss_is_the_window_mean_of_logged_losses(tmp_path):
    env, reward_model = _fresh_setup()
    w = 5
    train(quick_config(max_episodes=24, smooth_window=w), small_model(seed=2), env,
          reward_model, out_dir=tmp_path)
    rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    losses = [float(row.split(",")[1]) for row in rows]
    assert len(rows) == 24
    for i, row in enumerate(rows):
        smoothed = row.split(",")[2]
        if i + 1 < w:
            assert smoothed == ""
        else:
            assert float(smoothed) == float(np.mean(losses[i + 1 - w:i + 1]))


# Windows shorter than, equal to and longer than a batch of 16 or 8, and
# around numpy's pairwise-summation block sizes.
ORACLE_WINDOWS = (1, 7, 8, 9, 100, 129, 500, 1001)


def per_episode_window_means(losses, window):
    """The smoothing the batch reduction replaced: at every episode the loss
    deque is copied to a list and its last `window` entries averaged."""
    tail = deque(maxlen=window)
    means = []
    for loss in losses:
        tail.append(loss)
        means.append(float(np.mean(list(tail)[-window:])) if len(tail) >= window else None)
    return means


def test_batch_window_means_match_the_per_episode_mean():
    losses = np.random.Generator(np.random.PCG64(3)).exponential(2.0, 1500)
    sizes = (16, 5, 37, 1)
    for window in ORACLE_WINDOWS:
        expect = per_episode_window_means(losses.tolist(), window)
        got, start, i = [], 0, 0
        while start < losses.shape[0]:
            end = min(start + sizes[i % len(sizes)], losses.shape[0])
            got += _window_means(losses[max(0, start - window):end], end - start, window)
            start, i = end, i + 1
        assert got == expect, window


@pytest.mark.parametrize("window", ORACLE_WINDOWS)
def test_smoothed_column_and_stop_mean_match_the_per_episode_mean_across_a_resume(
        window, tmp_path):
    env, reward_model = _fresh_setup()
    cfg = quick_config(max_episodes=1040, batch_size=16, smooth_window=window,
                       stop_window=window, stop_threshold=0.0)
    train(cfg, small_model(seed=5), env, reward_model, out_dir=tmp_path / "full")
    train(dataclasses.replace(cfg, max_episodes=512), small_model(seed=5), env, reward_model,
          out_dir=tmp_path / "part")
    train(cfg, small_model(seed=5), env, reward_model, out_dir=tmp_path / "part",
          resume_from=tmp_path / "part" / "checkpoint.json")
    for name in ("full", "part"):
        with open(tmp_path / name / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        expect = per_episode_window_means([float(row[1]) for row in rows], window)
        assert [row[2] for row in rows] == ["" if m is None else repr(m) for m in expect], name
        # the stop rule's mean, taken over the loss tail the run keeps
        tail = load_checkpoint(tmp_path / name / "checkpoint.json").loss_tail
        assert _window_means(np.array(tail), 1, window)[0] == expect[-1]


def test_train_runs_and_reports(tmp_path):
    env, reward_model = _fresh_setup()
    model = small_model(seed=1)
    result = train(quick_config(stop_threshold=1e-12), model, env, reward_model,
                   out_dir=tmp_path)
    assert result.episodes_run == 64
    assert not result.stopped_early
    assert result.best_reward > 1.0
    assert result.best_record is not None and result.best_record.startswith("bfx:")
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "run_manifest.json").exists()
    assert (tmp_path / "checkpoint.json").exists()
    assert result.evaluator_failures == 0 and result.first_evaluator_error is None
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "episode,loss,smoothedLoss,logZ,reward,bestReward"
    assert len(lines) == 65
    # smoothed column is empty before the window fills
    assert lines[1].split(",")[2] == ""
    assert lines[8].split(",")[2] != ""


def test_train_is_deterministic(tmp_path):
    env, reward_model = _fresh_setup()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    res_a = train(quick_config(), FlowModel.init(SMALL, seed=2), env, reward_model, out_dir=out_a)
    res_b = train(quick_config(), FlowModel.init(SMALL, seed=2), env, reward_model, out_dir=out_b)
    assert filecmp.cmp(out_a / "metrics.csv", out_b / "metrics.csv", shallow=False)
    assert res_a.log_z == res_b.log_z
    assert res_a.best_reward == res_b.best_reward


def test_train_early_stop(tmp_path):
    env, reward_model = _fresh_setup()
    model = small_model(seed=1)
    # a huge threshold stops at the first boundary after the window fills
    cfg = quick_config(stop_threshold=1e6, stop_window=8, max_episodes=64)
    result = train(cfg, model, env, reward_model, out_dir=tmp_path)
    assert result.stopped_early
    assert result.episodes_run == 8


def test_train_resume_is_bit_exact(tmp_path):
    env, reward_model = _fresh_setup()
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"

    full_cfg = quick_config(max_episodes=40, checkpoint_every=0)
    res_full = train(full_cfg, FlowModel.init(SMALL, seed=4), env, reward_model,
                     out_dir=full_dir)

    part_cfg = quick_config(max_episodes=32, checkpoint_every=16)
    train(part_cfg, FlowModel.init(SMALL, seed=4), env, reward_model, out_dir=part_dir)
    resume_cfg = quick_config(max_episodes=40, checkpoint_every=0)
    res_resumed = train(resume_cfg, FlowModel.init(SMALL, seed=4), env, reward_model,
                        out_dir=part_dir, resume_from=part_dir / "checkpoint.json")

    assert res_resumed.episodes_run == res_full.episodes_run == 40
    assert filecmp.cmp(full_dir / "metrics.csv", part_dir / "metrics.csv", shallow=False)
    assert res_resumed.log_z == res_full.log_z
    assert res_resumed.best_reward == res_full.best_reward


def test_train_resume_rejects_other_env(tmp_path):
    import conftest
    env, reward_model = _fresh_setup()
    train(quick_config(max_episodes=8), FlowModel.init(SMALL, seed=0), env,
          reward_model, out_dir=tmp_path)

    vocab = Vocabulary.load(conftest.FIXTURES / "vocab_bridge.csv")
    other_topo = Topology.load(conftest.FIXTURES / "topo_single.json")
    other_env = Environment(other_topo, vocab)
    other_reward = RewardModel(RewardSpec(cutoff=2500.0, surrogate_scale=1000.0), other_env)
    from blockflow.errors import ValidationError
    with pytest.raises(ValidationError, match="different topology"):
        train(quick_config(), FlowModel.init(SMALL, seed=0), other_env, other_reward,
              out_dir=tmp_path / "x", resume_from=tmp_path / "checkpoint.json")


def test_train_resume_rejects_other_model_dims(tmp_path):
    env, reward_model = _fresh_setup()
    train(quick_config(max_episodes=8), FlowModel.init(SMALL, seed=0), env,
          reward_model, out_dir=tmp_path)
    wider = FlowModel.init(dataclasses.replace(SMALL, hidden_dim=13), seed=0)
    with pytest.raises(ValidationError, match="'hidden_dim': 12.* != .*'hidden_dim': 13"):
        train(quick_config(), wider, env, reward_model, out_dir=tmp_path / "x",
              resume_from=tmp_path / "checkpoint.json")
    assert not (tmp_path / "x").exists()


def test_train_aborts_on_poisoned_params(tmp_path):
    env, reward_model = _fresh_setup()
    model = small_model(seed=0)
    model.parameters()["w_out"][0, 0] = np.nan
    with pytest.raises(BlockflowError, match="non-finite residual at episode 1;") as err:
        train(quick_config(max_episodes=8), model, env, reward_model, out_dir=tmp_path)
    assert not isinstance(err.value, ValidationError)


def test_train_config_validation():
    with pytest.raises(ValidationError, match="TrainConfig.batch_size must be >= 1"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError, match=r"exploration epsilon must be in \[0, 1\]"):
        TrainConfig(exploration_epsilon=1.5)
    with pytest.raises(ValidationError, match="learning rates must be finite and positive, got 0.0"):
        TrainConfig(learning_rate_model=0.0)
    with pytest.raises(ValidationError, match="TrainConfig.stop_window must be >= 1"):
        TrainConfig(stop_window=0)
    with pytest.raises(ValidationError, match="TrainConfig.max_episodes must be >= 1"):
        TrainConfig(max_episodes=0)
    # NaN passes `rate <= 0` and `threshold < 0` tests; each bound is checked as what must hold
    for value in (math.nan, math.inf):
        for field in ("learning_rate_model", "learning_rate_logz"):
            with pytest.raises(ValidationError, match="finite and positive"):
                TrainConfig(**{field: value})
        with pytest.raises(ValidationError, match="finite and non-negative"):
            TrainConfig(stop_threshold=value)
    assert TrainConfig(stop_threshold=0.0).stop_threshold == 0.0


# -- checkpoint and resume contracts -------------------------------------------


def test_final_checkpoint_is_saved_once(tmp_path, monkeypatch):
    import blockflow.trainer as trainer_mod
    real_save = trainer_mod.save_checkpoint
    saves = []

    def counting_save(path, model, optimizer, rng, episode, *rest):
        real_save(path, model, optimizer, rng, episode, *rest)
        saves.append((episode, path.read_bytes()))

    monkeypatch.setattr(trainer_mod, "save_checkpoint", counting_save)
    env, reward_model = _fresh_setup()
    model = FlowModel.init(SMALL, seed=4)
    train(quick_config(max_episodes=64, checkpoint_every=32), model, env, reward_model,
          out_dir=tmp_path)
    # the periodic save at 64 is already the final state: no second write
    assert [episode for episode, _ in saves] == [32, 64]
    assert (tmp_path / "checkpoint.json").read_bytes() == saves[-1][1]
    from blockflow import load_checkpoint
    ckpt = load_checkpoint(tmp_path / "checkpoint.json")
    assert ckpt.episode == 64
    assert ckpt.params.tobytes() == model.flat.tobytes()


def _record_saved_episodes(monkeypatch) -> list[int]:
    """Make the trainer's checkpoint saves also append their episode to the returned list."""
    import blockflow.trainer as trainer_mod
    real_save = trainer_mod.save_checkpoint
    episodes = []

    def recording_save(path, model, optimizer, rng, episode, *rest):
        real_save(path, model, optimizer, rng, episode, *rest)
        episodes.append(episode)

    monkeypatch.setattr(trainer_mod, "save_checkpoint", recording_save)
    return episodes


def test_short_last_batch_after_a_periodic_save_saves_nothing_more(tmp_path, monkeypatch):
    # 36 episodes at batch 8: the periodic save at 32 is already the last
    # full-batch boundary, so the short batch of 4 must not save it again
    saves = _record_saved_episodes(monkeypatch)
    env, reward_model = _fresh_setup()
    result = train(quick_config(max_episodes=36, checkpoint_every=32), small_model(seed=4),
                   env, reward_model, out_dir=tmp_path)
    assert result.episodes_run == 36
    assert saves == [32]
    from blockflow import load_checkpoint
    assert load_checkpoint(tmp_path / "checkpoint.json").episode == 32


def test_resume_with_nothing_left_to_train_writes_the_new_run_directory(tmp_path):
    env, reward_model = _fresh_setup()
    cfg = quick_config(max_episodes=32)
    first, again = tmp_path / "first", tmp_path / "again"
    train(cfg, small_model(seed=4), env, reward_model, out_dir=first)
    result = train(cfg, small_model(seed=4), env, reward_model, out_dir=again,
                   resume_from=first / "checkpoint.json")
    assert result.episodes_run == 32
    assert (again / "checkpoint.json").read_bytes() == (first / "checkpoint.json").read_bytes()
    assert (again / "metrics.csv").read_text() == "episode,loss,smoothedLoss,logZ,reward,bestReward\n"
    assert (again / "run_manifest.json").exists()


def test_periodic_saves_count_from_the_resumed_episode(tmp_path, monkeypatch):
    env, reward_model = _fresh_setup()
    train(quick_config(max_episodes=24), small_model(seed=4), env, reward_model, out_dir=tmp_path)
    saves = _record_saved_episodes(monkeypatch)
    train(quick_config(max_episodes=64, checkpoint_every=16), small_model(seed=4), env,
          reward_model, out_dir=tmp_path, resume_from=tmp_path / "checkpoint.json")
    # every 16 episodes from the resume at 24, then the final state
    assert saves == [40, 56, 64]


def test_resumed_run_drops_the_checkpoint_before_its_first_batch(tmp_path, monkeypatch):
    # the model copies the checkpoint's parameter row and the optimizer adopts
    # its m and v, so the parameter row (2.7 MB on the grid) must not live
    # through the run
    import blockflow.checkpoint as checkpoint_mod
    run = load_run_config(CONFIGS / "train_grid.json")
    cfg = dataclasses.replace(run.train_config, max_episodes=32)
    train(cfg, FlowModel.init(run.model_config, seed=run.init_seed), run.env,
          RewardModel(run.reward_spec, run.env), out_dir=tmp_path)
    real_load = checkpoint_mod.load_checkpoint
    bodies = []

    def loading(path, **kwargs):
        ckpt = real_load(path, **kwargs)
        bodies.append(weakref.ref(ckpt.params))
        return ckpt

    alive = []

    class WatchesTheCheckpoint(RewardModel):
        def score_batch(self, rows):
            alive.append(bodies[0]() is not None)
            return super().score_batch(rows)

    monkeypatch.setattr(checkpoint_mod, "load_checkpoint", loading)
    result = train(dataclasses.replace(cfg, max_episodes=64),
                   FlowModel.init(run.model_config, seed=run.init_seed), run.env,
                   WatchesTheCheckpoint(run.reward_spec, run.env), out_dir=tmp_path,
                   resume_from=tmp_path / "checkpoint.json")
    assert result.episodes_run == 64
    assert alive == [False, False]


def test_resume_after_short_final_batch_matches_uninterrupted(tmp_path):
    # 20 episodes at batch 8 end with a short batch of 4 that is logged but
    # never trained on; resuming to 40 must still replay the 40-episode run
    env, reward_model = _fresh_setup()
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    full_model = FlowModel.init(SMALL, seed=4)
    train(quick_config(max_episodes=40), full_model, env, reward_model, out_dir=full_dir)

    part = train(quick_config(max_episodes=20), FlowModel.init(SMALL, seed=4), env,
                 reward_model, out_dir=part_dir)
    assert part.episodes_run == 20
    assert len((part_dir / "metrics.csv").read_text().splitlines()) == 21
    resumed_model = FlowModel.init(SMALL, seed=4)
    train(quick_config(max_episodes=40), resumed_model, env, reward_model,
          out_dir=part_dir, resume_from=part_dir / "checkpoint.json")

    assert (part_dir / "metrics.csv").read_bytes() == (full_dir / "metrics.csv").read_bytes()
    assert resumed_model.flat.tobytes() == full_model.flat.tobytes()


def test_resume_drops_torn_metrics_rows(tmp_path):
    # a crash after the checkpoint at 32 can cut metrics.csv at any byte of
    # the rows written since; the resumed file must match an unbroken run
    env, reward_model = _fresh_setup()
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    train(quick_config(max_episodes=40), FlowModel.init(SMALL, seed=4), env, reward_model,
          out_dir=full_dir)
    reference = (full_dir / "metrics.csv").read_bytes()
    train(quick_config(max_episodes=32, checkpoint_every=16), FlowModel.init(SMALL, seed=4),
          env, reward_model, out_dir=part_dir)
    checkpoint = (part_dir / "checkpoint.json").read_bytes()

    starts = [0]
    for line in reference.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    row33, row34, row36 = starts[33], starts[34], starts[36]  # header is line 0
    offsets = [row33 + 1, row33 + 2, row33 + 3, (row33 + row34) // 2, row34 - 1,
               row34, row36, len(reference) - 1]
    # a cut in the header loses rows 1-32 with it: the file restarts from the header
    after_torn_header = reference[:starts[1]] + reference[row33:]
    expected = {cut: reference for cut in offsets}
    expected.update({0: after_torn_header, starts[1] // 2: after_torn_header,
                     starts[1] - 1: after_torn_header})
    for cut, want in expected.items():
        run_dir = tmp_path / f"cut{cut}"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_bytes(reference[:cut])
        (run_dir / "checkpoint.json").write_bytes(checkpoint)
        train(quick_config(max_episodes=40), FlowModel.init(SMALL, seed=4), env, reward_model,
              out_dir=run_dir, resume_from=run_dir / "checkpoint.json")
        assert (run_dir / "metrics.csv").read_bytes() == want, f"cut at byte {cut}"


def test_failed_metrics_trim_leaves_the_file_untouched(tmp_path, monkeypatch):
    # the trim on resume rewrites metrics.csv; a crash partway through the
    # rewrite must leave every row of the old file in place
    env, reward_model = _fresh_setup()
    train(quick_config(max_episodes=32, checkpoint_every=16), FlowModel.init(SMALL, seed=4),
          env, reward_model, out_dir=tmp_path)
    metrics = tmp_path / "metrics.csv"
    with open(metrics, "a") as fh:
        fh.write("33,0.5")  # a torn row the trim would drop
    before = metrics.read_bytes()
    real_writer = csv.writer

    class DiesAfterTwoRows:
        def __init__(self, fh, *args, **kwargs):
            self._writer = real_writer(fh, *args, **kwargs)

        def writerow(self, row):
            self._writer.writerow(row)

        def writerows(self, rows):
            for i, row in enumerate(rows):
                if i == 2:
                    raise OSError("no space left on device")
                self._writer.writerow(row)

    monkeypatch.setattr(csv, "writer", DiesAfterTwoRows)
    with pytest.raises(OSError, match="no space"):
        train(quick_config(max_episodes=48), FlowModel.init(SMALL, seed=4), env, reward_model,
              out_dir=tmp_path, resume_from=tmp_path / "checkpoint.json")
    assert metrics.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint.json", "metrics.csv", "run_manifest.json"]
