import filecmp
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from blockflow import (Adam, Environment, FlowModel, ModelConfig, RewardModel,
                       RewardSpec, TabularPolicy, Tensor, Topology,
                       TrainConfig, Vocabulary, backward, exact_flows,
                       loss_reward, no_grad, rollout, train, uniform_rollout)
from blockflow.autodiff import masked_log_softmax
from blockflow.errors import ConfigurationError, TrainingAbort

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
    with no_grad():
        for t, action in enumerate(actions):
            logits, state = model.step([token], state)
            total += float(masked_log_softmax(logits, env.slot_masks[t]).data[0, action])
            token = action
    return total


def chi_squared(counts, expected):
    return sum((counts.get(seq, 0) - e) ** 2 / e for seq, e in expected.items())


def test_rollout_respects_masks(bridge_env, rng):
    model = small_model()
    actions, log_prob_sum = rollout(model, bridge_env, rng, 50)
    assert actions.shape == (50, bridge_env.n_slots)
    assert log_prob_sum.shape == (50,)
    for seq in actions.tolist():
        bridge_env.check_sequence(tuple(seq))
    assert np.all(log_prob_sum.data <= 0.0)


def test_rollout_deterministic_per_stream(bridge_env):
    model = small_model()
    a, lp_a = rollout(model, bridge_env, np.random.Generator(np.random.PCG64(9)), 20)
    b, lp_b = rollout(model, bridge_env, np.random.Generator(np.random.PCG64(9)), 20)
    np.testing.assert_array_equal(a, b)
    assert lp_a.data.tobytes() == lp_b.data.tobytes()


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
    np.testing.assert_allclose(lp_together.data, [float(lp.data[0]) for _, lp in one_by_one],
                               rtol=1e-12)


def test_epsilon_one_is_uniform_chi_squared(bridge_env):
    # with full exploration the behavior policy is uniform per slot
    model = small_model()
    rng = np.random.Generator(np.random.PCG64(7))
    n = 6000
    actions, _ = rollout(model, bridge_env, rng, n, epsilon=1.0)
    counts = Counter(map(tuple, actions.tolist()))
    assert sum(counts.values()) == n
    chi2 = chi_squared(counts, {seq: n / 12.0 for seq in bridge_env.enumerate_terminals()})
    # 11 dof, alpha = 1e-3
    assert chi2 < stats.chi2.ppf(0.999, 11)


def test_epsilon_records_pure_policy_log_probs(bridge_env):
    model = small_model()
    for eps in (0.0, 0.5, 1.0):
        rng = np.random.Generator(np.random.PCG64(3))
        actions, log_prob_sum = rollout(model, bridge_env, rng, 200, epsilon=eps)
        for seq, got in zip(actions.tolist(), log_prob_sum.data):
            assert got == pytest.approx(episode_log_prob(model, bridge_env, seq), rel=1e-12)


def test_uniform_rollout_covers_and_validates(bridge_env):
    rng = np.random.Generator(np.random.PCG64(5))
    seqs = uniform_rollout(bridge_env, 4000, rng)
    for s in seqs[:20]:
        bridge_env.check_sequence(s)
    counts = Counter(seqs)
    assert len(counts) == 12
    expected = 4000 / 12.0
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < stats.chi2.ppf(0.999, 11)


def test_rollout_zero_init_draws_are_uniform(bridge_env):
    # zero-init model is uniform, so batch draws should be uniform too
    model = FlowModel.zero_init(SMALL)
    rng = np.random.Generator(np.random.PCG64(11))
    actions, _ = rollout(model, bridge_env, rng, 6000)
    counts = Counter(map(tuple, actions.tolist()))
    chi2 = chi_squared(counts, {seq: 6000 / 12.0 for seq in bridge_env.enumerate_terminals()})
    assert chi2 < stats.chi2.ppf(0.999, 11)


def test_rollout_matches_model_distribution(bridge_env):
    # a sharpened random model is far from uniform; the batched draws must
    # follow the terminal probabilities obtained by stepping it one by one
    model = small_model(seed=8)
    model.parameters()["w_out"].data *= 6.0
    probs = {seq: math.exp(episode_log_prob(model, bridge_env, seq))
             for seq in bridge_env.enumerate_terminals()}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert max(probs.values()) > 2 * min(probs.values())
    n = 6000
    with no_grad():
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
    for seq, got in zip(actions.tolist()[:50], log_prob_sum.data):
        assert got == pytest.approx(math.log(flows.terminal_probs[tuple(seq)]), abs=1e-12)


def test_rollout_validation(bridge_env, rng):
    model = small_model()
    for n in (0, -1):
        with pytest.raises(ConfigurationError):
            rollout(model, bridge_env, rng, n)
    for eps in (-0.1, 1.5):
        with pytest.raises(ConfigurationError):
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
    scores = reward_model.score_batch(actions.tolist())
    for row, seq, (r, _) in zip(rows, actions.tolist(), scores):
        episode, loss, _, log_z, rwd, _ = row.split(",")
        residual = model.log_z_value + episode_log_prob(model, env, seq) - math.log(
            loss_reward(reward_model.spec, r))
        assert float(loss) == pytest.approx(residual ** 2, rel=1e-10)
        assert float(log_z) == model.log_z_value
        assert float(rwd) == r


def test_train_update_is_adam_on_mean_squared_residual():
    env, reward_model = _fresh_setup()
    cfg = quick_config(max_episodes=8)
    trained = small_model(seed=3)
    train(cfg, trained, env, reward_model)

    model = small_model(seed=3)
    actions, log_prob_sum = rollout(model, env, np.random.Generator(np.random.PCG64(cfg.seed)), 8)
    floored = [loss_reward(reward_model.spec, r)
               for r, _ in reward_model.score_batch(actions.tolist())]
    by_hand = np.mean([(model.log_z_value + lp - math.log(f)) ** 2
                       for lp, f in zip(log_prob_sum.data, floored)])
    diff = model.log_z + log_prob_sum - Tensor(np.log(floored))
    loss = (diff * diff).mean()
    assert float(loss.data) == pytest.approx(by_hand, rel=1e-12)
    backward(loss)
    Adam(model.parameters(), lr=cfg.learning_rate_model,
         lr_overrides={"log_z": cfg.learning_rate_logz}).step()
    for name, tensor in trained.parameters().items():
        np.testing.assert_allclose(tensor.data, model.parameters()[name].data,
                                   rtol=1e-10, atol=1e-14, err_msg=name)


def test_rollout_gradient_fd_spot_check(bridge_env, bridge_reward):
    model = small_model(seed=5)

    def loss_of_fixed_draws():
        rng = np.random.Generator(np.random.PCG64(1))
        actions, log_prob_sum = rollout(model, bridge_env, rng, 3)
        floored = [loss_reward(bridge_reward.spec, r)
                   for r, _ in bridge_reward.score_batch(actions.tolist())]
        diff = model.log_z + log_prob_sum - Tensor(np.log(floored))
        return actions, (diff * diff).mean()

    actions, loss = loss_of_fixed_draws()

    def loss_value():
        with no_grad():
            again, value = loss_of_fixed_draws()
        np.testing.assert_array_equal(again, actions)  # same draws, same episodes
        return float(value.data)

    backward(loss)
    h = 1e-6
    for name, flat_idx in [("log_z", ()), ("w_out", (4, 2)), ("b", (7,)),
                           ("embed", (2, 1)), ("w_h", (3, 9))]:
        param = model.parameters()[name]
        grad = param.grad[flat_idx] if flat_idx else float(param.grad)
        orig = param.data[flat_idx] if flat_idx else float(param.data)
        if flat_idx:
            param.data[flat_idx] = orig + h
            up = loss_value()
            param.data[flat_idx] = orig - h
            down = loss_value()
            param.data[flat_idx] = orig
        else:
            param.data = np.float64(orig + h)
            up = loss_value()
            param.data = np.float64(orig - h)
            down = loss_value()
            param.data = np.float64(orig)
        fd = (up - down) / (2 * h)
        denom = max(abs(fd), abs(grad), 1e-8)
        assert abs(fd - grad) / denom < 1e-4, name


def test_train_nonfinite_residual_names_its_episode(tmp_path):
    env, reward_model = _fresh_setup()

    class NanOnThirdScore(RewardModel):
        scored = 0

        def score_batch(self, sequences, workers=1):
            out = []
            for rwd, result in super().score_batch(sequences, workers):
                self.scored += 1
                out.append((math.nan if self.scored == 3 else rwd, result))
            return out

    poisoned = NanOnThirdScore(reward_model.spec, env)
    with pytest.raises(TrainingAbort, match="at episode 3;"):
        train(quick_config(max_episodes=8), small_model(), env, poisoned, out_dir=tmp_path)
    # the two episodes before it are logged
    assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 3


def test_exact_flow_policy_zeroes_every_residual(bridge_env, bridge_reward):
    # the flow-matching solution satisfies the balance identity exactly
    flows = exact_flows(bridge_env, bridge_reward)
    policy = TabularPolicy(flows, bridge_env)
    terminals = list(bridge_env.enumerate_terminals())
    for seq, (r, _) in zip(terminals, bridge_reward.score_batch(terminals)):
        log_probs = []
        prefix = ()
        for action in seq:
            log_probs.append(policy.log_prob(prefix, action))
            prefix = prefix + (action,)
        floored = loss_reward(bridge_reward.spec, r)
        assert abs(policy.log_z_value + sum(log_probs) - math.log(floored)) < 1e-12
    # and so does every episode the batched sampler draws from it
    actions, log_prob_sum = rollout(policy, bridge_env, np.random.Generator(np.random.PCG64(6)), 200)
    scores = bridge_reward.score_batch(actions.tolist())
    for (r, _), lp in zip(scores, log_prob_sum.data):
        floored = loss_reward(bridge_reward.spec, r)
        assert abs(policy.log_z_value + lp - math.log(floored)) < 1e-12


def test_exact_flow_terminal_probs_are_reward_over_z(bridge_env, bridge_reward):
    flows = exact_flows(bridge_env, bridge_reward)
    z = math.exp(flows.log_z)
    total = 0.0
    terminals = list(bridge_env.enumerate_terminals())
    for seq, (r, _) in zip(terminals, bridge_reward.score_batch(terminals)):
        floored = loss_reward(bridge_reward.spec, r)
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


def test_train_scores_each_batch_in_one_call():
    env, reward_model = _fresh_setup()
    received = []

    class RecordsBatches(RewardModel):
        def score_batch(self, sequences, workers=1):
            received.append(len(sequences))
            return super().score_batch(sequences, workers)

    train(quick_config(max_episodes=20), small_model(), env,
          RecordsBatches(reward_model.spec, env))
    assert received == [8, 8, 4]


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
    assert result.checkpoint_path is not None and result.checkpoint_path.exists()
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


def test_train_aborts_on_poisoned_params():
    env, reward_model = _fresh_setup()
    model = small_model(seed=0)
    model.parameters()["w_out"].data[0, 0] = np.nan
    with pytest.raises(TrainingAbort):
        train(quick_config(max_episodes=8), model, env, reward_model)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(exploration_epsilon=1.5)
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate_model=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(stop_window=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(max_episodes=0)


def test_train_without_out_dir():
    env, reward_model = _fresh_setup()
    result = train(quick_config(max_episodes=16), small_model(seed=6), env, reward_model)
    assert result.metrics_path is None
    assert result.checkpoint_path is None
    assert result.episodes_run == 16


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
    for name, tensor in model.parameters().items():
        assert ckpt.params[name].tobytes() == np.asarray(tensor.data).tobytes(), name


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
    for name, tensor in full_model.parameters().items():
        got = np.asarray(resumed_model.parameters()[name].data).tobytes()
        assert got == np.asarray(tensor.data).tobytes(), name


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
    for cut in offsets:
        run_dir = tmp_path / f"cut{cut}"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_bytes(reference[:cut])
        (run_dir / "checkpoint.json").write_bytes(checkpoint)
        train(quick_config(max_episodes=40), FlowModel.init(SMALL, seed=4), env, reward_model,
              out_dir=run_dir, resume_from=run_dir / "checkpoint.json")
        assert (run_dir / "metrics.csv").read_bytes() == reference, f"cut at byte {cut}"
