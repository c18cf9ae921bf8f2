"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS line with the measured quantity so the
captured output reads as a checklist. The shared fixture trains the
sampler once on the 12-terminal bridge fixture and is reused by the
distribution, partition-function, and baseline-dominance checks.
"""

import filecmp
import math
from collections import Counter

import numpy as np
import pytest

from blockflow import (Environment, FlowModel, ModelConfig, PeriodicPointSet,
                       RewardModel, RewardSpec, Topology,
                       TrainConfig, Vocabulary, amd, baseline_comparison,
                       cell_basis, cross_validate, exact_flows, external_gsa,
                       fit_univariate, reward, rollout,
                       selectivity, train, working_capacity)
from blockflow.autodiff import masked_log_softmax
from blockflow.reward import AdapterConfig
from conftest import FIXTURES, TabularPolicy, flow_log_prob, stub_adapter_command, terminal_tuples


def report(criterion: int, message: str) -> None:
    print(f"criterion {criterion:02d} PASS: {message}")


@pytest.fixture(scope="module")
def bridge():
    vocab = Vocabulary.load(FIXTURES / "vocab_bridge.csv")
    topo = Topology.load(FIXTURES / "topo_bridge.json")
    env = Environment(topo, vocab)
    reward_model = RewardModel(RewardSpec(cutoff=2500.0, surrogate_scale=1000.0), env)
    return env, reward_model


@pytest.fixture(scope="module")
def trained(bridge, tmp_path_factory):
    env, reward_model = bridge
    config = TrainConfig(
        learning_rate_model=5e-3,
        learning_rate_logz=5e-2,
        max_episodes=20_000,
        batch_size=16,
        stop_window=500,
        stop_threshold=0.01,
        smooth_window=100,
        seed=0,
    )
    model = FlowModel.init(ModelConfig(vocab_size=7, embed_dim=16, hidden_dim=32), seed=7)
    out = tmp_path_factory.mktemp("acceptance_train")
    result = train(config, model, env, reward_model, out_dir=out)
    return model, result


@pytest.fixture(scope="module")
def exact(bridge):
    env, reward_model = bridge
    flows = exact_flows(env, reward_model)
    terminals = terminal_tuples(env)
    rewards = reward_model.score_batch(terminals).reward
    return flows, terminals, rewards


def test_c01_distribution_matches_reward(bridge, trained, exact):
    env, _ = bridge
    model, result = trained
    flows, terminals, rewards = exact
    assert result.episodes_run <= 20_000

    n = 100_000
    rng = np.random.Generator(np.random.PCG64(123))
    actions, _ = rollout(model, env, rng, n)
    counts = Counter(map(tuple, actions.tolist()))
    exact_probs = {seq: r / rewards.sum() for seq, r in zip(terminals, rewards)}
    l1 = sum(abs(counts.get(seq, 0) / n - p) for seq, p in exact_probs.items())
    assert l1 < 0.05, f"L1 distance {l1}"
    report(1, f"L1(empirical 1e5 draws, R/Z) = {l1:.5f} < 0.05 "
              f"after {result.episodes_run} episodes")


def test_c02_partition_function_recovered(trained, exact):
    model, result = trained
    flows, terminals, rewards = exact
    true_log_z = math.log(rewards.sum())
    diff = abs(result.log_z - true_log_z)
    assert diff < 0.1, f"|logZ - log sum R| = {diff}"
    report(2, f"|learned logZ {result.log_z:.4f} - exact {true_log_z:.4f}| "
              f"= {diff:.4f} < 0.1")


def test_c03_exact_flow_oracle_identities(bridge, exact):
    env, reward_model = bridge
    flows, terminals, rewards = exact
    policy = TabularPolicy(flows, env)
    worst_loss = 0.0
    for seq, r in zip(terminals, rewards):
        log_probs = []
        prefix = ()
        for action in seq:
            log_probs.append(flow_log_prob(flows, prefix, action))
            prefix = prefix + (action,)
        floored = max(r, reward_model.spec.reward_floor)
        residual = policy.log_z_value + sum(log_probs) - math.log(floored)
        worst_loss = max(worst_loss, residual * residual)
    assert worst_loss < 1e-12

    z = rewards.sum()
    worst_prob = max(abs(flows.terminal_probs[seq] - r / z)
                     for seq, r in zip(terminals, rewards))
    assert worst_prob < 1e-12
    report(3, f"max per-trajectory TB loss {worst_loss:.2e} < 1e-12, "
              f"max |P - R/Z| {worst_prob:.2e} < 1e-12")


def test_c04_gradients_match_finite_differences(bridge):
    env, reward_model = bridge
    cfg = ModelConfig(vocab_size=7, embed_dim=2, hidden_dim=3)
    h = 1e-6
    worst = 0.0
    for instance in range(100):
        model = FlowModel.init(cfg, seed=1000 + instance)
        rng = np.random.Generator(np.random.PCG64(2000 + instance))
        cache = []
        actions, log_prob_sum = rollout(model, env, rng, 1, cache=cache)
        [r] = reward_model.score_batch(actions).reward.tolist()
        log_floored = math.log(max(r, reward_model.spec.reward_floor))
        residual = model.parameters()["log_z"] + log_prob_sum - log_floored
        model.balance_grad(cache, 2.0 * residual)
        [picks] = actions.tolist()

        def episode_residual():
            # the drawn episode's residual, stepping the model on its tokens
            state, total = None, None
            for t, (token, action) in enumerate(zip([model.start_token, *picks], picks)):
                logits, state = model.step([token], state)
                log_prob = masked_log_softmax(logits, env.slot_masks[t])[0, action]
                total = log_prob if total is None else total + log_prob
            return model.parameters()["log_z"] + total - log_floored

        assert episode_residual() == residual[0]

        def loss_value():
            value = episode_residual()
            return float(value * value)

        flat = model.flat
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            an = model.grad[i]
            # the 1e-4 floor keeps central-difference roundoff (~1e-9
            # absolute here) from registering on dead coordinates
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
            worst = max(worst, err)
        assert worst < 1e-4, f"instance {instance}: max rel err {worst}"
    report(4, f"100 random (params, trajectory) instances, "
              f"max relative gradient error {worst:.2e} < 1e-4")


def test_c05_reward_spot_values_and_fault_injection(bridge):
    env, _ = bridge
    spec = RewardSpec(cutoff=5000.0)
    c = spec.cutoff
    assert reward(spec, c) == 1.0
    assert abs(reward(spec, 2 * c) - math.e) < 1e-12
    assert reward(spec, 0.9 * c) == 0.0

    failures = [
        ("non-zero exit", stub_adapter_command("import sys; sys.exit(2)")),
        ("timeout", stub_adapter_command("import time; time.sleep(30)")),
        ("garbage output", stub_adapter_command("print('garbage')")),
    ]
    ext_spec = RewardSpec(cutoff=100.0, evaluator="external")
    for label, command in failures:
        adapter = AdapterConfig(command=command, timeout_s=0.5)
        gsa, error = external_gsa(adapter, "bfx:N1,N4,E1")
        assert np.isnan(gsa) and error, label
        rm = RewardModel(ext_spec, env, adapter=adapter)
        scores = rm.score_batch([(0, 3, 5)])
        assert scores.reward.tolist() == [0.0] and list(scores.errors) == [0], label
    report(5, "R(C)=1, R(2C)=e within 1e-12, R(0.9C)=0; adapter exit/timeout/"
              "garbage each yield reward 0 without raising")


def test_c06_trained_sampler_dominates_uniform(bridge, trained, exact):
    env, reward_model = bridge
    flows, terminals, rewards = exact

    # enumeration-derived expectations for both arms
    e_uniform = rewards.mean()
    var_uniform = rewards.var()
    p = rewards / rewards.sum()
    e_trained = float((p * rewards).sum())  # = E[R^2]/E[R]
    var_trained = float((p * rewards**2).sum() - e_trained**2)
    assert e_trained > e_uniform  # strict: the fixture rewards are non-constant

    n = 20_000
    policy = TabularPolicy(flows, env)
    summary = baseline_comparison(policy, env, reward_model, n_samples=n, seed=5)
    for label, got, expect, var in [
        ("uniform", summary.uniform_mean, e_uniform, var_uniform),
        ("trained", summary.trained_mean, e_trained, var_trained),
    ]:
        sigma = math.sqrt(var / n)
        assert abs(got - expect) < 3 * sigma, (label, got, expect, 3 * sigma)
    assert summary.trained_mean > summary.uniform_mean

    # the actually trained network must dominate as well
    model, _ = trained
    net = baseline_comparison(model, env, reward_model, n_samples=n, seed=6)
    assert net.trained_mean > net.uniform_mean
    report(6, f"exact-policy mean {summary.trained_mean:.4f} > uniform "
              f"{summary.uniform_mean:.4f}, both within 3 sigma of enumeration; "
              f"trained net {net.trained_mean:.4f} > uniform {net.uniform_mean:.4f}")


def test_c07_amd_reference_values_and_monotonicity():
    cube = PeriodicPointSet(3.0 * np.eye(3), [[0.0, 0.0, 0.0]])
    values = amd(cube, 7)
    assert np.allclose(values[:6], 3.0, atol=1e-9)
    assert abs(values[6] - 3.0 * math.sqrt(2.0)) < 1e-9

    base = PeriodicPointSet(cell_basis(3.0, 3.5, 4.0, 85.0, 92.0, 101.0),
                            [[0.15, 0.3, 0.45], [0.7, 0.05, 0.8]])
    ref = amd(base, 12)
    for scale in ((2, 1, 1), (2, 2, 2)):
        s = np.array(scale, dtype=float)
        motif = [(pt + np.array(shift)) / s
                 for shift in np.ndindex(*scale) for pt in base.motif]
        doubled = PeriodicPointSet(base.basis * s[:, None], motif)
        assert np.allclose(amd(doubled, 12), ref, atol=1e-9)
    shifted = PeriodicPointSet(base.basis, base.motif + np.array([0.21, 0.43, 0.65]))
    assert np.allclose(amd(shifted, 12), ref, atol=1e-9)

    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(100):
        lengths = rng.uniform(2.5, 5.0, 3)
        angles = rng.uniform(75.0, 105.0, 3)
        m = int(rng.integers(1, 4))
        motif = rng.uniform(0.0, 1.0, (m, 3))
        ps = PeriodicPointSet(cell_basis(*lengths, *angles), motif)
        vals = amd(ps, 12)
        assert np.all(np.diff(vals) >= -1e-12)
    report(7, "cubic 3 A shell values exact to 1e-9, supercell and translation "
              "invariance to 1e-9, entries non-decreasing on 100 random fixtures")


def test_c08_regression_recovery_and_reproducibility():
    x = np.linspace(0.0, 10.0, 200)
    clean = fit_univariate(x, 1.75 * x - 0.5)
    assert abs(clean.slope - 1.75) < 1e-10
    assert abs(clean.intercept + 0.5) < 1e-10
    assert abs(clean.r2 - 1.0) < 1e-12
    assert abs(clean.spearman_rho - 1.0) < 1e-12

    rng = np.random.Generator(np.random.PCG64(77))
    n, sigma = 10_000, 2.5
    xs = rng.uniform(0.0, 100.0, n)
    ys = 0.6 * xs + 11.0 + rng.normal(0.0, sigma, n)
    summary = cross_validate(xs, ys, folds=10, rounds=50, seed=0)
    rel = abs(summary.test_rmse_mean - sigma) / sigma
    assert rel < 0.05, f"cv rmse {summary.test_rmse_mean} vs sigma {sigma}"
    again = cross_validate(xs, ys, folds=10, rounds=50, seed=0)
    assert summary == again  # bit-reproducible, dataclass equality on floats
    report(8, f"noiseless fit exact to 1e-10; 50x10-fold rmse "
              f"{summary.test_rmse_mean:.4f} within {100 * rel:.2f}% of sigma "
              f"{sigma}; summary bit-reproducible under seed 0")


def test_c09_capture_metric_arithmetic():
    assert working_capacity(44.0, 6.0) == 38.0
    assert abs(selectivity(3.0, 1.0) - 17.0) < 1e-9

    rng = np.random.Generator(np.random.PCG64(9))
    for _ in range(1_000):
        q_high, q_low = sorted(rng.uniform(0.01, 100.0, 2))[::-1]
        lam = rng.uniform(0.1, 10.0)
        # gravimetric quantities scale linearly, so capacity scales with them
        assert working_capacity(lam * q_high, lam * q_low) == pytest.approx(
            lam * working_capacity(q_high, q_low), rel=1e-12)
        q_co2, q_n2 = rng.uniform(0.01, 100.0, 2)
        # selectivity is a ratio, so a common scale factor cancels
        assert selectivity(lam * q_co2, lam * q_n2) == pytest.approx(
            selectivity(q_co2, q_n2), rel=1e-9)
    report(9, "working_capacity(44, 6) = 38, selectivity(3, 1) = 17, "
              "scaling metamorphics hold on 1000 random rows")


def test_c10_determinism_and_resumption(bridge, tmp_path):
    env, reward_model = bridge
    cfg = ModelConfig(vocab_size=7, embed_dim=8, hidden_dim=12)
    config = TrainConfig(learning_rate_model=5e-3, learning_rate_logz=5e-2,
                         max_episodes=48, batch_size=8, stop_window=24,
                         stop_threshold=1e-12, smooth_window=8, seed=0)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    train(config, FlowModel.init(cfg, seed=3), env, reward_model, out_dir=out_a)
    train(config, FlowModel.init(cfg, seed=3), env, reward_model, out_dir=out_b)
    assert filecmp.cmp(out_a / "metrics.csv", out_b / "metrics.csv", shallow=False)
    assert filecmp.cmp(out_a / "checkpoint.json", out_b / "checkpoint.json", shallow=False)

    import dataclasses
    part = tmp_path / "part"
    interrupted = dataclasses.replace(config, max_episodes=24, checkpoint_every=8)
    train(interrupted, FlowModel.init(cfg, seed=3), env, reward_model, out_dir=part)
    train(config, FlowModel.init(cfg, seed=3), env, reward_model, out_dir=part,
          resume_from=part / "checkpoint.json")
    assert filecmp.cmp(out_a / "metrics.csv", part / "metrics.csv", shallow=False)
    assert filecmp.cmp(out_a / "checkpoint.json", part / "checkpoint.json", shallow=False)
    report(10, "rerun metrics and checkpoint byte-identical; interrupt at 24 of "
               "48 episodes and resume reproduces the uninterrupted run byte-for-byte")
