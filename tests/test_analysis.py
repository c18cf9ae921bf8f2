import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from blockflow import (BaselineSummary, CrossValSummary, Environment, FlowModel, IsothermRow,
                       ModelConfig, RewardModel, RewardSpec, Scores, Topology, Vocabulary,
                       average_ranks,
                       baseline_comparison, cross_validate, exact_flows,
                       fit_univariate, holdout_validate, load_isotherm_table,
                       pearson_r, percentile_rank, rollout, selectivity,
                       spearman_rho, working_capacity)
from blockflow.autodiff import masked_log_softmax
from blockflow.errors import BlockflowError, ValidationError
from blockflow.cli import load_run_config
from conftest import (CONFIGS, TabularPolicy, TerminalStateError, assert_flows_match_reference,
                      flow_log_prob, zero_model)


# -- rank and correlation -----------------------------------------------------


def test_average_ranks_ties():
    assert np.array_equal(average_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])
    assert np.array_equal(average_ranks([3.0, 1.0, 2.0]), [3.0, 1.0, 2.0])
    assert np.array_equal(average_ranks([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])


def test_pearson_trivials():
    x = np.arange(10.0)
    assert pearson_r(x, 2 * x + 3) == pytest.approx(1.0, abs=1e-14)
    assert pearson_r(x, -x) == pytest.approx(-1.0, abs=1e-14)
    with pytest.raises(ValidationError, match="correlation undefined for a constant series"):
        pearson_r(np.ones(5), x[:5])


def test_spearman_matches_scipy():
    rng = np.random.Generator(np.random.PCG64(0))
    for trial in range(20):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40) + 0.5 * x
        if trial % 3 == 0:  # inject ties
            x = np.round(x, 1)
            y = np.round(y, 1)
        expect = stats.spearmanr(x, y).statistic
        assert spearman_rho(x, y) == pytest.approx(expect, abs=1e-12)


def test_spearman_monotone_transform_invariance():
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    base = spearman_rho(x, y)
    assert spearman_rho(np.exp(x), y) == pytest.approx(base, abs=1e-12)
    assert spearman_rho(x, 3 * y + 7) == pytest.approx(base, abs=1e-12)


# -- regression ---------------------------------------------------------------


def test_fit_exact_line():
    x = np.linspace(0, 10, 25)
    rep = fit_univariate(x, 2.0 * x + 1.0)
    assert rep.slope == pytest.approx(2.0, abs=1e-10)
    assert rep.intercept == pytest.approx(1.0, abs=1e-10)
    assert rep.r2 == pytest.approx(1.0, abs=1e-12)
    assert rep.rmse == pytest.approx(0.0, abs=1e-10)
    assert rep.spearman_rho == pytest.approx(1.0, abs=1e-12)
    assert rep.n == 25


def test_fit_reversed_line():
    x = np.linspace(0, 5, 10)
    rep = fit_univariate(x, -3.0 * x + 2.0)
    assert rep.slope == pytest.approx(-3.0, abs=1e-10)
    assert rep.spearman_rho == pytest.approx(-1.0, abs=1e-12)


def test_fit_validation():
    with pytest.raises(ValidationError):
        fit_univariate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        fit_univariate([[1.0, 2.0]], [[1.0, 2.0]])
    with pytest.raises(ValidationError, match="x is constant; the regression is degenerate"):
        fit_univariate([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_fit_matches_scipy_on_noisy_data():
    rng = np.random.Generator(np.random.PCG64(12))
    x = rng.uniform(0, 100, 200)
    y = 0.8 * x + 5.0 + rng.normal(0, 4.0, 200)
    rep = fit_univariate(x, y)
    ref = stats.linregress(x, y)
    assert rep.slope == pytest.approx(ref.slope, rel=1e-12)
    assert rep.intercept == pytest.approx(ref.intercept, rel=1e-12)
    assert rep.r2 == pytest.approx(ref.rvalue ** 2, rel=1e-10)
    assert ref.slope - 3 * ref.stderr < rep.slope < ref.slope + 3 * ref.stderr


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_fit_residuals_orthogonal_to_x(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-5, 5, 30)
    if np.ptp(x) < 1e-6:
        return
    y = rng.standard_normal(30)
    rep = fit_univariate(x, y)
    resid = y - (rep.slope * x + rep.intercept)
    assert abs(resid.sum()) < 1e-8
    assert abs((resid * x).sum()) < 1e-7


# -- cross-validation ---------------------------------------------------------


def test_cross_validate_noiseless_line():
    x = np.linspace(0, 10, 60)
    summary = cross_validate(x, 2 * x - 1, folds=10, rounds=50, seed=0)
    assert summary.scheme == "kfold"
    assert summary.rounds == 50
    assert summary.splits == 10
    assert summary.test_r2_mean == pytest.approx(1.0, abs=1e-10)
    assert summary.test_r2_std == pytest.approx(0.0, abs=1e-10)
    assert summary.test_rmse_mean == pytest.approx(0.0, abs=1e-8)
    assert summary.train_r2_mean == pytest.approx(1.0, abs=1e-10)


def test_cross_validate_deterministic():
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.uniform(0, 10, 50)
    y = x + rng.normal(0, 0.5, 50)
    a = cross_validate(x, y, folds=5, rounds=10, seed=9)
    b = cross_validate(x, y, folds=5, rounds=10, seed=9)
    assert a == b
    c = cross_validate(x, y, folds=5, rounds=10, seed=10)
    assert a.test_rmse_mean != c.test_rmse_mean


def test_cross_validate_recovers_noise_scale():
    rng = np.random.Generator(np.random.PCG64(21))
    x = rng.uniform(0, 100, 400)
    sigma = 3.0
    y = 1.5 * x + rng.normal(0, sigma, 400)
    summary = cross_validate(x, y, folds=10, rounds=20, seed=0)
    assert abs(summary.test_rmse_mean - sigma) / sigma < 0.10
    assert summary.test_r2_mean > 0.99


def test_cross_validate_validation():
    x = np.linspace(0, 1, 8)
    with pytest.raises(ValidationError):
        cross_validate(x, x, folds=9)  # more folds than points
    with pytest.raises(ValidationError):
        cross_validate(x, x, folds=1)
    with pytest.raises(ValidationError):
        cross_validate(x, x, rounds=0)


def test_holdout_validate():
    x = np.linspace(0, 10, 50)
    summary = holdout_validate(x, 3 * x + 2, rounds=25, seed=1)
    assert summary.scheme == "holdout"
    assert summary.rounds == 25
    assert summary.splits == 1
    assert summary.test_r2_mean == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValidationError, match="rounds"):
        holdout_validate(x, x, rounds=0)


# The per-split fit the batched kernel replaced: one OLS and two scores per
# split, the k-fold train rows found with setdiff1d. The summaries must match
# it bit for bit.


def _ols_oracle(x, y):
    xc = x - x.mean()
    slope = float((xc * (y - y.mean())).sum() / (xc * xc).sum())
    return slope, float(y.mean() - slope * x.mean())


def _r2_rmse_oracle(y, pred):
    res = y - pred
    ssr = float((res * res).sum())
    yc = y - y.mean()
    sst = float((yc * yc).sum())
    return (math.nan if sst == 0.0 else 1.0 - ssr / sst), float(np.sqrt(ssr / y.shape[0]))


def _split_metrics_oracle(x, y, train_idx, test_idx):
    slope, intercept = _ols_oracle(x[train_idx], y[train_idx])
    return (_r2_rmse_oracle(y[train_idx], slope * x[train_idx] + intercept),
            _r2_rmse_oracle(y[test_idx], slope * x[test_idx] + intercept))


def _summary_oracle(scheme, rounds, splits, train_stats, test_stats):
    tr, te = np.asarray(train_stats), np.asarray(test_stats)
    return CrossValSummary(
        scheme=scheme, rounds=rounds, splits=splits,
        test_r2_mean=float(te[:, 0].mean()), test_r2_std=float(te[:, 0].std()),
        test_rmse_mean=float(te[:, 1].mean()), test_rmse_std=float(te[:, 1].std()),
        train_r2_mean=float(tr[:, 0].mean()), train_r2_std=float(tr[:, 0].std()),
        train_rmse_mean=float(tr[:, 1].mean()), train_rmse_std=float(tr[:, 1].std()))


def cross_validate_oracle(x, y, folds, rounds, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    stats = []
    for _ in range(rounds):
        perm = rng.permutation(x.shape[0])
        for test_idx in np.array_split(perm, folds):
            stats.append(_split_metrics_oracle(
                x, y, np.setdiff1d(perm, test_idx, assume_unique=True), test_idx))
    return _summary_oracle("kfold", rounds, folds, *zip(*stats))


def holdout_validate_oracle(x, y, rounds, seed, test_fraction=0.2):
    n_test = max(1, int(round(test_fraction * x.shape[0])))
    rng = np.random.Generator(np.random.PCG64(seed))
    stats = []
    for _ in range(rounds):
        perm = rng.permutation(x.shape[0])
        stats.append(_split_metrics_oracle(x, y, perm[n_test:], perm[:n_test]))
    return _summary_oracle("holdout", rounds, 1, *zip(*stats))


def _same(a, b):
    # NaN fields (r2 on one-row test folds) compare equal to each other
    return repr(a) == repr(b)


@pytest.mark.parametrize("n, folds, rounds", [
    (200, 10, 20),   # equal folds
    (500, 7, 30),    # uneven folds: two fold sizes; holdout takes two batches
    (1000, 30, 3),   # each fold size spans several batches
    (300, 300, 2),   # leave-one-out over several batches: test r2 is NaN
    (23, 4, 15),
    (12, 12, 3),     # one-row test folds: test r2 is NaN
    (5, 2, 5),      # two-row training sets
])
def test_batched_splits_match_the_per_split_oracle_bit_for_bit(n, folds, rounds):
    rng = np.random.Generator(np.random.PCG64(n + folds))
    x = rng.uniform(-50.0, 50.0, n)
    y = 0.7 * x + rng.normal(0.0, 4.0, n)
    seed = n * folds
    assert _same(cross_validate(x, y, folds=folds, rounds=rounds, seed=seed),
                 cross_validate_oracle(x, y, folds, rounds, seed))
    assert _same(holdout_validate(x, y, rounds=rounds, seed=seed),
                 holdout_validate_oracle(x, y, rounds, seed))
    report = fit_univariate(x, y)
    slope, intercept = _ols_oracle(x, y)
    assert (report.slope, report.intercept) == (slope, intercept)
    assert (report.r2, report.rmse) == _r2_rmse_oracle(y, slope * x + intercept)


def test_constant_x_on_a_training_split_is_degenerate():
    # the fold holding the only distinct x leaves a constant training set
    x = np.array([0.0] * 9 + [1.0])
    with pytest.raises(ValidationError, match="constant"):
        cross_validate(x, x, folds=10, rounds=1)
    with pytest.raises(ValidationError, match="constant"):
        fit_univariate(np.ones(5), np.arange(5.0))


# -- adsorption figures of merit ----------------------------------------------


def test_working_capacity_values():
    assert working_capacity(50.0, 12.0) == 38.0
    assert working_capacity(5.0, 5.0) == 0.0
    with pytest.warns(UserWarning, match="negative"):
        assert working_capacity(1.0, 2.0) == -1.0


def test_selectivity_values():
    # (3 / 1) / (0.15 / 0.85) = 3 * 85 / 15 = 17
    assert selectivity(3.0, 1.0) == pytest.approx(17.0, abs=1e-9)
    assert selectivity(1.0, 1.0, f_co2=0.5, f_n2=0.5) == pytest.approx(1.0)
    assert selectivity(0.0, 5.0) == 0.0
    assert math.isnan(selectivity(2.0, 0.0))
    with pytest.raises(ValidationError):
        selectivity(-1.0, 1.0)
    with pytest.raises(ValidationError):
        selectivity(1.0, 1.0, f_co2=0.3, f_n2=0.5)
    with pytest.raises(ValidationError):
        selectivity(1.0, 1.0, f_co2=0.0, f_n2=1.0)


@settings(max_examples=30, deadline=None)
@given(q1=st.floats(0.01, 100.0), q2=st.floats(0.01, 100.0),
       scale=st.floats(0.1, 10.0))
def test_selectivity_scale_invariance(q1, q2, scale):
    # scaling both uptakes by the same factor leaves selectivity unchanged
    base = selectivity(q1, q2)
    scaled = selectivity(scale * q1, scale * q2)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_isotherm_row_validation_and_methods():
    row = IsothermRow(material="m1", q_co2_16bar=50.0, q_co2_015bar=12.0,
                      q_mix_co2_015bar=3.0, q_mix_n2_015bar=1.0)
    assert row.working_capacity() == 38.0
    assert row.selectivity() == pytest.approx(17.0)
    with pytest.raises(ValidationError):
        IsothermRow(material="m2", q_co2_16bar=-1.0, q_co2_015bar=0.0,
                    q_mix_co2_015bar=0.0, q_mix_n2_015bar=0.0)


def test_load_isotherm_table(tmp_path):
    path = tmp_path / "iso.csv"
    path.write_text("material,q_co2_16bar,q_co2_015bar,q_mix_co2_015bar,q_mix_n2_015bar\n"
                    "candidate-a,50.0,12.0,3.0,1.0\n"
                    "candidate-b,20.0,5.0,1.5,0.5\n")
    rows = load_isotherm_table(path)
    assert [r.material for r in rows] == ["candidate-a", "candidate-b"]
    assert rows[0].working_capacity() == 38.0
    bad = tmp_path / "bad.csv"
    bad.write_text("material,nope\nx,1\n")
    with pytest.raises(ValidationError, match="header"):
        load_isotherm_table(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("material,q_co2_16bar,q_co2_015bar,q_mix_co2_015bar,q_mix_n2_015bar\n"
                    "x,1.0,oops,0.5,0.5\n")
    with pytest.raises(ValidationError, match="bad2.csv:2"):
        load_isotherm_table(bad2)
    bad3 = tmp_path / "bad3.csv"
    bad3.write_text("material,q_co2_16bar,q_co2_015bar,q_mix_co2_015bar,q_mix_n2_015bar\n"
                    "x,1.0,0.5,0.5,0.5\n"
                    "y,1.0,0.5\n")
    with pytest.raises(ValidationError, match="bad3.csv:3: expected 5 fields"):
        load_isotherm_table(bad3)
    # an uptake must be finite and non-negative, and a refused row names path:line
    for name, cells in [("nan", "x,nan,0.5,0.5,0.5"), ("inf", "x,1.0,0.5,inf,0.5"),
                        ("negative", "x,1.0,0.5,0.5,0.5\nm2,-1.0,0.5,0.5,0.5")]:
        table = tmp_path / f"{name}.csv"
        table.write_text("material,q_co2_16bar,q_co2_015bar,q_mix_co2_015bar,q_mix_n2_015bar\n"
                         + cells + "\n")
        with pytest.raises(ValidationError, match=rf"{name}\.csv:\d: .*must be finite and non-negative"):
            load_isotherm_table(table)


def test_percentile_rank():
    ref = [1.0, 2.0, 3.0, 4.0]
    assert percentile_rank(2.5, ref) == 50.0
    assert percentile_rank(0.5, ref) == 0.0
    assert percentile_rank(9.0, ref) == 100.0
    assert percentile_rank(3.0, ref) == 50.0  # strictly-below convention
    with pytest.raises(ValidationError, match="reference set is empty"):
        percentile_rank(1.0, [])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_percentile_rank_matches_brute_count(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    ref = rng.standard_normal(37)
    value = float(rng.standard_normal())
    brute = 100.0 * sum(1 for r in ref if r < value) / 37
    assert percentile_rank(value, ref) == pytest.approx(brute, abs=1e-12)


# -- baseline comparison ------------------------------------------------------


def test_baseline_zero_init_policy_matches_uniform(bridge_env, bridge_reward):
    # an untrained (all-zero) policy is exactly uniform, so both arms draw
    # from the same distribution and the reward means must agree closely
    model = zero_model(ModelConfig(vocab_size=7, embed_dim=8, hidden_dim=8))
    summary = baseline_comparison(model, bridge_env, bridge_reward,
                                  n_samples=8000, seed=0)
    assert isinstance(summary, BaselineSummary)
    assert summary.n_samples == 8000
    spread = abs(summary.trained_mean - summary.uniform_mean)
    pooled = max(summary.trained_mean, summary.uniform_mean)
    assert spread / pooled < 0.05
    assert summary.trained_counts.sum() == 8000
    assert summary.uniform_counts.sum() == 8000
    assert summary.bin_edges.shape == (21,)
    assert np.all(np.diff(summary.bin_edges) > 0)


def test_baseline_trained_policy_beats_uniform(bridge_env, bridge_reward):
    # the exact flow-matching policy oversamples high-reward terminals, so
    # its mean reward must exceed the uniform mean: E[R^2]/E[R] > E[R]
    policy = TabularPolicy(exact_flows(bridge_env, bridge_reward), bridge_env)
    summary = baseline_comparison(policy, bridge_env, bridge_reward,
                                  n_samples=4000, seed=1)
    assert summary.trained_mean > summary.uniform_mean
    rewards = bridge_reward.score_batch(bridge_env.enumerate_terminals()).reward
    expect_trained = (rewards ** 2).sum() / rewards.sum()
    assert expect_trained > rewards.mean()  # sanity: the ordering is structural
    # the uniform arm is the zero-init model's rollout on the seed's second stream, to the bit
    uniform, _ = rollout(zero_model(ModelConfig(vocab_size=7, embed_dim=8, hidden_dim=8)),
                         bridge_env, np.random.Generator(np.random.PCG64(
                             np.random.SeedSequence(1).spawn(2)[1])), 4000)
    r_uniform = bridge_reward.score_batch(uniform).reward
    assert (summary.uniform_mean, summary.uniform_max) == (r_uniform.mean(), r_uniform.max())
    assert abs(summary.trained_mean - expect_trained) / expect_trained < 0.05


# -- exact flows --------------------------------------------------------------


def test_exact_flows_single_terminal(tmp_path):
    vocab_csv = tmp_path / "v.csv"
    vocab_csv.write_text("# schema=vocabulary/1\n"
                         "token,kind,mass_g_mol,surface_a2\n"
                         "N1,node,100.0,900.0\n")
    topo_json = tmp_path / "t.json"
    topo_json.write_text('{"schema": "topology/1", "name": "solo",'
                         ' "node_slots": [["N1"]], "edge_slots": [],'
                         ' "edges_enabled": false}')
    env = Environment(Topology.load(topo_json), Vocabulary.load(vocab_csv))
    rm = RewardModel(RewardSpec(cutoff=1000.0, surrogate_scale=1000.0), env)
    flows = exact_flows(env, rm)
    assert flows.terminal_probs == {(0,): 1.0}
    [r] = rm.score_batch([(0,)]).reward.tolist()
    assert flows.log_z == pytest.approx(math.log(r), abs=1e-12)
    assert_flows_match_reference(flows, env, rm)


def test_exact_flows_two_terminal_ratio(tmp_path):
    # rewards 1 and 3 -> probabilities 0.25 and 0.75
    vocab_csv = tmp_path / "v.csv"
    vocab_csv.write_text("# schema=vocabulary/1\n"
                         "token,kind,mass_g_mol,surface_a2\n"
                         "N1,node,100.0,100.0\n"
                         "N2,node,100.0,100.0\n")
    topo_json = tmp_path / "t.json"
    topo_json.write_text('{"schema": "topology/1", "name": "pair",'
                         ' "node_slots": [["N1", "N2"]], "edge_slots": [],'
                         ' "edges_enabled": false}')
    env = Environment(Topology.load(topo_json), Vocabulary.load(vocab_csv))

    class FakeReward:
        spec = RewardSpec(cutoff=1.0)

        def score_batch(self, rows):
            rewards = np.where(np.asarray(rows)[:, 0] == 0, 1.0, 3.0)
            return Scores(rewards * 1000.0, rewards, {})

    flows = exact_flows(env, FakeReward())
    assert flows.terminal_probs[(0,)] == pytest.approx(0.25, abs=1e-12)
    assert flows.terminal_probs[(1,)] == pytest.approx(0.75, abs=1e-12)
    assert flows.flows[0].tolist() == [pytest.approx(4.0, abs=1e-12)]
    assert flows.log_z == pytest.approx(math.log(4.0), abs=1e-12)
    assert_flows_match_reference(flows, env, FakeReward())


@pytest.mark.parametrize("config", ["train_bridge.json", "train_grid.json"])
def test_exact_flows_equal_the_reference_sums(config):
    run = load_run_config(CONFIGS / config)
    rm = RewardModel(run.reward_spec, run.env)
    flows = exact_flows(run.env, rm)
    assert [len(level) for level in flows.flows] == [1, *np.cumprod(run.env.slot_masks.sum(axis=1))]
    assert_flows_match_reference(flows, run.env, rm)


def test_exact_flows_on_one_slot_equal_the_reference_sums(single_env):
    rm = RewardModel(RewardSpec(cutoff=2500.0, surrogate_scale=1000.0), single_env)
    assert_flows_match_reference(exact_flows(single_env, rm), single_env, rm)


def test_exact_flows_respects_enumeration_bound():
    import conftest
    vocab = Vocabulary.load(conftest.FIXTURES / "vocab_grid.csv")
    topo = Topology.load(conftest.FIXTURES / "topo_grid.json")
    env = Environment(topo, vocab)
    rm = RewardModel(RewardSpec(cutoff=5000.0, surrogate_scale=1000.0), env)
    with pytest.raises(BlockflowError, match="10000") as err:
        exact_flows(env, rm, bound=100)
    assert not isinstance(err.value, ValidationError)


def test_tabular_policy_probabilities_sum_to_one(bridge_env, bridge_reward):
    flows = exact_flows(bridge_env, bridge_reward)
    policy = TabularPolicy(flows, bridge_env)
    tokens, state = np.full(3, policy.start_token), None
    for slot in range(bridge_env.n_slots):
        mask = bridge_env.slot_masks[slot]
        logits, state = policy.step(tokens, state)
        log_probs = masked_log_softmax(logits, mask)
        np.testing.assert_allclose(np.exp(log_probs[:, mask]).sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.isneginf(log_probs[:, ~mask]))
        (prefixes,) = state
        assert prefixes.shape == (3, slot)
        for prefix, row in zip(prefixes.tolist(), log_probs):
            for action in np.flatnonzero(mask):
                assert row[action] == pytest.approx(flow_log_prob(flows, tuple(prefix), action),
                                                    abs=1e-12)
        tokens = np.flatnonzero(mask)[[0, -1, 0]]
    with pytest.raises(TerminalStateError):
        policy.step(tokens, state)


def test_tabular_policy_steps_every_prefix_by_its_own_flows(bridge_env):
    # cutoff 7000 floors 4 terminals, so a slot's child flows depend on the earlier tokens
    rm = RewardModel(RewardSpec(cutoff=7000.0, surrogate_scale=1000.0), bridge_env)
    flows = exact_flows(bridge_env, rm)
    policy = TabularPolicy(flows, bridge_env)
    for depth in range(bridge_env.n_slots):
        prefixes = flows.prefixes(depth)
        if depth == 0:
            logits, _ = policy.step([policy.start_token])
        else:
            logits, _ = policy.step(prefixes[:, -1], (prefixes[:, :-1],))
        log_probs = masked_log_softmax(logits, bridge_env.slot_masks[depth])
        expected = [[flow_log_prob(flows, tuple(prefix), action) for action in range(logits.shape[1])]
                    for prefix in prefixes.tolist()]
        np.testing.assert_allclose(log_probs, expected, rtol=0, atol=1e-12)
    assert len({tuple(row) for row in np.round(log_probs, 6).tolist()}) > 1


def test_tabular_policy_rejects_other_env(bridge_env, bridge_reward, single_env):
    policy = TabularPolicy(exact_flows(bridge_env, bridge_reward), bridge_env)
    with pytest.raises(ValidationError):
        rollout(policy, single_env, np.random.Generator(np.random.PCG64(0)), 10)
