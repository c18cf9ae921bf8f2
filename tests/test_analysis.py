import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from blockflow import (BaselineSummary, Environment, FlowModel, IsothermRow,
                       ModelConfig, RewardModel, RewardSpec, TabularPolicy,
                       Topology, Vocabulary, average_ranks,
                       baseline_comparison, cross_validate, exact_flows,
                       fit_univariate, holdout_validate, load_isotherm_table,
                       pearson_r, percentile_rank, rollout, selectivity,
                       spearman_rho, working_capacity)
from blockflow.autodiff import masked_log_softmax
from blockflow.errors import (DegenerateInputError, EnumerationBoundError,
                              TerminalStateError, ValidationError)


# -- rank and correlation -----------------------------------------------------


def test_average_ranks_ties():
    assert np.array_equal(average_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])
    assert np.array_equal(average_ranks([3.0, 1.0, 2.0]), [3.0, 1.0, 2.0])
    assert np.array_equal(average_ranks([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])


def test_pearson_trivials():
    x = np.arange(10.0)
    assert pearson_r(x, 2 * x + 3) == pytest.approx(1.0, abs=1e-14)
    assert pearson_r(x, -x) == pytest.approx(-1.0, abs=1e-14)
    with pytest.raises(DegenerateInputError):
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
    with pytest.raises(DegenerateInputError):
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
    summary = holdout_validate(x, 3 * x + 2, test_fraction=0.2, rounds=25, seed=1)
    assert summary.scheme == "holdout"
    assert summary.rounds == 25
    assert summary.splits == 1
    assert summary.test_r2_mean == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValidationError):
        holdout_validate(x, x, test_fraction=0.0)
    with pytest.raises(ValidationError):
        holdout_validate(x, x, test_fraction=1.0)


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


def test_percentile_rank():
    ref = [1.0, 2.0, 3.0, 4.0]
    assert percentile_rank(2.5, ref) == 50.0
    assert percentile_rank(0.5, ref) == 0.0
    assert percentile_rank(9.0, ref) == 100.0
    assert percentile_rank(3.0, ref) == 50.0  # strictly-below convention
    with pytest.raises(DegenerateInputError):
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
    model = FlowModel.zero_init(ModelConfig(vocab_size=7, embed_dim=8, hidden_dim=8))
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
    rewards = np.array([r for r, _ in
                        bridge_reward.score_batch(bridge_env.enumerate_terminals())])
    expect_uniform = rewards.mean()
    expect_trained = (rewards ** 2).sum() / rewards.sum()
    assert expect_trained > expect_uniform  # sanity: the ordering is structural
    assert abs(summary.uniform_mean - expect_uniform) / expect_uniform < 0.05
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
    [(r, _)] = rm.score_batch([(0,)])
    assert flows.log_z == pytest.approx(math.log(r), abs=1e-12)


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

        def score_batch(self, sequences, workers=1):
            return [((1.0 if seq == (0,) else 3.0), None) for seq in sequences]

    flows = exact_flows(env, FakeReward())
    assert flows.terminal_probs[(0,)] == pytest.approx(0.25, abs=1e-12)
    assert flows.terminal_probs[(1,)] == pytest.approx(0.75, abs=1e-12)
    assert flows.flows[()] == pytest.approx(4.0, abs=1e-12)
    assert flows.log_z == pytest.approx(math.log(4.0), abs=1e-12)


def test_exact_flows_respects_enumeration_bound():
    import conftest
    vocab = Vocabulary.load(conftest.FIXTURES / "vocab_grid.csv")
    topo = Topology.load(conftest.FIXTURES / "topo_grid.json")
    env = Environment(topo, vocab)
    rm = RewardModel(RewardSpec(cutoff=5000.0, surrogate_scale=1000.0), env)
    with pytest.raises(EnumerationBoundError, match="10000"):
        exact_flows(env, rm, bound=100)


def test_tabular_policy_probabilities_sum_to_one(bridge_env, bridge_reward):
    policy = TabularPolicy(exact_flows(bridge_env, bridge_reward), bridge_env)
    tokens, state = np.full(3, policy.start_token), None
    for slot in range(bridge_env.n_slots):
        mask = bridge_env.slot_masks[slot]
        logits, state = policy.step(tokens, state)
        log_probs = masked_log_softmax(logits, mask).data
        np.testing.assert_allclose(np.exp(log_probs[:, mask]).sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.isneginf(log_probs[:, ~mask]))
        for prefix, row in zip(state, log_probs):
            for action in np.flatnonzero(mask):
                assert row[action] == pytest.approx(policy.log_prob(prefix, action), abs=1e-12)
        tokens = np.flatnonzero(mask)[[0, -1, 0]]
    with pytest.raises(TerminalStateError):
        policy.step(tokens, state)


def test_tabular_policy_rejects_other_env(bridge_env, bridge_reward, single_env):
    policy = TabularPolicy(exact_flows(bridge_env, bridge_reward), bridge_env)
    with pytest.raises(ValidationError):
        rollout(policy, single_env, np.random.Generator(np.random.PCG64(0)), 10)
