import numpy as np
import pytest

from blockflow import FlowModel, ModelConfig, rollout
from blockflow.autodiff import masked_log_softmax
from blockflow.errors import ValidationError
from blockflow.model import named_views
from conftest import zero_model


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def tiny_model(vocab=3, embed=2, hidden=2, seed=5):
    return FlowModel.init(ModelConfig(vocab, embed, hidden), seed=seed)


def test_init_shapes_and_logz():
    m = tiny_model()
    p = m.parameters()
    assert p["embed"].shape == (4, 2)  # vocab + start sentinel
    assert p["w_x"].shape == (2, 8)
    assert p["w_h"].shape == (2, 8)
    assert p["b"].shape == (8,)
    assert p["w_out"].shape == (2, 3)
    assert p["b_out"].shape == (3,)
    assert p["log_z"].shape == ()
    assert m.log_z_value == 0.0
    assert m.start_token == 3


def test_init_uniform_bounds_and_forget_bias():
    cfg = ModelConfig(vocab_size=6, embed_dim=8, hidden_dim=16)
    m = FlowModel.init(cfg, seed=11)
    bound = 1.0 / np.sqrt(16)
    for name in ("embed", "w_x", "w_h", "w_out", "b_out"):
        data = m.parameters()[name]
        assert np.all(np.abs(data) <= bound)
    b = m.parameters()["b"]
    assert np.all(np.abs(np.concatenate([b[:16], b[32:]])) <= bound)
    # forget-gate block carries the +1 offset
    assert np.all(b[16:32] >= 1.0 - bound)
    assert np.all(b[16:32] <= 1.0 + bound)


def test_init_is_seed_deterministic():
    a = FlowModel.init(ModelConfig(4, 3, 5), seed=9)
    b = FlowModel.init(ModelConfig(4, 3, 5), seed=9)
    c = FlowModel.init(ModelConfig(4, 3, 5), seed=10)
    for name in a.parameters():
        np.testing.assert_array_equal(a.parameters()[name], b.parameters()[name])
    assert not np.array_equal(a.parameters()["w_x"], c.parameters()["w_x"])


def test_step_matches_hand_rolled_cell():
    """Recompute one recurrent step with plain numpy and the published
    gate layout (input, forget, cell, output along the fused axis)."""
    cfg = ModelConfig(vocab_size=2, embed_dim=2, hidden_dim=2)
    m = FlowModel.init(cfg, seed=3)
    p = m.parameters()
    token = np.array([1])
    logits, (h1, c1) = m.step(token, None)

    x = p["embed"][1]
    z = x @ p["w_x"] + np.zeros(2) @ p["w_h"] + p["b"]
    gi, gf, gc, go = sigmoid(z[0:2]), sigmoid(z[2:4]), np.tanh(z[4:6]), sigmoid(z[6:8])
    c_ref = gf * 0.0 + gi * gc
    h_ref = go * np.tanh(c_ref)
    np.testing.assert_allclose(c1[0], c_ref, rtol=1e-14)
    np.testing.assert_allclose(h1[0], h_ref, rtol=1e-14)
    np.testing.assert_allclose(logits[0], h_ref @ p["w_out"] + p["b_out"], rtol=1e-14)

    # second step threads the state through
    logits2, (h2, c2) = m.step(np.array([0]), (h1, c1))
    x2 = p["embed"][0]
    z2 = x2 @ p["w_x"] + h_ref @ p["w_h"] + p["b"]
    c2_ref = sigmoid(z2[2:4]) * c_ref + sigmoid(z2[0:2]) * np.tanh(z2[4:6])
    h2_ref = sigmoid(z2[6:8]) * np.tanh(c2_ref)
    np.testing.assert_allclose(c2[0], c2_ref, rtol=1e-13)
    np.testing.assert_allclose(logits2[0], h2_ref @ p["w_out"] + p["b_out"], rtol=1e-13)


def test_step_batch_equals_stacked_singles():
    m = tiny_model(vocab=4, embed=3, hidden=5, seed=21)
    tokens = np.array([0, 3, 4])  # includes the start sentinel
    batch_logits, (h, c) = m.step(tokens, None)
    for i, t in enumerate(tokens):
        single, (hs, cs) = m.step(np.array([t]), None)
        np.testing.assert_allclose(batch_logits[i], single[0], rtol=1e-14)
        np.testing.assert_allclose(h[i], hs[0], rtol=1e-14)


def test_step_rejects_out_of_range_tokens():
    m = tiny_model()
    with pytest.raises(ValidationError, match=r"token index out of range \[0, 3\]: 4\.\.4"):
        m.step(np.array([4]))  # beyond the start sentinel
    with pytest.raises(ValidationError, match=r"token index out of range \[0, 3\]: -1\.\.-1"):
        m.step(np.array([-1]))


def test_step_rejects_mismatched_state():
    m = tiny_model()
    h = np.zeros((2, 2))
    with pytest.raises(ValidationError, match=r"recurrent state shape .* \(batch=1, hidden=2\)"):
        m.step(np.array([0]), (h, h))  # batch 1 vs state batch 2


def test_step_with_parents_matches_each_row_given_its_parents_state():
    # rows that share a parent share its h @ w_h; a last step builds no state
    m = FlowModel.init(ModelConfig(6, 4, 8), seed=2)
    rng = np.random.Generator(np.random.PCG64(3))
    state = (rng.uniform(-1, 1, (5, 8)), rng.uniform(-2, 2, (5, 8)))
    parents, tokens = rng.integers(0, 5, 40), rng.integers(0, 7, 40)
    logits, (h, c) = m.step(tokens, state, parents=parents)
    each_logits, (each_h, each_c) = m.step(tokens, tuple(part[parents] for part in state))
    for got, want in ((logits, each_logits), (h, each_h), (c, each_c)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    last_logits, nothing = m.step(tokens, state, parents=parents, last=True)
    assert nothing is None
    np.testing.assert_array_equal(last_logits, logits)


def test_constructor_rejects_bad_buffers_and_nonfinite():
    cfg = ModelConfig(3, 2, 2)
    good = FlowModel.init(cfg, seed=0).flat
    for bad in (good[:-1], np.append(good, 0.0), good.astype(np.float32),
                good.reshape(1, -1), np.repeat(good, 2)[::2]):  # the last is strided
        with pytest.raises(ValidationError, match="one contiguous float64 buffer"):
            FlowModel(cfg, bad)
    bad = good.copy()
    named_views(bad, FlowModel.param_shapes(cfg))["b"][3] = np.nan
    with pytest.raises(ValidationError, match="'b' contains non-finite"):
        FlowModel(cfg, bad)


def test_zero_init_gives_uniform_policy(single_env):
    m = zero_model(ModelConfig(vocab_size=7, embed_dim=4, hidden_dim=4))
    logits, _ = m.step([m.start_token])
    log_probs = masked_log_softmax(logits, single_env.slot_masks[0])
    valid = np.flatnonzero(single_env.slot_masks[0])
    np.testing.assert_allclose(np.exp(log_probs[0, valid]), 0.25, rtol=1e-12)
    _, log_prob_sum = rollout(m, single_env, np.random.Generator(np.random.PCG64(0)), 5)
    np.testing.assert_allclose(log_prob_sum, np.log(0.25), rtol=1e-12)


def test_step_walks_slots_and_masks(bridge_env):
    m = tiny_model(vocab=7, embed=3, hidden=4, seed=1)
    tokens, state = np.full(2, m.start_token), None
    for slot in range(bridge_env.n_slots):
        mask = bridge_env.slot_masks[slot]
        logits, state = m.step(tokens, state)
        log_probs = masked_log_softmax(logits, mask)
        np.testing.assert_allclose(np.exp(log_probs[:, mask]).sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.isneginf(log_probs[:, ~mask]))
        valid = np.flatnonzero(mask)
        tokens = valid[[0, -1]]


def test_rollout_never_picks_masked_tokens(bridge_env):
    # a huge logit on a token that two of the three slots mask out must not
    # leak into those slots, with or without exploration
    m = tiny_model(vocab=7, embed=3, hidden=4, seed=1)
    masked = int(np.flatnonzero(~bridge_env.slot_masks[0])[0])
    m.parameters()["b_out"][masked] = 50.0
    for eps in (0.0, 0.3):
        actions, _ = rollout(m, bridge_env, np.random.Generator(np.random.PCG64(3)), 500,
                             epsilon=eps)
        bridge_env.check_sequences(actions)


def test_step_is_a_pure_function_of_tokens_and_state(bridge_env):
    m = tiny_model(vocab=7, embed=3, hidden=4, seed=2)
    _, state = m.step([m.start_token, m.start_token])
    saved = [s.copy() for s in state]
    first, _ = m.step([0, 2], state)
    again, _ = m.step([0, 2], state)
    np.testing.assert_array_equal(first, again)
    for s, before in zip(state, saved):
        np.testing.assert_array_equal(s, before)


def test_model_config_validation():
    with pytest.raises(ValidationError, match="ModelConfig.vocab_size must be >= 1"):
        ModelConfig(vocab_size=0)
    with pytest.raises(ValidationError, match="ModelConfig.embed_dim must be >= 1"):
        ModelConfig(vocab_size=3, embed_dim=0)
