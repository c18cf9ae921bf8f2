import numpy as np
import pytest

from blockflow import Adam, adam_update
from blockflow.errors import ConfigurationError, TrainingAbort


def reference_adam(value, grad, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam recurrence evaluated out of place, term for term."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def test_adam_update_scalar_recurrence_oracle():
    # constant gradient 1: hand-unrolled three steps of the update rule
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.1
    value, m, v = np.zeros(()), np.zeros(()), np.zeros(())
    work = (np.empty(()), np.empty(()))
    expected = []
    em, ev, eval_ = 0.0, 0.0, 0.0
    for t in (1, 2, 3):
        em = beta1 * em + (1 - beta1) * 1.0
        ev = beta2 * ev + (1 - beta2) * 1.0
        mhat = em / (1 - beta1 ** t)
        vhat = ev / (1 - beta2 ** t)
        eval_ = eval_ - lr * mhat / (np.sqrt(vhat) + eps)
        expected.append(eval_)
    for t in (1, 2, 3):
        adam_update(value, 1.0, m, v, t, lr, beta1, beta2, eps, work)
        assert float(value) == pytest.approx(expected[t - 1], rel=1e-15)
    # with vhat == mhat == 1 the first step is almost exactly -lr
    assert expected[0] == pytest.approx(-lr, rel=1e-7)


def test_adam_step_is_in_place_and_bit_equals_out_of_place_recurrence():
    rng = np.random.Generator(np.random.PCG64(3))
    w0 = rng.normal(size=(4, 2))
    params = {"w": w0.copy(), "log_z": np.zeros(())}
    opt = Adam(params, lr=0.01, lr_overrides={"log_z": 0.1})
    arrays = {name: (p, opt.m[name], opt.v[name]) for name, p in params.items()}
    ref = {"w": (w0.copy(), np.zeros_like(w0), np.zeros_like(w0)),
           "log_z": (np.float64(0.0), np.float64(0.0), np.float64(0.0))}
    for t in (1, 2, 3):
        grads = {"w": rng.normal(size=(4, 2)), "log_z": np.float64(rng.normal())}
        opt.step(grads)
        for name, (value, m, v) in ref.items():
            ref[name] = reference_adam(value, grads[name], m, v, t, opt.lr[name])
    for name, p in params.items():
        assert p is arrays[name][0] and opt.m[name] is arrays[name][1]
        assert opt.v[name] is arrays[name][2]
        for got, want in zip((p, opt.m[name], opt.v[name]), ref[name]):
            np.testing.assert_array_equal(got, want)
    assert isinstance(params["log_z"], np.ndarray) and params["log_z"].shape == ()


def test_lr_override_applies_per_parameter():
    params = {"w": np.zeros(1), "log_z": np.zeros(())}
    opt = Adam(params, lr=0.001, lr_overrides={"log_z": 0.1})
    opt.step({"w": np.ones(1), "log_z": np.float64(1.0)})
    # both see unit gradient; the step size ratio is the lr ratio
    ratio = float(params["log_z"]) / float(params["w"][0])
    assert ratio == pytest.approx(100.0, rel=1e-9)


def test_zero_gradient_means_zero_update():
    # m and v stay zero, so the step is 0 / (0 + eps): exactly no change
    params = {"w": np.array([1.5, -2.0]), "log_z": np.array(0.25)}
    opt = Adam(params, lr=0.1)
    opt.step({"w": np.zeros(2), "log_z": np.zeros(())})
    assert opt.step_count == 1
    np.testing.assert_array_equal(params["w"], [1.5, -2.0])
    assert float(params["log_z"]) == 0.25
    for name in params:
        assert np.all(opt.m[name] == 0.0) and np.all(opt.v[name] == 0.0)


def test_nonfinite_gradient_aborts_naming_parameter():
    opt = Adam({"oddball": np.zeros(2)}, lr=0.1)
    with pytest.raises(TrainingAbort, match="oddball"):
        opt.step({"oddball": np.array([1.0, np.inf])})


def test_nonfinite_gradient_leaves_every_parameter_unchanged():
    params = {"first": np.array([1.0, 2.0]), "second": np.zeros(2)}
    opt = Adam(params, lr=0.1)
    opt.step({"first": np.array([0.5, -0.5]), "second": np.array([0.5, -0.5])})
    before = {name: (p.copy(), opt.m[name].copy(), opt.v[name].copy())
              for name, p in params.items()}
    with pytest.raises(TrainingAbort, match="second"):
        opt.step({"first": np.array([0.5, -0.5]), "second": np.array([1.0, np.inf])})
    assert opt.step_count == 1
    for name, p in params.items():
        for got, want in zip((p, opt.m[name], opt.v[name]), before[name]):
            np.testing.assert_array_equal(got, want)


def test_validation_errors():
    params = {"w": np.zeros(1)}
    with pytest.raises(ConfigurationError):
        Adam(params, lr=0.0)
    with pytest.raises(ConfigurationError):
        Adam(params, lr=0.1, lr_overrides={"nope": 0.1})
    with pytest.raises(ConfigurationError):
        Adam(params, lr=0.1, lr_overrides={"w": -1.0})
    with pytest.raises(ConfigurationError, match="'w' must be C-contiguous"):
        Adam({"w": np.zeros((3, 4)).T}, lr=0.1)  # a flat view of it would be a copy


def test_state_roundtrip_resumes_identically():
    rng = np.random.Generator(np.random.PCG64(9))
    grads = [rng.normal(size=(3,)) for _ in range(5)]

    def run(steps, start=None, state=None):
        params = {"w": np.zeros(3) if start is None else start.copy()}
        opt = Adam(params, lr=0.05)
        if state is not None:
            opt.load_state_dict(state)
        for g in steps:
            opt.step({"w": g.copy()})
        return params["w"].copy(), {"step_count": opt.step_count, "m": opt.m, "v": opt.v}

    full, _ = run(grads)
    half, state = run(grads[:3])
    resumed, _ = run(grads[3:], start=half, state=state)
    np.testing.assert_array_equal(resumed, full)


def test_blocked_step_bit_equals_one_update_per_parameter():
    # "w" has 40,000 elements: more than one 16,384-element block, and not a
    # multiple of it, so the last block is short
    rng = np.random.Generator(np.random.PCG64(21))
    shapes = {"w": (200, 200), "b": (7,), "log_z": ()}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    opt = Adam(params, lr=0.01, lr_overrides={"log_z": 0.1})
    ref = {name: [p.copy(), np.zeros(p.shape), np.zeros(p.shape)] for name, p in params.items()}
    for t in range(1, 6):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        opt.step(grads)
        for name, (value, m, v) in ref.items():
            work = (np.empty(value.shape), np.empty(value.shape))
            adam_update(value, grads[name], m, v, t, opt.lr[name], 0.9, 0.999, 1e-8, work)
    for name, (value, m, v) in ref.items():
        assert params[name].tobytes() == value.tobytes()
        assert opt.m[name].tobytes() == m.tobytes()
        assert opt.v[name].tobytes() == v.tobytes()


@pytest.mark.parametrize("moment", ["m", "v"])
def test_load_state_dict_refuses_a_misshapen_moment_before_changing_anything(moment):
    params = {"w": np.zeros(3), "b": np.zeros(2)}
    opt = Adam(params, lr=0.05)
    opt.step({"w": np.ones(3), "b": np.ones(2)})
    before = {key: {name: arr.copy() for name, arr in getattr(opt, key).items()}
              for key in ("m", "v")}
    state = {"step_count": 7, "m": dict(opt.m), "v": dict(opt.v)}
    state[moment]["b"] = np.zeros(5)
    with pytest.raises(ConfigurationError, match="'b' has wrong shape"):
        opt.load_state_dict(state)
    assert opt.step_count == 1
    for name in params:
        np.testing.assert_array_equal(opt.m[name], before["m"][name])
        np.testing.assert_array_equal(opt.v[name], before["v"][name])
