import math

import numpy as np
import pytest

from blockflow import Adam, adam_update
from blockflow.errors import BlockflowError, ValidationError
from blockflow.model import named_views


def flat_params(arrays):
    """A flat buffer holding copies of `arrays`, and its named views, as a model lays them out."""
    shapes = {name: np.shape(a) for name, a in arrays.items()}
    flat = np.empty(sum(np.size(a) for a in arrays.values()))
    views = named_views(flat, shapes)
    for name, a in arrays.items():
        views[name][...] = a
    return flat, views


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
    flat, params = flat_params({"w": w0, "log_z": np.zeros(())})
    opt = Adam(params, lr=0.01, lr_overrides={"log_z": 0.1})
    buffers = (flat, opt.m, opt.v)
    ref = {"w": (w0.copy(), np.zeros_like(w0), np.zeros_like(w0)),
           "log_z": (np.float64(0.0), np.float64(0.0), np.float64(0.0))}
    for t in (1, 2, 3):
        grad, grads = flat_params({"w": rng.normal(size=(4, 2)), "log_z": np.float64(rng.normal())})
        opt.step(flat, grad)
        for name, (value, m, v) in ref.items():
            ref[name] = reference_adam(value, grads[name], m, v, t, opt.lr[name])
    assert opt.m is buffers[1] and opt.v is buffers[2]
    views = [named_views(a, {name: p.shape for name, p in params.items()}) for a in buffers]
    for name in params:
        for got, want in zip(views, ref[name]):
            np.testing.assert_array_equal(got[name], want)
    assert isinstance(params["log_z"], np.ndarray) and params["log_z"].shape == ()


def test_lr_override_applies_per_parameter():
    flat, params = flat_params({"w": np.zeros(1), "log_z": np.zeros(())})
    opt = Adam(params, lr=0.001, lr_overrides={"log_z": 0.1})
    opt.step(flat, np.ones(2))
    # both see unit gradient; the step size ratio is the lr ratio
    ratio = float(params["log_z"]) / float(params["w"][0])
    assert ratio == pytest.approx(100.0, rel=1e-9)


def test_zero_gradient_means_zero_update():
    # m and v stay zero, so the step is 0 / (0 + eps): exactly no change
    flat, params = flat_params({"w": np.array([1.5, -2.0]), "log_z": np.array(0.25)})
    opt = Adam(params, lr=0.1)
    opt.step(flat, np.zeros(3))
    assert opt.step_count == 1
    np.testing.assert_array_equal(params["w"], [1.5, -2.0])
    assert float(params["log_z"]) == 0.25
    assert np.all(opt.m == 0.0) and np.all(opt.v == 0.0)


def test_nonfinite_gradient_aborts_naming_parameter():
    flat, params = flat_params({"oddball": np.zeros(2)})
    opt = Adam(params, lr=0.1)
    with pytest.raises(BlockflowError, match="non-finite gradient in parameter 'oddball'") as err:
        opt.step(flat, np.array([1.0, np.inf]))
    assert not isinstance(err.value, ValidationError)


def test_nonfinite_gradient_leaves_every_parameter_unchanged():
    flat, params = flat_params({"first": np.array([1.0, 2.0]), "second": np.zeros(2)})
    opt = Adam(params, lr=0.1)
    opt.step(flat, np.array([0.5, -0.5, 0.5, -0.5]))
    before = [a.copy() for a in (flat, opt.m, opt.v)]
    # "second" is the last span of the sorted-name layout
    with pytest.raises(BlockflowError, match="second") as err:
        opt.step(flat, np.array([0.5, -0.5, 1.0, np.inf]))
    assert not isinstance(err.value, ValidationError)
    assert opt.step_count == 1
    for got, want in zip((flat, opt.m, opt.v), before):
        np.testing.assert_array_equal(got, want)


def test_validation_errors():
    params = {"w": np.zeros(1)}
    with pytest.raises(ValidationError, match="learning rate must be finite and positive, got 0.0"):
        Adam(params, lr=0.0)
    with pytest.raises(ValidationError, match="lr override for unknown parameter 'nope'"):
        Adam(params, lr=0.1, lr_overrides={"nope": 0.1})
    with pytest.raises(ValidationError, match="lr override for 'w' must be finite and positive, got -1.0"):
        Adam(params, lr=0.1, lr_overrides={"w": -1.0})
    # NaN passes a `rate <= 0` test; a non-finite rate is refused by value
    for rate in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite and positive"):
            Adam(params, lr=rate)
        with pytest.raises(ValidationError, match="finite and positive"):
            Adam(params, lr=0.1, lr_overrides={"w": rate})


def test_state_roundtrip_resumes_identically():
    rng = np.random.Generator(np.random.PCG64(9))
    grads = [rng.normal(size=(3,)) for _ in range(5)]

    def run(steps, start=None, state=None):
        flat = np.zeros(3) if start is None else start.copy()
        opt = Adam({"w": flat}, lr=0.05)
        if state is not None:  # as a resumed train restores it
            opt.step_count, opt.m, opt.v = state
        for g in steps:
            opt.step(flat, g.copy())
        return flat, (opt.step_count, opt.m, opt.v)

    full, _ = run(grads)
    half, state = run(grads[:3])
    resumed, _ = run(grads[3:], start=half, state=state)
    np.testing.assert_array_equal(resumed, full)


def test_blocked_step_bit_equals_one_update_per_parameter():
    # "w" has 40,000 elements: more than one 16,384-element block, and not a
    # multiple of it, so the last block is short. In the sorted-name layout
    # log_z lies between "b" and "w", at its own rate
    rng = np.random.Generator(np.random.PCG64(21))
    shapes = {"w": (200, 200), "b": (7,), "log_z": ()}
    flat, params = flat_params({name: rng.normal(size=shape) for name, shape in shapes.items()})
    assert params["log_z"].base is flat and float(flat[7]) == float(params["log_z"])
    opt = Adam(params, lr=0.01, lr_overrides={"log_z": 0.1})
    ref = {name: [p.copy(), np.zeros(p.shape), np.zeros(p.shape)] for name, p in params.items()}
    for t in range(1, 6):
        grad, grads = flat_params({name: rng.normal(size=shape) for name, shape in shapes.items()})
        opt.step(flat, grad)
        for name, (value, m, v) in ref.items():
            work = (np.empty(value.shape), np.empty(value.shape))
            adam_update(value, grads[name], m, v, t, opt.lr[name], 0.9, 0.999, 1e-8, work)
    m, v = (named_views(a, shapes) for a in (opt.m, opt.v))
    for name, (value, ref_m, ref_v) in ref.items():
        assert params[name].tobytes() == value.tobytes()
        assert m[name].tobytes() == ref_m.tobytes()
        assert v[name].tobytes() == ref_v.tobytes()
