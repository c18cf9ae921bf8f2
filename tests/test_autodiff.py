import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockflow import autodiff as ad
from blockflow.errors import BlockflowError, ValidationError


def numeric_grad(f, arr, h=1e-6):
    """Central differences of scalar f with respect to every entry of arr."""
    arr = np.asarray(arr, dtype=np.float64)
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.shape[0]):
        keep = flat[i]
        flat[i] = keep + h
        up = f(arr)
        flat[i] = keep - h
        down = f(arr)
        flat[i] = keep
        gflat[i] = (up - down) / (2 * h)
    return g


def max_rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6))


def test_masked_log_softmax_two_lane_oracle():
    # independent arithmetic: lse(1, 2) = 2 + log1p(e^-1)
    out = ad.masked_log_softmax(np.array([[1.0, 2.0]]), np.array([True, True]))
    lse = 2.0 + np.log1p(np.exp(-1.0))
    np.testing.assert_allclose(out, [[1.0 - lse, 2.0 - lse]], rtol=1e-15)


def test_masked_log_softmax_excludes_before_normalizing():
    out = ad.masked_log_softmax(np.array([[1.0, 2.0, 3.0]]), np.array([True, False, True]))
    lse = 3.0 + np.log1p(np.exp(-2.0))
    assert out[0, 1] == -np.inf
    np.testing.assert_allclose(out[0, [0, 2]], [1.0 - lse, 3.0 - lse], rtol=1e-15)
    # masked lane has exactly zero probability, not merely a small one
    assert np.exp(out[0, 1]) == 0.0


def test_masked_log_softmax_gradient_matches_fd():
    rng = np.random.Generator(np.random.PCG64(7))
    z0 = rng.normal(size=(2, 5))
    mask = np.array([True, False, True, True, False])
    w = rng.normal(size=(2, 5))
    w[:, ~mask] = 0.0

    def f(arr):
        sub = arr[:, mask]
        lse = np.log(np.exp(sub - sub.max(axis=1, keepdims=True)).sum(axis=1)) + sub.max(axis=1)
        full = arr - lse[:, None]
        return float((w[:, mask] * full[:, mask]).sum())

    out = ad.masked_log_softmax(z0, mask)
    # the gradient reaching a masked lane (here w's zeros) must not pass through
    grad = ad.masked_log_softmax_vjp(out, mask, w)
    assert max_rel_err(grad[:, mask], numeric_grad(f, z0.copy())[:, mask]) < 1e-6
    assert np.all(grad[:, ~mask] == 0.0)
    w[:, ~mask] = 7.0
    np.testing.assert_array_equal(ad.masked_log_softmax_vjp(out, mask, w), grad)


def test_masked_log_softmax_vjp_of_one_picked_lane():
    # picking one lane per row: the logits' gradient is onehot - probs on
    # the unmasked lanes, zero on the masked ones, and sums to zero per row
    rng = np.random.Generator(np.random.PCG64(13))
    logits = rng.normal(size=(4, 5))
    mask = np.array([True, True, False, True, True])
    out = ad.masked_log_softmax(logits, mask)
    picks = np.array([0, 3, 3, 4])
    g = np.zeros_like(out)
    g[np.arange(4), picks] = 1.0
    grad = ad.masked_log_softmax_vjp(out, mask, g)
    expected = np.where(mask, g - np.exp(np.where(mask, out, 0.0)), 0.0)
    np.testing.assert_allclose(grad, expected, rtol=1e-14, atol=1e-16)
    assert np.all(grad[:, ~mask] == 0.0)
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)


def test_masked_log_softmax_broadcasts_the_mask_over_rows():
    rng = np.random.Generator(np.random.PCG64(17))
    logits, g = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    mask = np.array([False, True, True, True])
    tiled = np.tile(mask, (3, 1))
    out = ad.masked_log_softmax(logits, mask)
    np.testing.assert_array_equal(out, ad.masked_log_softmax(logits, tiled))
    np.testing.assert_array_equal(ad.masked_log_softmax_vjp(out, mask, g),
                                  ad.masked_log_softmax_vjp(out, tiled, g))


def test_masked_log_softmax_all_masked_row_is_dead_end():
    with pytest.raises(BlockflowError, match="a row has no unmasked entry") as err:
        ad.masked_log_softmax(np.zeros((1, 3)), np.array([False, False, False]))
    assert not isinstance(err.value, ValidationError)


def _cell_params(rng, batch, embed, hidden):
    return {
        "x": rng.normal(size=(batch, embed)),
        "h": rng.normal(size=(batch, hidden)),
        "c": rng.normal(size=(batch, hidden)),
        "w_x": rng.normal(size=(embed, 4 * hidden)),
        "w_h": rng.normal(size=(hidden, 4 * hidden)),
        "b": rng.normal(size=(4 * hidden,)),
    }


def _reference_cell(p, carried):
    """The LSTM cell in plain numpy, sigmoid as 1 / (1 + exp(-a))."""
    hid = p["w_h"].shape[0]
    z = p["x"] @ p["w_x"] + p["b"]
    if carried:
        z = z + p["h"] @ p["w_h"]
    sig = 1.0 / (1.0 + np.exp(-z))
    i, f, o = sig[:, :hid], sig[:, hid:2 * hid], sig[:, 3 * hid:]
    g = np.tanh(z[:, 2 * hid:3 * hid])
    c = i * g + (f * p["c"] if carried else 0.0)
    return o * np.tanh(c), c


def _cell(p, carried):
    """`lstm_cell` on the parameters `p`, given the product h @ w_h as the model gives it."""
    state = (p["h"] @ p["w_h"], p["c"]) if carried else None
    return ad.lstm_cell(p["x"], state, p["w_x"], p["b"])


def _cell_grads(p, carried, dh, dc):
    """Every input's gradient, from the cell's VJP and the chain rule the
    model applies to dz: through the products into x, w_x, b (and h, w_h),
    and through f * c into c."""
    _, _, gates, tanh_c = _cell(p, carried)
    dz = np.empty_like(gates)
    dc = ad.lstm_cell_vjp(gates, tanh_c, p["c"] if carried else None, dh, dc, dz)
    hid = p["w_h"].shape[0]
    grads = {"x": dz @ p["w_x"].T, "w_x": p["x"].T @ dz, "b": dz.sum(axis=0)}
    if carried:
        grads.update(h=dz @ p["w_h"].T, w_h=p["h"].T @ dz, c=dc * gates[:, hid:2 * hid])
    return grads


@pytest.mark.parametrize("carried", [False, True], ids=["zero_state", "carried_state"])
def test_lstm_cell_vjp_writes_only_the_given_dz(carried):
    rng = np.random.Generator(np.random.PCG64(4))
    p = _cell_params(rng, batch=3, embed=2, hidden=3)
    _, _, gates, tanh_c = _cell(p, carried)
    dh, dc = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    buf = np.full((2, *gates.shape), np.nan)
    ad.lstm_cell_vjp(gates, tanh_c, p["c"] if carried else None, dh, dc, buf[1])
    # every entry of the slot is written, the zero state's forget gate too
    assert np.isfinite(buf[1]).all()
    assert np.isnan(buf[0]).all()


@pytest.mark.parametrize("carried", [False, True], ids=["zero_state", "carried_state"])
@pytest.mark.parametrize("uses", ["h_and_c", "c_only", "h_only"])
def test_lstm_cell_gradients_match_fd(carried, uses):
    rng = np.random.Generator(np.random.PCG64(11))
    p0 = _cell_params(rng, batch=3, embed=2, hidden=3)
    w_h_out = np.zeros((3, 3)) if uses == "c_only" else rng.normal(size=(3, 3))
    w_c_out = np.zeros((3, 3)) if uses == "h_only" else rng.normal(size=(3, 3))

    def f(p):
        h, c = _reference_cell(p, carried)
        return float((w_h_out * h).sum() + (w_c_out * c).sum())

    h_new, c_new, _, _ = _cell(p0, carried)
    ref_h, ref_c = _reference_cell(p0, carried)
    np.testing.assert_allclose(h_new, ref_h, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(c_new, ref_c, rtol=1e-13, atol=1e-15)
    # the last slot's c_new reaches nothing: its gradient is None, not zeros
    grads = _cell_grads(p0, carried, w_h_out, None if uses == "h_only" else w_c_out)
    parents = ["x", "h", "c", "w_x", "w_h", "b"] if carried else ["x", "w_x", "b"]
    assert sorted(grads) == sorted(parents)  # the zero state skips h @ w_h and f * c
    for name in parents:
        def f_name(arr, name=name):
            return f({**p0, name: arr})
        assert max_rel_err(grads[name], numeric_grad(f_name, p0[name].copy())) < 1e-6, name


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                  elements=st.floats(-5, 5, allow_nan=False)))
def test_lstm_cell_gates_match_sigmoid_reference(arr):
    """The input, forget and output gates are sigmoid(z) to 1e-12.

    With x the identity and b zero, z is w_x row for row. A cell
    pre-activation of 40 makes tanh exactly 1 and one of -40 makes the
    input gate exactly 0, so c_new exposes one sigmoid gate at a time.
    """
    batch, hid = arr.shape
    ref = 1.0 / (1.0 + np.exp(-arr))
    x, b = np.eye(batch), np.zeros(4 * hid)
    # zero state: c_new = i * tanh(40) = i; h_new = o * tanh(c_new)
    w_x = np.hstack([arr, np.zeros_like(arr), np.full_like(arr, 40.0), arr])
    h_new, c_new, _, _ = ad.lstm_cell(x, None, w_x, b)
    np.testing.assert_allclose(c_new, ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(h_new, ref * np.tanh(ref), rtol=1e-12, atol=1e-15)
    # carried c = 1 and input gate 0: c_new = f
    w_x = np.hstack([np.full_like(arr, -40.0), arr, np.zeros_like(arr), arr])
    state = (np.zeros((batch, 4 * hid)), np.ones((batch, hid)))  # h @ w_h is zero
    _, c_new, _, _ = ad.lstm_cell(x, state, w_x, b)
    np.testing.assert_allclose(c_new, ref, rtol=1e-12, atol=1e-15)
