import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockflow import autodiff as ad
from blockflow.autodiff import Tensor, backward, no_grad
from blockflow.errors import AutodiffError, DeadEndError

finite_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=5),
    elements=st.floats(-5, 5, allow_nan=False))


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


def test_scalar_chain_rule():
    x = Tensor(np.float64(2.0), requires_grad=True)
    y = ad.mul(ad.mul(x, x), x)  # x^3
    backward(y)
    assert y.data == pytest.approx(8.0, rel=1e-12)
    assert x.grad == pytest.approx(12.0, rel=1e-12)  # 3 x^2


def test_add_mul_broadcast_grads():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([10.0, 20.0]), requires_grad=True)  # broadcast up
    loss = ((a + b) * (a + b)).sum()
    backward(loss)
    expect_a = 2.0 * (a.data + b.data)
    np.testing.assert_allclose(a.grad, expect_a, rtol=1e-12)
    np.testing.assert_allclose(b.grad, expect_a.sum(axis=0), rtol=1e-12)


def test_matmul_gradient_matches_fd():
    rng = np.random.Generator(np.random.PCG64(0))
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))

    def f_a(arr):
        return float((np.asarray(arr) @ b0).sum() ** 2)

    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    s = ad.matmul(a, b).sum()
    loss = s * s
    backward(loss)
    assert max_rel_err(a.grad, numeric_grad(f_a, a0.copy())) < 1e-6


def test_take_rows_scatter_accumulates():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([1, 1, 3])
    out = ad.take_rows(table, idx).sum()
    backward(out)
    expect = np.zeros((4, 3))
    expect[1] = 2.0  # row used twice
    expect[3] = 1.0
    np.testing.assert_allclose(table.grad, expect)


def test_take_per_row_picks_one_lane():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = ad.take_per_row(a, np.array([2, 0])).sum()
    backward(out)
    expect = np.zeros((2, 3))
    expect[0, 2] = 1.0
    expect[1, 0] = 1.0
    np.testing.assert_allclose(a.grad, expect)
    np.testing.assert_allclose(out.data, a.data[0, 2] + a.data[1, 0])


def test_take_per_row_gathers_shared_rows():
    # out[b] = a[rows[b], index[b]]: episodes that share a state row read it
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = ad.take_per_row(a, np.array([2, 0, 2]), rows=np.array([1, 1, 1]))
    np.testing.assert_array_equal(out.data, [5.0, 3.0, 5.0])
    backward(out.sum())
    expect = np.zeros((2, 3))
    expect[1, 2] = 2.0  # picked by two episodes
    expect[1, 0] = 1.0
    np.testing.assert_array_equal(a.grad, expect)


def test_masked_log_softmax_two_lane_oracle():
    # independent arithmetic: lse(1, 2) = 2 + log1p(e^-1)
    logits = Tensor(np.array([[1.0, 2.0]]))
    out = ad.masked_log_softmax(logits, np.array([True, True]))
    lse = 2.0 + np.log1p(np.exp(-1.0))
    np.testing.assert_allclose(out.data, [[1.0 - lse, 2.0 - lse]], rtol=1e-15)


def test_masked_log_softmax_excludes_before_normalizing():
    logits = Tensor(np.array([[1.0, 2.0, 3.0]]))
    out = ad.masked_log_softmax(logits, np.array([True, False, True]))
    lse = 3.0 + np.log1p(np.exp(-2.0))
    assert out.data[0, 1] == -np.inf
    np.testing.assert_allclose(out.data[0, [0, 2]], [1.0 - lse, 3.0 - lse], rtol=1e-15)
    # masked lane has exactly zero probability, not merely a small one
    assert np.exp(out.data[0, 1]) == 0.0


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

    z = Tensor(z0.copy(), requires_grad=True)
    out = ad.masked_log_softmax(z, mask)
    loss = None
    for j in np.flatnonzero(mask):  # only touch finite lanes
        term = (Tensor(w[:, j]) * ad.take_per_row(out, np.full(2, j))).sum()
        loss = term if loss is None else loss + term
    backward(loss)
    assert max_rel_err(z.grad[:, mask], numeric_grad(f, z0.copy())[:, mask]) < 1e-6
    assert np.allclose(z.grad[:, ~mask], 0.0)


def test_masked_log_softmax_all_masked_row_is_dead_end():
    with pytest.raises(DeadEndError):
        ad.masked_log_softmax(Tensor(np.zeros((1, 3))), np.array([False, False, False]))


def test_backward_requires_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(AutodiffError):
        backward(a + a)


def test_backward_twice_is_an_error():
    a = Tensor(np.float64(1.0), requires_grad=True)
    loss = (a * a).sum()
    backward(loss)
    with pytest.raises(AutodiffError):
        backward(loss)


def test_no_grad_builds_no_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (a * a).sum()
    assert not out.requires_grad
    with pytest.raises(AutodiffError):
        backward(out)


def test_shared_subexpression_accumulates_once_per_use():
    a = Tensor(np.float64(3.0), requires_grad=True)
    b = a * a  # d/da = 2a
    loss = (b + b).sum()  # d/da = 4a
    backward(loss)
    assert a.grad == pytest.approx(12.0, rel=1e-12)


def test_leaf_gradient_accumulates_in_its_own_buffer():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)  # no optimizer owns it
    y = x + x
    backward(y.sum())
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
    # the first contribution was y's own gradient array: copied, not adopted
    assert x.grad is not y.grad
    np.testing.assert_array_equal(y.grad, np.ones(3))
    buf = x.grad
    backward((x * x).sum())  # a second graph adds 2x into the same buffer
    assert x.grad is buf
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0) + 2.0 * x.data)
    x.grad = None  # what zero_grad does: the buffer is kept and reused
    backward((x + x).sum())
    assert x.grad is buf
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_backward_leaves_intermediate_gradients_alone():
    a = Tensor(np.array([0.5, -1.5]), requires_grad=True)
    b = a + a  # its vjp hands b's own gradient array to a, twice
    c = b * b
    loss = (b + c).sum()
    backward(loss)
    # d loss/db = 1 + 2b, d loss/dc = 1, d loss/da = 2 (1 + 2b)
    np.testing.assert_array_equal(c.grad, np.ones(2))
    np.testing.assert_array_equal(b.grad, 1.0 + 2.0 * b.data)
    np.testing.assert_array_equal(a.grad, 2.0 * (1.0 + 2.0 * b.data))


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


@pytest.mark.parametrize("carried", [False, True], ids=["zero_state", "carried_state"])
@pytest.mark.parametrize("uses", ["h_and_c", "c_only"])
def test_lstm_cell_gradients_match_fd(carried, uses):
    rng = np.random.Generator(np.random.PCG64(11))
    p0 = _cell_params(rng, batch=3, embed=2, hidden=3)
    w_h_out = rng.normal(size=(3, 3)) if uses == "h_and_c" else np.zeros((3, 3))
    w_c_out = rng.normal(size=(3, 3))

    def f(p):
        h, c = _reference_cell(p, carried)
        return float((w_h_out * h).sum() + (w_c_out * c).sum())

    t = {name: Tensor(arr.copy(), requires_grad=True) for name, arr in p0.items()}
    state = (t["h"], t["c"]) if carried else None
    h_new, c_new = ad.lstm_cell(t["x"], state, t["w_x"], t["w_h"], t["b"])
    ref_h, ref_c = _reference_cell(p0, carried)
    np.testing.assert_allclose(h_new.data, ref_h, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(c_new.data, ref_c, rtol=1e-13, atol=1e-15)
    loss = (Tensor(w_c_out) * c_new).sum()
    if uses == "h_and_c":
        loss = loss + (Tensor(w_h_out) * h_new).sum()
    backward(loss)
    parents = ["x", "h", "c", "w_x", "w_h", "b"] if carried else ["x", "w_x", "b"]
    for name in parents:
        def f_name(arr, name=name):
            return f({**p0, name: arr})
        assert max_rel_err(t[name].grad, numeric_grad(f_name, p0[name].copy())) < 1e-6, name
    if not carried:  # the zero state skips h @ w_h and its gradient
        assert t["w_h"].grad is None and t["h"].grad is None and t["c"].grad is None


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
    x, b = Tensor(np.eye(batch)), Tensor(np.zeros(4 * hid))
    w_h = Tensor(np.zeros((hid, 4 * hid)))
    # zero state: c_new = i * tanh(40) = i; h_new = o * tanh(c_new)
    w_x = np.hstack([arr, np.zeros_like(arr), np.full_like(arr, 40.0), arr])
    h_new, c_new = ad.lstm_cell(x, None, Tensor(w_x), w_h, b)
    np.testing.assert_allclose(c_new.data, ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(h_new.data, ref * np.tanh(ref), rtol=1e-12, atol=1e-15)
    # carried c = 1 and input gate 0: c_new = f
    w_x = np.hstack([np.full_like(arr, -40.0), arr, np.zeros_like(arr), arr])
    state = (Tensor(np.zeros((batch, hid))), Tensor(np.ones((batch, hid))))
    _, c_new = ad.lstm_cell(x, state, Tensor(w_x), w_h, b)
    np.testing.assert_allclose(c_new.data, ref, rtol=1e-12, atol=1e-15)


@given(finite_arrays)
def test_mean_grad_is_uniform(arr):
    t = Tensor(arr.copy(), requires_grad=True)
    backward(t.mean())
    np.testing.assert_allclose(t.grad, np.full_like(arr, 1.0 / arr.size), rtol=1e-12)


@given(finite_arrays, finite_arrays)
def test_add_commutes_through_data(a, b):
    ta, tb = Tensor(a), Tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        return
    np.testing.assert_array_equal((ta + tb).data, a + b)
