"""Reverse-mode differentiation checked against hand algebra and FD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcaec.autodiff import (Var, as_var, concat, dilate, dot, log10, lstm_cell, no_grad,
                            pad, stack)
from dcaec.training import backward, finite_diff, rel_error


def _scalar_check(build, arrays, h=1e-5, tol=1e-6):
    params = {k: as_var(v) for k, v in arrays.items()}
    grads = backward(build(params), params)

    def f():
        return float(build({k: as_var(v) for k, v in arrays.items()}).data)

    fd = finite_diff(f, arrays, h=h)
    assert max(rel_error(grads[k], fd[k]) for k in arrays) < tol


def test_sum_of_squares_gradient_exact():
    p = as_var(np.array([1.0, -2.0, 3.0]))
    (p * p).sum().backward()
    np.testing.assert_array_equal(p.grad, 2 * p.data)


def test_backward_requires_scalar():
    p = as_var(np.ones(3))
    with pytest.raises(ValueError):
        (p * 2.0).backward()


def test_constant_operands_get_no_gradient():
    p = as_var(np.ones(3))
    c = np.array([1.0, 2.0, 3.0])
    (p * c).sum().backward()
    np.testing.assert_array_equal(p.grad, c)


def test_no_grad_blocks_recording():
    p = as_var(np.ones(3))
    with no_grad():
        out = (p * p).sum()
    assert out._backward is None
    assert out._prev == ()


def test_broadcasting_gradients():
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(3, 1, 4)), "b": rng.normal(size=(5, 1))}

    def build(p):
        return ((p["a"] * p["b"]) + p["b"]).sum()

    _scalar_check(build, arrays)


def test_elementwise_chain():
    rng = np.random.default_rng(1)
    arrays = {"x": 0.5 + rng.uniform(size=(4, 3))}

    def build(p):
        x = p["x"]
        return (x.sqrt() + x.exp() * x.tanh() - x.log() / x.sigmoid()).sum()

    _scalar_check(build, arrays)


def test_matmul_and_transpose():
    rng = np.random.default_rng(2)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 5))}
    r = rng.normal(size=(5, 3))

    def build(p):
        return ((p["a"] @ p["b"]).transpose(1, 0) * r).sum()

    _scalar_check(build, arrays)


@pytest.mark.parametrize("b_shape", [(4, 5), (3, 4, 5)])
def test_matmul_batched_operands(b_shape):
    rng = np.random.default_rng(11)
    arrays = {"a": rng.normal(size=(3, 2, 4)), "b": rng.normal(size=b_shape)}
    r = rng.normal(size=(3, 2, 5))
    _scalar_check(lambda p: ((p["a"] @ p["b"]) * r).sum(), arrays)


@pytest.mark.parametrize("c_shape,x_shape", [((3, 2, 4), (4, 5)),
                                             ((2, 4), (3, 4, 5)),
                                             ((3, 2, 4), (3, 4, 5))])
def test_array_matmul_batched_var(c_shape, x_shape):
    rng = np.random.default_rng(12)
    c = rng.normal(size=c_shape)
    r = rng.normal(size=(3, 2, 5))
    _scalar_check(lambda p: ((c @ p["x"]) * r).sum(), {"x": rng.normal(size=x_shape)})


def test_getitem_strided_and_reversed():
    rng = np.random.default_rng(3)
    arrays = {"x": rng.normal(size=(6, 5))}
    r = rng.normal(size=(3, 5))

    def build(p):
        return (p["x"][::2] * r).sum() + (p["x"][::-1][1:4] * r).sum()

    _scalar_check(build, arrays)


def test_pad_dilate_concat_stack():
    rng = np.random.default_rng(4)
    arrays = {"x": rng.normal(size=(3, 4)), "y": rng.normal(size=(2, 4))}

    def build(p):
        c = concat([p["x"], p["y"]], axis=0)
        s = stack([p["x"].sum(axis=0), p["y"].sum(axis=0)], 0)
        d = dilate(p["x"], 1, 3)
        padded = pad(c, ((1, 2), (0, 1)))
        return padded.sum() + (s * s).sum() + (d * d).sum()

    _scalar_check(build, arrays)


def test_mean_and_pow():
    rng = np.random.default_rng(5)
    arrays = {"x": 1.0 + rng.uniform(size=(6,))}

    def build(p):
        return p["x"].mean() + (p["x"] ** 3).mean(axis=0)

    _scalar_check(build, arrays)


def test_log10_and_dot():
    rng = np.random.default_rng(6)
    arrays = {"x": 1.0 + rng.uniform(size=(8,))}
    y = rng.normal(size=8)

    def build(p):
        return log10(dot(p["x"], p["x"])) + dot(p["x"], y)

    _scalar_check(build, arrays)


def test_lstm_cell_matches_unfused_math():
    rng = np.random.default_rng(7)
    h = 3
    g = rng.normal(size=(2, 4 * h))
    c_prev = rng.normal(size=(2, h))
    h_out, c_out = lstm_cell(as_var(g), as_var(c_prev), h)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    gi, gf, gc, go = sig(g[:, :h]), sig(g[:, h:2 * h]), np.tanh(g[:, 2 * h:3 * h]), sig(g[:, 3 * h:])
    c = gf * c_prev + gi * gc
    np.testing.assert_allclose(c_out.data, c, atol=1e-12)
    np.testing.assert_allclose(h_out.data, go * np.tanh(c), atol=1e-12)


def test_lstm_cell_gradient():
    rng = np.random.default_rng(8)
    h = 2
    arrays = {"g": rng.normal(size=(3, 4 * h)), "c": rng.normal(size=(3, h))}
    r_h, r_c = rng.normal(size=(3, h)), rng.normal(size=(3, h))

    def build(p):
        h_out, c_out = lstm_cell(p["g"], p["c"], h)
        return (h_out * r_h).sum() + (c_out * r_c).sum()

    _scalar_check(build, arrays)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_cell_arrays_and_vars_agree_bitwise(dtype):
    rng = np.random.default_rng(9)
    h = 4
    g = rng.normal(size=(3, 4 * h)).astype(dtype)
    c_prev = rng.normal(size=(3, h)).astype(dtype)
    h_arr, c_arr = lstm_cell(g, c_prev, h)
    h_var, c_var = lstm_cell(as_var(g), as_var(c_prev), h)
    assert isinstance(h_var, Var) and isinstance(c_var, Var)
    np.testing.assert_array_equal(h_var.data, h_arr)
    np.testing.assert_array_equal(c_var.data, c_arr)


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "@"])
def test_array_on_the_left_defers_to_var(op):
    rng = np.random.default_rng(10)
    a = rng.normal(size=(2, 2))
    x = 1.0 + rng.uniform(size=(2, 2))
    fn = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
          "*": lambda u, v: u * v, "/": lambda u, v: u / v,
          "@": lambda u, v: u @ v}[op]
    out = fn(a, as_var(x))
    assert isinstance(out, Var)
    np.testing.assert_array_equal(out.data, fn(a, x))
    _scalar_check(lambda p: fn(a, p["x"]).sum(), {"x": x})


def test_unreached_parameters_get_zero_gradients():
    params = {"used": as_var(np.ones(2)), "unused": as_var(np.ones(3))}
    grads = backward((params["used"] * params["used"]).sum(), params)
    np.testing.assert_array_equal(grads["unused"], np.zeros(3))


def test_nonfinite_gradient_raises_with_name():
    p = {"bad": as_var(np.array([0.0]))}
    loss = p["bad"].log().sum()  # log(0) -> -inf value, inf gradient
    with pytest.raises(FloatingPointError, match="bad"):
        backward(loss, p)


def test_shared_subexpression_accumulates():
    p = as_var(np.array([2.0]))
    y = p * p  # used twice below
    (y + y).sum().backward()
    np.testing.assert_allclose(p.grad, [8.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_mul_add_gradients_random_shapes(n, m, seed):
    rng = np.random.default_rng(seed)
    arrays = {"a": rng.normal(size=(n, m)), "b": rng.normal(size=(n, m))}

    def build(p):
        return (p["a"] * p["b"] + p["a"]).sum()

    _scalar_check(build, arrays)
