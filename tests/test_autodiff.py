"""Reverse-mode differentiation checked against hand algebra and FD."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcaec import nn
from dcaec.autodiff import (Var, as_var, concat, dot, fold, log10, no_grad, pad,
                             unfold)
from dcaec.nn import lstm_cell, lstm_group, lstm_operand
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
        return (log10(x) + x * x.tanh() - x / x.sigmoid()).sum()

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


def test_pad_dilate_concat():
    rng = np.random.default_rng(4)
    arrays = {"x": rng.normal(size=(3, 4)), "y": rng.normal(size=(2, 4))}

    def build(p):
        c = concat([p["x"], p["y"]], axis=0)
        padded = pad(c, ((1, 2), (0, 1)))
        return padded.sum() + (c * c).sum()

    _scalar_check(build, arrays)


# (kernel, stride, padding) over (time, frequency), and the unfolded extent
GEOMETRIES = [((1, 1), (1, 1), (0, 0), (4, 7)), ((1, 5), (1, 2), (0, 0), (3, 9)),
              ((3, 3), (1, 1), (1, 1), (4, 6)), ((3, 2), (2, 3), (1, 1), (5, 8)),
              ((2, 3), (1, 2), (0, 1), (3, 7))]


@pytest.mark.parametrize("kernel,stride,padding,shape", GEOMETRIES)
def test_fold_is_adjoint_of_unfold(kernel, stride, padding, shape):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, *shape))
    with no_grad():
        u = unfold(x, kernel, stride, padding)
        y = rng.normal(size=u.shape)
        assert np.dot(u.ravel(), y.ravel()) == pytest.approx(
            np.sum(x * fold(y, kernel, stride, padding, shape)), rel=1e-12)


@pytest.mark.parametrize("kernel,stride,padding,shape", GEOMETRIES)
def test_unfold_fold_gradients(kernel, stride, padding, shape):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, *shape))
    with no_grad():
        cols_shape = unfold(x, kernel, stride, padding).shape
    arrays = {"x": x, "y": rng.normal(size=cols_shape)}
    ru, rf = rng.normal(size=cols_shape), rng.normal(size=x.shape)

    def build(p):
        u = unfold(p["x"] * p["x"], kernel, stride, padding)
        f = fold(p["y"] * p["y"], kernel, stride, padding, shape)
        return (u * ru).sum() + (f * rf).sum()

    _scalar_check(build, arrays)


def test_log10_and_dot():
    rng = np.random.default_rng(6)
    arrays = {"x": 1.0 + rng.uniform(size=(8,))}
    y = rng.normal(size=8)

    def build(p):
        return log10(dot(p["x"], p["x"])) + dot(p["x"], y)

    _scalar_check(build, arrays)
    # one op each, np.log10 / np.dot on either path
    x = arrays["x"]
    np.testing.assert_array_equal(log10(x), np.log10(x))
    np.testing.assert_array_equal(log10(as_var(x)).data, np.log10(x))
    assert dot(x, y) == np.dot(x, y) == dot(as_var(x), y).data == dot(y, as_var(x)).data


def test_lstm_cell_matches_unfused_math():
    """nn.lstm_cell, the one step of every recurrence, for K = 2 at once: on
    pre-activations with the sigmoid gates halved and the gate views bound
    once (nn._gates: scale and shift as rows for a call of one step, as
    arrays for more), into fresh buffers and with c updated in place."""
    rng = np.random.default_rng(7)
    k, n, h = 2, 3, 4
    g = rng.normal(size=(k, n, 4 * h))
    c_prev = rng.normal(size=(k, n, h))
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    gi, gf, gc, go = (sig(g[..., :h]), sig(g[..., h:2 * h]),
                      np.tanh(g[..., 2 * h:3 * h]), sig(g[..., 3 * h:]))
    c_ref = gf * c_prev + gi * gc
    h_ref = go * np.tanh(c_ref)
    half = nn._halves(4 * h, g.dtype)
    np.testing.assert_array_equal(half, np.repeat([0.5, 0.5, 1.0, 0.5], h))
    for steps in (1, 2):
        z, gates = nn._gates(k, n, 4 * h, g.dtype, steps)
        assert gates[0].shape == ((k, n, 4 * h) if steps > 1 else (4 * h,))
        z[...] = g * half
        c, tmp, h_out = np.empty((k, n, h)), np.empty((k, n, h)), np.empty((k, n, h))
        assert lstm_cell(z, gates, c_prev, c, tmp, h_out) is h_out
        np.testing.assert_allclose(z, np.concatenate([gi, gf, gc, go], axis=-1), atol=1e-12)
        np.testing.assert_allclose(c, c_ref, atol=1e-12)
        np.testing.assert_allclose(h_out, h_ref, atol=1e-12)
        # the views stay bound: the next step writes z again and reads it through them
        c_in_place, h_in_place = c_prev.copy(), np.empty((k, n, h))
        z[...] = g * half
        lstm_cell(z, gates, c_in_place, c_in_place, tmp, h_in_place)
        np.testing.assert_array_equal(c_in_place, c)
        np.testing.assert_array_equal(h_in_place, h_out)


# ---- the fused LSTM node against a per-step graph of Var primitives -------


def lstm_graph_oracle(xs, cells, states, hd):
    """Each recurrence built step by step from Var @, +, *, sigmoid and
    tanh: per recurrence, its h_t in x's time order and its final (h, c)."""
    out = []
    for x, (w_ih, w_hh, b_ih, b_hh, reverse), st in zip(xs, cells, states):
        s, n, _ = x.shape
        h, c = st if st is not None else (np.zeros((n, hd)), np.zeros((n, hd)))
        hs = []
        for t in (range(s - 1, -1, -1) if reverse else range(s)):
            g = x[t] @ w_ih.transpose(1, 0) + b_ih + h @ w_hh.transpose(1, 0) + b_hh
            gi, gf = g[:, :hd].sigmoid(), g[:, hd:2 * hd].sigmoid()
            gc, go = g[:, 2 * hd:3 * hd].tanh(), g[:, 3 * hd:].sigmoid()
            c = gf * c + gi * gc
            h = go * c.tanh()
            hs.append(h)
        out.append((hs[::-1] if reverse else hs, (h, c)))
    return out


LSTM_GROUPS = {
    "k1_forward": dict(reverse=[False]),
    "k1_reverse": dict(reverse=[True]),
    "k2": dict(reverse=[False, True]),
    "k4": dict(reverse=[False, True, True, False]),
    # cells (a, a, b, b) on inputs (x, y, x, y): shared weights, shared inputs
    "k4_shared_weights": dict(reverse=[False] * 4, shared=True),
    "k2_carried_states": dict(reverse=[True, False], carried=True),
    "k4_final_state_only": dict(reverse=[False, True, False, True], carried=True,
                                final_only=True),
    # one step: the gate scale and shift are bound as rows, not arrays
    "one_step_k2": dict(reverse=[False, True], carried=True, steps=1),
}


@pytest.mark.parametrize("case", sorted(LSTM_GROUPS))
def test_lstm_group_gradients_match_per_step_graph(case, monkeypatch):
    """At spans (nn.SPAN_BYTES) of one step, of two of the five steps, and
    of all of them."""
    opts = LSTM_GROUPS[case]
    reverse = opts["reverse"]
    k, s, n, i, hd = len(reverse), opts.get("steps", 5), 3, 4, 3
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    arrays = {}
    src = [(j % 2, j // 2) if opts.get("shared") else (j, j) for j in range(k)]
    for xi, wi in src:
        arrays[f"x{xi}"] = rng.normal(size=(s, n, i))
        for name, shape in (("w_ih", (4 * hd, i)), ("w_hh", (4 * hd, hd)),
                            ("b_ih", (4 * hd,)), ("b_hh", (4 * hd,))):
            arrays[f"{name}{wi}"] = 0.5 * rng.normal(size=shape)
    if opts.get("carried"):
        for j in range(k):
            arrays[f"h{j}"], arrays[f"c{j}"] = rng.normal(size=(2, n, hd))
    r_y = rng.normal(size=(k, s, n, hd))
    r_h, r_c = rng.normal(size=(2, k, n, hd))

    def group_args(p):
        xs = [p[f"x{xi}"] for xi, _ in src]
        cells = [tuple(p[f"{name}{wi}"] for name in ("w_ih", "w_hh", "b_ih", "b_hh"))
                 + (rev,) for (_, wi), rev in zip(src, reverse)]
        states = [(p[f"h{j}"], p[f"c{j}"]) if opts.get("carried") else None
                  for j in range(k)]
        return xs, cells, states

    def loss(hs_per_step, finals):
        total = None
        for j, (hs, (h, c)) in enumerate(zip(hs_per_step, finals)):
            terms = [] if opts.get("final_only") else [(ht * r_y[j, t]).sum()
                                                      for t, ht in enumerate(hs)]
            terms += [(h * r_h[j]).sum(), (c * r_c[j]).sum()]
            for term in terms:
                total = term if total is None else total + term
        return total

    def fused(p):
        xs, cells, states = group_args(p)
        ys, finals = lstm_group(xs, lstm_operand(cells), states)
        assert all(isinstance(v, Var) for v in ys + [v for st in finals for v in st])
        return loss([[y[t] for t in range(s)] for y in ys], finals)

    def oracle(p):
        out = lstm_graph_oracle(*group_args(p), hd)
        return loss([hs for hs, _ in out], [st for _, st in out])

    p_oracle = {name: as_var(a) for name, a in arrays.items()}
    l_oracle = oracle(p_oracle)
    g_oracle = backward(l_oracle, p_oracle)
    step_bytes = k * n * 4 * hd * 8
    for span_bytes in (1, 2 * step_bytes, nn.SPAN_BYTES):
        monkeypatch.setattr(nn, "SPAN_BYTES", span_bytes)
        p_fused = {name: as_var(a) for name, a in arrays.items()}
        l_fused = fused(p_fused)
        np.testing.assert_allclose(l_fused.data, l_oracle.data, rtol=1e-12)
        g_fused = backward(l_fused, p_fused)
        for name in arrays:
            assert np.any(g_oracle[name] != 0), name
            assert rel_error(g_fused[name], g_oracle[name]) <= 1e-10, (name, span_bytes)


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
    with pytest.warns(RuntimeWarning):
        loss = log10(p["bad"]).sum()  # log10(0) -> -inf value, inf gradient
    with pytest.raises(FloatingPointError, match="bad"), pytest.warns(RuntimeWarning):
        backward(loss, p)


def test_shared_subexpression_accumulates():
    p = as_var(np.array([2.0]))
    y = p * p  # used twice below
    (y + y).sum().backward()
    np.testing.assert_allclose(p.grad, [8.0])


def test_backward_releases_the_graph():
    """Each node lets go of its parents and gradient functions once they
    have run; the leaves keep gradients equal to the hand-derived ones."""
    rng = np.random.default_rng(3)
    p, q = as_var(rng.normal(size=(2, 3))), as_var(rng.normal(size=(2, 3)))
    y = p * p  # shared by both terms
    loss = (y * q + y).sum()
    loss.backward()
    np.testing.assert_allclose(p.grad, 2 * p.data * (q.data + 1), rtol=1e-15)
    np.testing.assert_allclose(q.grad, p.data ** 2, rtol=1e-15)
    for node in (loss, y):
        assert node._prev == ()


# per case: the leaves' shapes, the op, and each leaf's hand-derived
# gradient for the output gradient c
_ADOPTION_CASES = {
    "add": ([(2, 3), (2, 3)], lambda a, b: a + b, lambda c, a, b: (c, c)),
    "sub": ([(2, 3), (2, 3)], lambda a, b: a - b, lambda c, a, b: (c, -c)),
    "mul": ([(2, 3), (2, 3)], lambda a, b: a * b, lambda c, a, b: (c * b, c * a)),
    "add_row": ([(2, 3), (3,)], lambda a, row: a + row, lambda c, a, row: (c, c.sum(axis=0))),
    "reshape": ([(2, 3)], lambda x: x.reshape(3, 2), lambda c, x: (c.reshape(2, 3),)),
    "getitem": ([(2, 3)], lambda x: x[:, 1:], lambda c, x: (np.pad(c, ((0, 0), (1, 0))),)),
}


@pytest.mark.parametrize("case", sorted(_ADOPTION_CASES))
def test_backward_gives_each_leaf_its_own_gradient(case):
    """backward adopts an op's gradient array only where nothing else holds
    it: each leaf's grad equals the hand-derived one and is its own array,
    shared with no other leaf's grad and no node's value, so writing into
    it changes nothing else."""
    shapes, op, expected = _ADOPTION_CASES[case]
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    arrays = [rng.normal(size=s) for s in shapes]
    leaves = [as_var(a) for a in arrays]
    out = op(*leaves)
    c = rng.normal(size=out.shape)
    (out * c).sum().backward()
    grads = [leaf.grad for leaf in leaves]
    for g, want in zip(grads, expected(c, *arrays)):
        np.testing.assert_array_equal(g, want)
    for i, g in enumerate(grads):
        rest = [out.data, c, *arrays, *grads[:i], *grads[i + 1:]]
        assert not any(np.shares_memory(g, h) for h in rest)
        kept = [h.copy() for h in rest]
        g += 1.0
        for h, k in zip(rest, kept):
            np.testing.assert_array_equal(h, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_mul_add_gradients_random_shapes(n, m, seed):
    rng = np.random.default_rng(seed)
    arrays = {"a": rng.normal(size=(n, m)), "b": rng.normal(size=(n, m))}

    def build(p):
        return (p["a"] * p["b"] + p["a"]).sum()

    _scalar_check(build, arrays)
