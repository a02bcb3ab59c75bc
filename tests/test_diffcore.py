"""Engine-level oracles: primitive forward values, gradients vs central
finite differences, optimizer behavior, and the checkpoint format."""

import json
import math
import os
import re
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from solv import datagen, diffcore as dc
from solv.diffcore import (
    ConfigError, FormatError, ParamStore, ShapeError, Tape, Tensor,
    read_json_object, write_json,
)

from helpers import fail_writes_half_way, finite_diff, stack


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = dc.softmax(Tensor([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_softmax_normalized_and_positive(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 7)) * 10)
        for axis in (0, 1):
            out = dc.softmax(x, axis=axis).data
            np.testing.assert_allclose(out.sum(axis=axis), 1.0, atol=1e-6)
            assert (out > 0).all()

    def test_layernorm_constant_row_is_zero(self):
        out = dc.layernorm(Tensor([3.0, 3.0, 3.0, 3.0]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0)

    def test_matmul_hand_product(self):
        a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = Tensor([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
        expected = [[1 * 7 + 2 * 9 + 3 * 11, 1 * 8 + 2 * 10 + 3 * 12],
                    [4 * 7 + 5 * 9 + 6 * 11, 4 * 8 + 5 * 10 + 6 * 12]]
        np.testing.assert_allclose(dc.matmul(a, b).data, expected)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            dc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("a, b", [((3,), (3, 2)), ((2, 3), (3,))])
    def test_matmul_of_a_rank_1_operand_is_refused(self, a, b):
        with pytest.raises(ShapeError, match=rf"rank >= 2 operands, got {re.escape(f'{a} @ {b}')}"):
            dc.matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        tape = Tape()
        with tape:
            loss = dc.reduce_sum(x, axis=None)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        with tape:
            loss = dc.reduce_sum(dc.mul(x, x), axis=None)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        with tape:
            y = dc.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_loss_off_the_tape_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        with tape:
            loss = dc.reduce_sum(dc.mul(x, x), axis=None)
        scaled = loss * 0.5  # computed after the tape closed: not recorded
        with pytest.raises(ValueError, match="not the output of a node on this tape"):
            tape.backward(scaled)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_double_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        tape = Tape()
        with tape:
            loss = dc.reduce_sum(x, axis=None)
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_backward_deterministic(self):
        rng = np.random.default_rng(5)
        w_init = rng.normal(size=(6, 6))
        x_init = rng.normal(size=(4, 6))
        grads = []
        for _ in range(2):
            w = Tensor(w_init.copy(), requires_grad=True)
            x = Tensor(x_init.copy())
            tape = Tape()
            with tape:
                h = dc.tanh(dc.matmul(x, w))
                loss = dc.reduce_mean(dc.mul(h, h))
            tape.backward(loss)
            grads.append(w.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_primitive_chain_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(4,)), requires_grad=True)

        def run():
            tape = Tape()
            with tape:
                h = dc.add(dc.matmul(a, b), c)
                h = dc.sigmoid(h) + dc.tanh(h)
                h = dc.softmax(h, axis=1)
                h = dc.layernorm(h, Tensor(np.ones(4)), Tensor(np.zeros(4)))
                s = dc.reduce_mean(dc.mul(h, h)) + \
                    dc.reduce_sum(dc.sqrt(dc.mul(h, h) + 1.0), axis=None)
            return s, tape

        loss, tape = run()
        tape.backward(loss)
        worst = finite_diff(lambda: float(run()[0].data), [a, b, c], rng=rng)
        assert worst <= 1e-4

    def test_relu_gradient_off_the_kink(self):
        # finite differences are only valid away from the hinge point
        rng = np.random.default_rng(11)
        signs = rng.choice([-1.0, 1.0], size=(4, 5))
        x = Tensor(signs * rng.uniform(0.1, 2.0, size=(4, 5)), requires_grad=True)
        # the identity layer makes x the hidden pre-activation exactly, and
        # the output layer weights ReLU(x)'s columns by 0..4
        layers = [(Tensor(np.eye(5)), Tensor(np.zeros(5))),
                  (Tensor(np.arange(5.0).reshape(5, 1)), Tensor(np.zeros(1)))]

        def run():
            tape = Tape()
            with tape:
                s = dc.reduce_sum(dc.mlp(x, layers), axis=None)
            return s, tape

        loss, tape = run()
        tape.backward(loss)
        worst = finite_diff(lambda: float(run()[0].data), [x])
        assert worst <= 1e-4

    def test_gather_concat_stack_slice_gradients(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        # rows 0, 2, 2 and 5 gathered by a one-hot matmul
        pick = Tensor(np.eye(6)[[0, 2, 2, 5]])

        def run():
            tape = Tape()
            with tape:
                g = dc.matmul(pick, a)
                st = stack([g, g], axis=0)
                sl = dc.slice_axis(st, 2, 1, 3)
                b = dc.broadcast_to(sl, (3,) + sl.shape)
                s = dc.reduce_sum(dc.mul(b, sl), axis=None)
            return s, tape

        loss, tape = run()
        tape.backward(loss)
        worst = finite_diff(lambda: float(run()[0].data), [a])
        assert worst <= 1e-4

    def test_views_of_a_recorded_tensor_add_no_live_elements(self):
        a = Tensor(np.random.default_rng(10).normal(size=(4, 6)), requires_grad=True)
        tape = Tape()
        with tape:
            y = dc.mul(a, a)
            before = tape.live_elements
            dc.reshape(y, (6, 4))
            t = dc.transpose(y, (1, 0))
            dc.slice_axis(y, 1, 1, 4)
            dc.broadcast_to(y, (2, 4, 6))
            views = tape.live_elements - before
            dc.reshape(t, (24,))  # not contiguous: reshape copies
        assert views == 0
        assert tape.live_elements - before == 24


def _relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    return dc._make(out, (a,), lambda g: (g * (a.data > 0),))


def _unfused_mlp(x, layers):
    """The matmul/add/ReLU chain that ``mlp`` replaces, one node per op."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = dc.add(dc.matmul(h, w), b)
        if i < len(layers) - 1:
            h = _relu(h)
    return h


def _mlp_case(rng, x_shape, widths, dtype, x_grad=True):
    x = Tensor(rng.normal(size=x_shape).astype(dtype), requires_grad=x_grad)
    dims = [x_shape[-1]] + widths
    layers = [(Tensor(rng.normal(size=(a, b)).astype(dtype), requires_grad=True),
               Tensor(rng.normal(size=(b,)).astype(dtype), requires_grad=True))
              for a, b in zip(dims[:-1], dims[1:])]
    return x, layers


def _leaves(x, layers):
    return [x] + [t for layer in layers for t in layer]


def _loss_and_grads(f, x, layers, weight):
    for t in _leaves(x, layers):
        t.grad = None
    tape = Tape()
    with tape:
        out = f(x, layers)
        loss = dc.reduce_sum(dc.mul(out, weight), axis=None)
    tape.backward(loss)
    return out.data, [t.grad for t in _leaves(x, layers)]


class TestMlp:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape, widths, x_grad", [
        ((6, 4), [7, 5, 3], True),         # 2-D rows
        ((3, 5, 4), [6, 4], True),         # K x T x D batch
        ((6, 4), [7, 3], False),           # constant input
        ((6, 4), [3], True),               # one layer, as linear
    ], ids=["2d", "3d", "const_x", "one_layer"])
    def test_matches_unfused_chain_bitwise(self, dtype, x_shape, widths, x_grad):
        rng = np.random.default_rng(21)
        x, layers = _mlp_case(rng, x_shape, widths, dtype, x_grad)
        weight = Tensor(rng.normal(size=x_shape[:-1] + (widths[-1],)).astype(dtype))
        out, grads = _loss_and_grads(dc.mlp, x, layers, weight)
        want_out, want_grads = _loss_and_grads(_unfused_mlp, x, layers, weight)
        assert out.dtype == dtype and np.array_equal(out, want_out)
        assert (grads[0] is None) == (not x_grad)
        for got, want in zip(grads, want_grads):
            assert (got is None and want is None) or np.array_equal(got, want)
        if len(layers) == 1:
            assert np.array_equal(dc.linear(x, *layers[0]).data, want_out)

    @pytest.mark.parametrize("x_shape", [(5, 3), (2, 4, 3)])
    def test_gradient_matches_finite_differences(self, x_shape):
        rng = np.random.default_rng(22)
        x, layers = _mlp_case(rng, x_shape, [6, 5, 2], np.float64)
        weight = Tensor(rng.normal(size=x_shape[:-1] + (2,)))

        def loss():
            return float(dc.reduce_sum(dc.mul(dc.mlp(x, layers), weight), axis=None).data)

        _loss_and_grads(dc.mlp, x, layers, weight)
        assert finite_diff(loss, _leaves(x, layers), rng=rng) <= 1e-4

    def test_live_elements_count_hidden_activations(self):
        x, layers = _mlp_case(np.random.default_rng(23), (6, 4), [7, 5, 3], np.float64)
        tape = Tape()
        with tape:
            before = tape.live_elements
            dc.mlp(x, layers)
        assert tape.live_elements - before == 6 * 3 + 6 * 7 + 6 * 5

    def test_backward_frees_the_mlp_node_before_replaying_the_next(self):
        x, layers = _mlp_case(np.random.default_rng(24), (6, 4), [7, 3], np.float64)
        seen = []
        tape = Tape()
        with tape:
            # a probe node recorded before the mlp node, so replayed after it
            probe = dc._make(x.data.copy(), (x,), lambda g: (
                seen.append((hidden_ref(), out_ref())), g)[1:])
            loss = dc.reduce_sum(dc.mlp(probe, layers), axis=None)
        out, _, fn = tape._nodes[-2]
        saved = fn.__closure__[fn.__code__.co_freevars.index("saved")].cell_contents
        hidden_ref, out_ref = weakref.ref(saved[1]), weakref.ref(out.data)
        del out, fn, saved
        assert hidden_ref() is not None and out_ref() is not None
        tape.backward(loss)
        assert seen == [(None, None)] and x.grad is not None

    def test_backward_writes_gradients_into_spent_activations(self):
        """One backward through 32 -> 256 -> 256 -> 256 -> 8 on 512 f64
        rows peaks below two hidden activations, weight gradients
        included: each hidden activation, once its mask and its layer's
        weight gradient are taken, holds the gradient that flows into it."""
        x, layers = _mlp_case(np.random.default_rng(25), (512, 32), [256, 256, 256, 8],
                              np.float64)
        x_before = x.data.copy()
        tape = Tape()
        with tape:
            loss = dc.reduce_sum(dc.mlp(x, layers), axis=None)
        tracemalloc.start()
        try:
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 512 * 256 * 8
        assert np.array_equal(x.data, x_before)  # the input is never written

    def test_a_wider_gradient_is_not_narrowed_into_an_activation(self):
        """An f64 last layer after an f32 one: the f64 gradient reaching
        the f32 hidden activation gets an array of its own."""
        rng = np.random.default_rng(26)
        x, layers = _mlp_case(rng, (6, 4), [7, 3], np.float32)
        w1, b1 = (Tensor(t.data.astype(np.float64), requires_grad=True) for t in layers[1])
        w0 = layers[0][0]
        weight = rng.normal(size=(6, 3))
        _sum_of_weighted(dc.mlp, (x, [layers[0], (w1, b1)]), weight)
        h = np.maximum(x.data @ w0.data + layers[0][1].data, 0)
        gh = (weight @ w1.data.T) * (h > 0)
        assert np.array_equal(w0.grad, (x.data.T @ gh).astype(np.float32))


def _sum_of_weighted(f, operands, weight):
    tape = Tape()
    with tape:
        loss = dc.reduce_sum(dc.mul(f(*operands), Tensor(weight)), axis=None)
    tape.backward(loss)


# d sum(W * f(a, b)) / da and / db of each binary primitive, in closed form
_CLOSED_FORMS = {
    "add": (dc.add, lambda a, b, w: w, lambda a, b, w: w),
    "sub": (dc.sub, lambda a, b, w: w, lambda a, b, w: -w),
    "mul": (dc.mul, lambda a, b, w: w * b, lambda a, b, w: w * a),
    "div": (dc.div, lambda a, b, w: w / b, lambda a, b, w: -w * a / (b * b)),
    "matmul": (dc.matmul, lambda a, b, w: w @ b.T, lambda a, b, w: a.T @ w),
}


class TestConstantOperands:
    """A backward rule returns a gradient for every operand; the tape
    keeps only those of operands that require gradients, summed down to
    the operand's shape."""

    @pytest.mark.parametrize("const", [0, 1], ids=["const_a", "const_b"])
    @pytest.mark.parametrize("op", sorted(_CLOSED_FORMS))
    def test_binary_primitive(self, op, const):
        f, *closed = _CLOSED_FORMS[op]
        rng = np.random.default_rng(31)
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(5, 4) if op == "matmul" else (1, 5)) + 3.0  # (1, 5) broadcasts
        w = rng.normal(size=(3, 4) if op == "matmul" else (3, 5))
        operands = [Tensor(a, requires_grad=const != 0), Tensor(b, requires_grad=const != 1)]
        _sum_of_weighted(f, operands, w)
        param = 1 - const
        want = closed[param](a, b, w)
        if want.shape != operands[param].shape:
            want = want.sum(axis=0, keepdims=True)
        assert operands[const].grad is None
        np.testing.assert_allclose(operands[param].grad, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("const", ["x", "w0"])
    def test_mlp(self, const):
        rng = np.random.default_rng(32)
        x, layers = _mlp_case(rng, (6, 4), [7, 3], np.float64)
        (w0, b0), (w1, b1) = layers
        {"x": x, "w0": w0}[const].requires_grad = False
        weight = rng.normal(size=(6, 3))
        _sum_of_weighted(dc.mlp, (x, layers), weight)
        h = np.maximum(x.data @ w0.data + b0.data, 0)
        gh = (weight @ w1.data.T) * (h > 0)
        want = {"x": gh @ w0.data.T, "w0": x.data.T @ gh, "b0": gh.sum(axis=0),
                "w1": h.T @ weight, "b1": weight.sum(axis=0)}
        got = {"x": x, "w0": w0, "b0": b0, "w1": w1, "b1": b1}
        assert got.pop(const).grad is None
        for name, t in got.items():
            np.testing.assert_allclose(t.grad, want[name], rtol=1e-12, atol=1e-15,
                                       err_msg=name)


class TestGru:
    def _zero_params(self, d):
        return {k: Tensor(np.zeros(s), requires_grad=True)
                for k, s in dc.gru_param_shapes(d).items()}

    def test_zero_everything_gives_zero(self):
        p = self._zero_params(3)
        out = dc.gru_cell(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), p)
        np.testing.assert_allclose(out.data, 0.0)

    def test_saturated_update_gate_returns_candidate(self):
        d = 4
        rng = np.random.default_rng(2)
        p = {k: Tensor(rng.normal(scale=0.3, size=s), requires_grad=True)
             for k, s in dc.gru_param_shapes(d).items()}
        p["b_u"] = Tensor(np.full(d, 50.0))  # force update gate to ~1
        state = Tensor(rng.normal(size=(2, d)))
        inp = Tensor(rng.normal(size=(2, d)))
        out = dc.gru_cell(state, inp, p)
        r = 1.0 / (1.0 + np.exp(-(inp.data @ p["w_ir"].data
                                  + state.data @ p["w_hr"].data + p["b_r"].data)))
        candidate = np.tanh(inp.data @ p["w_in"].data + p["b_in"].data
                            + r * (state.data @ p["w_hn"].data + p["b_hn"].data))
        np.testing.assert_allclose(out.data, candidate, atol=1e-9)

    def test_random_case_matches_scalar_reimplementation(self):
        d = 4
        rng = np.random.default_rng(3)
        p = {k: Tensor(rng.normal(scale=0.5, size=s), requires_grad=True)
             for k, s in dc.gru_param_shapes(d).items()}
        state = Tensor(rng.normal(size=(2, d)))
        inp = Tensor(rng.normal(size=(2, d)))
        out = dc.gru_cell(state, inp, p).data

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        for row in range(2):
            for j in range(d):
                xu = sum(inp.data[row, i] * p["w_iu"].data[i, j] for i in range(d))
                hu = sum(state.data[row, i] * p["w_hu"].data[i, j] for i in range(d))
                u = sig(xu + hu + p["b_u"].data[j])
                xr = sum(inp.data[row, i] * p["w_ir"].data[i, j] for i in range(d))
                hr = sum(state.data[row, i] * p["w_hr"].data[i, j] for i in range(d))
                r = sig(xr + hr + p["b_r"].data[j])
                xn = sum(inp.data[row, i] * p["w_in"].data[i, j] for i in range(d))
                hn = sum(state.data[row, i] * p["w_hn"].data[i, j] for i in range(d))
                n = math.tanh(xn + p["b_in"].data[j] + r * (hn + p["b_hn"].data[j]))
                expected = u * n + (1 - u) * state.data[row, j]
                assert abs(out[row, j] - expected) < 1e-9

    def test_shape_mismatch(self):
        p = self._zero_params(3)
        with pytest.raises(ShapeError):
            dc.gru_cell(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), p)

    def test_gradients(self):
        d = 3
        rng = np.random.default_rng(4)
        p = {k: Tensor(rng.normal(scale=0.5, size=s), requires_grad=True)
             for k, s in dc.gru_param_shapes(d).items()}
        state = Tensor(rng.normal(size=(2, d)), requires_grad=True)
        inp = Tensor(rng.normal(size=(2, d)))

        def run():
            tape = Tape()
            with tape:
                out = dc.gru_cell(state, inp, p)
                s = dc.reduce_mean(dc.mul(out, out))
            return s, tape

        loss, tape = run()
        tape.backward(loss)
        worst = finite_diff(lambda: float(run()[0].data),
                            [state] + list(p.values()), rng=rng, max_coords=6)
        assert worst <= 1e-4


class TestAdam:
    def test_zero_gradients_leave_parameters(self):
        store = ParamStore("f64")
        t = store.register("w", np.array([1.0, 2.0]))
        t.grad = np.zeros(2)
        store.adam_step(lr=0.1, clip_norm=1.0)
        np.testing.assert_allclose(t.data, [1.0, 2.0])

    def test_first_step_magnitude(self):
        # bias-corrected first Adam step: delta = lr * g/|g| -> lr for g=1
        store = ParamStore("f64")
        t = store.register("w", np.array([0.0]))
        t.grad = np.array([1.0])
        store.adam_step(lr=0.1, clip_norm=10.0)
        assert abs(abs(t.data[0]) - 0.1) < 1e-6
        assert t.grad is None
        assert store.step == 1

    def test_global_norm_clipping(self):
        store = ParamStore("f64")
        a = store.register("a", np.zeros(3))
        b = store.register("b", np.zeros(4))
        g = np.ones(7) * (10.0 / np.sqrt(7))  # global norm exactly 10
        a.grad = g[:3].copy()
        b.grad = g[3:].copy()
        scale = 1.0 / (10.0 + 1e-12)
        clipped = np.sqrt(np.sum((g * 10 * scale / 10) ** 2))
        assert clipped <= 1.0 + 1e-9
        store.adam_step(lr=0.01, clip_norm=1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_leaves_state(self, bad):
        store = ParamStore("f64")
        w = store.register("w", np.ones(3))
        u = store.register("u", np.ones(2))
        w.grad = np.ones(3)
        u.grad = np.ones(2)
        store.adam_step(lr=0.1, clip_norm=1.0)
        before = (w.data.copy(), u.data.copy(), store.m["w"].copy(),
                  store.v["w"].copy(), store.step)
        w.grad = np.array([bad, 0.0, 0.0])
        u.grad = np.ones(2)
        norm = store.adam_step(lr=0.1, clip_norm=1.0)
        assert not math.isfinite(norm)
        after = (w.data, u.data, store.m["w"], store.v["w"], store.step)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(a, b)
        assert w.grad is None and u.grad is None

    def test_invalid_lr(self):
        store = ParamStore("f64")
        store.register("w", np.zeros(1))
        with pytest.raises(ConfigError):
            store.adam_step(lr=0.0, clip_norm=1.0)

    def test_adam_matches_reference_sequence(self):
        # scalar Adam recurrence computed independently
        store = ParamStore("f64")
        t = store.register("w", np.array([1.0]))
        w, m, v = 1.0, 0.0, 0.0
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        for step in range(1, 6):
            g = 0.3 * w  # deterministic pseudo-gradient
            t.grad = np.array([g])
            store.adam_step(lr=lr, clip_norm=100.0)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** step)
            vh = v / (1 - b2 ** step)
            w = w - lr * mh / (math.sqrt(vh) + eps)
            assert abs(t.data[0] - w) < 1e-12


class TestPrecision:
    def test_tensors_keep_float_dtype(self):
        assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(2)).data.dtype == np.float64
        assert Tensor([1, 2]).data.dtype == np.float64
        assert Tensor(np.arange(3)).data.dtype == np.float64

    def test_constants_take_the_tensor_dtype(self):
        x = Tensor(np.array([1.0, 3.0], np.float32))
        for out in (x * 0.1, x + 1e-8, 1.0 - x, x / 3.0, 1.0 / x,
                    x * np.float64(0.1), x - np.array([0.5, 0.25])):
            assert out.data.dtype == np.float32
        np.testing.assert_array_equal((x * 0.1).data, x.data * np.float32(0.1))

    @pytest.mark.parametrize("precision, dtype", [("f32", np.float32), ("f64", np.float64)])
    def test_store_casts_on_register_and_load(self, precision, dtype, tmp_path):
        store = ParamStore(precision)
        assert store.dtype == dtype
        t = store.register("w", np.arange(6.0).reshape(2, 3))
        assert t.data.dtype == dtype
        path = str(tmp_path / "w.ckpt")
        store.save(path)
        fresh = ParamStore(precision)
        fresh.register("w", np.zeros((2, 3), np.float32))
        fresh.load(path)
        assert fresh["w"].data.dtype == dtype
        np.testing.assert_array_equal(fresh["w"].data, t.data)
        t.grad = np.ones((2, 3), dtype)
        store.adam_step(lr=0.1, clip_norm=np.inf)
        assert t.data.dtype == store.m["w"].dtype == store.v["w"].dtype == dtype

    def test_name_registered_twice_rejected(self):
        store = ParamStore("f64")
        first = store.register("w", np.ones(2))
        with pytest.raises(ConfigError, match="parameter 'w' registered twice"):
            store.register("w", np.zeros(3))
        assert store["w"] is first and list(store.params) == ["w"]

    def test_unknown_precision_rejected(self):
        with pytest.raises(ConfigError, match="f16"):
            ParamStore("f16")


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        store = ParamStore("f64")
        rng = np.random.default_rng(7)
        store.register("enc.w", rng.normal(size=(3, 4)).astype(np.float32))
        store.register("dec.b", rng.normal(size=(5,)).astype(np.float32))
        store["enc.w"].grad = np.ones((3, 4))
        store["dec.b"].grad = np.ones(5)
        store.adam_step(lr=0.01, clip_norm=1.0)
        path = str(tmp_path / "model.ckpt")
        store.save(path)

        fresh = ParamStore("f64")
        fresh.register("enc.w", np.zeros((3, 4)))
        fresh.register("dec.b", np.zeros(5))
        fresh.load(path)
        assert fresh.step == 1
        np.testing.assert_array_equal(
            fresh["enc.w"].data.astype(np.float32),
            store["enc.w"].data.astype(np.float32))
        np.testing.assert_array_equal(
            dc.read_checkpoint(path)[0]["dec.b.m"],
            store.m["dec.b"].astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        store = ParamStore("f64")
        with pytest.raises(FormatError, match="byte 0"):
            store.load(str(path))

    def test_truncation_names_offset(self, tmp_path):
        store = ParamStore("f64")
        store.register("w", np.ones((2, 2)))
        path = str(tmp_path / "model.ckpt")
        store.save(path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="byte"):
            ParamStore("f64").load(path)

    def test_shape_mismatch_on_load(self, tmp_path):
        store = ParamStore("f64")
        store.register("w", np.ones((2, 2)))
        path = str(tmp_path / "model.ckpt")
        store.save(path)
        other = ParamStore("f64")
        other.register("w", np.ones((3, 2)))
        with pytest.raises(ShapeError):
            other.load(path)

    @staticmethod
    def _two_param_store():
        store = ParamStore("f64")
        store.register("a", np.full((2, 3), 1.5))
        store.register("b", np.full((4,), -2.0))
        store.m = {"a": np.full((2, 3), 0.25), "b": np.zeros(4)}
        store.v = {"a": np.zeros((2, 3)), "b": np.full((4,), 0.5)}
        store.step = 9
        return store

    @pytest.mark.parametrize("records, error, message", [
        ([("a", (2, 3))], FormatError, "missing parameter 'b'"),
        ([("a", (2, 3)), ("b", (5,))], ShapeError, r"'b' has shape \(5,\)"),
        ([("a", (2, 3)), ("b", (4,)), ("a.m", (3, 2))], ShapeError, "'a.m'"),
        ([("a", (2, 3)), ("b", (4,)), ("b.v", (2,))], ShapeError, "'b.v'"),
        ([("a", (2, 3)), ("b", (4,)), ("c", (1,))], FormatError, "record 'c'"),
        ([("a", (2, 3)), ("b", (4,)), ("c.m", (1,))], FormatError, "record 'c.m'"),
        ([("a", (2, 3)), ("a", (2, 3)), ("b", (4,))], FormatError,
         "duplicate record 'a' at byte 69"),
        ([("a", (2, 3)), ("b", (4,)), ("a.v", (2, 3)), ("a.v", (2, 3))],
         FormatError, "duplicate record 'a.v'"),
    ], ids=["missing", "param_shape", "m_shape", "v_shape", "unknown",
            "unknown_moment", "duplicate", "duplicate_moment"])
    def test_failed_load_changes_nothing(self, tmp_path, records, error, message):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as f:
            f.write(b"SOLVCKPT" + struct.pack("<IQ", 1, 3))
            for name, shape in records:
                f.write(struct.pack("<I", len(name)) + name.encode())
                dc.write_f32_array(f, np.full(shape, 7.0))
        store = self._two_param_store()
        before = {name: (t.data, store.m[name], store.v[name])
                  for name, t in store.params.items()}
        with pytest.raises(error, match=message):
            store.load(path)
        assert store.step == 9
        for name, (data, m, v) in before.items():
            assert store[name].data is data and store.m[name] is m and store.v[name] is v
        np.testing.assert_array_equal(store["a"].data, 1.5)
        np.testing.assert_array_equal(store.m["a"], 0.25)

    def test_fresh_and_loaded_stores_hold_no_moments(self, tmp_path):
        store = self._two_param_store()
        path = str(tmp_path / "model.ckpt")
        store.save(path)
        fresh = ParamStore("f32")
        fresh.register("a", np.zeros((2, 3)))
        fresh.register("b", np.zeros(4))
        assert fresh.m == {} == fresh.v
        fresh.load(path)
        assert fresh.step == 9
        assert fresh.m == {} == fresh.v

    @pytest.mark.parametrize("precision, dtype", [("f32", np.float32), ("f64", np.float64)])
    @pytest.mark.parametrize("skipped", [False, True], ids=["stepped", "skipped"])
    def test_first_step_creates_zero_moments(self, precision, dtype, skipped):
        store = ParamStore(precision)
        a = store.register("a", np.ones((2, 3)))
        store.register("b", np.ones(4))
        assert store.m == {} == store.v
        a.grad = np.full((2, 3), np.nan if skipped else 1.0)  # b has no gradient
        norm = store.adam_step(lr=0.1, clip_norm=np.inf)
        assert math.isfinite(norm) != skipped
        assert store.step == (0 if skipped else 1)
        assert list(store.m) == list(store.v) == ["a", "b"]
        for name in ("a", "b"):
            for moments in (store.m, store.v):
                assert moments[name].dtype == dtype
                assert moments[name].shape == store[name].shape
        zero = ["a", "b"] if skipped else ["b"]
        for name in zero:
            assert not store.m[name].any() and not store.v[name].any()
        if not skipped:
            assert store.m["a"].all() and store.v["a"].all()

    def test_unstepped_store_saves_zero_moment_records(self, tmp_path):
        store = ParamStore("f64")
        store.register("a", np.full((2, 3), 1.5))
        store.register("b", np.arange(4.0))
        store.step = 5
        path = tmp_path / "model.ckpt"
        store.save(str(path))
        assert store.m == {} == store.v
        by_hand = tmp_path / "by_hand.ckpt"
        with open(by_hand, "wb") as f:
            f.write(b"SOLVCKPT" + struct.pack("<IQ", 1, 5))
            for name, arr in [("a", store["a"].data), ("b", store["b"].data),
                              ("a.m", np.zeros((2, 3))), ("b.m", np.zeros(4)),
                              ("a.v", np.zeros((2, 3))), ("b.v", np.zeros(4))]:
                f.write(struct.pack("<I", len(name)) + name.encode())
                dc.write_f32_array(f, arr)
        assert path.read_bytes() == by_hand.read_bytes()

    def test_load_leaves_moments(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        self._two_param_store().save(path)
        store = ParamStore("f64")
        store.register("a", np.zeros((2, 3)))
        store.register("b", np.zeros(4))
        # no gradients: zero moments, no update
        store.adam_step(lr=0.1, clip_norm=np.inf)
        moments = {name: (store.m[name], store.v[name]) for name in store.params}
        store.load(path)
        assert store.step == 9
        np.testing.assert_array_equal(store["a"].data, 1.5)
        for name, (m, v) in moments.items():
            assert store.m[name] is m and store.v[name] is v
            assert not m.any() and not v.any()

    @staticmethod
    def _big_store():
        """8 parameters of 256 x 256, f32: 2 MiB of parameters. The store
        holds no moments; its checkpoint carries 4 MiB of zero ones."""
        store = ParamStore("f32")
        for i in range(8):
            store.register(f"w{i}", np.full((256, 256), float(i)))
        return store

    def test_read_checkpoint_holds_one_copy(self, tmp_path):
        path = str(tmp_path / "big.ckpt")
        self._big_store().save(path)
        tracemalloc.start()
        try:
            records, _ = dc.read_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = sum(a.nbytes for a in records.values())
        assert len(records) == 24 and payload == 24 * 256 * 256 * 4
        assert peak <= 1.1 * payload

    def test_load_reads_no_moments(self, tmp_path):
        path = str(tmp_path / "big.ckpt")
        self._big_store().save(path)
        store = self._big_store()
        params = sum(t.data.nbytes for t in store.params.values())
        tracemalloc.start()
        try:
            store.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one moment array would add 256 KiB; the moments together 4 MiB
        assert peak <= params + 256 * 1024 * 0.5


def _tracking_open(monkeypatch):
    """Replace ``open`` inside diffcore with one that remembers its files."""
    opened = []

    def tracking(*args, **kwargs):
        f = open(*args, **kwargs)
        opened.append(f)
        return f

    monkeypatch.setattr(dc, "open", tracking, raising=False)
    return opened


def _tensor_file(path):
    datagen.write_features(path, np.arange(6.0).reshape(1, 2, 3))  # payload at 40, ends at 64


def _mask_file(path):
    datagen.write_masks(path, np.arange(24).reshape(2, 3, 4))  # payload at 24, ends at 72


def _ckpt_file(path):
    store = ParamStore("f32")  # records 'w' at 20, 'w.m' at 69, 'w.v' at 120; ends at 171
    store.register("w", np.arange(6.0).reshape(2, 3))
    store.save(path)


_FORMATS = {
    "tensor": (_tensor_file, datagen.read_features),
    "mask": (_mask_file, datagen.read_masks),
    "ckpt": (_ckpt_file, lambda path: dc.read_checkpoint(path)[0]),
}


def _edit(blob, cut=None, at=None, put=b"", tail=b""):
    """Cut the file to ``cut`` bytes, overwrite from ``at`` with ``put``,
    then append ``tail``."""
    blob = blob[:cut]
    if at is not None:
        blob = blob[:at] + put + blob[at + len(put):]
    return blob + tail


class TestBinaryFormats:
    @pytest.mark.parametrize("fmt, edit, message", [
        ("tensor", dict(at=0, put=b"X"), "bad magic .* at byte 0"),
        ("mask", dict(at=0, put=b"X"), "bad magic .* at byte 0"),
        ("ckpt", dict(at=0, put=b"X"), "bad magic .* at byte 0"),
        ("tensor", dict(cut=0), "expected magic at byte 0"),
        ("tensor", dict(at=8, put=b"\x02"), "unsupported version 2 at byte 8"),
        ("mask", dict(at=8, put=b"\x02"), "unsupported version 2 at byte 8"),
        ("ckpt", dict(at=8, put=b"\x02"), "unsupported version 2 at byte 8"),
        ("tensor", dict(cut=10), "expected version at byte 8"),
        ("mask", dict(cut=10), "expected version at byte 8"),
        ("ckpt", dict(cut=16), "expected step counter at byte 12"),
        ("tensor", dict(cut=14), "expected rank of tensor at byte 12"),
        ("tensor", dict(cut=30), "expected dims of tensor at byte 16"),
        ("mask", dict(cut=16), "expected dims at byte 12"),
        ("ckpt", dict(cut=22), "expected name length at byte 20"),
        ("ckpt", dict(cut=35), "expected dims of 'w' at byte 29"),
        ("ckpt", dict(at=24, put=b"\xff"), "record name at byte 24 is not UTF-8"),
        ("tensor", dict(cut=58), "expected payload of tensor at byte 40"),
        ("mask", dict(cut=70), "expected payload at byte 24"),
        ("ckpt", dict(cut=60), "expected payload of 'w' at byte 45"),
        ("ckpt", dict(cut=160), r"expected payload of 'w.v' at byte 147"),
        # a header whose dims ask for far more than the file holds
        ("tensor", dict(at=16, put=struct.pack("<Q", 2 ** 40)),
         "expected payload of tensor at byte 40"),
        ("tensor", dict(tail=b"xx"), "2 trailing bytes after payload at byte 64"),
        ("mask", dict(tail=b"xx"), "2 trailing bytes after payload at byte 72"),
        ("ckpt", dict(tail=b"xx"), "expected name length at byte 171"),
    ])
    def test_corruption_names_offset_and_closes_file(self, tmp_path, monkeypatch,
                                                     fmt, edit, message):
        write, read = _FORMATS[fmt]
        path = tmp_path / "file.bin"
        write(str(path))
        path.write_bytes(_edit(path.read_bytes(), **edit))
        opened = _tracking_open(monkeypatch)
        with pytest.raises(FormatError, match=message):
            read(str(path))
        assert len(opened) == 1 and opened[0].closed

    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    def test_reads_close_the_file(self, tmp_path, monkeypatch, fmt):
        write, read = _FORMATS[fmt]
        path = str(tmp_path / "file.bin")
        write(path)
        opened = _tracking_open(monkeypatch)
        read(path)
        assert len(opened) == 1 and opened[0].closed

    def test_zero_size_payloads_read_back(self, tmp_path):
        path = str(tmp_path / "t.bin")
        datagen.write_features(path, np.zeros((0, 4, 3), np.float32))
        assert datagen.read_features(path).shape == (0, 4, 3)
        datagen.write_masks(path, np.zeros((0, 8, 8), np.uint16))
        assert datagen.read_masks(path).shape == (0, 8, 8)
        store = ParamStore("f32")
        store.register("empty", np.zeros((3, 0)))
        store.register("w", np.ones(2))
        store.save(path)
        records, _ = dc.read_checkpoint(path)
        assert records["empty"].shape == records["empty.m"].shape == (3, 0)
        np.testing.assert_array_equal(records["w"], 1.0)
        store.load(path)
        assert store["empty"].data.shape == (3, 0)


class TestJsonFiles:
    def test_written_bytes_are_the_indented_json(self, tmp_path):
        path = str(tmp_path / "r.json")
        obj = {"b": [1, 2.5, None], "a": {"x": "\u00e9"}}
        write_json(path, obj)
        assert Path(path).read_bytes() == json.dumps(obj, indent=2).encode()
        assert read_json_object(path) == obj

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ablate.json"
        write_json(str(path), {"x": {"mean_miou": 0.5}})
        before = path.read_bytes()
        partial = fail_writes_half_way(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            write_json(str(path), {"y": {"mean_miou": 0.25}})
        assert len(partial) == 1 and partial[0] > 0
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ablate.json"]

    def test_unencodable_object_creates_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(str(tmp_path / "r.json"), {"x": object()})
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("blob, message", [
        (b'{"model": ', "not valid JSON: Expecting value: line 1 column 11"),
        (b"", "not valid JSON"),
        (b'{"a": 1} x', "not valid JSON: Extra data"),
        (b'{"a": "\xff"}', "not valid JSON"),
        (b"[1, 2]", "root must be a JSON object"),
        (b"null", "root must be a JSON object"),
    ], ids=["truncated", "empty", "trailing", "not_utf8", "list_root", "null_root"])
    def test_bad_file_is_a_config_error_naming_it(self, tmp_path, blob, message):
        path = tmp_path / "bad.json"
        path.write_bytes(blob)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            read_json_object(str(path))
