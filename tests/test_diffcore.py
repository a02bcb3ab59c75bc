"""Engine-level oracles: primitive forward values, gradients vs central
finite differences, optimizer behavior, and the checkpoint format."""

import math
from pathlib import Path

import numpy as np
import pytest

from solv import diffcore as dc
from solv.diffcore import (
    ConfigError, FormatError, NonFiniteError, ParamStore, ShapeError, Tape,
    Tensor,
)

from helpers import finite_diff


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
        out = dc.layernorm(Tensor([3.0, 3.0, 3.0, 3.0]))
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

    def test_finite_check_mode(self):
        dc.set_finite_checks(True)
        try:
            with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
                dc.div(Tensor([1.0]), Tensor([0.0]))
        finally:
            dc.set_finite_checks(False)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        tape = Tape()
        with tape:
            loss = dc.reduce_sum(x)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        with tape:
            loss = dc.reduce_sum(dc.mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        with tape:
            y = dc.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_double_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        tape = Tape()
        with tape:
            loss = dc.reduce_sum(x)
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
                h = dc.sigmoid(h) + dc.tanh(h) + dc.exp(h * 0.1)
                h = dc.softmax(h, axis=1)
                h = dc.layernorm(h)
                s = dc.reduce_mean(dc.mul(h, h)) + dc.reduce_sum(dc.sqrt(dc.exp(h)))
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

        def run():
            tape = Tape()
            with tape:
                s = dc.reduce_sum(dc.mul(dc.relu(x), Tensor(np.arange(5.0))))
            return s, tape

        loss, tape = run()
        tape.backward(loss)
        worst = finite_diff(lambda: float(run()[0].data), [x])
        assert worst <= 1e-4

    def test_gather_concat_stack_slice_gradients(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])

        def run():
            tape = Tape()
            with tape:
                g = dc.gather_rows(a, idx)
                parts = dc.concat([g, g], axis=1)
                st = dc.stack([parts, parts], axis=0)
                sl = dc.slice_axis(st, 2, 1, 4)
                s = dc.reduce_sum(dc.mul(sl, sl))
            return s, tape

        loss, tape = run()
        tape.backward(loss)
        worst = finite_diff(lambda: float(run()[0].data), [a])
        assert worst <= 1e-4


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
            store.adam_step(lr=0.0)

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
        for out in (x * 0.1, 0.1 * x, x + 1e-8, 1.0 - x, x / 3.0, 1.0 / x,
                    x * np.float64(0.1), x - np.array([0.5, 0.25])):
            assert out.data.dtype == np.float32
        np.testing.assert_array_equal((x * 0.1).data, x.data * np.float32(0.1))

    @pytest.mark.parametrize("precision, dtype", [("f32", np.float32), ("f64", np.float64)])
    def test_store_casts_on_register_and_load(self, precision, dtype, tmp_path):
        store = ParamStore(precision)
        assert store.dtype == dtype
        t = store.register("w", np.arange(6.0).reshape(2, 3))
        assert t.data.dtype == store.m["w"].dtype == store.v["w"].dtype == dtype
        path = str(tmp_path / "w.ckpt")
        store.save(path)
        fresh = ParamStore(precision)
        fresh.register("w", np.zeros((2, 3), np.float32))
        fresh.load(path)
        assert fresh["w"].data.dtype == fresh.m["w"].dtype == dtype
        np.testing.assert_array_equal(fresh["w"].data, t.data)

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
            fresh.m["dec.b"].astype(np.float32),
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
