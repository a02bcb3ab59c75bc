"""Spatial and temporal binding: attention oracles, invariances, masking."""

import numpy as np
import pytest

from helpers import binding_store, finite_diff, reference_isa_iteration
from solv import binding, diffcore as dc
from solv.binding import relative_grid, spatial_bind, temporal_bind
from solv.diffcore import Tape, Tensor
from solv.encoder import build_position_grid


def _layernorm_np(z, eps=1e-6):
    m = z.mean(axis=-1, keepdims=True)
    v = ((z - m) ** 2).mean(axis=-1, keepdims=True)
    return (z - m) / np.sqrt(v + eps)


class TestRelativeGrid:
    def test_centering(self):
        out = relative_grid(np.array([[0.5, -0.5]]), np.array([0.5, -0.5]),
                            np.array([0.7, 0.9]), delta=5.0)
        np.testing.assert_allclose(out.data, [[0.0, 0.0]])

    def test_delta_scaling_arithmetic(self):
        out = relative_grid(np.array([[1.0, 1.0]]), np.array([0.0, 0.0]),
                            np.array([1.0, 1.0]), delta=5.0)
        np.testing.assert_allclose(out.data, [[0.2, 0.2]])

    def test_doubling_scale_halves_entries(self):
        g = np.random.default_rng(0).normal(size=(6, 2))
        s_p = np.array([0.1, -0.2])
        one = relative_grid(g, s_p, np.array([0.5, 0.8]), 5.0).data
        two = relative_grid(g, s_p, np.array([1.0, 1.6]), 5.0).data
        np.testing.assert_allclose(one, 2.0 * two)

    def test_batched_slots(self):
        g = np.random.default_rng(1).normal(size=(4, 2))
        s_p = np.random.default_rng(2).normal(size=(3, 2))
        s_s = np.abs(np.random.default_rng(3).normal(size=(3, 2))) + 0.1
        out = relative_grid(g, s_p, s_s, 5.0)
        assert out.shape == (3, 4, 2)
        for j in range(3):
            np.testing.assert_allclose(
                out.data[j], (g - s_p[j]) / (5.0 * s_s[j]))

    def test_per_slot_grids(self):
        # the centered K x N' x 2 grids that invariant attention passes
        g = np.random.default_rng(4).normal(size=(3, 5, 2))
        s_p = np.random.default_rng(5).normal(size=(3, 2))
        s_s = np.abs(np.random.default_rng(6).normal(size=(3, 2))) + 0.1
        out = relative_grid(g, s_p, s_s, 5.0)
        assert out.shape == (3, 5, 2)
        for j in range(3):
            np.testing.assert_array_equal(
                out.data[j], (g[j] - s_p[j]) / (s_s[j] * 5.0))


class TestSpatialBind:
    def test_single_slot_attention_is_ones_and_centroid(self):
        store = binding_store(d_slot=6, k_slots=1)
        grid = build_position_grid(3, 3)
        tokens = Tensor(np.random.default_rng(4).normal(size=(9, 6)))
        _, state, record = spatial_bind(tokens, grid, store, delta=5.0)
        np.testing.assert_array_equal(record.a, np.ones((1, 9)))
        np.testing.assert_allclose(state.position.data[0], grid.mean(axis=0),
                                   atol=1e-9)

    def test_uniform_attention_moves_every_slot_to_centroid(self):
        # identical queries and position-free keys give uniform attention
        store = binding_store(d_slot=6, k_slots=3, seed=5)
        store["bind.init.z"].data[:] = 0.0
        store["bind.q.b"].data[:] = 0.0
        store["bind.ln_q.b"].data[:] = 0.0
        store["bind.g.w"].data[:] = 0.0
        store["bind.g.b"].data[:] = 0.0
        grid = build_position_grid(4, 4)
        tokens = Tensor(np.random.default_rng(6).normal(size=(16, 6)))
        _, state, record = spatial_bind(tokens, grid, store, delta=5.0,
                                        n_iters=1)
        np.testing.assert_allclose(record.a, 1.0 / 3.0, atol=1e-12)
        for j in range(3):
            np.testing.assert_allclose(state.position.data[j],
                                       grid.mean(axis=0), atol=1e-9)

    def test_hand_computed_two_by_two_attention(self):
        d = 2
        store = binding_store(d_slot=d, k_slots=2, seed=7)
        eye = np.eye(d)
        for name in ("bind.p.w", "bind.k.w", "bind.q.w"):
            store[name].data = eye.copy()
        for name in ("bind.p.b", "bind.k.b", "bind.q.b", "bind.g.b"):
            store[name].data[:] = 0.0
        store["bind.g.w"].data[:] = 0.0  # zero grids: position term off
        z = np.array([[1.0, -1.0], [-2.0, 2.0]])
        store["bind.init.z"].data = z.copy()
        f = np.array([[0.3, 1.2], [-0.7, 0.4]])
        grid = np.zeros((2, 2))
        _, _, record = spatial_bind(Tensor(f), grid, store, delta=5.0,
                                    n_iters=1)
        logits = f @ _layernorm_np(z).T / np.sqrt(d)  # token x slot
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = (e / e.sum(axis=1, keepdims=True)).T  # slot x token
        np.testing.assert_allclose(record.a, expected, atol=1e-9)

    def test_attention_columns_sum_to_one_every_iteration(self):
        store = binding_store(d_slot=8, k_slots=4, seed=8)
        grid = build_position_grid(4, 5)
        tokens = Tensor(np.random.default_rng(9).normal(size=(20, 8)))
        for iters in (1, 2, 3):
            _, _, record = spatial_bind(tokens, grid, store, delta=5.0,
                                        n_iters=iters)
            np.testing.assert_allclose(record.a.sum(axis=0), 1.0, atol=1e-6)

    def test_identical_frames_shared_init_identical_slots(self):
        store = binding_store(d_slot=8, k_slots=3, seed=10)
        grid = build_position_grid(3, 4)
        feats = np.random.default_rng(11).normal(size=(12, 8))
        za, _, ra = spatial_bind(Tensor(feats), grid, store, delta=5.0)
        zb, _, rb = spatial_bind(Tensor(feats.copy()), grid, store, delta=5.0)
        assert np.array_equal(za.data, zb.data)
        assert np.array_equal(ra.a, rb.a)

    def test_positions_stay_inside_grid_hull(self):
        store = binding_store(d_slot=8, k_slots=4, seed=12)
        grid = build_position_grid(5, 5)
        tokens = Tensor(np.random.default_rng(13).normal(size=(25, 8)))
        _, state, _ = spatial_bind(tokens, grid, store, delta=5.0)
        pos = state.position.data
        assert (pos >= grid.min(axis=0) - 1e-6).all()
        assert (pos <= grid.max(axis=0) + 1e-6).all()

    def test_scales_strictly_positive(self):
        store = binding_store(d_slot=8, k_slots=4, seed=14)
        grid = build_position_grid(4, 4)
        tokens = Tensor(np.random.default_rng(15).normal(size=(16, 8)))
        _, state, _ = spatial_bind(tokens, grid, store, delta=5.0)
        assert (state.scale.data > 0).all()

    def test_translation_invariance_bit_exact_on_dyadic_inputs(self):
        # offsets and coordinates exactly representable in binary keep the
        # centered grid bitwise identical, and binding is a pure function
        # of the centered grid
        store = binding_store(d_slot=8, k_slots=3, seed=16)
        store["bind.init.pos"].data = np.array(
            [[0.25, -0.5], [-0.125, 0.375], [0.75, 0.0]])
        grid = build_position_grid(5, 5)  # multiples of 0.5
        tokens = np.random.default_rng(17).normal(size=(25, 8))
        _, state_a, rec_a = spatial_bind(Tensor(tokens), grid, store, delta=5.0)
        z_a = spatial_bind(Tensor(tokens), grid, store, delta=5.0)[0]

        offset = np.array([0.75, -0.25])
        store["bind.init.pos"].data = store["bind.init.pos"].data + offset
        z_b, state_b, rec_b = spatial_bind(Tensor(tokens), grid + offset,
                                           store, delta=5.0)
        assert np.array_equal(rec_a.a, rec_b.a)
        assert np.array_equal(z_a.data, z_b.data)
        np.testing.assert_allclose(state_b.position.data,
                                   state_a.position.data + offset, atol=1e-12)

    def test_translation_invariance_tolerance_on_random_offsets(self):
        store = binding_store(d_slot=8, k_slots=3, seed=18)
        grid = build_position_grid(4, 4)
        tokens = np.random.default_rng(19).normal(size=(16, 8))
        z_a, _, rec_a = spatial_bind(Tensor(tokens), grid, store, delta=5.0)
        offset = np.random.default_rng(20).normal(size=2)
        store["bind.init.pos"].data = store["bind.init.pos"].data + offset
        z_b, _, rec_b = spatial_bind(Tensor(tokens), grid + offset, store,
                                     delta=5.0)
        np.testing.assert_allclose(rec_a.a, rec_b.a, atol=1e-10)
        np.testing.assert_allclose(z_a.data, z_b.data, atol=1e-9)

    def test_plain_attention_variant_shapes_and_normalization(self):
        store = binding_store(d_slot=8, k_slots=4, seed=21)
        grid = build_position_grid(4, 4)
        tokens = Tensor(np.random.default_rng(22).normal(size=(16, 8)))
        z, state, record = spatial_bind(tokens, grid, store, delta=5.0,
                                        invariant=False)
        assert z.shape == (4, 8)
        np.testing.assert_allclose(record.a.sum(axis=0), 1.0, atol=1e-6)

    def test_isa_iteration_gradients(self):
        store = binding_store(d_slot=6, k_slots=3, seed=23)
        grid = build_position_grid(3, 3)
        tokens = Tensor(np.random.default_rng(24).normal(size=(9, 6)),
                        requires_grad=True)

        def run():
            tape = Tape()
            with tape:
                z, _, _ = spatial_bind(tokens, grid, store, delta=5.0,
                                       n_iters=1)
                loss = dc.reduce_mean(dc.mul(z, z))
            return loss, tape

        loss, tape = run()
        tape.backward(loss)
        names = ["bind.init.z", "bind.init.pos", "bind.init.scale",
                 "bind.q.w", "bind.k.w", "bind.v.w", "bind.p.w", "bind.g.w",
                 "bind.gru.w_hn", "bind.mlp.w1"]
        worst = finite_diff(lambda: float(run()[0].data),
                            [tokens] + [store[n] for n in names], max_coords=8)
        assert worst <= 1e-4


def _max_rel_diff(got: np.ndarray, want: np.ndarray) -> float:
    """Largest elementwise difference over the largest reference magnitude."""
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestFactoredAttention:
    """isa_iteration contracts the affine position term with the query and
    the attention weights instead of building K x N' x D keys and values;
    it must agree with the unfactored reference to rounding."""

    def _bind_with(self, iteration, store, tokens, grid, n_iters, monkeypatch):
        monkeypatch.setattr(binding, "isa_iteration", iteration)
        store.zero_grads()
        tokens.grad = None
        rng = np.random.default_rng(40)
        tape = Tape()
        with tape:
            z, state, record = spatial_bind(tokens, grid, store, delta=5.0,
                                            n_iters=n_iters)
            loss = Tensor(0.0)
            for out in (z, state.scale, state.position):
                loss = dc.add(loss, dc.reduce_sum(
                    dc.mul(out, Tensor(rng.normal(size=out.shape)))))
        tape.backward(loss)
        outputs = {"z": z.data, "scale": state.scale.data,
                   "position": state.position.data, "a": record.a}
        grads = {name: store[name].grad.copy() for name in store.names()
                 if store[name].grad is not None}
        grads["tokens"] = tokens.grad.copy()
        return outputs, grads

    @pytest.mark.parametrize("n_iters", [1, 3])
    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_matches_unfactored_reference(self, seed, n_iters, monkeypatch):
        store = binding_store(d_slot=8, k_slots=4, seed=seed)
        grid = build_position_grid(4, 5)
        tokens = Tensor(np.random.default_rng(seed).normal(size=(20, 8)),
                        requires_grad=True)
        factored = binding.isa_iteration
        got, got_grads = self._bind_with(factored, store, tokens,
                                         grid, n_iters, monkeypatch)
        want, want_grads = self._bind_with(reference_isa_iteration, store,
                                           tokens, grid, n_iters, monkeypatch)
        for name in want:
            assert _max_rel_diff(got[name], want[name]) <= 1e-12, name
        # every binding parameter the iteration reads gets a gradient
        assert set(got_grads) == set(want_grads)
        assert {"bind.p.w", "bind.g.w", "bind.g.b", "bind.q.w", "bind.init.pos",
                "bind.init.scale"} <= set(want_grads)
        for name in want_grads:
            assert _max_rel_diff(got_grads[name], want_grads[name]) <= 1e-12, name

    @pytest.mark.parametrize("with_tape", [True, False], ids=["train", "infer"])
    def test_no_k_by_n_by_d_tensor_is_built(self, with_tape, monkeypatch):
        k, rows, cols, d = 3, 4, 5, 8
        store = binding_store(d_slot=d, k_slots=k, seed=44)
        grid = build_position_grid(rows, cols)
        tokens = Tensor(np.random.default_rng(45).normal(size=(rows * cols, d)))
        real_make, factored = dc._make, binding.isa_iteration

        def shapes_built(iteration):
            shapes = []

            def recording_make(out_data, parents, backward_fn):
                shapes.append(np.shape(out_data))
                return real_make(out_data, parents, backward_fn)

            monkeypatch.setattr(binding, "isa_iteration", iteration)
            monkeypatch.setattr(dc, "_make", recording_make)
            tape = Tape()
            try:
                if with_tape:
                    with tape:
                        spatial_bind(tokens, grid, store, delta=5.0)
                else:
                    spatial_bind(tokens, grid, store, delta=5.0)
            finally:
                monkeypatch.setattr(dc, "_make", real_make)
            if with_tape:  # every recorded node was also seen being built
                recorded = [out.shape for out, *_ in tape._nodes]
                assert recorded and set(recorded) <= set(shapes)
            return shapes

        assert (k, rows * cols, d) in shapes_built(reference_isa_iteration)
        assert (k, rows * cols, d) not in shapes_built(factored)


class TestTemporalBind:
    def _slots(self, rng, window, k=3, d=8):
        return [Tensor(rng.normal(size=(k, d))) for _ in range(window)]

    def test_degenerate_single_frame_window(self):
        store = binding_store(d_slot=8, k_slots=3, window=1, seed=25)
        slots = self._slots(np.random.default_rng(26), 1)
        out, maps = temporal_bind(slots, np.array([True]), store,
                                  n_layers=2, heads=2)
        assert out.shape == (3, 8)
        for probs in maps:
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_masked_prefix_equals_physical_truncation(self):
        window, k, d = 5, 3, 8
        rng = np.random.default_rng(27)
        store = binding_store(d_slot=d, k_slots=k, window=window, seed=28)
        slots = self._slots(rng, window, k, d)
        avail = np.array([False, False, True, True, True])
        masked_out, _ = temporal_bind(slots, avail, store, n_layers=2,
                                      heads=2, center=2)

        truncated = binding_store(d_slot=d, k_slots=k, window=3, seed=28)
        for name in truncated.names():
            if name != "tbind.temb":
                truncated[name].data = store[name].data.copy()
        truncated["tbind.temb"].data = store["tbind.temb"].data[2:].copy()
        trunc_out, _ = temporal_bind(slots[2:], np.array([True] * 3),
                                     truncated, n_layers=2, heads=2, center=0)
        np.testing.assert_allclose(masked_out.data, trunc_out.data, atol=1e-12)

    def test_attention_rows_sum_to_one_over_available(self):
        window = 5
        store = binding_store(d_slot=8, k_slots=3, window=window, seed=29)
        slots = self._slots(np.random.default_rng(30), window)
        avail = np.array([True, False, True, True, False])
        _, maps = temporal_bind(slots, avail, store, n_layers=2, heads=2)
        for probs in maps:
            assert probs.shape == (3, 2, window, window)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
            assert np.abs(probs[..., ~avail]).max() < 1e-12

    def test_center_must_be_available(self):
        store = binding_store(d_slot=8, k_slots=3, window=3, seed=31)
        slots = self._slots(np.random.default_rng(32), 3)
        with pytest.raises(ValueError):
            temporal_bind(slots, np.array([True, False, True]), store,
                          n_layers=1, heads=2)

    def test_cross_slot_isolation(self):
        window, k, d = 3, 4, 8
        store = binding_store(d_slot=d, k_slots=k, window=window, seed=33)
        rng = np.random.default_rng(34)
        base = [rng.normal(size=(k, d)) for _ in range(window)]
        out_a, _ = temporal_bind([Tensor(x) for x in base],
                                 np.ones(window, bool), store,
                                 n_layers=2, heads=2)
        modified = [x.copy() for x in base]
        modified[1][2] += 5.0  # perturb slot 2 of frame 1
        out_b, _ = temporal_bind([Tensor(x) for x in modified],
                                 np.ones(window, bool), store,
                                 n_layers=2, heads=2)
        keep = [j for j in range(k) if j != 2]
        assert np.array_equal(out_a.data[keep], out_b.data[keep])
        assert not np.array_equal(out_a.data[2], out_b.data[2])

    def test_transformer_layer_gradients(self):
        window, k, d = 3, 2, 8
        store = binding_store(d_slot=d, k_slots=k, window=window,
                              n_layers=1, seed=35)
        rng = np.random.default_rng(36)
        base = [Tensor(rng.normal(size=(k, d)), requires_grad=True)
                for _ in range(window)]

        def run():
            tape = Tape()
            with tape:
                out, _ = temporal_bind(base, np.ones(window, bool), store,
                                       n_layers=1, heads=2)
                loss = dc.reduce_mean(dc.mul(out, out))
            return loss, tape

        loss, tape = run()
        tape.backward(loss)
        names = ["tbind.temb", "tbind.l0.wq", "tbind.l0.wk", "tbind.l0.wv",
                 "tbind.l0.wo", "tbind.l0.ff_w1", "tbind.l0.ff_w2"]
        worst = finite_diff(lambda: float(run()[0].data),
                            base + [store[n] for n in names], max_coords=8)
        assert worst <= 1e-4
