"""Spatial and temporal binding: attention oracles, invariances, masking."""

import contextlib

import numpy as np
import pytest

from helpers import (
    binding_store, final_moments, finite_diff, record_attention,
    record_isa_moments, reference_isa_iteration, stack,
)
from solv import binding, diffcore as dc
from solv.binding import spatial_bind, temporal_bind
from solv.diffcore import Tape, Tensor
from solv.encoder import build_position_grid


def _layernorm_np(z, eps=1e-6):
    m = z.mean(axis=-1, keepdims=True)
    v = ((z - m) ** 2).mean(axis=-1, keepdims=True)
    return (z - m) / np.sqrt(v + eps)


class TestSpatialBind:
    def test_single_slot_attention_is_ones_and_centroid(self, monkeypatch):
        store = binding_store(d_slot=6, k_slots=1)
        grid = build_position_grid(3, 3)
        tokens = Tensor(np.random.default_rng(4).normal(size=(9, 6)))
        attention = record_attention(monkeypatch)
        _, geometry = spatial_bind(tokens, grid, store, delta=5.0, n_iters=3, invariant=True,
                                   init_z=None)
        np.testing.assert_array_equal(attention[-1], np.ones((1, 9)))
        np.testing.assert_allclose(geometry.position[0], grid.mean(axis=0),
                                   atol=1e-9)
        np.testing.assert_allclose(geometry.var[0], grid.var(axis=0), atol=1e-9)
        assert geometry.mass[0] == 9.0 + binding.EPS

    def test_uniform_attention_moves_every_slot_to_centroid(self, monkeypatch):
        # identical queries and position-free keys give uniform attention
        store = binding_store(d_slot=6, k_slots=3, seed=5)
        store["bind.init.z"].data[:] = 0.0
        store["bind.q.b"].data[:] = 0.0
        store["bind.ln_q.b"].data[:] = 0.0
        store["bind.g.w"].data[:] = 0.0
        store["bind.g.b"].data[:] = 0.0
        grid = build_position_grid(4, 4)
        tokens = Tensor(np.random.default_rng(6).normal(size=(16, 6)))
        attention = record_attention(monkeypatch)
        _, geometry = spatial_bind(tokens, grid, store, delta=5.0, n_iters=1, invariant=True,
                                   init_z=None)
        np.testing.assert_allclose(attention[-1], 1.0 / 3.0, atol=1e-12)
        for j in range(3):
            np.testing.assert_allclose(geometry.position[j],
                                       grid.mean(axis=0), atol=1e-9)

    def test_hand_computed_two_by_two_attention(self, monkeypatch):
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
        attention = record_attention(monkeypatch)
        spatial_bind(Tensor(f), grid, store, delta=5.0, n_iters=1, invariant=True, init_z=None)
        logits = f @ _layernorm_np(z).T / np.sqrt(d)  # token x slot
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = (e / e.sum(axis=1, keepdims=True)).T  # slot x token
        np.testing.assert_allclose(attention[-1], expected, atol=1e-9)

    def test_attention_columns_sum_to_one_every_iteration(self, monkeypatch):
        store = binding_store(d_slot=8, k_slots=4, seed=8)
        grid = build_position_grid(4, 5)
        tokens = Tensor(np.random.default_rng(9).normal(size=(20, 8)))
        attention = record_attention(monkeypatch)
        spatial_bind(tokens, grid, store, delta=5.0, n_iters=3, invariant=True, init_z=None)
        assert len(attention) == 3
        for a in attention:
            np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-6)

    def test_identical_frames_shared_init_identical_slots(self):
        store = binding_store(d_slot=8, k_slots=3, seed=10)
        grid = build_position_grid(3, 4)
        feats = np.random.default_rng(11).normal(size=(12, 8))
        za, ga = spatial_bind(Tensor(feats), grid, store, delta=5.0, n_iters=3, invariant=True,
                              init_z=None)
        zb, gb = spatial_bind(Tensor(feats.copy()), grid, store, delta=5.0, n_iters=3,
                              invariant=True, init_z=None)
        assert np.array_equal(za.data, zb.data)
        assert np.array_equal(ga.position, gb.position)
        assert np.array_equal(ga.var, gb.var)

    def test_positions_stay_inside_grid_hull(self, monkeypatch):
        store = binding_store(d_slot=8, k_slots=4, seed=12)
        grid = build_position_grid(5, 5)
        tokens = Tensor(np.random.default_rng(13).normal(size=(25, 8)))
        moments = record_isa_moments(monkeypatch)
        spatial_bind(tokens, grid, store, delta=5.0, n_iters=3, invariant=True, init_z=None)
        pos = final_moments(moments, store)[1].data
        assert (pos >= grid.min(axis=0) - 1e-6).all()
        assert (pos <= grid.max(axis=0) + 1e-6).all()

    def test_scales_strictly_positive(self, monkeypatch):
        store = binding_store(d_slot=8, k_slots=4, seed=14)
        grid = build_position_grid(4, 4)
        tokens = Tensor(np.random.default_rng(15).normal(size=(16, 8)))
        moments = record_isa_moments(monkeypatch)
        spatial_bind(tokens, grid, store, delta=5.0, n_iters=3, invariant=True, init_z=None)
        assert (final_moments(moments, store)[0].data > 0).all()

    def test_translation_invariance_bit_exact_on_dyadic_inputs(self, monkeypatch):
        # offsets and coordinates exactly representable in binary keep the
        # centered grid bitwise identical, and binding is a pure function
        # of the centered grid
        store = binding_store(d_slot=8, k_slots=3, seed=16)
        store["bind.init.pos"].data = np.array(
            [[0.25, -0.5], [-0.125, 0.375], [0.75, 0.0]])
        grid = build_position_grid(5, 5)  # multiples of 0.5
        tokens = np.random.default_rng(17).normal(size=(25, 8))
        attention = record_attention(monkeypatch)
        z_a, geometry_a = spatial_bind(Tensor(tokens), grid, store, delta=5.0, n_iters=3,
                                       invariant=True, init_z=None)
        a_a = attention[-1]

        offset = np.array([0.75, -0.25])
        store["bind.init.pos"].data = store["bind.init.pos"].data + offset
        z_b, geometry_b = spatial_bind(Tensor(tokens), grid + offset,
                                       store, delta=5.0, n_iters=3, invariant=True, init_z=None)
        assert np.array_equal(a_a, attention[-1])
        assert np.array_equal(z_a.data, z_b.data)
        assert np.array_equal(geometry_a.var, geometry_b.var)
        np.testing.assert_allclose(geometry_b.position,
                                   geometry_a.position + offset, atol=1e-12)

    def test_translation_invariance_tolerance_on_random_offsets(self, monkeypatch):
        store = binding_store(d_slot=8, k_slots=3, seed=18)
        grid = build_position_grid(4, 4)
        tokens = np.random.default_rng(19).normal(size=(16, 8))
        attention = record_attention(monkeypatch)
        z_a, _ = spatial_bind(Tensor(tokens), grid, store, delta=5.0, n_iters=3, invariant=True,
                              init_z=None)
        a_a = attention[-1]
        offset = np.random.default_rng(20).normal(size=2)
        store["bind.init.pos"].data = store["bind.init.pos"].data + offset
        z_b, _ = spatial_bind(Tensor(tokens), grid + offset, store,
                              delta=5.0, n_iters=3, invariant=True, init_z=None)
        np.testing.assert_allclose(a_a, attention[-1], atol=1e-10)
        np.testing.assert_allclose(z_a.data, z_b.data, atol=1e-9)

    @pytest.mark.parametrize("invariant", [True, False], ids=["invariant", "plain"])
    def test_fewer_than_one_iteration_is_refused(self, invariant):
        store = binding_store(d_slot=6, k_slots=2, seed=37)
        tokens = Tensor(np.random.default_rng(38).normal(size=(9, 6)))
        with pytest.raises(ValueError, match="n_iters must be >= 1"):
            spatial_bind(tokens, build_position_grid(3, 3), store, delta=5.0,
                         n_iters=0, invariant=invariant, init_z=None)

    def test_plain_attention_variant_shapes_and_normalization(self, monkeypatch):
        store = binding_store(d_slot=8, k_slots=4, seed=21)
        grid = build_position_grid(4, 4)
        tokens = Tensor(np.random.default_rng(22).normal(size=(16, 8)))
        attention = record_attention(monkeypatch)
        z, geometry = spatial_bind(tokens, grid, store, delta=5.0,
                                   invariant=False, n_iters=3, init_z=None)
        assert z.shape == (4, 8)
        assert len(attention) == 1  # the final attention's moments only
        np.testing.assert_allclose(attention[0].sum(axis=0), 1.0, atol=1e-6)
        # the invariant path's moments of that attention
        a = attention[0]
        mass = a.sum(axis=1) + binding.EPS
        position = a @ grid / mass[:, None]
        position += store["bind.init.pos"].data * (binding.EPS / mass[:, None])
        np.testing.assert_allclose(geometry.mass, mass, rtol=1e-12)
        np.testing.assert_allclose(geometry.position, position, atol=1e-12)
        assert geometry.var.shape == (4, 2) and np.isfinite(geometry.var).all()

    def test_isa_iteration_gradients(self):
        store = binding_store(d_slot=6, k_slots=3, seed=23)
        grid = build_position_grid(3, 3)
        tokens = Tensor(np.random.default_rng(24).normal(size=(9, 6)),
                        requires_grad=True)

        def run():
            tape = Tape()
            with tape:
                z, _ = spatial_bind(tokens, grid, store, delta=5.0, n_iters=1, invariant=True,
                                    init_z=None)
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
        moments = record_isa_moments(monkeypatch, iteration)
        store.zero_grads()
        tokens.grad = None
        rng = np.random.default_rng(40)
        tape = Tape()
        with tape:
            z, geometry = spatial_bind(tokens, grid, store, delta=5.0,
                                       n_iters=n_iters, invariant=True, init_z=None)
            scale, position = final_moments(moments, store)
            loss = Tensor(0.0)
            for out in (z, scale, position):
                loss = dc.add(loss, dc.reduce_sum(
                    dc.mul(out, Tensor(rng.normal(size=out.shape))), axis=None))
        tape.backward(loss)
        outputs = {"z": z.data, "scale": scale.data, "position": position.data,
                   "geometry.mass": geometry.mass,
                   "geometry.position": geometry.position,
                   "geometry.var": geometry.var}
        grads = {name: store[name].grad.copy() for name in store.params
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
                        spatial_bind(tokens, grid, store, delta=5.0, n_iters=3, invariant=True,
                                     init_z=None)
                else:
                    spatial_bind(tokens, grid, store, delta=5.0, n_iters=3, invariant=True,
                                 init_z=None)
            finally:
                monkeypatch.setattr(dc, "_make", real_make)
            if with_tape:  # every recorded node was also seen being built
                recorded = [out.shape for out, *_ in tape._nodes]
                assert recorded and set(recorded) <= set(shapes)
            return shapes

        assert (k, rows * cols, d) in shapes_built(reference_isa_iteration)
        assert (k, rows * cols, d) not in shapes_built(factored)

    @pytest.mark.parametrize("with_tape", [True, False], ids=["train", "infer"])
    def test_geometry_is_token_major(self, with_tape, monkeypatch):
        """spatial_bind builds no tensor that ends in the length-2
        coordinate axis behind an N'-long axis, and no frame-major (...,
        N', 2, K) one: numpy would run its elementwise ops and sums over
        that axis two elements at a time. The relative coordinates are
        built once at entry and once per iteration, which hands them to
        the next."""
        frames, k, rows, cols, d = 4, 3, 4, 5, 8
        n_kept = rows * cols
        store = binding_store(d_slot=d, k_slots=k, seed=46)
        tokens = Tensor(np.random.default_rng(47).normal(size=(frames, n_kept, d)))
        kept_grid = np.broadcast_to(build_position_grid(rows, cols), (frames, n_kept, 2))
        real_make, real_div = dc._make, dc.div
        geometry = sorted((n_kept, 2, frames, k))
        for n_iters in (1, 3):
            shapes, divided = [], []

            def recording_make(out_data, parents, backward_fn):
                shapes.append(np.shape(out_data))
                return real_make(out_data, parents, backward_fn)

            def recording_div(a, b):
                out = real_div(a, b)
                divided.append(out.shape)
                return out

            monkeypatch.setattr(dc, "_make", recording_make)
            monkeypatch.setattr(dc, "div", recording_div)
            with Tape() if with_tape else contextlib.nullcontext():
                spatial_bind(tokens, kept_grid, store, delta=5.0, n_iters=n_iters, invariant=True,
                             init_z=None)
            monkeypatch.setattr(dc, "_make", real_make)
            monkeypatch.setattr(dc, "div", real_div)
            assert (n_kept, 2, frames, k) in shapes  # the geometry itself
            assert not [s for s in shapes if s[-1:] == (2,) and n_kept in s[:-1]]
            assert not [s for s in shapes if s[-3:] == (n_kept, 2, k)]
            relative = [s for s in divided if sorted(s) == geometry]
            assert relative == [(n_kept, 2, frames, k)] * (n_iters + 1)


class TestTemporalBind:
    def _slots(self, rng, window, k=3, d=8, requires_grad=False):
        return [Tensor(rng.normal(size=(k, d)), requires_grad=requires_grad)
                for _ in range(window)]

    def _bind(self, slots, availability, store, **kwargs):
        return temporal_bind(stack(slots, axis=1), availability, store, **kwargs)

    def test_degenerate_single_frame_window(self):
        store = binding_store(d_slot=8, k_slots=3, window=1, seed=25)
        slots = self._slots(np.random.default_rng(26), 1)
        out = self._bind(slots, np.array([True]), store, n_layers=2, heads=2)
        assert out.shape == (3, 8)
        assert np.isfinite(out.data).all()

    def test_masked_edges_equal_physical_truncation(self):
        window, k, d = 5, 3, 8
        rng = np.random.default_rng(27)
        store = binding_store(d_slot=d, k_slots=k, window=window, seed=28)
        slots = self._slots(rng, window, k, d)
        avail = np.array([False, True, True, True, False])
        masked_out = self._bind(slots, avail, store, n_layers=2, heads=2)

        truncated = binding_store(d_slot=d, k_slots=k, window=3, seed=28)
        for name in truncated.params:
            if name != "tbind.temb":
                truncated[name].data = store[name].data.copy()
        truncated["tbind.temb"].data = store["tbind.temb"].data[1:4].copy()
        trunc_out = self._bind(slots[1:4], np.array([True] * 3), truncated,
                               n_layers=2, heads=2)
        np.testing.assert_allclose(masked_out.data, trunc_out.data, atol=1e-12)

    def test_unavailable_frames_do_not_reach_the_center(self):
        window = 5
        store = binding_store(d_slot=8, k_slots=3, window=window, seed=29)
        rng = np.random.default_rng(30)
        slots = self._slots(rng, window)
        avail = np.array([True, False, True, True, False])
        base = self._bind(slots, avail, store, n_layers=2, heads=2)
        for t in np.flatnonzero(~avail):
            moved = list(slots)
            moved[t] = Tensor(1e3 * rng.normal(size=slots[t].shape))
            out = self._bind(moved, avail, store, n_layers=2, heads=2)
            assert np.array_equal(out.data, base.data)
        moved = list(slots)
        moved[0] = Tensor(slots[0].data + 1.0)  # an available frame does
        assert not np.array_equal(
            self._bind(moved, avail, store, n_layers=2, heads=2).data, base.data)

    def test_center_must_be_available(self):
        store = binding_store(d_slot=8, k_slots=3, window=3, seed=31)
        slots = self._slots(np.random.default_rng(32), 3)
        with pytest.raises(ValueError):
            self._bind(slots, np.array([True, False, True]), store,
                       n_layers=1, heads=2)

    def test_cross_slot_isolation(self):
        window, k, d = 3, 4, 8
        store = binding_store(d_slot=d, k_slots=k, window=window, seed=33)
        rng = np.random.default_rng(34)
        base = [rng.normal(size=(k, d)) for _ in range(window)]
        out_a = self._bind([Tensor(x) for x in base], np.ones(window, bool),
                           store, n_layers=2, heads=2)
        modified = [x.copy() for x in base]
        modified[1][2] += 5.0  # perturb slot 2 of frame 1
        out_b = self._bind([Tensor(x) for x in modified], np.ones(window, bool),
                           store, n_layers=2, heads=2)
        keep = [j for j in range(k) if j != 2]
        assert np.array_equal(out_a.data[keep], out_b.data[keep])
        assert not np.array_equal(out_a.data[2], out_b.data[2])

    def test_transformer_layer_gradients(self):
        window, k, d = 3, 2, 8
        store = binding_store(d_slot=d, k_slots=k, window=window,
                              n_layers=1, seed=35)
        base = self._slots(np.random.default_rng(36), window, k, d,
                           requires_grad=True)

        def run():
            tape = Tape()
            with tape:
                out = self._bind(base, np.ones(window, bool), store,
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


@pytest.mark.parametrize("precision", ["f32", "f64"])
class TestBatchedCalls:
    """A call over stacked frames or windows gives bitwise what one call
    per frame or window gives."""

    @pytest.mark.parametrize("invariant", [True, False], ids=["invariant", "plain"])
    def test_spatial_bind_stacked_frames(self, precision, invariant, monkeypatch):
        frames, rows, cols, d = 5, 4, 5, 8
        store = binding_store(d_slot=d, k_slots=4, seed=50, precision=precision)
        rng = np.random.default_rng(51)
        grid = build_position_grid(rows, cols)
        kept = np.stack([np.sort(rng.permutation(rows * cols)[:12])
                         for _ in range(frames)])
        assert len({tuple(k) for k in kept}) == frames  # distinct kept grids
        tokens = rng.normal(size=(frames, 12, d)).astype(store.dtype)
        moments = record_isa_moments(monkeypatch)
        attention = record_attention(monkeypatch)
        z, geometry = spatial_bind(Tensor(tokens), grid[kept], store,
                                   delta=5.0, invariant=invariant, n_iters=3, init_z=None)
        a = attention[-1]
        if invariant:
            scale, position = final_moments(moments, store)
        assert z.shape == (frames, 4, d) and a.shape == (frames, 4, 12)
        assert geometry.mass.shape == (frames, 4)
        assert geometry.position.shape == geometry.var.shape == (frames, 4, 2)
        assert z.data.dtype == geometry.position.dtype == store.dtype
        for f in range(frames):
            z_f, geometry_f = spatial_bind(
                Tensor(tokens[f]), grid[kept[f]], store, delta=5.0,
                invariant=invariant, n_iters=3, init_z=None)
            assert np.array_equal(z.data[f], z_f.data)
            assert np.array_equal(a[f], attention[-1])
            for field in ("mass", "position", "var"):
                assert np.array_equal(getattr(geometry[f], field),
                                      getattr(geometry_f, field)), field
            if invariant:
                scale_f, position_f = final_moments(moments, store)
                assert np.array_equal(position.data[f], position_f.data)
                assert np.array_equal(scale.data[f], scale_f.data)

    def test_temporal_bind_stacked_windows(self, precision):
        windows, window, k, d = 6, 5, 3, 8
        store = binding_store(d_slot=d, k_slots=k, window=window, seed=52,
                              precision=precision)
        rng = np.random.default_rng(53)
        x = rng.normal(size=(windows, k, window, d)).astype(store.dtype)
        # masked leading and trailing edges, as at the ends of a video
        avail = np.ones((windows, window), bool)
        avail[0, :2] = avail[1, :1] = avail[-1, 3:] = avail[-2, 4:] = False
        x[~avail[:, None, :].repeat(k, axis=1)] = 0.0
        out = temporal_bind(Tensor(x), avail, store, n_layers=2, heads=2)
        assert out.shape == (windows, k, d) and out.data.dtype == store.dtype
        for w in range(windows):
            one = temporal_bind(Tensor(x[w]), avail[w], store, n_layers=2, heads=2)
            assert np.array_equal(out.data[w], one.data)
