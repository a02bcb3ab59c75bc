"""Token drop plans, the position grid, and the feature projection."""

import numpy as np
import pytest

from solv import diffcore as dc, objecthead
from solv.diffcore import ConfigError, ParamStore, Tape, Tensor
from helpers import finite_diff
from solv.encoder import (
    build_position_grid, encode_frame, make_drop_plan, project_features,
    projection_param_shapes,
)


def _projection_store(d_in, d_slot, seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore("f64")
    for name, shape in projection_param_shapes(d_in, d_slot).items():
        if name == "ln_g":
            arr = np.ones(shape)
        elif len(shape) == 1:
            arr = np.zeros(shape)
        else:
            arr = rng.normal(scale=0.2, size=shape)
        store.register("enc.proj." + name, arr)
    return store


class TestDropPlan:
    def test_token_budget_from_half_drop(self):
        kept = make_drop_plan(1, 864, 0.5, seed=0)
        assert kept.shape == (1, 432) and kept.dtype == np.int64

    def test_zero_ratio_is_identity(self):
        kept = make_drop_plan(3, 20, 0.0, seed=1)
        for frame in kept:
            assert np.array_equal(frame, np.arange(20))

    def test_same_seed_identical(self):
        a = make_drop_plan(4, 100, 0.5, seed=9)
        b = make_drop_plan(4, 100, 0.5, seed=9)
        assert np.array_equal(a, b)

    def test_frames_drawn_independently(self):
        kept = make_drop_plan(4, 100, 0.5, seed=2)
        assert any(not np.array_equal(kept[0], f) for f in kept[1:])

    @pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 0.75])
    def test_kept_count_formula_across_sweep(self, ratio):
        n = 100
        kept = make_drop_plan(2, n, ratio, seed=3)
        expected = n - int(np.floor(ratio * n))
        for frame in kept:
            assert len(frame) == expected
            assert np.all(np.diff(frame) > 0)  # sorted unique

    def test_ratio_out_of_range(self):
        with pytest.raises(ConfigError):
            make_drop_plan(1, 10, 1.0, seed=0)
        with pytest.raises(ConfigError):
            make_drop_plan(1, 10, -0.1, seed=0)


class TestPositionGrid:
    def test_single_cell_is_origin(self):
        np.testing.assert_array_equal(build_position_grid(1, 1), [[0.0, 0.0]])

    def test_two_by_two_corners(self):
        grid = build_position_grid(2, 2)
        np.testing.assert_allclose(
            grid, [[-1, -1], [1, -1], [-1, 1], [1, 1]])

    def test_three_by_three_center(self):
        grid = build_position_grid(3, 3)
        np.testing.assert_allclose(grid[4], [0.0, 0.0])

    def test_range_and_row_major_order(self):
        grid = build_position_grid(4, 6)
        assert grid.min() == -1.0 and grid.max() == 1.0
        # x varies fastest along a row
        np.testing.assert_allclose(grid[:6, 1], grid[0, 1])
        assert (np.diff(grid[:6, 0]) > 0).all()

    def test_kept_grid_is_row_selection(self):
        grid = build_position_grid(4, 4)
        kept = make_drop_plan(1, 16, 0.5, seed=5)[0]
        store = _projection_store(8, 6)
        _, kept_grid = encode_frame(np.random.default_rng(0).normal(size=(16, 8)),
                                    grid, kept, store)
        assert np.array_equal(kept_grid, grid[kept])

    def test_full_frames_equal_keeping_every_index(self):
        """A plan that keeps every index, broadcast as inference passes it,
        gives bitwise the projection of the frames as they are and the grid
        at every frame."""
        grid = build_position_grid(4, 4)
        store = _projection_store(8, 6)
        features = np.random.default_rng(1).normal(size=(3, 16, 8))
        every_token = np.broadcast_to(np.arange(16), (3, 16))
        tokens, kept_grid = encode_frame(features, grid, every_token, store)
        assert np.array_equal(tokens.data, project_features(Tensor(features), store).data)
        assert np.array_equal(kept_grid, np.broadcast_to(grid, (3, 16, 2)))


class TestProjection:
    def test_zero_params_give_zeros(self):
        store = ParamStore("f64")
        for name, shape in projection_param_shapes(5, 4).items():
            init = np.ones(shape) if name == "ln_g" else np.zeros(shape)
            store.register("enc.proj." + name, init)
        out = project_features(Tensor(np.random.default_rng(1).normal(size=(7, 5))), store)
        np.testing.assert_allclose(out.data, 0.0)

    def test_output_width_is_slot_dimension(self):
        from solv.config import RunConfig
        from solv.model import init_params
        cfg = RunConfig().validate()
        store = init_params(cfg)
        x = Tensor(np.random.default_rng(2).normal(size=(10, cfg.data.d_features)))
        out = project_features(x, store)
        assert out.shape == (10, 128)

    def test_gradients_match_finite_differences(self):
        store = _projection_store(5, 4, seed=3)
        x = Tensor(np.random.default_rng(4).normal(size=(6, 5)), requires_grad=True)

        def run():
            tape = Tape()
            with tape:
                out = project_features(x, store)
                loss = dc.reduce_mean(dc.mul(out, out))
            return loss, tape

        loss, tape = run()
        tape.backward(loss)
        params = list(store.params.values())
        worst = finite_diff(lambda: float(run()[0].data), [x] + params, max_coords=8)
        assert worst <= 1e-4


class TestAllocationScaling:
    def test_live_values_affine_in_kept_tokens(self):
        # forward-pass allocation must grow linearly with the kept-token
        # count; three equally spaced points have equal differences
        from solv.config import DataConfig, ModelConfig, RunConfig
        from solv.model import Pipeline, init_params
        from solv import datagen

        cfg = RunConfig(
            model=ModelConfig(k_slots=3, d_slot=16, decoder_hidden=32,
                              transformer_heads=4),
            data=DataConfig(canvas_h=64, canvas_w=64, patch=8, d_features=8,
                            sprite_max=2, clip_count=4, seed=5, frames=3),
        ).validate()
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features, 0.0)
        spec = datagen.random_scene(1, (64, 64), 8, 3, (1, 2))
        clip = datagen.render_clip(spec, oracle)
        pipe = Pipeline(cfg, init_params(cfg))

        counts = []
        for ratio in (0.0, 0.25, 0.5):
            kept = make_drop_plan(d.frames, d.n_tokens, ratio, seed=1)
            tape = Tape()
            with tape:
                out = pipe.forward_window(clip.features, kept, apply_merge=False)
                objecthead.reconstruction_loss(out.decoded.y,
                                               clip.features[d.frames // 2])
            counts.append(tape.live_elements)
        n64 = 64  # tokens at each ratio: 64, 48, 32
        d1 = counts[0] - counts[1]
        d2 = counts[1] - counts[2]
        assert d1 == d2  # equal spacing in N' gives equal allocation deltas
        assert counts[0] > counts[1] > counts[2]
