"""Scene rendering, the feature oracle, file formats, and dataset splits."""

from pathlib import Path

import numpy as np
import pytest

from solv import datagen
from solv.datagen import (
    FeatureOracle, SceneSpec, Sprite, dataset_split, patch_labels_from_pixels,
    read_features, read_masks, read_tensor, render_clip, write_features,
    write_masks, write_tensor,
)
from solv.diffcore import FormatError


def _oracle(d=16, n_id=5, sigma=0.05, seed=11):
    return FeatureOracle(seed, n_id, d, sigma)


class TestRendering:
    def test_zero_sprites_all_background(self):
        spec = SceneSpec(32, 32, 8, 3, sprites=(), seed=1)
        clip = render_clip(spec, _oracle(sigma=0.0))
        assert (clip.gt_pixel_labels == 0).all()
        assert (clip.gt_patch_labels == 0).all()
        # every patch feature equals the background embedding
        bg = _oracle(sigma=0.0).embeddings[0]
        np.testing.assert_allclose(
            clip.features, np.broadcast_to(bg, clip.features.shape))

    def test_static_grid_aligned_square_owns_exactly_four_patches(self):
        sprite = Sprite("square", 16, 0, 0, identity=1, x=8, y=8)
        spec = SceneSpec(32, 32, 8, 4, sprites=(sprite,), seed=2)
        clip = render_clip(spec, _oracle())
        for t in range(4):
            labels = clip.gt_patch_labels[t].reshape(4, 4)
            assert (labels[1:3, 1:3] == 1).all()
            assert labels.sum() == 4  # nothing else owned

    def test_identical_seed_bit_identical(self):
        spec = SceneSpec(32, 32, 8, 5, sprites=(
            Sprite("circle", 16, 2, -1, identity=1),
            Sprite("triangle", 18, -3, 2, identity=2),
        ), seed=33)
        a = render_clip(spec, _oracle())
        b = render_clip(spec, _oracle())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.gt_pixel_labels, b.gt_pixel_labels)
        assert np.array_equal(a.gt_patch_labels, b.gt_patch_labels)

    def test_occlusion_later_sprite_wins(self):
        spec = SceneSpec(32, 32, 8, 1, sprites=(
            Sprite("square", 16, 0, 0, identity=1, x=0, y=0),
            Sprite("square", 16, 0, 0, identity=2, x=8, y=8),
        ), seed=3)
        clip = render_clip(spec, _oracle())
        assert clip.gt_pixel_labels[0, 12, 12] == 2
        assert clip.gt_pixel_labels[0, 4, 4] == 1

    def test_oversized_sprite_rejected(self):
        with pytest.raises(ValueError, match="exceeds canvas"):
            SceneSpec(32, 32, 8, 1, sprites=(Sprite("square", 40, 0, 0, 1),), seed=1)

    def test_duplicate_identities_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SceneSpec(32, 32, 8, 1, sprites=(
                Sprite("square", 8, 0, 0, 1), Sprite("circle", 8, 0, 0, 1)), seed=1)

    def test_majority_rule_exhaustive_on_small_canvas(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pixels = rng.integers(0, 4, size=(16, 16)).astype(np.uint16)
            got = patch_labels_from_pixels(pixels, 4)
            for pr in range(4):
                for pc in range(4):
                    tile = pixels[pr * 4:(pr + 1) * 4, pc * 4:(pc + 1) * 4]
                    counts = np.bincount(tile.ravel())
                    best = counts.max()
                    winners = np.flatnonzero(counts == best)
                    assert got[pr * 4 + pc] == winners.min()

    def test_temporal_translation_up_to_reflection(self):
        sprite = Sprite("circle", 12, 3, 2, identity=1, x=4, y=6)
        spec = SceneSpec(64, 64, 8, 6, sprites=(sprite,), seed=5)
        clip = render_clip(spec, _oracle())
        for t in range(5):
            cur = clip.gt_pixel_labels[t] == 1
            nxt = clip.gt_pixel_labels[t + 1] == 1
            shifted = np.roll(np.roll(cur, 2, axis=0), 3, axis=1)
            # interior motion (no reflection) must be an exact translation
            ys, xs = np.nonzero(cur)
            if ys.min() + 2 >= 0 and ys.max() + 2 < 64 and xs.min() + 3 >= 0 and xs.max() + 3 < 64:
                assert np.array_equal(shifted, nxt)


class TestFeatureOracle:
    def test_noise_free_features_equal_per_identity(self):
        oracle = _oracle(sigma=0.0)
        labels = np.array([0, 1, 1, 2, 0], dtype=np.uint16)
        f = oracle.frame_features(labels, clip_seed=1, frame=0)
        assert np.array_equal(f[1], f[2])
        assert np.array_equal(f[0], f[4])
        assert not np.array_equal(f[0], f[1])

    def test_cross_identity_cosine_bound(self):
        oracle = _oracle(d=16, n_id=6, sigma=0.0)
        e = oracle.embeddings
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-12)
        gram = e @ e.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 0.2

    def test_within_identity_similarity_beats_cross(self):
        oracle = _oracle(d=16, n_id=4, sigma=0.05)
        within, cross = [], []
        for clip_seed in range(100):
            labels = np.array([1, 1, 2, 3], dtype=np.uint16)
            f = oracle.frame_features(labels, clip_seed, frame=0)
            f = f / np.linalg.norm(f, axis=1, keepdims=True)
            within.append(f[0] @ f[1])
            cross.append(f[0] @ f[2])
            cross.append(f[2] @ f[3])
        assert np.mean(within) > np.mean(cross)

    def test_dimension_precondition(self):
        with pytest.raises(ValueError, match="identities"):
            FeatureOracle(1, n_identities=10, d=8)


class TestFileFormats:
    def test_tensor_roundtrip_random_shapes(self, tmp_path):
        rng = np.random.default_rng(13)
        for shape in [(3,), (2, 5), (4, 3, 2), (1, 1, 7, 2)]:
            arr = rng.normal(size=shape).astype(np.float32)
            path = str(tmp_path / "t.bin")
            write_tensor(path, arr)
            back = read_tensor(path)
            assert np.array_equal(arr, back)

    def test_features_roundtrip_bit_exact(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(4, 6, 8)).astype(np.float32)
        path = str(tmp_path / "f.features")
        write_features(path, arr)
        assert np.array_equal(read_features(path), arr)

    def test_empty_file_is_format_error(self, tmp_path):
        path = tmp_path / "empty.features"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="byte 0"):
            read_features(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_features(str(path))

    def test_truncated_payload_names_offset(self, tmp_path):
        arr = np.zeros((10, 4, 4), dtype=np.float32)
        path = str(tmp_path / "f.features")
        write_features(path, arr)
        blob = Path(path).read_bytes()
        # keep the header declaring 10 frames but drop one frame of payload
        Path(path).write_bytes(blob[:-4 * 4 * 4])
        with pytest.raises(FormatError, match="byte"):
            read_features(str(path))

    def test_features_rank_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="rank 3"):
            write_features(str(tmp_path / "x"), np.zeros((3, 3)))

    def test_mask_roundtrip_and_truncation(self, tmp_path):
        arr = np.random.default_rng(2).integers(0, 9, size=(3, 8, 8)).astype(np.uint16)
        path = str(tmp_path / "m.mask")
        write_masks(path, arr)
        assert np.array_equal(read_masks(path), arr)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-3])
        with pytest.raises(FormatError, match="byte"):
            read_masks(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        arr = np.zeros((1, 4, 4), dtype=np.uint16)
        path = str(tmp_path / "m.mask")
        write_masks(path, arr)
        with open(path, "ab") as f:
            f.write(b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_masks(path)


class TestDatasetSplit:
    def test_same_seed_identical(self):
        a = dataset_split(9, 50)
        b = dataset_split(9, 50)
        assert a == b

    def test_disjoint_and_sized(self):
        train, val = dataset_split(4, 100)
        assert len(train) == 90 and len(val) == 10
        seeds = {s.seed for s in train} | {s.seed for s in val}
        assert len(seeds) == 100  # no shared scenes

    def test_sprite_variety(self):
        train, val = dataset_split(21, 200)
        specs = train + val
        counts = {len(s.sprites) for s in specs}
        assert counts == {1, 2, 3, 4}
        velocities = {(sp.vx, sp.vy) for s in specs for sp in s.sprites}
        assert (0, 0) in velocities  # static objects included
        shapes = {sp.shape for s in specs for sp in s.sprites}
        assert shapes == {"square", "circle", "triangle"}

    def test_count_minimum(self):
        with pytest.raises(ValueError):
            dataset_split(1, 1)

    def test_default_config_yields_512_training_clips(self):
        from solv.config import RunConfig
        cfg = RunConfig()
        train, val = dataset_split(cfg.data.seed, cfg.data.clip_count)
        assert len(train) == 512
        assert len(val) >= 32
