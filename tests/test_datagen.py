"""Scene rendering, the feature oracle, file formats, and dataset splits."""

import os
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from solv import datagen
from solv.datagen import (
    SHAPES, FeatureOracle, SceneSpec, Sprite, dataset_split, patch_labels_from_pixels,
    read_features, read_masks, render_clip, write_features, write_masks,
)
from solv.diffcore import FormatError, write_f32_array


def _oracle(d=16, n_id=5, sigma=0.05, seed=11):
    return FeatureOracle(seed, n_id, d, sigma)


def patch_labels_loop(pixel_labels, patch):
    """Majority owner per patch, one ``np.bincount`` per tile: ties go to
    the lowest label, the first maximum ``argmax`` finds."""
    h, w = pixel_labels.shape
    out = []
    for r in range(0, h, patch):
        for c in range(0, w, patch):
            out.append(np.bincount(pixel_labels[r:r + patch, c:c + patch].ravel()).argmax())
    return np.array(out, dtype=np.uint16)


def _reflect_step(pos, vel, lo, hi):
    """Advance one integer step with reflective bounds [lo, hi]."""
    if hi <= lo:  # sprite fills the axis; it cannot move
        return lo, -vel
    pos += vel
    while pos < lo or pos > hi:
        if pos < lo:
            pos = 2 * lo - pos
            vel = -vel
        elif pos > hi:
            pos = 2 * hi - pos
            vel = -vel
    return pos, vel


def render_clip_stepping(spec, oracle):
    """``render_clip`` as a simulation: each sprite's position and
    velocity are stepped one frame at a time by ``_reflect_step``."""
    h, w, p = spec.canvas_h, spec.canvas_w, spec.patch
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xC11F]))
    states = []
    for s in spec.sprites:
        x = s.x if s.x is not None else int(rng.integers(0, w - s.size + 1))
        y = s.y if s.y is not None else int(rng.integers(0, h - s.size + 1))
        states.append([x, y, s.vx, s.vy, datagen._shape_mask(s.shape, s.size),
                       s.identity, s.size])
    pixel = np.empty((spec.frames, h, w), dtype=np.uint16)
    feats = np.empty((spec.frames, (h // p) * (w // p), oracle.d), dtype=np.float64)
    for t in range(spec.frames):
        frame = np.zeros((h, w), dtype=np.uint16)
        for x, y, _, _, mask, ident, size in states:
            frame[y:y + size, x:x + size][mask] = ident
        pixel[t] = frame
        feats[t] = oracle.frame_features(patch_labels_from_pixels(frame, p), spec.seed, t)
        for st in states:
            st[0], st[2] = _reflect_step(st[0], st[2], 0, w - st[6])
            st[1], st[3] = _reflect_step(st[1], st[3], 0, h - st[6])
    return datagen.ClipBatch(feats, pixel)


class TestRendering:
    def test_zero_sprites_all_background(self):
        spec = SceneSpec(32, 32, 8, 3, sprites=(), seed=1)
        clip = render_clip(spec, _oracle(sigma=0.0))
        assert (clip.gt_pixel_labels == 0).all()
        # every patch feature equals the background embedding
        bg = _oracle(sigma=0.0).embeddings[0]
        np.testing.assert_allclose(
            clip.features, np.broadcast_to(bg, clip.features.shape))

    def test_static_grid_aligned_square_owns_exactly_four_patches(self):
        sprite = Sprite("square", 16, 0, 0, identity=1, x=8, y=8)
        spec = SceneSpec(32, 32, 8, 4, sprites=(sprite,), seed=2)
        clip = render_clip(spec, _oracle())
        for t in range(4):
            labels = patch_labels_from_pixels(clip.gt_pixel_labels[t], 8).reshape(4, 4)
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

    def test_occlusion_later_sprite_wins(self):
        spec = SceneSpec(32, 32, 8, 1, sprites=(
            Sprite("square", 16, 0, 0, identity=1, x=0, y=0),
            Sprite("square", 16, 0, 0, identity=2, x=8, y=8),
        ), seed=3)
        clip = render_clip(spec, _oracle())
        assert clip.gt_pixel_labels[0, 12, 12] == 2
        assert clip.gt_pixel_labels[0, 4, 4] == 1

    def test_sprite_spanning_the_canvas_height_keeps_its_row(self):
        """A sprite as tall as the canvas has one row to be at: it stays at
        row 0 whatever its vertical velocity, while it still moves and
        reflects across the width."""
        sprite = Sprite("square", 16, 5, 3, identity=1, x=2, y=0)
        spec = SceneSpec(16, 32, 8, 6, sprites=(sprite,), seed=4)
        clip = render_clip(spec, _oracle())
        for frame, x in zip(clip.gt_pixel_labels, [2, 7, 12, 15, 10, 5]):
            want = np.zeros((16, 32), np.uint16)
            want[:, x:x + 16] = 1
            np.testing.assert_array_equal(frame, want)

    def test_motion_equals_the_stepping_rule(self):
        """Positions computed from the start equal stepping frame by frame,
        on random scenes with velocities past twice the free span (several
        reflections in one step), still sprites, sprites that fill an axis,
        and start positions both given and drawn."""
        rng = np.random.default_rng(10)
        oracle = _oracle()
        cases = set()
        for seed in range(200):
            patch = int(rng.choice([4, 8]))
            h, w = (int(n) * patch for n in rng.integers(2, 7, size=2))
            sprites = []
            for identity in range(1, int(rng.integers(0, 5)) + 1):
                fill = rng.random() < 0.2
                size = min(h, w) if fill else int(rng.integers(1, min(h, w) + 1))
                vx, vy = (0 if rng.random() < 0.2 else int(v)
                          for v in rng.integers(-3 * max(h, w), 3 * max(h, w) + 1, size=2))
                given = rng.random() < 0.5
                x = int(rng.integers(0, w - size + 1)) if given else None
                y = int(rng.integers(0, h - size + 1)) if given else None
                sprites.append(Sprite(SHAPES[identity % 3], size, vx, vy, identity, x, y))
                cases |= {"fill"} if fill else set()
                cases |= {"given" if given else "drawn"}
                cases |= {"still"} if vx == 0 or vy == 0 else set()
                if abs(vx) > 2 * (w - size) > 0 or abs(vy) > 2 * (h - size) > 0:
                    cases.add("several reflections")
            spec = SceneSpec(h, w, patch, 12, sprites=tuple(sprites), seed=seed)
            got, want = render_clip(spec, oracle), render_clip_stepping(spec, oracle)
            np.testing.assert_array_equal(got.gt_pixel_labels, want.gt_pixel_labels)
            assert got.features.tobytes() == want.features.tobytes()
        assert cases == {"fill", "given", "drawn", "still", "several reflections"}

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

    def test_patch_labels_equal_the_per_tile_loop(self):
        """Random label maps with few labels, so ties are common, on
        rectangular grids, and every frame of rendered clips."""
        rng = np.random.default_rng(8)
        for i in range(60):
            patch = int(rng.integers(1, 6))
            rows, cols = rng.integers(1, 7, size=2)
            pixels = rng.integers(0, 1 + i % 5, size=(rows * patch, cols * patch))
            pixels = pixels.astype(np.uint16)
            got = patch_labels_from_pixels(pixels, patch)
            assert got.dtype == np.uint16
            np.testing.assert_array_equal(got, patch_labels_loop(pixels, patch))
        for spec in dataset_split(6, 12, (48, 64), 8, 4, (1, 4))[0]:
            for frame in render_clip(spec, _oracle()).gt_pixel_labels:
                np.testing.assert_array_equal(patch_labels_from_pixels(frame, 8),
                                              patch_labels_loop(frame, 8))

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
            FeatureOracle(1, n_identities=10, d=8, sigma=0.05)


class TestFileFormats:
    def test_tensor_roundtrip_random_shapes(self, tmp_path):
        rng = np.random.default_rng(13)
        for shape in [(1, 1, 3), (2, 5, 1), (4, 3, 2), (1, 7, 2)]:
            arr = rng.normal(size=shape).astype(np.float32)
            path = str(tmp_path / "t.features")
            write_features(path, arr)
            back = read_features(path)
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

    def test_feature_file_of_another_rank_is_refused(self, tmp_path):
        path = tmp_path / "r2.features"
        with open(path, "wb") as f:  # a SOLVTNSR file whose tensor is rank 2
            f.write(b"SOLVTNSR" + struct.pack("<I", 1))
            write_f32_array(f, np.ones((2, 3)))
        with pytest.raises(FormatError, match="must be rank 3, got rank 2"):
            read_features(str(path))

    def test_masks_rank_enforced(self, tmp_path):
        path = tmp_path / "m.mask"
        with pytest.raises(ValueError, match=r"masks must be rank 3 .*got \(4, 4\)"):
            write_masks(str(path), np.zeros((4, 4), np.uint16))
        assert not path.exists()

    def test_mask_roundtrip_and_truncation(self, tmp_path):
        arr = np.random.default_rng(2).integers(0, 9, size=(3, 8, 8)).astype(np.uint16)
        path = str(tmp_path / "m.mask")
        write_masks(path, arr)
        assert np.array_equal(read_masks(path), arr)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-3])
        with pytest.raises(FormatError, match="byte"):
            read_masks(path)

    @pytest.mark.parametrize("label", [70000, -1, 65536])
    def test_mask_labels_outside_uint16_rejected(self, tmp_path, label):
        arr = np.zeros((2, 4, 4), dtype=np.int64)
        arr[1, 2, 3] = label
        path = tmp_path / "m.mask"
        with pytest.raises(ValueError, match=str(label)):
            write_masks(str(path), arr)
        assert not path.exists()

    @pytest.mark.parametrize("labels", [[[[1.5, 2.9]]], [[[1.0, 2.0]]], [[["1", "2"]]]],
                             ids=["fractional", "whole floats", "strings"])
    def test_mask_labels_that_are_not_integers_rejected(self, tmp_path, labels):
        arr = np.array(labels)
        path = tmp_path / "m.mask"
        with pytest.raises(ValueError, match=f"dtype {arr.dtype}"):
            write_masks(str(path), arr)
        assert not path.exists()

    def test_integer_and_bool_masks_write_the_same_bytes(self, tmp_path):
        labels = np.random.default_rng(3).integers(0, 2, size=(2, 3, 5))
        blobs = []
        for dtype in (np.uint16, np.int64, np.uint8, bool):
            path = tmp_path / f"{np.dtype(dtype).name}.mask"
            write_masks(str(path), labels.astype(dtype))
            blobs.append(path.read_bytes())
        assert blobs[0].endswith(labels.astype("<u2").tobytes())
        assert all(b == blobs[0] for b in blobs)

    def test_mask_label_range_ends_roundtrip(self, tmp_path):
        arr = np.zeros((2, 4, 4), dtype=np.int64)
        arr[1, 2, 3] = 65535
        path = str(tmp_path / "m.mask")
        write_masks(path, arr)
        assert np.array_equal(read_masks(path), arr)

    def test_trailing_bytes_rejected(self, tmp_path):
        arr = np.zeros((1, 4, 4), dtype=np.uint16)
        path = str(tmp_path / "m.mask")
        write_masks(path, arr)
        with open(path, "ab") as f:
            f.write(b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_masks(path)

    @pytest.mark.parametrize("write, read, data", [
        (write_features, read_features, np.ones((1, 2, 3), np.float32)),
        (write_masks, read_masks, np.ones((2, 4, 4), np.uint16)),
    ], ids=["tensor", "masks"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch,
                                              write, read, data):
        path = str(tmp_path / "out.bin")
        write(path, data)
        blob = Path(path).read_bytes()

        def pack(*args):
            raise OSError("disk full")

        # the magic is written before the version is packed, so this
        # fails part way through the file
        monkeypatch.setattr(datagen, "struct", SimpleNamespace(pack=pack))
        with pytest.raises(OSError, match="disk full"):
            write(path, 2 * data)
        assert Path(path).read_bytes() == blob
        assert np.array_equal(read(path), data)
        assert os.listdir(tmp_path) == ["out.bin"]


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
