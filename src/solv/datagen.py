"""Procedural sprite videos with a per-patch feature oracle.

Stands in for a frozen pretrained feature extractor: every generated patch
carries the unit embedding of the object identity that owns the majority
of its pixels, plus seeded Gaussian noise. Also provides the binary file
formats for precomputed features (SOLVTNSR) and label masks (SOLVMASK).

Everything is a pure function of (spec, seed), each frame on its own.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .diffcore import BinaryReader, FormatError, atomic_write, write_f32_array

SHAPES = ("square", "circle", "triangle")

_TNSR_MAGIC = b"SOLVTNSR"
_MASK_MAGIC = b"SOLVMASK"
_FILE_VERSION = 1


@dataclass(frozen=True)
class Sprite:
    """One moving object. It moves at a constant integer velocity and
    reflects off the canvas edges, so its rasterized region translates
    exactly between frames; ``x``, ``y`` are where it starts."""
    shape: str
    size: int
    vx: int
    vy: int
    identity: int
    x: int | None = None  # top-left; sampled from the scene seed when None
    y: int | None = None


@dataclass(frozen=True)
class SceneSpec:
    canvas_h: int
    canvas_w: int
    patch: int
    frames: int
    sprites: tuple[Sprite, ...]
    seed: int = 0

    def __post_init__(self):
        if self.canvas_h % self.patch or self.canvas_w % self.patch:
            raise ValueError(
                f"canvas {self.canvas_h}x{self.canvas_w} not divisible by patch {self.patch}"
            )
        ids = [s.identity for s in self.sprites]
        if len(ids) != len(set(ids)):
            raise ValueError("sprite identity indices must be unique per scene")
        for s in self.sprites:
            if s.shape not in SHAPES:
                raise ValueError(f"unknown sprite shape {s.shape!r}")
            if s.size > min(self.canvas_h, self.canvas_w):
                raise ValueError(f"sprite size {s.size} exceeds canvas")


@dataclass
class ClipBatch:
    """Rendered clip: full (pre-drop) per-patch features and ground truth."""
    features: np.ndarray         # frames x N x D, float64
    gt_pixel_labels: np.ndarray  # frames x H x W, uint16


def _shape_mask(shape: str, size: int) -> np.ndarray:
    rr, cc = np.mgrid[0:size, 0:size]
    if shape == "square":
        return np.ones((size, size), dtype=bool)
    if shape == "circle":
        c = (size - 1) / 2.0
        return (rr - c) ** 2 + (cc - c) ** 2 <= c ** 2 + 1e-9
    # upward triangle: width grows linearly from apex row 0 to the base
    c = (size - 1) / 2.0
    return np.abs(cc - c) <= rr / 2.0 + 1e-9


def _reflect(u: int, hi: int) -> int:
    """Where a point at ``u`` on an unbounded line lies on [0, hi] when it
    reflects off both ends: a triangle wave of period ``2 * hi``, and 0
    when ``hi`` is 0, as a sprite that fills the axis cannot move."""
    return hi - abs(hi - u % (2 * hi)) if hi else 0


def patch_labels_from_pixels(pixel_labels: np.ndarray, patch: int) -> np.ndarray:
    """Majority pixel owner per patch, ties resolved to the lowest identity."""
    h, w = pixel_labels.shape
    rows, cols = h // patch, w // patch
    tiles = pixel_labels.reshape(rows, patch, cols, patch).transpose(0, 2, 1, 3)
    tiles = tiles.reshape(rows * cols, patch * patch)
    # one count per (tile, label) cell; argmax takes the first maximum
    n_labels = int(pixel_labels.max()) + 1
    cells = np.arange(rows * cols)[:, None] * n_labels + tiles
    counts = np.bincount(cells.ravel(), minlength=rows * cols * n_labels)
    return counts.reshape(rows * cols, n_labels).argmax(axis=1).astype(np.uint16)


class FeatureOracle:
    """Fixed identity embeddings plus per-(clip, frame) seeded noise.

    Embeddings are rows of an orthonormal basis drawn from ``embed_seed``,
    so distinct identities are exactly orthogonal unit vectors.
    """

    def __init__(self, embed_seed: int, n_identities: int, d: int, sigma: float):
        if d < n_identities + 2:
            raise ValueError(f"feature dim {d} must be >= identities + 2 = {n_identities + 2}")
        self.sigma = float(sigma)
        self.d = d
        rng = np.random.default_rng(np.random.SeedSequence([embed_seed, 0x51DE]))
        a = rng.standard_normal((d, n_identities))
        q, _ = np.linalg.qr(a)
        self.embeddings = np.ascontiguousarray(q.T)  # n_identities x d, orthonormal rows

    def frame_features(self, patch_labels: np.ndarray, clip_seed: int, frame: int) -> np.ndarray:
        feats = self.embeddings[patch_labels]  # fancy indexing copies
        if self.sigma > 0:
            rng = np.random.default_rng(np.random.SeedSequence([clip_seed, frame, 0x0153]))
            feats += self.sigma * rng.standard_normal(feats.shape)
        return feats


def render_clip(spec: SceneSpec, oracle: FeatureOracle) -> ClipBatch:
    """Rasterize the scene and attach oracle features for every frame.

    Each sprite's top-left corner at frame t is computed from its start:
    ``start + velocity * t``, reflected into the canvas on each axis."""
    h, w, p = spec.canvas_h, spec.canvas_w, spec.patch
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xC11F]))
    placed = []
    for s in spec.sprites:
        x_hi, y_hi = w - s.size, h - s.size
        x = s.x if s.x is not None else int(rng.integers(0, x_hi + 1))
        y = s.y if s.y is not None else int(rng.integers(0, y_hi + 1))
        if not (0 <= x <= x_hi and 0 <= y <= y_hi):
            raise ValueError(f"sprite at ({x},{y}) size {s.size} leaves the canvas")
        placed.append((s, x, y, _shape_mask(s.shape, s.size)))

    pixel = np.zeros((spec.frames, h, w), dtype=np.uint16)
    feats = np.empty((spec.frames, (h // p) * (w // p), oracle.d), dtype=np.float64)
    for t in range(spec.frames):
        for s, x0, y0, mask in placed:
            x, y = _reflect(x0 + s.vx * t, w - s.size), _reflect(y0 + s.vy * t, h - s.size)
            pixel[t, y:y + s.size, x:x + s.size][mask] = s.identity
        feats[t] = oracle.frame_features(patch_labels_from_pixels(pixel[t], p), spec.seed, t)
    return ClipBatch(feats, pixel)


def _scene_from_rng(rng: np.random.Generator, canvas: tuple[int, int], patch: int,
                    frames: int, sprite_range: tuple[int, int]) -> SceneSpec:
    h, w = canvas
    n_sprites = int(rng.integers(sprite_range[0], sprite_range[1] + 1))
    lo_size = 2 * patch
    hi_size = max(lo_size, min(5 * patch, min(h, w) // 2))
    sprites = []
    for j in range(n_sprites):
        size = int(rng.integers(lo_size, hi_size + 1))
        sprites.append(Sprite(
            shape=SHAPES[int(rng.integers(0, len(SHAPES)))],
            size=size,
            vx=int(rng.integers(-3, 4)),
            vy=int(rng.integers(-3, 4)),
            identity=j + 1,
        ))
    return SceneSpec(
        canvas_h=h, canvas_w=w, patch=patch, frames=frames,
        sprites=tuple(sprites), seed=int(rng.integers(0, 2 ** 62)),
    )


def random_scene(seed: int, canvas: tuple[int, int], patch: int, frames: int,
                 sprite_range: tuple[int, int]) -> SceneSpec:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C1]))
    return _scene_from_rng(rng, canvas, patch, frames, sprite_range)


def dataset_split(seed: int, count: int, canvas: tuple[int, int] = (128, 128),
                  patch: int = 8, frames: int = 5,
                  sprite_range: tuple[int, int] = (1, 4)) -> tuple[list[SceneSpec], list[SceneSpec]]:
    """Deterministic 90/10 train/val scene lists, disjoint by construction.

    Sprite count, shape, size and velocity vary per scene; velocity 0 is
    included so some objects are static.
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5871]))
    specs = [_scene_from_rng(rng, canvas, patch, frames, sprite_range)
             for _ in range(count)]
    n_train = int(np.floor(0.9 * count))
    return specs[:n_train], specs[n_train:]


# ---------------------------------------------------------------------------
# Binary formats
# ---------------------------------------------------------------------------

def write_features(path: str, features: np.ndarray) -> None:
    arr = np.asarray(features)
    if arr.ndim != 3:
        raise ValueError(f"features must be rank 3 (frames x tokens x dim), got {arr.shape}")
    with atomic_write(path) as f:
        f.write(_TNSR_MAGIC)
        f.write(struct.pack("<I", _FILE_VERSION))
        write_f32_array(f, arr)


def read_features(path: str) -> np.ndarray:
    with BinaryReader(path, _TNSR_MAGIC, _FILE_VERSION) as r:
        arr = r.array(r.f32_dims("tensor"), "<f4", "payload of tensor")
        r.done("payload")
    if arr.ndim != 3:
        raise FormatError(f"{path}: feature tensor must be rank 3, got rank {arr.ndim}")
    return arr


def write_masks(path: str, masks: np.ndarray) -> None:
    arr = np.asarray(masks)
    if arr.ndim != 3:
        raise ValueError(f"masks must be rank 3 (frames x H x W), got {arr.shape}")
    if arr.dtype.kind not in "biu":
        raise ValueError(f"mask labels must be integers, got dtype {arr.dtype}")
    if arr.size and not (arr.min() >= 0 and arr.max() <= 0xFFFF):
        raise ValueError(f"mask labels must lie in [0, 65535], got "
                         f"[{arr.min()}, {arr.max()}]")
    frames, h, w = arr.shape
    with atomic_write(path) as f:
        f.write(_MASK_MAGIC)
        f.write(struct.pack("<I", _FILE_VERSION))
        f.write(struct.pack("<III", frames, h, w))
        f.write(np.ascontiguousarray(arr, dtype="<u2"))


def read_masks(path: str) -> np.ndarray:
    with BinaryReader(path, _MASK_MAGIC, _FILE_VERSION) as r:
        dims = r.unpack("<III", "dims")
        masks = r.array(dims, "<u2", "payload")
        r.done("payload")
    return masks
