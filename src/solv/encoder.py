"""Per-frame token handling: position grid, random token drop, projection.

The drop plan removes floor(r*N) tokens per frame, independently across
frames; kept features and kept grid rows are plain row selections of the
full-frame arrays. Projection maps oracle features to the slot width with
a two-layer MLP followed by layer normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ConfigError, Tensor


@dataclass(frozen=True)
class DropPlan:
    kept_indices: tuple[np.ndarray, ...]  # per frame, sorted unique indices into 0..N-1
    ratio: float
    seed: int

    @property
    def n_kept(self) -> int:
        return len(self.kept_indices[0])


@dataclass
class EncodedFrame:
    tokens: Tensor         # N' x D_slot projected features
    kept_grid: np.ndarray  # N' x 2 absolute positions in [-1, 1]^2
    kept_indices: np.ndarray


def make_drop_plan(n_frames: int, n_tokens: int, ratio: float, seed: int) -> DropPlan:
    """Uniform sample without replacement, one independent draw per frame."""
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"drop ratio must be in [0, 1), got {ratio}")
    n_drop = int(np.floor(ratio * n_tokens))
    n_keep = n_tokens - n_drop
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD809]))
    kept = []
    for _ in range(n_frames):
        idx = rng.permutation(n_tokens)[:n_keep]
        idx.sort()
        kept.append(idx.astype(np.int64))
    return DropPlan(tuple(kept), ratio, seed)


def build_position_grid(rows: int, cols: int) -> np.ndarray:
    """Row-major patch-center grid, x and y spanning [-1, 1] endpoint to
    endpoint; a single row or column degenerates to coordinate 0."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    xs = np.linspace(-1.0, 1.0, cols) if cols > 1 else np.zeros(1)
    ys = np.linspace(-1.0, 1.0, rows) if rows > 1 else np.zeros(1)
    gx, gy = np.meshgrid(xs, ys)  # row-major: x varies fastest
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def projection_param_shapes(d_in: int, d_slot: int) -> dict:
    return {
        "w1": (d_in, d_slot), "b1": (d_slot,),
        "w2": (d_slot, d_slot), "b2": (d_slot,),
        "ln_g": (d_slot,), "ln_b": (d_slot,),
    }


def project_features(raw: Tensor, params, prefix: str = "enc.proj.") -> Tensor:
    """Two linear layers with ReLU between, then layer normalization."""
    h = dc.relu(dc.linear(raw, params[prefix + "w1"], params[prefix + "b1"]))
    h = dc.linear(h, params[prefix + "w2"], params[prefix + "b2"])
    return dc.layernorm(h, params[prefix + "ln_g"], params[prefix + "ln_b"])


def encode_frame(features: np.ndarray, grid: np.ndarray, kept: np.ndarray,
                 params, prefix: str = "enc.proj.") -> EncodedFrame:
    """Gather kept tokens of one frame and project them to slot width."""
    raw = Tensor(np.asarray(features[kept], params.dtype))
    tokens = project_features(raw, params, prefix)
    return EncodedFrame(tokens=tokens, kept_grid=grid[kept], kept_indices=kept)
