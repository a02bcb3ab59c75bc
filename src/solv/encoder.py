"""Per-frame token handling: position grid, random token drop, projection.

The drop plan removes floor(r*N) tokens per frame, independently across
frames; kept features and kept grid rows are plain row selections of the
full-frame arrays. Projection maps oracle features to the slot width with
a two-layer MLP followed by layer normalization.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import ConfigError, Tensor


def make_drop_plan(n_frames: int, n_tokens: int, ratio: float, seed: int) -> np.ndarray:
    """Uniform sample without replacement, one independent draw per frame:
    row f of the (n_frames, N') int64 result holds frame f's kept token
    indices, sorted."""
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"drop ratio must be in [0, 1), got {ratio}")
    n_drop = int(np.floor(ratio * n_tokens))
    n_keep = n_tokens - n_drop
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD809]))
    kept = np.empty((n_frames, n_keep), np.int64)
    for f in range(n_frames):
        kept[f] = rng.permutation(n_tokens)[:n_keep]
        kept[f].sort()
    return kept


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


def project_features(raw: Tensor, params) -> Tensor:
    """Two linear layers with ReLU between, then layer normalization."""
    h = dc.mlp(raw, [(params["enc.proj.w1"], params["enc.proj.b1"]),
                     (params["enc.proj.w2"], params["enc.proj.b2"])])
    return dc.layernorm(h, params["enc.proj.ln_g"], params["enc.proj.ln_b"])


def encode_frame(features: np.ndarray, grid: np.ndarray, kept: np.ndarray,
                 params) -> tuple[Tensor, np.ndarray]:
    """Gather each frame's kept tokens and project them to slot width.

    ``features`` is (..., N, D_in) and ``kept`` (..., N') holds each
    frame's kept token indices; leading axes index frames, which are
    projected independently in one call. Returns the (..., N', D_slot)
    projected tokens and the (..., N', 2) kept grid, absolute positions
    in [-1, 1]^2.
    """
    kept = np.asarray(kept)
    raw = np.take_along_axis(np.asarray(features), kept[..., None], axis=-2)
    return project_features(Tensor(raw.astype(params.dtype, copy=False)), params), grid[kept]
