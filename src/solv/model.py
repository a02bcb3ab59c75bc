"""Pipeline assembly: parameter initialization and window-level forward.

One forward covers a ``data.frames``-frame window in two stages: per frame,
encode the tokens its drop plan keeps (every token at inference) and bind
them spatially from the shared slot initialization; per window, relate
slots temporally and merge them, then decode the center frame over the
full grid. The decoder places each merged slot by the center frame's
binding geometry: the position and scale binding's final iteration
computed, pooled over the cluster.

Both stages take leading batch axes: ``Pipeline.bind_frames`` binds
(..., N, D) features of many frames to (..., K, D_slot) slots, and
``Pipeline.bind_windows`` relates (..., K, T, D_slot) stacked windows to
their (..., K, D_slot) center slots. Training's window is a whole clip:
it binds the clip's frames in one call and relates them in one call.
Only inference masks frames: its windows run past the video's ends, and
``bind_windows`` leaves those frames out of temporal attention. Inference
binds each frame once, ``CHUNK`` frames per call, relates ``CHUNK``
windows per call, then merges and decodes frame by frame, decoding only
the frames that keep two or more slots. A batched call gives bitwise the
result of one call per frame or window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binding, encoder, evalkit, objecthead
from . import diffcore as dc
from .config import RunConfig
from .diffcore import ParamStore, Tensor

# Frames per spatial-binding call and windows per temporal-binding call
# in infer_video. Binding a whole 48-frame video in one call was no
# faster on the infer-long benchmark (one BLAS thread, 2-core x86-64 VM)
# and raised its peak RSS from 75-78 to 105-106 MB on seeds 1-4; 8 keeps
# a chunk's activations small.
CHUNK = 8


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    if len(shape) == 1:
        return np.zeros(shape)
    fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def param_shapes(cfg: RunConfig) -> dict:
    """Name and shape of every learnable tensor, in registration order."""
    m, d = cfg.model, cfg.data
    shapes = {"enc.proj." + name: shape for name, shape in
              encoder.projection_param_shapes(d.d_features, m.d_slot).items()}
    shapes.update(binding.binding_param_shapes(m.d_slot, m.k_slots, d.frames))
    shapes.update(binding.transformer_param_shapes(m.d_slot, m.transformer_layers))
    shapes.update(objecthead.decoder_param_shapes(
        m.d_slot, d.n_tokens, d.d_features, m.decoder_hidden, m.decoder_layers))
    return shapes


def _initial_value(name: str, shape, rng: np.random.Generator) -> np.ndarray:
    if name.endswith(("ln_g", "ln_q.g", "ln1_g", "ln2_g")):
        return np.ones(shape)
    if name == "bind.init.scale":
        # small initial scales sharpen first-iteration relative
        # coordinates so slots specialize by position immediately
        return np.abs(rng.normal(0.1, 0.02, size=shape)) + 1e-3
    if name == "bind.init.pos":
        return rng.normal(0.0, 0.6, size=shape)
    if name == "bind.g.w":
        # fan-in of 2: He-style scale keeps the position term
        # comparable to the content term in the attention logits
        return rng.normal(0.0, 1.0, size=shape)
    if name == "bind.q.w":
        # query gain sharpens first-forward attention so slots grab
        # distinct token clusters immediately instead of averaging
        return 4.0 * _glorot(rng, shape)
    if name == "bind.gru.b_u":
        # bias the update gate open: slot contents start as bounded
        # functions of their own aggregated tokens rather than an
        # accumulating state, which keeps slots distinguishable
        return np.full(shape, 2.0)
    if name in ("tbind.temb", "dec.pos"):
        return rng.normal(0.0, 0.02, size=shape)
    if name == "merge.h.w":
        # fan-in of 2: keep the per-slot position blob visible next to
        # the broadcast slot contents so masks can localize early
        return rng.normal(0.0, 2.0, size=shape)
    return _glorot(rng, shape)  # zeros for biases and layer-norm shifts


def init_params(cfg: RunConfig, seed: int | None = None) -> ParamStore:
    """Build and initialize every learnable tensor of the pipeline."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed if seed is not None else cfg.data.seed, 0x9A7A]))
    store = ParamStore(cfg.train.precision)
    for name, shape in param_shapes(cfg).items():
        store.register(name, _initial_value(name, shape, rng))
    return store


@dataclass
class WindowOutput:
    decoded: objecthead.DecodedFrame
    merged: objecthead.MergedSlots


class Pipeline:
    """Stateless forward passes over a fixed parameter store."""

    def __init__(self, cfg: RunConfig, store: ParamStore):
        self.cfg = cfg
        self.store = store
        d = cfg.data
        self.grid = encoder.build_position_grid(d.grid_rows, d.grid_cols)

    def bind_frames(self, features: np.ndarray, kept: np.ndarray,
                    init_z: Tensor | None = None):
        """Per-frame stage: encode each frame's kept tokens and bind them to
        slots. ``features`` is (..., N, D) and ``kept`` (..., N'); returns
        (..., K, D_slot) slots and their ``binding.SlotGeometry``.

        Without ``init_z`` a frame's slots depend on that frame alone, so
        inference binds each frame once and reuses it in every window.
        """
        m = self.cfg.model
        tokens, kept_grid = encoder.encode_frame(features, self.grid, kept, self.store)
        return binding.spatial_bind(
            tokens, kept_grid, self.store, m.delta,
            n_iters=m.isa_iters, invariant=m.use_invariant_attention,
            init_z=init_z)

    def bind_windows(self, windows: Tensor, availability: np.ndarray) -> Tensor:
        """Per-window stage: temporal binding of stacked windows (..., K, T,
        D_slot), with the frames where ``availability`` (..., T) is False
        masked out. Returns the center frames' slots, (..., K, D_slot)."""
        m = self.cfg.model
        return binding.temporal_bind(windows, availability, self.store,
                                     n_layers=m.transformer_layers,
                                     heads=m.transformer_heads)

    def merge(self, c: Tensor, geometry: binding.SlotGeometry,
              apply_merge: bool) -> objecthead.MergedSlots:
        """Merge one center frame's K x D_slot slots, placed by that
        frame's geometry, or keep them all apart unless both
        ``apply_merge`` and the config allow merging."""
        m = self.cfg.model
        partition = None
        if not (apply_merge and m.use_merging):
            partition = objecthead.identity_partition(m.k_slots)
        return objecthead.merge_slots(c, geometry, m.tau_merge,
                                      partition=partition)

    def decode(self, merged: objecthead.MergedSlots) -> objecthead.DecodedFrame:
        """Decode merged slots over the full grid."""
        m = self.cfg.model
        return objecthead.decode(merged, self.store, self.grid, m.delta,
                                 self.cfg.data.d_features,
                                 n_layers=m.decoder_layers)

    def forward_window(self, features: np.ndarray, kept: np.ndarray,
                       apply_merge: bool,
                       init_jitter: np.ndarray | None = None) -> WindowOutput:
        """Training's forward of one whole clip, features (window, N, D):
        every frame is bound, in one call, and the center frame decoded.

        Row f of ``kept`` (window, N') holds frame f's kept token
        indices. ``init_jitter`` (K x D_slot) perturbs the shared slot
        initialization for this whole window; training draws one per clip
        so slot identities cannot act as a fixed code across clips.
        """
        m = self.cfg.model
        center = len(features) // 2
        init_z = None
        if init_jitter is not None:
            init_z = self.store["bind.init.z"] + init_jitter
        z, geometry = self.bind_frames(features, kept, init_z)
        if m.use_temporal_binding:  # (T, K, D) frames to one (K, T, D) window
            c = self.bind_windows(dc.transpose(z, (1, 0, 2)),
                                  np.ones(len(features), bool))
        else:
            c = dc.reshape(dc.slice_axis(z, 0, center, center + 1), z.shape[1:])
        merged = self.merge(c, geometry[center], apply_merge)
        return WindowOutput(decoded=self.decode(merged), merged=merged)


def infer_video(pipe: Pipeline, features: np.ndarray):
    """Sliding center-frame inference over the whole video.

    Every frame becomes the center of its own window; frames outside the
    video are masked out of temporal binding. Every frame keeps all its
    tokens, so each frame is bound once and every window containing it
    reuses those slots. The video is cast to the store's dtype once. Frames are
    bound ``CHUNK`` per call and windows related ``CHUNK`` per call;
    merging (always applied) and decoding run per frame, and the decoder
    runs only for frames left with two or more slots: one slot labels
    every pixel 0. Returns (tracked segmentation, per-frame slot counts);
    the track labels are in the smallest unsigned type that holds the last
    track id.
    """
    cfg = pipe.cfg
    d, m = cfg.data, cfg.model
    features = np.asarray(features)
    if features.ndim != 3:
        raise ValueError(f"features must be rank 3 (frames x tokens x dim), "
                         f"got shape {features.shape}")
    f_total, n_tok, width = features.shape
    if f_total == 0:
        raise ValueError("video has no frames")
    if n_tok != d.n_tokens:
        raise ValueError(f"feature grid {n_tok} does not match config tokens {d.n_tokens}")
    if width != d.d_features:
        raise ValueError(f"feature width {width} does not match config "
                         f"d_features {d.d_features}")
    # checked after the cast: a finite value beyond the store's range is
    # infinite in the computation
    with np.errstate(over="ignore"):
        features = features.astype(pipe.store.dtype, copy=False)
    finite = np.isfinite(features).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"non-finite features in frame {int(np.argmin(finite))}")

    slots = np.empty((f_total, m.k_slots, m.d_slot), pipe.store.dtype)
    geometry = []
    every_token = np.broadcast_to(np.arange(n_tok), (CHUNK, n_tok))
    for s in range(0, f_total, CHUNK):
        chunk = features[s:s + CHUNK]
        z, chunk_geometry = pipe.bind_frames(chunk, every_token[:len(chunk)])
        slots[s:s + len(chunk)] = z.data
        geometry += (chunk_geometry[i] for i in range(len(chunk)))

    centers = slots
    if m.use_temporal_binding:
        # window t holds video frames t - n .. t + n, which are rows
        # t .. t + 2n of the video padded with n zero frames at each end
        n = d.frames // 2
        padded = np.zeros((f_total + 2 * n,) + slots.shape[1:], slots.dtype)
        padded[n:n + f_total] = slots
        centers = np.empty_like(slots)
        for s in range(0, f_total, CHUNK):
            rows = np.arange(s, min(s + CHUNK, f_total))[:, None] + np.arange(d.frames)
            windows = np.ascontiguousarray(padded[rows].transpose(0, 2, 1, 3))
            available = (rows >= n) & (rows < n + f_total)
            centers[s:s + len(rows)] = pipe.bind_windows(Tensor(windows), available).data

    # what rasterize returns for one slot (argmax over one slot is 0, in
    # uint8), shared by every frame left with one slot
    one_slot = np.zeros((d.canvas_h, d.canvas_w), np.uint8)
    label_frames = []
    slot_vectors = []
    for t in range(f_total):
        merged = pipe.merge(Tensor(centers[t]), geometry[t], apply_merge=True)
        if merged.k_t > 1:
            labels = evalkit.rasterize(pipe.decode(merged).m.data, d.grid_rows,
                                       d.grid_cols, d.canvas_h, d.canvas_w)
        else:
            labels = one_slot
        label_frames.append(labels)
        slot_vectors.append(merged.cprime.data)
    tracked = evalkit.link_tracks(slot_vectors, label_frames)
    return tracked, [v.shape[0] for v in slot_vectors]
