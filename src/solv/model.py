"""Pipeline assembly: parameter initialization and window-level forward.

One forward covers a (2n+1)-frame window in two stages: per frame,
encode the available frame with token drop and bind it spatially from the
shared slot initialization; per window, relate slots temporally and
merge them, then decode the center frame over the full grid. Inference
runs the first stage once per frame and the second once per window, and
decodes only the frames that keep two or more slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binding, encoder, objecthead
from .config import RunConfig
from .diffcore import ParamStore, Tensor


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    if len(shape) == 1:
        return np.zeros(shape)
    fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(cfg: RunConfig, seed: int | None = None) -> ParamStore:
    """Build and initialize every learnable tensor of the pipeline."""
    m, d = cfg.model, cfg.data
    rng = np.random.default_rng(
        np.random.SeedSequence([seed if seed is not None else d.seed, 0x9A7A]))
    store = ParamStore(cfg.train.precision)

    def reg(name, arr):
        store.register(name, arr)

    for name, shape in encoder.projection_param_shapes(d.d_features, m.d_slot).items():
        full = "enc.proj." + name
        if name == "ln_g":
            reg(full, np.ones(shape))
        elif len(shape) == 1:
            reg(full, np.zeros(shape))
        else:
            reg(full, _glorot(rng, shape))

    for name, shape in binding.binding_param_shapes(m.d_slot, m.k_slots, m.window).items():
        if name == "bind.init.z":
            reg(name, _glorot(rng, shape))
        elif name == "bind.init.scale":
            # small initial scales sharpen first-iteration relative
            # coordinates so slots specialize by position immediately
            reg(name, np.abs(rng.normal(0.1, 0.02, size=shape)) + 1e-3)
        elif name == "bind.init.pos":
            reg(name, rng.normal(0.0, 0.6, size=shape))
        elif name == "bind.g.w":
            # fan-in of 2: He-style scale keeps the position term
            # comparable to the content term in the attention logits
            reg(name, rng.normal(0.0, 1.0, size=shape))
        elif name == "bind.q.w":
            # query gain sharpens first-forward attention so slots grab
            # distinct token clusters immediately instead of averaging
            reg(name, 4.0 * _glorot(rng, shape))
        elif name == "bind.gru.b_u":
            # bias the update gate open: slot contents start as bounded
            # functions of their own aggregated tokens rather than an
            # accumulating state, which keeps slots distinguishable
            reg(name, np.full(shape, 2.0))
        elif name == "tbind.temb":
            reg(name, rng.normal(0.0, 0.02, size=shape))
        elif name.endswith(("ln_g", "ln_q.g")):
            reg(name, np.ones(shape))
        else:
            reg(name, _glorot(rng, shape))

    for name, shape in binding.transformer_param_shapes(m.d_slot, m.transformer_layers).items():
        if name.endswith(("ln1_g", "ln2_g")):
            reg(name, np.ones(shape))
        else:
            reg(name, _glorot(rng, shape))

    dec_shapes = objecthead.decoder_param_shapes(
        m.d_slot, d.n_tokens, d.d_features, m.decoder_hidden, m.decoder_layers)
    for name, shape in dec_shapes.items():
        if name == "dec.pos":
            reg(name, rng.normal(0.0, 0.02, size=shape))
        elif name == "merge.h.w":
            # fan-in of 2: keep the per-slot position blob visible next to
            # the broadcast slot contents so masks can localize early
            reg(name, rng.normal(0.0, 2.0, size=shape))
        else:
            reg(name, _glorot(rng, shape))
    return store


@dataclass
class WindowOutput:
    decoded: objecthead.DecodedFrame
    merged: objecthead.MergedSlots


class Pipeline:
    """Stateless forward passes over a fixed parameter store."""

    def __init__(self, cfg: RunConfig, store: ParamStore | None = None,
                 seed: int | None = None):
        self.cfg = cfg
        self.store = store if store is not None else init_params(cfg, seed)
        d = cfg.data
        self.grid = encoder.build_position_grid(d.grid_rows, d.grid_cols)

    def bind_frame(self, features: np.ndarray, kept: np.ndarray,
                   init_z: Tensor | None = None):
        """Per-frame stage: encode one frame's kept tokens and bind them to
        slots. Returns (K x D_slot slots, attention record).

        Without ``init_z`` the result depends on the frame alone, so
        inference binds each frame once and reuses it in every window.
        """
        m = self.cfg.model
        enc = encoder.encode_frame(features, self.grid, kept, self.store)
        z, _, record = binding.spatial_bind(
            enc.tokens, enc.kept_grid, self.store, m.delta,
            n_iters=m.isa_iters, invariant=m.use_invariant_attention,
            kept_indices=enc.kept_indices, init_z=init_z)
        return z, record

    def merge_window(self, frame_slots: list, center_record: binding.AttentionRecord,
                     apply_merge: bool) -> objecthead.MergedSlots:
        """Per-window stage: temporal binding and merge of the center
        frame's slots.

        ``frame_slots`` holds one entry per window frame: the frame's
        slots, or None where the frame is unavailable (zero slots that
        temporal attention masks out).
        """
        m = self.cfg.model
        center = len(frame_slots) // 2
        availability = np.array([z is not None for z in frame_slots])
        if not availability[center]:
            raise ValueError("center frame must be available")
        empty = Tensor(np.zeros((m.k_slots, m.d_slot), self.store.dtype))
        slots = [empty if z is None else z for z in frame_slots]
        if m.use_temporal_binding:
            c, _ = binding.temporal_bind(
                slots, availability, self.store,
                n_layers=m.transformer_layers, heads=m.transformer_heads,
                center=center)
        else:
            c = slots[center]
        partition = None
        if not (apply_merge and m.use_merging):
            partition = objecthead.identity_partition(m.k_slots)
        return objecthead.merge_slots(c, center_record, m.tau_merge,
                                      partition=partition)

    def decode(self, merged: objecthead.MergedSlots) -> objecthead.DecodedFrame:
        """Decode merged slots over the full grid."""
        m = self.cfg.model
        return objecthead.decode(merged, self.store, self.grid, m.delta,
                                 self.cfg.data.d_features,
                                 n_layers=m.decoder_layers)

    def forward_window(self, features: np.ndarray, availability: np.ndarray,
                       kept_indices: list, apply_merge: bool,
                       init_jitter: np.ndarray | None = None) -> WindowOutput:
        """features: (window, N, D) with arbitrary content on unavailable
        frames (they are masked out of temporal attention).

        ``init_jitter`` (K x D_slot) perturbs the shared slot
        initialization for this whole window; training draws one per clip
        so slot identities cannot act as a fixed code across clips.
        """
        init_z = None
        if init_jitter is not None:
            init_z = self.store["bind.init.z"] + init_jitter
        slots, records = [], []
        for t, available in enumerate(availability):
            z, record = (self.bind_frame(features[t], kept_indices[t], init_z)
                         if available else (None, None))
            slots.append(z)
            records.append(record)
        merged = self.merge_window(slots, records[len(slots) // 2], apply_merge)
        return WindowOutput(decoded=self.decode(merged), merged=merged)

    def window_loss(self, out: WindowOutput, center_features: np.ndarray) -> Tensor:
        return objecthead.reconstruction_loss(out.decoded.y, center_features)


def infer_video(pipe: Pipeline, features: np.ndarray):
    """Sliding center-frame inference over the whole video.

    Every frame becomes the center of its own window; frames outside the
    video are masked via availability. Token drop is off, so each frame
    is bound once and every window containing it reuses those slots.
    Merging is always applied, and the decoder runs only for frames left
    with two or more slots: one slot labels every pixel 0. Returns
    (tracked segmentation, per-frame slot counts).
    """
    from . import evalkit

    cfg = pipe.cfg
    d = cfg.data
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
    finite = np.isfinite(features).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"non-finite features in frame {int(np.argmin(finite))}")
    n = cfg.model.n_window
    keep = np.arange(n_tok, dtype=np.int64)
    bound = [pipe.bind_frame(frame, keep) for frame in features]
    label_frames = []
    slot_vectors = []
    for t in range(f_total):
        window = [bound[i][0] if 0 <= i < f_total else None
                  for i in range(t - n, t + n + 1)]
        merged = pipe.merge_window(window, bound[t][1], apply_merge=True)
        if merged.k_t > 1:
            labels = evalkit.rasterize(pipe.decode(merged).m.data, d.grid_rows,
                                       d.grid_cols, d.canvas_h, d.canvas_w)
        else:  # what rasterize returns: argmax over one slot is 0
            labels = np.zeros((d.canvas_h, d.canvas_w), np.int64)
        label_frames.append(labels)
        slot_vectors.append(merged.cprime.data.copy())
    tracked = evalkit.link_tracks(slot_vectors, label_frames)
    k_t_per_frame = [v.shape[0] for v in slot_vectors]
    return tracked, k_t_per_frame
