"""Spatial binding (invariant slot attention) and temporal binding.

Spatial binding assigns each frame's kept tokens to K slots over three
attention iterations. Every slot carries a position and scale; token
coordinates are expressed relative to them, so binding depends only on
where tokens sit relative to the slot, not on absolute location.

Internally positions are tracked as a drift from the shared initial
position over a grid centered once at entry (``C = G_abs - S_p_init``).
This is algebraically identical to recomputing absolute moments but makes
the whole computation an exact function of the centered grid, which keeps
binding bit-reproducible under a common translation of grid and initial
positions.

Keys and values are the projected token features plus a position term,
``p(k(x_n)) + p(g(rel[k, n]))``. Because ``g`` and ``p`` are affine, the
position term is ``rel[k, n] @ pg_w + pg_b`` with ``pg_w``/``pg_b`` composed
once per frame, and an iteration never builds the K x N' x D keys or
values: the logits contract the query with the token part (N' x D) and
with ``pg_w``/``pg_b`` separately, and the slot updates apply ``pg_w`` to
the attention-weighted relative coordinates (K x 2). A non-affine
position encoder would need the K x N' x D tensors back.

Temporal binding runs a small pre-norm transformer encoder over the
(2n+1)-frame sequence of each slot index independently, with unavailable
frames masked out of attention, and returns the center frame's slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor


@dataclass
class SlotState:
    """Absolute per-slot state after binding: contents, scale, position."""
    z: Tensor        # K x D_slot
    scale: Tensor    # K x 2, strictly positive after any iteration
    position: Tensor # K x 2
    grid: np.ndarray # N' x 2 kept absolute positions


@dataclass
class AttentionRecord:
    """Slot-token attention of the final iteration (detached copy)."""
    a: np.ndarray             # K x N', columns sum to 1
    kept_indices: np.ndarray  # indices of the kept tokens
    kept_grid: np.ndarray     # N' x 2


def relative_grid(g_abs, s_p, s_s, delta: float):
    """Slot-relative coordinates: (G_abs - S_p) / (delta * S_s).

    Accepts numpy arrays or tensors. A single slot takes 2-vectors; K
    slots take K x 2 positions and scales, against either a shared N' x 2
    grid or a per-slot K x N' x 2 grid, and give K x N' x 2.
    """
    g_abs = g_abs if isinstance(g_abs, Tensor) else Tensor(g_abs)
    s_p = s_p if isinstance(s_p, Tensor) else Tensor(s_p)
    s_s = s_s if isinstance(s_s, Tensor) else Tensor(s_s)
    if s_p.ndim == 2:  # K slots
        s_p = dc.reshape(s_p, (s_p.shape[0], 1, 2))
        s_s = dc.reshape(s_s, (s_s.shape[0], 1, 2))
    return dc.div(dc.sub(g_abs, s_p), s_s * delta)


def binding_param_shapes(d_slot: int, k_slots: int, window: int) -> dict:
    """Shapes of every learnable in spatial + temporal binding."""
    shapes = {
        "bind.init.z": (k_slots, d_slot),
        "bind.init.scale": (k_slots, 2),
        "bind.init.pos": (k_slots, 2),
        "bind.ln_q.g": (d_slot,), "bind.ln_q.b": (d_slot,),
        "bind.p.w": (d_slot, d_slot), "bind.p.b": (d_slot,),
        "bind.q.w": (d_slot, d_slot), "bind.q.b": (d_slot,),
        "bind.k.w": (d_slot, d_slot), "bind.k.b": (d_slot,),
        "bind.v.w": (d_slot, d_slot), "bind.v.b": (d_slot,),
        "bind.g.w": (2, d_slot), "bind.g.b": (d_slot,),
        "bind.mlp.ln_g": (d_slot,), "bind.mlp.ln_b": (d_slot,),
        "bind.mlp.w1": (d_slot, 4 * d_slot), "bind.mlp.b1": (4 * d_slot,),
        "bind.mlp.w2": (4 * d_slot, d_slot), "bind.mlp.b2": (d_slot,),
        "tbind.temb": (window, d_slot),
    }
    for key, shape in dc.gru_param_shapes(d_slot).items():
        shapes[f"bind.gru.{key}"] = shape
    return shapes


def transformer_param_shapes(d_slot: int, n_layers: int) -> dict:
    shapes = {}
    hidden = 4 * d_slot
    for l in range(n_layers):
        pre = f"tbind.l{l}."
        shapes.update({
            pre + "ln1_g": (d_slot,), pre + "ln1_b": (d_slot,),
            pre + "wq": (d_slot, d_slot), pre + "bq": (d_slot,),
            pre + "wk": (d_slot, d_slot), pre + "bk": (d_slot,),
            pre + "wv": (d_slot, d_slot), pre + "bv": (d_slot,),
            pre + "wo": (d_slot, d_slot), pre + "bo": (d_slot,),
            pre + "ln2_g": (d_slot,), pre + "ln2_b": (d_slot,),
            pre + "ff_w1": (d_slot, hidden), pre + "ff_b1": (hidden,),
            pre + "ff_w2": (hidden, d_slot), pre + "ff_b2": (d_slot,),
        })
    return shapes


def _gru_params(params) -> dict:
    return {key: params[f"bind.gru.{key}"] for key in dc.gru_param_shapes(1)}


def _slot_mlp(z: Tensor, params) -> Tensor:
    h = dc.layernorm(z, params["bind.mlp.ln_g"], params["bind.mlp.ln_b"])
    h = dc.relu(dc.linear(h, params["bind.mlp.w1"], params["bind.mlp.b1"]))
    h = dc.linear(h, params["bind.mlp.w2"], params["bind.mlp.b2"])
    return dc.add(z, h)


def isa_iteration(z: Tensor, s_s: Tensor, drift: Tensor, centered: Tensor,
                  pkf: Tensor, pvf: Tensor, pg_w: Tensor, pg_b: Tensor,
                  params, delta: float, eps: float = 1e-8):
    """One invariant attention iteration in centered coordinates.

    centered is G_abs - S_p_init (K x N' x 2); drift accumulates the slot
    position offset from its initialization, so the absolute position is
    S_p_init + drift. Returns (z, scale, drift, attention).
    """
    k, d_slot = z.shape
    n_kept = centered.shape[1]

    # keys[k, n] = pkf[n] + rel[k, n] @ pg_w + pg_b, contracted with the
    # query term by term so that no K x N' x D key is built
    rel = relative_grid(centered, drift, s_s, delta)    # K x N' x 2
    zn = dc.layernorm(z, params["bind.ln_q.g"], params["bind.ln_q.b"])
    qz = dc.linear(zn, params["bind.q.w"], params["bind.q.b"])
    content = dc.matmul(qz, dc.transpose(pkf, (1, 0)))  # K x N'
    q_pos = dc.reshape(dc.matmul(qz, dc.transpose(pg_w, (1, 0))), (k, 1, 2))
    q_bias = dc.matmul(qz, dc.reshape(pg_b, (d_slot, 1)))  # K x 1
    pos_term = dc.add(dc.reduce_sum(dc.mul(rel, q_pos), axis=-1), q_bias)
    logits = dc.add(content, pos_term) * (1.0 / np.sqrt(d_slot))  # K x N'
    a = dc.softmax(logits, axis=0)                      # normalize over slots

    a3 = dc.reshape(a, (k, n_kept, 1))
    mass = dc.reduce_sum(a, axis=1, keepdims=True) + eps  # K x 1
    new_drift = dc.div(dc.reduce_sum(dc.mul(a3, centered), axis=1), mass)
    spread = dc.sub(centered, dc.reshape(new_drift, (k, 1, 2)))
    var = dc.div(dc.reduce_sum(dc.mul(a3, dc.mul(spread, spread)), axis=1), mass)
    new_scale = dc.sqrt(var + eps)

    # the weighted mean of values pvf[n] + rel2[k, n] @ pg_w + pg_b,
    # taken term by term
    rel2 = relative_grid(centered, new_drift, new_scale, delta)
    w = dc.div(a, mass)                                 # K x N'
    w_rel2 = dc.reduce_sum(dc.mul(dc.reshape(w, (k, n_kept, 1)), rel2), axis=1)
    updates = dc.add(
        dc.add(dc.matmul(w, pvf), dc.matmul(w_rel2, pg_w)),
        dc.mul(dc.reduce_sum(w, axis=1, keepdims=True), pg_b),
    )                                                   # K x D

    z = dc.gru_cell(z, updates, _gru_params(params))
    z = _slot_mlp(z, params)
    return z, new_scale, new_drift, a


def plain_attention_iteration(z: Tensor, kf: Tensor, vf: Tensor, params,
                              eps: float = 1e-8):
    """Original slot attention iteration (no position/scale machinery)."""
    d_slot = z.shape[1]
    zn = dc.layernorm(z, params["bind.ln_q.g"], params["bind.ln_q.b"])
    qz = dc.linear(zn, params["bind.q.w"], params["bind.q.b"])
    logits = dc.matmul(qz, dc.transpose(kf, (1, 0))) * (1.0 / np.sqrt(d_slot))  # K x N'
    a = dc.softmax(logits, axis=0)
    mass = dc.reduce_sum(a, axis=1, keepdims=True) + eps
    w = dc.div(a, mass)
    updates = dc.matmul(w, vf)
    z = dc.gru_cell(z, updates, _gru_params(params))
    z = _slot_mlp(z, params)
    return z, a


def spatial_bind(tokens: Tensor, kept_grid: np.ndarray, params,
                 delta: float, n_iters: int = 3, invariant: bool = True,
                 kept_indices: np.ndarray | None = None,
                 init_z: Tensor | None = None):
    """Bind one frame's tokens to slots from the shared initialization.

    The same initialization tensors feed every frame of a clip; outputs
    differ only through the frame's features and kept grid. ``init_z``
    overrides the stored slot contents (training jitters them per clip).
    """
    z = init_z if init_z is not None else params["bind.init.z"]
    s_s = params["bind.init.scale"]
    s_p = params["bind.init.pos"]
    k = z.shape[0]

    if invariant:
        grid_t = Tensor(np.asarray(kept_grid, params.dtype))
        centered = dc.sub(grid_t, dc.reshape(s_p, (k, 1, 2)))  # K x N' x 2
        kf = dc.linear(tokens, params["bind.k.w"], params["bind.k.b"])
        vf = dc.linear(tokens, params["bind.v.w"], params["bind.v.b"])
        pkf = dc.linear(kf, params["bind.p.w"], params["bind.p.b"])
        pvf = dc.linear(vf, params["bind.p.w"], params["bind.p.b"])
        pg_w = dc.matmul(params["bind.g.w"], params["bind.p.w"])  # 2 x D composite
        pg_b = dc.matmul(dc.reshape(params["bind.g.b"], (1, -1)), params["bind.p.w"])
        pg_b = dc.reshape(pg_b, (-1,))
        drift = Tensor(np.zeros((k, 2), params.dtype))
        a = None
        for _ in range(n_iters):
            z, s_s, drift, a = isa_iteration(
                z, s_s, drift, centered, pkf, pvf, pg_w, pg_b, params, delta)
        position = dc.add(s_p, drift)
    else:
        kf = dc.linear(tokens, params["bind.k.w"], params["bind.k.b"])
        vf = dc.linear(tokens, params["bind.v.w"], params["bind.v.b"])
        a = None
        for _ in range(n_iters):
            z, a = plain_attention_iteration(z, kf, vf, params)
        position = s_p
        s_s = params["bind.init.scale"]

    if kept_indices is None:
        kept_indices = np.arange(kept_grid.shape[0])
    record = AttentionRecord(a=a.data.copy(), kept_indices=kept_indices,
                             kept_grid=kept_grid)
    state = SlotState(z=z, scale=s_s, position=position, grid=kept_grid)
    return z, state, record


def _mha(x: Tensor, mask_bias: np.ndarray, params, prefix: str, heads: int):
    """Masked multi-head self-attention over axis 1 of a (K, T, D) tensor."""
    k_b, t, d = x.shape
    dh = d // heads

    def split_heads(v):
        return dc.transpose(dc.reshape(v, (k_b, t, heads, dh)), (0, 2, 1, 3))

    q = split_heads(dc.linear(x, params[prefix + "wq"], params[prefix + "bq"]))
    kk = split_heads(dc.linear(x, params[prefix + "wk"], params[prefix + "bk"]))
    v = split_heads(dc.linear(x, params[prefix + "wv"], params[prefix + "bv"]))
    scores = dc.matmul(q, dc.transpose(kk, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    scores = dc.add(scores, Tensor(mask_bias))
    probs = dc.softmax(scores, axis=-1)
    out = dc.matmul(probs, v)                                # K x h x T x dh
    out = dc.reshape(dc.transpose(out, (0, 2, 1, 3)), (k_b, t, d))
    return dc.linear(out, params[prefix + "wo"], params[prefix + "bo"]), probs


def temporal_bind(frame_slots: list, availability: np.ndarray, params,
                  n_layers: int = 3, heads: int = 8, center: int | None = None):
    """Relate same-index slots across the clip window.

    Adds the frame's learnable temporal encoding to all of its slots, runs
    the per-index transformer with unavailable frames masked out of every
    attention, and returns the center position's output.
    """
    t = len(frame_slots)
    if center is None:
        center = t // 2
    if not availability[center]:
        raise ValueError("center frame must be available")
    x = dc.stack(frame_slots, axis=1)                        # K x T x D
    x = dc.add(x, params["tbind.temb"])
    mask_bias = np.where(np.asarray(availability, bool), 0.0, -1e30)
    mask_bias = mask_bias.reshape(1, 1, 1, t).astype(x.data.dtype)
    attn_maps = []
    for l in range(n_layers):
        pre = f"tbind.l{l}."
        h = dc.layernorm(x, params[pre + "ln1_g"], params[pre + "ln1_b"])
        att, probs = _mha(h, mask_bias, params, pre, heads)
        attn_maps.append(probs.data.copy())
        x = dc.add(x, att)
        h = dc.layernorm(x, params[pre + "ln2_g"], params[pre + "ln2_b"])
        h = dc.relu(dc.linear(h, params[pre + "ff_w1"], params[pre + "ff_b1"]))
        h = dc.linear(h, params[pre + "ff_w2"], params[pre + "ff_b2"])
        x = dc.add(x, h)
    k_b, _, d = x.shape
    center_out = dc.gather_rows(dc.transpose(x, (1, 0, 2)), np.array([center]))
    return dc.reshape(center_out, (k_b, d)), attn_maps
