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

The slot geometry is token-major: the centered grid and the relative
coordinates are (N', 2, ..., K) tensors, built so from a row-major copy
of the kept grid, and the attention enters the moment sums as an (N',
1, ..., K) copy, so numpy loops over the frame and slot axes instead of
over a token's two coordinates. A sum over N' then reduces the outermost
axis of a row-major tensor, which numpy adds token after token; a
contiguous last axis it would sum pairwise, so N' is never the last axis
of a tensor summed over it. The attention itself stays (..., K, N').
Each iteration hands its relative coordinates to the next.

Next to the slots, ``spatial_bind`` returns the final iteration's slot
geometry, detached from the tape: attention mass, position and variance,
from which merging pools each cluster's and the decoder places it.
Plain attention takes the same moments of its final attention.

Temporal binding runs a small pre-norm transformer encoder over the
(2n+1)-frame sequence of each slot index independently, with unavailable
frames masked out of attention, and returns the center frame's slots.
Masked frames get an attention weight of exactly zero, so their slots
must be finite: zero times a non-finite value is not zero.

Both stages take leading batch axes: ``spatial_bind`` binds (..., N', D)
tokens of many frames and ``temporal_bind`` relates (..., K, T, D)
stacked windows in one call. Every matmul runs per frame or per window
slice and every reduction runs along a per-frame axis, so a batched call
gives bitwise the outputs of one call per frame or window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor


EPS = 1e-8  # added to every slot's attention mass and variance


@dataclass
class SlotGeometry:
    """Each slot's final attention moments over the kept grid, detached
    from the tape; ``geometry[i]`` selects leading index ``i``."""
    mass: np.ndarray      # ... x K, summed attention plus EPS
    position: np.ndarray  # ... x K x 2, bind.init.pos + drift
    var: np.ndarray       # ... x K x 2; the scale is sqrt(var + EPS)

    def __getitem__(self, index) -> "SlotGeometry":
        return SlotGeometry(self.mass[index], self.position[index], self.var[index])


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
            pre + "wk": (d_slot, d_slot),
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
    h = dc.mlp(h, [(params["bind.mlp.w1"], params["bind.mlp.b1"]),
                   (params["bind.mlp.w2"], params["bind.mlp.b2"])])
    return dc.add(z, h)


def _swap_last(t: Tensor) -> Tensor:
    """Transpose the last two axes."""
    axes = tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2)
    return dc.transpose(t, axes)


def _last_first(t: Tensor) -> Tensor:
    """(..., K, X) to (X, ..., K), copied row-major."""
    return dc.transpose(t, (t.ndim - 1,) + tuple(range(t.ndim - 1)), contiguous=True)


def _first_last(t: Tensor) -> Tensor:
    """(X, ..., K) to (..., K, X), copied row-major."""
    return dc.transpose(t, tuple(range(1, t.ndim)) + (0,), contiguous=True)


def _moments(a: Tensor, centered: Tensor):
    """Moments of attention ``a`` (... x K x N') over the token-major
    ``centered`` grid (N' x 2 x ... x K): the mass (... x K x 1, plus
    EPS), the drift and variance (2 x ... x K), and the spread
    ``centered - drift`` (N' x 2 x ... x K)."""
    *lead, k, n_kept = a.shape
    a_t = dc.reshape(_last_first(a), (n_kept, 1, *lead, k))
    mass = dc.reduce_sum(a, axis=-1, keepdims=True) + EPS
    mass_t = dc.reshape(mass, (*lead, k))
    drift = dc.div(dc.reduce_sum(dc.mul(a_t, centered), axis=0), mass_t)
    spread = dc.sub(centered, drift)
    var = dc.div(dc.reduce_sum(dc.mul(a_t, dc.mul(spread, spread)), axis=0), mass_t)
    return mass, drift, var, spread


def isa_iteration(z: Tensor, rel: Tensor, centered: Tensor, pkf: Tensor,
                  pvf: Tensor, pg_w: Tensor, pg_b: Tensor, params,
                  delta: float):
    """One invariant attention iteration in centered coordinates.

    ``centered`` is G_abs - S_p_init and ``rel`` the tokens' coordinates
    relative to the current slot moments, (centered - drift) / (scale *
    delta), both token-major (N' x 2 x ... x K); drift is the slot
    position's offset from its initialization, so the absolute position
    is S_p_init + drift. Returns (z, rel, (mass, drift, var)): the
    coordinates relative to the new moments, which the next iteration
    takes, token-major like ``rel``, and the new moments as ``_moments``
    gives them; the new scale is sqrt(var + EPS).
    """
    *lead, k, d_slot = z.shape
    n_kept = centered.shape[0]

    # keys[k, n] = pkf[n] + rel[k, n] @ pg_w + pg_b, contracted with the
    # query term by term so that no K x N' x D key is built
    zn = dc.layernorm(z, params["bind.ln_q.g"], params["bind.ln_q.b"])
    qz = dc.linear(zn, params["bind.q.w"], params["bind.q.b"])
    content = dc.matmul(qz, _swap_last(pkf))           # ... x K x N'
    q_pos = _last_first(dc.matmul(qz, _swap_last(pg_w)))  # 2 x ... x K
    q_bias = dc.matmul(qz, dc.reshape(pg_b, (d_slot, 1)))  # ... x K x 1
    pos_term = dc.add(_first_last(dc.reduce_sum(dc.mul(rel, q_pos), axis=1)), q_bias)
    logits = dc.add(content, pos_term) * (1.0 / np.sqrt(d_slot))  # ... x K x N'
    a = dc.softmax(logits, axis=-2)                     # normalize over slots

    mass, drift, var, spread = _moments(a, centered)
    scale = dc.sqrt(var + EPS)

    # the weighted mean of values pvf[n] + rel2[k, n] @ pg_w + pg_b,
    # taken term by term
    rel2 = spread / (scale * delta)
    w = dc.div(a, mass)                                 # ... x K x N'
    w_t = dc.reshape(_last_first(w), (n_kept, 1, *lead, k))
    w_rel2 = _first_last(dc.reduce_sum(dc.mul(w_t, rel2), axis=0))  # ... x K x 2
    updates = dc.add(
        dc.add(dc.matmul(w, pvf), dc.matmul(w_rel2, pg_w)),
        dc.mul(dc.reduce_sum(w, axis=-1, keepdims=True), pg_b),
    )                                                   # ... x K x D

    z = dc.gru_cell(z, updates, _gru_params(params))
    z = _slot_mlp(z, params)
    return z, rel2, (mass, drift, var)


def plain_attention_iteration(z: Tensor, kf: Tensor, vf: Tensor, params):
    """Original slot attention iteration (no position/scale machinery)."""
    d_slot = z.shape[-1]
    zn = dc.layernorm(z, params["bind.ln_q.g"], params["bind.ln_q.b"])
    qz = dc.linear(zn, params["bind.q.w"], params["bind.q.b"])
    logits = dc.matmul(qz, _swap_last(kf)) * (1.0 / np.sqrt(d_slot))  # ... x K x N'
    a = dc.softmax(logits, axis=-2)
    mass = dc.reduce_sum(a, axis=-1, keepdims=True) + EPS
    w = dc.div(a, mass)
    updates = dc.matmul(w, vf)
    z = dc.gru_cell(z, updates, _gru_params(params))
    z = _slot_mlp(z, params)
    return z, a


def spatial_bind(tokens: Tensor, kept_grid: np.ndarray, params, delta: float,
                 n_iters: int, invariant: bool, init_z: Tensor | None):
    """Bind frames' tokens to slots from the shared initialization.

    ``tokens`` is (..., N', D) and ``kept_grid`` (..., N', 2); leading
    axes index frames, bound independently in one call, and every output
    carries them in front. The same initialization tensors feed every
    frame of a clip; outputs differ only through the frame's features and
    kept grid. ``init_z``, unless None, overrides the stored slot
    contents (training jitters them per clip). Invariant attention centers
    the grid and takes the first relative coordinates once; each iteration
    passes its relative coordinates to the next. Returns the (..., K, D)
    slots and the final iteration's ``SlotGeometry``; plain attention
    takes the same moments of its final attention.
    """
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    lead = tokens.shape[:-2]
    z = init_z if init_z is not None else params["bind.init.z"]
    k = z.shape[0]
    if lead:
        z = dc.broadcast_to(z, lead + z.shape)
    kf = dc.linear(tokens, params["bind.k.w"], params["bind.k.b"])
    vf = dc.linear(tokens, params["bind.v.w"], params["bind.v.b"])

    # a row-major N' x 2 x ... x 1 copy: numpy lays out each result like
    # its operands, and that layout fixes the order of the sums over N'.
    # Zero initial drift.
    grid = np.broadcast_to(np.asarray(kept_grid, params.dtype), tokens.shape[:-1] + (2,))
    grid = np.ascontiguousarray(np.moveaxis(grid, (-2, -1), (0, 1))[..., None])
    moment_shape = (2,) + (1,) * len(lead) + (k,)
    if invariant:
        s_p = dc.reshape(_swap_last(params["bind.init.pos"]), moment_shape)
        s_s = dc.reshape(_swap_last(params["bind.init.scale"]), moment_shape)
        centered = dc.sub(Tensor(grid), s_p)            # N' x 2 x ... x K
        rel = centered / (s_s * delta)
        pkf = dc.linear(kf, params["bind.p.w"], params["bind.p.b"])
        pvf = dc.linear(vf, params["bind.p.w"], params["bind.p.b"])
        pg_w = dc.matmul(params["bind.g.w"], params["bind.p.w"])  # 2 x D composite
        pg_b = dc.matmul(dc.reshape(params["bind.g.b"], (1, -1)), params["bind.p.w"])
        pg_b = dc.reshape(pg_b, (-1,))
        for _ in range(n_iters):
            z, rel, moments = isa_iteration(
                z, rel, centered, pkf, pvf, pg_w, pg_b, params, delta)
    else:
        for _ in range(n_iters):
            z, a = plain_attention_iteration(z, kf, vf, params)
        # the same moments of the final attention, off the tape
        s_p = np.reshape(params["bind.init.pos"].data.T, moment_shape)
        moments = _moments(Tensor(a.data), Tensor(grid - s_p))[:3]
    mass, drift, var = (m.data for m in moments)
    return z, SlotGeometry(
        mass=mass[..., 0],
        position=params["bind.init.pos"].data + np.moveaxis(drift, 0, -1),
        var=np.moveaxis(var, 0, -1))


def _mha(x: Tensor, mask_bias: np.ndarray, params, prefix: str, heads: int):
    """Masked multi-head self-attention over the T axis of (..., K, T, D)."""
    *lead, t, d = x.shape
    dh = d // heads
    nd = x.ndim + 1
    swap = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)  # T <-> heads

    def split_heads(v):
        return dc.transpose(dc.reshape(v, (*lead, t, heads, dh)), swap)

    q = split_heads(dc.linear(x, params[prefix + "wq"], params[prefix + "bq"]))
    # no key bias: it adds q . b to a whole row of scores, which the
    # softmax over T cancels
    kk = split_heads(dc.matmul(x, params[prefix + "wk"]))
    v = split_heads(dc.linear(x, params[prefix + "wv"], params[prefix + "bv"]))
    scores = dc.matmul(q, _swap_last(kk)) * (1.0 / np.sqrt(dh))
    scores = dc.add(scores, Tensor(mask_bias))
    probs = dc.softmax(scores, axis=-1)
    out = dc.matmul(probs, v)                                # ... x h x T x dh
    out = dc.reshape(dc.transpose(out, swap), (*lead, t, d))
    return dc.linear(out, params[prefix + "wo"], params[prefix + "bo"])


def temporal_bind(windows: Tensor, availability: np.ndarray, params,
                  n_layers: int, heads: int):
    """Relate same-index slots across the clip window.

    ``windows`` stacks each window's frame slots as (..., K, T, D) and
    ``availability`` (..., T) marks the frames that exist; leading axes
    index windows, related independently in one call. Adds each frame's
    learnable temporal encoding to all of its slots, runs the per-index
    transformer with unavailable frames masked out of every attention,
    and returns the center position's output, (..., K, D).
    """
    *lead, k, t, d = windows.shape
    center = t // 2
    availability = np.asarray(availability, bool)
    if not availability[..., center].all():
        raise ValueError("center frame must be available")
    x = dc.add(windows, params["tbind.temb"])
    mask_bias = np.where(availability, 0.0, -1e30).astype(x.data.dtype)
    mask_bias = mask_bias.reshape(availability.shape[:-1] + (1, 1, 1, t))
    for l in range(n_layers):
        pre = f"tbind.l{l}."
        h = dc.layernorm(x, params[pre + "ln1_g"], params[pre + "ln1_b"])
        x = dc.add(x, _mha(h, mask_bias, params, pre, heads))
        h = dc.layernorm(x, params[pre + "ln2_g"], params[pre + "ln2_b"])
        h = dc.mlp(h, [(params[pre + "ff_w1"], params[pre + "ff_b1"]),
                       (params[pre + "ff_w2"], params[pre + "ff_b2"])])
        x = dc.add(x, h)
    return dc.reshape(dc.slice_axis(x, -2, center, center + 1), (*lead, k, d))
