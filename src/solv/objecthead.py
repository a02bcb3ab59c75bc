"""Slot merging and the spatial-broadcast decoder with its loss.

Merging clusters slots whose contents are similar (complete-linkage
agglomeration on cosine distance) and replaces each cluster by its mean
slot. The decoder broadcasts every merged slot across the full token
grid, adds positional signals, and maps each position to a feature
reconstruction plus an alpha logit; softmax over slots yields the masks.

The merge partition is a hard, non-differentiable decision per step:
gradients flow through the mean slots, while the moments re-derived from
summed attention are treated as constants.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .binding import AttentionRecord

log = logging.getLogger(__name__)


@dataclass
class MergedSlots:
    cprime: Tensor            # K_t x D_slot mean slot per cluster
    members: list             # partition of 0..K-1, sorted
    a_sum: np.ndarray         # K_t x N' summed attention
    position: np.ndarray      # K_t x 2 moments of a_sum over the kept grid
    scale: np.ndarray         # K_t x 2

    @property
    def k_t(self) -> int:
        return len(self.members)


@dataclass
class DecodedFrame:
    y: Tensor        # N x D combined reconstruction
    m: Tensor        # K_t x N soft masks, columns sum to 1
    alpha: Tensor    # K_t x N pre-softmax logits
    y_slots: Tensor  # K_t x N x D per-slot reconstructions


def complete_linkage(dist: np.ndarray, threshold: float) -> list[list[int]]:
    """Agglomerate while the merged cluster's max internal distance <= threshold.

    Ties pick the lexicographically first pair. Returns the partition
    sorted by smallest member.
    """
    n = dist.shape[0]
    clusters = [[i] for i in range(n)]
    d = dist.astype(np.float64).copy()
    while len(clusters) > 1:
        m = d + np.where(np.tri(len(clusters), dtype=bool), np.inf, 0.0)
        i, j = np.unravel_index(np.argmin(m), m.shape)
        if m[i, j] > threshold:
            break
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
        merged_row = np.maximum(d[i], d[j])
        d[i, :] = merged_row
        d[:, i] = merged_row
        d = np.delete(np.delete(d, j, axis=0), j, axis=1)
        d[i, i] = 0.0
    parts = [sorted(c) for c in clusters]
    parts.sort(key=lambda c: c[0])
    return parts


def cosine_distances(vectors: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cosine similarity; zero-norm rows get distance 2."""
    norms = np.linalg.norm(vectors, axis=1)
    zero = norms == 0
    if zero.any():
        log.warning("zero-norm slot vector(s) at %s; treated as unmergeable",
                    np.flatnonzero(zero).tolist())
    safe = np.where(zero, 1.0, norms)
    unit = vectors / safe[:, None]
    cos = unit @ unit.T
    dist = 1.0 - cos
    dist[zero, :] = 2.0
    dist[:, zero] = 2.0
    np.fill_diagonal(dist, 0.0)
    return dist


def _moments_from_attention(a: np.ndarray, grid: np.ndarray,
                            eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    mass = a.sum(axis=1)[:, None] + eps
    pos = (a @ grid) / mass
    spread = grid[None, :, :] - pos[:, None, :]
    var = np.einsum("kn,knc->kc", a, spread * spread) / mass
    return pos, np.sqrt(var + eps)


def merge_slots(c: Tensor, att: AttentionRecord, tau_merge: float,
                partition: list[list[int]] | None = None) -> MergedSlots:
    """Cluster slots by content similarity and pool their attention.

    With ``partition`` given (e.g. singletons to skip merging) clustering
    is bypassed but the pooled statistics are still produced.
    """
    if not 0.0 < tau_merge < 2.0:
        raise dc.ConfigError(f"merge threshold must lie in (0, 2), got {tau_merge}")
    if partition is None:
        dist = cosine_distances(c.data)
        partition = complete_linkage(dist, tau_merge)
    rows = []
    a_sum = np.empty((len(partition), att.a.shape[1]), dtype=att.a.dtype)
    for idx, members in enumerate(partition):
        picked = dc.gather_rows(c, np.asarray(members, dtype=np.int64))
        rows.append(dc.reduce_mean(picked, axis=0))
        a_sum[idx] = att.a[members].sum(axis=0)
    cprime = dc.stack(rows, axis=0)
    pos, scale = _moments_from_attention(a_sum, att.kept_grid)
    return MergedSlots(cprime=cprime, members=partition, a_sum=a_sum,
                       position=pos, scale=scale)


def identity_partition(k: int) -> list[list[int]]:
    return [[i] for i in range(k)]


def merge_probability(epoch: int, total_epochs: int) -> float:
    """Logarithmic ramp: 0 at the first epoch, 1 at the last."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    if total_epochs == 1:
        return 1.0
    return float(np.log1p(epoch) / np.log(total_epochs))


def merge_gate(epoch: int, total_epochs: int, rng: np.random.Generator) -> bool:
    """Draw whether this training step applies merging."""
    p = merge_probability(epoch, total_epochs)
    if p <= 0.0:
        return False
    if p >= 1.0:
        return True
    return bool(rng.random() < p)


def decoder_param_shapes(d_slot: int, n_positions: int, d_out: int,
                         hidden: int = 1024, n_layers: int = 5) -> dict:
    shapes = {
        "merge.h.w": (2, d_slot), "merge.h.b": (d_slot,),
        "dec.pos": (n_positions, d_slot),
    }
    dims = [d_slot] + [hidden] * (n_layers - 1) + [d_out + 1]
    for l in range(n_layers):
        shapes[f"dec.l{l}.w"] = (dims[l], dims[l + 1])
        shapes[f"dec.l{l}.b"] = (dims[l + 1],)
    return shapes


def decode(ms: MergedSlots, params, full_grid: np.ndarray, delta: float,
           d_out: int, n_layers: int = 5) -> DecodedFrame:
    """Spatial-broadcast decode of merged slots over the full grid."""
    k_t = ms.k_t
    n = full_grid.shape[0]
    d_slot = ms.cprime.shape[1]

    rel = (full_grid[None, :, :] - ms.position[:, None, :]) \
        / (delta * ms.scale[:, None, :])
    h_rel = dc.linear(Tensor(np.asarray(rel, params.dtype)), params["merge.h.w"],
                      params["merge.h.b"])
    x = dc.add(dc.reshape(ms.cprime, (k_t, 1, d_slot)), params["dec.pos"])
    x = dc.add(x, h_rel)                                  # K_t x N x D_slot

    h = dc.reshape(x, (k_t * n, d_slot))
    for l in range(n_layers):
        h = dc.linear(h, params[f"dec.l{l}.w"], params[f"dec.l{l}.b"])
        if l < n_layers - 1:
            h = dc.relu(h)
    out = dc.reshape(h, (k_t, n, d_out + 1))

    y_slots = dc.slice_axis(out, 2, 0, d_out)
    alpha = dc.reshape(dc.slice_axis(out, 2, d_out, d_out + 1), (k_t, n))
    m = dc.softmax(alpha, axis=0)
    y = dc.reduce_sum(dc.mul(dc.reshape(m, (k_t, n, 1)), y_slots), axis=0)
    return DecodedFrame(y=y, m=m, alpha=alpha, y_slots=y_slots)


def reconstruction_loss(y: Tensor, target) -> Tensor:
    """Mean squared difference over every grid position and channel."""
    if y.shape != np.shape(target):
        raise ShapeError(f"reconstruction {y.shape} vs target {np.shape(target)}")
    diff = y - target  # a numpy target becomes a constant of y's dtype
    return dc.reduce_mean(dc.mul(diff, diff))
