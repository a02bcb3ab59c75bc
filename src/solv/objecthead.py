"""Slot merging and the spatial-broadcast decoder with its loss.

Merging clusters slots whose contents are similar (complete-linkage
agglomeration on cosine distance) and replaces each cluster by its mean
slot, placed at the pooled position and scale of its members' binding
geometry. The decoder broadcasts every merged slot across the full token
grid, adds positional signals, and maps each position to a feature
reconstruction plus an alpha logit; softmax over slots yields the masks.

The merge partition is a hard, non-differentiable decision per step:
gradients flow through the mean slots, and the geometry, which binding
hands over detached, is a constant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .binding import EPS, SlotGeometry

log = logging.getLogger(__name__)


@dataclass
class MergedSlots:
    cprime: Tensor            # K_t x D_slot mean slot per cluster
    members: list             # partition of 0..K-1, sorted
    position: np.ndarray      # K_t x 2 pooled slot geometry
    scale: np.ndarray         # K_t x 2

    @property
    def k_t(self) -> int:
        return len(self.members)


@dataclass
class DecodedFrame:
    y: Tensor  # N x D combined reconstruction
    m: Tensor  # K_t x N soft masks, columns sum to 1


def complete_linkage(dist: np.ndarray, threshold: float) -> list[list[int]]:
    """Agglomerate while the merged cluster's max internal distance <= threshold.

    Each step merges the closest pair of clusters; ties pick the first
    pair in row-major order of the upper triangle, and a NaN distance is
    never the closest. Returns the partition sorted by smallest member.
    There are at most K x K entries, so the search runs on Python lists.
    """
    clusters = [[i] for i in range(dist.shape[0])]
    d = dist.astype(np.float64).tolist()
    while len(clusters) > 1:
        best, pair = np.inf, None
        for i, row in enumerate(d):
            for j in range(i + 1, len(row)):
                if row[j] < best:
                    best, pair = row[j], (i, j)
        if pair is None or best > threshold:
            break
        i, j = pair
        clusters[i] += clusters.pop(j)
        merged_row = [max(x, y) for x, y in zip(d[i], d[j])]
        merged_row[i] = 0.0
        for row, value in zip(d, merged_row):
            row[i] = value
        d[i] = merged_row
        del d[j]
        for row in d:
            del row[j]
    parts = [sorted(c) for c in clusters]
    parts.sort(key=lambda c: c[0])
    return parts


def unit_rows(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row divided by its norm, and the mask of zero-norm rows, which
    are divided by 1 instead."""
    norms = np.linalg.norm(vectors, axis=1)
    zero = norms == 0
    return vectors / np.where(zero, 1.0, norms)[:, None], zero


def cosine_distances(vectors: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cosine similarity; zero-norm rows get distance 2."""
    unit, zero = unit_rows(vectors)
    if zero.any():
        log.warning("zero-norm slot vector(s) at %s; treated as unmergeable",
                    np.flatnonzero(zero).tolist())
    dist = 1.0 - unit @ unit.T
    dist[zero, :] = 2.0
    dist[:, zero] = 2.0
    np.fill_diagonal(dist, 0.0)
    return dist


def merge_slots(c: Tensor, geometry: SlotGeometry, tau_merge: float,
                partition: list[list[int]] | None) -> MergedSlots:
    """Cluster slots by content similarity and pool each cluster.

    A cluster's slot is its members' mean. Its position is the
    mass-weighted mean of its members' positions and its variance their
    pooled variance, the mass-weighted mean of each member's variance
    plus its squared offset from that position: in real arithmetic the
    moments of the members' summed attention, up to the ``EPS`` in each
    member's mass. A singleton keeps its slot's geometry bit for bit.
    A ``partition`` other than None (e.g. singletons to skip merging)
    bypasses clustering, and the pooled statistics are still produced.
    """
    if not 0.0 < tau_merge < 2.0:
        raise dc.ConfigError(f"merge threshold must lie in (0, 2), got {tau_merge}")
    if partition is None:
        dist = cosine_distances(c.data)
        partition = complete_linkage(dist, tau_merge)
    member = np.zeros((len(partition), c.shape[0]), c.data.dtype)  # K_t x K
    for row, members in zip(member, partition):
        row[members] = 1.0
    cprime = dc.matmul(Tensor(member / member.sum(axis=1, keepdims=True)), c)
    mass = member @ geometry.mass
    w = member * geometry.mass / mass[:, None]
    position = w @ geometry.position
    offset = geometry.position - position[:, None]      # K_t x K x 2
    var = np.einsum("ck,ckd->cd", w, geometry.var + offset * offset)
    return MergedSlots(cprime=cprime, members=partition, position=position,
                       scale=np.sqrt(var + EPS))


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
                         hidden: int, n_layers: int) -> dict:
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
           d_out: int, n_layers: int) -> DecodedFrame:
    """Spatial-broadcast decode of merged slots over the full grid."""
    k_t = ms.k_t
    n = full_grid.shape[0]
    d_slot = ms.cprime.shape[1]

    # slot-relative coordinates (G - S_p) / (delta * S_s), K_t x N x 2
    rel = (full_grid - ms.position[:, None]) / (ms.scale[:, None] * delta)
    h_rel = dc.linear(Tensor(np.asarray(rel, params.dtype)), params["merge.h.w"],
                      params["merge.h.b"])
    x = dc.add(dc.reshape(ms.cprime, (k_t, 1, d_slot)), params["dec.pos"])
    x = dc.add(x, h_rel)                                  # K_t x N x D_slot

    h = dc.mlp(dc.reshape(x, (k_t * n, d_slot)),
               [(params[f"dec.l{l}.w"], params[f"dec.l{l}.b"]) for l in range(n_layers)])
    out = dc.reshape(h, (k_t, n, d_out + 1))

    y_slots = dc.slice_axis(out, 2, 0, d_out)
    alpha = dc.reshape(dc.slice_axis(out, 2, d_out, d_out + 1), (k_t, n))
    m = dc.softmax(alpha, axis=0)
    y = dc.reduce_sum(dc.mul(dc.reshape(m, (k_t, n, 1)), y_slots), axis=0)
    return DecodedFrame(y=y, m=m)


def reconstruction_loss(y: Tensor, target) -> Tensor:
    """Mean squared difference over every grid position and channel."""
    if y.shape != np.shape(target):
        raise ShapeError(f"reconstruction {y.shape} vs target {np.shape(target)}")
    diff = y - target  # a numpy target becomes a constant of y's dtype
    return dc.reduce_mean(dc.mul(diff, diff))
