"""Inference-time tracking and segmentation metrics.

Hungarian assignment is one exact solve by the potentials (shortest
augmenting path) method, each path step a numpy scan over all columns.
Among tied optima it returns the one the scans' first-minimum choices
reach, so the same matrix always gives the same pairs. Callers need no
more: mIoU depends only on the optimal total, and track linking only on
an optimum that is the same for the same matrix.

``score_video`` is the one scoring path. It counts a video into one
(frame, gt label, pred label) table of pixels; ``mean_fg_ari`` reads its
foreground rows, ``video_miou`` its sum over frames, and the track count
of each frame is its nonzero columns. The count compares each pixel with
its left neighbour once and then works on label runs: masks are
piecewise constant, so a video has a few runs per row, and one weighted
``np.bincount`` adds each run's length to its cell.
Metrics follow the foreground-only convention: background (label 0 in
ground truth) is never a matchable object, while predictions label every
pixel with some track.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .objecthead import unit_rows


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------

def _solve_potentials(cost: np.ndarray) -> np.ndarray:
    """Exact minimum assignment of an R x C matrix with R <= C, as the
    row matched to each column (-1 for the columns left free).

    Rows are added one at a time by a shortest augmenting path whose
    every step scans all columns as arrays, keeping row potentials ``u``
    and column potentials ``v`` with ``cost - u[:, None] - v >= 0``;
    ``argmin`` takes the first minimum, as a scan in column order does.
    """
    r, c = cost.shape
    u = np.zeros(r)
    v = np.zeros(c)
    match = np.full(c, -1)  # column -> row, -1 free
    minv = np.empty(c)      # shortest reduced path cost to each column
    used = np.empty(c, dtype=bool)
    way = np.empty(c, dtype=match.dtype)  # previous column on that path, -1 row i
    for i in range(r):
        minv[:] = np.inf
        used[:] = False
        way[:] = -1
        i0, j0 = i, -1
        while True:
            cur = cost[i0] - u[i0] - v
            better = cur < minv
            better &= ~used
            np.copyto(minv, cur, where=better)
            np.copyto(way, j0, where=better)
            open_minv = np.where(used, np.inf, minv)
            j0 = int(open_minv.argmin())
            delta = open_minv[j0]
            u[i] += delta
            u[match[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            if match[j0] < 0:
                break
            used[j0] = True
            i0 = match[j0]
        while j0 >= 0:
            prev = way[j0]
            match[j0] = match[prev] if prev >= 0 else i
            j0 = prev
    return match


def hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost assignment of size min(R, C) as (row, col) pairs,
    sorted by row: one exact solve, of the transpose when there are more
    rows than columns. Among tied optima the pairs are those the solve's
    first-minimum scans reach, the same result for the same matrix."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    if cost.size == 0:
        return []
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    tall = cost.shape[0] > cost.shape[1]
    match = _solve_potentials(cost.T if tall else cost)
    matched = (match >= 0).nonzero()[0]
    rows, cols = (matched, match[matched]) if tall else (match[matched], matched)
    return sorted(zip(map(int, rows), map(int, cols)))


# ---------------------------------------------------------------------------
# Tracking
# ---------------------------------------------------------------------------

@dataclass
class TrackedSegmentation:
    frames: np.ndarray        # F x H x W track labels, in the smallest
                              # unsigned type that holds n_tracks - 1
    track_maps: list          # per frame: array mapping slot index -> track id
    n_tracks: int


def link_tracks(slot_vectors: list, label_frames: list) -> TrackedSegmentation:
    """Chain per-frame slots into tracks via assignment on slot similarity.

    Matched slots inherit the earlier frame's track id; slots left
    unmatched (when counts differ) open fresh tracks.
    """
    if len(slot_vectors) != len(label_frames):
        raise ValueError("one slot-vector matrix per label frame required")
    if not slot_vectors:
        raise ValueError("video has no frames")
    track_maps = [np.arange(len(slot_vectors[0]), dtype=np.int64)]
    next_id = len(track_maps[0])
    units = [unit_rows(v)[0] for v in slot_vectors]
    for t in range(1, len(slot_vectors)):
        pairs = hungarian(1.0 - units[t - 1] @ units[t].T)
        cur_map = np.full(len(units[t]), -1, dtype=np.int64)
        for i, j in pairs:
            cur_map[j] = track_maps[t - 1][i]
        for j in range(len(units[t])):
            if cur_map[j] < 0:
                cur_map[j] = next_id
                next_id += 1
        track_maps.append(cur_map)
    out = np.empty((len(label_frames),) + np.shape(label_frames[0]),
                   np.min_scalar_type(next_id - 1))
    for t, labels in enumerate(label_frames):
        np.take(track_maps[t], labels, out=out[t])
    return TrackedSegmentation(frames=out, track_maps=track_maps, n_tracks=next_id)


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def bilinear_resize(maps: np.ndarray, h: int, w: int) -> np.ndarray:
    """Resize (K, rows, cols) maps to (K, h, w) with half-pixel centers,
    interpolating along x first and then along y."""
    _, rows, cols = maps.shape
    ys = np.clip((np.arange(h) + 0.5) * rows / h - 0.5, 0, rows - 1)
    xs = np.clip((np.arange(w) + 0.5) * cols / w - 0.5, 0, cols - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, rows - 1)
    x1 = np.minimum(x0 + 1, cols - 1)
    wy = (ys - y0)[None, :, None]
    wx = xs - x0
    across = maps[:, :, x0] * (1 - wx) + maps[:, :, x1] * wx
    return across[:, y0] * (1 - wy) + across[:, y1] * wy


def rasterize(m: np.ndarray, rows: int, cols: int, h: int, w: int) -> np.ndarray:
    """Patch-level masks to pixel-level hard labels.

    Each slot mask is reshaped to the patch grid, bilinearly upsampled,
    and pixels take the argmax slot (ties go to the lower index). Labels
    come in the smallest unsigned type that holds ``k_t - 1``: uint8 for
    up to 256 slots.
    """
    k_t, n = m.shape
    if k_t == 0:
        raise ValueError(f"no slot masks to rasterize: shape {m.shape}")
    if n != rows * cols:
        raise ValueError(f"mask width {n} != grid {rows}x{cols}")
    up = bilinear_resize(m.reshape(k_t, rows, cols), h, w)
    return np.argmax(up, axis=0).astype(np.min_scalar_type(k_t - 1), copy=False)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _table(pred_frames, gt_frames) -> tuple[np.ndarray, np.ndarray]:
    """Pixel counts per (frame, gt label, pred label) of two same-shape
    label videos, and the gt labels of its rows. Only labels present
    somewhere keep a row or column, rows and columns ascending by label.

    Each frame is read in raster order as runs of pixels on which both
    labels stay the same; a run starts at each frame's first pixel and
    wherever either map changes label, and adds its length to its cell.
    Masks are piecewise constant, so a video has a few runs per row and
    the count and the label ranges work on runs, not pixels; labels that
    change at nearly every pixel are counted as exactly, only slower than
    a per-pixel count would be. Labels that are not integers, or whose
    ranges would make the table larger than max(pixels, 2**16), are
    compacted by ``np.unique`` first, so no table is sized by a raw label
    value."""
    if np.shape(pred_frames) != np.shape(gt_frames):
        raise ValueError(f"prediction shape {np.shape(pred_frames)} differs from "
                         f"ground truth {np.shape(gt_frames)}")
    pred, gt = np.asarray(pred_frames), np.asarray(gt_frames)
    f = len(gt)
    if gt.size == 0:
        return np.zeros((f, 0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    pixels = gt.size
    pred, gt = pred.reshape(f, -1), gt.reshape(f, -1)
    change = np.empty(gt.shape, dtype=bool)
    change[:, 0] = True
    np.not_equal(gt[:, 1:], gt[:, :-1], out=change[:, 1:])
    change[:, 1:] |= pred[:, 1:] != pred[:, :-1]
    starts = np.flatnonzero(change)
    frame_runs = np.diff(np.searchsorted(starts, np.arange(f + 1) * gt.shape[1]))
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = pixels - starts[-1]
    gt, pred = np.take(gt, starts), np.take(pred, starts)
    direct = all(x.dtype.kind in "iu" and np.can_cast(x.dtype, np.int64) for x in (gt, pred))
    if direct:
        (g_lo, g_hi), (p_lo, p_hi) = ((int(x.min()), int(x.max())) for x in (gt, pred))
        n_g, n_p = g_hi - g_lo + 1, p_hi - p_lo + 1
        direct = f * n_g * n_p <= max(pixels, 1 << 16)
    if direct:
        g_vals = g_lo + np.arange(n_g)
        # each label less its own low lies in [0, n), exact in int64
        gt, pred = (np.subtract(x, lo, dtype=np.int64) for x, lo in ((gt, g_lo), (pred, p_lo)))
    else:
        (g_vals, gt), (p_vals, pred) = (np.unique(x, return_inverse=True)
                                        for x in (gt, pred))
        n_g, n_p = g_vals.size, p_vals.size
    cell = np.repeat(np.arange(0, f * n_g * n_p, n_g * n_p), frame_runs)
    cell += gt * n_p
    cell += pred
    # float64 sums of whole run lengths are exact below 2**53 pixels
    table = np.bincount(cell, weights=lengths, minlength=f * n_g * n_p)
    table = table.astype(np.int64).reshape(f, n_g, n_p)
    g_seen, p_seen = table.any(axis=(0, 2)), table.any(axis=(0, 1))
    return table[:, g_seen][:, :, p_seen], g_vals[g_seen]


def _ari(tables: np.ndarray) -> np.ndarray:
    """ARI of each integer contingency table along the leading axis, under
    the permutation model.

    Degenerate cases (zero expected-index denominator): 1.0 when the two
    labelings induce the same partition, 0.0 otherwise. Pair counts are
    exact integers, sum c(c-1)/2 = (sum c**2 - n)/2 over the counts c of
    n pixels, and exact in float64 below 2**53.
    """
    rows, cols = tables.sum(axis=2), tables.sum(axis=1)
    n = rows.sum(axis=1)
    sum_ij, sum_a, sum_b, total = (
        ((np.square(x).sum(axis=tuple(range(1, x.ndim))) - n) // 2).astype(np.float64)
        for x in (tables, rows, cols, n[:, None]))
    expected = np.divide(sum_a * sum_b, total, out=np.zeros_like(total), where=total > 0)
    max_index = 0.5 * (sum_a + sum_b)
    degenerate = max_index == expected
    same = (np.count_nonzero(tables, axis=1) <= 1).all(axis=1) & \
           (np.count_nonzero(tables, axis=2) <= 1).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ari = (sum_ij - expected) / (max_index - expected)
    return np.where(degenerate, same.astype(np.float64), ari)


def mean_fg_ari(table: np.ndarray, gt_ids: np.ndarray) -> tuple[float | None, int]:
    """Per-frame foreground ARI of a (frame, gt, pred) count table,
    averaged over the video.

    Frames with fewer than 2 foreground pixels are skipped; returns
    (mean, skipped), with mean None when no frame qualified.
    """
    fg = table[:, gt_ids > 0]
    scored = fg.sum(axis=(1, 2)) >= 2
    skipped = int(np.count_nonzero(~scored))
    if not scored.any():
        return None, skipped
    return float(np.mean(_ari(fg[scored]))), skipped


def video_miou(table: np.ndarray, gt_ids: np.ndarray) -> float | None:
    """Mean IoU of the gt objects of a whole-video (gt, pred) count table
    after optimal track matching; gt objects left unmatched contribute 0.
    Every row and column holds a pixel: each foreground row is an object,
    each column a track."""
    objects = gt_ids > 0
    if not objects.any():
        return None
    inter = table[objects]
    union = table.sum(axis=1)[objects, None] + table.sum(axis=0) - inter
    iou = inter / union
    pairs = hungarian(1.0 - iou)  # gt objects are the rows
    matched = {r: iou[r, c] for r, c in pairs}
    return float(np.mean([matched.get(i, 0.0) for i in range(iou.shape[0])]))


def score_video(pred_frames: np.ndarray, gt_frames: np.ndarray) -> dict:
    """Foreground ARI with its skipped-frame count, video mIoU and the
    histogram of per-frame track counts, all from one count table of two
    same-shape label videos."""
    table, gt_ids = _table(pred_frames, gt_frames)
    ari, skipped = mean_fg_ari(table, gt_ids)
    return {"fg_ari": ari, "miou": video_miou(table.sum(axis=0), gt_ids),
            "skipped_frames": skipped,
            "k_t_histogram": dict(Counter(map(int, np.count_nonzero(table.sum(axis=1), axis=1))))}
