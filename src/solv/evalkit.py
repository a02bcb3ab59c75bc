"""Inference-time tracking and segmentation metrics.

Hungarian assignment is solved exactly by the potentials (shortest
augmenting path) method, each path step a numpy scan over all columns,
and then refined to the lexicographically smallest optimal assignment so
results are reproducible under ties. The refinement re-solves only for
columns whose reduced cost under the first solve's optimal dual is
within the tie tolerance; no other column can be part of an optimum.

Both metrics read one contingency table of label co-occurrence counts,
built with a single ``np.bincount`` over compacted label ids, so a video
is scored in a few passes over its pixels whatever its track count.
Metrics follow the foreground-only convention: background (label 0 in
ground truth) is never a matchable object, while predictions label every
pixel with some track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------

def _solve_potentials(cost: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact minimum assignment of an R x C matrix with R <= C.

    Returns the total and an optimal dual: row potentials ``u`` and
    column potentials ``v <= 0`` with ``cost - u[:, None] - v >= 0``,
    equality on the assignment found and ``v == 0`` on the columns it
    leaves free. Rows are added one at a time by a shortest augmenting
    path whose every step scans all columns as arrays; ``argmin`` takes
    the first minimum, as a scan in column order does.
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
    cols = (match >= 0).nonzero()[0]
    # summed in column order, one addition at a time
    total = sum(cost[match[cols], cols].tolist(), 0.0)
    return float(total), u, v


def _min_assignment(cost: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum assignment total of any R x C matrix and its reduced costs.

    Every edge of an assignment within ``tol`` of the minimum has a
    reduced cost of at most ``tol`` (complementary slackness).
    """
    if 0 in cost.shape:
        return 0.0, cost
    if cost.shape[0] <= cost.shape[1]:
        total, u, v = _solve_potentials(cost)
        return total, cost - u[:, None] - v
    total, u, v = _solve_potentials(cost.T)
    return total, cost - v[:, None] - u


def hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost assignment of size min(R, C) as (row, col) pairs.

    Among optimal assignments, returns the one whose (row, col) sequence
    is lexicographically smallest: row by row, the first column that
    still completes to an optimum. Only columns whose reduced cost under
    the first solve's dual is within the tie tolerance are tried.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    best, reduced = _min_assignment(cost)
    tol = 1e-9 * max(1.0, abs(best))
    rows = list(range(cost.shape[0]))
    cols = list(range(cost.shape[1]))
    pairs: list[tuple[int, int]] = []
    fixed = 0.0
    target = min(cost.shape)
    while rows and cols and len(pairs) < target:
        r = rows[0]
        rest = rows[1:]
        chosen = -1
        for c in cols:
            if reduced[r, c] > tol:
                continue
            sub = cost[rest][:, [cc for cc in cols if cc != c]]
            if abs(fixed + cost[r, c] + _min_assignment(sub)[0] - best) <= tol:
                chosen = c
                break
        if chosen < 0:
            # only possible with more rows than columns: this row sits out
            rows.pop(0)
            continue
        pairs.append((r, chosen))
        fixed += cost[r, chosen]
        rows.pop(0)
        cols.remove(chosen)
    return pairs


def assignment_total(cost, pairs) -> float:
    cost = np.asarray(cost, dtype=np.float64)
    return float(sum(cost[r, c] for r, c in pairs))


# ---------------------------------------------------------------------------
# Tracking
# ---------------------------------------------------------------------------

@dataclass
class TrackedSegmentation:
    frames: np.ndarray        # F x H x W track labels
    track_maps: list          # per frame: array mapping slot index -> track id
    n_tracks: int


def _cosine_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    na = np.where(na == 0, 1.0, na)
    nb = np.where(nb == 0, 1.0, nb)
    return 1.0 - (a / na[:, None]) @ (b / nb[:, None]).T


def link_tracks(slot_vectors: list, label_frames: list) -> TrackedSegmentation:
    """Chain per-frame slots into tracks via assignment on slot similarity.

    Matched slots inherit the earlier frame's track id; slots left
    unmatched (when counts differ) open fresh tracks.
    """
    if len(slot_vectors) != len(label_frames):
        raise ValueError("one slot-vector matrix per label frame required")
    track_maps = []
    first = np.arange(slot_vectors[0].shape[0], dtype=np.int64)
    track_maps.append(first)
    next_id = int(first.size)
    for t in range(1, len(slot_vectors)):
        prev_v, cur_v = slot_vectors[t - 1], slot_vectors[t]
        pairs = hungarian(_cosine_cost(prev_v, cur_v))
        cur_map = np.full(cur_v.shape[0], -1, dtype=np.int64)
        for i, j in pairs:
            cur_map[j] = track_maps[t - 1][i]
        for j in range(cur_v.shape[0]):
            if cur_map[j] < 0:
                cur_map[j] = next_id
                next_id += 1
        track_maps.append(cur_map)
    out = np.stack([
        track_maps[t][label_frames[t].astype(np.int64)]
        for t in range(len(label_frames))
    ])
    return TrackedSegmentation(frames=out, track_maps=track_maps, n_tracks=next_id)


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def bilinear_resize(maps: np.ndarray, h: int, w: int) -> np.ndarray:
    """Resize (K, rows, cols) maps to (K, h, w) with half-pixel centers."""
    _, rows, cols = maps.shape
    ys = np.clip((np.arange(h) + 0.5) * rows / h - 0.5, 0, rows - 1)
    xs = np.clip((np.arange(w) + 0.5) * cols / w - 0.5, 0, cols - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, rows - 1)
    x1 = np.minimum(x0 + 1, cols - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    v00 = maps[:, y0[:, None], x0[None, :]]
    v01 = maps[:, y0[:, None], x1[None, :]]
    v10 = maps[:, y1[:, None], x0[None, :]]
    v11 = maps[:, y1[:, None], x1[None, :]]
    top = v00 * (1 - wx) + v01 * wx
    bot = v10 * (1 - wx) + v11 * wx
    return top * (1 - wy) + bot * wy


def rasterize(m: np.ndarray, rows: int, cols: int, h: int, w: int) -> np.ndarray:
    """Patch-level masks to pixel-level hard labels.

    Each slot mask is reshaped to the patch grid, bilinearly upsampled,
    and pixels take the argmax slot (ties go to the lower index).
    """
    k_t, n = m.shape
    if n != rows * cols:
        raise ValueError(f"mask width {n} != grid {rows}x{cols}")
    up = bilinear_resize(m.reshape(k_t, rows, cols), h, w)
    return np.argmax(up, axis=0).astype(np.int64)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _compact(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct labels in ascending order and each element's index among them.

    Integer labels spanning less than the array's length or 2**16 are
    looked up in a presence table over their range instead of sorted.
    """
    labels = np.asarray(labels).ravel()
    if labels.size == 0:
        return labels, np.zeros(0, dtype=np.intp)
    if labels.dtype.kind in "iu" and np.can_cast(labels.dtype, np.intp):
        lo, hi = int(labels.min()), int(labels.max())
        if hi - lo < max(labels.size, 1 << 16):
            shifted = labels.astype(np.intp)
            shifted -= lo
            present = np.zeros(hi - lo + 1, dtype=bool)
            present[shifted] = True
            ids = (np.flatnonzero(present) + lo).astype(labels.dtype)
            return ids, (np.cumsum(present) - 1)[shifted]
    ids, codes = np.unique(labels, return_inverse=True)
    return ids, codes.ravel()


def _contingency(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct labels of a and of b, and the count of each (a, b) pair.

    ``table[i, j]`` counts the elements labelled ``a_ids[i]`` in a and
    ``b_ids[j]`` in b; ids ascend, and the table has one row and column
    per label present, however large the label values.
    """
    if np.size(a) != np.size(b):
        raise ValueError("labelings must have equal length")
    a_ids, ai = _compact(a)
    b_ids, bi = _compact(b)
    ai *= b_ids.size  # row-major index of each element's (a, b) pair
    ai += bi
    table = np.bincount(ai, minlength=a_ids.size * b_ids.size)
    return a_ids, b_ids, table.reshape(a_ids.size, b_ids.size)


def _comb2(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    return x * (x - 1.0) / 2.0


def _ari(tables: np.ndarray) -> np.ndarray:
    """ARI of each contingency table along the leading axis, under the
    permutation model.

    Degenerate cases (zero expected-index denominator): 1.0 when the two
    labelings induce the same partition, 0.0 otherwise. The comb2 sums
    are integer-valued, so zero rows and columns leave them exact.
    """
    rows, cols = tables.sum(axis=2), tables.sum(axis=1)
    sum_ij = _comb2(tables).sum(axis=(1, 2))
    sum_a = _comb2(rows).sum(axis=1)
    sum_b = _comb2(cols).sum(axis=1)
    total = _comb2(rows.sum(axis=1))
    expected = np.divide(sum_a * sum_b, total, out=np.zeros_like(total), where=total > 0)
    max_index = 0.5 * (sum_a + sum_b)
    degenerate = max_index == expected
    same = (np.count_nonzero(tables, axis=1) <= 1).all(axis=1) & \
           (np.count_nonzero(tables, axis=2) <= 1).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ari = (sum_ij - expected) / (max_index - expected)
    return np.where(degenerate, same.astype(np.float64), ari)


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """ARI of two labelings of the same elements (see ``_ari``)."""
    return float(_ari(_contingency(a, b)[2][None])[0])


def fg_ari(pred: np.ndarray, gt: np.ndarray) -> float | None:
    """ARI restricted to ground-truth foreground pixels of one frame.

    Returns None when fewer than 2 foreground pixels exist.
    """
    return mean_fg_ari(np.asarray(pred)[None], np.asarray(gt)[None])[0]


def _check_shapes(pred_frames, gt_frames) -> None:
    if np.shape(pred_frames) != np.shape(gt_frames):
        raise ValueError(f"prediction shape {np.shape(pred_frames)} differs from "
                         f"ground truth {np.shape(gt_frames)}")


def mean_fg_ari(pred_frames: np.ndarray, gt_frames: np.ndarray) -> tuple[float | None, int]:
    """Per-frame foreground ARI averaged over the video.

    One (frame, pred, gt) table counts the foreground pixels of every
    frame. Frames with fewer than 2 foreground pixels are skipped;
    returns (mean, skipped), with mean None when no frame qualified.
    """
    _check_shapes(pred_frames, gt_frames)
    pred, gt = np.asarray(pred_frames), np.asarray(gt_frames)
    fg = (gt > 0).reshape(len(gt), math.prod(gt.shape[1:]))
    n_fg = np.count_nonzero(fg, axis=1)
    frame = np.repeat(np.arange(len(gt)), n_fg)
    pred_ids, pi = _compact(pred.reshape(fg.shape)[fg])
    gt_ids, gi = _compact(gt.reshape(fg.shape)[fg])
    cell = (frame * pred_ids.size + pi) * gt_ids.size + gi
    tables = np.bincount(cell, minlength=len(gt) * pred_ids.size * gt_ids.size)
    tables = tables.reshape(len(gt), pred_ids.size, gt_ids.size)
    scored = n_fg >= 2
    skipped = int(np.count_nonzero(~scored))
    if not scored.any():
        return None, skipped
    return float(np.mean(_ari(tables[scored]))), skipped


def video_miou(pred_frames: np.ndarray, gt_frames: np.ndarray,
               per_frame: bool = False, exclude_pred=()) -> float | None:
    """Mean IoU of ground-truth objects after optimal track matching.

    IoU is computed over the full video volume per (gt object, pred
    track); gt objects left unmatched contribute 0. Predictions normally
    label every pixel with some track; ``exclude_pred`` names ids that
    are not tracks (thresholded background). ``per_frame`` matches each
    frame independently instead (for comparison only). Prediction and
    ground truth must have the same shape.
    """
    _check_shapes(pred_frames, gt_frames)
    if per_frame:
        vals = [video_miou(p[None], g[None], exclude_pred=exclude_pred)
                for p, g in zip(pred_frames, gt_frames)]
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None
    gt_ids, pred_ids, table = _contingency(gt_frames, pred_frames)
    objects = gt_ids > 0
    if not objects.any():
        return None
    tracks = ~np.isin(pred_ids, list(exclude_pred))
    if not tracks.any():
        return 0.0
    inter = table[np.ix_(objects, tracks)]
    union = table.sum(axis=1)[objects, None] + table.sum(axis=0)[None, tracks] - inter
    iou = inter / union
    pairs = hungarian(1.0 - iou)
    matched = {r: iou[r, c] for r, c in pairs}
    return float(np.mean([matched.get(i, 0.0) for i in range(iou.shape[0])]))


def k_t_histogram(pred_frames: np.ndarray) -> dict[int, int]:
    """Histogram of per-frame distinct track counts."""
    hist: dict[int, int] = {}
    for frame in pred_frames:
        k = _compact(frame)[0].size
        hist[k] = hist.get(k, 0) + 1
    return hist
