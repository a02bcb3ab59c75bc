"""Assignment, tracking, rasterization, and metric oracles.

Every nontrivial result is checked against an independent brute-force
computation: permutation search for assignments, pair counting for the
rand index, and set arithmetic for IoU. The assignment solver is also
checked pair for pair against the pure-Python reference solver, and the
metrics value for value against loops over boolean masks.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_hungarian
from solv import datagen, evalkit
from solv.config import DataConfig
from solv.evalkit import (
    bilinear_resize, hungarian, link_tracks, rasterize, score_video,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import dense_tracks  # noqa: E402


def brute_force_min_assignment(cost: np.ndarray) -> float:
    """Exhaustive minimum total over all maximal assignments."""
    r, c = cost.shape
    best = np.inf
    if r <= c:
        for perm in itertools.permutations(range(c), r):
            total = sum(cost[i, perm[i]] for i in range(r))
            best = min(best, total)
    else:
        for perm in itertools.permutations(range(r), c):
            total = sum(cost[perm[j], j] for j in range(c))
            best = min(best, total)
    return best


def mask_loop_ari(a, b) -> float:
    """ARI with its contingency table counted one boolean mask per cell."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    table = np.array([[np.count_nonzero((a == x) & (b == y)) for y in np.unique(b)]
                      for x in np.unique(a)], dtype=np.int64)

    def comb2(x):
        x = x.astype(np.float64)
        return x * (x - 1.0) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(np.asarray(a.size))
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        same = (np.count_nonzero(table, axis=0) <= 1).all() and \
               (np.count_nonzero(table, axis=1) <= 1).all()
        return 1.0 if same else 0.0
    return float((sum_ij - expected) / (max_index - expected))


def mask_loop_miou(pred_frames, gt_frames):
    """Video mIoU with IoU from full-volume boolean masks, one per
    (gt object, pred track), matched by the reference solver."""
    gt_ids = [int(i) for i in np.unique(gt_frames) if i > 0]
    if not gt_ids:
        return None
    pred_ids = [int(i) for i in np.unique(pred_frames)]
    iou = np.zeros((len(gt_ids), len(pred_ids)))
    for gi, g in enumerate(gt_ids):
        gm = gt_frames == g
        for pi, p in enumerate(pred_ids):
            pm = pred_frames == p
            inter = np.logical_and(gm, pm).sum()
            union = np.logical_or(gm, pm).sum()
            iou[gi, pi] = inter / union if union else 0.0
    pairs = reference_hungarian(1.0 - iou)
    matched = {r: iou[r, c] for r, c in pairs}
    return float(np.mean([matched.get(i, 0.0) for i in range(len(gt_ids))]))


def mask_loop_score(pred_frames, gt_frames) -> dict:
    """score_video from the mask loops: per-frame foreground ARI, the
    full-volume mIoU and distinct track counts per frame, keyed by str."""
    aris = [mask_loop_ari(p[g > 0], g[g > 0])
            for p, g in zip(pred_frames, gt_frames) if (g > 0).sum() >= 2]
    hist = {}
    for k in (str(np.unique(frame).size) for frame in pred_frames):
        hist[k] = hist.get(k, 0) + 1
    return {
        "fg_ari": float(np.mean(aris)) if aris else None,
        "miou": mask_loop_miou(pred_frames, gt_frames),
        "k_t_histogram": hist,
    }


def add_at_table(pred_frames, gt_frames):
    """(frame, gt, pred) counts of two label videos, one ``np.add.at``
    increment per pixel, and the gt labels of the rows."""
    pred, gt = np.asarray(pred_frames), np.asarray(gt_frames)
    g_vals, g_idx = np.unique(gt.ravel(), return_inverse=True)
    p_vals, p_idx = np.unique(pred.ravel(), return_inverse=True)
    table = np.zeros((len(gt), g_vals.size, p_vals.size), dtype=np.int64)
    frame = np.repeat(np.arange(len(gt)), gt[0].size)
    np.add.at(table, (frame, g_idx.ravel(), p_idx.ravel()), 1)
    return table, g_vals


def raster_runs(pred_frames, gt_frames) -> int:
    """Runs of a video read frame by frame in raster order: maximal
    stretches of pixels within one frame on which neither label changes."""
    runs = 0
    for p, g in zip(pred_frames, gt_frames):
        pairs = list(zip(np.ravel(p).tolist(), np.ravel(g).tolist()))
        runs += 1 + sum(a != b for a, b in zip(pairs, pairs[1:]))
    return runs


# The metrics under test, each read from ``score_video``, the program's
# one scoring call.

def fg_ari(pred, gt):
    """Foreground ARI of one frame, scored as a one-frame video."""
    return score_video(np.asarray(pred)[None], np.asarray(gt)[None])["fg_ari"]


def adjusted_rand_index(a, b):
    """ARI of two labelings of the same elements: the foreground ARI of a
    one-frame video whose ground truth ranks ``b``'s labels from 1, so
    every element is foreground."""
    a, b = np.ravel(a), np.ravel(b)
    return fg_ari(a, np.unique(b, return_inverse=True)[1] + 1)


def video_miou(pred_frames, gt_frames):
    return score_video(pred_frames, gt_frames)["miou"]


def assignment_total(cost, pairs) -> float:
    cost = np.asarray(cost, dtype=np.float64)
    return float(sum(cost[r, c] for r, c in pairs))


def dense_track_videos(n: int, seed: int = 0):
    """(pred, gt) pairs as the eval-dense benchmark scores them: rendered
    validation clips against over-segmented, re-born tracks."""
    d = DataConfig()
    _, specs = datagen.dataset_split(d.seed, 10 * n + 10, (d.canvas_h, d.canvas_w),
                                     d.patch, d.frames, (d.sprite_min, d.sprite_max))
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features, d.sigma_noise)
    rng = np.random.default_rng(seed)
    for spec in specs[:n]:
        gt = datagen.render_clip(spec, oracle).gt_pixel_labels
        yield dense_tracks(gt, rng), gt


def pair_counting_ari(a, b) -> float:
    """ARI via explicit agreement counts over all point pairs."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    n = a.size
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            ss += same_a and same_b
            sd += same_a and not same_b
            ds += not same_a and same_b
            dd += not (same_a or same_b)
    total = ss + sd + ds + dd
    index = ss
    expected = (ss + sd) * (ss + ds) / total if total else 0.0
    maximum = ((ss + sd) + (ss + ds)) / 2
    if maximum == expected:
        return 1.0 if sd == 0 and ds == 0 else 0.0
    return (index - expected) / (maximum - expected)


def four_gather_resize(maps: np.ndarray, h: int, w: int) -> np.ndarray:
    """Bilinear resize with half-pixel centers from the four corner
    gathers of every output pixel."""
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


def comb2_ari(tables: np.ndarray) -> np.ndarray:
    """ARI of each table along the leading axis from float64 pair counts
    c(c-1)/2: the float formulation that the integer pair counts of
    ``evalkit._ari`` must match bit for bit."""
    def comb2(x):
        x = x.astype(np.float64)
        return x * (x - 1.0) / 2.0

    rows, cols = tables.sum(axis=2), tables.sum(axis=1)
    sum_ij = comb2(tables).sum(axis=(1, 2))
    sum_a = comb2(rows).sum(axis=1)
    sum_b = comb2(cols).sum(axis=1)
    total = comb2(rows.sum(axis=1))
    expected = np.divide(sum_a * sum_b, total, out=np.zeros_like(total), where=total > 0)
    max_index = 0.5 * (sum_a + sum_b)
    degenerate = max_index == expected
    same = (np.count_nonzero(tables, axis=1) <= 1).all(axis=1) & \
           (np.count_nonzero(tables, axis=2) <= 1).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ari = (sum_ij - expected) / (max_index - expected)
    return np.where(degenerate, same.astype(np.float64), ari)


class TestHungarian:
    def test_two_by_two_example(self):
        pairs = hungarian([[1.0, 2.0], [3.0, 1.0]])
        assert pairs == [(0, 0), (1, 1)]
        assert assignment_total([[1.0, 2.0], [3.0, 1.0]], pairs) == 2.0

    def test_zero_diagonal_picks_identity(self):
        cost = np.full((4, 4), 5.0)
        np.fill_diagonal(cost, 0.0)
        assert hungarian(cost) == [(i, i) for i in range(4)]

    def test_empty_matrix(self):
        assert hungarian(np.zeros((0, 0))) == []

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_one_empty_side_assigns_nothing(self, shape):
        assert hungarian(np.zeros(shape)) == []

    @pytest.mark.parametrize("cost", [[], np.zeros((2, 0, 3)), np.zeros(3), 1.0],
                             ids=["empty_list", "empty_3d", "vector", "scalar"])
    def test_rejects_non_matrix(self, cost):
        with pytest.raises(ValueError, match="cost must be a matrix"):
            hungarian(cost)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hungarian([[np.inf, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_square(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        cost = rng.normal(size=(n, n))
        pairs = hungarian(cost)
        assert len(pairs) == n
        assert assignment_total(cost, pairs) == pytest.approx(
            brute_force_min_assignment(cost), abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_rectangular(self, seed):
        rng = np.random.default_rng(100 + seed)
        r = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        cost = rng.integers(0, 20, size=(r, c)).astype(float)
        pairs = hungarian(cost)
        assert len(pairs) == min(r, c)
        rows = [p[0] for p in pairs]
        cols = [p[1] for p in pairs]
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        assert assignment_total(cost, pairs) == pytest.approx(
            brute_force_min_assignment(cost), abs=1e-12)

    def test_all_equal_costs_give_identity(self):
        # every assignment is optimal; the first-minimum scans pick the diagonal
        assert hungarian(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]
        assert hungarian(np.ones((2, 2))) == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("tall", [False, True])
    def test_lexicographic_optimum_on_tie_heavy_matrices(self, tall):
        """Integer costs in 0-3 tie often: the pairs are exactly the
        reference solve's and their total the brute-force minimum."""
        rng = np.random.default_rng(7 + tall)
        for _ in range(40):
            short = int(rng.integers(1, 6))
            shape = (short, int(rng.integers(short + 1, 7)))
            cost = rng.integers(0, 4, size=shape[::-1] if tall else shape).astype(float)
            pairs = hungarian(cost)
            assert pairs == reference_hungarian(cost)
            assert assignment_total(cost, pairs) == brute_force_min_assignment(cost)

    @pytest.mark.parametrize("rows, cols, ties", [
        (4, 71, False), (4, 71, True), (71, 4, True),
        (24, 24, False), (24, 24, True), (48, 48, False),
    ])
    def test_matches_reference_solver(self, rows, cols, ties):
        rng = np.random.default_rng(rows * 100 + cols + ties)
        if ties:
            cost = rng.integers(0, 4, size=(rows, cols)).astype(float)
        else:
            cost = rng.random((rows, cols))
        assert hungarian(cost) == reference_hungarian(cost)

    @staticmethod
    def _dense_track_iou(n):
        """Whole-video (object, track) IoU of ``n`` dense-track videos."""
        for pred, gt in dense_track_videos(n):
            objects = [g for g in np.unique(gt) if g > 0]
            yield np.array([[np.sum((gt == g) & (pred == t)) / np.sum((gt == g) | (pred == t))
                             for t in np.unique(pred)] for g in objects])

    def test_matches_reference_solver_on_dense_track_iou(self):
        for iou in self._dense_track_iou(4):
            assert iou.shape[1] > 30
            assert hungarian(1.0 - iou) == reference_hungarian(1.0 - iou)

    def test_one_solve_per_call(self, monkeypatch):
        """Ties are not refined: tie-heavy integer costs, all-equal costs
        and dense-track IoU each take exactly one solve."""
        real, calls = evalkit._solve_potentials, []

        def counted(cost):
            calls.append(cost.shape)
            return real(cost)

        monkeypatch.setattr(evalkit, "_solve_potentials", counted)
        rng = np.random.default_rng(0)
        costs = [rng.integers(0, 4, size=shape).astype(float)
                 for shape in [(3, 3), (4, 71), (71, 4), (24, 24)]]
        costs += [np.ones((5, 5))] + [1.0 - iou for iou in self._dense_track_iou(4)]
        for cost in costs:
            calls.clear()
            assert hungarian(cost) == reference_hungarian(cost)
            assert calls == [tuple(sorted(cost.shape))]  # one solve, short side first


class TestLinkTracks:
    def _labels(self, k, shape=(4, 4)):
        return np.arange(shape[0] * shape[1]).reshape(shape) % k

    def test_identical_vectors_identity_relabeling(self):
        vecs = np.random.default_rng(0).normal(size=(3, 8))
        frames = [self._labels(3), self._labels(3)]
        tracked = link_tracks([vecs, vecs], frames)
        assert np.array_equal(tracked.frames[0], tracked.frames[1])
        assert tracked.n_tracks == 3

    def test_shrinking_slot_count_terminates_a_track(self):
        rng = np.random.default_rng(1)
        prev = rng.normal(size=(3, 8))
        cur = prev[:2] + 0.01 * rng.normal(size=(2, 8))
        tracked = link_tracks([prev, cur], [self._labels(3), self._labels(2)])
        assert tracked.n_tracks == 3  # no fresh ids, one track ends

    def test_growing_slot_count_opens_fresh_track(self):
        rng = np.random.default_rng(2)
        prev = rng.normal(size=(2, 8))
        cur = np.vstack([prev + 0.01 * rng.normal(size=(2, 8)),
                         rng.normal(size=(1, 8))])
        tracked = link_tracks([prev, cur], [self._labels(2), self._labels(3)])
        assert tracked.n_tracks == 3
        np.testing.assert_array_equal(tracked.frames[1], self._labels(3))

    @pytest.mark.parametrize("n_tracks, dtype", [
        (256, np.uint8), (257, np.uint16), (65537, np.uint32)])
    def test_labels_take_the_narrowest_type_that_holds_every_track(self, n_tracks, dtype):
        # frame 0 opens n_tracks - 1 tracks, frame 1 keeps one of them and
        # frame 2 keeps it and opens the last
        rng = np.random.default_rng(6)
        first = rng.normal(size=(n_tracks - 1, 4))
        vectors = [first, first[:1], np.vstack([first[:1], -first[:1]])]
        shape = (1, n_tracks - 1)
        labels = [np.arange(n_tracks - 1).reshape(shape), np.zeros(shape, np.uint8),
                  (np.arange(n_tracks - 1) % 2).reshape(shape).astype(np.uint8)]
        tracked = link_tracks(vectors, labels)
        assert tracked.n_tracks == n_tracks
        assert tracked.frames.dtype == dtype
        # frame 2's second slot is the track frame 2 opens
        want = np.stack(labels).astype(np.int64)
        want[2] *= n_tracks - 1
        np.testing.assert_array_equal(tracked.frames, want)

    def test_a_video_with_no_frames_is_refused(self):
        with pytest.raises(ValueError, match="no frames"):
            link_tracks([], [])

    def test_unequal_slot_and_label_frame_counts_are_refused(self):
        vecs = np.ones((2, 4))
        with pytest.raises(ValueError, match="2 slot-vector matrices for 1 label frames"):
            link_tracks([vecs, vecs], [self._labels(2)])

    def test_permuting_second_frame_slots_leaves_labels_unchanged(self):
        rng = np.random.default_rng(3)
        prev = rng.normal(size=(4, 8))
        cur = prev + 0.05 * rng.normal(size=(4, 8))
        frames = [self._labels(4), self._labels(4)]
        base = link_tracks([prev, cur], frames)
        perm = np.array([2, 0, 3, 1])
        inv = np.argsort(perm)
        permuted_labels = inv[frames[1]]
        permuted = link_tracks([prev, cur[perm]], [frames[0], permuted_labels])
        assert np.array_equal(base.frames, permuted.frames)


class TestRasterize:
    def test_single_slot_labels_everything_zero(self):
        m = np.random.default_rng(0).random((1, 16))
        labels = rasterize(m, 4, 4, 32, 32)
        assert (labels == 0).all()

    def test_identity_resolution_is_argmax(self):
        m = np.random.default_rng(1).random((3, 16))
        labels = rasterize(m, 4, 4, 4, 4)
        np.testing.assert_array_equal(labels.ravel(), np.argmax(m, axis=0))

    def test_labels_are_uint8_argmax_of_upsampled_masks(self):
        m = np.random.default_rng(4).random((5, 24))
        labels = rasterize(m, 4, 6, 40, 52)
        assert labels.dtype == np.uint8
        reference = np.argmax(bilinear_resize(m.reshape(5, 4, 6), 40, 52), axis=0)
        assert reference.dtype == np.int64
        np.testing.assert_array_equal(labels, reference)

    def test_mask_width_other_than_the_grid_is_refused(self):
        with pytest.raises(ValueError, match="mask width 15 != grid 4x4"):
            rasterize(np.zeros((2, 15)), 4, 4, 8, 8)

    def test_empty_mask_stack_is_refused(self):
        with pytest.raises(ValueError, match=r"no slot masks to rasterize: shape \(0, 16\)"):
            rasterize(np.zeros((0, 16)), 4, 4, 8, 8)

    def test_constant_masks_ignore_interpolation(self):
        m = np.array([[0.2] * 16, [0.5] * 16, [0.3] * 16])
        labels = rasterize(m, 4, 4, 64, 64)
        assert (labels == 1).all()

    def test_argmax_tie_goes_to_lower_index(self):
        m = np.array([[0.5] * 16, [0.5] * 16])
        labels = rasterize(m, 4, 4, 32, 32)
        assert (labels == 0).all()

    def test_shift_invariance_of_labels(self):
        m = np.random.default_rng(2).random((4, 36))
        shifted = m + 3.7
        a = rasterize(m, 6, 6, 48, 48)
        b = rasterize(shifted, 6, 6, 48, 48)
        np.testing.assert_array_equal(a, b)

    def test_bilinear_identity_at_same_size(self):
        maps = np.random.default_rng(3).random((2, 5, 7))
        out = bilinear_resize(maps, 5, 7)
        np.testing.assert_allclose(out, maps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("src, dst", [
        ((16, 16), (128, 128)), ((3, 5), (7, 11)), ((1, 1), (8, 8)), ((24, 36), (336, 504)),
    ], ids=str)
    def test_separable_resize_is_bitwise_the_four_gather_one(self, dtype, src, dst):
        maps = np.random.default_rng(4).random((2,) + src).astype(dtype)
        out, want = bilinear_resize(maps, *dst), four_gather_resize(maps, *dst)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()


class TestAri:
    def test_perfect_prediction(self):
        gt = np.array([[1, 1], [2, 2]])
        assert fg_ari(gt.copy(), gt) == 1.0

    def test_expected_index_case_is_zero(self):
        gt = np.array([1, 1, 2, 2])
        pred = np.array([7, 7, 7, 9])
        assert fg_ari(pred, gt) == pytest.approx(0.0, abs=1e-12)

    def test_bijective_relabeling_scores_one(self):
        rng = np.random.default_rng(4)
        gt = rng.integers(1, 4, size=(6, 6))
        mapping = {1: 42, 2: 17, 3: 3}
        pred = np.vectorize(mapping.get)(gt)
        assert fg_ari(pred, gt) == pytest.approx(1.0)

    def test_background_pixels_ignored(self):
        gt = np.array([[0, 0, 1, 1], [0, 0, 2, 2]])
        pred_fg_perfect = np.array([[9, 9, 5, 5], [9, 8, 6, 6]])
        assert fg_ari(pred_fg_perfect, gt) == 1.0

    def test_too_few_foreground_pixels(self):
        gt = np.array([[0, 0], [0, 1]])
        assert fg_ari(gt.copy(), gt) is None

    def test_degenerate_single_cluster_both_sides(self):
        gt = np.array([1, 1, 1])
        assert adjusted_rand_index(np.array([5, 5, 5]), gt) == 1.0
        assert adjusted_rand_index(np.array([5, 5, 6]), gt) == 0.0

    def test_integer_pair_counts_are_bitwise_the_float_ones(self):
        rng = np.random.default_rng(10)
        tables = [rng.integers(0, high, size=(20, g, p))
                  for high in (2, 5, 100, 16385) for g in (1, 2, 5) for p in (1, 3, 8)]
        tables += [rng.integers(0, 5, size=(20, 4, 6)) * (rng.random((20, 4, 6)) < 0.2)]
        one_cell = np.zeros((4, 3, 5), dtype=np.int64)
        one_cell[np.arange(4), [0, 1, 2, 2], [4, 0, 3, 1]] = [1, 2, 700, 16384]
        tables += [
            one_cell,                                   # a single cluster
            np.eye(6, dtype=np.int64)[None],            # all singletons, both sides
            np.ones((1, 1, 9), dtype=np.int64),         # singletons against one cluster
            np.zeros((3, 2, 4), dtype=np.int64),        # frames with no pixels
            np.full((2, 3, 3), 16384, dtype=np.int64),  # full cells
        ]
        for table in tables:
            assert evalkit._ari(table).tobytes() == comb2_ari(table).tobytes()

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        assert adjusted_rand_index(a, b) == pytest.approx(
            pair_counting_ari(a, b), abs=1e-10)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        gt = rng.integers(1, 5, size=(8, 8))
        pred = rng.integers(0, 3, size=(8, 8))
        base = fg_ari(pred, gt)
        assert fg_ari(pred + 100, gt) == pytest.approx(base, abs=1e-12)
        gt_relab = np.vectorize({1: 4, 2: 3, 3: 2, 4: 1}.get)(gt)
        assert fg_ari(pred, gt_relab) == pytest.approx(base, abs=1e-12)

    def test_mean_fg_ari_skips_empty_frames(self):
        """Frames with 0 and 1 foreground pixels are not scored, so the
        mean is the one scored frame's 0.0, not pulled up by their
        identical partitions."""
        gt = np.stack([np.zeros((2, 2), int), np.array([[0, 0], [0, 1]]),
                       np.array([[1, 1], [2, 2]])])
        pred = np.stack([gt[0], gt[1], np.array([[0, 0], [0, 1]])])
        assert [fg_ari(p, g) for p, g in zip(pred, gt)] == [None, None, 0.0]
        assert score_video(pred, gt)["fg_ari"] == 0.0

    def test_mean_fg_ari_no_foreground_anywhere(self):
        gt = np.zeros((3, 2, 2), int)
        assert score_video(gt.copy(), gt)["fg_ari"] is None

    def test_mean_fg_ari_rejects_shape_mismatch(self):
        """``score_videos`` refuses a prediction with fewer frames than its
        ground truth before it counts anything."""
        gt = np.ones((5, 2, 2), int)
        with pytest.raises(ValueError, match=r"video v: .*\(1, 2, 2\).*\(5, 2, 2\)"):
            evalkit.score_videos([("v", gt[:1].copy(), gt)])

    def test_mean_fg_ari_equals_mean_of_per_frame_loops(self):
        rng = np.random.default_rng(9)
        sparse_gt = rng.integers(0, 3, size=(6, 5, 5)) * (rng.random((6, 5, 5)) < 0.15)
        videos = list(dense_track_videos(2, seed=2)) + [
            (rng.integers(0, 6, size=(4, 5, 5)), rng.integers(0, 3, size=(4, 5, 5))),
            (rng.integers(0, 4, size=(6, 5, 5)), sparse_gt),
        ]
        for pred, gt in videos:
            scores = [mask_loop_ari(p[g > 0], g[g > 0])
                      for p, g in zip(pred, gt) if (g > 0).sum() >= 2]
            want = float(np.mean(scores)) if scores else None
            assert score_video(pred, gt)["fg_ari"] == want
        assert score_video(np.zeros((0, 3, 3), int), np.zeros((0, 3, 3), int))["fg_ari"] is None


class TestVideoMiou:
    def test_perfect_prediction(self):
        gt = np.array([[[1, 1], [2, 0]], [[1, 1], [2, 0]]])
        assert video_miou(gt.copy(), gt) == 1.0

    def test_rejects_shape_mismatch(self):
        # the same labels reshaped: equal element counts, different videos
        gt = np.arange(32).reshape(2, 4, 4) % 3
        with pytest.raises(ValueError, match=r"video v: .*\(4, 2, 4\).*\(2, 4, 4\)"):
            evalkit.score_videos([("v", gt.reshape(4, 2, 4), gt)])

    def test_partial_overlap_one_third(self):
        # one object of 4 pixels; prediction covers 2 of them plus 2
        # background pixels: IoU = 2 / 6
        gt = np.zeros((1, 3, 3), int)
        gt[0, 0, :2] = 1
        gt[0, 1, :2] = 1
        pred = np.zeros((1, 3, 3), int)
        pred[0, 0, 0] = 7
        pred[0, 1, 0] = 7
        pred[0, 0, 2] = 7
        pred[0, 1, 2] = 7
        # restrict prediction track 0 elsewhere so only track 7 overlaps
        assert video_miou(pred, gt) == pytest.approx(2.0 / 6.0, abs=1e-10)

    def test_covering_track_partial_overlap(self):
        gt = np.zeros((1, 2, 2), int)
        gt[0, 0, 0] = 1
        pred = np.zeros((1, 2, 2), int)
        pred[0, 1, 1] = 3
        pred[0, 1, 0] = 3
        # track 0 covers the gt pixel plus one background pixel: IoU 1/2
        assert video_miou(pred, gt) == pytest.approx(0.5)

    def test_no_gt_objects(self):
        assert video_miou(np.zeros((1, 2, 2), int), np.zeros((1, 2, 2), int)) is None

    def test_unmatched_gt_objects_count_zero(self):
        gt = np.zeros((1, 4, 4), int)
        gt[0, 0, 0] = 1
        gt[0, 3, 3] = 2
        pred = np.zeros((1, 4, 4), int)  # single track everywhere
        got = video_miou(pred, gt)
        # track 0 matches one object at IoU 1/16; the other object gets 0
        assert got == pytest.approx(0.5 * (1 / 16), abs=1e-10)

    def test_track_permutation_invariance(self):
        rng = np.random.default_rng(8)
        gt = rng.integers(0, 3, size=(2, 6, 6))
        pred = rng.integers(0, 4, size=(2, 6, 6))
        remap = {0: 9, 1: 4, 2: 11, 3: 0}
        permuted = np.vectorize(remap.get)(pred)
        assert video_miou(pred, gt) == pytest.approx(
            video_miou(permuted, gt), abs=1e-12)

    def test_matches_full_volume_set_arithmetic(self):
        rng = np.random.default_rng(9)
        gt = rng.integers(0, 3, size=(3, 5, 5))
        pred = rng.integers(0, 3, size=(3, 5, 5))
        got = video_miou(pred, gt)
        # oracle: enumerate all matchings of gt objects to pred tracks
        gt_ids = [i for i in np.unique(gt) if i > 0]
        pred_ids = list(np.unique(pred))
        best = -1.0
        for perm in itertools.permutations(pred_ids, min(len(gt_ids), len(pred_ids))):
            total = 0.0
            for gi, pi in zip(gt_ids, perm):
                inter = np.logical_and(gt == gi, pred == pi).sum()
                union = np.logical_or(gt == gi, pred == pi).sum()
                total += inter / union if union else 0.0
            best = max(best, total / len(gt_ids))
        assert got == pytest.approx(best, abs=1e-10)


class TestMetricsMatchMaskLoops:
    """The contingency-table metrics equal loops over boolean masks exactly."""

    def _volumes(self, case, rng):
        shape = (3, 6, 7)
        if case == "small":
            return rng.integers(0, 9, size=shape), rng.integers(0, 4, size=shape)
        if case == "uint16 near 65535":
            pred = rng.integers(65500, 65536, size=shape).astype(np.uint16)
            gt = rng.choice(np.array([0, 65533, 65534, 65535], dtype=np.uint16), size=shape)
            return pred, gt
        if case == "int64 wide":
            ids = np.array([-7, 0, 3, 10**12, 2**62], dtype=np.int64)
            return rng.choice(ids, size=shape), rng.choice(ids[:4], size=shape)
        if case == "int64 narrow at the extremes":
            # narrow ranges, so counted directly, from lows whose cell
            # offsets overflow int64
            pred = rng.integers(-2**63, -2**63 + 9, size=shape, dtype=np.int64)
            gt = rng.choice(np.array([0, 1, 3], dtype=np.int64), size=shape) + (2**63 - 4)
            return pred, gt
        if case == "int64 full range":
            ids = np.array([-2**63, -1, 0, 5, 2**63 - 1], dtype=np.int64)
            return rng.choice(ids, size=shape), rng.choice(ids[1:], size=shape)
        if case == "fewer tracks than objects":
            return rng.integers(0, 2, size=shape), rng.integers(0, 6, size=shape)
        if case == "gt ids absent from predictions":
            return rng.integers(20, 30, size=shape), rng.integers(0, 4, size=shape) * 5
        raise AssertionError(case)

    @pytest.mark.parametrize("case", [
        "small", "uint16 near 65535", "int64 wide", "fewer tracks than objects",
        "gt ids absent from predictions", "int64 narrow at the extremes",
        "int64 full range",
    ])
    def test_random_volumes(self, case):
        rng = np.random.default_rng(len(case))
        for _ in range(5):
            pred, gt = self._volumes(case, rng)
            assert adjusted_rand_index(pred, gt) == mask_loop_ari(pred, gt)
            for p, g in zip(pred, gt):
                fg = g > 0
                if fg.sum() >= 2:
                    assert fg_ari(p, g) == mask_loop_ari(p[fg], g[fg])
            hist = score_video(pred, np.zeros_like(pred))["k_t_histogram"]
            want = {}
            for k in (str(np.unique(frame).size) for frame in pred):
                want[k] = want.get(k, 0) + 1
            assert list(hist.items()) == list(want.items())
            score = score_video(pred, gt)
            assert score == mask_loop_score(pred, gt)
            assert list(score["k_t_histogram"].items()) == list(want.items())

    @staticmethod
    def _piecewise(case, rng):
        def blocks(shape, size, k):
            """Labels constant over ``size`` consecutive raster pixels, so
            runs go on across row ends."""
            n = int(np.prod(shape))
            return np.repeat(rng.integers(0, k, size=-(-n // size)), size)[:n].reshape(shape)

        if case == "blocks across row ends":
            return blocks((3, 5, 7), 5, 6), blocks((3, 5, 7), 3, 4)
        if case == "frame boundary inside a run":
            # frame 0 ends and frame 1 starts on the same labels in both
            # maps: the run must split at the frame boundary
            pred, gt = blocks((2, 4, 6), 10, 3), blocks((2, 4, 6), 6, 3)
            pred[0, -1, -3:], pred[1, 0, :3] = 2, 2
            gt[0, -1, -3:], gt[1, 0, :3] = 1, 1
            return pred, gt
        if case == "1x1 frames":
            return rng.integers(0, 3, size=(6, 1, 1)), rng.integers(0, 2, size=(6, 1, 1))
        if case == "one label":
            return np.full((3, 4, 5), 7), np.full((3, 4, 5), 2)
        if case == "one frame":
            return blocks((1, 6, 9), 4, 5), blocks((1, 6, 9), 7, 3)
        raise AssertionError(case)

    @pytest.mark.parametrize("case", [
        "blocks across row ends", "frame boundary inside a run", "1x1 frames",
        "one label", "one frame",
    ])
    def test_piecewise_constant_volumes(self, case):
        rng = np.random.default_rng(len(case))
        for _ in range(5):
            pred, gt = self._piecewise(case, rng)
            assert score_video(pred, gt) == mask_loop_score(pred, gt)
            table, gt_ids = evalkit._table(pred, gt)
            want, want_ids = add_at_table(pred, gt)
            assert table.dtype == np.int64
            assert np.array_equal(table, want) and np.array_equal(gt_ids, want_ids)

    def test_counts_one_entry_per_run(self, monkeypatch):
        """The count is over runs, not pixels: a 2 x 32 x 32 video of
        constant blocks is counted with one weighted entry per run."""
        real, counted = np.bincount, []

        def recording(x, weights=None, minlength=0):
            counted.append((np.size(x), None if weights is None else float(np.sum(weights))))
            return real(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(evalkit.np, "bincount", recording)
        cells = np.arange(32) // 8
        gt = np.broadcast_to(cells[:, None] * 4 + cells[None, :], (2, 32, 32)) % 3
        pred = np.broadcast_to(np.arange(32) // 16, (2, 32, 32)) + np.array([0, 2])[:, None, None]
        score_video(pred, gt)
        runs = raster_runs(pred, gt)
        assert runs == 2 * 32 * 4  # four runs a row, against 32 pixels
        assert counted == [(runs, float(gt.size))]

    def test_dense_track_videos(self):
        for pred, gt in dense_track_videos(3, seed=1):
            assert video_miou(pred, gt) == mask_loop_miou(pred, gt)
            assert score_video(pred, gt) == mask_loop_score(pred, gt)
            for p, g in zip(pred, gt):
                fg = g > 0
                if fg.sum() >= 2:
                    assert fg_ari(p, g) == mask_loop_ari(p[fg], g[fg])

    def test_all_background_gt_is_none(self):
        pred = np.arange(12, dtype=np.uint16).reshape(1, 3, 4)
        gt = np.zeros((1, 3, 4), dtype=np.uint16)
        assert video_miou(pred, gt) is None
        assert mask_loop_miou(pred, gt) is None
        assert score_video(pred, gt) == mask_loop_score(pred, gt) == {
            "fg_ari": None, "miou": None, "k_t_histogram": {"12": 1}}


class TestKtHistogram:
    def test_counts_distinct_labels_per_frame(self):
        frames = np.array([[[0, 0], [1, 1]], [[2, 2], [2, 2]]])
        assert score_video(frames, np.zeros_like(frames))["k_t_histogram"] == {"2": 1, "1": 1}
