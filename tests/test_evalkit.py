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
from solv import datagen
from solv.config import DataConfig
from solv.evalkit import (
    adjusted_rand_index, assignment_total, bilinear_resize, fg_ari, hungarian,
    k_t_histogram, link_tracks, mean_fg_ari, rasterize, video_miou,
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


def brute_force_lex_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """The lexicographically smallest (row, col) sequence among all
    minimum-total maximal assignments, by exhaustive search."""
    r, c = cost.shape
    if r <= c:
        candidates = ([(i, perm[i]) for i in range(r)]
                      for perm in itertools.permutations(range(c), r))
    else:
        candidates = (sorted((perm[j], j) for j in range(c))
                      for perm in itertools.permutations(range(r), c))
    best_total, best_pairs = np.inf, None
    for pairs in candidates:
        total = sum(cost[i, j] for i, j in pairs)
        if total < best_total or (total == best_total and pairs < best_pairs):
            best_total, best_pairs = total, pairs
    return best_pairs


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


def mask_loop_miou(pred_frames, gt_frames, per_frame=False, exclude_pred=()):
    """video_miou with IoU from full-volume boolean masks, one per
    (gt object, pred track), matched by the reference solver."""
    if per_frame:
        vals = [mask_loop_miou(p[None], g[None], exclude_pred=exclude_pred)
                for p, g in zip(pred_frames, gt_frames)]
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None
    gt_ids = [int(i) for i in np.unique(gt_frames) if i > 0]
    if not gt_ids:
        return None
    pred_ids = [int(i) for i in np.unique(pred_frames) if i not in exclude_pred]
    if not pred_ids:
        return 0.0
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

    def test_lexicographic_tie_break(self):
        # all-equal costs: every assignment optimal; identity is smallest
        assert hungarian(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]
        # two optima tie: (0,1),(1,0) vs (0,0),(1,1) both cost 2
        pairs = hungarian(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert pairs == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("tall", [False, True])
    def test_lexicographic_optimum_on_tie_heavy_matrices(self, tall):
        rng = np.random.default_rng(7 + tall)
        for _ in range(40):
            short = int(rng.integers(1, 6))
            shape = (short, int(rng.integers(short + 1, 7)))
            cost = rng.integers(0, 4, size=shape[::-1] if tall else shape).astype(float)
            want = brute_force_lex_assignment(cost)
            assert hungarian(cost) == want
            assert reference_hungarian(cost) == want

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

    def test_matches_reference_solver_on_dense_track_iou(self):
        for pred, gt in dense_track_videos(4):
            objects = [g for g in np.unique(gt) if g > 0]
            tracks = np.unique(pred)
            iou = np.array([[np.sum((gt == g) & (pred == t)) / np.sum((gt == g) | (pred == t))
                             for t in tracks] for g in objects])
            assert iou.shape[1] > 30
            assert hungarian(1.0 - iou) == reference_hungarian(1.0 - iou)


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
        assert set(tracked.track_maps[1]) == {0, 1, 2}

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
        gt = np.stack([np.zeros((2, 2), int), np.array([[1, 1], [2, 2]])])
        pred = gt.copy()
        mean, skipped = mean_fg_ari(pred, gt)
        assert mean == 1.0 and skipped == 1

    def test_mean_fg_ari_no_foreground_anywhere(self):
        gt = np.zeros((3, 2, 2), int)
        mean, skipped = mean_fg_ari(gt.copy(), gt)
        assert mean is None and skipped == 3

    def test_mean_fg_ari_rejects_shape_mismatch(self):
        gt = np.ones((5, 2, 2), int)
        with pytest.raises(ValueError, match=r"\(1, 2, 2\).*\(5, 2, 2\)"):
            mean_fg_ari(gt[:1].copy(), gt)

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
            want = (float(np.mean(scores)) if scores else None, len(gt) - len(scores))
            assert mean_fg_ari(pred, gt) == want
        assert mean_fg_ari(np.zeros((0, 3, 3), int), np.zeros((0, 3, 3), int)) == (None, 0)


class TestVideoMiou:
    def test_perfect_prediction(self):
        gt = np.array([[[1, 1], [2, 0]], [[1, 1], [2, 0]]])
        assert video_miou(gt.copy(), gt) == 1.0

    @pytest.mark.parametrize("per_frame", [False, True])
    def test_rejects_shape_mismatch(self, per_frame):
        # the same labels reshaped: equal element counts, different videos
        gt = np.arange(32).reshape(2, 4, 4) % 3
        with pytest.raises(ValueError, match=r"\(4, 2, 4\).*\(2, 4, 4\)"):
            video_miou(gt.reshape(4, 2, 4), gt, per_frame=per_frame)

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

    def test_disjoint_is_zero(self):
        # with a thresholded background id, tracks can be fully disjoint
        gt = np.zeros((1, 2, 2), int)
        gt[0, 0, 0] = 1
        pred = np.zeros((1, 2, 2), int)
        pred[0, 1, 1] = 3
        assert video_miou(pred, gt, exclude_pred=(0,)) == 0.0

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
        if case == "fewer tracks than objects":
            return rng.integers(0, 2, size=shape), rng.integers(0, 6, size=shape)
        if case == "gt ids absent from predictions":
            return rng.integers(20, 30, size=shape), rng.integers(0, 4, size=shape) * 5
        raise AssertionError(case)

    @pytest.mark.parametrize("case", [
        "small", "uint16 near 65535", "int64 wide", "fewer tracks than objects",
        "gt ids absent from predictions",
    ])
    def test_random_volumes(self, case):
        rng = np.random.default_rng(len(case))
        for _ in range(5):
            pred, gt = self._volumes(case, rng)
            excluded = (int(pred.flat[0]), int(pred.flat[1]))
            for kwargs in ({}, {"exclude_pred": excluded}, {"per_frame": True},
                           {"per_frame": True, "exclude_pred": excluded}):
                assert video_miou(pred, gt, **kwargs) == mask_loop_miou(pred, gt, **kwargs)
            assert adjusted_rand_index(pred, gt) == mask_loop_ari(pred, gt)
            for p, g in zip(pred, gt):
                fg = g > 0
                if fg.sum() >= 2:
                    assert fg_ari(p, g) == mask_loop_ari(p[fg], g[fg])
            hist = k_t_histogram(pred)
            want = {}
            for k in (np.unique(frame).size for frame in pred):
                want[k] = want.get(k, 0) + 1
            assert list(hist.items()) == list(want.items())

    def test_dense_track_videos(self):
        for pred, gt in dense_track_videos(3, seed=1):
            assert video_miou(pred, gt) == mask_loop_miou(pred, gt)
            for p, g in zip(pred, gt):
                fg = g > 0
                if fg.sum() >= 2:
                    assert fg_ari(p, g) == mask_loop_ari(p[fg], g[fg])

    def test_all_background_gt_is_none(self):
        pred = np.arange(12, dtype=np.uint16).reshape(1, 3, 4)
        gt = np.zeros((1, 3, 4), dtype=np.uint16)
        assert video_miou(pred, gt) is None
        assert mask_loop_miou(pred, gt) is None

    def test_no_tracks_after_exclusion_is_zero(self):
        pred = np.zeros((2, 3, 4), dtype=np.uint16)
        gt = np.ones((2, 3, 4), dtype=np.uint16)
        assert video_miou(pred, gt, exclude_pred=(0,)) == 0.0
        assert mask_loop_miou(pred, gt, exclude_pred=(0,)) == 0.0


class TestKtHistogram:
    def test_counts_distinct_labels_per_frame(self):
        frames = np.array([[[0, 0], [1, 1]], [[2, 2], [2, 2]]])
        assert k_t_histogram(frames) == {2: 1, 1: 1}
