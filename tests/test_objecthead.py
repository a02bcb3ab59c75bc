"""Slot merging (vs a brute-force linkage oracle), the gate schedule,
spatial-broadcast decoding, and the reconstruction loss."""

import itertools

import numpy as np
import pytest

from helpers import binding_store, finite_diff
from solv import diffcore as dc, objecthead
from solv.binding import AttentionRecord
from solv.diffcore import ConfigError, ParamStore, Tape, Tensor
from solv.encoder import build_position_grid
from solv.objecthead import (
    complete_linkage, cosine_distances, decode, decoder_param_shapes,
    identity_partition, merge_gate, merge_probability, merge_slots,
    reconstruction_loss,
)


def greedy_linkage_oracle(dist: np.ndarray, threshold: float) -> list[list[int]]:
    """From-scratch complete linkage: recompute every cluster distance
    from raw pairwise values at each step."""
    clusters = [frozenset([i]) for i in range(dist.shape[0])]

    def cluster_dist(a, b):
        return max(dist[i, j] for i in a for j in b)

    while len(clusters) > 1:
        best = None
        for x, y in itertools.combinations(range(len(clusters)), 2):
            d = cluster_dist(clusters[x], clusters[y])
            key = (d, min(min(clusters[x]), min(clusters[y])),
                   max(min(clusters[x]), min(clusters[y])))
            if best is None or key < best[0]:
                best = (key, x, y)
        (d, _, _), x, y = best
        if d > threshold:
            break
        merged = clusters[x] | clusters[y]
        clusters = [c for i, c in enumerate(clusters) if i not in (x, y)]
        clusters.append(merged)
    parts = [sorted(c) for c in clusters]
    parts.sort(key=lambda c: c[0])
    return parts


def _record(k, n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((k, n))
    a /= a.sum(axis=0, keepdims=True)
    grid = build_position_grid(int(np.sqrt(n)), int(np.sqrt(n)))
    return AttentionRecord(a=a, kept_indices=np.arange(n), kept_grid=grid)


class TestCompleteLinkage:
    def test_identical_vectors_merge(self):
        c = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        ms = merge_slots(c, _record(2, 16), tau_merge=0.12)
        assert ms.k_t == 1
        assert ms.members == [[0, 1]]

    def test_orthogonal_vectors_stay_apart(self):
        c = Tensor(np.eye(4))
        ms = merge_slots(c, _record(4, 16), tau_merge=0.12)
        assert ms.k_t == 4

    def test_zero_norm_slot_never_merges(self):
        c = Tensor(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        ms = merge_slots(c, _record(3, 16), tau_merge=0.5)
        assert [0, 2] in ms.members and [1] in ms.members

    def test_threshold_bounds(self):
        c = Tensor(np.eye(2))
        with pytest.raises(ConfigError):
            merge_slots(c, _record(2, 16), tau_merge=0.0)
        with pytest.raises(ConfigError):
            merge_slots(c, _record(2, 16), tau_merge=2.0)

    @pytest.mark.parametrize("tau", [0.05, 0.12, 0.5])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_oracle(self, tau, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        vectors = rng.normal(size=(k, 5))
        dist = cosine_distances(vectors)
        assert complete_linkage(dist, tau) == greedy_linkage_oracle(dist, tau)

    def test_hand_built_four_slot_case(self):
        # slots 0,1 nearly parallel; 2 close to them; 3 far away
        vectors = np.array([
            [1.0, 0.0, 0.0],
            [0.99, 0.1, 0.0],
            [0.9, 0.4, 0.1],
            [-1.0, 0.2, 0.0],
        ])
        dist = cosine_distances(vectors)
        got = complete_linkage(dist, 0.12)
        assert got == greedy_linkage_oracle(dist, 0.12)
        assert [3] in got

    def test_vanishing_threshold_keeps_distinct_slots(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(5, 4))
        dist = cosine_distances(vectors)
        assert len(complete_linkage(dist, 1e-12)) == 5


class TestMergedStatistics:
    def test_mean_slots_and_attention_sums(self):
        rng = np.random.default_rng(4)
        c = Tensor(rng.normal(size=(4, 6)))
        rec = _record(4, 16, seed=5)
        ms = merge_slots(c, rec, tau_merge=0.12,
                         partition=[[0, 2], [1], [3]])
        np.testing.assert_allclose(ms.cprime.data[0],
                                   c.data[[0, 2]].mean(axis=0))
        np.testing.assert_allclose(ms.a_sum[0], rec.a[[0, 2]].sum(axis=0))
        np.testing.assert_allclose(ms.a_sum.sum(axis=0), rec.a.sum(axis=0))

    def test_column_mass_preserved(self):
        rng = np.random.default_rng(6)
        c = Tensor(rng.normal(size=(5, 4)))
        rec = _record(5, 25, seed=7)
        ms = merge_slots(c, rec, tau_merge=0.5)
        np.testing.assert_allclose(ms.a_sum.sum(axis=0), 1.0, atol=1e-9)

    def test_moments_match_attention_formulas(self):
        rng = np.random.default_rng(8)
        c = Tensor(rng.normal(size=(3, 4)))
        rec = _record(3, 16, seed=9)
        ms = merge_slots(c, rec, tau_merge=0.12,
                         partition=identity_partition(3))
        for j in range(3):
            mass = rec.a[j].sum() + 1e-8
            pos = rec.a[j] @ rec.kept_grid / mass
            np.testing.assert_allclose(ms.position[j], pos, atol=1e-12)
            var = rec.a[j] @ (rec.kept_grid - pos) ** 2 / mass
            np.testing.assert_allclose(ms.scale[j], np.sqrt(var + 1e-8),
                                       atol=1e-12)

    def test_gradients_flow_through_mean_slots(self):
        rng = np.random.default_rng(10)
        c = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        rec = _record(3, 16, seed=11)
        tape = Tape()
        with tape:
            ms = merge_slots(c, rec, tau_merge=0.12,
                             partition=[[0, 1], [2]])
            loss = dc.reduce_mean(dc.mul(ms.cprime, ms.cprime))
        tape.backward(loss)
        assert c.grad is not None and np.abs(c.grad).sum() > 0


class TestMergeGate:
    def test_first_epoch_never_merges(self):
        assert merge_probability(0, 10) == 0.0
        rng = np.random.default_rng(0)
        assert not any(merge_gate(0, 10, rng) for _ in range(50))

    def test_last_epoch_always_merges(self):
        assert merge_probability(9, 10) == 1.0
        rng = np.random.default_rng(1)
        assert all(merge_gate(9, 10, rng) for _ in range(50))

    def test_monotone_in_epoch(self):
        probs = [merge_probability(e, 20) for e in range(20)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_single_epoch_run_merges(self):
        assert merge_probability(0, 1) == 1.0

    def test_epoch_bounds(self):
        with pytest.raises(ValueError):
            merge_probability(10, 10)


def _decoder_store(d_slot, n, d_out, hidden=16, layers=5, seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore("f64")
    for name, shape in decoder_param_shapes(d_slot, n, d_out, hidden, layers).items():
        store.register(name, rng.normal(scale=0.2, size=shape))
    return store


def _merged(k_t, d_slot, n, seed=0):
    rng = np.random.default_rng(seed)
    return objecthead.MergedSlots(
        cprime=Tensor(rng.normal(size=(k_t, d_slot)), requires_grad=False),
        members=identity_partition(k_t),
        a_sum=rng.random((k_t, n)),
        position=rng.normal(scale=0.3, size=(k_t, 2)),
        scale=np.abs(rng.normal(0.4, 0.1, size=(k_t, 2))) + 0.05,
    )


class TestDecode:
    def test_single_slot_mask_is_ones_and_y_is_its_reconstruction(self):
        n, d_slot, d_out = 16, 6, 5
        store = _decoder_store(d_slot, n, d_out)
        grid = build_position_grid(4, 4)
        out = decode(_merged(1, d_slot, n), store, grid, 5.0, d_out)
        np.testing.assert_allclose(out.m.data, 1.0)
        np.testing.assert_allclose(out.y.data, out.y_slots.data[0])

    def test_mask_columns_sum_to_one(self):
        n, d_slot, d_out = 16, 6, 5
        store = _decoder_store(d_slot, n, d_out, seed=1)
        grid = build_position_grid(4, 4)
        out = decode(_merged(4, d_slot, n, seed=2), store, grid, 5.0, d_out)
        np.testing.assert_allclose(out.m.data.sum(axis=0), 1.0, atol=1e-6)

    def test_output_shapes(self):
        n, d_slot, d_out = 25, 6, 7
        store = _decoder_store(d_slot, n, d_out, seed=3)
        grid = build_position_grid(5, 5)
        out = decode(_merged(3, d_slot, n, seed=4), store, grid, 5.0, d_out)
        assert out.y.shape == (n, d_out)
        assert out.m.shape == (3, n)
        assert out.alpha.shape == (3, n)
        assert out.y_slots.shape == (3, n, d_out)

    def test_reconstruction_is_mask_weighted_sum(self):
        n, d_slot, d_out = 16, 6, 4
        store = _decoder_store(d_slot, n, d_out, seed=5)
        grid = build_position_grid(4, 4)
        out = decode(_merged(3, d_slot, n, seed=6), store, grid, 5.0, d_out)
        manual = (out.m.data[:, :, None] * out.y_slots.data).sum(axis=0)
        np.testing.assert_array_equal(out.y.data, manual)

    def test_decoder_gradients(self):
        n, d_slot, d_out = 9, 5, 4
        store = _decoder_store(d_slot, n, d_out, hidden=8, seed=7)
        grid = build_position_grid(3, 3)
        ms = _merged(2, d_slot, n, seed=8)
        ms.cprime.requires_grad = True
        target = np.random.default_rng(9).normal(size=(n, d_out))

        def run():
            tape = Tape()
            with tape:
                out = decode(ms, store, grid, 5.0, d_out)
                loss = reconstruction_loss(out.y, target)
            return loss, tape

        loss, tape = run()
        tape.backward(loss)
        names = ["dec.pos", "dec.l0.w", "dec.l2.w", "dec.l4.w", "dec.l4.b",
                 "merge.h.w", "merge.h.b"]
        worst = finite_diff(lambda: float(run()[0].data),
                            [ms.cprime] + [store[n_] for n_ in names],
                            max_coords=10)
        assert worst <= 1e-4


class TestReconstructionLoss:
    def test_zero_when_equal(self):
        y = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        assert float(reconstruction_loss(y, y.data).data) == 0.0

    def test_constant_offset_gives_one(self):
        y = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        assert float(reconstruction_loss(y, y.data - 1.0).data) == pytest.approx(1.0)

    def test_gradient_matches_closed_form(self):
        rng = np.random.default_rng(2)
        y = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        target = rng.normal(size=(5, 4))
        tape = Tape()
        with tape:
            loss = reconstruction_loss(y, target)
        tape.backward(loss)
        np.testing.assert_allclose(y.grad, 2 * (y.data - target) / y.data.size,
                                   atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeError):
            reconstruction_loss(Tensor(np.zeros((2, 2))), np.zeros((3, 2)))

    def test_loss_invariant_to_slot_order(self):
        n, d_slot, d_out = 16, 6, 4
        store = _decoder_store(d_slot, n, d_out, seed=10)
        grid = build_position_grid(4, 4)
        ms = _merged(3, d_slot, n, seed=11)
        target = np.random.default_rng(12).normal(size=(n, d_out))
        base = float(reconstruction_loss(
            decode(ms, store, grid, 5.0, d_out).y, target).data)
        perm = [2, 0, 1]
        permuted = objecthead.MergedSlots(
            cprime=Tensor(ms.cprime.data[perm]),
            members=[ms.members[i] for i in perm],
            a_sum=ms.a_sum[perm],
            position=ms.position[perm],
            scale=ms.scale[perm],
        )
        got = float(reconstruction_loss(
            decode(permuted, store, grid, 5.0, d_out).y, target).data)
        assert got == pytest.approx(base, abs=1e-12)
