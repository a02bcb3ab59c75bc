"""Slot merging (vs a brute-force linkage oracle), the gate schedule,
spatial-broadcast decoding, and the reconstruction loss."""

import itertools

import numpy as np
import pytest

from helpers import (
    binding_store, final_moments, finite_diff, record_attention, record_isa_moments,
)
from solv import diffcore as dc, objecthead
from solv.binding import EPS, SlotGeometry, spatial_bind
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


def _geometry(k, seed=0):
    rng = np.random.default_rng(seed)
    return SlotGeometry(mass=rng.uniform(0.5, 4.0, size=k),
                        position=rng.normal(scale=0.5, size=(k, 2)),
                        var=rng.uniform(0.01, 0.3, size=(k, 2)))


class TestCompleteLinkage:
    def test_identical_vectors_merge(self):
        c = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        ms = merge_slots(c, _geometry(2), tau_merge=0.12, partition=None)
        assert ms.k_t == 1
        assert ms.members == [[0, 1]]

    def test_orthogonal_vectors_stay_apart(self):
        c = Tensor(np.eye(4))
        ms = merge_slots(c, _geometry(4), tau_merge=0.12, partition=None)
        assert ms.k_t == 4

    def test_zero_norm_slot_never_merges(self):
        c = Tensor(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        ms = merge_slots(c, _geometry(3), tau_merge=0.5, partition=None)
        assert [0, 2] in ms.members and [1] in ms.members

    def test_threshold_bounds(self):
        c = Tensor(np.eye(2))
        with pytest.raises(ConfigError):
            merge_slots(c, _geometry(2), tau_merge=0.0, partition=None)
        with pytest.raises(ConfigError):
            merge_slots(c, _geometry(2), tau_merge=2.0, partition=None)

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


class TestLinkageTies:
    """Equal distances merge the first pair in row-major order of the upper
    triangle, and a distance equal to the threshold merges, as the oracle
    says."""

    @pytest.mark.parametrize("tau", [0.05, 0.1, 0.12])
    def test_all_equal_off_diagonal(self, tau):
        dist = np.full((6, 6), 0.1)
        np.fill_diagonal(dist, 0.0)
        got = complete_linkage(dist, tau)
        assert got == greedy_linkage_oracle(dist, tau)
        assert got == ([list(range(6))] if tau >= 0.1 else identity_partition(6))

    def test_tie_decides_the_partition(self):
        # (0, 1) and (1, 2) tie; merging (0, 1) first keeps 2 apart
        dist = np.array([[0.0, 0.1, 0.5], [0.1, 0.0, 0.1], [0.5, 0.1, 0.0]])
        assert complete_linkage(dist, 0.2) == greedy_linkage_oracle(dist, 0.2) \
            == [[0, 1], [2]]

    def test_distance_equal_to_threshold_merges(self):
        tau = 0.12
        dist = np.array([[0.0, tau, 0.7], [tau, 0.0, 0.7], [0.7, 0.7, 0.0]])
        assert complete_linkage(dist, tau) == greedy_linkage_oracle(dist, tau) \
            == [[0, 1], [2]]

    def test_zero_norm_rows_sit_at_distance_two(self):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        dist = cosine_distances(vectors)
        assert dist[1, 3] == dist[0, 1] == 2.0
        for tau in (0.12, 1.99):
            assert complete_linkage(dist, tau) == greedy_linkage_oracle(dist, tau) \
                == [[0, 2], [1], [3]]

    def test_rounded_matrices_with_common_ties(self):
        rng = np.random.default_rng(60)
        ties = 0
        for _ in range(200):
            upper = np.triu(np.round(rng.uniform(0.0, 0.3, size=(8, 8)), 2), 1)
            dist = upper + upper.T
            ties += len(np.unique(upper[np.triu_indices(8, 1)])) < 28
            for tau in (0.05, 0.12, 0.2):
                assert complete_linkage(dist, tau) == greedy_linkage_oracle(dist, tau)
        assert ties > 150


def _bound_frames(precision, invariant=True, frames=3, k=5, seed=0):
    """Slots and geometry of ``frames`` frames bound on a 6 x 6 grid with
    a third of the tokens dropped, and the kept grid of each frame."""
    store = binding_store(d_slot=8, k_slots=k, seed=seed, precision=precision)
    rng = np.random.default_rng(seed + 1)
    grid = build_position_grid(6, 6)
    kept = np.stack([np.sort(rng.permutation(36)[:24]) for _ in range(frames)])
    tokens = Tensor(rng.normal(size=(frames, 24, 8)).astype(store.dtype))
    z, geometry = spatial_bind(tokens, grid[kept], store, delta=5.0,
                               invariant=invariant, n_iters=3, init_z=None)
    return store, z, geometry, grid[kept]


def _random_partition(rng, k):
    labels = rng.integers(0, rng.integers(1, k + 1), size=k)
    return [list(np.flatnonzero(labels == l)) for l in np.unique(labels)]


class TestMergedStatistics:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_identity_partition_keeps_binding_geometry(self, precision, monkeypatch):
        moments = record_isa_moments(monkeypatch)
        store, z, geometry, _ = _bound_frames(precision)
        scale, position = final_moments(moments, store)
        for f in range(z.shape[0]):
            ms = merge_slots(Tensor(z.data[f]), geometry[f],
                             tau_merge=0.12, partition=identity_partition(5))
            assert ms.position.dtype == ms.scale.dtype == store.dtype
            assert np.array_equal(ms.cprime.data, z.data[f])
            assert np.array_equal(ms.position, position.data[f])
            assert np.array_equal(ms.scale, scale.data[f])

    @pytest.mark.parametrize("invariant", [True, False], ids=["invariant", "plain"])
    def test_pooled_geometry_is_the_summed_attention_moments(self, invariant, monkeypatch):
        """Each cluster's geometry against the moments of its members'
        summed final attention over the kept grid. The two count EPS
        differently, once per member and once per cluster, so in real
        arithmetic they differ by at most |C| * EPS * 2R / m in position
        and |C| * EPS * 16 R^2 / m in variance, where R bounds every grid
        coordinate and position and m is the smallest member mass; 1e-13
        more covers f64 rounding."""
        attention = record_attention(monkeypatch)
        store, z, geometry, kept_grid = _bound_frames("f64", invariant)
        rng = np.random.default_rng(7)
        checked = 0
        for f in range(z.shape[0]):
            a, grid = attention[-1][f], kept_grid[f]
            r = max(np.abs(grid).max(), np.abs(geometry.position[f]).max(),
                    np.abs(store["bind.init.pos"].data).max())
            assert np.isfinite(geometry.var[f]).all()
            for _ in range(10):
                partition = _random_partition(rng, 5)
                ms = merge_slots(Tensor(z.data[f]), geometry[f], tau_merge=0.12,
                                 partition=partition)
                for cluster, members in enumerate(partition):
                    summed = a[members].sum(axis=0)
                    mass = summed.sum() + EPS
                    position = summed @ grid / mass
                    var = summed @ (grid - position) ** 2 / mass
                    scale = np.sqrt(var + EPS)
                    m = geometry.mass[f][members].min()
                    pos_bound = len(members) * EPS * 2 * r / m + 1e-13
                    var_bound = len(members) * EPS * 16 * r * r / m + 1e-13
                    np.testing.assert_allclose(ms.position[cluster], position,
                                               rtol=0, atol=pos_bound)
                    np.testing.assert_allclose(ms.scale[cluster] ** 2, scale ** 2,
                                               rtol=0, atol=var_bound)
                    np.testing.assert_allclose(ms.cprime.data[cluster],
                                               z.data[f][members].mean(axis=0),
                                               rtol=1e-14, atol=1e-15)
                    checked += len(members) > 1
        assert checked > 20

    def test_pooled_masses_sum_to_the_kept_tokens(self):
        """Merging pools every slot into exactly one cluster, so the
        clusters' masses sum to the kept tokens."""
        _, z, geometry, kept_grid = _bound_frames("f64")
        for f in range(z.shape[0]):
            ms = merge_slots(Tensor(z.data[f]), geometry[f], tau_merge=0.5, partition=None)
            n_kept, k = kept_grid.shape[1], z.shape[1]
            assert ms.k_t < k
            assert sorted(sum(ms.members, [])) == list(range(k))
            pooled = [geometry.mass[f][members].sum() for members in ms.members]
            np.testing.assert_allclose(sum(pooled), n_kept + k * EPS, rtol=1e-14)

    def test_gradients_flow_through_mean_slots(self):
        rng = np.random.default_rng(10)
        c = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        tape = Tape()
        with tape:
            ms = merge_slots(c, _geometry(3, seed=11), tau_merge=0.12,
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
        position=rng.normal(scale=0.3, size=(k_t, 2)),
        scale=np.abs(rng.normal(0.4, 0.1, size=(k_t, 2))) + 0.05,
    )


def _one_slot(ms, k):
    """Slot ``k`` of merged slots, alone."""
    return objecthead.MergedSlots(
        cprime=Tensor(ms.cprime.data[k:k + 1]), members=[ms.members[k]],
        position=ms.position[k:k + 1], scale=ms.scale[k:k + 1])


class TestDecode:
    def test_single_slot_mask_is_ones_and_y_is_its_reconstruction(self, monkeypatch):
        """One slot's mask is all ones and y is the decoder's feature
        columns, without the alpha column."""
        n, d_slot, d_out = 16, 6, 5
        store = _decoder_store(d_slot, n, d_out)
        grid = build_position_grid(4, 4)
        outputs, real_mlp = [], dc.mlp

        def recording(*args):
            outputs.append(real_mlp(*args))
            return outputs[-1]

        monkeypatch.setattr(dc, "mlp", recording)
        out = decode(_merged(1, d_slot, n), store, grid, 5.0, d_out, n_layers=5)
        np.testing.assert_array_equal(out.m.data, 1.0)
        h = outputs[-1]  # the decoder's; the position term's linear comes first
        assert h.shape == (n, d_out + 1)
        np.testing.assert_array_equal(out.y.data, h.data[:, :d_out])

    def test_mask_columns_sum_to_one(self):
        n, d_slot, d_out = 16, 6, 5
        store = _decoder_store(d_slot, n, d_out, seed=1)
        grid = build_position_grid(4, 4)
        out = decode(_merged(4, d_slot, n, seed=2), store, grid, 5.0, d_out, n_layers=5)
        np.testing.assert_allclose(out.m.data.sum(axis=0), 1.0, atol=1e-6)

    def test_output_shapes(self):
        n, d_slot, d_out = 25, 6, 7
        store = _decoder_store(d_slot, n, d_out, seed=3)
        grid = build_position_grid(5, 5)
        out = decode(_merged(3, d_slot, n, seed=4), store, grid, 5.0, d_out, n_layers=5)
        assert out.y.shape == (n, d_out)
        assert out.m.shape == (3, n)

    def test_reconstruction_is_mask_weighted_sum(self):
        """y is the masks' weighted sum of what each slot decodes to alone,
        whose mask is all ones. Decoding a slot alone multiplies a
        different row block, which need not round the same way."""
        n, d_slot, d_out = 16, 6, 4
        store = _decoder_store(d_slot, n, d_out, seed=5)
        grid = build_position_grid(4, 4)
        ms = _merged(3, d_slot, n, seed=6)
        out = decode(ms, store, grid, 5.0, d_out, n_layers=5)
        alone = np.stack([decode(_one_slot(ms, k), store, grid, 5.0, d_out, n_layers=5).y.data
                          for k in range(3)])
        manual = (out.m.data[:, :, None] * alone).sum(axis=0)
        np.testing.assert_allclose(out.y.data, manual, rtol=1e-12, atol=1e-12)

    def test_relative_grid_per_slot(self, monkeypatch):
        # the position term's input: each slot's coordinates of the shared
        # N x 2 grid, relative to its moments
        n, d_slot, d_out = 16, 6, 5
        store = _decoder_store(d_slot, n, d_out, seed=10)
        grid = build_position_grid(4, 4)
        ms = _merged(3, d_slot, n, seed=11)
        inputs, real_linear = [], dc.linear
        monkeypatch.setattr(dc, "linear", lambda x, *wb: inputs.append(x.data)
                            or real_linear(x, *wb))
        decode(ms, store, grid, 5.0, d_out, n_layers=5)
        assert inputs[0].shape == (3, n, 2)
        for j in range(3):
            np.testing.assert_array_equal(
                inputs[0][j], (grid - ms.position[j]) / (ms.scale[j] * 5.0))

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
                out = decode(ms, store, grid, 5.0, d_out, n_layers=5)
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
            decode(ms, store, grid, 5.0, d_out, n_layers=5).y, target).data)
        perm = [2, 0, 1]
        permuted = objecthead.MergedSlots(
            cprime=Tensor(ms.cprime.data[perm]),
            members=[ms.members[i] for i in perm],
            position=ms.position[perm],
            scale=ms.scale[perm],
        )
        got = float(reconstruction_loss(
            decode(permuted, store, grid, 5.0, d_out, n_layers=5).y, target).data)
        assert got == pytest.approx(base, abs=1e-12)
