"""Acceptance suite: one test per exit criterion, each reporting a
pass/fail line with its measured quantity and runtime.

The oracles here are deliberately independent of the code paths they
check: central finite differences for gradients, permutation search for
assignments, from-scratch greedy linkage for clustering, pair counting
for the rand index, and set arithmetic for IoU.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from helpers import binding_store, finite_diff, record_attention, stack
from solv import datagen, diffcore as dc, objecthead
from solv.binding import spatial_bind, temporal_bind
from solv.config import RunConfig, config_from_dict
from solv.diffcore import ParamStore, Tape, Tensor
from solv.encoder import build_position_grid, make_drop_plan, project_features
from solv.evalkit import hungarian, link_tracks
from solv.model import Pipeline
from solv.objecthead import (
    complete_linkage, cosine_distances, decode, merge_slots,
    reconstruction_loss,
)
from test_evalkit import (
    adjusted_rand_index, assignment_total, brute_force_min_assignment, fg_ari,
    pair_counting_ari, video_miou,
)
from test_objecthead import greedy_linkage_oracle, _decoder_store, _merged


class TestGradientOracle:
    """Analytic gradients vs central differences per pipeline block."""

    def _check_block(self, build, n_instances=20, max_coords=6, tol=1e-4):
        worst = 0.0
        for seed in range(n_instances):
            run, tensors = build(seed)
            loss, tape = run()
            tape.backward(loss)
            rng = np.random.default_rng(1000 + seed)
            worst = max(worst, finite_diff(
                lambda: float(run()[0].data), tensors, rng=rng,
                max_coords=max_coords))
        assert worst <= tol, f"worst relative error {worst:.3g}"
        return worst

    def test_gradient_oracle_all_blocks(self):
        t0 = time.monotonic()
        worsts = {}

        def projection(seed):
            rng = np.random.default_rng(seed)
            store = ParamStore("f64")
            from solv.encoder import projection_param_shapes
            for name, shape in projection_param_shapes(5, 6).items():
                init = np.ones(shape) if name == "ln_g" else \
                    rng.normal(scale=0.4, size=shape)
                store.register("enc.proj." + name, init)
            x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)

            def run():
                tape = Tape()
                with tape:
                    out = project_features(x, store)
                    loss = dc.reduce_mean(dc.mul(out, out))
                return loss, tape

            return run, [x] + list(store.params.values())

        def isa(seed):
            store = binding_store(d_slot=6, k_slots=3, seed=seed)
            grid = build_position_grid(3, 3)
            tokens = Tensor(np.random.default_rng(seed).normal(size=(9, 6)),
                            requires_grad=True)

            def run():
                tape = Tape()
                with tape:
                    z, _ = spatial_bind(tokens, grid, store, delta=5.0,
                                       n_iters=1, invariant=True, init_z=None)
                    loss = dc.reduce_mean(dc.mul(z, z))
                return loss, tape

            names = ["bind.init.z", "bind.init.pos", "bind.init.scale",
                     "bind.q.w", "bind.k.w", "bind.p.w", "bind.g.w"]
            return run, [tokens] + [store[n] for n in names]

        def gru(seed):
            rng = np.random.default_rng(seed)
            p = {k: Tensor(rng.normal(scale=0.5, size=s), requires_grad=True)
                 for k, s in dc.gru_param_shapes(4).items()}
            state = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            inp = Tensor(rng.normal(size=(3, 4)))

            def run():
                tape = Tape()
                with tape:
                    out = dc.gru_cell(state, inp, p)
                    loss = dc.reduce_mean(dc.mul(out, out))
                return loss, tape

            return run, [state] + list(p.values())

        def transformer(seed):
            store = binding_store(d_slot=8, k_slots=2, window=3, n_layers=1,
                                  seed=seed)
            rng = np.random.default_rng(seed)
            slots = [Tensor(rng.normal(size=(2, 8)), requires_grad=True)
                     for _ in range(3)]

            def run():
                tape = Tape()
                with tape:
                    out = temporal_bind(stack(slots, axis=1), np.ones(3, bool),
                                        store, n_layers=1, heads=2)
                    loss = dc.reduce_mean(dc.mul(out, out))
                return loss, tape

            names = ["tbind.temb", "tbind.l0.wq", "tbind.l0.wk",
                     "tbind.l0.wv", "tbind.l0.wo", "tbind.l0.ff_w1",
                     "tbind.l0.ff_w2"]
            return run, slots + [store[n] for n in names]

        def decoder(seed):
            store = _decoder_store(5, 9, 4, hidden=8, seed=seed)
            grid = build_position_grid(3, 3)
            ms = _merged(2, 5, 9, seed=seed)
            ms.cprime.requires_grad = True
            target = np.random.default_rng(seed).normal(size=(9, 4))

            def run():
                tape = Tape()
                with tape:
                    out = decode(ms, store, grid, 5.0, 4, n_layers=5)
                    loss = reconstruction_loss(out.y, target)
                return loss, tape

            names = ["dec.pos", "dec.l0.w", "dec.l2.w", "dec.l4.w",
                     "merge.h.w"]
            return run, [ms.cprime] + [store[n] for n in names]

        def loss_block(seed):
            rng = np.random.default_rng(seed)
            y = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
            target = rng.normal(size=(6, 4))

            def run():
                tape = Tape()
                with tape:
                    loss = reconstruction_loss(y, target)
                return loss, tape

            return run, [y]

        blocks = {"projection": projection, "isa_iteration": isa, "gru": gru,
                  "transformer_layer": transformer, "decoder_mapper": decoder,
                  "loss": loss_block}
        for name, build in blocks.items():
            worsts[name] = self._check_block(build)
        elapsed = time.monotonic() - t0
        worst = max(worsts.values())
        ok = worst <= 1e-4 and elapsed < 120
        record_criterion(
            "gradient oracle (6 blocks x 20 instances, h=1e-5, f64)", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")
        assert ok


class TestAssignmentOracle:
    def test_hungarian_matches_permutation_minimum(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(200):
            r = int(rng.integers(1, 8))
            c = int(rng.integers(1, 8))
            if trial % 2 == 0:
                cost = rng.normal(size=(r, c))
            else:
                cost = rng.integers(0, 50, size=(r, c)).astype(float)
            pairs = hungarian(cost)
            total = assignment_total(cost, pairs)
            expected = brute_force_min_assignment(cost)
            assert total == pytest.approx(expected, abs=1e-9), \
                f"trial {trial}: {total} vs {expected}"
            checked += 1
        elapsed = time.monotonic() - t0
        ok = checked == 200 and elapsed < 30
        record_criterion("assignment oracle (200 matrices up to 7x7)", ok,
                         f"{checked} exact matches, {elapsed:.1f}s")
        assert ok


class TestClusteringOracle:
    def test_merge_partitions_match_brute_force(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1)
        checked = 0
        for trial in range(200):
            k = int(rng.integers(2, 7))
            vectors = rng.normal(size=(k, 6))
            dist = cosine_distances(vectors)
            for tau in (0.05, 0.12, 0.5):
                got = complete_linkage(dist, tau)
                want = greedy_linkage_oracle(dist, tau)
                assert got == want, f"trial {trial} tau {tau}"
            checked += 1
        elapsed = time.monotonic() - t0
        ok = checked == 200 and elapsed < 30
        record_criterion(
            "clustering oracle (200 slot sets, thresholds 0.05/0.12/0.5)",
            ok, f"{checked} matching partitions, {elapsed:.1f}s")
        assert ok


class TestMetricOracles:
    def test_ari_and_miou_against_independent_computation(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 5, size=n)
            got = adjusted_rand_index(a, b)
            want = pair_counting_ari(a, b)
            assert got == pytest.approx(want, abs=1e-10)

        # hand fixtures for video-volume IoU
        gt = np.zeros((1, 3, 3), int)
        gt[0, 0, :2] = 1
        gt[0, 1, :2] = 1
        pred = np.zeros((1, 3, 3), int)
        pred[0, 0, 0] = 7
        pred[0, 1, 0] = 7
        pred[0, 0, 2] = 7
        pred[0, 1, 2] = 7
        assert video_miou(pred, gt) == pytest.approx(1.0 / 3.0, abs=1e-10)

        gt2 = np.array([[[1, 1], [2, 0]], [[1, 1], [2, 0]]])
        assert video_miou(gt2.copy(), gt2) == pytest.approx(1.0, abs=1e-10)
        assert fg_ari(gt2[0], gt2[0]) == pytest.approx(1.0, abs=1e-10)
        elapsed = time.monotonic() - t0
        ok = elapsed < 30
        record_criterion(
            "metric oracles (100 labelings to 1e-10 + IoU fixtures)", ok,
            f"{elapsed:.1f}s")
        assert ok


class TestNormalizationInvariance:
    def test_normalization_and_invariance_suite(self, monkeypatch):
        t0 = time.monotonic()
        # attention columns sum to 1 in every iteration
        attention = record_attention(monkeypatch)
        store = binding_store(d_slot=8, k_slots=4, seed=3)
        grid = build_position_grid(4, 5)
        tokens = Tensor(np.random.default_rng(4).normal(size=(20, 8)))
        spatial_bind(tokens, grid, store, delta=5.0, n_iters=3, invariant=True, init_z=None)
        attn_ok = len(attention) == 3 and all(
            np.allclose(a.sum(axis=0), 1.0, atol=1e-6) for a in attention)

        # decoder masks sum to 1 per token
        dstore = _decoder_store(6, 16, 5, hidden=16, seed=5)
        out = decode(_merged(4, 6, 16, seed=6), dstore,
                     build_position_grid(4, 4), 5.0, 5, n_layers=5)
        mask_ok = np.allclose(out.m.data.sum(axis=0), 1.0, atol=1e-6)

        # ISA translation invariance, bit exact on dyadic inputs in f64
        store2 = binding_store(d_slot=8, k_slots=3, seed=7)
        store2["bind.init.pos"].data = np.array(
            [[0.25, -0.5], [-0.125, 0.375], [0.75, 0.0]])
        grid2 = build_position_grid(5, 5)
        feats = np.random.default_rng(8).normal(size=(25, 8))
        z_a, geometry_a = spatial_bind(Tensor(feats), grid2, store2, delta=5.0, n_iters=3,
                                       invariant=True, init_z=None)
        a_a = attention[-1]
        offset = np.array([0.75, -0.25])
        store2["bind.init.pos"].data = store2["bind.init.pos"].data + offset
        z_b, geometry_b = spatial_bind(Tensor(feats), grid2 + offset, store2,
                                       delta=5.0, n_iters=3, invariant=True, init_z=None)
        translation_ok = np.array_equal(a_a, attention[-1]) and \
            np.array_equal(z_a.data, z_b.data) and \
            np.array_equal(geometry_a.var, geometry_b.var) and \
            np.allclose(geometry_b.position, geometry_a.position + offset,
                        rtol=0, atol=1e-12)

        # loss invariance to slot order
        ms = _merged(3, 6, 16, seed=9)
        target = np.random.default_rng(10).normal(size=(16, 5))
        base = float(reconstruction_loss(
            decode(ms, dstore, build_position_grid(4, 4), 5.0, 5, n_layers=5).y,
            target).data)
        perm = [1, 2, 0]
        permuted = objecthead.MergedSlots(
            cprime=Tensor(ms.cprime.data[perm]),
            members=[ms.members[i] for i in perm],
            position=ms.position[perm], scale=ms.scale[perm])
        permuted_loss = float(reconstruction_loss(
            decode(permuted, dstore, build_position_grid(4, 4), 5.0, 5, n_layers=5).y,
            target).data)
        loss_ok = abs(base - permuted_loss) < 1e-12

        # track labeling invariant to slot permutation
        rng = np.random.default_rng(11)
        prev = rng.normal(size=(4, 8))
        cur = prev + 0.05 * rng.normal(size=(4, 8))
        labels = [np.arange(16).reshape(4, 4) % 4] * 2
        base_tracks = link_tracks([prev, cur], labels)
        perm2 = np.array([3, 1, 0, 2])
        inv = np.argsort(perm2)
        permuted_tracks = link_tracks([prev, cur[perm2]],
                                      [labels[0], inv[labels[1]]])
        track_ok = np.array_equal(base_tracks.frames, permuted_tracks.frames)

        elapsed = time.monotonic() - t0
        ok = all([attn_ok, mask_ok, translation_ok, loss_ok, track_ok]) \
            and elapsed < 60
        record_criterion(
            "normalization/invariance suite", ok,
            f"attn={attn_ok} masks={mask_ok} translation={translation_ok} "
            f"loss_perm={loss_ok} tracks={track_ok}, {elapsed:.1f}s")
        assert ok


class TestStructuralChecks:
    def test_token_budget_and_defaults(self):
        n_kept = make_drop_plan(1, 864, 0.5, seed=0).shape[1]
        budget_ok = n_kept == 432

        cfg = RunConfig()
        defaults_ok = all([
            cfg.model.d_slot == 128,
            cfg.model.isa_iters == 3,
            cfg.model.delta == 5.0,
            cfg.model.transformer_layers == 3,
            cfg.model.transformer_heads == 8,
            cfg.model.decoder_layers == 5,
            cfg.model.decoder_hidden == 1024,
            cfg.train.clip_norm == 1.0,
            cfg.train.warmup_fraction == 0.05,
            cfg.train.peak_lr == 4e-4,
            cfg.model.tau_merge == 0.12,
            cfg.data.frames == 5,
            cfg.model.k_slots == 8,
        ])
        ok = budget_ok and defaults_ok
        record_criterion(
            "structural checks (N'=432 at N=864 r=0.5; defaults)", ok,
            f"N'={n_kept}, defaults_ok={defaults_ok}")
        assert ok
