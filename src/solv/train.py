"""Training loop, checkpoint loading for inference, and evaluation.

A training step samples a batch of clips, accumulates per-clip gradients
of the center-frame reconstruction loss, clips the global gradient norm,
and applies one Adam update on the warmup/decay schedule. Slot merging
during training is gated by an epoch-dependent probability; at inference
it is always on.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import datagen, evalkit
from .config import LrSchedule, RunConfig
from .diffcore import ConfigError, ParamStore, Tape, atomic_write
from .encoder import make_drop_plan
from .model import Pipeline, infer_video, init_params
from .objecthead import merge_gate

log = logging.getLogger(__name__)


@dataclass
class TrainLog:
    epoch_losses: list = field(default_factory=list)
    step_losses: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    k_t_histograms: list = field(default_factory=list)
    skipped_steps: int = 0
    checkpoint: str = ""


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _write_meta(ckpt_path: str, cfg: RunConfig, store: ParamStore, epoch: int) -> None:
    meta = {"config_digest": cfg.digest(), "step": store.step, "epoch": epoch}
    with atomic_write(ckpt_path + ".meta.json", "w") as f:
        json.dump(meta, f)


def check_compatible(ckpt_path: str, cfg: RunConfig) -> None:
    """Refuse checkpoints trained under a different configuration."""
    meta_path = ckpt_path + ".meta.json"
    if not os.path.exists(meta_path):
        log.warning("no sidecar metadata for %s; skipping digest check", ckpt_path)
        return
    with open(meta_path) as f:
        meta = json.load(f)
    if meta.get("config_digest") != cfg.digest():
        raise ConfigError(
            f"checkpoint digest {meta.get('config_digest')} does not match "
            f"config digest {cfg.digest()}"
        )


def train(cfg: RunConfig, max_steps: int | None = None,
          progress=None) -> tuple[ParamStore, TrainLog]:
    """Run the full training loop; returns the store and a log.

    ``max_steps`` truncates the run (smoke tests); the schedule still
    spans the truncated horizon so the peak learning rate is reached.
    """
    cfg.validate()
    d, tr = cfg.data, cfg.train
    train_specs, _ = datagen.dataset_split(
        d.seed, d.clip_count, (d.canvas_h, d.canvas_w), d.patch, d.frames,
        (d.sprite_min, d.sprite_max))
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features, d.sigma_noise)

    store = init_params(cfg)
    pipe = Pipeline(cfg, store)
    batch = min(tr.batch_size, len(train_specs))
    steps_per_epoch = max(1, len(train_specs) // batch)
    total_steps = tr.epochs * steps_per_epoch
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)
    sched = LrSchedule.from_config(tr, total_steps)

    shuffle_rng = np.random.default_rng(np.random.SeedSequence([d.seed, 0x5FF1]))
    gate_rng = np.random.default_rng(np.random.SeedSequence([d.seed, 0x6A7E]))
    ckpt_dir = cfg.paths.checkpoint_dir
    os.makedirs(ckpt_dir, exist_ok=True)

    result = TrainLog()
    nonfinite_streak = 0
    step = 0
    done = False
    for epoch in range(tr.epochs):
        if done:
            break
        order = shuffle_rng.permutation(len(train_specs))
        epoch_losses = []
        epoch_k_t = {}
        for b in range(steps_per_epoch):
            if step >= total_steps:
                done = True
                break
            batch_specs = [train_specs[i] for i in order[b * batch:(b + 1) * batch]]
            apply_merge = merge_gate(epoch, tr.epochs, gate_rng)
            lr = sched.lr(step)
            losses = []
            store.zero_grads()
            for ci, spec in enumerate(batch_specs):
                clip = datagen.render_clip(spec, oracle)
                plan = make_drop_plan(
                    d.frames, d.n_tokens, tr.drop_ratio,
                    _derive_seed(d.seed, 0xD809, epoch, b, ci))
                availability = np.ones(d.frames, dtype=bool)
                jitter = None
                if cfg.model.init_noise > 0:
                    jit_rng = np.random.default_rng(
                        _derive_seed(d.seed, 0x1177, epoch, b, ci))
                    jitter = cfg.model.init_noise * jit_rng.standard_normal(
                        (cfg.model.k_slots, cfg.model.d_slot))
                tape = Tape()
                with tape:
                    out = pipe.forward_window(
                        clip.features, availability, list(plan.kept_indices),
                        apply_merge, init_jitter=jitter)
                    loss = pipe.window_loss(out, clip.features[clip.center])
                    scaled = loss * (1.0 / batch)
                loss_val = float(loss.data)
                if not math.isfinite(loss_val):
                    losses = None
                    break
                tape.backward(scaled)
                losses.append(loss_val)
                k_t = out.merged.k_t
                epoch_k_t[k_t] = epoch_k_t.get(k_t, 0) + 1
            finite = losses is not None
            if finite and lr > 0:
                finite = math.isfinite(store.adam_step(lr, clip_norm=tr.clip_norm))
            else:
                store.zero_grads()
            if not finite:
                nonfinite_streak += 1
                result.skipped_steps += 1
                log.warning("non-finite loss or gradient at step %d; step skipped", step)
                if nonfinite_streak >= 3:
                    raise RuntimeError(
                        f"3 consecutive non-finite steps (last at step {step}); "
                        f"lr={lr:.3g}, epoch={epoch}")
                step += 1
                continue
            nonfinite_streak = 0
            mean_loss = float(np.mean(losses))
            result.step_losses.append(mean_loss)
            result.lrs.append(lr)
            epoch_losses.append(mean_loss)
            if progress is not None:
                progress(step, total_steps, mean_loss, lr)
            step += 1
        if epoch_losses:
            result.epoch_losses.append(float(np.mean(epoch_losses)))
            result.k_t_histograms.append(epoch_k_t)
            log.info("epoch %d: loss %.5f lr %.2e k_t %s",
                     epoch, result.epoch_losses[-1], sched.lr(step - 1), epoch_k_t)
        latest = os.path.join(ckpt_dir, "latest.ckpt")
        store.save(latest)
        _write_meta(latest, cfg, store, epoch)
    final = os.path.join(ckpt_dir, "final.ckpt")
    store.save(final)
    _write_meta(final, cfg, store, tr.epochs - 1)
    result.checkpoint = final
    return store, result


# ---------------------------------------------------------------------------
# Inference and evaluation
# ---------------------------------------------------------------------------

def load_pipeline(cfg: RunConfig, ckpt_path: str) -> Pipeline:
    check_compatible(ckpt_path, cfg)
    store = init_params(cfg)
    store.load(ckpt_path)
    return Pipeline(cfg, store)


def evaluate_clips(pipe: Pipeline, specs, oracle) -> list[dict]:
    """Segment each clip and score it against its own ground truth."""
    rows = []
    for spec in specs:
        clip = datagen.render_clip(spec, oracle)
        tracked, k_t = infer_video(pipe, clip.features)
        ari, skipped = evalkit.mean_fg_ari(tracked.frames, clip.gt_pixel_labels)
        miou = evalkit.video_miou(tracked.frames, clip.gt_pixel_labels)
        rows.append({
            "fg_ari": ari, "miou": miou, "skipped_frames": skipped,
            "k_t_histogram": evalkit.k_t_histogram(tracked.frames),
            "mean_k_t": float(np.mean(k_t)),
        })
    return rows


def summarize(per_video: list[dict]) -> dict:
    aris = [v["fg_ari"] for v in per_video if v["fg_ari"] is not None]
    mious = [v["miou"] for v in per_video if v["miou"] is not None]
    return {
        "mean_fg_ari": float(np.mean(aris)) if aris else None,
        "mean_miou": float(np.mean(mious)) if mious else None,
    }


def evaluate_dirs(pred_dir: str, gt_dir: str, report_path: str | None = None,
                  config_digest: str = "") -> dict:
    """Score mask files in pred_dir against same-named files in gt_dir."""
    def ids_of(d):
        return {os.path.splitext(f)[0] for f in os.listdir(d) if f.endswith(".mask")}

    pred_ids, gt_ids = ids_of(pred_dir), ids_of(gt_dir)
    if pred_ids != gt_ids:
        missing_pred = sorted(gt_ids - pred_ids)
        missing_gt = sorted(pred_ids - gt_ids)
        raise ValueError(
            f"video id mismatch: missing predictions {missing_pred}, "
            f"missing ground truth {missing_gt}")
    if not pred_ids:
        raise ValueError("no .mask files found in either directory")
    videos = []
    for vid in sorted(pred_ids):
        pred = datagen.read_masks(os.path.join(pred_dir, vid + ".mask"))
        gt = datagen.read_masks(os.path.join(gt_dir, vid + ".mask"))
        if pred.shape != gt.shape:
            raise ValueError(
                f"video {vid}: predicted masks have shape {pred.shape}, "
                f"ground truth has shape {gt.shape}")
        ari, _ = evalkit.mean_fg_ari(pred, gt)
        miou = evalkit.video_miou(pred, gt)
        videos.append({
            "id": vid, "fg_ari": ari, "miou": miou,
            "k_t_histogram": {str(k): v for k, v in evalkit.k_t_histogram(pred).items()},
        })
    report = {"videos": videos, **summarize(videos), "config_digest": config_digest}
    if report_path:
        os.makedirs(os.path.dirname(report_path) or ".", exist_ok=True)
        with open(report_path, "w") as f:
            json.dump(report, f, indent=2)
    return report
