"""Training loop, checkpoint loading for inference, and evaluation.

A training step samples a batch of clips, accumulates per-clip gradients
of the center-frame reconstruction loss, clips the global gradient norm,
and applies one Adam update on the warmup/decay schedule. A warmup step
at learning rate 0 computes and logs its losses but runs no backward, as
no update would use its gradients. Slot merging during training is
gated by an epoch-dependent probability; at inference it is always on.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import datagen, evalkit, objecthead
from .config import RunConfig, learning_rate
from .diffcore import ConfigError, ParamStore, Tape, read_json_object, write_json
from .encoder import make_drop_plan
from .model import Pipeline, infer_video, init_params, param_shapes
from .objecthead import merge_gate

log = logging.getLogger(__name__)


@dataclass
class TrainLog:
    epoch_losses: list = field(default_factory=list)
    step_losses: list = field(default_factory=list)
    k_t_histograms: list = field(default_factory=list)
    skipped_steps: int = 0
    checkpoint: str = ""


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _write_meta(ckpt_path: str, cfg: RunConfig, store: ParamStore, epoch: int) -> None:
    meta = {"config_digest": cfg.digest(), "step": store.step, "epoch": epoch}
    write_json(ckpt_path + ".meta.json", meta)


def check_compatible(ckpt_path: str, cfg: RunConfig) -> None:
    """Refuse checkpoints trained under a different configuration."""
    meta_path = ckpt_path + ".meta.json"
    if not os.path.exists(meta_path):
        raise ConfigError(f"{meta_path}: missing; a checkpoint loads only with its sidecar")
    meta = read_json_object(meta_path)
    if meta.get("config_digest") != cfg.digest():
        raise ConfigError(
            f"{meta_path}: checkpoint digest {meta.get('config_digest')} does not match "
            f"config digest {cfg.digest()}"
        )


def train(cfg: RunConfig, max_steps: int | None = None,
          progress=None) -> tuple[ParamStore, TrainLog]:
    """Run the full training loop; returns the store and a log.

    ``max_steps`` truncates the run (smoke tests); the schedule still
    spans the truncated horizon so the peak learning rate is reached.
    ``latest.ckpt`` is saved at the end of each epoch reached and
    ``final.ckpt`` at the end; each sidecar holds its last step's epoch.
    """
    cfg.validate()
    if max_steps is not None and max_steps < 1:
        raise ConfigError(f"max_steps must be >= 1, got {max_steps}")
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

    shuffle_rng = np.random.default_rng(np.random.SeedSequence([d.seed, 0x5FF1]))
    gate_rng = np.random.default_rng(np.random.SeedSequence([d.seed, 0x6A7E]))
    ckpt_dir = cfg.paths.checkpoint_dir
    os.makedirs(ckpt_dir, exist_ok=True)
    latest, final = (os.path.join(ckpt_dir, n) for n in ("latest.ckpt", "final.ckpt"))

    result = TrainLog()
    nonfinite_streak = 0
    availability = np.ones(d.frames, dtype=bool)
    for step in range(total_steps):
        epoch, b = divmod(step, steps_per_epoch)
        apply_merge = merge_gate(epoch, tr.epochs, gate_rng)
        if b == 0:
            order = shuffle_rng.permutation(len(train_specs))
            epoch_losses, epoch_k_t = [], {}
        lr = learning_rate(tr, total_steps, step)
        losses = []
        for ci, i in enumerate(order[b * batch:(b + 1) * batch]):
            clip = datagen.render_clip(train_specs[i], oracle)
            kept = make_drop_plan(
                d.frames, d.n_tokens, tr.drop_ratio,
                _derive_seed(d.seed, 0xD809, epoch, b, ci))
            jitter = None
            if cfg.model.init_noise > 0:
                jit_rng = np.random.default_rng(
                    _derive_seed(d.seed, 0x1177, epoch, b, ci))
                jitter = cfg.model.init_noise * jit_rng.standard_normal(
                    (cfg.model.k_slots, cfg.model.d_slot))
            tape = Tape()
            with tape:
                out = pipe.forward_window(
                    clip.features, availability, kept,
                    apply_merge, init_jitter=jitter)
                loss = objecthead.reconstruction_loss(
                    out.decoded.y, clip.features[clip.center])
                scaled = loss * (1.0 / batch)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                losses = None
                break
            if lr > 0:  # at lr 0 the gradients would be thrown away
                tape.backward(scaled)
            losses.append(loss_val)
            k_t = out.merged.k_t
            epoch_k_t[k_t] = epoch_k_t.get(k_t, 0) + 1
        finite = losses is not None
        if finite and lr > 0:
            finite = math.isfinite(store.adam_step(lr, clip_norm=tr.clip_norm))
        else:
            store.zero_grads()
        if finite:
            nonfinite_streak = 0
            mean_loss = float(np.mean(losses))
            result.step_losses.append(mean_loss)
            epoch_losses.append(mean_loss)
            if progress is not None:
                progress(step, total_steps, mean_loss, lr)
        else:
            nonfinite_streak += 1
            result.skipped_steps += 1
            log.warning("non-finite loss or gradient at step %d; step skipped", step)
            if nonfinite_streak >= 3:
                raise RuntimeError(
                    f"3 consecutive non-finite steps (last at step {step}); "
                    f"lr={lr:.3g}, epoch={epoch}")
        if b == steps_per_epoch - 1 or step == total_steps - 1:
            if epoch_losses:
                result.epoch_losses.append(float(np.mean(epoch_losses)))
                result.k_t_histograms.append(epoch_k_t)
                log.info("epoch %d: loss %.5f lr %.2e k_t %s",
                         epoch, result.epoch_losses[-1], lr, epoch_k_t)
            store.save(latest)
            _write_meta(latest, cfg, store, epoch)
    store.save(final)
    _write_meta(final, cfg, store, epoch)
    result.checkpoint = final
    return store, result


# ---------------------------------------------------------------------------
# Inference and evaluation
# ---------------------------------------------------------------------------

def load_pipeline(cfg: RunConfig, ckpt_path: str) -> Pipeline:
    """A pipeline whose parameters are read from ``ckpt_path``. The store
    is registered from the parameter shapes with zero-byte read-only
    views, which the checkpoint's arrays replace, so loading holds one
    copy of the parameters; the store holds no Adam moments."""
    check_compatible(ckpt_path, cfg)
    store = ParamStore(cfg.train.precision)
    for name, shape in param_shapes(cfg).items():
        store.register(name, np.broadcast_to(np.zeros((), store.dtype), shape))
    store.load(ckpt_path)
    return Pipeline(cfg, store)


def evaluate_clips(pipe: Pipeline, specs, oracle) -> list[dict]:
    """Segment each clip and score it against its own ground truth."""
    rows = []
    for spec in specs:
        clip = datagen.render_clip(spec, oracle)
        tracked, k_t = infer_video(pipe, clip.features)
        rows.append({**evalkit.score_video(tracked.frames, clip.gt_pixel_labels),
                     "mean_k_t": float(np.mean(k_t))})
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
        score = evalkit.score_video(pred, gt)
        videos.append({
            "id": vid, "fg_ari": score["fg_ari"], "miou": score["miou"],
            "k_t_histogram": {str(k): v for k, v in score["k_t_histogram"].items()},
        })
    report = {"videos": videos, **summarize(videos), "config_digest": config_digest}
    if report_path:
        write_json(report_path, report)
    return report
