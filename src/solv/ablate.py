"""Ablation sweeps: component toggles, slot counts, token drop ratios.

Every variant trains and evaluates under the same data seed so rows are
directly comparable and reruns are identical.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from . import datagen, evalkit, objecthead
from .config import DataConfig, RunConfig
from .diffcore import ConfigError, Tape
from .encoder import make_drop_plan
from .model import Pipeline, infer_video, init_params
from .train import train

# Component grid: (merging, invariant attention, temporal binding)
COMPONENT_VARIANTS = {
    "A": (False, False, False),
    "B": (True, False, False),
    "C": (True, False, True),
    "D": (True, True, False),
    "E": (True, True, True),
}


def variants(axis: str, values, base: RunConfig) -> dict[str, RunConfig]:
    """The validated config of each row of one ablation axis, keyed by
    row name; each row trains into ``<checkpoint_dir>/<row name>``.
    Refuses what the sweep would misread: any value for components; for
    slots and drop_ratio no value, two values naming the same row, or a
    slot count that is not whole."""
    values = list(values)
    if axis == "components":
        if values:
            raise ConfigError(f"ablation axis components takes no values, got {values}")
        rows = [(f"model_{name}", "model", dict(use_merging=merge, use_invariant_attention=isa,
                                               use_temporal_binding=temporal))
                for name, (merge, isa, temporal) in COMPONENT_VARIANTS.items()]
    elif axis == "slots":
        if any(not float(k).is_integer() for k in values):
            raise ConfigError(f"slot counts must be whole numbers, got {values}")
        rows = [(f"k{int(k)}_{'merge' if merging else 'nomerge'}", "model",
                 dict(k_slots=int(k), use_merging=merging))
                for k in values for merging in (False, True)]
    elif axis == "drop_ratio":
        rows = [(f"r{float(r):g}", "train", dict(drop_ratio=float(r))) for r in values]
    else:
        raise ValueError(f"unknown ablation axis {axis!r}; "
                         f"expected components, slots, or drop_ratio")
    if not rows:
        raise ConfigError(f"ablation axis {axis} needs at least one value")
    if len({name for name, _, _ in rows}) < len(rows):
        raise ConfigError(f"ablation axis {axis} values {values} name a row twice")
    table = {}
    for name, section, fields in rows:
        paths = replace(base.paths, checkpoint_dir=os.path.join(base.paths.checkpoint_dir, name))
        changed = {section: replace(getattr(base, section), **fields)}
        table[name] = replace(base, paths=paths, **changed).validate()
    return table


def _val_specs(d: DataConfig) -> list:
    return datagen.dataset_split(d.seed, d.clip_count, (d.canvas_h, d.canvas_w), d.patch,
                                 d.frames, (d.sprite_min, d.sprite_max))[1]


def _train_and_score(cfg: RunConfig, eval_clips: int) -> dict:
    store, _ = train(cfg)
    pipe = Pipeline(cfg, store)
    d = cfg.data
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features, d.sigma_noise)
    k_t_means = []

    def segmented():
        for i, spec in enumerate(_val_specs(d)[:eval_clips]):
            clip = datagen.render_clip(spec, oracle)
            tracked, k_t = infer_video(pipe, clip.features)
            k_t_means.append(float(np.mean(k_t)))
            yield i, tracked.frames, clip.gt_pixel_labels

    report = evalkit.score_videos(segmented())
    return {"mean_fg_ari": report["mean_fg_ari"], "mean_miou": report["mean_miou"],
            "mean_k_t": float(np.mean(k_t_means))}


def peak_live_values(cfg: RunConfig) -> int:
    """Recorded forward-pass value count for one clip at the config's
    drop ratio (memory proxy for the drop-ratio sweep). It depends only
    on shapes, so the clip's features are zeros."""
    d = cfg.data
    features = np.zeros((d.frames, d.n_tokens, d.d_features))
    kept = make_drop_plan(d.frames, d.n_tokens, cfg.train.drop_ratio, d.seed)
    pipe = Pipeline(cfg, init_params(cfg))
    tape = Tape()
    with tape:
        out = pipe.forward_window(features, np.ones(d.frames, bool), kept,
                                  apply_merge=False)
        objecthead.reconstruction_loss(out.decoded.y, features[d.frames // 2])
    return tape.live_elements


def ablate(axis: str, values, base_cfg: RunConfig, eval_clips: int) -> dict:
    """Train/evaluate each variant of one ablation axis; returns rows
    keyed by variant name, comparable across reruns. Every row's config
    and ``eval_clips`` are checked before the first row trains."""
    if eval_clips < 1:
        raise ConfigError(f"eval_clips must be >= 1, got {eval_clips}")
    table = variants(axis, values, base_cfg)
    n_val = len(_val_specs(base_cfg.data))
    if eval_clips > n_val:
        raise ConfigError(f"eval_clips {eval_clips} exceeds the {n_val} validation clips")
    rows = {}
    for name, cfg in table.items():
        rows[name] = _train_and_score(cfg, eval_clips)
        if axis == "drop_ratio":
            rows[name]["peak_live_values"] = peak_live_values(cfg)
    return rows


def format_table(rows: dict) -> str:
    order = ["mean_miou", "mean_fg_ari", "mean_k_t", "peak_live_values"]
    present = [c for c in order if any(c in r for r in rows.values())]
    lines = ["  ".join(f"{c:>16}" for c in ["variant"] + present)]
    for name, row in rows.items():
        cells = [f"{name:>16}"]
        for c in present:
            v = row.get(c)
            if v is None:
                cells.append(f"{'-':>16}")
            elif isinstance(v, float):
                cells.append(f"{v:>16.4f}")
            else:
                cells.append(f"{v:>16}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
