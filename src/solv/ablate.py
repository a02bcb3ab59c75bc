"""Ablation sweeps: component toggles, slot counts, token drop ratios.

Every variant trains and evaluates under the same data seed so rows are
directly comparable and reruns are identical.
"""

from __future__ import annotations

import copy

import numpy as np

from . import datagen, objecthead
from .config import RunConfig
from .diffcore import ConfigError, Tape
from .encoder import make_drop_plan
from .model import Pipeline
from .train import evaluate_clips, summarize, train

# Component grid: (merging, invariant attention, temporal binding)
COMPONENT_VARIANTS = {
    "A": (False, False, False),
    "B": (True, False, False),
    "C": (True, False, True),
    "D": (True, True, False),
    "E": (True, True, True),
}


def _variant_cfg(base: RunConfig, **model_overrides) -> RunConfig:
    cfg = copy.deepcopy(base)
    for key, value in model_overrides.items():
        setattr(cfg.model, key, value)
    return cfg


def _train_and_score(cfg: RunConfig, eval_clips: int) -> dict:
    store, _ = train(cfg)
    pipe = Pipeline(cfg, store)
    d = cfg.data
    _, val_specs = datagen.dataset_split(
        d.seed, d.clip_count, (d.canvas_h, d.canvas_w), d.patch, d.frames,
        (d.sprite_min, d.sprite_max))
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features, d.sigma_noise)
    per_video = evaluate_clips(pipe, val_specs[:eval_clips], oracle)
    row = summarize(per_video)
    row["mean_k_t"] = float(np.mean([v["mean_k_t"] for v in per_video]))
    return row


def peak_live_values(cfg: RunConfig) -> int:
    """Recorded forward-pass value count for one clip at the config's
    drop ratio (memory proxy for the drop-ratio sweep)."""
    d = cfg.data
    spec = datagen.random_scene(
        d.seed, (d.canvas_h, d.canvas_w), d.patch, d.frames,
        (d.sprite_min, d.sprite_max))
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features, d.sigma_noise)
    clip = datagen.render_clip(spec, oracle)
    pipe = Pipeline(cfg)
    kept = make_drop_plan(d.frames, d.n_tokens, cfg.train.drop_ratio, d.seed)
    tape = Tape()
    with tape:
        out = pipe.forward_window(clip.features, np.ones(d.frames, bool),
                                  kept, apply_merge=False)
        objecthead.reconstruction_loss(out.decoded.y, clip.features[clip.center])
    return tape.live_elements


def _row_tags(axis: str, values) -> list[str]:
    """The row-name stem of each swept value. Refuses what the sweep would
    misread: any value for components; for slots and drop_ratio no value,
    two values naming the same row, or a slot count that is not whole."""
    if axis == "components":
        if values:
            raise ConfigError(f"ablation axis components takes no values, got {values}")
        return []
    if axis == "slots":
        if any(not float(k).is_integer() for k in values):
            raise ConfigError(f"slot counts must be whole numbers, got {values}")
        tags = [f"k{int(k)}" for k in values]
    elif axis == "drop_ratio":
        tags = [f"r{float(r):g}" for r in values]
    else:
        raise ValueError(f"unknown ablation axis {axis!r}; "
                         f"expected components, slots, or drop_ratio")
    if not tags:
        raise ConfigError(f"ablation axis {axis} needs at least one value")
    if len(set(tags)) < len(tags):
        raise ConfigError(f"ablation axis {axis} values {values} name a row twice")
    return tags


def ablate(axis: str, values, base_cfg: RunConfig, eval_clips: int = 16) -> dict:
    """Train/evaluate each variant of one ablation axis; returns rows
    keyed by variant name, comparable across reruns."""
    values = list(values)
    tags = _row_tags(axis, values)
    rows = {}
    if axis == "components":
        for name, (merge, isa, temporal) in COMPONENT_VARIANTS.items():
            cfg = _variant_cfg(base_cfg, use_merging=merge,
                               use_invariant_attention=isa,
                               use_temporal_binding=temporal)
            rows[f"model_{name}"] = _train_and_score(cfg, eval_clips)
    elif axis == "slots":
        for k, tag in zip(values, tags):
            for merging in (False, True):
                cfg = _variant_cfg(base_cfg, k_slots=int(k), use_merging=merging)
                rows[f"{tag}_{'merge' if merging else 'nomerge'}"] = \
                    _train_and_score(cfg, eval_clips)
    else:
        for r, tag in zip(values, tags):
            cfg = copy.deepcopy(base_cfg)
            cfg.train.drop_ratio = float(r)
            row = _train_and_score(cfg, eval_clips)
            row["peak_live_values"] = peak_live_values(cfg)
            rows[tag] = row
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
