"""Command-line interface: train, infer, evaluate, ablate, gen."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import ablate as ablate_mod
from . import datagen
from .config import DataConfig, RunConfig, load_config, section_from_dict
from .diffcore import ConfigError, read_json_object, write_json
from .model import infer_video
from .train import evaluate_dirs, load_pipeline, train


def _load_cfg(path: str | None) -> RunConfig:
    return load_config(path) if path else RunConfig().validate()


def cmd_train(args) -> int:
    cfg = _load_cfg(args.config)

    def progress(step, total, loss, lr):
        if step % 10 == 0 or step == total - 1:
            print(f"step {step + 1}/{total}  loss {loss:.5f}  lr {lr:.2e}", flush=True)

    _, result = train(cfg, progress=progress)
    print(f"final checkpoint: {result.checkpoint}")
    for e, loss in enumerate(result.epoch_losses):
        print(f"epoch {e}: loss {loss:.5f}  k_t {result.k_t_histograms[e]}")
    return 0


def cmd_infer(args) -> int:
    cfg = _load_cfg(args.config)
    pipe = load_pipeline(cfg, args.checkpoint)
    os.makedirs(args.out, exist_ok=True)
    d = cfg.data
    if args.features.startswith("synthetic:"):
        seed = int(args.features.split(":", 1)[1])
        spec = datagen.random_scene(seed, (d.canvas_h, d.canvas_w), d.patch,
                                    d.frames, (d.sprite_min, d.sprite_max))
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        feats = datagen.render_clip(spec, oracle).features
        vid = f"synthetic_{seed}"
    else:
        feats = datagen.read_features(args.features)
        vid = os.path.splitext(os.path.basename(args.features))[0]
    tracked, _ = infer_video(pipe, feats)
    out_path = os.path.join(args.out, vid + ".mask")
    datagen.write_masks(out_path, tracked.frames)
    print(f"wrote {out_path} ({tracked.frames.shape[0]} frames, "
          f"{tracked.n_tracks} tracks)")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args.config)
    report = evaluate_dirs(args.pred, args.gt, args.report, cfg.digest())
    print(json.dumps({k: report[k] for k in ("mean_fg_ari", "mean_miou")}, indent=2))
    print(f"report written to {args.report}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args.config)
    values = [float(v) for v in args.values.split(",")] if args.values else []
    rows = ablate_mod.ablate(args.axis, values, cfg, eval_clips=args.eval_clips)
    print(ablate_mod.format_table(rows))
    if args.out:
        write_json(args.out, rows)
        print(f"table written to {args.out}")
    return 0


def cmd_gen(args) -> int:
    payload = read_json_object(args.spec)
    split = payload.pop("split", "all")
    if split not in ("train", "val", "all"):
        raise ConfigError(f"{args.spec}: split must be train, val or all, got {split!r}")
    d = section_from_dict(DataConfig, payload, "data.").validate()
    train_specs, val_specs = datagen.dataset_split(
        d.seed, d.clip_count, (d.canvas_h, d.canvas_w), d.patch, d.frames,
        (d.sprite_min, d.sprite_max))
    chosen = {"train": train_specs, "val": val_specs,
              "all": train_specs + val_specs}[split]
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                   d.sigma_noise)
    os.makedirs(args.out, exist_ok=True)
    for i, spec in enumerate(chosen):
        clip = datagen.render_clip(spec, oracle)
        stem = os.path.join(args.out, f"clip_{i:04d}")
        datagen.write_features(stem + ".features", clip.features)
        datagen.write_masks(stem + ".mask", clip.gt_pixel_labels)
    print(f"wrote {len(chosen)} clips to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="solv",
        description="object-centric video segmentation: train, infer, evaluate")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a config file")
    t.add_argument("--config", help="JSON run config (defaults when omitted)")
    t.set_defaults(fn=cmd_train)

    i = sub.add_parser("infer", help="segment a video from features or a synthetic seed")
    i.add_argument("--config")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--features", required=True,
                   help="feature file path or synthetic:<seed>")
    i.add_argument("--out", required=True, help="output directory for mask files")
    i.set_defaults(fn=cmd_infer)

    e = sub.add_parser("evaluate", help="score predicted masks against ground truth")
    e.add_argument("--config")
    e.add_argument("--pred", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--report", required=True)
    e.set_defaults(fn=cmd_evaluate)

    a = sub.add_parser("ablate", help="run one ablation axis")
    a.add_argument("--axis", required=True,
                   choices=["components", "slots", "drop_ratio"])
    a.add_argument("--values", default="",
                   help="comma-separated values (none for components)")
    a.add_argument("--config")
    a.add_argument("--out", help="JSON output path")
    a.add_argument("--eval-clips", type=int, default=16)
    a.set_defaults(fn=cmd_ablate)

    g = sub.add_parser("gen", help="generate feature and mask files")
    g.add_argument("--spec", required=True,
                   help="JSON with data fields plus optional split=train|val|all")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
