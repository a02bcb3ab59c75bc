"""Run configuration, strict JSON loading, and the learning-rate schedule."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import InitVar, dataclass, field

from .diffcore import ConfigError, read_json_object


@dataclass
class ModelConfig:
    k_slots: int = 8
    d_slot: int = 128
    delta: float = 5.0         # scale multiplier taming relative coordinates
    tau_merge: float = 0.12
    isa_iters: int = 3
    transformer_layers: int = 3
    transformer_heads: int = 8
    decoder_layers: int = 5
    decoder_hidden: int = 1024
    use_invariant_attention: bool = True
    use_temporal_binding: bool = True
    use_merging: bool = True
    init_noise: float = 0.5  # training-time jitter of the shared slot init
    # Not a field, as the window is ``data.frames``: accepted and unused
    # for the benchmark's test fixture, which still passes it.
    n_window: InitVar[int | None] = None


@dataclass
class DataConfig:
    canvas_h: int = 128
    canvas_w: int = 128
    patch: int = 8
    d_features: int = 64
    sprite_min: int = 1
    sprite_max: int = 4
    sigma_noise: float = 0.05
    seed: int = 17
    clip_count: int = 569      # 90/10 split yields 512 training clips
    frames: int = 5

    @property
    def grid_rows(self) -> int:
        return self.canvas_h // self.patch

    @property
    def grid_cols(self) -> int:
        return self.canvas_w // self.patch

    @property
    def n_tokens(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def n_identities(self) -> int:
        return self.sprite_max + 1

    def validate(self) -> "DataConfig":
        """Check the data fields, which ``solv gen`` uses alone."""
        _check_ranges(self, "data.")
        if self.canvas_h % self.patch or self.canvas_w % self.patch:
            raise ConfigError("data.canvas_h and data.canvas_w must be divisible by data.patch")
        if min(self.canvas_h, self.canvas_w) < 2 * self.patch:
            raise ConfigError(f"data.canvas_h and data.canvas_w must be >= 2 * data.patch, the "
                              f"smallest sprite size, got {self.canvas_h}x{self.canvas_w}")
        if self.sprite_min > self.sprite_max:
            raise ConfigError(f"data.sprite_min must be <= data.sprite_max, "
                              f"got {self.sprite_min} > {self.sprite_max}")
        if self.d_features < self.n_identities + 2:
            raise ConfigError(f"data.d_features must be >= data.sprite_max + 3, "
                              f"got {self.d_features}")
        return self


@dataclass
class TrainConfig:
    epochs: int = 6
    batch_size: int = 8
    peak_lr: float = 4e-4
    warmup_fraction: float = 0.05
    final_lr_fraction: float = 0.01
    clip_norm: float = 1.0
    drop_ratio: float = 0.5
    precision: str = "f32"


@dataclass
class PathsConfig:
    checkpoint_dir: str = "checkpoints"


# The range of every int and float field, in interval notation: a value
# outside it fails in the first forward, a division or an empty loop, or
# silently means something else.
_RANGES = {
    ModelConfig: {
        "k_slots": "[1, inf)", "d_slot": "[1, inf)", "delta": "(0, inf)", "tau_merge": "(0, 2)",
        "isa_iters": "[1, inf)", "transformer_layers": "[1, inf)", "transformer_heads": "[1, inf)",
        "decoder_layers": "[1, inf)", "decoder_hidden": "[1, inf)", "init_noise": "[0, inf)"},
    DataConfig: {
        "canvas_h": "[1, inf)", "canvas_w": "[1, inf)", "patch": "[1, inf)",
        "d_features": "[1, inf)", "sprite_min": "[0, inf)", "sprite_max": "[1, inf)",
        "sigma_noise": "[0, inf)", "seed": "[0, inf)", "clip_count": "[2, inf)",
        "frames": "[1, inf)"},
    TrainConfig: {
        "epochs": "[1, inf)", "batch_size": "[1, inf)", "peak_lr": "(0, inf)",
        "warmup_fraction": "[0, 1)", "final_lr_fraction": "(0, 1]", "clip_norm": "(0, inf)",
        "drop_ratio": "[0, 1)"},
}


def _check_ranges(section, path: str) -> None:
    """Refuse an int or float field of ``section`` outside its range;
    ``path`` prefixes field names in errors (``"data."``)."""
    for name, interval in _RANGES[type(section)].items():
        value, (least, greatest) = getattr(section, name), interval[1:-1].split(", ")
        above = float(least) <= value if interval[0] == "[" else float(least) < value
        below = value <= float(greatest) if interval[-1] == "]" else value < float(greatest)
        if not (above and below):
            rule = f"be >= {least}" if interval == f"[{least}, inf)" else f"lie in {interval}"
            raise ConfigError(f"{path}{name} must {rule}, got {value!r}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def validate(self) -> "RunConfig":
        m, d, t = self.model, self.data, self.train
        d.validate()
        _check_ranges(m, "model.")
        _check_ranges(t, "train.")
        if t.precision not in ("f32", "f64"):
            raise ConfigError(f"train.precision must be f32 or f64, got {t.precision!r}")
        if m.d_slot % m.transformer_heads:
            raise ConfigError("model.d_slot must be divisible by model.transformer_heads")
        if m.use_temporal_binding and d.frames % 2 == 0:
            raise ConfigError(f"data.frames must be odd with temporal binding on, got {d.frames}")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        """Hash of the sections a trained model depends on: ``model``,
        ``data`` and ``train``. Where files go (``paths``) is not part of it."""
        shaping = {"model": vars(self.model), "data": vars(self.data), "train": vars(self.train)}
        blob = json.dumps(shaping, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# What a JSON value must be for a field of each annotated type: a bool is
# not a number here, and a float field takes an int.
_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and math.isfinite(v))),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def section_from_dict(cls, payload: dict, path: str):
    """Build config section ``cls`` from ``payload``, refusing unknown
    keys and values of the wrong type; ``path`` prefixes field names in
    errors (``"data."``)."""
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config keys at {path}: {unknown}")
    for name, value in payload.items():
        expected, ok = _KINDS[fields[name]]
        if not ok(value):
            raise ConfigError(f"{path}{name} must be {expected}, got {value!r}")
    return cls(**payload)


_SECTIONS = {"model": ModelConfig, "data": DataConfig, "train": TrainConfig, "paths": PathsConfig}


def config_from_dict(payload: dict) -> RunConfig:
    unknown = sorted(set(payload) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config keys at top level: {unknown}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in payload:
            if not isinstance(payload[name], dict):
                raise ConfigError(f"config section {name!r} must be an object")
            kwargs[name] = section_from_dict(cls, payload[name], f"{name}.")
    return RunConfig(**kwargs).validate()


def load_config(path: str) -> RunConfig:
    return config_from_dict(read_json_object(path))


def learning_rate(train: TrainConfig, total_steps: int, step: int) -> float:
    """Linear warmup to ``peak_lr``, then exponential decay to
    ``final_lr_fraction * peak_lr`` at the last of ``total_steps`` steps."""
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")
    warmup = min(round(train.warmup_fraction * total_steps), total_steps - 1)
    if step < warmup:
        return train.peak_lr * step / warmup
    last = total_steps - 1
    if last <= warmup:
        return train.peak_lr
    frac = (step - warmup) / (last - warmup)
    return float(train.peak_lr * train.final_lr_fraction ** min(frac, 1.0))
