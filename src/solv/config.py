"""Run configuration, strict JSON loading, and the learning-rate schedule."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .diffcore import ConfigError


@dataclass
class ModelConfig:
    k_slots: int = 8
    d_slot: int = 128
    n_window: int = 2          # frames on each side of the center
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

    @property
    def window(self) -> int:
        return 2 * self.n_window + 1


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


# The least value of each count; a smaller one fails in the first
# forward, a division or an empty loop.
_LEAST = (
    [("model", name, 1) for name in (
        "k_slots", "d_slot", "isa_iters", "transformer_layers",
        "transformer_heads", "decoder_layers", "decoder_hidden")]
    + [("model", "n_window", 0)]
    + [("data", name, 1) for name in (
        "canvas_h", "canvas_w", "patch", "frames")]
    + [("train", name, 1) for name in ("epochs", "batch_size")]
)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def validate(self) -> "RunConfig":
        for section, name, least in _LEAST:
            value = getattr(getattr(self, section), name)
            if value < least:
                raise ConfigError(f"{section}.{name} must be >= {least}, got {value}")
        if self.data.canvas_h % self.data.patch or self.data.canvas_w % self.data.patch:
            raise ConfigError("canvas dimensions must be divisible by the patch size")
        if not 0.0 <= self.train.drop_ratio < 1.0:
            raise ConfigError(f"drop_ratio must be in [0, 1), got {self.train.drop_ratio}")
        if self.train.peak_lr <= 0:
            raise ConfigError(f"peak_lr must be positive, got {self.train.peak_lr}")
        if not 0.0 < self.model.tau_merge < 2.0:
            raise ConfigError(f"tau_merge must lie in (0, 2), got {self.model.tau_merge}")
        if self.train.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be f32 or f64, got {self.train.precision!r}")
        if self.model.d_slot % self.model.transformer_heads:
            raise ConfigError("d_slot must be divisible by transformer_heads")
        if self.data.d_features < self.data.n_identities + 2:
            raise ConfigError("d_features must be >= identities + 2")
        if self.data.clip_count < 2:
            raise ConfigError("clip_count must be >= 2")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        """Hash of the sections a trained model depends on: ``model``,
        ``data`` and ``train``. Where files go (``paths``) is not part of it."""
        shaping = {k: v for k, v in self.to_dict().items() if k != "paths"}
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
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return config_from_dict(payload)


@dataclass
class LrSchedule:
    """Linear warmup to the peak, then exponential decay to
    final_fraction * peak at the final step."""
    peak: float
    warmup_steps: int
    total_steps: int
    final_fraction: float = 0.01

    def __post_init__(self):
        if self.peak <= 0:
            raise ConfigError(f"peak lr must be positive, got {self.peak}")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        self.warmup_steps = int(min(max(self.warmup_steps, 0), self.total_steps - 1))

    @classmethod
    def from_config(cls, train: TrainConfig, total_steps: int) -> "LrSchedule":
        warmup = int(round(train.warmup_fraction * total_steps))
        return cls(peak=train.peak_lr, warmup_steps=warmup,
                   total_steps=total_steps, final_fraction=train.final_lr_fraction)

    def lr(self, step: int) -> float:
        if step <= 0 and self.warmup_steps > 0:
            return 0.0
        if step < self.warmup_steps:
            return self.peak * step / self.warmup_steps
        last = self.total_steps - 1
        if last <= self.warmup_steps:
            return self.peak
        frac = (step - self.warmup_steps) / (last - self.warmup_steps)
        return float(self.peak * self.final_fraction ** min(frac, 1.0))
