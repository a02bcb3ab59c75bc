"""The benchmark's workloads: train, infer-long and eval-dense.

Each workload builds its inputs from the seed alone. It times its
set-up several times, each in a fresh interpreter (``setup_probe.py``):
the imports plus what the workload does before its first result. It
then sets up once more in this process as a warm-up, repeats its
operation until ``seconds`` have passed (train: for a step count, and
infer-long: over a video count, fixed by ``seconds``), timing every
operation and checking every output.
Output checks run outside the timed part.

Times are scaled to a reference machine speed. Other tenants of a
shared host slow this process's single-thread speed by up to 1.7x for a
minute or more at a time, which moves whole runs. So every chunk of
about a second of operations (one training step, one or a few videos)
is bracketed by a fixed numpy kernel (``reference_s``), and its
operations' times are multiplied by ``REF_NOMINAL_S`` over the mean of
the two kernel times around it; a set-up probe runs the kernel right
after its set-up and is scaled by it. The scaled times are in seconds of
a machine on which the kernel takes ``REF_NOMINAL_S``, as a 2-core
x86-64 VM did when its host was quiet. The raw times are kept as well.

In a traced run the tracer is installed during the warm-up and on every
odd-numbered operation; even-numbered operations run untraced, so the
difference between the two is the tracing overhead. Where operations
take distinct inputs, a traced run gives each input twice in a row,
untraced and then traced, so both halves see the same inputs. A traced
run makes no set-up probes.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from solv import datagen, model
from solv import train as train_mod
from solv.config import RunConfig, config_from_dict
from solv.diffcore import read_checkpoint

# infer-long: the 5-frame training clip and a long video for every
# NOMINAL_LONG_S of --seconds, each run once with its own draw of fresh
# weights. A long video's cost varies up to 2x with how far its frames
# merge (K_t), which depends on the weights and the video, so a run
# averages many of both. The median video is a long one.
LONG_FRAMES = 48
NOMINAL_LONG_S = 3.0


def infer_lengths(seconds: float) -> tuple:
    return (5,) + (LONG_FRAMES,) * max(3, round(seconds / NOMINAL_LONG_S))


# eval-dense: validation clips, scored one directory pair at a time.
EVAL_VIDEOS = 96
# train: a step count fixed by --seconds rather than by a timing, so the
# same seed and --seconds always train the same steps. 4.5 s is a warm
# default-config step with one BLAS thread on a 2-core x86-64 VM.
NOMINAL_STEP_S = 4.5
# Machine-speed reference: seconds the kernel takes on a quiet host, and
# the operation time each pair of kernel runs brackets.
REF_NOMINAL_S = 0.030
CHUNK_S = 1.0
SETUP_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


@functools.cache
def _reference_inputs():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((256, 64)), rng.standard_normal((64, 128)) / 8,
            rng.standard_normal((8, 128)),
            rng.standard_normal((128, 512)).astype(np.float32),
            (rng.standard_normal((512, 512)) / 22).astype(np.float32),
            rng.integers(0, 60, (5, 128, 128)).astype(np.uint16))


def reference_s() -> float:
    """Seconds a fixed single-thread numpy kernel takes now: in equal parts
    slot-attention-like small matmuls, softmax and reductions (binding,
    encoder), a decoder-like matmul, and label-mask comparisons (scoring).
    """
    x, w, s0, h, wd, labels = _reference_inputs()
    t = time.perf_counter()
    for _ in range(20):
        s = s0
        for _ in range(3):
            k = x @ w
            a = k @ s.T / 11.3
            a = np.exp(a - a.max(1, keepdims=True))
            a /= a.sum(1, keepdims=True)
            s = (a.T @ k) / (a.sum(0)[:, None] + 1e-8)
        np.maximum(h @ wd, 0)
        for label in range(40):
            np.count_nonzero(labels == label)
    return time.perf_counter() - t


@dataclass
class Outcome:
    """What one workload run measured and checked."""
    item: str                      # the unit items_per_s counts
    items: int = 0
    wall_s: float = 0.0            # time the counted items took, scaled
    op_times: list = field(default_factory=list)       # scaled
    op_raw_times: list = field(default_factory=list)
    ref_times: list = field(default_factory=list)     # reference_s() results
    op_items: list = field(default_factory=list)
    op_traced: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)    # scaled
    setup_raw_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    base: str = ""                 # what attempted counts
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def add_ops(self, ops: list, ref_before: float, ref_after: float) -> None:
        """Adds the (seconds, items, traced) operations that ran between two
        reference_s() runs, their times scaled to the reference speed."""
        scale = REF_NOMINAL_S / ((ref_before + ref_after) / 2)
        for seconds, items, traced in ops:
            self.op_times.append(seconds * scale)
            self.op_raw_times.append(seconds)
            self.op_items.append(items)
            self.op_traced.append(traced)
            self.items += items
        self.ref_times.append(ref_after)


class Ops:
    """Numbers the timed operations and switches tracing per operation."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.count = 0
        self.repeat = 1 if tracer is None else 2

    def setup(self) -> None:
        if self.tracer is not None:
            self.tracer.op = "setup"
            self.tracer.install()

    def start(self) -> bool:
        index, self.count = self.count, self.count + 1
        traced = self.tracer is not None and index % 2 == 1
        if self.tracer is not None:
            self.tracer.op = index
            if traced:
                self.tracer.install()
            else:
                self.tracer.uninstall()
        return traced

    def pause(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def loop(self, out: "Outcome", items: list, seconds: float, op, check,
             prepare=None) -> None:
        """Run ``op(index)`` over the inputs in turn until ``seconds`` have
        passed and every input has run; ``items[index]`` is the items one
        run of input ``index`` counts. ``check(index, result)`` runs
        untraced and untimed after each operation, ``prepare(index)``, if
        given, before it."""
        start = time.perf_counter()
        i = 0
        reference_s()  # warm-up
        before = reference_s()
        out.ref_times.append(before)
        chunk = []
        while i < self.repeat * len(items) or time.perf_counter() - start < seconds:
            index = i // self.repeat % len(items)
            if prepare is not None:
                prepare(index)
            traced = self.start()
            t = time.perf_counter()
            result = op(index)
            chunk.append((time.perf_counter() - t, items[index], traced))
            self.pause()
            if sum(c[0] for c in chunk) >= CHUNK_S:
                after = reference_s()
                out.add_ops(chunk, before, after)
                before, chunk = after, []
            check(index, result)
            i += 1
        if chunk:
            out.add_ops(chunk, before, reference_s())
        out.wall_s = sum(out.op_times)


def seeded_config(cfg: RunConfig | None, seed: int) -> RunConfig:
    cfg = copy.deepcopy(cfg) if cfg is not None else RunConfig()
    cfg.data.seed = derive_seed(seed, 0xDA7A)
    return cfg.validate()


def probe_setups(out: Outcome, workload: str, cfg: RunConfig, inputs: dict,
                 workdir: str, reps: int) -> None:
    """Times ``reps`` set-ups, each in a fresh interpreter that imports the
    program and runs ``SETUPS[workload]``, into ``out.setup_times``."""
    for rep in range(reps):
        setup_dir = os.path.join(workdir, f"setup_{rep}")
        os.makedirs(setup_dir)
        spec = os.path.join(setup_dir, "spec.json")
        with open(spec, "w") as f:
            json.dump({"workload": workload, "config": cfg.to_dict(),
                       "inputs": inputs, "setup_dir": setup_dir}, f)
        done = subprocess.run([sys.executable, SETUP_PROBE, spec], check=True,
                              stdout=subprocess.PIPE, text=True, timeout=150)
        setup_s, ref_s = map(float, done.stdout.split()[-2:])
        out.setup_raw_times.append(setup_s)
        out.setup_times.append(setup_s * REF_NOMINAL_S / ref_s)


def run_probe(spec_path: str) -> None:
    """The body of ``setup_probe.py``: one set-up as its spec describes."""
    with open(spec_path) as f:
        spec = json.load(f)
    SETUPS[spec["workload"]](config_from_dict(spec["config"]), spec["inputs"],
                             spec["setup_dir"])


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class _Steps:
    """Times training steps from outside ``train()``.

    A step opens at the merge-gate draw the loop makes first and closes
    at the progress callback it makes last; a step skipped for a
    non-finite loss makes no callback and is closed by the next draw.
    Each timed step is followed by a reference_s() run.
    """

    def __init__(self, ops: Ops):
        self.ops = ops
        self.timed = False
        self.times: list[tuple[float, bool]] = []
        self.refs: list[float] = []
        self._start = None
        self._traced = False
        self._span = None

    def gate(self, real_gate):
        def wrapper(*args, **kwargs):
            self.close()
            if self.timed:
                self._traced = self.ops.start()
                if self._traced:
                    self._span = self.ops.tracer.begin("train.step")
            self._start = time.perf_counter()
            return real_gate(*args, **kwargs)
        return wrapper

    def progress(self, step, total, loss, lr) -> None:
        self.times.append((time.perf_counter() - self._start, self._traced))
        self._start = None
        self.close()
        if self.timed:
            self.refs.append(reference_s())

    def close(self) -> None:
        if self._span is not None:
            self.ops.tracer.end(self._span)
            self._span = None


def setup_train(cfg: RunConfig, inputs: dict, setup_dir: str) -> None:
    """Parameter init, the first step and its checkpoints: a one-step
    ``train()``."""
    cfg.paths.checkpoint_dir = setup_dir
    train_mod.train(cfg, max_steps=1)


def run_train(seed: int, seconds: float, tracer, workdir: str,
              cfg: RunConfig | None = None, reps: int = 3) -> Outcome:
    """``train()`` on the config, truncated by ``max_steps`` to a step
    count fixed by ``seconds``."""
    cfg = seeded_config(cfg, seed)
    n_steps = max(2, round(seconds / NOMINAL_STEP_S))
    out = Outcome(item="clip",
                  base="training steps, plus one checkpoint read-back")
    probe_setups(out, "train", cfg, {}, workdir, reps)
    ops = Ops(tracer)
    steps = _Steps(ops)
    real_gate = train_mod.merge_gate
    train_mod.merge_gate = steps.gate(real_gate)
    try:
        ops.setup()
        setup_train(cfg, {}, os.path.join(workdir, "warmup"))
        ops.pause()
        steps.timed = True
        cfg.paths.checkpoint_dir = os.path.join(workdir, "timed")
        steps.times.clear()
        reference_s()  # warm-up
        steps.refs.append(reference_s())
        t = time.perf_counter()
        try:
            store, log = train_mod.train(cfg, max_steps=n_steps,
                                         progress=steps.progress)
        except RuntimeError as e:  # three non-finite steps in a row
            out.attempted, out.failed = n_steps + 1, n_steps + 1
            out.problems.append(f"train() aborted: {e}")
            return out
        wall_s = time.perf_counter() - t
    finally:
        steps.close()
        train_mod.merge_gate = real_gate
        ops.pause()

    train_specs, _ = datagen.dataset_split(
        cfg.data.seed, cfg.data.clip_count, frames=cfg.data.frames)
    batch = min(cfg.train.batch_size, len(train_specs))
    out.ref_times.append(steps.refs[0])
    for (step_s, traced), before, after in zip(steps.times, steps.refs, steps.refs[1:]):
        out.add_ops([(step_s, batch, traced)], before, after)
    # Parameter init and checkpoint saves at the steps' mean scale.
    if out.op_raw_times:
        out.wall_s = wall_s * sum(out.op_times) / sum(out.op_raw_times)
    out.extra["skipped_steps"] = log.skipped_steps
    for _ in range(log.skipped_steps):
        out.check(False, "non-finite loss; step skipped")
    for i, loss in enumerate(log.step_losses):
        out.check(math.isfinite(loss), f"step {i}: loss {loss} is not finite")

    records, step = read_checkpoint(log.checkpoint)
    expected = {name: t.data for name, t in store.params.items()}
    expected.update({name + ".m": a for name, a in store.m.items()})
    expected.update({name + ".v": a for name, a in store.v.items()})
    same = step == store.step and records.keys() == expected.keys() and all(
        np.array_equal(records[k], np.asarray(v, dtype="<f4"))
        for k, v in expected.items())
    out.check(same, f"checkpoint {log.checkpoint} differs from the trained store")
    with open(log.checkpoint, "rb") as f:
        out.digests["train"] = digest(json.dumps(log.step_losses).encode(), f.read())
    out.extra["steps"] = n_steps
    return out


# ---------------------------------------------------------------------------
# infer-long
# ---------------------------------------------------------------------------

def _infer_one(pipe, features_path: str, mask_path: str):
    """The ``solv infer`` path for one feature file."""
    feats = datagen.read_features(features_path)
    tracked, k_t = model.infer_video(pipe, feats.astype(np.float64))
    datagen.write_masks(mask_path, tracked.frames.astype(np.uint16))
    return tracked, k_t


def setup_infer(cfg: RunConfig, inputs: dict, setup_dir: str):
    """Checkpoint load and the first video."""
    pipe = train_mod.load_pipeline(cfg, inputs["checkpoint"])
    _infer_one(pipe, *inputs["video"])
    return pipe


def run_infer(seed: int, seconds: float, tracer, workdir: str,
              cfg: RunConfig | None = None, reps: int = 7) -> Outcome:
    """Inference on ``SOLVTNSR`` videos of mixed length, each with its own
    freshly initialised weights loaded through ``load_pipeline`` before
    its timed operation: one pass over videos whose count is fixed by
    ``seconds``."""
    cfg = seeded_config(cfg, seed)
    d = cfg.data
    out = Outcome(item="frame", base="videos")
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                   d.sigma_noise)
    lengths = infer_lengths(seconds)
    videos = []
    for i, frames in enumerate(lengths):
        spec = datagen.random_scene(
            derive_seed(seed, 0x1F, i), (d.canvas_h, d.canvas_w), d.patch,
            frames, (d.sprite_min, d.sprite_max))
        path = os.path.join(workdir, f"video_{i}.features")
        datagen.write_features(path, datagen.render_clip(spec, oracle).features)
        videos.append((path, os.path.join(workdir, f"video_{i}.mask"), frames))

    def save_weights(index: int) -> str:
        ckpt = os.path.join(workdir, f"init_{index}.ckpt")
        model.init_params(cfg, seed=derive_seed(seed, 0x1417, index)).save(ckpt)
        with open(ckpt + ".meta.json", "w") as f:
            json.dump({"config_digest": cfg.digest(), "step": 0, "epoch": 0}, f)
        return ckpt

    inputs = {"checkpoint": save_weights(0), "video": videos[0][:2]}
    probe_setups(out, "infer-long", cfg, inputs, workdir, reps)

    ops = Ops(tracer)
    try:
        ops.setup()
        pipes = {0: setup_infer(cfg, inputs, workdir)}
        ops.pause()

        def prepare(index):
            if index not in pipes:
                pipes.clear()
                pipes[index] = train_mod.load_pipeline(cfg, save_weights(index))

        first_pass = {}
        k_ts = []

        def check(index, result):
            (tracked, k_t), (_, mask_path, frames) = result, videos[index]
            problems = []
            if tracked.frames.shape != (frames, d.canvas_h, d.canvas_w):
                problems.append(f"mask shape {tracked.frames.shape}")
            written = datagen.read_masks(mask_path)
            if not np.array_equal(written, tracked.frames):
                problems.append("written SOLVMASK does not read back equal")
            if len(k_t) != frames or not all(1 <= k <= cfg.model.k_slots for k in k_t):
                problems.append(f"K_t outside [1, {cfg.model.k_slots}]: {sorted(set(k_t))}")
            h = digest(written.tobytes())
            if first_pass.setdefault(index, h) != h:
                problems.append("masks differ from the first pass over the same input")
            out.check(not problems, f"video {index}: {'; '.join(problems)}")
            k_ts.extend(k_t)

        ops.loop(out, lengths, 0.0,
                 lambda index: _infer_one(pipes[index], *videos[index][:2]), check,
                 prepare)
    finally:
        ops.pause()
    out.digests["masks"] = digest(*(first_pass[k].encode()
                                    for k in sorted(first_pass)))
    out.extra["k_t_mean"] = round(float(np.mean(k_ts)), 4) if k_ts else 0.0
    return out


# ---------------------------------------------------------------------------
# eval-dense
# ---------------------------------------------------------------------------

def dense_tracks(gt: np.ndarray, rng: np.random.Generator, grid: int = 4,
                 rebirth: float = 0.3) -> np.ndarray:
    """Over-segmented track labels for a ground-truth label video.

    Mimics a tracker whose slots split objects and background and are
    re-born over time: each (cell of a grid x grid partition, ground-truth
    label) fragment is one track, replaced by a fresh track id at each
    later frame with probability ``rebirth``. Every frame's labels refine
    the ground truth's, so foreground ARI cannot be negative.
    """
    f, h, w = gt.shape
    cell = (np.arange(h)[:, None] * grid // h) * grid + np.arange(w)[None, :] * grid // w
    n_labels = int(gt.max()) + 1
    fragment = cell[None] * n_labels + gt.astype(np.int64)
    ids = np.arange(grid * grid * n_labels)
    next_id = ids.size
    out = np.empty(gt.shape, dtype=np.uint16)
    for t in range(f):
        if t:
            reborn = np.flatnonzero(rng.random(ids.size) < rebirth)
            ids[reborn] = next_id + np.arange(reborn.size)
            next_id += reborn.size
        out[t] = ids[fragment[t]]
    return out


def _score_ok(x) -> bool:
    return x is None or 0.0 <= x <= 1.0


def setup_eval(cfg: RunConfig, inputs: dict, setup_dir: str) -> None:
    """The first video."""
    _evaluate(cfg, *inputs["video"])


def _evaluate(cfg: RunConfig, pred_dir: str, gt_dir: str, report: str) -> dict:
    return train_mod.evaluate_dirs(pred_dir, gt_dir, report,
                                   config_digest=cfg.digest())


def run_eval(seed: int, seconds: float, tracer, workdir: str,
             cfg: RunConfig | None = None, reps: int = 7) -> Outcome:
    """``evaluate_dirs`` on densely over-segmented predictions against
    rendered validation clips, one single-video directory pair per call."""
    cfg = seeded_config(cfg, seed)
    d = cfg.data
    out = Outcome(item="video", base="videos")
    _, pool = datagen.dataset_split(
        d.seed, 40 * EVAL_VIDEOS, (d.canvas_h, d.canvas_w), d.patch, d.frames,
        (d.sprite_min, d.sprite_max))
    # The same number of clips per object count on every seed, so the
    # work per run does not depend on the seed's draw of object counts.
    counts = range(d.sprite_min, d.sprite_max + 1)
    val = [spec for k in counts
           for spec in [s for s in pool if len(s.sprites) == k][:EVAL_VIDEOS // len(counts)]]
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                   d.sigma_noise)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    videos = []
    tracks = []
    for i, spec in enumerate(val):
        gt = datagen.render_clip(spec, oracle).gt_pixel_labels
        pred = dense_tracks(gt, rng)
        tracks.append(len(np.unique(pred)))
        pred_dir, gt_dir = (os.path.join(workdir, side, f"v{i:02d}")
                            for side in ("pred", "gt"))
        for path, masks in ((pred_dir, pred), (gt_dir, gt)):
            os.makedirs(path)
            datagen.write_masks(os.path.join(path, "clip.mask"), masks)
        videos.append((pred_dir, gt_dir, os.path.join(workdir, f"report_{i:02d}.json")))
    out.extra["tracks_per_video"] = float(np.mean(tracks))
    inputs = {"video": videos[0]}
    probe_setups(out, "eval-dense", cfg, inputs, workdir, reps)

    ops = Ops(tracer)
    try:
        ops.setup()
        setup_eval(cfg, inputs, workdir)
        ops.pause()

        first_pass = {}

        def check(index, report):
            scores = [report["mean_fg_ari"], report["mean_miou"]]
            scores += [v[k] for v in report["videos"] for k in ("fg_ari", "miou")]
            h = digest(json.dumps(report, sort_keys=True).encode())
            problems = []
            if not all(_score_ok(s) for s in scores):
                problems.append(f"score outside [0, 1]: {scores}")
            if first_pass.setdefault(index, h) != h:
                problems.append("report differs from the first pass over the same input")
            out.check(not problems, f"video {index}: {'; '.join(problems)}")

        ops.loop(out, [1] * len(videos), seconds,
                 lambda index: _evaluate(cfg, *videos[index]), check)
    finally:
        ops.pause()
    out.digests["reports"] = digest(*(first_pass[k].encode()
                                      for k in sorted(first_pass)))
    return out


WORKLOADS = {"train": run_train, "infer-long": run_infer, "eval-dense": run_eval}
SETUPS = {"train": setup_train, "infer-long": setup_infer, "eval-dense": setup_eval}
