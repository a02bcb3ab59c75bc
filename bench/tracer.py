"""Spans around the program's layer functions, recorded from outside it.

A ``Tracer`` replaces module and class attributes that callers look up
at call time (``solv.binding.spatial_bind``, ``Pipeline.forward_window``,
...) with wrappers that record one span per call: name, start, end, the
span open on the same thread when it began (its parent), the operation
it belongs to, and a few counts taken at the boundary. Spans stay in
memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from solv import binding, datagen, diffcore, encoder, evalkit, model, objecthead
from solv import train as train_mod


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: "Span | None" = None
    op: object = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tape_growth(args):
    """Values the active tape records during the call."""
    tape = diffcore._active_tape()
    if tape is None:
        return lambda out: {"tape_values": 0}
    start = tape.live_elements
    return lambda out: {"tape_values": tape.live_elements - start}


def _tape_size(args):
    """Nodes and values on the tape that ``Tape.backward`` replays."""
    tape = args[0]
    nodes, values = len(tape._nodes), tape.live_elements
    return lambda out: {"tape_nodes": nodes, "tape_values": values}


def _k_t(args):
    return lambda out: {"k_t": out.k_t}


def _matrix_n(args):
    n = max(np.shape(args[0]), default=0)
    return lambda out: {"n": n}


# (owner, attribute, span name, probe). Each owner is the object the
# caller looks the attribute up on, so the wrapper is the one it calls.
LAYERS = (
    (encoder, "encode_frame", "encoder.encode_frame", _tape_growth),
    (train_mod, "make_drop_plan", "encoder.make_drop_plan", None),
    (binding, "spatial_bind", "binding.spatial_bind", _tape_growth),
    (binding, "temporal_bind", "binding.temporal_bind", _tape_growth),
    (objecthead, "merge_slots", "objecthead.merge_slots", _k_t),
    (objecthead, "decode", "objecthead.decode", _tape_growth),
    (objecthead, "reconstruction_loss", "objecthead.reconstruction_loss", None),
    (model.Pipeline, "forward_window", "model.forward_window", None),
    (diffcore.Tape, "backward", "diffcore.backward", _tape_size),
    (diffcore.ParamStore, "adam_step", "diffcore.adam_step", None),
    (diffcore.ParamStore, "save", "diffcore.checkpoint_save", None),
    (diffcore.ParamStore, "load", "diffcore.checkpoint_load", None),
    (datagen, "render_clip", "datagen.render_clip", None),
    (datagen, "read_features", "datagen.read_features", None),
    (datagen, "write_masks", "datagen.write_masks", None),
    (datagen, "read_masks", "datagen.read_masks", None),
    (evalkit, "rasterize", "evalkit.rasterize", None),
    (evalkit, "link_tracks", "evalkit.link_tracks", None),
    (evalkit, "hungarian", "evalkit.hungarian", _matrix_n),
    (evalkit, "mean_fg_ari", "evalkit.mean_fg_ari", None),
    (evalkit, "video_miou", "evalkit.video_miou", None),
)


class Tracer:
    """Records spans while its wrappers are installed; ``op`` labels the
    operation that spans begun now belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._local = threading.local()
        self._wrappers = {
            (owner, attr): self._wrap(getattr(owner, attr), name, probe)
            for owner, attr, name, probe in LAYERS
        }
        self._originals = {(owner, attr): getattr(owner, attr)
                           for owner, attr, _, _ in LAYERS}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None,
                    op=self.op)
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _wrap(self, fn, name, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = probe(args) if probe else None
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after:
                span.counts.update(after(out))
            return out

        return wrapper

    def install(self) -> None:
        for (owner, attr), wrapper in self._wrappers.items():
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for (owner, attr), original in self._originals.items():
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [{"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": index[id(s.parent)] if s.parent is not None else None,
                 "op": s.op, "counts": s.counts}
                for i, s in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump(rows, f)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover.

    Keyed by ``id(span)``. Children may overlap one another or outlast
    their parent; only the covered part of the parent's interval counts.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = s.duration - covered
    return out
