"""Reverse-mode differentiable array engine and Adam optimizer.

Tensors wrap float numpy arrays; a ``ParamStore`` fixes the float width
of its parameters (f32 for training, f64 for gradient checks), and every
operation keeps the width of its operands. Operations executed inside a ``Tape``
context are recorded in execution order, one node each; ``Tape.backward``
replays them once in reverse, accumulating gradients into every tensor
that requires them, and pops each node as it replays it, which releases
the arrays the node saved. A node's backward rule takes only the
gradient of its output and returns one gradient per operand, in the
operand's shape or in the shape it was broadcast to; the tape sums each
down to its operand's shape, and keeps only those of operands that
require gradients.
``mlp`` records a ReLU MLP as one node that saves only its input and
post-ReLU activations; ``Tape.live_elements``, counted when read, adds
those to every held node output that shares no memory with an operand.
Nothing here is thread-aware: a tape and its tensors belong to a single
computation.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import struct

import numpy as np

_DTYPES = {"f32": np.float32, "f64": np.float64}


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class FormatError(ValueError):
    """A binary file does not match its declared format."""


class ConfigError(ValueError):
    """Invalid configuration value."""


# ---------------------------------------------------------------------------
# Files: the binary codec of SOLVCKPT, SOLVTNSR and SOLVMASK, and JSON
# ---------------------------------------------------------------------------

class BinaryReader:
    """Bounds-checked little-endian reader that streams a file.

    A context manager: it opens ``path``, checks the 8-byte magic and the
    u32 version, and closes the file on every path out, a failed open
    included. It reads as it goes and holds no copy of the file. Every
    length is checked against the file's size (``os.fstat``) before it is
    read or skipped, so every error is a ``FormatError`` naming the path
    and the byte offset. ``array`` reads a payload straight into the
    array it returns.
    """

    def __init__(self, path: str, magic: bytes, version: int):
        self.path = path
        self.off = 0
        self.f = open(path, "rb")
        try:
            self.size = os.fstat(self.f.fileno()).st_size
            found = self.take(len(magic), "magic")
            if found != magic:
                raise FormatError(f"{path}: bad magic {found!r} at byte 0, expected {magic!r}")
            (found_version,) = self.unpack("<I", "version")
            if found_version != version:
                raise FormatError(
                    f"{path}: unsupported version {found_version} at byte {len(magic)}")
        except BaseException:
            self.f.close()
            raise

    def __enter__(self) -> "BinaryReader":
        return self

    def __exit__(self, *exc) -> bool:
        self.f.close()
        return False

    def _truncated(self, what: str, at: int) -> FormatError:
        return FormatError(f"{self.path}: truncated, expected {what} at byte {at}")

    def _claim(self, n: int, what: str) -> int:
        """Check that ``n`` more bytes lie within the file; return their offset."""
        at = self.off
        if at + n > self.size:
            raise self._truncated(what, at)
        self.off += n
        return at

    def take(self, n: int, what: str) -> bytes:
        at = self._claim(n, what)
        chunk = self.f.read(n)
        if len(chunk) != n:  # the file shrank after fstat
            raise self._truncated(what, at)
        return chunk

    def skip(self, n: int, what: str) -> None:
        self._claim(n, what)
        self.f.seek(n, os.SEEK_CUR)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dims, dtype: str, what: str) -> np.ndarray:
        dt = np.dtype(dtype)
        n = dt.itemsize * math.prod(dims)
        at = self._claim(n, what)  # before allocating what the header declares
        out = np.empty(dims, dtype=dt)
        if n and self.f.readinto(out) != n:
            raise self._truncated(what, at)
        return out

    def f32_dims(self, what: str) -> tuple:
        """Read the rank and dims of the record ``write_f32_array`` writes."""
        (rank,) = self.unpack("<I", f"rank of {what}")
        return self.unpack(f"<{rank}Q", f"dims of {what}")

    def at_end(self) -> bool:
        return self.off == self.size

    def done(self, what: str) -> None:
        if not self.at_end():
            raise FormatError(
                f"{self.path}: {self.size - self.off} trailing bytes after {what} at byte {self.off}"
            )


def write_f32_array(f, arr: np.ndarray) -> None:
    """Write ``rank u32, dims u64 x rank, payload f32``; the payload is
    written from the array's own buffer when it is already contiguous
    little-endian f32."""
    f.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype="<f4"))


@contextlib.contextmanager
def atomic_write(path: str):
    """Open ``<path>.tmp`` for writing bytes and rename it onto ``path``
    once the block completes, so a write that fails part way leaves the
    previous file intact."""
    tmp = path + ".tmp"
    f = open(tmp, "wb")
    try:
        with f:
            yield f
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def read_json_object(path: str) -> dict:
    """Parse the JSON file at ``path``, whose root must be an object; a
    bad file is a ``ConfigError`` naming it."""
    with open(path, "rb") as f:
        try:
            payload = json.load(f)
        except ValueError as e:
            raise ConfigError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: root must be a JSON object")
    return payload


def write_json(path: str, obj) -> None:
    """Write ``obj`` to ``path`` as indented JSON, encoded first and then
    written atomically in one write; creates ``path``'s directory."""
    blob = json.dumps(obj, indent=2).encode()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with atomic_write(path) as f:
        f.write(blob)


def get_precision() -> str:
    """Precision of the default config, which every benchmark workload
    runs; read only by the run header of ``bench/run.py``."""
    return "f32"


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------

class Tensor:
    """Dense array with an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    # operator sugar
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __truediv__(self, other):
        return div(self, _wrap(other, self))

    def __rtruediv__(self, other):
        return div(_wrap(other, self), self)


def _wrap(x, like: Tensor) -> Tensor:
    """``x`` itself if it is a tensor, else a constant of ``like``'s dtype."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of operations for one forward pass.

    Execution order is topological order; ``backward`` walks it exactly
    once in reverse, popping each node as it replays it. Calling
    ``backward`` a second time without a fresh forward is an error.
    """

    def __init__(self):
        self._nodes = []  # (out, parents, backward_fn, held)
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        if _TAPE_STACK and _TAPE_STACK[-1] is self:
            _TAPE_STACK.pop()
        return False

    @property
    def live_elements(self) -> int:
        """Values the held nodes keep: each one's ``held`` and its output,
        unless that shares memory with an operand (a view holds none)."""
        return sum(held + (0 if any(np.may_share_memory(out.data, p.data) for p in parents)
                           else out.data.size) for out, parents, _, held in self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into .grad of every reachable tensor."""
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward; run a new forward")
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if not any(node[0] is loss for node in reversed(self._nodes)):
            raise ValueError("loss is not the output of a node on this tape")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        nodes = self._nodes
        while nodes:
            # popping drops the node's closure, and with it the arrays it saved
            out, parents, backward_fn, _ = nodes.pop()
            g = out.grad
            if g is None:
                continue
            for p, pg in zip(parents, backward_fn(g)):
                if not p.requires_grad:  # a constant operand's gradient is dropped
                    continue
                pg = _unbroadcast(pg, p.data.shape)
                if p.grad is None:
                    p.grad = pg if pg.dtype == p.data.dtype else pg.astype(p.data.dtype)
                else:
                    p.grad = p.grad + pg
            out.grad = None  # free intermediate storage as we go


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make(out_data, parents, backward_fn, held: int = 0) -> Tensor:
    """Create the result tensor, recording it when a tape is active;
    ``held`` counts the values ``backward_fn`` saved besides the output."""
    tape = _active_tape()
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = tape is not None and any(p.requires_grad for p in parents)
    if out.requires_grad:
        tape._nodes.append((out, parents, backward_fn, held))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _make(out, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _make(out, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return _make(out, (a, b), lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def _check_matmul(a_shape, b_shape) -> None:
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a_shape} @ {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a_shape} @ {b_shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_matmul(a.shape, b.shape)
    out = a.data @ b.data
    return _make(out, (a, b), lambda g: (
        g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * (0.5 / out),))


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def reduce_sum(a: Tensor, axis: int | None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(out, (a,), backward)


def reduce_mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]

    def backward(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.shape).copy(),)

    return _make(out, (a,), backward)


def softmax(a: Tensor, axis: int) -> Tensor:
    # Max subtraction for stability; the shift is treated as a constant,
    # which leaves the gradient unchanged (softmax is shift invariant).
    # numpy reduces a last axis one short row at a time; a max is exact in
    # any order, so there it is the elementwise maximum of the slices: one
    # call per row element, which pays on short rows only (f32: 15 against
    # 127 us over (8, 8, 8, 5, 5), 272 against 10 us over (8, 8, 256)). Only
    # _mha's rows, data.frames long, take it; a softmax over tokens must not.
    if axis % a.ndim == a.ndim - 1:
        top = functools.reduce(np.maximum, np.moveaxis(a.data, -1, 0))[..., None]
    else:
        top = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - top
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes, contiguous: bool = False) -> Tensor:
    """A view with permuted axes; ``contiguous`` copies it, and the
    gradient it passes back, into row-major order, so that later
    reductions see the memory order their summation order depends on."""
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    if not contiguous:
        return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))
    out = np.ascontiguousarray(a.data.transpose(axes))
    return _make(out, (a,), lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    """A read-only view of ``a`` repeated along new or unit axes."""
    out = np.broadcast_to(a.data, shape)
    return _make(out, (a,), lambda g: (g,))


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = a.data[sl]

    def backward(g):
        ga = np.zeros(a.shape, dtype=g.dtype)
        ga[sl] = g
        return (ga,)

    return _make(out, (a,), backward)


# ---------------------------------------------------------------------------
# Composite blocks
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, the workhorse projection."""
    return mlp(x, [(w, b)])


def mlp(x: Tensor, layers) -> Tensor:
    """``h @ w + b`` for each ``(w, b)`` of ``layers``, with a ReLU after
    every layer but the last, as one tape node. The arithmetic is that of
    a ``matmul``/``add``/ReLU chain, done in place, so results are bitwise
    the same; a ReLU mask is read from its output, which is > 0 exactly
    where the pre-activation is."""
    parents = (x,) + tuple(t for layer in layers for t in layer)
    keep = _active_tape() is not None and any(p.requires_grad for p in parents)
    saved = [x.data]  # the input of each layer, kept only for a tape
    h = x.data
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        _check_matmul(h.shape, w.shape)
        h = h @ w.data
        h += b.data
        if i < last:
            np.maximum(h, 0, out=h)
            if keep:
                saved.append(h)

    def backward(g):
        # a node replays once, so each hidden activation, once its mask and
        # its layer's weight gradient are taken, receives its own gradient;
        # the input x.data is never written. Weight and bias gradients are
        # summed down here, so that the node holds none unreduced.
        grads = [None] * len(parents)
        for i in range(last, -1, -1):
            w, b = layers[i]
            h = saved.pop()  # the input of layer i
            grads[2 * i + 1] = _unbroadcast(np.swapaxes(h, -1, -2) @ g, w.shape)
            grads[2 * i + 2] = _unbroadcast(g, b.shape)
            w_t = np.swapaxes(w.data, -1, -2)
            if i == 0:
                grads[0] = g @ w_t
            else:
                mask = h > 0
                fits = np.result_type(g, w_t) == h.dtype
                g = np.matmul(g, w_t, out=h if fits else None)
                g *= mask
        return grads

    return _make(h, parents, backward, held=sum(a.size for a in saved[1:]))


LN_EPS = 1e-6  # added to every layer-norm variance


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then scale by ``gamma`` and shift by
    ``beta``; constant rows normalize to zero via ``LN_EPS``."""
    m = reduce_mean(x, axis=-1, keepdims=True)
    xc = sub(x, m)
    var = reduce_mean(mul(xc, xc), axis=-1, keepdims=True)
    inv = 1.0 / sqrt(var + LN_EPS)
    return add(mul(mul(xc, inv), gamma), beta)


def gru_param_shapes(d: int) -> dict:
    """Parameter shapes for one gated recurrent cell of width d."""
    return {
        "w_iu": (d, d), "w_hu": (d, d), "b_u": (d,),
        "w_ir": (d, d), "w_hr": (d, d), "b_r": (d,),
        "w_in": (d, d), "b_in": (d,),
        "w_hn": (d, d), "b_hn": (d,),
    }


def gru_cell(state: Tensor, inp: Tensor, p: dict) -> Tensor:
    """Row-wise gated recurrent update.

    The update gate u selects the candidate: out = u*n + (1-u)*state,
    so saturating u toward 1 returns the candidate state.
    """
    if state.shape != inp.shape:
        raise ShapeError(f"gru state/input shapes differ: {state.shape} vs {inp.shape}")
    u = sigmoid(add(add(matmul(inp, p["w_iu"]), matmul(state, p["w_hu"])), p["b_u"]))
    r = sigmoid(add(add(matmul(inp, p["w_ir"]), matmul(state, p["w_hr"])), p["b_r"]))
    n = tanh(add(add(matmul(inp, p["w_in"]), p["b_in"]),
                 mul(r, add(matmul(state, p["w_hn"]), p["b_hn"]))))
    return add(mul(u, n), mul(1.0 - u, state))


# ---------------------------------------------------------------------------
# Parameter store, Adam, checkpoint format
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SOLVCKPT"
_CKPT_VERSION = 1

# Adam's moment decay rates and the term that keeps its step finite
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ParamStore:
    """Named trainable tensors, all of one float width: ``precision`` is
    'f32' or 'f64'. Parameters are cast to it when registered and when
    loaded, and the model casts every array it feeds into the computation
    to ``dtype``. The Adam moments ``m``/``v`` are created, at zero and of
    the same width, by the first ``adam_step``; a store that never stepped
    holds parameters only."""

    def __init__(self, precision: str):
        if precision not in _DTYPES:
            raise ConfigError(f"precision must be one of {sorted(_DTYPES)}, got {precision!r}")
        self.dtype = _DTYPES[precision]
        self.params: dict[str, Tensor] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0

    def register(self, name: str, array: np.ndarray) -> Tensor:
        if name in self.params:
            raise ConfigError(f"parameter {name!r} registered twice")
        t = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None

    def grad_global_norm(self) -> float:
        total = 0.0
        for t in self.params.values():
            if t.grad is not None:
                total += float(np.sum(np.asarray(t.grad, dtype=np.float64) ** 2))
        return float(np.sqrt(total))

    def adam_step(self, lr: float, clip_norm: float) -> float:
        """Clip the global gradient norm to ``clip_norm``, apply one Adam
        update, zero grads.

        Returns the pre-clip gradient norm (useful for logging). When that
        norm is not finite the update is skipped: parameters, moments and
        the step count stay as they were, and the caller sees the
        non-finite norm. The first call creates zero moments for every
        parameter, skipped or not.
        """
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        for name, t in self.params.items():
            if name not in self.m:
                self.m[name] = np.zeros(t.data.shape, self.dtype)
                self.v[name] = np.zeros(t.data.shape, self.dtype)
        norm = self.grad_global_norm()
        if not np.isfinite(norm):
            self.zero_grads()
            return norm
        scale = 1.0
        if norm > clip_norm:
            scale = clip_norm / (norm + 1e-12)
        self.step += 1
        b1t = 1.0 - BETA1 ** self.step
        b2t = 1.0 - BETA2 ** self.step
        for name, t in self.params.items():
            if t.grad is None:
                continue
            g = t.grad * scale if scale != 1.0 else t.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            t.data -= (lr / b1t) * m / (np.sqrt(v / b2t) + ADAM_EPS)
        self.zero_grads()
        return norm

    # -- checkpoint io ------------------------------------------------------

    def save(self, path: str) -> None:
        """Write parameters then Adam moments (.m/.v suffixes) to a checkpoint.
        A moment the store does not hold yet is written as zeros, made one
        parameter at a time."""
        def records():
            for name, t in self.params.items():
                yield name, t.data
            for suffix, moments in ((".m", self.m), (".v", self.v)):
                for name, t in self.params.items():
                    held = moments.get(name)
                    yield name + suffix, np.zeros(t.data.shape, "<f4") if held is None else held

        with atomic_write(path) as f:
            f.write(_CKPT_MAGIC)
            f.write(struct.pack("<I", _CKPT_VERSION))
            f.write(struct.pack("<Q", self.step))
            for name, arr in records():
                nb = name.encode("utf-8")
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                write_f32_array(f, arr)

    def load(self, path: str) -> None:
        """Restore the parameters and the step counter from a checkpoint file.

        The ``.m``/``.v`` Adam moment records are stepped over, still
        bounds-checked, and the store's moments are left as they are. Every
        record must be a parameter of this store or its moment, appear once
        and have the parameter's shape, and every parameter must be present
        and finite. All of it is checked before anything is assigned, so a
        failed load leaves the store as it was.
        """
        expected = {}
        for name, t in self.params.items():
            for key in (name, name + ".m", name + ".v"):
                expected[key] = t.data.shape
        records, shapes, step = _read_records(path, keep=self.params)
        for key, found in shapes.items():
            if key not in expected:
                raise FormatError(
                    f"{path}: record {key!r} is neither a parameter of this model "
                    f"nor a parameter's .m/.v moment")
            if found != expected[key]:
                raise ShapeError(
                    f"{path}: checkpoint record {key!r} has shape {found}, expected {expected[key]}")
        for name in self.params:
            if name not in records:
                raise FormatError(f"{path}: checkpoint missing parameter {name!r}")
            # a float64 sum of f32 values is finite exactly when they all
            # are, and it allocates no mask the size of the record
            if not np.isfinite(records[name].sum(dtype=np.float64)):
                raise FormatError(f"{path}: parameter record {name!r} is not finite")
        self.step = step
        for name, t in self.params.items():
            t.data = records[name].astype(self.dtype, copy=False)


def _read_records(path: str, keep=None) -> tuple[dict[str, np.ndarray], dict[str, tuple], int]:
    """Stream a checkpoint: {name: f32 array} of the records named in
    ``keep`` (every record when None), the shape of every record, skipped
    ones included, and the step counter. The payload of every other record
    is stepped over, bounds-checked. A name that repeats is a
    ``FormatError``."""
    with BinaryReader(path, _CKPT_MAGIC, _CKPT_VERSION) as r:
        (step,) = r.unpack("<Q", "step counter")
        records: dict[str, np.ndarray] = {}
        shapes: dict[str, tuple] = {}
        while not r.at_end():
            at = r.off
            (name_len,) = r.unpack("<I", "name length")
            try:
                name = r.take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: record name at byte {at + 4} is not UTF-8") from None
            if name in shapes:
                raise FormatError(f"{path}: duplicate record {name!r} at byte {at}")
            shapes[name] = r.f32_dims(repr(name))
            if keep is None or name in keep:
                records[name] = r.array(shapes[name], "<f4", f"payload of {name!r}")
            else:
                r.skip(4 * math.prod(shapes[name]), f"payload of {name!r}")
    return records, shapes, step


def read_checkpoint(path: str) -> tuple[dict[str, np.ndarray], int]:
    """Parse a checkpoint file into {name: f32 array} plus the step counter."""
    records, _, step = _read_records(path)
    return records, step
