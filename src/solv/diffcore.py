"""Reverse-mode differentiable array engine and Adam optimizer.

Tensors wrap float numpy arrays; a ``ParamStore`` fixes the float width
of its parameters (f32 for training, f64 for gradient checks), and every
operation keeps the width of its operands. Operations executed inside a ``Tape``
context are recorded in execution order; ``Tape.backward`` replays them
once in reverse, accumulating gradients into every tensor that requires
them. Nothing here is thread-aware: a tape and its tensors belong to a
single computation.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ParamStore",
    "ShapeError",
    "NonFiniteError",
    "FormatError",
    "ConfigError",
    "BinaryReader",
    "write_f32_array",
    "atomic_write",
    "set_finite_checks",
    "add", "sub", "mul", "div", "neg", "matmul",
    "exp", "sqrt", "relu", "sigmoid", "tanh",
    "reduce_sum", "reduce_mean", "softmax", "layernorm",
    "reshape", "transpose", "concat", "stack", "gather_rows", "slice_axis",
    "linear", "gru_cell", "gru_param_shapes",
]

_DTYPES = {"f32": np.float32, "f64": np.float64}


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class NonFiniteError(FloatingPointError):
    """A forward operation produced NaN or Inf; the step must be aborted."""


class FormatError(ValueError):
    """A binary file does not match its declared format."""


class ConfigError(ValueError):
    """Invalid configuration value."""


# ---------------------------------------------------------------------------
# Binary file codec shared by SOLVCKPT, SOLVTNSR and SOLVMASK
# ---------------------------------------------------------------------------

class BinaryReader:
    """Bounds-checked little-endian cursor over a whole file.

    Opening checks the 8-byte magic and the u32 version; every error is a
    ``FormatError`` naming the path and the byte offset.
    """

    def __init__(self, path: str, magic: bytes, version: int):
        with open(path, "rb") as f:
            self.blob = f.read()
        self.off = 0
        self.path = path
        found = self.take(len(magic), "magic")
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r} at byte 0, expected {magic!r}")
        (found_version,) = self.unpack("<I", "version")
        if found_version != version:
            raise FormatError(
                f"{path}: unsupported version {found_version} at byte {len(magic)}")

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise FormatError(
                f"{self.path}: truncated, expected {what} at byte {self.off}"
            )
        chunk = self.blob[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dims, dtype: str, what: str) -> np.ndarray:
        dt = np.dtype(dtype)
        payload = self.take(dt.itemsize * math.prod(dims), what)
        return np.frombuffer(payload, dtype=dt).reshape(dims).copy()

    def f32_array(self, what: str) -> np.ndarray:
        """Read the record ``write_f32_array`` writes."""
        (rank,) = self.unpack("<I", f"rank of {what}")
        dims = self.unpack(f"<{rank}Q", f"dims of {what}")
        return self.array(dims, "<f4", f"payload of {what}")

    def at_end(self) -> bool:
        return self.off == len(self.blob)

    def done(self, what: str) -> None:
        if not self.at_end():
            raise FormatError(
                f"{self.path}: {len(self.blob) - self.off} trailing bytes after {what} at byte {self.off}"
            )


def write_f32_array(f, arr: np.ndarray) -> None:
    """Write ``rank u32, dims u64 x rank, payload f32``."""
    f.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb"):
    """Open ``<path>.tmp`` for writing and rename it onto ``path`` once the
    block completes, so a write that fails part way leaves the previous
    file intact."""
    tmp = path + ".tmp"
    f = open(tmp, mode)
    try:
        with f:
            yield f
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


_finite_checks = False


def get_precision() -> str:
    """Precision of the default config, which every benchmark workload
    runs; read only by the run header of ``bench/run.py``."""
    return "f32"


def set_finite_checks(enabled: bool) -> None:
    """Toggle per-operation NaN/Inf checks (off by default; slow)."""
    global _finite_checks
    _finite_checks = bool(enabled)


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

    @property
    def size(self):
        return self.data.size

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __truediv__(self, other):
        return div(self, _wrap(other, self))

    def __rtruediv__(self, other):
        return div(_wrap(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other, self))

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


def _wrap(x, like: Tensor) -> Tensor:
    """``x`` itself if it is a tensor, else a constant of ``like``'s dtype."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of operations for one forward pass.

    Execution order is topological order; ``backward`` walks it exactly
    once in reverse and then clears the record. Calling ``backward`` a
    second time without a fresh forward is an error.
    """

    def __init__(self):
        self._nodes = []  # (out, parents, backward_fn)
        self._consumed = False
        self.live_elements = 0  # running count of recorded output values

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        if _TAPE_STACK and _TAPE_STACK[-1] is self:
            _TAPE_STACK.pop()
        return False

    def _record(self, out: Tensor, parents, backward_fn, need) -> None:
        self._nodes.append((out, parents, backward_fn, need))
        self.live_elements += out.data.size

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into .grad of every reachable tensor."""
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward; run a new forward")
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, parents, backward_fn, need in reversed(self._nodes):
            g = out.grad
            if g is None:
                continue
            parent_grads = backward_fn(g, need)
            for p, pg in zip(parents, parent_grads):
                if pg is None or not isinstance(p, Tensor):
                    continue
                if p.grad is None:
                    p.grad = pg if pg.dtype == p.data.dtype else pg.astype(p.data.dtype)
                else:
                    p.grad = p.grad + pg
            out.grad = None  # free intermediate storage as we go
        self._consumed = True
        self._nodes.clear()


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make(out_data, parents, backward_fn) -> Tensor:
    """Create the result tensor, recording it when a tape is active."""
    if _finite_checks and not np.all(np.isfinite(out_data)):
        raise NonFiniteError("non-finite values in forward result")
    tape = _active_tape()
    if tape is None:
        need = None
    else:
        need = tuple(isinstance(p, Tensor) and p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = need is not None and any(need)
    if out.requires_grad:
        tape._record(out, parents, backward_fn, need)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == tuple(shape):
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
    return _make(out, (a, b), lambda g, need: (
        _unbroadcast(g, a.shape) if need[0] else None,
        _unbroadcast(g, b.shape) if need[1] else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _make(out, (a, b), lambda g, need: (
        _unbroadcast(g, a.shape) if need[0] else None,
        _unbroadcast(-g, b.shape) if need[1] else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _make(out, (a, b), lambda g, need: (
        _unbroadcast(g * b.data, a.shape) if need[0] else None,
        _unbroadcast(g * a.data, b.shape) if need[1] else None))


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return _make(out, (a, b), lambda g, need: (
        _unbroadcast(g / b.data, a.shape) if need[0] else None,
        _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if need[1] else None))


def neg(a: Tensor) -> Tensor:
    return _make(a.data.__neg__(), (a,), lambda g, need: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g, need):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) \
            if need[0] else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) \
            if need[1] else None
        return ga, gb

    return _make(out, (a, b), backward)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g, need: (g * out,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g, need: (g * (0.5 / out),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    return _make(out, (a,), lambda g, need: (g * (a.data > 0),))


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), lambda g, need: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g, need: (g * (1.0 - out * out),))


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g, need):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(out, (a,), backward)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]

    def backward(g, need):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.shape).copy(),)

    return _make(out, (a,), backward)


def softmax(a: Tensor, axis: int) -> Tensor:
    # Max subtraction for stability; the shift is treated as a constant,
    # which leaves the gradient unchanged (softmax is shift invariant).
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g, need):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g, need: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    return _make(out, (a,), lambda g, need: (g.transpose(inv),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g, need):
        return tuple(np.split(g, bounds, axis=axis))

    return _make(out, tuple(tensors), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g, need):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return _make(out, tuple(tensors), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    out = a.data[idx]

    def backward(g, need):
        ga = np.zeros(a.shape, dtype=g.dtype)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(out, (a,), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = a.data[sl]

    def backward(g, need):
        ga = np.zeros(a.shape, dtype=g.dtype)
        ga[sl] = g
        return (ga,)

    return _make(out, (a,), backward)


# ---------------------------------------------------------------------------
# Composite blocks
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b), the workhorse projection."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


def layernorm(x: Tensor, gamma: Tensor | None = None, beta: Tensor | None = None,
              eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis; constant rows map to zero via eps."""
    m = reduce_mean(x, axis=-1, keepdims=True)
    xc = sub(x, m)
    var = reduce_mean(mul(xc, xc), axis=-1, keepdims=True)
    inv = 1.0 / sqrt(var + eps)
    out = mul(xc, inv)
    if gamma is not None:
        out = mul(out, gamma)
    if beta is not None:
        out = add(out, beta)
    return out


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


class ParamStore:
    """Named trainable tensors plus Adam moment state, all of one float
    width: ``precision`` is 'f32' or 'f64'. Parameters are cast to it when
    registered and when loaded, and the model casts every array it feeds
    into the computation to ``dtype``."""

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
        self.m[name] = np.zeros_like(t.data)
        self.v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self):
        return list(self.params)

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None

    def grad_global_norm(self) -> float:
        total = 0.0
        for t in self.params.values():
            if t.grad is not None:
                total += float(np.sum(np.asarray(t.grad, dtype=np.float64) ** 2))
        return float(np.sqrt(total))

    def adam_step(self, lr: float, clip_norm: float | None = None,
                  beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> float:
        """Clip the global gradient norm, apply one Adam update, zero grads.

        Returns the pre-clip gradient norm (useful for logging). When that
        norm is not finite the update is skipped: parameters, moments and
        the step count stay as they were, and the caller sees the
        non-finite norm.
        """
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        norm = self.grad_global_norm()
        if not np.isfinite(norm):
            self.zero_grads()
            return norm
        scale = 1.0
        if clip_norm is not None and norm > clip_norm:
            scale = clip_norm / (norm + 1e-12)
        self.step += 1
        b1t = 1.0 - beta1 ** self.step
        b2t = 1.0 - beta2 ** self.step
        for name, t in self.params.items():
            if t.grad is None:
                continue
            g = t.grad * scale if scale != 1.0 else t.grad
            m = self.m[name]
            v = self.v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            t.data -= (lr / b1t) * m / (np.sqrt(v / b2t) + eps)
        self.zero_grads()
        return norm

    # -- checkpoint io ------------------------------------------------------

    def save(self, path: str) -> None:
        """Write parameters then Adam moments (.m/.v suffixes) to a checkpoint."""
        records = [(name, t.data) for name, t in self.params.items()]
        records += [(name + ".m", arr) for name, arr in self.m.items()]
        records += [(name + ".v", arr) for name, arr in self.v.items()]
        with atomic_write(path) as f:
            f.write(_CKPT_MAGIC)
            f.write(struct.pack("<I", _CKPT_VERSION))
            f.write(struct.pack("<Q", self.step))
            for name, arr in records:
                nb = name.encode("utf-8")
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                write_f32_array(f, arr)

    def load(self, path: str) -> None:
        """Restore parameters and moments from a checkpoint file."""
        records, step = read_checkpoint(path)
        self.step = step
        for name, t in self.params.items():
            if name not in records:
                raise FormatError(f"checkpoint missing parameter {name!r}")
            arr = records[name]
            if arr.shape != t.data.shape:
                raise ShapeError(
                    f"checkpoint parameter {name!r} has shape {arr.shape}, expected {t.data.shape}"
                )
            t.data = arr.astype(self.dtype)
            if name + ".m" in records:
                self.m[name] = records[name + ".m"].astype(self.dtype)
            if name + ".v" in records:
                self.v[name] = records[name + ".v"].astype(self.dtype)


def read_checkpoint(path: str) -> tuple[dict[str, np.ndarray], int]:
    """Parse a checkpoint file into {name: f32 array} plus the step counter."""
    r = BinaryReader(path, _CKPT_MAGIC, _CKPT_VERSION)
    (step,) = r.unpack("<Q", "step counter")
    records: dict[str, np.ndarray] = {}
    while not r.at_end():
        (name_len,) = r.unpack("<I", "name length")
        name = r.take(name_len, "name").decode("utf-8")
        records[name] = r.f32_array(repr(name))
    return records, step
