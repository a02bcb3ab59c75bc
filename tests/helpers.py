"""Shared test utilities."""

import contextlib
import errno
import os

import numpy as np

from solv import binding, diffcore as dc
from solv.diffcore import ParamStore, Tensor


def binding_store(d_slot=8, k_slots=3, window=3, n_layers=2, seed=0,
                  scale=0.3, precision="f64") -> ParamStore:
    """Small randomly initialized parameter set for binding tests."""
    rng = np.random.default_rng(seed)
    store = ParamStore(precision)
    shapes = dict(binding.binding_param_shapes(d_slot, k_slots, window))
    shapes.update(binding.transformer_param_shapes(d_slot, n_layers))
    for name, shape in shapes.items():
        if name.endswith(("ln_g", "ln1_g", "ln2_g", "ln_q.g")):
            store.register(name, np.ones(shape))
        elif name == "bind.init.scale":
            store.register(name, np.abs(rng.normal(0.4, 0.05, size=shape)) + 0.05)
        else:
            store.register(name, rng.normal(scale=scale, size=shape))
    return store


def stack(tensors, axis: int) -> Tensor:
    """``np.stack`` of tensors as one tape node, for the oracles that build
    a window frame by frame; each operand's gradient is its slice."""
    tensors = list(tensors)
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return dc._make(out, tuple(tensors), backward)


def fail_writes_half_way(monkeypatch):
    """Replace ``diffcore.atomic_write`` by a wrapper around the real one
    whose ``write`` puts half of the bytes it is given into ``<path>.tmp``
    and then runs out of space; returns the list that receives the size
    of the ``.tmp`` file at each failure."""
    real, partial = dc.atomic_write, []

    class HalfWrite:
        def __init__(self, f, path):
            self.f, self.path = f, path

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            self.f.flush()
            partial.append(os.path.getsize(self.path + ".tmp"))
            raise OSError(errno.ENOSPC, "No space left on device")

    @contextlib.contextmanager
    def half_write_then_fail(path):
        with real(path) as f:
            yield HalfWrite(f, path)

    monkeypatch.setattr(dc, "atomic_write", half_write_then_fail)
    return partial


def record_isa_moments(monkeypatch, iteration=None):
    """Install a wrapper of ``iteration`` (the installed
    ``binding.isa_iteration`` by default) that records each call's
    (scale, drift) as (..., K, 2) tensors, the scale as the iteration
    takes it, sqrt(var + EPS); returns the list that receives them."""
    real, moments = iteration or binding.isa_iteration, []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        _, drift, var = out[2]
        scale = dc.sqrt(var + binding.EPS)
        moments.append((binding._first_last(scale), binding._first_last(drift)))
        return out

    monkeypatch.setattr(binding, "isa_iteration", recording)
    return moments


def record_attention(monkeypatch):
    """Record the attention (..., K, N') whose moments binding takes: one
    entry per invariant iteration, one per plain-attention call. Returns
    the list that receives them; its last entry is the final attention."""
    real, seen = binding._moments, []

    def recording(a, *args, **kwargs):
        seen.append(a.data.copy())
        return real(a, *args, **kwargs)

    monkeypatch.setattr(binding, "_moments", recording)
    return seen


def final_moments(moments, params):
    """Scale and absolute position of the slots after the last recorded
    iteration: the position is ``bind.init.pos`` plus the drift."""
    scale, drift = moments[-1]
    return scale, dc.add(params["bind.init.pos"], drift)


def finite_diff(f, tensors, h=1e-5, rng=None, max_coords=40):
    """Central finite differences of a scalar function at sampled coords.

    Returns the worst relative error against the analytic gradients that
    must already be populated on the tensors.
    """
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "analytic gradient missing"
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        coords = np.arange(flat.size)
        if flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            lp = f()
            flat[i] = orig - h
            lm = f()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Reference assignment solver: the potentials solve as a pure-Python loop
# over columns, one column at a time. evalkit.hungarian scans the columns
# as arrays and must return exactly the pairs this returns, ties included.
# ---------------------------------------------------------------------------

def _solve_potentials(cost: np.ndarray) -> np.ndarray:
    """Exact minimum assignment for an R x C matrix with R <= C, as the
    1-based row matched to each 1-based column (0 free; entry 0 unused)."""
    r, c = cost.shape
    u = np.zeros(r + 1)
    v = np.zeros(c + 1)
    match = np.zeros(c + 1, dtype=np.int64)  # column -> row (1-based), 0 free
    for i in range(1, r + 1):
        match[0] = i
        j0 = 0
        minv = np.full(c + 1, np.inf)
        used = np.zeros(c + 1, dtype=bool)
        way = np.zeros(c + 1, dtype=np.int64)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = np.inf
            j1 = -1
            for j in range(1, c + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(c + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return match


def reference_hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost assignment of size min(R, C) as (row, col) pairs,
    sorted by row; tall matrices are solved transposed."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    tall = cost.shape[0] > cost.shape[1]
    match = _solve_potentials(cost.T if tall else cost)
    pairs = [(int(match[j]) - 1, j - 1) for j in range(1, len(match)) if match[j]]
    return sorted((c, r) if tall else (r, c) for r, c in pairs)


# ---------------------------------------------------------------------------
# Reference invariant attention iteration: keys and values are built as
# K x N' x D tensors and contracted afterwards. binding.isa_iteration
# factors the affine position term out of them and must agree with this
# to rounding.
# ---------------------------------------------------------------------------

def reference_isa_iteration(z: Tensor, rel: Tensor, centered: Tensor,
                            pkf: Tensor, pvf: Tensor, pg_w: Tensor, pg_b: Tensor,
                            params, delta: float, eps: float = 1e-8):
    """One invariant attention iteration in centered coordinates, one frame.

    centered is G_abs - S_p_init and rel the coordinates relative to the
    current slot moments, both token-major (N' x 2 x K) as
    binding.isa_iteration takes them; drift accumulates the slot position
    offset from its initialization, so the absolute position is
    S_p_init + drift. Returns (z, rel, (mass, drift, var)) as
    binding.isa_iteration does: the new relative coordinates token-major,
    the mass K x 1, the drift and variance 2 x K.
    """
    k, d_slot = z.shape
    inv_temp = Tensor(1.0 / np.sqrt(d_slot))

    def slot_major(t):  # N' x 2 x K to K x N' x 2
        return dc.transpose(t, (2, 0, 1))

    def pg_of(r):
        return dc.add(dc.matmul(r, pg_w), pg_b)

    keys = dc.add(pkf, pg_of(slot_major(rel)))          # K x N' x D
    zn = dc.layernorm(z, params["bind.ln_q.g"], params["bind.ln_q.b"])
    qz = dc.linear(zn, params["bind.q.w"], params["bind.q.b"])
    logits = dc.mul(
        dc.reduce_sum(dc.mul(keys, dc.reshape(qz, (k, 1, d_slot))), axis=-1),
        inv_temp,
    )                                                   # K x N'
    a = dc.softmax(logits, axis=0)                      # normalize over slots

    centered = slot_major(centered)
    a3 = dc.reshape(a, (k, a.shape[1], 1))
    mass = dc.add(dc.reduce_sum(a, axis=1, keepdims=True), Tensor(eps))  # K x 1
    new_drift = dc.div(dc.reduce_sum(dc.mul(a3, centered), axis=1), mass)
    spread = dc.sub(centered, dc.reshape(new_drift, (k, 1, 2)))
    var = dc.div(dc.reduce_sum(dc.mul(a3, dc.mul(spread, spread)), axis=1), mass)
    new_scale = dc.sqrt(dc.add(var, Tensor(eps)))

    denom = dc.mul(dc.reshape(new_scale, (k, 1, 2)), Tensor(float(delta)))
    rel2 = dc.div(dc.sub(centered, dc.reshape(new_drift, (k, 1, 2))), denom)
    vals = dc.add(pvf, pg_of(rel2))                     # K x N' x D
    w = dc.div(a3, dc.reshape(mass, (k, 1, 1)))
    updates = dc.reduce_sum(dc.mul(w, vals), axis=1)    # K x D

    z = dc.gru_cell(z, updates, binding._gru_params(params))
    z = binding._slot_mlp(z, params)
    return (z, dc.transpose(rel2, (1, 2, 0)),
            (mass, dc.transpose(new_drift, (1, 0)), dc.transpose(var, (1, 0))))
