"""Shared test utilities."""

import numpy as np

from solv import binding, diffcore as dc
from solv.diffcore import ParamStore, Tensor


def binding_store(d_slot=8, k_slots=3, window=3, n_layers=2, seed=0,
                  scale=0.3) -> ParamStore:
    """Small randomly initialized parameter set for binding tests."""
    rng = np.random.default_rng(seed)
    store = ParamStore("f64")
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
# Reference assignment solver: a pure-Python potentials solve per call and a
# full re-solve for every candidate column of the lexicographic refinement.
# evalkit.hungarian must return exactly the pairs this returns.
# ---------------------------------------------------------------------------

def _solve_potentials(cost: np.ndarray) -> float:
    """Exact minimum assignment total for an R x C matrix with R <= C."""
    r, c = cost.shape
    if r == 0 or c == 0:
        return 0.0
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
    total = 0.0
    for j in range(1, c + 1):
        if match[j] != 0:
            total += cost[match[j] - 1, j - 1]
    return float(total)


def _optimal_total(cost: np.ndarray) -> float:
    if cost.size == 0 or 0 in cost.shape:
        return 0.0
    if cost.shape[0] <= cost.shape[1]:
        return _solve_potentials(cost)
    return _solve_potentials(cost.T)


def reference_hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost assignment of size min(R, C) as (row, col) pairs.

    Among optimal assignments, returns the one whose (row, col) sequence
    is lexicographically smallest.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    best = _optimal_total(cost)
    tol = 1e-9 * max(1.0, abs(best))
    rows = list(range(cost.shape[0]))
    cols = list(range(cost.shape[1]))
    pairs: list[tuple[int, int]] = []
    fixed = 0.0
    target = min(cost.shape)
    while rows and cols and len(pairs) < target:
        r = rows[0]
        rest = rows[1:]
        chosen = -1
        for c in cols:
            sub = cost[np.ix_(rest, [cc for cc in cols if cc != c])]
            if abs(fixed + cost[r, c] + _optimal_total(sub) - best) <= tol:
                chosen = c
                break
        if chosen < 0:
            # only possible with more rows than columns: this row sits out
            rows.pop(0)
            continue
        pairs.append((r, chosen))
        fixed += cost[r, chosen]
        rows.pop(0)
        cols.remove(chosen)
    return pairs


# ---------------------------------------------------------------------------
# Reference invariant attention iteration: keys and values are built as
# K x N' x D tensors and contracted afterwards. binding.isa_iteration
# factors the affine position term out of them and must agree with this
# to rounding.
# ---------------------------------------------------------------------------

def reference_isa_iteration(z: Tensor, s_s: Tensor, drift: Tensor, centered: Tensor,
                            pkf: Tensor, pvf: Tensor, pg_w: Tensor, pg_b: Tensor,
                            params, delta: float, eps: float = 1e-8):
    """One invariant attention iteration in centered coordinates.

    centered is G_abs - S_p_init (K x N' x 2); drift accumulates the slot
    position offset from its initialization, so the absolute position is
    S_p_init + drift. Returns (z, scale, drift, attention).
    """
    k, d_slot = z.shape
    inv_temp = Tensor(1.0 / np.sqrt(d_slot))

    def pg_of(rel):
        return dc.add(dc.matmul(rel, pg_w), pg_b)

    def rel_of(dr, sc):
        denom = dc.mul(dc.reshape(sc, (k, 1, 2)), Tensor(float(delta)))
        return dc.div(dc.sub(centered, dc.reshape(dr, (k, 1, 2))), denom)

    rel = rel_of(drift, s_s)
    keys = dc.add(pkf, pg_of(rel))                      # K x N' x D
    zn = dc.layernorm(z, params["bind.ln_q.g"], params["bind.ln_q.b"])
    qz = dc.linear(zn, params["bind.q.w"], params["bind.q.b"])
    logits = dc.mul(
        dc.reduce_sum(dc.mul(keys, dc.reshape(qz, (k, 1, d_slot))), axis=-1),
        inv_temp,
    )                                                   # K x N'
    a = dc.softmax(logits, axis=0)                      # normalize over slots

    a3 = dc.reshape(a, (k, a.shape[1], 1))
    mass = dc.add(dc.reduce_sum(a, axis=1, keepdims=True), Tensor(eps))  # K x 1
    new_drift = dc.div(dc.reduce_sum(dc.mul(a3, centered), axis=1), mass)
    spread = dc.sub(centered, dc.reshape(new_drift, (k, 1, 2)))
    var = dc.div(dc.reduce_sum(dc.mul(a3, dc.mul(spread, spread)), axis=1), mass)
    new_scale = dc.sqrt(dc.add(var, Tensor(eps)))

    rel2 = rel_of(new_drift, new_scale)
    vals = dc.add(pvf, pg_of(rel2))                     # K x N' x D
    w = dc.div(a3, dc.reshape(mass, (k, 1, 1)))
    updates = dc.reduce_sum(dc.mul(w, vals), axis=1)    # K x D

    z = dc.gru_cell(z, updates, binding._gru_params(params))
    z = binding._slot_mlp(z, params)
    return z, new_scale, new_drift, a
