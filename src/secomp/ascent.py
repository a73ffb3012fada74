"""Multi-start coordinate ascent over stacks of per-row simplex distributions.

Every objective the package maximizes over an auxiliary channel W (rows are
the conditioning cells, columns the output symbols) is a signed sum of
entropies of marginals of ``mass x W`` plus a constant. Each such marginal
is linear in W: its cell (k, u) is ``sum_r P[r, k] * W[r, u]``, where P[r, k]
adds up the mass of every joint cell that sits in conditioning row r and in
marginal cell k. Stacking the marginals of all terms gives one projection
matrix P (rows x K) with a sign per column, and

    value(W) = const - sum_{k,u} sign_k * m_ku * log2(m_ku),  m = P^T W.

Moving row r of W to ``base + t * delta`` moves the marginals to
``m0 + t * P[r] (x) delta``, so a line search costs O(K * |U|) per point and
never rebuilds the joint or copies W.

The vertex step tries every one-hot row for row r. Each candidate replaces
row r completely, so its marginal is ``rest + P[r] (x) e_u`` with ``rest``
the marginal without row r, whatever row r held before. The candidates differ
from ``rest`` in one column only, so all |U| values come from two batched
column evaluations. Trying u = 0, 1, ... in turn and keeping u whenever it
beats the best value so far ends on the first maximizer of the candidate
values, provided that maximum beats the current value; the candidates do not
depend on which earlier vertex was kept. The batched step takes ``argmax``
(the first maximizer) under the same condition, so it chooses the same
vertex, ties included; only the rounding of the candidate values, which the
two ways sum in different orders, can set them apart.

All randomness derives from (seed, start index), so runs are reproducible
bit for bit and starts could execute concurrently without changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .probability import Channel, DistributionError, JointPMF

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 28
_DIRECTIONS_PER_ROW = 2


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 64
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0
    u_cardinality: int | None = None

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.u_cardinality is not None and self.u_cardinality < 1:
            raise ValueError("u_cardinality must be >= 1")


@dataclass(frozen=True, eq=False)
class EntropyObjective:
    """const - sum_k sign_k sum_u m_ku log2 m_ku over the marginals m = P^T W.

    ``proj`` is P (rows x K), ``sign`` holds +1 or -1 per column. Arrays of
    marginals have shape (..., K, |U|); tables W have shape (starts, rows, |U|).
    """

    proj: np.ndarray
    sign: np.ndarray
    const: float = 0.0

    @classmethod
    def from_terms(
        cls,
        mass: np.ndarray,
        cond_axes: tuple[int, ...],
        terms: Sequence[tuple[tuple[int, ...], float]],
        const: float = 0.0,
    ) -> "EntropyObjective":
        """Objective sum_i sign_i * H(marginal_i of mass x W) + const.

        Term i keeps the listed mass axes plus the channel's output axis; W
        conditions on ``cond_axes`` in row-major order.
        """
        grids = np.indices(mass.shape)

        def cell_index(axes: Sequence[int]) -> np.ndarray:
            sizes = tuple(mass.shape[i] for i in axes)
            return np.ravel_multi_index(tuple(grids[i] for i in axes), sizes).ravel()

        rows = cell_index(cond_axes)
        n_rows = math.prod(mass.shape[i] for i in cond_axes)
        blocks, signs = [], []
        for keep, sign in terms:
            block = np.zeros((n_rows, math.prod(mass.shape[i] for i in keep)))
            np.add.at(block, (rows, cell_index(keep)), mass.ravel())
            blocks.append(block)
            signs.append(np.full(block.shape[1], float(sign)))
        proj = np.hstack(blocks)
        # Cells with no mass contribute 0 log 0 = 0 to every evaluation.
        used = proj.any(axis=0)
        return cls(proj[:, used], np.concatenate(signs)[used], float(const))

    @property
    def n_rows(self) -> int:
        return self.proj.shape[0]

    def marginals(self, w: np.ndarray) -> np.ndarray:
        return self.proj.T @ w

    def column_values(self, m: np.ndarray) -> np.ndarray:
        """-sum_k sign_k m_ku log2 m_ku for each output column u."""
        log_m = np.log2(m, out=np.zeros(m.shape), where=m > 0.0)
        return -(self.sign @ (m * log_m))

    def value(self, m: np.ndarray) -> np.ndarray:
        return self.const + self.column_values(m).sum(axis=-1)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return self.value(self.marginals(w))

    def row_step(self, r: int, delta: np.ndarray) -> np.ndarray:
        """Marginal shift P[r] (x) delta of moving row r by ``delta`` (starts x |U|)."""
        return self.proj[r][None, :, None] * delta[:, None, :]

    def vertex_values(self, m: np.ndarray, w: np.ndarray, r: int) -> np.ndarray:
        """Value of each start with row r replaced by each one-hot vertex.

        ``m`` are the marginals of ``w``; the result has shape (starts, |U|).
        """
        p_r = self.proj[r][None, :, None]
        rest = m - p_r * w[:, r, None, :]
        cols = self.column_values(rest)
        with_row = self.column_values(rest + p_r)
        return self.const + cols.sum(axis=1)[:, None] - cols + with_row


@dataclass(frozen=True, eq=False)
class AscentResult:
    """Final per-start values and tables, and how each start ended.

    ``sweeps[s]`` counts the sweeps start s ran before it froze (or
    ``max_iters``); ``hit_max_iters`` is true when some start still improved
    by at least ``tol`` in the last allowed sweep.
    """

    values: np.ndarray
    tables: np.ndarray
    sweeps: np.ndarray
    hit_max_iters: bool


def _golden_max(
    eval_t: Callable[[np.ndarray], np.ndarray], n_batch: int, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched golden-section maximization over t in [0, 1]."""
    a = np.zeros(n_batch)
    b = np.ones(n_batch)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = eval_t(x1)
    f2 = eval_t(x2)
    for _ in range(iters):
        left = f1 >= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        old_x1, old_f1 = x1, f1
        old_x2, old_f2 = x2, f2
        x1 = np.where(left, b - _INVPHI * (b - a), old_x2)
        x2 = np.where(left, old_x1, a + _INVPHI * (b - a))
        f_new = eval_t(np.where(left, x1, x2))
        f1 = np.where(left, f_new, old_f2)
        f2 = np.where(left, old_f1, f_new)
    t = np.where(f1 >= f2, x1, x2)
    return t, np.maximum(f1, f2)


def multistart_ascent(
    objective: EntropyObjective,
    n_symbols: int,
    cfg: OptimizerConfig,
    extra_rows: Sequence[np.ndarray] = (),
) -> AscentResult:
    """Maximize ``objective`` over stacks of per-row simplex distributions.

    Start ``s`` draws from default_rng((seed, s)); random starts come first,
    then ``extra_rows``. Each sweep visits every row, first trying each
    one-hot vertex exactly (the interesting optima often sit at deterministic
    channels, and exact vertex moves both reach them and let the sweep
    improvement drop to zero so termination fires), then golden-section line
    searches toward random simplex points for interior refinement. Rows of
    conditioning cells without mass are skipped: no move of theirs changes
    the objective, so they keep their start values. A start freezes once a
    full sweep improves it by less than ``cfg.tol``; later sweeps run on the
    starts still active only, which changes nothing for any start because
    each start only reads its own table and generator.
    """
    n_starts = cfg.starts + len(extra_rows)
    rngs = [np.random.default_rng((cfg.seed, s)) for s in range(n_starts)]
    w = np.empty((n_starts, objective.n_rows, n_symbols))
    ones = np.ones(n_symbols)
    for s in range(cfg.starts):
        w[s] = rngs[s].dirichlet(ones, size=objective.n_rows)
    for i, rows in enumerate(extra_rows):
        w[cfg.starts + i] = rows
    f = objective(w)
    active = np.ones(n_starts, dtype=bool)
    sweeps = np.zeros(n_starts, dtype=int)
    for _ in range(cfg.max_iters):
        idx = np.flatnonzero(active)
        w_run = w[idx]
        f_run = _sweep(objective, w_run, f[idx], [rngs[s] for s in idx])
        sweeps[idx] += 1
        active[idx] = (f_run - f[idx]) >= cfg.tol
        w[idx] = w_run
        f[idx] = f_run
        if not active.any():
            break
    return AscentResult(f, w, sweeps, bool(active.any()))


def _sweep(
    objective: EntropyObjective,
    w: np.ndarray,
    f: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """One pass over the rows of the tables ``w`` (updated in place).

    ``f`` holds the current values; returns the values after the pass.
    """
    n_starts, n_rows, n_symbols = w.shape
    ones = np.ones(n_symbols)
    every = np.arange(n_starts)
    t_one = np.ones(n_starts)
    live = objective.proj.any(axis=1)
    m = objective.marginals(w)
    for r in range(n_rows):
        # Each start draws from its own generator, so drawing a row's
        # directions up front keeps every stream's order.
        directions = [
            np.stack([rng.dirichlet(ones) for rng in rngs])
            for _ in range(_DIRECTIONS_PER_ROW)
        ]
        if not live[r]:
            continue
        f_vertex = objective.vertex_values(m, w, r)
        u = np.argmax(f_vertex, axis=1)
        f_u = f_vertex[every, u]
        take = f_u > f
        if take.any():
            w[take, r, :] = 0.0
            w[take, r, u[take]] = 1.0
            f = np.where(take, f_u, f)
            m = objective.marginals(w)
        for z in directions:
            base = w[:, r, :].copy()
            delta = z - base
            dm = objective.row_step(r, delta)

            def eval_t(t: np.ndarray) -> np.ndarray:
                return objective.value(m + t[:, None, None] * dm)

            t_best, f_best = _golden_max(eval_t, n_starts, _GOLDEN_ITERS)
            f_vertex = eval_t(t_one)
            t_best = np.where(f_vertex > f_best, 1.0, t_best)
            f_best = np.maximum(f_vertex, f_best)
            take = f_best > f
            if take.any():
                moved = base[take] + t_best[take, None] * delta[take]
                w[take, r, :] = np.maximum(moved, 0.0)
                f = np.where(take, f_best, f)
                m = objective.marginals(w)
    return f


def rows_for_start(
    channel: Channel, joint: JointPMF, cond_vars: tuple[str, ...], n_symbols: int
) -> np.ndarray:
    """Reorder and zero-pad a channel into an optimizer start table."""
    if set(channel.from_names) != set(cond_vars):
        raise DistributionError(
            f"extra start conditions on {channel.from_names}, expected {cond_vars}"
        )
    aligned = channel.lift(tuple((v, joint.alphabet(v)) for v in cond_vars))
    k = aligned.rows.shape[-1]
    if k > n_symbols:
        raise DistributionError(
            f"extra start has {k} output symbols, exceeding the cardinality bound {n_symbols}"
        )
    rows = aligned.rows.reshape(-1, k)
    if k < n_symbols:
        rows = np.hstack([rows, np.zeros((rows.shape[0], n_symbols - k))])
    return rows
