"""Auxiliary-channel search (``maximize_channel``) by multi-start coordinate ascent.

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

Fixed per-call costs are paid once where the numbers allow it. The golden
section scores its two opening points and its closing point t = 1 in one
batched evaluation, and each step forms one new point; each start draws a
whole sweep's directions in one call from its own generator, the same
stream in the same order; the rows without mass are found once per ascent.
None of this changes a floating-point operation, so results are the same
bit for bit as scoring each point and drawing each direction on its own.

All randomness derives from (seed, start index), so runs are reproducible
bit for bit and starts could execute concurrently without changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .probability import Alphabet, Channel, VarSpec

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 28
_DIRECTIONS_PER_ROW = 2


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 64
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


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

    def _signed_plogp(self, m: np.ndarray) -> np.ndarray:
        """sum_k sign_k m_ku log2 m_ku for each output column u."""
        log_m = np.log2(m, out=np.zeros(m.shape), where=m > 0.0)
        return self.sign @ (m * log_m)

    def column_values(self, m: np.ndarray) -> np.ndarray:
        """-sum_k sign_k m_ku log2 m_ku for each output column u."""
        return -self._signed_plogp(m)

    def value(self, m: np.ndarray) -> np.ndarray:
        # Negation is exact, so this equals const + column_values(m).sum(-1).
        return self.const - np.add.reduce(self._signed_plogp(m), axis=-1)

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
    """Batched golden-section maximization over t in [0, 1], end point t = 1 included.

    ``eval_t`` maps an array of t values of shape (..., n_batch) to their
    values. The two opening points and t = 1 are scored in one call; t = 1
    replaces the section's best point only when it is strictly better.
    """
    a = np.zeros(n_batch)
    b = np.ones(n_batch)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2, f_one = eval_t(np.stack([x1, x2, b]))
    for _ in range(iters):
        # When x1 scores at least as well the bracket shrinks to [a, x2],
        # else to [x1, b]; the new point sits between the kept inner point
        # (base) and the kept end (far). Negation is exact, so
        # x2 + c * (a - x2) is the same number as x2 - c * (x2 - a).
        left = f1 >= f2
        base, far = np.where(left, (x2, a), (x1, b))
        x_new = base + _INVPHI * (far - base)
        f_new = eval_t(x_new)
        a, b, x1, x2, f1, f2 = np.where(
            left, (a, x2, x_new, x1, f_new, f1), (x1, b, x2, x_new, f2, f_new)
        )
    t = np.where(f1 >= f2, x1, x2)
    f = np.maximum(f1, f2)
    return np.where(f_one > f, 1.0, t), np.maximum(f_one, f)


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
    live_rows = np.flatnonzero(objective.proj.any(axis=1))
    active = np.ones(n_starts, dtype=bool)
    sweeps = np.zeros(n_starts, dtype=int)
    for _ in range(cfg.max_iters):
        idx = np.flatnonzero(active)
        w_run = w[idx]
        f_run = _sweep(objective, w_run, f[idx], [rngs[s] for s in idx], live_rows)
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
    live_rows: np.ndarray,
) -> np.ndarray:
    """One pass over the rows ``live_rows`` of the tables ``w`` (updated in place).

    ``f`` holds the current values; returns the values after the pass.
    """
    n_starts, n_rows, n_symbols = w.shape
    every = np.arange(n_starts)
    # directions[r, k] is direction k of row r for every start. Each start
    # draws them for every row, skipped rows included, from its own generator
    # in (row, direction) order, so one draw per start keeps every stream.
    directions = np.stack([
        rng.dirichlet(np.ones(n_symbols), size=(n_rows, _DIRECTIONS_PER_ROW)) for rng in rngs
    ], axis=2)
    m = objective.marginals(w)
    for r in live_rows:
        f_vertex = objective.vertex_values(m, w, r)
        u = np.argmax(f_vertex, axis=1)
        f_u = f_vertex[every, u]
        take = f_u > f
        if take.any():
            w[take, r, :] = 0.0
            w[take, r, u[take]] = 1.0
            f = np.where(take, f_u, f)
            m = objective.marginals(w)
        for z in directions[r]:
            base = w[:, r, :].copy()
            delta = z - base
            dm = objective.row_step(r, delta)

            def eval_t(t: np.ndarray) -> np.ndarray:
                return objective.value(m + t[..., None, None] * dm)

            t_best, f_best = _golden_max(eval_t, n_starts, _GOLDEN_ITERS)
            take = f_best > f
            if take.any():
                moved = base[take] + t_best[take, None] * delta[take]
                w[take, r, :] = np.maximum(moved, 0.0)
                f = np.where(take, f_best, f)
                m = objective.marginals(w)
    return f


def u_cardinality(cond_vars: Sequence[VarSpec]) -> int:
    """|U| = (product of the conditioning alphabet sizes) + 1."""
    return math.prod(alph.size for _, alph in cond_vars) + 1


def u_channel(cond_vars: tuple[VarSpec, ...], rows: np.ndarray) -> Channel:
    """Channel onto U = {u0, ..., u|U|-1} from ``rows`` (a row per cell), zero-padded."""
    n_symbols = u_cardinality(cond_vars)
    shape = tuple(alph.size for _, alph in cond_vars)
    table = np.reshape(rows, shape + (-1,))
    table = np.pad(table, [(0, 0)] * len(shape) + [(0, n_symbols - table.shape[-1])])
    u_alphabet = Alphabet("U", tuple(f"u{i}" for i in range(n_symbols)))
    return Channel(cond_vars, ("U", u_alphabet), table)


def maximize_channel(
    objective: EntropyObjective,
    cond_vars: tuple[VarSpec, ...],
    cfg: OptimizerConfig,
    starts: Sequence[Channel] = (),
) -> tuple[AscentResult, Channel]:
    """Maximize ``objective`` over channels p(U | cond_vars).

    The ascent runs the random starts, then ``starts`` (each lifted to
    ``cond_vars``), then the uniform channel. Returns the ascent and the best
    table as a ``u_channel``, the first start with the highest value winning
    ties.
    """
    n_symbols = u_cardinality(cond_vars)
    padded = (u_channel(cond_vars, channel.lift(cond_vars).rows) for channel in starts)
    injected = [channel.rows.reshape(-1, n_symbols) for channel in padded]
    injected.append(np.full((objective.n_rows, n_symbols), 1.0 / n_symbols))
    ascent = multistart_ascent(objective, n_symbols, cfg, injected)
    return ascent, u_channel(cond_vars, ascent.tables[int(np.argmax(ascent.values))])
