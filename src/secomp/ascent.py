"""Auxiliary-channel search (``maximize_channel``): an exact envelope or a multi-start ascent.

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

``maximize_channel`` searches only where it must. One stage scores the
channels found without a search (``envelope_witness``), the caller's
candidates and starts and the uniform channel. When at most two
conditioning rows carry mass and every row's signed columns balance, the
objective is a sum over U of p(u) times a function of a one-dimensional
posterior, and ``two_row_envelope`` finds its maximum as the upper concave
envelope of that function, with a certified upper bound and no randomness.
That covers p(u|a) objectives on a binary source: the S_B-open secrecy
objective, each coded corner and both less-noisy violations. With three or
four balanced rows the witness of an LP over a grid of posteriors
(``grid_witness``) is scored instead, and only the caller's analytic upper
bound can certify it. When the two-row envelope applies, or the best
channel scored is within ``CERTIFY_TOL`` of that bound, the best is the
maximum and no search runs; otherwise ``multistart_ascent`` runs as it
would alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .envelope import chord_gap, upper_envelope
from .lp import phase2_simplex
from .probability import Alphabet, Channel, VarSpec

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 28
_DIRECTIONS_PER_ROW = 2

# A row's signed columns balance when |proj @ sign| is below this times its mass.
_BALANCE_TOL = 1e-12

# The grid LP covers three or four rows with mass. Its grid holds the points
# of their posterior simplex with coordinates in multiples of 1 / 16 (969
# points for four rows); an even count keeps the midpoints, where the
# erasure family's optimal supports sit. Phase 2 stops once no reduced cost
# is below minus _GRID_LP_TOL, and weights up to it, the rounding residue of
# a degenerate basis, are dropped from the support.
_GRID_LP_ROWS = range(3, 5)
_GRID_LP_RESOLUTION = 16
_GRID_LP_TOL = 1e-13

# A channel within this of the analytic upper bound ends the search.
CERTIFY_TOL = 1e-12

# Sweeps a start may run; a start freezes once a sweep gains less than TOL,
# and starts within TOL of the best value count as agreeing.
MAX_ITERS = 500
TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Random ``starts`` of the multi-start ascent, drawn from ``seed``.

    The envelope path uses neither; the sweep cap and tolerance are the
    module constants ``MAX_ITERS`` and ``TOL``.
    """

    starts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
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
    ``MAX_ITERS``); ``hit_max_iters`` is true when some start still improved
    by at least ``TOL`` in the last allowed sweep. ``evaluations`` counts the
    points the objective was scored at. ``upper_bound`` is a certified bound
    on the objective's maximum over all channels: the envelope's, or the
    analytic bound ``maximize_channel`` was given; None from
    ``multistart_ascent`` alone.
    """

    values: np.ndarray
    tables: np.ndarray
    sweeps: np.ndarray
    hit_max_iters: bool
    evaluations: int = 0
    upper_bound: float | None = None


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
    full sweep improves it by less than ``TOL``; later sweeps run on the
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
    # Points one start scores per sweep: each live row's vertices, then the
    # golden section's three opening points and one per step, per direction.
    per_sweep = live_rows.size * (n_symbols + _DIRECTIONS_PER_ROW * (3 + _GOLDEN_ITERS))
    evaluations = n_starts
    active = np.ones(n_starts, dtype=bool)
    sweeps = np.zeros(n_starts, dtype=int)
    for _ in range(MAX_ITERS):
        idx = np.flatnonzero(active)
        w_run = w[idx]
        f_run = _sweep(objective, w_run, f[idx], [rngs[s] for s in idx], live_rows)
        sweeps[idx] += 1
        evaluations += idx.size * per_sweep
        active[idx] = (f_run - f[idx]) >= TOL
        w[idx] = w_run
        f[idx] = f_run
        if not active.any():
            break
    return AscentResult(f, w, sweeps, bool(active.any()), evaluations)


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


def _balanced_rows(objective: EntropyObjective) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows with mass and their shares of it; None unless each one's signed columns balance."""
    proj = objective.proj
    live = np.flatnonzero(proj.any(axis=1))
    mass = proj[live].sum(axis=1)
    if np.any(np.abs(proj[live] @ objective.sign) > _BALANCE_TOL * mass):
        return None
    return live, mass / mass.sum()


def two_row_envelope(
    objective: EntropyObjective, n_symbols: int
) -> tuple[np.ndarray, int, float] | None:
    """The exact maximizer when at most two rows carry mass and every row's signed columns balance.

    Returns None for any other objective. Write rho_r for row r's share of
    the mass (its projection row's sum), lam_u = sum_r rho_r W[r, u] and
    q_u = rho_0 W[0, u] / lam_u over the two rows 0 and 1 with mass. Every
    marginal column is then lam_u * mu(q_u), mu(q) = q P[0] / rho_0 +
    (1 - q) P[1] / rho_1, and because the signed columns of each row cancel
    (``proj @ sign == 0``), the lam_u log lam_u terms drop out:

        value(W) = const + sum_u lam_u phi(q_u),  phi(q) = -sum_k sign_k mu_k log2 mu_k,

    with sum_u lam_u = 1 and sum_u lam_u q_u = rho_0. The maximum is the upper
    concave envelope of phi at rho_0 (Nair, "Upper concave envelopes and
    auxiliary random variables", 2013), reached with two support points, so
    |U| = 2 outputs suffice. Only the -x log2 x terms with sign +1 can rise
    above a chord; columns that one row carries alone are folded into one net
    -q log2 q (or -(1-q) log2 (1-q)) term first, so parts that cancel exactly
    add nothing to eps.

    Returns (witness, points scored, bound): the witness W[r, u] = lam_u
    q_u(r) / rho_r, with q_u(0) = q_u and q_u(1) = 1 - q_u, and const plus
    the envelope's certified bound at rho_0. Where the support is rho_0
    alone, U independent of A is optimal and the witness is the uniform
    channel. Where fewer than two rows carry mass every channel has the
    same value, so the witness is the uniform channel and its value, one
    point scored, is the bound. Rows without mass are uniform.
    """
    rows = _balanced_rows(objective)
    if rows is None or rows[0].size > 2:
        return None
    live, rho = rows
    proj, sign = objective.proj, objective.sign
    witness = np.full((objective.n_rows, n_symbols), 1.0 / n_symbols)
    if live.size < 2:
        return witness, 1, float(objective(witness[None])[0])
    if not 0.0 < rho[0] < 1.0:
        return None  # one row's share of the mass is below rounding
    a, b = proj[live] / rho[:, None]
    # Terms that can rise above a chord: -mu_k log2 mu_k with sign +1 over
    # the columns both rows carry, then the net -q log2 q of the columns
    # row 0 carries alone and the net -(1-q) log2 (1-q) of row 1's.
    both = (a > 0.0) & (b > 0.0)
    weight = np.concatenate([sign[both], [sign[b == 0.0] @ a[b == 0.0],
                                          sign[a == 0.0] @ b[a == 0.0]]])
    concave = weight > 0.0
    ends_a = np.concatenate([a[both], [1.0, 0.0]])[concave, None]
    ends_b = np.concatenate([b[both], [0.0, 1.0]])[concave, None]
    weight = weight[concave]

    def phi(q: np.ndarray) -> np.ndarray:
        return objective.column_values(a[:, None] * q + b[:, None] * (1.0 - q))

    def cell_gaps(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        m_lo, m_hi = ends_a * lo + ends_b * (1.0 - lo), ends_a * hi + ends_b * (1.0 - hi)
        return weight @ chord_gap(np.minimum(m_lo, m_hi), np.maximum(m_lo, m_hi))

    q, lam, top, points = upper_envelope(phi, cell_gaps, float(rho[0]))
    if q is not None:
        # u0 takes the support richer in row 0, so supports {0, 1} give
        # the copy of the conditioning symbol itself.
        table = np.zeros((2, n_symbols))
        table[:, :2] = (lam * np.stack([q / rho[0], (1.0 - q) / rho[1]]))[:, ::-1]
        witness[live] = table / table.sum(axis=1, keepdims=True)
    return witness, points, objective.const + top


@functools.cache
def _simplex_grid(k: int) -> np.ndarray:
    """Points of the (k-1)-simplex in multiples of 1 / _GRID_LP_RESOLUTION, one per row.

    The k vertices come first, vertex r in row r, so they are the LP's
    starting basis. The array is shared by every call, so it is read-only.
    """
    n = _GRID_LP_RESOLUTION
    counts = np.indices((n + 1,) * (k - 1)).reshape(k - 1, -1).T
    counts = counts[counts.sum(axis=1) <= n]
    points = np.column_stack([counts, n - counts.sum(axis=1)]) / n
    grid = np.vstack([np.eye(k), points[points.max(axis=1) < 1.0]])
    grid.flags.writeable = False
    return grid


def grid_witness(objective: EntropyObjective, n_symbols: int) -> tuple[np.ndarray | None, int]:
    """A channel from the grid LP envelope and the grid points scored.

    Applies when three or four rows carry mass and every row's signed
    columns balance; returns (None, 0) otherwise. As in ``two_row_envelope``,
    value(W) = const + sum_u lam_u phi(q_u), where q_u is the posterior of
    the live rows given u and sum_u lam_u q_u = rho, their shares of the
    mass. Each grid point q_i is scored as a one-column table, const +
    phi(q_i), and phase 2 of the simplex, started from the grid's vertices,
    solves max sum_i lam_i phi(q_i) subject to sum_i lam_i q_i = rho and
    lam >= 0: the upper concave envelope of phi at rho over supports on the
    grid, a lower bound on the maximum that is exact where optimal supports
    lie on the grid. The witness W[r, u] = lam_u q_u(r) / rho_r takes the
    support in grid order; rows without mass are uniform.
    """
    rows = _balanced_rows(objective)
    if rows is None or rows[0].size not in _GRID_LP_ROWS:
        return None, 0
    live, rho = rows
    grid = _simplex_grid(live.size)
    marginals = grid @ (objective.proj[live] / rho[:, None])
    values = objective.value(marginals[:, :, None])
    lam = phase2_simplex(grid.T, rho, values, np.arange(live.size), _GRID_LP_TOL)
    support = np.flatnonzero(lam > _GRID_LP_TOL)
    table = np.zeros((live.size, n_symbols))
    table[:, : support.size] = grid[support].T * lam[support]
    # Points covering a row weigh at most _GRID_LP_RESOLUTION times its share,
    # so a row with a share below rounding can lose its whole support to the
    # drop; it is made uniform.
    table[~table.any(axis=1)] = 1.0
    witness = np.full((objective.n_rows, n_symbols), 1.0 / n_symbols)
    witness[live] = table / table.sum(axis=1, keepdims=True)
    return witness, len(grid)


def envelope_witness(
    objective: EntropyObjective, n_symbols: int
) -> tuple[np.ndarray | None, int, float | None]:
    """The channel found without a search, the points scored for it, and its bound.

    The two-row envelope's witness with its certified bound, else the grid
    witness with None (a lower bound only), else (None, 0, None).
    """
    two_row = two_row_envelope(objective, n_symbols)
    if two_row is not None:
        return two_row
    witness, points = grid_witness(objective, n_symbols)
    return witness, points, None


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
    bound: Callable[[], float],
    starts: Sequence[Channel] = (),
    candidates: Sequence[Channel] = (),
) -> tuple[AscentResult, Channel]:
    """Maximize ``objective`` over channels p(U | cond_vars).

    ``starts`` and ``candidates`` are lifted to ``cond_vars``; the ascent
    starts from ``starts``, while ``candidates`` are only scored. One stage
    scores the ``envelope_witness`` (if any), the candidates, the starts and
    the uniform channel, in that order. Where the two-row envelope applies
    its bound certifies the witness, and ``cfg`` is not used; else
    ``bound()`` is called (so the bound is computed only here), and it
    certifies the best channel scored if that is within ``CERTIFY_TOL`` of
    it. A certified stage is the result, with zero sweeps and
    ``upper_bound`` at least its best value. Else the multi-start ascent
    runs the random starts, then ``starts``, then the uniform channel, as
    if nothing had been scored, and the witness and candidates follow its
    values with zero sweeps (the ascent already climbed from the starts and
    the uniform channel). Returns the result and the best table as a
    ``u_channel``, the first table with the highest value winning ties.
    """
    n_symbols = u_cardinality(cond_vars)

    def tables(channels: Sequence[Channel]) -> list[np.ndarray]:
        padded = (u_channel(cond_vars, channel.lift(cond_vars).rows) for channel in channels)
        return [channel.rows.reshape(-1, n_symbols) for channel in padded]

    injected = tables(starts) + [np.full((objective.n_rows, n_symbols), 1.0 / n_symbols)]
    witness, points, upper = envelope_witness(objective, n_symbols)
    scored = ([] if witness is None else [witness]) + tables(candidates)
    stacked = np.stack(scored + injected)
    values = objective(stacked)
    evaluations = points + len(values)
    certified = upper is not None
    if not certified:
        upper = bound()
    if certified or values.max() >= upper - CERTIFY_TOL:
        ascent = AscentResult(values, stacked, np.zeros(len(values), dtype=int), False,
                              evaluations, max(upper, float(values.max())))
    else:
        ascent = multistart_ascent(objective, n_symbols, cfg, injected)
        n = len(scored)
        ascent = AscentResult(
            np.concatenate([ascent.values, values[:n]]),
            np.concatenate([ascent.tables, stacked[:n]]),
            np.concatenate([ascent.sweeps, np.zeros(n, dtype=int)]),
            ascent.hit_max_iters,
            ascent.evaluations + evaluations,
            upper,
        )
    return ascent, u_channel(cond_vars, ascent.tables[int(np.argmax(ascent.values))])
