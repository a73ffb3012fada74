"""Auxiliary-channel search (``maximize_channel``): an exact envelope or column generation.

Every objective the package maximizes over an auxiliary channel W (rows are
the conditioning cells, columns the output symbols) is a signed sum of
entropies of marginals of ``mass x W``. Each such marginal
is linear in W: its cell (k, u) is ``sum_r P[r, k] * W[r, u]``, where P[r, k]
adds up the mass of every joint cell that sits in conditioning row r and in
marginal cell k. Stacking the marginals of all terms gives one projection
matrix P (rows x K) with a sign per column, and

    value(W) = -sum_{k,u} sign_k * m_ku * log2(m_ku),  m = P^T W.

Every objective the package builds is balanced: each row's signed columns
cancel (``P @ sign == 0``). Write rho_r for row r's share of the mass,
lam_u = sum_r rho_r W[r, u] and q_u for the posterior of the rows with mass
given u, q_u(r) = rho_r W[r, u] / lam_u. Marginal column u is then lam_u
times that of q_u, the lam_u log lam_u terms cancel, and

    value(W) = sum_u lam_u c(q_u),  c(q) = value of the one-column table q,

with sum_u lam_u = 1 and sum_u lam_u q_u = rho. So the maximum over channels
is a linear program over posteriors, max sum_i lam_i c(q_i) subject to
sum_i lam_i q_i = rho and lam >= 0: the upper concave envelope of c at rho
(Nair, "Upper concave envelopes and auxiliary random variables", 2013). A
basic solution has at most (rows with mass) columns in its support, so it
fits in |U| outputs. The witness of a solution is W[r, u] = lam_u q_u(r) /
rho_r.

``maximize_channel`` searches only where it must. It finds the rows with
mass and their shares once, and one stage scores the channel that
``_search_free_witness`` finds without a search, the caller's candidates
and the uniform channel. With at most two rows with mass c is a function of
a one-dimensional posterior, and ``two_row_envelope`` finds its envelope
exactly, with a certified upper bound and no randomness. That covers p(u|a)
objectives on a binary source: the S_B-open secrecy objective, each coded
corner and both less-noisy violations. With three or four rows the master
LP over a fixed grid of posteriors gives the witness, and only the caller's
analytic upper bound can certify it. When the two-row envelope applies, or
the best channel scored is within ``CERTIFY_TOL`` of that bound, the best
is the maximum and no search runs.

Otherwise column generation solves the LP by Dantzig-Wolfe column
generation: the master LP over a set of columns, solved by
``lp.phase2_simplex``, gives duals y, and pricing looks for posteriors whose
reduced cost c(q) - y.q is positive. At every row count the first columns
are the vertices, then the posteriors of every table the first stage scored;
the uniform channel is one of those, and its posteriors are rho. Pricing is
a batched exponentiated-gradient ascent of the reduced cost; its gradient is
-sum_k sign_k P[r, k] log2 mu_k / rho_r, the log2(e) parts cancelling by
balance. It starts from the vertices and the master's support, pulled toward
rho (a multiplicative step cannot move a zero coordinate), and in the first
round also from ``starts`` Dirichlet(1) points drawn from default_rng(seed);
the support holds the points of earlier rounds that the master uses. A round
adds every end point that prices above ``PRICE_TOL``; the search stops after
a round that adds none, or after ``MAX_ROUNDS`` rounds. The optimum usually
has fewer support points than there are rows, which leaves the master at rho
degenerate; it is solved at shares perturbed by a relative 1e-8, and the
weights of its support are solved again for rho. The witness is scored after
the first stage's channels, so the result is never below them. It is
achievable, a lower bound on the maximum: pricing finds local maxima of the
reduced cost only. Everything is deterministic for a fixed seed.

``maximize_channel`` returns an ``OptResult``, the one result type of every
auxiliary-channel solve, holding the objective's values as found: a
maximum may be negative. Reading it as an equivocation, floored at 0, is
``secomp.regions``' business.
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

# A row's signed columns balance when |proj @ sign| is below this times its mass.
_BALANCE_TOL = 1e-12

# The grid LP covers three or four rows with mass. Its grid holds the points
# of their posterior simplex with coordinates in multiples of 1 / 16 (969
# points for four rows); an even count keeps the midpoints, where the
# erasure family's optimal supports sit. Phase 2 stops once no reduced cost
# is below minus _LP_TOL, and weights up to it, the rounding residue of a
# degenerate basis, are dropped from the support.
_GRID_LP_ROWS = range(3, 5)
_GRID_LP_RESOLUTION = 16
_LP_TOL = 1e-13

# A channel within this of the analytic upper bound ends the search.
CERTIFY_TOL = 1e-12

# Column generation runs at most MAX_ROUNDS pricing rounds and adds the end
# points pricing above PRICE_TOL. Each pricing start takes _PRICING_STEPS
# exponentiated-gradient steps from a step size of 1, which doubles after a
# gain and halves after a loss; starts are pulled _PULL of the way toward
# rho. The master's target shares are perturbed by up to _PERTURB of
# themselves.
MAX_ROUNDS = 100
PRICE_TOL = 1e-10
_PRICING_STEPS = 30
_PULL = 1e-6
_PERTURB = 1e-8

# Trace entries within TOL of the best value count as agreeing.
TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Random pricing starts of column generation: ``starts`` Dirichlet points drawn from ``seed``.

    A certified first stage uses neither; the round cap and the price
    tolerance are the module constants ``MAX_ROUNDS`` and ``PRICE_TOL``.
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
    """-sum_k sign_k sum_u m_ku log2 m_ku over the marginals m = P^T W.

    ``proj`` is P (rows x K), ``sign`` holds +1 or -1 per column. Arrays of
    marginals have shape (..., K, |U|); tables W have shape (tables, rows, |U|).
    """

    proj: np.ndarray
    sign: np.ndarray

    @classmethod
    def from_terms(
        cls,
        mass: np.ndarray,
        cond_axes: tuple[int, ...],
        terms: Sequence[tuple[tuple[int, ...], float]],
    ) -> "EntropyObjective":
        """Objective sum_i sign_i * H(marginal_i of mass x W).

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
        return cls(proj[:, used], np.concatenate(signs)[used])

    @property
    def n_rows(self) -> int:
        return self.proj.shape[0]

    def _signed_plogp(self, m: np.ndarray) -> np.ndarray:
        """sum_k sign_k m_ku log2 m_ku for each output column u."""
        log_m = np.log2(m, out=np.zeros(m.shape), where=m > 0.0)
        return self.sign @ (m * log_m)

    def column_values(self, m: np.ndarray) -> np.ndarray:
        """-sum_k sign_k m_ku log2 m_ku for each output column u."""
        return -self._signed_plogp(m)

    def value(self, m: np.ndarray) -> np.ndarray:
        # Negation is exact, so this equals column_values(m).sum(-1), except
        # that a zero sum gives 0.0, never -0.0.
        return 0.0 - np.add.reduce(self._signed_plogp(m), axis=-1)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return self.value(self.proj.T @ w)


@dataclass(frozen=True, eq=False)
class OptResult:
    """Outcome of one auxiliary-channel maximization, in the objective's own values.

    ``delta_star`` is the best objective value found, unclamped: it is
    negative where every channel scores below 0. ``objective_trace`` holds
    the value of each channel scored, in the order given below;
    ``starts_agreeing`` counts entries within ``ascent.TOL`` of the best.
    ``rounds`` counts the pricing rounds of column generation, 0 where none
    ran; ``hit_max_rounds`` is true when the last of ``ascent.MAX_ROUNDS``
    rounds still added a column. ``evaluations`` counts the points the
    objective was scored at, envelope, grid and pricing points included.
    ``upper_bound`` is an upper bound on the true maximum: the envelope's
    value plus its eps where the two-row envelope solved the problem, else
    I(A;X|Y) for channels p(u|a) and H(A|Y) for channels that also see B;
    never below the best value. It is certified up to rounding only: where
    the maximum is exactly 0 (the copy of A on an erasure joint, say) the
    envelope's value can come out up to ~1e-16 below it, and ROADMAP item 3
    adds the margin. ``certified`` is true when no search
    ran (``rounds == 0``): the two-row envelope, a value known in closed
    form, or a channel scored first that reached the analytic bound to
    ``ascent.CERTIFY_TOL``. The trace of a solve that
    scores channels is the envelope's or the grid's witness, the candidates
    and the uniform channel, followed by the witness of column generation
    where it ran. For ``both`` the candidates are the copy of E and
    ``sb``'s ``best_u``, and ``evaluations`` includes the points ``sb``'s
    solve scored, its search too where ``sb`` needed one; the trace, the
    rounds and ``certified`` describe ``both``'s own stage and search only.
    """

    delta_star: float
    best_u: Channel
    objective_trace: tuple[float, ...]
    rounds: int
    hit_max_rounds: bool
    evaluations: int
    upper_bound: float

    @property
    def starts_agreeing(self) -> int:
        best = max(self.objective_trace)
        return sum(value >= best - TOL for value in self.objective_trace)

    @property
    def certified(self) -> bool:
        return self.rounds == 0


def _balanced_rows(objective: EntropyObjective) -> tuple[np.ndarray, np.ndarray]:
    """The rows with mass and their shares of it.

    Raises ValueError unless each row's signed columns balance: only then is
    the maximum an LP over posteriors.
    """
    proj = objective.proj
    live = np.flatnonzero(proj.any(axis=1))
    mass = proj[live].sum(axis=1)
    if np.any(np.abs(proj[live] @ objective.sign) > _BALANCE_TOL * mass):
        raise ValueError("the channel search needs an objective whose rows' signed columns balance")
    return live, mass / mass.sum()


def two_row_envelope(
    objective: EntropyObjective, live: np.ndarray, rho: np.ndarray, n_symbols: int
) -> tuple[np.ndarray, int, float] | None:
    """The exact maximizer of a balanced objective with mass on the rows ``live`` only, at most two.

    ``rho`` holds their shares of the mass, rho_r for row r (``_balanced_rows``).
    Returns None where one share is below rounding. Write lam_u = sum_r
    rho_r W[r, u] and q_u = rho_0 W[0, u] / lam_u over the two rows 0 and 1
    with mass. Every marginal column is then lam_u * mu(q_u), mu(q) = q P[0] / rho_0 +
    (1 - q) P[1] / rho_1, and because the signed columns of each row cancel
    (``proj @ sign == 0``), the lam_u log lam_u terms drop out:

        value(W) = sum_u lam_u phi(q_u),  phi(q) = -sum_k sign_k mu_k log2 mu_k,

    with sum_u lam_u = 1 and sum_u lam_u q_u = rho_0. The maximum is the upper
    concave envelope of phi at rho_0 (Nair, "Upper concave envelopes and
    auxiliary random variables", 2013), reached with two support points, so
    |U| = 2 outputs suffice. Only the -x log2 x terms with sign +1 can rise
    above a chord; columns that one row carries alone are folded into one net
    -q log2 q (or -(1-q) log2 (1-q)) term first, so parts that cancel exactly
    add nothing to eps.

    Returns (witness, points scored, bound): the witness W[r, u] = lam_u
    q_u(r) / rho_r, with q_u(0) = q_u and q_u(1) = 1 - q_u, and the
    envelope's certified bound at rho_0. Where the support is rho_0
    alone, U independent of A is optimal and the witness is the uniform
    channel. Where fewer than two rows carry mass every channel has the
    same value, so the witness is the uniform channel and its value, one
    point scored, is the bound. Rows without mass are uniform.
    """
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
        witness = _witness(objective.n_rows, n_symbols, live,
                           np.stack([q, 1.0 - q], axis=1)[::-1], lam[::-1])
    return witness, points, 0.0 + top  # no -0.0 bound


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


def _posterior_values(objective: EntropyObjective, scaled: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The value c(q) of each posterior q, a row of ``q``, whose marginals are q @ ``scaled``."""
    return objective.value((q @ scaled)[:, :, None])


def _witness(n_rows: int, n_symbols: int, live: np.ndarray, columns: np.ndarray,
             lam: np.ndarray) -> np.ndarray:
    """The channel W[r, u] = lam_u q_u(r) / rho_r of the support of ``lam``, in column order.

    The rows are normalized by their sums, which are rho up to rounding. A
    row with a share below rounding can lose its whole support when weights
    up to _LP_TOL are dropped; it is made uniform, as are the rows without
    mass.
    """
    support = np.flatnonzero(lam > _LP_TOL)
    table = np.zeros((live.size, n_symbols))
    table[:, : support.size] = columns[support].T * lam[support]
    table[~table.any(axis=1)] = 1.0
    witness = np.full((n_rows, n_symbols), 1.0 / n_symbols)
    witness[live] = table / table.sum(axis=1, keepdims=True)
    return witness


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


def _softmax(logits: np.ndarray) -> np.ndarray:
    q = np.exp(logits - logits.max(axis=1, keepdims=True))
    return q / q.sum(axis=1, keepdims=True)


def _price(objective: EntropyObjective, scaled: np.ndarray, y: np.ndarray,
           logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponentiated-gradient ascent of the reduced cost c(q) - y.q from q = softmax(logits).

    ``scaled`` is P over the live rows divided by their shares. Each start
    takes _PRICING_STEPS steps of its own size; returns the end logits and
    their reduced costs.
    """
    def reduced_cost(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = _softmax(logits)
        m = q @ scaled
        log_m = np.log2(m, out=np.zeros(m.shape), where=m > 0.0)
        cost = -((m * log_m) @ objective.sign) - q @ y
        return cost, -(log_m * objective.sign) @ scaled.T - y

    cost, grad = reduced_cost(logits)
    step = np.ones(len(logits))
    for _ in range(_PRICING_STEPS):
        trial = logits + step[:, None] * grad
        trial_cost, trial_grad = reduced_cost(trial)
        gain = trial_cost > cost
        logits = np.where(gain[:, None], trial, logits)
        grad = np.where(gain[:, None], trial_grad, grad)
        cost = np.where(gain, trial_cost, cost)
        step = np.where(gain, 2.0 * step, 0.5 * step)
    return logits, cost


def _column_generation(objective: EntropyObjective, live: np.ndarray, rho: np.ndarray,
                       n_symbols: int, cfg: OptimizerConfig, tables: np.ndarray,
                       ) -> tuple[np.ndarray, int, bool, int]:
    """The witness of column generation, its rounds, whether they hit the cap, the points scored.

    A posterior q of the rows ``live`` has marginals q @ scaled, where
    ``scaled`` is P over those rows divided by their shares ``rho``. The
    first columns are the vertices, the master's starting basis, then the
    posteriors of ``tables`` (tables x rows x |U|), the channels scored so
    far; the uniform channel is one of them, and its posteriors are rho.
    """
    k = live.size
    scaled = objective.proj[live] / rho[:, None]
    joint = rho[:, None] * tables[:, live, :]
    lam = joint.sum(axis=1)
    posteriors = np.moveaxis(joint, 1, 2)[lam > 0.0] / lam[lam > 0.0][:, None]
    columns = np.vstack([np.eye(k), posteriors])
    values = _posterior_values(objective, scaled, columns)
    evaluations = len(columns)
    rng = np.random.default_rng(cfg.seed)
    logits = np.log(rng.dirichlet(np.ones(k), size=cfg.starts) * (1.0 - _PULL) + _PULL * rho)
    # At rho itself the master is degenerate wherever the optimum has fewer
    # support points than rows, and the simplex can stall among the bases
    # of one vertex; each share is raised by a random fraction of _PERTURB.
    target = rho * (1.0 + _PERTURB * rng.random(k))
    hit_max_rounds = False
    for rounds in range(1, MAX_ROUNDS + 1):
        lam, y = phase2_simplex(columns.T, target, values, _LP_TOL)
        kept = lam > _LP_TOL
        kept[:k] = True
        starts = np.log(columns[kept] * (1.0 - _PULL) + _PULL * rho)
        logits, cost = _price(objective, scaled, y, np.vstack([starts, logits]))
        evaluations += (_PRICING_STEPS + 1) * len(cost)
        positive = cost > PRICE_TOL
        if not positive.any():
            break
        new = _softmax(logits[positive])
        columns = np.vstack([columns, new])
        values = np.concatenate([values, _posterior_values(objective, scaled, new)])
        evaluations += len(new)
        logits = logits[:0]  # later rounds start from the vertices and the support only
    else:
        lam, _ = phase2_simplex(columns.T, target, values, _LP_TOL)
        hit_max_rounds = True
    # The weights on the support, solved again for rho itself.
    support = np.flatnonzero(lam > _LP_TOL)
    lam = np.zeros(len(columns))
    lam[support] = np.maximum(np.linalg.lstsq(columns[support].T, rho, rcond=None)[0], 0.0)
    witness = _witness(objective.n_rows, n_symbols, live, columns, lam)
    return witness, rounds, hit_max_rounds, evaluations


def _search_free_witness(
    objective: EntropyObjective, live: np.ndarray, rho: np.ndarray, n_symbols: int
) -> tuple[np.ndarray | None, int, float | None]:
    """The channel found without a search, the points scored and its certified bound.

    ``live`` and ``rho`` are the rows with mass and their shares
    (``_balanced_rows``). With at most two rows the witness is
    ``two_row_envelope``'s and its bound certifies it. With three or four
    it is the witness of the master LP over the grid at rho, a lower bound
    on the maximum, exact where optimal supports lie on the grid; it has no
    bound. Elsewhere, and where the envelope returns None, there is no
    witness.
    """
    if live.size <= 2:
        envelope = two_row_envelope(objective, live, rho, n_symbols)
        if envelope is not None:
            return envelope
    elif live.size in _GRID_LP_ROWS:
        columns = _simplex_grid(live.size)
        values = _posterior_values(objective, objective.proj[live] / rho[:, None], columns)
        lam, _ = phase2_simplex(columns.T, rho, values, _LP_TOL)
        witness = _witness(objective.n_rows, n_symbols, live, columns, lam)
        return witness, len(columns), None
    return None, 0, None


def maximize_channel(
    objective: EntropyObjective,
    cond_vars: tuple[VarSpec, ...],
    cfg: OptimizerConfig,
    bound: Callable[[], float],
    candidates: Sequence[Channel] = (),
) -> OptResult:
    """Maximize ``objective`` over channels p(U | cond_vars).

    Raises ValueError unless every row's signed columns balance. One stage
    scores the ``_search_free_witness`` channel, the ``candidates`` lifted
    to ``cond_vars`` and the uniform channel, in that order. Without the
    envelope's bound ``bound()`` is called (so the bound is computed only
    here), and it certifies the best channel scored if that is within
    ``CERTIFY_TOL`` of it. A certified stage is the result, with zero
    rounds, and ``cfg`` is not used. Else column generation runs from the
    posteriors of the stage's tables, and its witness is scored last.
    ``best_u`` is the best table as a ``u_channel``, the first table with
    the highest value winning ties.
    """
    n_symbols = u_cardinality(cond_vars)
    live, rho = _balanced_rows(objective)
    witness, points, upper = _search_free_witness(objective, live, rho, n_symbols)
    lifted = (u_channel(cond_vars, channel.lift(cond_vars).rows) for channel in candidates)
    tables = ([] if witness is None else [witness]) + [
        channel.rows.reshape(-1, n_symbols) for channel in lifted
    ]
    stacked = np.stack(tables + [np.full((objective.n_rows, n_symbols), 1.0 / n_symbols)])
    values = objective(stacked)
    evaluations = points + len(values)
    rounds, hit_max_rounds = 0, False
    if upper is None:
        upper = bound()
        if values.max() < upper - CERTIFY_TOL:
            table, rounds, hit_max_rounds, priced = _column_generation(
                objective, live, rho, n_symbols, cfg, stacked)
            stacked = np.concatenate([stacked, table[None]])
            values = np.concatenate([values, objective(table[None])])
            evaluations += priced + 1
    best = int(np.argmax(values))
    return OptResult(
        delta_star=float(values[best]),
        best_u=u_channel(cond_vars, stacked[best]),
        objective_trace=tuple(values.tolist()),
        rounds=rounds,
        hit_max_rounds=hit_max_rounds,
        evaluations=evaluations,
        upper_bound=max(upper, float(values[best])),
    )
