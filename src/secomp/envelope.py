"""Upper concave envelope of a function on [0, 1], with a certified error.

``upper_envelope(phi, cell_gaps, rho0)`` maximizes sum_u lam_u phi(q_u) over
distributions lam on points q_u in [0, 1] with mean rho0: the value at rho0
of the upper concave envelope of phi, reached with two support points. The
caller supplies ``cell_gaps(lo, hi)``, a bound on how far phi rises above
its chord on each cell; for an entropy-term objective that is a sum of
``chord_gap`` terms, the exact gap of -x log2 x over an interval. The
result is a pair of support points with their weights and an upper bound on
the envelope that the search certifies, never a value the grid merely
suggests.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

# The starting grid's cells, the certified gap each cell is refined to and
# the cap on points scored, the zoom windows that polish the support points,
# and the caps on hull rounds and bridge steps.
_GRID = 128
_EPS = 1e-10
_MAX_POINTS = 4096
_ROUNDS = 4
_SPLIT = 8
_POLISH_POINTS = 129
_POLISH_ROUNDS = 4
_BRIDGE_STEPS = 64
# Two support points that beat phi at rho0 by at most this are rounding noise.
_TIE_TOL = 1e-13


# The tables below are built on first use and keyed on the constants above,
# so that a caller or test that changes a constant gets tables of its size.
# Repeated points are dropped by sorting and masking equal neighbours, in
# fewer calls than np.unique; nothing here imports numpy.ma, which np.unique
# without return_index does on numpy 2.4 (about 1 MB of a CLI run's RSS).


@functools.cache
def _counts(n: int) -> np.ndarray:
    """0.0, 1.0, ..., n - 1.0, shared read-only: the multipliers of ``_linspace``."""
    counts = np.arange(n, dtype=float)
    counts.flags.writeable = False
    return counts


@functools.cache
def _unit_grid(cells: int) -> np.ndarray:
    """np.linspace(0.0, 1.0, cells + 1), shared read-only."""
    grid = _linspace(0.0, 1.0, cells + 1)
    grid.flags.writeable = False
    return grid


def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n) for n >= 2, with numpy's arithmetic and without its wrapper."""
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0.0:
        y = _counts(n) / (n - 1) * delta  # numpy's path for a step that underflows
    else:
        y = _counts(n) * step
    y += lo
    y[-1] = hi
    return y


def _distinct(q: np.ndarray) -> np.ndarray:
    """Which points of the sorted ``q`` differ from their predecessor."""
    first = np.empty(q.shape, dtype=bool)
    first[0] = True
    np.not_equal(q[1:], q[:-1], out=first[1:])
    return first


def _xlogx(x: np.ndarray) -> np.ndarray:
    return x * np.log2(x, out=np.zeros(x.shape), where=x > 0.0)


def chord_gap(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Max over [lo, hi] of -x log2 x minus its chord, elementwise (lo <= hi).

    Written with x log2 x, whose differences are those of -x log2 x
    swapped, bit for bit; both ends are scored in one call.
    """
    ends = _xlogx(np.concatenate((lo, hi)))
    p_lo, p_hi = ends[: len(lo)], ends[len(lo):]
    width = hi - lo
    slope = np.divide(p_lo - p_hi, width, out=np.zeros(width.shape), where=width > 0.0)
    # -x log2 x has slope s at x = 2^-s / e, clipped to the cell.
    x = np.minimum(np.maximum(np.exp2(-slope) / math.e, lo), hi)
    return np.maximum(p_lo - _xlogx(x) - slope * (x - lo), 0.0)


def _bridge(q: np.ndarray, f: np.ndarray, c: int) -> tuple[int, int]:
    """(i, j), i <= c < j: the segment where the upper hull of (q, f) crosses q[c].

    ``q`` is strictly increasing. For a fixed i the best j maximizes the slope
    from i, and for a fixed j the best i minimizes the slope to j; alternating
    the two never lowers the chord at q[c], and where neither moves, every
    point lies on or below the chord's line, which is then the hull's.
    """
    q_left, f_left, q_right, f_right = q[: c + 1], f[: c + 1], q[c + 1:], f[c + 1:]
    i, j = c, -1
    for _ in range(_BRIDGE_STEPS):
        j_next = c + 1 + int(((f_right - f[i]) / (q_right - q[i])).argmax())
        if j_next == j:
            break  # the step to the left from the same j finds i again
        j = j_next
        i_next = int(((f[j] - f_left) / (q[j] - q_left)).argmin())
        if i_next == i:
            break
        i = i_next
    return i, j


def _polish(
    phi: Callable[[np.ndarray], np.ndarray], rho0: float, qa: float, qb: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Support points (qa, qb) and their phi values, refined by zooming windows.

    Each round scores a window around each support point, clipped to its side
    of rho0, and keeps the hull's bridge over both windows and the old
    points, so the chord at rho0 never falls. Each window's spacing is the
    next window's half-width.
    """
    h = 1.0 / _GRID
    points = 0
    for _ in range(_POLISH_ROUNDS):
        window = np.concatenate((
            _linspace(max(qa - h, 0.0), min(qa + h, rho0), _POLISH_POINTS),
            _linspace(max(qb - h, rho0), min(qb + h, 1.0), _POLISH_POINTS),
            (qa, rho0, qb),
        ))
        window.sort()
        window = window[_distinct(window)]
        f = phi(window)
        points += window.size
        i, j = _bridge(window, f, int(window.searchsorted(rho0)))
        qa, qb = window[i], window[j]
        h *= 2.0 / (_POLISH_POINTS - 1)
    return np.array([qa, qb]), f[[i, j]], points


def upper_envelope(
    phi: Callable[[np.ndarray], np.ndarray], cell_gaps: Callable[..., np.ndarray], rho0: float
) -> tuple[np.ndarray | None, np.ndarray, float, int]:
    """Support points and weights, a certified upper bound and the points scored.

    Maximizes sum_u lam_u phi(q_u) over lam >= 0 with sum lam = 1 and
    sum lam_u q_u = rho0 for q in [0, 1]: the upper concave envelope of phi at
    rho0. ``cell_gaps(lo, hi)`` bounds how far phi rises above its chord on
    each cell [lo, hi]. The hull of a grid gives two support points, which
    ``_polish`` refines. The line through them lies above phi up to eps: on
    each cell, phi minus the line is at most the larger end-point residual
    plus the cell's chord gap. Cells whose bound exceeds ``_EPS`` are
    split, up to ``_MAX_POINTS`` points; a point above the line by
    more than half of that starts another round on every point scored. The
    upper bound is the line at rho0 plus eps. When the two support points
    beat phi(rho0) by no more than ``_TIE_TOL``, which is rounding noise on a
    concave stretch, the support is rho0 alone and None is returned for it,
    so the witness does not follow the noise.
    """
    grid = _unit_grid(_GRID)
    c = int(grid.searchsorted(rho0))
    q = grid if grid[c] == rho0 else np.concatenate((grid[:c], (rho0,), grid[c:]))
    f = phi(q)
    points = q.size
    split_edges = _unit_grid(_SPLIT)
    for _ in range(_ROUNDS):
        i, j = _bridge(q, f, c)
        support, f_support, polished = _polish(phi, rho0, q[i], q[j])
        points += polished
        (qa, qb), (fa, fb) = support, f_support
        slope = (fb - fa) / (qb - qa)
        q, f = _merge([q, support], [f, f_support])
        r = f - (fa + slope * (q - qa))
        eps = 0.0
        scored_q, scored_f, r_max = [q], [f], r.max()
        edges, r_edges = q, r
        while True:
            # The cells between neighbours along the last axis of the edges,
            # as rows (lo, hi, residual at lo, residual at hi), in no order.
            cells = np.concatenate((edges[..., :-1], edges[..., 1:],
                                    r_edges[..., :-1], r_edges[..., 1:])).reshape(4, -1)
            lo, hi, r_lo, r_hi = cells
            r_cell, width = np.maximum(r_lo, r_hi), hi - lo
            bound = r_cell + cell_gaps(lo, hi)
            split = (bound > _EPS) & (r_cell <= _EPS / 2.0) & (width > 4.0 * np.spacing(hi))
            n_split = np.count_nonzero(split)
            if not n_split or points + n_split * (_SPLIT - 1) > _MAX_POINTS:
                eps = max(eps, float(bound.max(initial=0.0)))
                break
            eps = max(eps, float(bound.max(initial=0.0, where=~split)))
            lo, hi, r_lo, r_hi = cells[:, split]
            edges = lo[:, None] + (hi - lo)[:, None] * split_edges
            edges[:, -1] = hi
            q_inner = edges[:, 1:-1].ravel()
            f_inner = phi(q_inner)
            r_inner = f_inner - (fa + slope * (q_inner - qa))
            points += q_inner.size
            scored_q.append(q_inner)
            scored_f.append(f_inner)
            r_max = max(r_max, r_inner.max())
            r_edges = np.concatenate(
                (r_lo[:, None], r_inner.reshape(n_split, -1), r_hi[:, None]), axis=1)
        if r_max <= _EPS / 2.0:
            break
        q, f = _merge(scored_q, scored_f)
        c = int(q.searchsorted(rho0))
    top = fa + slope * (rho0 - qa)
    lam_b = (rho0 - qa) / (qb - qa)
    if top - f[q.searchsorted(rho0)] <= _TIE_TOL:
        support = None
    return support, np.array([1.0 - lam_b, lam_b]), top + eps, points


def _merge(qs: list[np.ndarray], fs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Points and values of several scorings, sorted by point; a repeat keeps its first value."""
    q = np.concatenate(qs)
    order = q.argsort(kind="stable")
    q = q[order]
    first = _distinct(q)
    return q[first], np.concatenate(fs)[order[first]]
