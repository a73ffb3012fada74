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
# Each np.unique here asks for first indices: without them numpy 2.4 takes a
# hash-table path that imports numpy.ma, about 1 MB of a CLI run's peak RSS.


def _neg_xlogx(x: np.ndarray) -> np.ndarray:
    return -x * np.log2(x, out=np.zeros(x.shape), where=x > 0.0)


def chord_gap(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Max over [lo, hi] of -x log2 x minus its chord, elementwise (lo <= hi)."""
    width = hi - lo
    f_lo = _neg_xlogx(lo)
    slope = np.divide(_neg_xlogx(hi) - f_lo, width, out=np.zeros(width.shape), where=width > 0.0)
    # -x log2 x has slope s at x = 2^-s / e.
    x = np.clip(np.exp2(-slope) / math.e, lo, hi)
    return np.maximum(_neg_xlogx(x) - f_lo - slope * (x - lo), 0.0)


def _bridge(q: np.ndarray, f: np.ndarray, c: int) -> tuple[int, int]:
    """(i, j), i <= c < j: the segment where the upper hull of (q, f) crosses q[c].

    ``q`` is strictly increasing. For a fixed i the best j maximizes the slope
    from i, and for a fixed j the best i minimizes the slope to j; alternating
    the two never lowers the chord at q[c], and where neither moves, every
    point lies on or below the chord's line, which is then the hull's.
    """
    i = c
    for _ in range(_BRIDGE_STEPS):
        j = c + 1 + int(np.argmax((f[c + 1:] - f[i]) / (q[c + 1:] - q[i])))
        i_next = int(np.argmin((f[j] - f[: c + 1]) / (q[j] - q[: c + 1])))
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
        window = np.concatenate([
            np.linspace(max(qa - h, 0.0), min(qa + h, rho0), _POLISH_POINTS),
            np.linspace(max(qb - h, rho0), min(qb + h, 1.0), _POLISH_POINTS),
            [qa, rho0, qb],
        ])
        window = np.unique(window, return_index=True)[0]
        f = phi(window)
        points += window.size
        i, j = _bridge(window, f, int(np.searchsorted(window, rho0)))
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
    q = np.unique(np.append(np.linspace(0.0, 1.0, _GRID + 1), rho0), return_index=True)[0]
    f = phi(q)
    points = q.size
    for _ in range(_ROUNDS):
        i, j = _bridge(q, f, int(np.searchsorted(q, rho0)))
        support, f_support, polished = _polish(phi, rho0, q[i], q[j])
        points += polished
        (qa, qb), (fa, fb) = support, f_support
        slope = (fb - fa) / (qb - qa)
        q, f = _merge([q, support], [f, f_support])
        r = f - (fa + slope * (q - qa))
        # Cells as (lo, hi, residual at lo, residual at hi), in no order.
        lo, hi, r_lo, r_hi = q[:-1], q[1:], r[:-1], r[1:]
        eps = 0.0
        scored_q, scored_f, r_max = [q], [f], r.max()
        while True:
            bound = np.maximum(r_lo, r_hi) + cell_gaps(lo, hi)
            split = (bound > _EPS) & (np.maximum(r_lo, r_hi) <= _EPS / 2.0)
            split &= hi - lo > 4.0 * np.spacing(hi)
            if points + np.count_nonzero(split) * (_SPLIT - 1) > _MAX_POINTS:
                split[:] = False
            eps = max(eps, float(bound[~split].max(initial=0.0)))
            if not split.any():
                break
            edges = lo[split, None] + (hi - lo)[split, None] * np.linspace(0.0, 1.0, _SPLIT + 1)
            edges[:, -1] = hi[split]
            inner = edges[:, 1:-1]
            f_inner = phi(inner.ravel()).reshape(inner.shape)
            r_inner = f_inner - (fa + slope * (inner - qa))
            points += inner.size
            scored_q.append(inner.ravel())
            scored_f.append(f_inner.ravel())
            r_max = max(r_max, r_inner.max())
            r_edges = np.hstack([r_lo[split, None], r_inner, r_hi[split, None]])
            lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
            r_lo, r_hi = r_edges[:, :-1].ravel(), r_edges[:, 1:].ravel()
        if r_max <= _EPS / 2.0:
            break
        q, f = _merge(scored_q, scored_f)
    top = fa + slope * (rho0 - qa)
    lam_b = (rho0 - qa) / (qb - qa)
    if top - f[np.searchsorted(q, rho0)] <= _TIE_TOL:
        support = None
    return support, np.array([1.0 - lam_b, lam_b]), top + eps, points


def _merge(qs: list[np.ndarray], fs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Points and values of several scorings, sorted by point; a repeat keeps its first value."""
    q, first = np.unique(np.concatenate(qs), return_index=True)
    return q, np.concatenate(fs)[first]
