"""Reference values for checking secomp's outputs, computed apart from it.

Nothing here imports secomp. Distributions are plain numpy arrays with one
axis per variable; axes are named by position. Information measures are
brute-force sums over the cells, the |A| = 2 equivocation optimum is a
concave envelope on an adaptively refined grid with a rigorous grid-error
term, degradation feasibility comes from ``scipy.optimize.linprog``, and the
binning equivocation is an exact enumeration over source and eavesdropper
sequences.
"""

from __future__ import annotations

import math

import numpy as np

# The envelope grid is bisected until every cell's chord-gap bound is below
# ENVELOPE_TOL, or until it has ENVELOPE_MAX_POINTS points.
ENVELOPE_TOL = 1e-10
ENVELOPE_MAX_POINTS = 400_000


def _marginal(p: np.ndarray, keep: tuple[int, ...]) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for idx in np.ndindex(*p.shape):
        mass = float(p[idx])
        if mass > 0.0:
            key = tuple(idx[i] for i in keep)
            out[key] = out.get(key, 0.0) + mass
    return out


def entropy(p: np.ndarray, target, given=()) -> float:
    """H(target | given) in bits; ``target`` and ``given`` are axis tuples."""
    target, given = tuple(target), tuple(given)
    joint = _marginal(p, target + given)
    cond = _marginal(p, given)
    k = len(target)
    return sum(v * math.log2(cond[key[k:]] / v) for key, v in joint.items())


def mutual_information(p: np.ndarray, x, y, given=()) -> float:
    """I(x; y | given) in bits."""
    return entropy(p, x, given) - entropy(p, x, tuple(y) + tuple(given))


def attach(p: np.ndarray, rows: np.ndarray, cond: tuple[int, ...]) -> np.ndarray:
    """p(..., u) = p(...) * rows[cond cells, u], the new axis last.

    ``rows`` has one axis per entry of ``cond`` (in that order) plus the
    output axis.
    """
    out = np.zeros(p.shape + (rows.shape[-1],))
    for idx in np.ndindex(*p.shape):
        out[idx] = p[idx] * rows[tuple(idx[i] for i in cond)]
    return out


def secrecy_value(p_abe: np.ndarray, rows: np.ndarray, cond: tuple[int, ...]) -> float:
    """I(A;B|U) - I(A;E|U) for U drawn from ``rows`` given the ``cond`` axes."""
    q = attach(p_abe, rows, cond)
    return mutual_information(q, (0,), (1,), (3,)) - mutual_information(q, (0,), (2,), (3,))


# ---------------------------------------------------------------------------
# |A| = 2: the no-side-information optimum as a concave envelope
# ---------------------------------------------------------------------------


def _neg_xlogx(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, -x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _chord_gap(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max over [lo, hi] of -x log2 x minus its chord, elementwise."""
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    width = hi - lo
    f_lo, f_hi = _neg_xlogx(lo), _neg_xlogx(hi)
    safe = width > 0.0
    slope = np.where(safe, (f_hi - f_lo) / np.where(safe, width, 1.0), 0.0)
    # d/dx (-x log2 x) = slope at x = 2^(-slope) / e.
    x_star = np.clip(np.exp2(-slope) / math.e, lo, hi)
    gap = _neg_xlogx(x_star) - (f_lo + slope * (x_star - lo))
    return np.where(safe, np.maximum(gap, 0.0), 0.0)


def _upper_hull_at(q: np.ndarray, f: np.ndarray, at: float) -> float:
    hull: list[int] = []
    for i in range(q.size):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (q[i1] - q[i0]) * (f[i] - f[i0]) - (f[i1] - f[i0]) * (q[i] - q[i0])
            if cross >= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    hq, hf = q[hull], f[hull]
    return float(np.interp(at, hq, hf))


def binary_envelope(p_abe: np.ndarray) -> tuple[float, float]:
    """Max over p(u|a) of I(A;B|U) - I(A;E|U) for |A| = 2, with its grid error.

    With U - A - (B, E) the optimum is the upper concave envelope of
    f(q) = I_q(A;B) - I_q(A;E) at the true prior, q being P(A = a0) with the
    channels p(b|a), p(e|a) held fixed. Returns (g, eps) with
    g <= optimum <= g + eps: g is the envelope of f on the grid points, and
    eps bounds how far f rises above its chord on any grid cell. Only the
    concave part H(B) of f can rise above a chord, term by term in -x log2 x
    along the linear maps q -> P_q(b), which ``_chord_gap`` bounds exactly.
    """
    if p_abe.shape[0] != 2:
        raise ValueError("the envelope oracle needs |A| = 2")
    pa = p_abe.sum(axis=(1, 2))
    if (pa <= 0.0).any():
        return 0.0, 0.0
    cb = p_abe.sum(axis=2) / pa[:, None]
    ce = p_abe.sum(axis=1) / pa[:, None]

    def f(q: np.ndarray) -> np.ndarray:
        def mi(c: np.ndarray) -> np.ndarray:
            out = _neg_xlogx(q[:, None] * c[0] + (1.0 - q[:, None]) * c[1]).sum(axis=1)
            cond = q * _neg_xlogx(c[0]).sum() + (1.0 - q) * _neg_xlogx(c[1]).sum()
            return out - cond

        return mi(cb) - mi(ce)

    def cell_gaps(q: np.ndarray) -> np.ndarray:
        lo = q[:-1, None] * cb[0] + (1.0 - q[:-1, None]) * cb[1]
        hi = q[1:, None] * cb[0] + (1.0 - q[1:, None]) * cb[1]
        return _chord_gap(lo, hi).sum(axis=1)

    q = np.union1d(np.linspace(0.0, 1.0, 1025), [pa[0]])
    gaps = cell_gaps(q)
    while gaps.max() > ENVELOPE_TOL and q.size < ENVELOPE_MAX_POINTS:
        # Bisect every cell whose bound is too loose; only new cells need bounds.
        coarse = np.flatnonzero(gaps > ENVELOPE_TOL)
        mids = 0.5 * (q[coarse] + q[coarse + 1])
        left = cell_gaps(np.stack([q[coarse], mids], axis=1).reshape(-1))[::2]
        right = cell_gaps(np.stack([mids, q[coarse + 1]], axis=1).reshape(-1))[::2]
        q = np.insert(q, coarse + 1, mids)
        gaps = np.insert(gaps, coarse + 1, right)
        gaps[coarse + np.arange(coarse.size)] = left
    return _upper_hull_at(q, f(q), pa[0]), float(gaps.max())


# ---------------------------------------------------------------------------
# orderings
# ---------------------------------------------------------------------------


def _conditionals(p_abe: np.ndarray, axis: int) -> np.ndarray:
    """p(x | a) for the given axis, zero-mass source symbols dropped."""
    drop = tuple(i for i in (1, 2) if i != axis)
    pax = p_abe.sum(axis=drop)
    pa = pax.sum(axis=1)
    keep = pa > 0.0
    return pax[keep] / pa[keep, None]


def degradation_distance(p_abe: np.ndarray, strong: int, weak: int) -> tuple[float, float]:
    """How far p(weak|a) is from p(strong|a) composed with any channel.

    Solves min t over channels q(weak|strong) subject to
    |sum_s p(s|a) q(w|s) - p(w|a)| <= t by ``scipy.optimize.linprog`` and
    re-evaluates the residual of the returned channel in plain numpy.
    Returns (LP optimum t, re-evaluated residual of the solution's channel).
    """
    from scipy.optimize import linprog

    ps = _conditionals(p_abe, strong)
    pw = _conditionals(p_abe, weak)
    n_a, n_s = ps.shape
    n_w = pw.shape[1]
    n_q = n_s * n_w
    c = np.zeros(n_q + 1)
    c[-1] = 1.0
    a_ub, b_ub = [], []
    for a in range(n_a):
        for w in range(n_w):
            row = np.zeros(n_q + 1)
            row[w:n_q:n_w] = ps[a]
            for sign in (1.0, -1.0):
                r = sign * row
                r[-1] = -1.0
                a_ub.append(r)
                b_ub.append(sign * pw[a, w])
    a_eq = np.zeros((n_s, n_q + 1))
    for s in range(n_s):
        a_eq[s, s * n_w : (s + 1) * n_w] = 1.0
    res = linprog(
        c,
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        A_eq=a_eq,
        b_eq=np.ones(n_s),
        bounds=[(0.0, None)] * (n_q + 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise ArithmeticError(f"linprog failed: {res.message}")
    q = np.maximum(res.x[:n_q].reshape(n_s, n_w), 0.0)
    q /= q.sum(axis=1, keepdims=True)
    return float(res.x[-1]), float(np.abs(ps @ q - pw).max())


def composition_residual(p_abe: np.ndarray, strong: int, weak: int, rows: np.ndarray) -> float:
    """max |p(strong|a) @ rows - p(weak|a)| for a given channel table."""
    return float(np.abs(_conditionals(p_abe, strong) @ rows - _conditionals(p_abe, weak)).max())


def markov_gap(p_abe: np.ndarray, mid: int, last: int) -> float:
    """I(A; last | mid), zero exactly when A - mid - last is a Markov chain."""
    return mutual_information(p_abe, (0,), (last,), (mid,))


def less_noisy_gap(p_abe: np.ndarray, rows: np.ndarray, stronger: int, weaker: int) -> float:
    """I(U; weaker) - I(U; stronger) for U drawn from ``rows`` given A."""
    q = attach(p_abe, rows, (0,))
    return mutual_information(q, (3,), (weaker,)) - mutual_information(q, (3,), (stronger,))


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------


def binning_equivocation(p_ae: np.ndarray, n: int, bin_of: np.ndarray, n_bins: int) -> float:
    """Exact E[H(A^n | bin, E^n)] / n for i.i.d. (A, E) pairs and a bin table.

    H(A^n | M, E^n) = n H(A, E) - H(M, E^n) since M is a function of A^n.
    Sequence index order puts position 0 most significant, as in the table.
    P(m, e^n) is accumulated over source sequences in blocks to keep the
    working set small.
    """
    n_a, n_e = p_ae.shape
    h_ae = float(_neg_xlogx(p_ae).sum())
    p_me = np.zeros((n_bins, n_e**n))
    block = 64
    for first in range(0, n_a**n, block):
        seqs = np.arange(first, min(first + block, n_a**n))
        digits = (seqs[:, None] // n_a ** np.arange(n - 1, -1, -1)[None, :]) % n_a
        prob = np.ones((seqs.size, 1))
        for pos in range(n):
            prob = (prob[:, :, None] * p_ae[digits[:, pos]][:, None, :]).reshape(seqs.size, -1)
        np.add.at(p_me, bin_of[seqs], prob)
    return (n * h_ae - float(_neg_xlogx(p_me).sum())) / n
