"""Dense tableau simplex for the package's small linear programs.

``phase1_simplex`` finds a point of {x >= 0 : A x = b} or certifies that
there is none (the degradation check). ``phase2_simplex`` maximizes c @ x
over such a set from a feasible basis of unit columns and returns the duals
too (the master LP of ``ascent``: the grid envelope and column generation).
Phase 1 is phase 2 on the system with one artificial column per row, cost
-1 on the artificials and 0 elsewhere, from the artificials as the basis.
Both build the same canonical tableau, whose last row holds the reduced
costs of a minimization and, in its last entry, minus the objective, and
run the same pivot loop, which cannot cycle in exact arithmetic: Bland's
rule for phase 1, steepest pivoting for phase 2. The systems here have a
few dozen rows at most, so no factorization tricks are needed; in
rounding, though, the loop can stall on a strongly degenerate LP, so
column generation perturbs its master's right-hand side (see ``ascent``).
The rank-1 updates also drift where a row's share is tiny, so a run of
``_SEGMENT`` pivots that ends without an optimum starts the next run from
the tableau rebuilt from its basis, by Bland's rule once runs repeat.
"""

from __future__ import annotations

import numpy as np

# Reduced costs below minus _REDUCED_COST_TOL enter the basis in phase 1;
# column entries above _PIVOT_TOL can pivot; ratios within _RATIO_TIE of the
# least, and in phase 2 reduced costs within _COST_TIE of the most negative,
# tie.
_FEASIBILITY_TOL = 1e-9
_REDUCED_COST_TOL = 1e-11
_PIVOT_TOL = 1e-11
_RATIO_TIE = 1e-12
_COST_TIE = 1e-12
_MAX_PIVOTS = 50_000
# Pivots between rebuilds. The tests and the benchmark take at most 180
# pivots a solve, and searched solves on seeded Dirichlet joints up to
# 6x3x2 at most 564, so those solves never rebuild.
_SEGMENT = 2_000


def _pivot_to_optimum(
    tableau: np.ndarray, basis: np.ndarray, n_cols: int, tol: float, steepest: bool
) -> bool:
    """Pivot until no column below ``n_cols`` has a reduced cost below -tol, at most _SEGMENT times.

    ``basis[i]`` is the column basic in row i; both arrays change in place.
    The entering column is the lowest-index one with a negative reduced cost
    (Bland's rule). With ``steepest`` it is the most negative one instead
    (the lowest-index one among near ties), except right after a pivot that
    did not move (a degenerate step): a cycle consists of such steps only,
    so Bland's rule runs every step of any would-be cycle and none can form.
    On the grid LPs of ``ascent`` (3-4 rows, 153 or 969 columns) Bland's
    rule alone took about 8 times the pivots. Returns whether it reached an
    optimum; it stops early where the entering column has no positive entry
    (the minimization looks unbounded) or the least ratio is not finite.
    """
    m = tableau.shape[0] - 1
    stalled = False
    for _ in range(_SEGMENT):
        reduced = tableau[m, :n_cols]
        negative = np.flatnonzero(reduced < -tol)
        if negative.size == 0:
            return True
        if steepest and not stalled:
            # The first of the columns within _COST_TIE of the most negative,
            # so that rounding noise does not pick among equal costs.
            costs = reduced[negative]
            entering = negative[np.argmax(costs <= costs.min() + _COST_TIE)]
        else:
            entering = negative[0]
        column = tableau[:m, entering]
        candidates = np.flatnonzero(column > _PIVOT_TOL)
        if candidates.size == 0:
            return False
        ratios = tableau[candidates, -1] / column[candidates]
        best = ratios.min()
        if not np.isfinite(best):
            return False
        ties = candidates[ratios <= best + _RATIO_TIE]
        leaving = ties[np.argmin(basis[ties])]
        stalled = best <= _RATIO_TIE
        pivot_row = tableau[leaving] / tableau[leaving, entering]
        tableau -= np.outer(tableau[:, entering], pivot_row)
        tableau[leaving] = pivot_row
        basis[leaving] = entering
    return False


def _rebuild(tableau: np.ndarray, basis: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray,
             c: np.ndarray) -> None:
    """Recompute in place the canonical tableau of ``basis`` from the system itself."""
    m = basis.size
    try:
        tableau[:m] = np.linalg.solve(a_eq[:, basis], np.column_stack([a_eq, b_eq]))
    except np.linalg.LinAlgError:
        raise ArithmeticError("simplex basis is singular") from None
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        tableau[m] = c[basis] @ tableau[:m] - np.append(c, 0.0)
    if not np.isfinite(tableau).all():
        raise ArithmeticError("simplex basis rebuilds to non-finite entries")


def _optimize(
    a_eq: np.ndarray, b_eq: np.ndarray, c: np.ndarray, basis: np.ndarray, tol: float,
    steepest: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """x maximizing c @ x over {x >= 0 : a_eq @ x = b_eq}, and the final tableau's last row.

    Column ``basis[i]`` of ``a_eq`` must be the i-th unit vector and b_eq >= 0,
    so the tableau starts in canonical form with x[basis] = b_eq; its last
    row holds the reduced costs of minimizing -c, c_B a_eq - c, and minus
    that minimum, c_B b_eq. Both callers' sets are bounded, so a pivot run
    that reports an unbounded one has drifted, as has one that ends without
    an optimum: the next run starts from the rebuilt tableau, within
    ``_MAX_PIVOTS`` pivots in all. Raises ArithmeticError when they run out
    or a basis cannot be rebuilt.
    """
    m, n = a_eq.shape
    basis = np.array(basis)
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = a_eq
    tableau[:m, -1] = b_eq
    tableau[m, :n] = c[basis] @ a_eq - c
    tableau[m, -1] = c[basis] @ b_eq
    started = set()
    for segment in range(_MAX_PIVOTS // _SEGMENT):
        if segment:
            _rebuild(tableau, basis, a_eq, b_eq, c)
        # A rebuilt tableau depends on the set of basic columns alone, so a
        # run that starts where an earlier one started would repeat it: from
        # then on Bland's rule runs.
        key = frozenset(basis.tolist())
        steepest &= key not in started
        started.add(key)
        if _pivot_to_optimum(tableau, basis, n, tol, steepest):
            break
    else:
        raise ArithmeticError("simplex failed to terminate")
    x = np.zeros(n)
    x[basis] = tableau[:m, -1]
    return x, tableau[m]


def phase1_simplex(a_eq: np.ndarray, b_eq: np.ndarray) -> np.ndarray | None:
    """Find x >= 0 with a_eq @ x = b_eq, or None on certified infeasibility.

    Maximizes minus the sum of one artificial variable per row, starting
    from the artificials as the basis, by Bland's rule; the system is
    feasible when that sum ends at most ``_FEASIBILITY_TOL``.
    """
    a_eq = np.asarray(a_eq, dtype=float).copy()
    b_eq = np.asarray(b_eq, dtype=float).copy()
    m, n = a_eq.shape
    flip = b_eq < 0.0
    a_eq[flip] *= -1.0
    b_eq[flip] *= -1.0
    cost = np.concatenate([np.zeros(n), np.full(m, -1.0)])
    x, reduced = _optimize(np.hstack([a_eq, np.eye(m)]), b_eq, cost, np.arange(n, n + m),
                           _REDUCED_COST_TOL, steepest=False)
    return None if -reduced[-1] > _FEASIBILITY_TOL else np.maximum(x[:n], 0.0)


def phase2_simplex(
    a_eq: np.ndarray, b_eq: np.ndarray, c: np.ndarray, basis: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """x >= 0 maximizing c @ x subject to a_eq @ x = b_eq from a feasible basis, and the duals.

    Column ``basis[i]`` of ``a_eq`` must be the i-th unit vector and b_eq >= 0,
    so the tableau starts in canonical form with x[basis] = b_eq. The result
    is within ``tol`` times sum(x) of the optimum; the set must be bounded.
    The duals are read off the final tableau: column j's reduced cost is
    y @ a_j - c_j, and a_j is the i-th unit vector for j = ``basis[i]`` as
    given, so y_i is the final reduced cost there plus c_j. In exact
    arithmetic y = c_B B^-1 for the final basis B, so y @ a_eq >= c - tol
    and y @ b_eq = c @ x. In rounding y carries the drift of the rank-1
    updates, and both can fail by far more than ``tol``: on one
    column-generation master of a 2x3x3 joint, max(c - y @ a_eq) was 2.8e-8
    and |y @ b_eq - c @ x| was 5.1e-10.
    """
    x, reduced = _optimize(a_eq, b_eq, c, basis, tol, steepest=True)
    return np.maximum(x, 0.0), reduced[basis] + c[basis]
