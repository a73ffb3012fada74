"""Dense tableau simplex for the package's small linear programs.

``phase1_simplex`` finds a point of {x >= 0 : A x = b} or certifies that
there is none (the degradation check). ``phase2_simplex`` maximizes c @ x
over such a set to ``OPTIMALITY_TOL`` from its first columns, the unit
vectors, and returns the duals too (the master LP of ``ascent``).
Phase 1 is phase 2 on the system with one artificial column per row, cost
-1 on the artificials and 0 elsewhere, from the artificials as the basis.
Both build the same canonical tableau, whose last row holds the reduced
costs of a minimization and, in its last entry, minus the objective, and
run the same pivot loop, which cannot cycle in exact arithmetic: Bland's
rule for phase 1, steepest pivoting for phase 2. The tableau is dense, with
no factorization; each pivot subtracts its rank-1 update from all of it in
place, through one buffer per run. On the degradation check's tableaus, at
most 17 x 33, a pivot is numpy call overhead, about 12 us on a 2-vCPU VM,
but a ``both`` master on a 4x4x4 joint grows to 64 rows and thousands of
columns, where the pivots take most of the solve. In rounding the loop can
also stall on a strongly degenerate LP, so column generation perturbs its
master's right-hand side. The rank-1 updates also drift where a row's share
is tiny, so a run of ``_SEGMENT`` pivots without an optimum restarts from
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
# Phase 2 stops once no reduced cost is below minus OPTIMALITY_TOL.
OPTIMALITY_TOL = 1e-13
_MAX_PIVOTS = 50_000
# Pivots between rebuilds. A solve takes at most 29 in the benchmark, 624 in
# the tests (three of whose tiny-share masters drift past a run and rebuild)
# and 567 at starts=16 on seeded Dirichlet joints up to 6x3x2.
_SEGMENT = 2_000


def _pivot_to_optimum(tableau: np.ndarray, basis: np.ndarray, tol: float, steepest: bool) -> bool:
    """Pivot until no column left of the right-hand side has a reduced cost below -tol.

    ``basis[i]`` is the column basic in row i; both arrays change in place,
    over at most _SEGMENT pivots.
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
    reduced, rhs = tableau[-1, :-1], tableau[:-1, -1]
    update = np.empty_like(tableau)
    stalled = False
    for _ in range(_SEGMENT):
        negative = reduced < -tol
        entering = negative.argmax()
        if not negative[entering]:
            return True
        if steepest and not stalled:
            # The first of the columns within _COST_TIE of the most negative,
            # so that rounding noise does not pick among equal costs.
            negative &= reduced <= reduced[negative].min() + _COST_TIE
            entering = negative.argmax()
        column = tableau[:, entering]
        candidates = (column[:-1] > _PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            return False
        ratios = rhs[candidates] / column[candidates]
        best = ratios.min()
        if not np.isfinite(best):
            return False
        ties = candidates[ratios <= best + _RATIO_TIE]
        leaving = ties[basis[ties].argmin()] if ties.size > 1 else ties[0]
        stalled = best <= _RATIO_TIE
        pivot_row = tableau[leaving] / column[leaving]
        np.multiply(column[:, None], pivot_row, out=update)
        tableau -= update
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
        if _pivot_to_optimum(tableau, basis, tol, steepest):
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
    feasible when that sum ends at most ``_FEASIBILITY_TOL``. Rows with b < 0
    enter the tableau times -1.0, exactly, and the caller's arrays are not changed.
    """
    a_eq = np.asarray(a_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    m, n = a_eq.shape
    sign = np.where(b_eq < 0.0, -1.0, 1.0)
    cost = np.concatenate([np.zeros(n), np.full(m, -1.0)])
    x, reduced = _optimize(np.hstack([sign[:, None] * a_eq, np.eye(m)]), sign * b_eq, cost,
                           np.arange(n, n + m), _REDUCED_COST_TOL, steepest=False)
    return None if -reduced[-1] > _FEASIBILITY_TOL else np.maximum(x[:n], 0.0)


def phase2_simplex(
    a_eq: np.ndarray, b_eq: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """x >= 0 maximizing c @ x subject to a_eq @ x = b_eq from its first columns, and the duals.

    With m rows, column i of ``a_eq`` must be the i-th unit vector for i < m
    and b_eq >= 0, so the tableau starts in canonical form with x[:m] = b_eq.
    The result is within ``OPTIMALITY_TOL`` times sum(x) of the optimum;
    the set must be bounded. The duals are read off the final tableau:
    column j's reduced cost is y @ a_j - c_j, and a_i is the i-th unit
    vector for i < m, so y_i is the final reduced cost there plus c_i. In
    exact arithmetic y = c_B B^-1 for the final basis B, so y @ a_eq >= c -
    OPTIMALITY_TOL and y @ b_eq = c @ x. In rounding y carries the drift of
    the rank-1 updates, and both can fail by far more than that: on one
    column-generation master of a 2x3x3 joint, max(c - y @ a_eq) was 2.8e-8
    and |y @ b_eq - c @ x| was 5.1e-10.
    """
    x, reduced = _optimize(a_eq, b_eq, c, np.arange(b_eq.size), OPTIMALITY_TOL, steepest=True)
    return np.maximum(x, 0.0), reduced[: b_eq.size] + c[: b_eq.size]
