"""The dense simplex's failure paths, each reached by a small system built to hit it.

Both callers' feasible sets are bounded and their bases well conditioned,
so no solve of the package reaches these; they guard against a tableau
that rounding has carried away from its system.
"""

import numpy as np
import pytest

from secomp.lp import _pivot_to_optimum, _rebuild, phase2_simplex


def test_unbounded_lp_fails_to_terminate():
    # x0 - x1 = 1, maximize x1: every run stops on an entering column with no
    # positive entry, each rebuild returns to the basis the first run started
    # from, so Bland's rule takes over, and the pivot cap ends the solve.
    with pytest.raises(ArithmeticError, match="simplex failed to terminate"):
        phase2_simplex(np.array([[1.0, -1.0]]), np.array([1.0]), np.array([0.0, 1.0]))


def test_singular_basis_cannot_be_rebuilt():
    a_eq = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ArithmeticError, match="simplex basis is singular"):
        _rebuild(np.zeros((3, 4)), np.array([0, 1]), a_eq, np.ones(2), np.zeros(3))


def test_overflowing_rebuild_is_an_error():
    # Solving for column 0 divides 1e300 by 1e-300.
    a_eq = np.array([[1e-300, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ArithmeticError, match="rebuilds to non-finite entries"):
        _rebuild(np.zeros((3, 4)), np.array([0, 1]), a_eq, np.array([1e300, 1.0]),
                 np.array([1e300, 1.0, 0.0]))


def test_non_finite_least_ratio_stops_the_run():
    tableau = np.array([[1.0, 1.0, np.inf], [0.0, -1.0, 0.0]])
    basis = np.array([0])
    assert not _pivot_to_optimum(tableau, basis, 1e-13, steepest=True)
    assert basis.tolist() == [0]
