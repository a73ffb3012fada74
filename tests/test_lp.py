"""The dense simplex: its pivot loop against a reference, and its failure paths.

``reference_pivot_to_optimum`` is the pivot loop as it was before the rank-1
update went in place: the same rules, written with ``np.flatnonzero`` and a
fresh ``np.outer`` for every pivot. ``lp._pivot_to_optimum`` must make the
same choices with the same arithmetic, so from the same tableau and basis
both must end with the same bits, under steepest pivoting and Bland's rule
alike. The tableaus are those the package's solves start their pivot runs
from: the degradation check's phase 1, the grid LPs, column generation's
masters, a master that drifts until its tableau is rebuilt, and the small
systems built to reach the failure paths.

Both callers' feasible sets are bounded and their bases well conditioned,
so no solve of the package reaches those failure paths; they guard against
a tableau that rounding has carried away from its system.
"""

import numpy as np
import pytest

from secomp import ascent, lp
from secomp.ascent import OptimizerConfig
from secomp.lp import _COST_TIE, _PIVOT_TOL, _RATIO_TIE, _SEGMENT, _pivot_to_optimum, _rebuild
from secomp.lp import phase2_simplex
from secomp.orderings import check_stochastic_degradation
from secomp.probability import JointPMF
from secomp.regions import SwitchConfig, maximize_equivocation, secrecy_entropy_objective

from conftest import dirichlet_joint, markov_chain_joint


def reference_pivot_to_optimum(tableau: np.ndarray, basis: np.ndarray, tol: float,
                               steepest: bool) -> bool:
    """``lp._pivot_to_optimum`` with one numpy call per step of its rules, as the oracle."""
    m = tableau.shape[0] - 1
    stalled = False
    for _ in range(_SEGMENT):
        reduced = tableau[m, :-1]
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


def pivot_runs(monkeypatch, solve):
    """(tableau, basis, tol, after a rebuild) for each pivot run of ``solve()``, as it starts."""
    runs, rebuilt = [], []
    kernel, rebuild = lp._pivot_to_optimum, lp._rebuild

    def record(tableau, basis, tol, steepest):
        runs.append((tableau.copy(), basis.copy(), tol, bool(rebuilt)))
        rebuilt.clear()
        return kernel(tableau, basis, tol, steepest)

    def record_rebuild(*args):
        rebuilt.append(True)
        rebuild(*args)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_pivot_to_optimum", record)
        patch.setattr(lp, "_rebuild", record_rebuild)
        solve()
    assert runs
    return runs


def assert_pivots_match_reference(tableau, basis, tol):
    for steepest in (True, False):
        expected_tableau, expected_basis = tableau.copy(), basis.copy()
        expected = reference_pivot_to_optimum(expected_tableau, expected_basis, tol, steepest)
        actual_tableau, actual_basis = tableau.copy(), basis.copy()
        assert _pivot_to_optimum(actual_tableau, actual_basis, tol, steepest) == expected
        assert actual_tableau.tobytes() == expected_tableau.tobytes()
        assert actual_basis.tobytes() == expected_basis.tobytes()


def assert_runs_match_reference(runs):
    for tableau, basis, tol, _ in runs:
        assert_pivots_match_reference(tableau, basis, tol)


class TestPivotsMatchReference:
    @pytest.mark.parametrize("direction", ["e_degraded_wrt_b", "b_degraded_wrt_e"])
    @pytest.mark.parametrize("sizes", [(2, 3, 3), (3, 4, 4)], ids=["2x3x3", "3x4x4"])
    @pytest.mark.parametrize("chain", [False, True], ids=["dirichlet", "chain"])
    def test_degradation_phase1(self, monkeypatch, chain, sizes, direction):
        for seed in range(3):
            rng = np.random.default_rng((30, seed))
            joint = markov_chain_joint(rng, *sizes) if chain else dirichlet_joint(rng, sizes)
            runs = pivot_runs(monkeypatch, lambda: check_stochastic_degradation(joint, direction))
            assert_runs_match_reference(runs)

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (4, 3, 3)], ids=["153-points", "969-points"])
    def test_grid_lp(self, monkeypatch, sizes):
        for seed in range(2):
            joint = dirichlet_joint(np.random.default_rng((31, seed)), sizes)
            objective = secrecy_entropy_objective(joint, "B", ("A",))
            runs = pivot_runs(monkeypatch, lambda: ascent._search_free_witness(objective))
            assert runs[0][0].shape[1] - 1 == len(ascent._simplex_grid(sizes[0]))
            assert_runs_match_reference(runs)

    def test_column_generation_masters(self, monkeypatch):
        joint = dirichlet_joint(np.random.default_rng((2008, 1)), (2, 3, 3))
        runs = pivot_runs(monkeypatch, lambda: maximize_equivocation(
            joint, SwitchConfig(True, True), OptimizerConfig(starts=8)))
        assert len(runs) > 10
        assert_runs_match_reference(runs)

    def test_master_rebuilt_after_drift(self, monkeypatch):
        # One of TestRowShareBelowRounding's joints (tests/test_grid_lp.py):
        # a sixth of the cells scaled by 1e-3, where a master's rank-1
        # updates drift until its tableau is rebuilt from its basis. The run
        # that ends without an optimum and the rebuilt run after it.
        rng = np.random.default_rng((3, 51))
        joint = dirichlet_joint(rng, (4, 3, 2))
        mass = joint.mass.flatten()
        mass[rng.choice(mass.size, mass.size // 6, replace=False)] *= 1e-3
        joint = JointPMF(joint.variables, mass.reshape(4, 3, 2) / mass.sum())
        runs = pivot_runs(monkeypatch, lambda: maximize_equivocation(
            joint, SwitchConfig(True, True), OptimizerConfig(starts=2, seed=0)))
        after = [i for i, run in enumerate(runs) if run[3]]
        assert after
        assert_runs_match_reference([runs[i - 1] for i in after] + [runs[i] for i in after])

    def test_failure_path_systems(self, monkeypatch):
        runs = pivot_runs(monkeypatch, lambda: pytest.raises(
            ArithmeticError, phase2_simplex, *UNBOUNDED_LP))
        assert_runs_match_reference(runs)
        assert_pivots_match_reference(NON_FINITE_RATIO_TABLEAU, np.array([0]), 1e-13)


# x0 - x1 = 1, maximize x1.
UNBOUNDED_LP = (np.array([[1.0, -1.0]]), np.array([1.0]), np.array([0.0, 1.0]))
# Row 0 is x0 + x1 = inf with x0 basic; x1 enters with an infinite ratio.
NON_FINITE_RATIO_TABLEAU = np.array([[1.0, 1.0, np.inf], [0.0, -1.0, 0.0]])


def test_unbounded_lp_fails_to_terminate():
    # Every run stops on an entering column with no positive entry, each
    # rebuild returns to the basis the first run started from, so Bland's
    # rule takes over, and the pivot cap ends the solve.
    with pytest.raises(ArithmeticError, match="simplex failed to terminate"):
        phase2_simplex(*UNBOUNDED_LP)


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
    basis = np.array([0])
    assert not _pivot_to_optimum(NON_FINITE_RATIO_TABLEAU.copy(), basis, 1e-13, steepest=True)
    assert basis.tolist() == [0]
