"""The grid-LP first stage of ``maximize_channel`` against scipy's ``linprog``.

``phase2_simplex`` must reach the optimum linprog finds, and the channel
``maximize_channel`` scores first for three or four rows with mass must be
a channel whose value is that optimum. The grid and the LP here are built
independently of ``secomp.ascent``: the grid from ``itertools``, the LP
values by scoring each grid point as a one-column table, which needs only
``EntropyObjective.value``; only the rows with mass and their shares come
from ``ascent._balanced_rows``. The witness under test is the one
``ascent._search_free_witness`` returns, and must score bit for bit the
first value the solve reports.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from secomp import ascent
from secomp.ascent import EntropyObjective, OptimizerConfig, maximize_channel
from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.lp import phase2_simplex
from secomp.orderings import search_less_noisy_violation
from secomp.probability import Alphabet, JointPMF, entropy_of, mutual_information_of
from secomp.regions import SwitchConfig, maximize_equivocation, secrecy_entropy_objective

from conftest import dirichlet_joint, grid_witness

RESOLUTION = 16


def simplex_grid(k):
    counts = itertools.product(range(RESOLUTION + 1), repeat=k)
    return np.array([c for c in counts if sum(c) == RESOLUTION], dtype=float) / RESOLUTION


def linprog_max(points, values, rho):
    """max values @ lam subject to points.T @ lam = rho, lam >= 0."""
    res = linprog(-values, A_eq=points.T, b_eq=rho, bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def grid_stage(joint, objective, cond):
    """The certified first stage of ``maximize_channel``: a bound below every value."""
    cond_vars = tuple((v, joint.alphabet(v)) for v in cond)
    result = maximize_channel(objective, cond_vars, OptimizerConfig(), lambda: -math.inf)
    assert result.rounds == 0
    return result


class TestPhase2AgainstLinprog:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_optimum_on_random_simplex_lps(self, seed):
        rng = np.random.default_rng(seed)
        k = 3 + seed % 3
        points = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=40)])
        values = rng.normal(size=len(points))
        rho = rng.dirichlet(np.ones(k))
        lam, y = phase2_simplex(points.T, rho, values, np.arange(k), 1e-13)
        assert (lam >= 0.0).all()
        np.testing.assert_allclose(points.T @ lam, rho, atol=1e-12)
        assert values @ lam == pytest.approx(linprog_max(points, values, rho), abs=1e-9)
        # The duals are feasible and close the gap: weak duality is tight.
        assert (y @ points.T >= values - 1e-12).all()
        assert y @ rho == pytest.approx(values @ lam, abs=1e-12)

    def test_degenerate_ties_terminate(self):
        # Every point on one face has the same value: many optimal bases.
        points = simplex_grid(4)
        values = np.where(points[:, 3] == 0.0, 1.0, 0.0)
        rho = np.array([0.3, 0.3, 0.4, 0.0])
        basis = [int(np.flatnonzero((points == vertex).all(axis=1))[0]) for vertex in np.eye(4)]
        lam, y = phase2_simplex(points.T, rho, values, basis, 1e-13)
        assert values @ lam == pytest.approx(1.0, abs=1e-12)
        assert (y @ points.T >= values - 1e-12).all()


def objectives():
    """(name, joint, X, Y, conditioning) with three or four cells carrying mass."""
    rng = np.random.default_rng(77)
    cases = []
    for sizes in ((3, 3, 3), (4, 2, 3), (3, 4, 2)):
        joint = dirichlet_joint(rng, sizes)
        cases.append((f"none-{sizes}", joint, "B", "E", ("A",)))
        cases.append((f"less-noisy-be-{sizes}", joint, "E", "B", ("A",)))
    for p_b, p_e in ((0.25, 0.5), (0.7, 0.5), (0.4, 0.9)):
        joint = make_erasure_joint(ErasureParams(p_b, p_e))
        cases.append((f"sb-erasure-{p_b}-{p_e}", joint, "B", "E", ("A", "B")))
    return cases


class TestGridWitness:
    @pytest.mark.parametrize("case", objectives(), ids=lambda case: case[0])
    def test_witness_reaches_the_grid_lp_optimum(self, case):
        _, joint, x, y, cond = case
        objective = secrecy_entropy_objective(joint, x, cond, y)
        live, rho = ascent._balanced_rows(objective)
        assert live.size in (3, 4)
        result = grid_stage(joint, objective, cond)
        witness = grid_witness(joint, objective, cond, result)
        grid = simplex_grid(live.size)
        assert result.evaluations - len(result.objective_trace) == len(grid)
        marginals = grid @ (objective.proj[live] / rho[:, None])
        best = linprog_max(grid, objective.value(marginals[:, :, None]), rho)
        np.testing.assert_allclose(witness.sum(axis=1), 1.0, atol=1e-12)
        assert (witness >= 0.0).all()
        value = float(objective(witness[None])[0])
        assert value == pytest.approx(best, abs=1e-10)
        # No channel beats H(A|Y), nor I(A;X|Y) when U sees only A.
        assert value <= entropy_of(joint, "A", y) + 1e-12
        if cond == ("A",):
            assert value <= mutual_information_of(joint, "A", x, (y,)) + 1e-12

    def test_applies_to_three_or_four_balanced_rows_only(self):
        rng = np.random.default_rng(3)
        # Two rows get the two-row envelope's witness and five none; the
        # grid's points are the points scored besides the tables.
        for sizes, applies in (((2, 3, 3), False), ((5, 2, 2), False), ((4, 3, 3), True)):
            joint = dirichlet_joint(rng, sizes)
            objective = secrecy_entropy_objective(joint, "B", ("A",))
            result = grid_stage(joint, objective, ("A",))
            points = result.evaluations - len(result.objective_trace)
            assert (points == len(simplex_grid(4))) == applies
            assert len(result.objective_trace) == (1 if sizes[0] == 5 else 2)
        # H(U) over three rows: the lam log lam terms do not cancel.
        unbalanced = EntropyObjective(np.full((3, 1), 1.0 / 3.0), np.array([1.0]))
        cond_vars = (("A", Alphabet("A", ("0", "1", "2"))),)
        with pytest.raises(ValueError, match="balance"):
            maximize_channel(unbalanced, cond_vars, OptimizerConfig(), lambda: -math.inf)

    def test_grid_sizes(self):
        assert len(ascent._simplex_grid(3)) == 153
        assert len(ascent._simplex_grid(4)) == 969
        for k in (3, 4):
            np.testing.assert_array_equal(ascent._simplex_grid(k)[:k], np.eye(k))


class TestRowShareBelowRounding:
    """A live row with a share near 1e-15 loses its whole support to the weight drop."""

    CFG = OptimizerConfig(starts=2, seed=0)

    @staticmethod
    def tiny_source_symbol():
        joint = dirichlet_joint(np.random.default_rng(0), (3, 3, 3))
        mass = joint.mass.copy()
        mass[0] *= 1e-15 / mass[0].sum()
        return JointPMF(joint.variables, mass / mass.sum())

    def test_witness_is_a_channel(self):
        joint = self.tiny_source_symbol()
        objective = secrecy_entropy_objective(joint, "B", ("A",))
        witness = grid_witness(joint, objective, ("A",), grid_stage(joint, objective, ("A",)))
        assert np.isfinite(witness).all() and (witness >= 0.0).all()
        np.testing.assert_allclose(witness.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("switches", [SwitchConfig(s_b=True), SwitchConfig(True, True)],
                             ids=["sb", "both"])
    def test_erasure_with_tiny_erasure_probability(self, switches):
        joint = make_erasure_joint(ErasureParams(1e-15, 0.3))
        result = maximize_equivocation(joint, switches, self.CFG)
        assert result.delta_star == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("seed,sizes,scale", [((6, 0), (2, 3, 3), 1e-6),
                                                  ((3, 51), (4, 3, 2), 1e-3)])
    def test_both_with_cells_of_tiny_mass(self, seed, sizes, scale):
        # A sixth of the cells scaled down: rank-1 tableau updates drift on
        # these masters until the tableau is rebuilt from its basis.
        rng = np.random.default_rng(seed)
        joint = dirichlet_joint(rng, sizes)
        mass = joint.mass.flatten()
        mass[rng.choice(mass.size, mass.size // 6, replace=False)] *= scale
        joint = JointPMF(joint.variables, mass.reshape(sizes) / mass.sum())
        value = {name: maximize_equivocation(joint, SwitchConfig.from_name(name),
                                             self.CFG).delta_star
                 for name in ("se", "sb", "both")}
        assert value["se"] <= value["both"]
        assert value["sb"] <= value["both"]
        assert value["both"] <= entropy_of(joint, "A", "E")

    def test_ternary_source_with_a_tiny_symbol(self):
        joint = self.tiny_source_symbol()
        result = maximize_equivocation(joint, SwitchConfig(), self.CFG)
        assert np.isfinite(result.delta_star)
        assert result.delta_star <= result.upper_bound
        verdict = search_less_noisy_violation(joint, self.CFG)
        assert np.isfinite(verdict.upper_bound)
