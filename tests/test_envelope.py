"""The two-row envelope path of ``maximize_channel`` against a brute-force hull.

For a binary source every U - A - (X, E) objective is sum_u p(u)
f(p_{A|u}), so its maximum is the upper concave envelope of f at p_A. The
oracle here computes f on a fine grid of priors straight from p(x|a) and
p(e|a), takes the grid's hull at p_A by minimizing max_q f(q) - s (q - p_A)
over the slope s, and bounds the grid error by the chord gaps of the
concave entropy term. The oracle uses no secomp envelope code; the tests
only coarsen ``secomp.envelope``'s grid to check the bound on a poor witness.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from secomp.ascent import (
    EntropyObjective,
    OptimizerConfig,
    two_row_envelope,
    maximize_channel,
)
from secomp import ascent, envelope
from secomp.cli import distribution_to_dict, main
from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.orderings import WITNESS_TOL, search_less_noisy_violation
from secomp.probability import (
    Alphabet,
    Channel,
    JointPMF,
    build_joint,
    entropy_of,
    mutual_information_of,
)
from secomp.regions import (
    SwitchConfig,
    coded_inner_bound_sample,
    maximize_equivocation,
    secrecy_entropy_objective,
    secrecy_objective,
)

from conftest import dirichlet_joint, grid_witness, random_channel

CFG = OptimizerConfig(starts=4, seed=0)
GRID = np.linspace(0.0, 1.0, 8193)


def _neg_xlogx(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, -x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _conditional(mass_ax):
    """p(x | a) from a 2 x |X| array of joint masses."""
    return mass_ax / mass_ax.sum(axis=1, keepdims=True)


def _f(q, cx, ce):
    """I_q(A;X) - I_q(A;E) for the prior (q, 1 - q) and fixed p(x|a), p(e|a)."""

    def mi(c):
        out = _neg_xlogx(np.outer(q, c[0]) + np.outer(1.0 - q, c[1])).sum(axis=1)
        return out - q * _neg_xlogx(c[0]).sum() - (1.0 - q) * _neg_xlogx(c[1]).sum()

    return mi(cx) - mi(ce)


def _chord_gap(lo, hi):
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    width = hi - lo
    f_lo, f_hi = _neg_xlogx(lo), _neg_xlogx(hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(width > 0.0, (f_hi - f_lo) / width, 0.0)
    x = np.clip(np.exp2(-slope) / np.e, lo, hi)
    return np.where(width > 0.0, np.maximum(_neg_xlogx(x) - f_lo - slope * (x - lo), 0.0), 0.0)


def brute_envelope(mass_ax, mass_ae):
    """(g, gap): g <= max_U I(A;X|U) - I(A;E|U) <= g + gap over p(u|a), |A| = 2."""
    cx, ce = _conditional(mass_ax), _conditional(mass_ae)
    rho = mass_ax.sum(axis=1)[0] / mass_ax.sum()
    f = _f(GRID, cx, ce)

    def top(s):
        return np.max(f - s * (GRID - rho))

    lo, hi = -1e3, 1e3
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if top(m1) <= top(m2):
            hi = m2
        else:
            lo = m1
    g = top(0.5 * (lo + hi))
    # Only H(X_q) is concave; its excess over a cell's chord is at most the
    # sum of the chord gaps of -x log2 x over each p_q(x)'s image of the cell.
    px = np.outer(GRID, cx[0]) + np.outer(1.0 - GRID, cx[1])
    gap = _chord_gap(px[:-1], px[1:]).sum(axis=1).max()
    return g, gap


def binary_joints(n, seed):
    """Dirichlet joints of varied concentration; every fourth has zero cells."""
    rng = np.random.default_rng(seed)
    variables = dirichlet_joint(rng, (2, 3, 3)).variables
    joints = []
    for k in range(n):
        mass = rng.dirichlet(np.full(18, (0.2, 1.0, 4.0)[k % 3])).reshape(2, 3, 3)
        if k % 4 == 3:
            mass[rng.random((2, 3, 3)) < 0.3] = 0.0
            mass /= mass.sum()
        joints.append(JointPMF(variables, mass))
    return joints


JOINTS = binary_joints(24, 2026)


def _less_noisy(joint, stronger, weaker):
    """(best value, certified bound, witness) of the violation I(U;weaker) - I(U;stronger).

    With U - A - (B, E) the violation is the secrecy objective with X =
    stronger, Y = weaker, minus its value at the uniform channel, scored last.
    """
    a_spec = ("A", joint.alphabet("A"))
    objective = secrecy_entropy_objective(joint, stronger, ("A",), weaker)
    result = maximize_channel(
        objective, (a_spec,), CFG, lambda: mutual_information_of(joint, "A", stronger, (weaker,)),
        [Channel.copy_of(a_spec, "U")],
    )
    values = np.array(result.objective_trace)
    baseline = values[-1]
    return float(values.max()) - baseline, result.upper_bound - baseline, result.best_u


def _pair(joint, first, second):
    """Masses over (A, first) and (A, second) as 2 x |.| arrays."""
    summed_out = {"B": 2, "E": 1}
    return joint.mass.sum(axis=summed_out[first]), joint.mass.sum(axis=summed_out[second])


class TestAgainstBruteForce:
    @pytest.mark.parametrize("k", range(len(JOINTS)))
    def test_none(self, k):
        joint = JOINTS[k]
        result = maximize_equivocation(joint, SwitchConfig(), CFG)
        value = max(result.objective_trace)
        g, gap = brute_envelope(*_pair(joint, "B", "E"))
        assert value >= g - 1e-10
        assert g <= result.upper_bound + 1e-15
        assert value <= g + gap + 1e-12
        assert secrecy_objective(joint, result.best_u, SwitchConfig()) == pytest.approx(
            value, abs=1e-12
        )

    @pytest.mark.parametrize("k", range(len(JOINTS)))
    @pytest.mark.parametrize("stronger,weaker", [("B", "E"), ("E", "B")])
    def test_less_noisy(self, k, stronger, weaker):
        joint = JOINTS[k]
        value, upper, witness = _less_noisy(joint, stronger, weaker)
        mass_s, mass_w = _pair(joint, stronger, weaker)
        g, gap = brute_envelope(mass_s, mass_w)
        # I(U;weaker) - I(U;stronger) = I(A;stronger|U) - I(A;weaker|U)
        # - (I(A;stronger) - I(A;weaker)): the envelope minus its value at p_A.
        g -= _f(np.array([mass_s.sum(axis=1)[0]]), _conditional(mass_s), _conditional(mass_w))[0]
        assert value >= g - 1e-10
        assert g <= upper + 1e-15
        assert value <= g + gap + 1e-12
        extended = build_joint(joint, witness)
        regained = mutual_information_of(extended, "U", weaker) - mutual_information_of(
            extended, "U", stronger
        )
        assert regained == pytest.approx(value, abs=1e-12)
        direction = "b_less_noisy_than_e" if stronger == "B" else "e_less_noisy_than_b"
        verdict = search_less_noisy_violation(joint, CFG, direction=direction)
        assert verdict.upper_bound == pytest.approx(upper, abs=1e-15)
        assert (verdict.kind == "less_noisy_falsified") == (value > WITNESS_TOL)

    @pytest.mark.parametrize("k", range(8))
    def test_coded_corner(self, k):
        rng = np.random.default_rng(77 + k)
        joint = dirichlet_joint(rng, (2, 3, 3), names=("A", "C", "E"))
        v = random_channel(rng, joint, ("C",), "V", 3)
        opt = coded_inner_bound_sample(joint, v, CFG).opt
        value = max(opt.objective_trace)
        joint_v = build_joint(joint, v)
        mass_av = joint_v.mass.sum(axis=(1, 2))
        mass_ae = joint_v.mass.sum(axis=(1, 3))
        g, _ = brute_envelope(mass_av, mass_ae)
        assert value >= g - 1e-10
        assert g <= opt.upper_bound + 1e-15
        with_u = build_joint(joint_v, opt.best_u)
        regained = mutual_information_of(with_u, "A", "V", ("U",)) - mutual_information_of(
            with_u, "A", "E", ("U",)
        )
        assert regained == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("k", range(0, len(JOINTS), 3))
    def test_ascent_never_beats_the_bound(self, k, monkeypatch):
        # Column generation run from the uniform channel alone where the
        # envelope would certify (it is switched off, as for a row share
        # below rounding, and the caller's bound is unreachable): its
        # pricing ascent and master LP must stay under the envelope's bound.
        joint = JOINTS[k]
        cond = (("A", joint.alphabet("A")),)
        cfg = OptimizerConfig(starts=8, seed=k)
        bound = maximize_equivocation(joint, SwitchConfig(), CFG).upper_bound
        less_noisy = {pair: _less_noisy(joint, *pair)[1] for pair in (("B", "E"), ("E", "B"))}
        monkeypatch.setattr(ascent, "two_row_envelope", lambda *args: None)

        def search(objective):
            result = maximize_channel(objective, cond, cfg, lambda: math.inf)
            values = np.array(result.objective_trace)
            assert len(values) == 2 and result.rounds >= 1
            return values

        values = search(secrecy_entropy_objective(joint, "B", ("A",)))
        assert values[-1] <= bound + 1e-12
        for (stronger, weaker), top in less_noisy.items():
            values = search(secrecy_entropy_objective(joint, stronger, ("A",), weaker))
            assert values[-1] - values[0] <= top + 1e-12


def _coarsen(monkeypatch):
    """A coarse grid, one wide polish window and no refinement."""
    monkeypatch.setattr(envelope, "_GRID", 8)
    monkeypatch.setattr(envelope, "_POLISH_ROUNDS", 1)
    monkeypatch.setattr(envelope, "_POLISH_POINTS", 9)
    monkeypatch.setattr(envelope, "_MAX_POINTS", 0)


class TestCertificate:
    @pytest.mark.parametrize("k", range(len(JOINTS)))
    def test_bound_covers_a_coarse_witness(self, k, monkeypatch):
        # The coarse search leaves the witness short of the optimum; the
        # bound must still cover it.
        _coarsen(monkeypatch)
        joint = JOINTS[k]
        result = maximize_equivocation(joint, SwitchConfig(), CFG)
        g, _ = brute_envelope(*_pair(joint, "B", "E"))
        assert g <= result.upper_bound + 1e-15

    @pytest.mark.parametrize("p_a", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("p_b,x", [(0.6, 0.05), (0.3, 0.2)])
    def test_bound_keeps_the_folded_columns(self, p_a, p_b, x, monkeypatch):
        # Bob sees A or an erasure, so his columns sit in one row each and
        # fold into a net -q log2 q; Eve sees A through a noisy channel.
        _coarsen(monkeypatch)
        b_given_a = np.array([[1.0 - p_b, 0.0, p_b], [0.0, 1.0 - p_b, p_b]])
        e_given_a = np.array([[0.9 - x, x, 0.1], [x, 0.8 - x, 0.2]])
        p_ab = np.array([p_a, 1.0 - p_a])[:, None] * b_given_a
        mass = p_ab[:, :, None] * e_given_a[:, None, :]
        joint = JointPMF(JOINTS[0].variables, mass)
        result = maximize_equivocation(joint, SwitchConfig(), CFG)
        g, _ = brute_envelope(mass.sum(axis=2), mass.sum(axis=1))
        assert g <= result.upper_bound + 1e-15


class TestNarrowBump:
    """A bump that the starting grid misses is found by a second round on the refined points."""

    CENTER, HALF_WIDTH, HEIGHT = 0.6037, 2e-4, 0.02  # between grid points 77/128 and 78/128

    def phi(self, q):
        bump = self.HEIGHT - self.HEIGHT / self.HALF_WIDTH * np.abs(q - self.CENTER)
        return 0.25 - (q - 0.5) ** 2 + np.maximum(bump, 0.0)

    def cell_gaps(self, lo, hi):
        # The parabola rises (hi - lo)^2 / 4 above its chord. The bump is
        # nonnegative, at most HEIGHT and HEIGHT / HALF_WIDTH-Lipschitz, so
        # on a cell it overlaps it rises at most the smaller of HEIGHT and
        # that slope times the width above its own chord.
        overlap = (lo < self.CENTER + self.HALF_WIDTH) & (hi > self.CENTER - self.HALF_WIDTH)
        bump = np.minimum(self.HEIGHT, self.HEIGHT / self.HALF_WIDTH * (hi - lo))
        return (hi - lo) ** 2 / 4.0 + np.where(overlap, bump, 0.0)

    def test_second_round_finds_the_bump(self):
        support, _, bound, _ = envelope.upper_envelope(self.phi, self.cell_gaps, 0.5)
        assert support is not None
        assert np.abs(support - self.CENTER).min() < self.HALF_WIDTH
        # The best chord at 0.5 from a fine grid left of it to the bump's peak.
        left = np.linspace(0.0, 0.5, 50001)
        f_left, peak = self.phi(left), self.phi(np.array(self.CENTER))
        brute = np.max(f_left + (0.5 - left) / (self.CENTER - left) * (peak - f_left))
        assert brute <= bound <= brute + 1e-8

    def test_one_round_misses_the_bump(self, monkeypatch):
        monkeypatch.setattr(envelope, "_ROUNDS", 1)
        support, _, _, _ = envelope.upper_envelope(self.phi, self.cell_gaps, 0.5)
        assert support is None


class TestMerge:
    def test_sorted_and_a_repeat_keeps_its_first_scoring(self):
        # Every other point is scored first with value 0, the rest with 1;
        # then all of them again, reversed and with value 2.
        grid = np.linspace(0.0, 1.0, 65)
        q, f = envelope._merge([grid[::2], grid[::-1], grid],
                               [np.zeros(33), np.ones(65), np.full(65, 2.0)])
        assert (np.diff(q) > 0.0).all()
        np.testing.assert_array_equal(q, grid)
        np.testing.assert_array_equal(f, np.arange(65) % 2)


class TestMaskedArraysUnloaded:
    def test_envelope_leaves_numpy_ma_unloaded(self):
        # A plain np.unique imports numpy.ma on numpy 2.4, about 1 MB of RSS.
        script = "\n".join([
            "import sys",
            "import numpy",
            "if 'numpy.ma' in sys.modules:",
            "    sys.exit(0)  # numpy 1.x imports it itself",
            "from secomp import envelope",
            "envelope.upper_envelope(lambda q: q * (1.0 - q), lambda lo, hi: (hi - lo) ** 2, 0.3)",
            "sys.exit('numpy.ma' in sys.modules)",
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env={**os.environ, "PYTHONPATH": path}, check=False)
        assert (proc.returncode, proc.stderr) == (0, b"")


class TestClosedForms:
    @pytest.mark.parametrize("p_b", [0.0, 0.05, 0.2, 0.45, 0.7, 0.95])
    @pytest.mark.parametrize("p_e", [0.0, 0.1, 0.3, 0.5, 0.8, 1.0])
    def test_erasure_none_is_the_baseline_gap(self, p_b, p_e):
        # f(q) = (p_e - p_b) h(q): concave for p_e > p_b (the constant channel
        # is optimal), convex otherwise (U = A gives 0).
        joint = make_erasure_joint(ErasureParams(p_b, p_e))
        result = maximize_equivocation(joint, SwitchConfig(), CFG)
        assert result.delta_star == pytest.approx(max(p_e - p_b, 0.0), abs=1e-12)
        assert result.upper_bound <= max(p_e - p_b, 0.0) + 1e-9
        # The witness is exactly the canonical channel, not a rounding-noise
        # neighbour of it: uniform where U independent of A is optimal, and
        # the copy of A where the supports are 0 and 1.
        if p_e > p_b:
            np.testing.assert_array_equal(result.best_u.rows, 1.0 / 3.0)
        elif p_e < p_b:
            np.testing.assert_array_equal(result.best_u.rows, np.eye(3)[:2])

    def test_chains_certify_less_noisy(self):
        rng = np.random.default_rng(31)
        for sizes in ((2, 3, 3), (2, 4, 3), (2, 3, 4)):
            for _ in range(4):
                n_a, n_b, n_e = sizes
                p_a = rng.dirichlet(np.ones(n_a))
                b_given_a = rng.dirichlet(np.ones(n_b), size=n_a)
                e_given_b = rng.dirichlet(np.ones(n_e), size=n_b)
                base = dirichlet_joint(rng, sizes)
                mass = p_a[:, None, None] * b_given_a[:, :, None] * e_given_b[None, :, :]
                verdict = search_less_noisy_violation(JointPMF(base.variables, mass), CFG)
                assert verdict.kind == "less_noisy_not_falsified"
                assert verdict.upper_bound <= WITNESS_TOL

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.6, 0.9])
    def test_negative_maximum_is_mrs_gerbers(self, lam):
        # A = C xor Bern(0.11) with C a fair bit: the helper frontier's
        # objective lam H(C|U) - H(A|U) over p(u|c) peaks at
        # max_alpha lam h(alpha) - h(alpha * 0.11) by Mrs. Gerber's lemma
        # (Wyner & Ziv 1973), which is negative for lam < 1. The solve
        # returns that maximum and its bound as they are, not floored at 0.
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        noise = 0.11

        def h(x):
            return float(_neg_xlogx(x) + _neg_xlogx(1.0 - x))

        mass = 0.5 * np.array([[1.0 - noise, noise], [noise, 1.0 - noise]])  # axes (C, A)
        objective = EntropyObjective.from_terms(
            mass, (0,), [((0,), lam), ((1,), -1.0), ((), 1.0 - lam)])
        c_spec = ("C", Alphabet("C", ("0", "1")))
        result = maximize_channel(objective, (c_spec,), CFG, _never_called)
        reference = minimize_scalar(
            lambda a: h(a * (1.0 - noise) + (1.0 - a) * noise) - lam * h(a),
            bounds=(0.0, 0.5), method="bounded", options={"xatol": 1e-13})
        value = -reference.fun
        assert value < 0.0
        assert result.delta_star == pytest.approx(value, abs=1e-9)
        assert result.delta_star <= result.upper_bound <= result.delta_star + 1e-9

    def test_one_source_symbol_with_mass(self):
        # A row without mass leaves one row: every channel has the same value.
        joint = dirichlet_joint(np.random.default_rng(5), (2, 3, 3))
        mass = joint.mass.copy()
        mass[1] = 0.0
        joint = JointPMF(joint.variables, mass / mass.sum())
        result = maximize_equivocation(joint, SwitchConfig(), CFG)
        assert result.delta_star == 0.0
        assert result.upper_bound == 0.0
        assert result.rounds == 0


class TestDispatch:
    def test_other_settings_keep_the_ascent(self):
        # Settings no envelope certifies keep the search: column generation,
        # whose pricing is an exponentiated-gradient ascent, runs at least
        # one round.
        cfg = OptimizerConfig(starts=4)
        joint = dirichlet_joint(np.random.default_rng(3), (2, 3, 3))
        # The channels scored first, then column generation's witness: the
        # uniform channel alone for sb (six cells carry mass, too many for a
        # grid witness), and for both the copy of E and sb's solution first.
        for name, n_scored in (("sb", 1), ("both", 3)):
            result = maximize_equivocation(joint, SwitchConfig.from_name(name), cfg)
            assert len(result.objective_trace) == n_scored + 1
            assert result.rounds >= 1 and not result.certified
            assert result.upper_bound == pytest.approx(entropy_of(joint, "A", ("E",)), abs=1e-12)
        # |A| = 3: the grid witness and the uniform channel come first.
        ternary = dirichlet_joint(np.random.default_rng(4), (3, 3, 3))
        result = maximize_equivocation(ternary, SwitchConfig(), cfg)
        assert len(result.objective_trace) == 3
        assert result.rounds >= 1
        assert result.upper_bound == pytest.approx(
            mutual_information_of(ternary, "A", "B", ("E",)), abs=1e-12
        )
        verdict = search_less_noisy_violation(ternary, cfg)
        assert verdict.upper_bound == pytest.approx(
            mutual_information_of(ternary, "A", "E", ("B",)), abs=1e-12
        )
        assert verdict.kind == "less_noisy_falsified"
        assert verdict.upper_bound >= verdict.gap

    def test_unbalanced_objective_is_rejected(self):
        # H(U) over two rows: the lam log lam terms do not cancel, so the
        # objective is no envelope of a function of the posterior and no LP
        # over posteriors. It is rejected before anything is scored, even
        # with a bound the uniform channel would meet.
        objective = EntropyObjective(np.array([[0.5], [0.5]]), np.array([1.0]))
        a_spec = ("A", Alphabet("A", ("0", "1")))
        for upper in (math.inf, float(np.log2(3.0))):
            with pytest.raises(ValueError, match="balance"):
                maximize_channel(objective, (a_spec,), CFG, lambda: upper)

    def test_envelope_ignores_seed_and_starts(self):
        joint = JOINTS[0]
        first = maximize_equivocation(joint, SwitchConfig(), CFG)
        other = maximize_equivocation(joint, SwitchConfig(), OptimizerConfig(starts=64, seed=5))
        assert first.objective_trace == other.objective_trace
        np.testing.assert_array_equal(first.best_u.rows, other.best_u.rows)
        assert first.evaluations == other.evaluations > len(first.objective_trace)


def _never_called() -> float:
    raise AssertionError("the two-row envelope's own bound certifies")


class TestEnvelopeWitness:
    """The channel ``maximize_channel`` scores first, its points and its bound, on each path."""

    @staticmethod
    def _one_live_row():
        joint = dirichlet_joint(np.random.default_rng(5), (2, 3, 3))
        mass = joint.mass.copy()
        mass[1] = 0.0
        return JointPMF(joint.variables, mass / mass.sum())

    @pytest.mark.parametrize("which", ["two-rows", "one-row"])
    def test_two_row_bound_is_the_solve_bound(self, which):
        joint = JOINTS[0] if which == "two-rows" else self._one_live_row()
        objective = secrecy_entropy_objective(joint, "B", ("A",))
        witness, points, bound = two_row_envelope(objective, *ascent._balanced_rows(objective), 3)
        # The envelope's own bound is used; the caller's is never computed.
        result = maximize_channel(
            objective, (("A", joint.alphabet("A")),), CFG, _never_called
        )
        assert bound == result.upper_bound
        # The witness is the first channel scored.
        assert objective(witness[None])[0] == result.objective_trace[0]
        assert points + len(result.objective_trace) == result.evaluations
        assert result.rounds == 0

    def test_share_below_rounding_gives_no_envelope(self):
        # A's second symbol has mass 1e-18, so rho_0 rounds to 1: no
        # envelope, and the uniform channel alone meets the analytic bound.
        joint = dirichlet_joint(np.random.default_rng(5), (2, 3, 3))
        mass = joint.mass.copy()
        mass[1] *= 1e-18 / mass[1].sum()
        joint = JointPMF(joint.variables, mass / mass.sum())
        objective = secrecy_entropy_objective(joint, "B", ("A",))
        live, rho = ascent._balanced_rows(objective)
        assert live.size == 2 and rho[0] == 1.0
        assert two_row_envelope(objective, live, rho, 3) is None
        result = maximize_equivocation(joint, SwitchConfig(), CFG)
        assert (result.delta_star, result.upper_bound, result.certified) == (0.0, 0.0, True)
        assert len(result.objective_trace) == result.evaluations == 1
        verdict = search_less_noisy_violation(joint, CFG)
        assert verdict.kind == "less_noisy_not_falsified"
        assert verdict.opt.certified and 0.0 <= verdict.upper_bound < 1e-15

    @pytest.mark.parametrize("sizes,points", [((3, 3, 3), 153), ((4, 3, 3), 969)])
    def test_three_or_four_rows_give_the_grid_witness_unbounded(self, sizes, points):
        # The grid witness carries no bound: the caller's is computed, and
        # one below every value certifies the stage as it stands.
        joint = dirichlet_joint(np.random.default_rng(9), sizes)
        objective = secrecy_entropy_objective(joint, "B", ("A",))
        calls = []
        result = maximize_channel(objective, (("A", joint.alphabet("A")),), CFG,
                                  lambda: calls.append(1) or -math.inf)
        assert calls == [1]
        assert result.best_u.rows.shape == (sizes[0], sizes[0] + 1)
        # The grid witness is scored first.
        grid_witness(joint, objective, ("A",), result)
        assert len(result.objective_trace) == 2
        assert result.evaluations == points + 2
        # The bound falls back to the best value, unclamped like delta_star.
        assert (result.rounds, result.upper_bound) == (0, max(result.objective_trace))

    def test_nothing_for_five_rows_or_an_unbalanced_objective(self):
        joint = dirichlet_joint(np.random.default_rng(9), (5, 2, 2))
        objective = secrecy_entropy_objective(joint, "B", ("A",))
        result = maximize_channel(objective, (("A", joint.alphabet("A")),), CFG,
                                  lambda: -math.inf)
        # The uniform channel alone is scored.
        assert len(result.objective_trace) == result.evaluations == 1
        # H(U) over two rows: the lam log lam terms do not cancel.
        unbalanced = EntropyObjective(np.array([[0.5], [0.5]]), np.array([1.0]))
        with pytest.raises(ValueError, match="balance"):
            maximize_channel(unbalanced, (("A", Alphabet("A", ("0", "1"))),), CFG, _never_called)


class TestEvaluationCount:
    def test_ascent_counts_every_point_scored(self, monkeypatch):
        # Counting wraps the scoring of tables and posteriors and the
        # pricing's reduced costs; the arithmetic is untouched.
        scored = [0]
        value, price = EntropyObjective.value, ascent._price

        def counted_value(self, m):
            scored[0] += m.size // (m.shape[-1] * m.shape[-2])
            return value(self, m)

        def counted_price(objective, scaled, y, logits):
            scored[0] += (ascent._PRICING_STEPS + 1) * len(logits)
            return price(objective, scaled, y, logits)

        monkeypatch.setattr(EntropyObjective, "value", counted_value)
        monkeypatch.setattr(ascent, "_price", counted_price)
        # Above p_b = 1/2 the search runs for sb and both; sb's grid witness
        # (four sb cells carry mass) is scored through ``value`` too, and
        # both counts the sb solve it runs first.
        joint = make_erasure_joint(ErasureParams(0.7, 0.5))
        for name in ("sb", "both"):
            scored[0] = 0
            cfg = OptimizerConfig(starts=3, seed=1)
            result = maximize_equivocation(joint, SwitchConfig.from_name(name), cfg)
            assert result.rounds >= 1
            assert result.evaluations == scored[0]

    def test_searched_grid_is_scored_once(self, monkeypatch):
        # Erasure (0.7, 0.5) with S_B closed has four cells with mass and is
        # searched: the 969 grid points are scored once, for the grid
        # witness. Column generation scores its own first columns, the four
        # vertices and the stage's posteriors, and never the grid.
        grids = [0]
        value = EntropyObjective.value

        def counted_value(self, m):
            # Only a batch holding the grid has that many posteriors.
            grids[0] += m.shape[0] >= len(ascent._simplex_grid(4))
            return value(self, m)

        monkeypatch.setattr(EntropyObjective, "value", counted_value)
        joint = make_erasure_joint(ErasureParams(0.7, 0.5))
        result = maximize_equivocation(joint, SwitchConfig(s_b=True), OptimizerConfig(starts=8))
        assert result.rounds >= 1
        assert grids[0] == 1
        assert result.evaluations == 4561

    def test_first_master_starts_from_the_vertices_and_the_stage(self, monkeypatch):
        # The same searched solve: the first phase2_simplex call is the grid
        # LP, the second column generation's first master. Its columns are
        # the four vertices, then the posteriors of the stage's tables (the
        # grid witness and the uniform channel, whose posteriors are rho),
        # and no other grid point.
        masters = []
        solve = ascent.phase2_simplex

        def spied(a_eq, b_eq, c, tol):
            masters.append(a_eq.T.copy())
            return solve(a_eq, b_eq, c, tol)

        monkeypatch.setattr(ascent, "phase2_simplex", spied)
        joint = make_erasure_joint(ErasureParams(0.7, 0.5))
        result = maximize_equivocation(joint, SwitchConfig(s_b=True), OptimizerConfig(starts=8))
        assert result.rounds >= 1
        objective = secrecy_entropy_objective(joint, "B", ("A", "B"))
        live, rho = ascent._balanced_rows(objective)
        witness = grid_witness(joint, objective, ("A", "B"), result)
        uniform = np.full_like(witness, 1.0 / witness.shape[1])
        expected = [np.eye(live.size)]
        for table in (witness, uniform):
            joint_u = rho[:, None] * table[live]
            lam = joint_u.sum(axis=0)
            expected.append((joint_u[:, lam > 0.0] / lam[lam > 0.0]).T)
        assert len(masters[0]) == len(ascent._simplex_grid(4))
        np.testing.assert_allclose(masters[1], np.vstack(expected), rtol=0.0, atol=1e-15)


BINARY_COMMANDS = [
    ["region", "uncoded", "-i", "@abe", "--switches", "none"],
    ["order", "-i", "@abe", "--check", "less-noisy-eb"],
    ["order", "-i", "@abe", "--check", "less-noisy-be"],
    ["region", "coded", "-i", "@ace", "--v-grid", "2"],
]


@pytest.mark.parametrize("argv", BINARY_COMMANDS, ids=lambda argv: " ".join(argv[:4]))
def test_binary_source_output_is_seed_free(argv, tmp_path, capsys):
    # --v-grid 2 keeps the coded sweep to the identity and constant
    # quantizers; later ones are drawn from --seed.
    rng = np.random.default_rng(12)
    files = {}
    for name, names in (("abe", "ABE"), ("ace", "ACE")):
        joint = dirichlet_joint(rng, (2, 3, 3), names=tuple(names))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(distribution_to_dict(joint)))
        files[f"@{name}"] = str(path)
    argv = [files.get(a, a) for a in argv]
    outputs = set()
    for extra in (["--seed", "0"], ["--seed", "5"], ["--starts", "1"], ["--starts", "64"]):
        assert main(argv + extra) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
