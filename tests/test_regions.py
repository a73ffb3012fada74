import numpy as np
import pytest

from secomp.erasure import ErasureParams, make_erasure_joint, optimal_u_for_switches
from secomp.probability import (
    Alphabet,
    Channel,
    DistributionError,
    JointPMF,
    build_joint,
    entropy_of,
    mutual_information_of,
    rename_variable,
)
from secomp.regions import (
    OptimizerConfig,
    RatePoint,
    SwitchConfig,
    closed_form_delta,
    coded_inner_bound_sample,
    maximize_equivocation,
    secrecy_objective,
)

from conftest import cells_of, dirichlet_joint, mi_brute, random_channel

NONE = SwitchConfig()
SB = SwitchConfig.from_name("sb")
SE = SwitchConfig.from_name("se")
BOTH = SwitchConfig.from_name("both")

# Small budget for unit tests; acceptance runs the defaults.
FAST = OptimizerConfig(starts=6, max_iters=60, tol=1e-7, seed=3)


class TestSwitchConfig:
    def test_round_trip_names(self):
        for name in ("none", "sb", "se", "both"):
            assert SwitchConfig.from_name(name).name == name

    def test_conditioning_sets(self):
        assert NONE.conditioning_vars() == ("A",)
        assert SB.conditioning_vars() == ("A", "B")
        assert SE.conditioning_vars() == ("A", "E")
        assert BOTH.conditioning_vars() == ("A", "B", "E")

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SwitchConfig.from_name("all")


class TestRatePoint:
    def test_clamps_tiny_negative(self):
        point = RatePoint(r_a=-1e-14, r_c=None, delta=0.2)
        assert point.r_a == 0.0

    def test_rejects_material_negative(self):
        with pytest.raises(ValueError):
            RatePoint(r_a=-0.1, r_c=None, delta=0.2)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(starts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(tol=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(seed=-1)


class TestSecrecyObjective:
    def test_constant_channel_gives_baseline(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        channel = Channel.uniform(
            (("A", joint.alphabet("A")),), ("U", Alphabet("U", ("u",)))
        )
        assert secrecy_objective(joint, channel, NONE) == pytest.approx(0.25, abs=1e-12)

    def test_copy_channel_gives_zero(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        channel = Channel.copy_of(("A", joint.alphabet("A")), "U")
        assert secrecy_objective(joint, channel, NONE) == pytest.approx(0.0, abs=1e-12)

    def test_gap_filling_channel_value(self):
        params = ErasureParams(0.25, 0.5)
        joint = make_erasure_joint(params)
        channel = optimal_u_for_switches(params, SB)
        assert secrecy_objective(joint, channel, SB) == pytest.approx(0.375, abs=1e-12)

    def test_rejects_conditioning_mismatch(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        channel = Channel.copy_of(("A", joint.alphabet("A")), "U")
        with pytest.raises(DistributionError):
            secrecy_objective(joint, channel, SB)

    def test_identity_with_entropy_difference(self):
        rng = np.random.default_rng(17)
        for switches in (NONE, SB, SE, BOTH):
            for _ in range(25):
                joint = dirichlet_joint(rng, (2, 3, 3))
                channel = random_channel(
                    rng, joint, switches.conditioning_vars(), "U", 3
                )
                extended = build_joint(joint, channel)
                direct = secrecy_objective(joint, channel, switches)
                via_entropies = entropy_of(extended, "A", ("E", "U")) - entropy_of(
                    extended, "A", ("B", "U")
                )
                assert direct == pytest.approx(via_entropies, abs=1e-10)

    def test_bounded_by_eve_uncertainty(self):
        rng = np.random.default_rng(23)
        for switches in (NONE, SB, SE, BOTH):
            for _ in range(25):
                joint = dirichlet_joint(rng, (2, 3, 3))
                channel = random_channel(
                    rng, joint, switches.conditioning_vars(), "U", 4
                )
                assert secrecy_objective(joint, channel, switches) <= (
                    entropy_of(joint, "A", "E") + 1e-10
                )

    def test_baseline_drop_equals_output_information_gap(self):
        # For channels fed by the source alone, conditioning costs exactly
        # I(B;U) - I(E;U) relative to the unconditioned difference.
        rng = np.random.default_rng(29)
        for _ in range(40):
            joint = dirichlet_joint(rng, (3, 3, 3))
            channel = random_channel(rng, joint, ("A",), "U", 4)
            extended = build_joint(joint, channel)
            base_gap = mutual_information_of(joint, "A", "B") - mutual_information_of(
                joint, "A", "E"
            )
            cond_gap = secrecy_objective(joint, channel, NONE)
            side_gap = mutual_information_of(extended, "B", "U") - mutual_information_of(
                extended, "E", "U"
            )
            assert base_gap - cond_gap == pytest.approx(side_gap, abs=1e-10)


class TestClosedForm:
    def test_less_noisy_value(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        assert closed_form_delta(joint, "less_noisy") == pytest.approx(0.2, abs=1e-12)

    def test_encoder_eve_value(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        assert closed_form_delta(joint, "se_closed") == pytest.approx(0.375, abs=1e-12)

    def test_clamps_at_zero(self):
        alph = Alphabet("A", ("0", "1"))
        mass = np.zeros((2, 2, 2))
        # B independent fair coin, E = A: the unclamped difference is -1.
        for a, b in np.ndindex(2, 2):
            mass[a, b, a] = 0.25
        joint = JointPMF(
            (("A", alph), ("B", Alphabet("B", ("0", "1"))), ("E", Alphabet("E", ("0", "1")))),
            mass,
        )
        assert closed_form_delta(joint, "less_noisy") == 0.0

    def test_rejects_unknown_mode(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        with pytest.raises(ValueError):
            closed_form_delta(joint, "sb_closed")


class TestMaximize:
    def test_erasure_baseline_found_exactly(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        result = maximize_equivocation(joint, NONE, FAST)
        assert result.delta_star == pytest.approx(0.2, abs=1e-3)

    def test_degraded_bob_gives_zero(self):
        joint = make_erasure_joint(ErasureParams(0.4, 0.2))
        result = maximize_equivocation(joint, NONE, FAST)
        assert result.delta_star <= 1e-3

    def test_encoder_side_information_beats_baseline(self):
        joint = make_erasure_joint(ErasureParams(0.5, 0.3))
        result = maximize_equivocation(joint, SB, FAST)
        assert result.delta_star >= 0.14
        assert result.delta_star <= entropy_of(joint, "A", "E") + 1e-9

    def test_deterministic_for_fixed_seed(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        first = maximize_equivocation(joint, SB, FAST)
        second = maximize_equivocation(joint, SB, FAST)
        assert first.delta_star == second.delta_star
        assert first.objective_trace == second.objective_trace
        assert first.starts_agreeing == second.starts_agreeing
        np.testing.assert_array_equal(first.best_u.rows, second.best_u.rows)

    def test_trace_covers_all_starts(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        result = maximize_equivocation(joint, NONE, FAST)
        assert len(result.objective_trace) == FAST.starts + 1  # plus uniform start
        assert result.delta_star >= max(0.0, max(result.objective_trace)) - 1e-15
        assert 1 <= result.starts_agreeing <= len(result.objective_trace)

    def test_lifted_channel_keeps_objective_and_seeds_larger_search(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        res_none = maximize_equivocation(joint, NONE, FAST)
        for switches, extra_var in ((SB, "B"), (SE, "E")):
            lifted = res_none.best_u.lift(
                (("A", joint.alphabet("A")), (extra_var, joint.alphabet(extra_var)))
            )
            assert secrecy_objective(joint, lifted, switches) == pytest.approx(
                secrecy_objective(joint, res_none.best_u, NONE), abs=1e-12
            )

    def test_convergence_diagnostics(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        result = maximize_equivocation(joint, SB, FAST)
        assert len(result.sweeps) == len(result.objective_trace)
        assert all(1 <= k <= FAST.max_iters for k in result.sweeps)
        assert max(result.sweeps) < FAST.max_iters
        assert not result.hit_max_iters
        capped = maximize_equivocation(joint, SB, OptimizerConfig(starts=3, max_iters=1, seed=3))
        assert capped.sweeps == (1,) * 4
        assert capped.hit_max_iters


class TestSeClosedForm:
    """With S_E closed and S_B open the maximum is I(A;B|E), at U = copy of E."""

    def test_equals_brute_force_conditional_information(self):
        rng = np.random.default_rng(2008)
        for sizes in ((2, 3, 3), (3, 3, 3)):
            for _ in range(10):
                joint = dirichlet_joint(rng, sizes)
                result = maximize_equivocation(joint, SE, FAST)
                exact = mi_brute(cells_of(joint), (0,), (1,), (2,))
                assert result.delta_star == pytest.approx(exact, abs=1e-12)
                assert secrecy_objective(joint, result.best_u, SE) == pytest.approx(
                    exact, abs=1e-12
                )

    def test_no_channel_beats_it(self):
        rng = np.random.default_rng(6)
        for sizes in ((2, 3, 3), (3, 3, 3)):
            for _ in range(5):
                joint = dirichlet_joint(rng, sizes)
                delta = maximize_equivocation(joint, SE, FAST).delta_star
                for n_symbols in (2, 3, 7):
                    for _ in range(20):
                        channel = random_channel(rng, joint, ("A", "E"), "U", n_symbols)
                        assert secrecy_objective(joint, channel, SE) <= delta + 1e-12

    def test_reports_one_start_without_sweeps(self):
        joint = dirichlet_joint(np.random.default_rng(11), (2, 3, 3))
        result = maximize_equivocation(joint, SE, FAST)
        assert result.objective_trace == (result.delta_star,)
        assert result.starts_agreeing == 1
        assert result.sweeps == (0,)
        assert not result.hit_max_iters
        assert result.best_u.to_var[1].symbols == tuple(f"u{i}" for i in range(7))
        np.testing.assert_array_equal(result.best_u.rows[:, :, 3:], 0.0)
        np.testing.assert_array_equal(result.best_u.rows[:, :, :3], np.eye(3)[None].repeat(2, 0))

    def test_eve_between_source_and_bob_gives_exact_zero(self):
        # A - E - B: Bob's view is Eve's passed through a further channel, so
        # I(A;B|E) = 0; rounding must not leave a ~1e-17 residue.
        rng = np.random.default_rng(13)
        for _ in range(10):
            p_ae = rng.dirichlet(np.ones(6)).reshape(2, 3)
            p_b_given_e = rng.dirichlet(np.ones(3), size=3)
            base = dirichlet_joint(rng, (2, 3, 3))
            joint = JointPMF(base.variables, np.einsum("ae,eb->abe", p_ae, p_b_given_e))
            assert maximize_equivocation(joint, SE, FAST).delta_star == 0.0


class TestCodedBound:
    def make_ace(self, pb, pe):
        return rename_variable(make_erasure_joint(ErasureParams(pb, pe)), "B", "C")

    def test_identity_quantizer_recovers_uncoded_corner(self):
        joint = self.make_ace(0.1, 0.3)
        v = Channel.copy_of(("C", joint.alphabet("C")), "V")
        result = coded_inner_bound_sample(joint, v, FAST)
        assert result.corner.r_a == pytest.approx(0.1, abs=1e-9)
        assert result.corner.r_c == pytest.approx(entropy_of(joint, "C"), abs=1e-9)
        assert result.corner.delta == pytest.approx(0.2, abs=1e-3)
        assert result.sum_ok

    def test_constant_quantizer_gives_nothing(self):
        joint = self.make_ace(0.1, 0.3)
        v = Channel.uniform(
            (("C", joint.alphabet("C")),), ("V", Alphabet("V", ("v0",)))
        )
        result = coded_inner_bound_sample(joint, v, FAST)
        assert result.corner.delta == 0.0
        assert result.corner.r_c == 0.0
        assert result.corner.r_a == pytest.approx(1.0, abs=1e-12)

    def test_erasure_flag_quantizer_cannot_beat_full_side_information(self):
        joint = self.make_ace(0.1, 0.3)
        v = Channel.deterministic(
            (("C", joint.alphabet("C")),),
            ("V", Alphabet("V", ("s", "e"))),
            lambda s: "e" if s[0] == "e" else "s",
        )
        result = coded_inner_bound_sample(joint, v, FAST)
        assert result.corner.delta <= 0.2 + 1e-6
        # The merged quantizer output is independent of the source, so no
        # auxiliary channel can manufacture a positive value; a coarse random
        # sweep through the exact evaluator confirms the ceiling is zero.
        rng = np.random.default_rng(41)
        extended = build_joint(joint, v)
        grid_best = -np.inf
        for _ in range(150):
            u = random_channel(rng, extended, ("A",), "U", 3)
            with_u = build_joint(extended, u)
            value = mutual_information_of(with_u, "A", "V", ("U",)) - (
                mutual_information_of(with_u, "A", "E", ("U",))
            )
            grid_best = max(grid_best, value)
        assert grid_best <= 1e-9
        assert result.corner.delta == 0.0

    def test_rejects_quantizer_not_fed_by_helper(self):
        joint = self.make_ace(0.1, 0.3)
        v = Channel.copy_of(("A", joint.alphabet("A")), "V")
        with pytest.raises(DistributionError):
            coded_inner_bound_sample(joint, v, FAST)

    def test_corner_certifies_rate_floor(self):
        joint = self.make_ace(0.25, 0.5)
        v = Channel.copy_of(("C", joint.alphabet("C")), "V")
        result = coded_inner_bound_sample(joint, v, FAST)
        h_a_e = entropy_of(joint, "A", "E")
        assert result.sum_ok == (result.corner.r_a + result.corner.delta >= h_a_e - 1e-9)
