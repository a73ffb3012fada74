import math

import numpy as np
import pytest

from secomp import ascent, regions
from secomp.erasure import ErasureParams, gap_filler_u, make_erasure_joint
from secomp.probability import (
    Alphabet,
    Channel,
    DistributionError,
    JointPMF,
    build_joint,
    entropy_of,
    marginalize,
    mutual_information_of,
    rename_variable,
)
from secomp.orderings import search_less_noisy_violation
from secomp.regions import (
    OptimizerConfig,
    SwitchConfig,
    closed_form_delta,
    coded_inner_bound_sample,
    maximize_equivocation,
    secrecy_entropy_objective,
    secrecy_objective,
)

from conftest import cells_of, dirichlet_joint, mi_brute, permute_symbols, random_channel

NONE = SwitchConfig()
SB = SwitchConfig.from_name("sb")
SE = SwitchConfig.from_name("se")
BOTH = SwitchConfig.from_name("both")

# Small budget for unit tests; acceptance runs the defaults.
FAST = OptimizerConfig(starts=6, seed=3)


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


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(starts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(seed=-1)

    def test_rejects_non_integer_starts_and_seed(self):
        # Unchecked, either one failed a searched solve deep in column generation.
        with pytest.raises(TypeError):
            OptimizerConfig(starts=2.5)
        with pytest.raises(TypeError):
            OptimizerConfig(seed=1.5)
        cfg = OptimizerConfig(starts=np.int64(3), seed=np.int64(3))
        assert (cfg.starts, cfg.seed) == (3, 3) and cfg == OptimizerConfig(starts=3, seed=3)


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
        channel = gap_filler_u(SB)
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
        # A Dirichlet 2x3x3 joint: six cells carry mass, too many for a grid
        # witness, so the trace is the uniform channel, then the witness of
        # column generation.
        joint = dirichlet_joint(np.random.default_rng(0), (2, 3, 3))
        result = maximize_equivocation(joint, SB, FAST)
        assert len(result.objective_trace) == 2
        assert result.objective_trace[0] == pytest.approx(
            secrecy_objective(joint, Channel.uniform(
                (("A", joint.alphabet("A")), ("B", joint.alphabet("B"))),
                ("U", Alphabet("U", ("u0",)))), SB), abs=1e-12)
        assert result.delta_star >= max(0.0, max(result.objective_trace)) - 1e-15
        assert 1 <= result.starts_agreeing <= len(result.objective_trace)
        # With a binary source and S_B open the envelope solves the problem:
        # the trace is its witness and the uniform channel.
        result = maximize_equivocation(joint, NONE, FAST)
        assert len(result.objective_trace) == 2
        assert result.rounds == 0

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

    def test_convergence_diagnostics(self, monkeypatch):
        joint = dirichlet_joint(np.random.default_rng(0), (2, 3, 3))
        result = maximize_equivocation(joint, SB, FAST)
        assert 1 <= result.rounds < ascent.MAX_ROUNDS
        assert not result.hit_max_rounds and not result.certified
        monkeypatch.setattr(ascent, "MAX_ROUNDS", 1)
        capped = maximize_equivocation(joint, SB, OptimizerConfig(starts=3, seed=3))
        assert capped.rounds == 1
        assert capped.hit_max_rounds


class TestUpperBound:
    @pytest.mark.parametrize("sizes", [(2, 3, 3), (3, 3, 3)], ids=["2x3x3", "3x3x3"])
    @pytest.mark.parametrize("switches", [NONE, SB, SE, BOTH], ids=lambda s: s.name)
    def test_lower_never_exceeds_upper(self, sizes, switches, monkeypatch):
        # The bound holds wherever the search stops, so a short round cap
        # keeps the S_B-closed searches quick.
        monkeypatch.setattr(ascent, "MAX_ROUNDS", 2)
        rng = np.random.default_rng(2027)
        for _ in range(10):
            joint = dirichlet_joint(rng, sizes)
            result = maximize_equivocation(joint, switches, OptimizerConfig(starts=1, seed=1))
            assert result.delta_star <= result.upper_bound
            assert max(result.objective_trace) <= result.upper_bound


class TestSbClosedCertificate:
    """S_B closed on the erasure family: exact for p_b <= 1/2, both never below sb or se."""

    def test_erasure_grid(self, monkeypatch):
        # Above p_b = 1/2 the search runs; a short round cap keeps it quick,
        # and every check there holds wherever a search stops.
        monkeypatch.setattr(ascent, "MAX_ROUNDS", 2)
        configs = (OptimizerConfig(starts=1, seed=0), OptimizerConfig(starts=3, seed=7))
        grid = np.round(np.arange(0.0, 1.01, 0.1), 10)
        for pb in grid:
            for pe in grid:
                joint = make_erasure_joint(ErasureParams(pb, pe))
                h_a_e = entropy_of(joint, "A", "E")
                se = maximize_equivocation(joint, SE).delta_star
                runs = []
                for cfg in configs if pb <= 0.5 else configs[:1]:
                    sb = maximize_equivocation(joint, SB, cfg)
                    both = maximize_equivocation(joint, BOTH, cfg)
                    runs.append((sb, both))
                    for result in (sb, both):
                        assert result.delta_star <= h_a_e + 1e-12
                    assert both.delta_star >= se - 1e-12
                    assert both.delta_star >= sb.delta_star - 1e-12
                if pb > 0.5:
                    continue
                for result in (r for pair in runs for r in pair):
                    assert result.delta_star == pytest.approx(pe, abs=1e-12)
                    assert result.rounds == 0
                for first, other in zip(runs[0], runs[1]):
                    assert first.objective_trace == other.objective_trace
                    np.testing.assert_array_equal(first.best_u.rows, other.best_u.rows)

    @pytest.mark.parametrize(
        "joint",
        [make_erasure_joint(ErasureParams(0.7, 0.5))]
        + [dirichlet_joint(np.random.default_rng((2008, k)), (2, 3, 3)) for k in range(3)],
        ids=["erasure-0.7-0.5", "dirichlet-0", "dirichlet-1", "dirichlet-2"],
    )
    def test_both_never_below_searched_sb(self, joint):
        # Every sb channel is a both channel, and both scores sb's solution.
        cfg = OptimizerConfig(starts=2)
        sb = maximize_equivocation(joint, SB, cfg)
        both = maximize_equivocation(joint, BOTH, cfg)
        assert not sb.certified
        assert both.delta_star >= sb.delta_star - 1e-12

    @pytest.mark.parametrize(
        "joint, cfg",
        [(make_erasure_joint(ErasureParams(0.1, 0.3)), OptimizerConfig()),
         (make_erasure_joint(ErasureParams(0.7, 0.5)), OptimizerConfig(starts=2)),
         (dirichlet_joint(np.random.default_rng((2008, 34)), (2, 3, 3)),
          OptimizerConfig(starts=2))],
        ids=["erasure-0.1-0.3", "erasure-0.7-0.5", "dirichlet"],
    )
    def test_both_is_one_secrecy_solve_after_sb(self, joint, cfg, monkeypatch):
        # both enters maximize_equivocation once: its sb stage is sb's
        # secrecy solve, and both is the solve over (A, B, E) that scores the
        # copy of E and sb's channel first, with sb's evaluations added.
        entries = []
        solve = regions.maximize_equivocation
        monkeypatch.setattr(regions, "maximize_equivocation",
                            lambda *args: entries.append(args) or solve(*args))
        both = regions.maximize_equivocation(joint, BOTH, cfg)
        assert len(entries) == 1
        sb = maximize_equivocation(joint, SB, cfg)
        specs = tuple((v, joint.alphabet(v)) for v in "ABE")
        alone = regions.maximize_secrecy(
            joint, "B", specs, cfg,
            candidates=[Channel.copy_of(specs[2], "U"), sb.best_u])
        assert both.delta_star > 0.0
        assert both.delta_star == alone.delta_star
        assert both.best_u.rows.tobytes() == alone.best_u.rows.tobytes()
        assert both.objective_trace == alone.objective_trace
        assert both.evaluations == alone.evaluations + sb.evaluations

    @pytest.mark.parametrize("switches", [SB, BOTH], ids=lambda s: s.name)
    def test_search_runs_as_it_would_alone(self, switches):
        # Where nothing certifies, the channels scored first keep their
        # values, the uniform channel last among them, and the witness of
        # column generation follows, bit for bit that of a plain
        # maximize_channel run with the same candidates and an unreachable
        # bound; delta_star is its value.
        cfg = OptimizerConfig(starts=2, seed=1)
        joints = [make_erasure_joint(ErasureParams(0.7, 0.5)),
                  make_erasure_joint(ErasureParams(0.9, 0.6)),
                  dirichlet_joint(np.random.default_rng(5), (2, 3, 3))]
        for joint in joints:
            result = maximize_equivocation(joint, switches, cfg)
            assert not result.certified
            cond_vars = tuple((v, joint.alphabet(v)) for v in switches.conditioning_vars())
            uniform = Channel.uniform(cond_vars, ("U", Alphabet("U", ("u0",))))
            assert result.objective_trace[-2] == pytest.approx(
                secrecy_objective(joint, uniform, switches), abs=1e-12)
            assert result.objective_trace[-1] >= max(result.objective_trace[:-1]) - 1e-12
            assert result.delta_star == pytest.approx(
                secrecy_objective(joint, result.best_u, switches), abs=1e-12)
            # The same search alone: the grid's witness (four cells with
            # mass), the copy of E and sb's solution (both only), the
            # uniform channel.
            objective = secrecy_entropy_objective(joint, "B", switches.conditioning_vars())
            candidates = []
            if switches.s_e:
                candidates = [Channel.copy_of(("E", joint.alphabet("E")), "U"),
                              maximize_equivocation(joint, SB, cfg).best_u]
            plain = ascent.maximize_channel(objective, cond_vars, cfg, lambda: math.inf, candidates)
            assert result.objective_trace == plain.objective_trace
            assert (result.rounds, result.hit_max_rounds) == (plain.rounds, plain.hit_max_rounds)
            np.testing.assert_array_equal(result.best_u.rows, plain.best_u.rows)


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
        assert result.rounds == 0
        assert not result.hit_max_rounds
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
        assert result.r_a == pytest.approx(0.1, abs=1e-9)
        assert result.r_c == pytest.approx(entropy_of(joint, "C"), abs=1e-9)
        assert result.delta == pytest.approx(0.2, abs=1e-3)
        assert result.sum_ok

    def test_constant_quantizer_gives_nothing(self):
        joint = self.make_ace(0.1, 0.3)
        v = Channel.uniform(
            (("C", joint.alphabet("C")),), ("V", Alphabet("V", ("v0",)))
        )
        result = coded_inner_bound_sample(joint, v, FAST)
        assert result.delta == 0.0
        assert result.r_c == 0.0
        assert result.r_a == pytest.approx(1.0, abs=1e-12)

    def test_erasure_flag_quantizer_cannot_beat_full_side_information(self):
        joint = self.make_ace(0.1, 0.3)
        # V = e where C is erased, s for either bit.
        v = Channel((("C", joint.alphabet("C")),), ("V", Alphabet("V", ("s", "e"))),
                    [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = coded_inner_bound_sample(joint, v, FAST)
        assert result.delta <= 0.2 + 1e-6
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
        assert result.delta == 0.0

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
        assert result.sum_ok == (result.r_a + result.delta >= h_a_e - 1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_corner_is_nonnegative(self, seed):
        # Every rate the package computes is a sum of nonnegative terms or a
        # snapped maximum, so no corner coordinate falls below 0, even for
        # the constant quantizer, where I(C;V) and delta are exactly 0.
        rng = np.random.default_rng((2008, seed))
        joint = dirichlet_joint(rng, (2 + seed % 2, 2 + seed % 3, 2 + seed % 4), ("A", "C", "E"))
        alph_c = ("C", joint.alphabet("C"))
        quantizers = [
            Channel.copy_of(alph_c, "V"),
            Channel.uniform((alph_c,), ("V", Alphabet("V", ("v0",)))),
            random_channel(rng, joint, ("C",), "V", alph_c[1].size + 2),
        ]
        for v in quantizers:
            result = coded_inner_bound_sample(joint, v, FAST)
            assert result.r_a >= 0.0 and result.r_c >= 0.0 and result.delta >= 0.0
            assert result.delta == result.opt.delta_star


class TestDataProcessing:
    """Passing E through a channel never helps Eve: an oracle with no closed form.

    E' is drawn from E alone, so (U, A) - E - E' for every channel that does
    not see E, and I(A;E'|U) <= I(A;E|U) and I(U;E') <= I(U;E). So the
    ``none`` value and every coded corner cannot fall, the violation
    I(U;E) - I(U;B) of B less noisy than E cannot rise, and that of E less
    noisy than B, I(U;B) - I(U;E), cannot fall. On a binary source each of
    these is an exact envelope solve. ``se`` and ``both`` are left out: their
    channels see E, and degrading E can lower them. With A and E independent
    fair bits and B = A xor E, I(A;B|E) = 1, but through a constant E' it is
    I(A;B) = 0.
    """

    @staticmethod
    def violation(joint, direction):
        stronger, weaker = ("B", "E") if direction == "b_less_noisy_than_e" else ("E", "B")
        verdict = search_less_noisy_violation(joint, FAST, direction)
        return verdict.opt.delta_star - (
            entropy_of(joint, "A", weaker) - entropy_of(joint, "A", stronger)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_degrading_eve_never_helps_her(self, seed):
        rng = np.random.default_rng((2032, seed))
        joint = dirichlet_joint(rng, (2, 2 + seed % 3, 2 + seed // 3 % 3))
        e_prime = random_channel(rng, joint, ("E",), "F", 2 + seed % 4)
        degraded = rename_variable(
            marginalize(build_joint(joint, e_prime), ("A", "B", "F")), "F", "E"
        )
        assert maximize_equivocation(degraded, NONE, FAST).delta_star >= (
            maximize_equivocation(joint, NONE, FAST).delta_star - 1e-9
        )
        ace, ace_degraded = (rename_variable(j, "B", "C") for j in (joint, degraded))
        v = random_channel(rng, ace, ("C",), "V", ace.alphabet("C").size + 1)
        assert coded_inner_bound_sample(ace_degraded, v, FAST).delta >= (
            coded_inner_bound_sample(ace, v, FAST).delta - 1e-9
        )
        assert self.violation(degraded, "b_less_noisy_than_e") <= (
            self.violation(joint, "b_less_noisy_than_e") + 1e-9
        )
        assert self.violation(degraded, "e_less_noisy_than_b") >= (
            self.violation(joint, "e_less_noisy_than_b") - 1e-9
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_certified_none_value_never_falls(self, seed):
        # On a binary source both none solves are certified envelope values,
        # so they keep the inequality to rounding: 16 of these 40 joints have
        # a positive value, and none falls.
        rng = np.random.default_rng((77, seed))
        joint = dirichlet_joint(rng, (2, 3, 3))
        e_prime = random_channel(rng, joint, ("E",), "F", 2 + seed % 3)
        degraded = rename_variable(
            marginalize(build_joint(joint, e_prime), ("A", "B", "F")), "F", "E"
        )
        config = OptimizerConfig(starts=4, seed=0)
        before, after = (maximize_equivocation(j, NONE, config) for j in (joint, degraded))
        assert before.certified and after.certified
        assert after.delta_star >= before.delta_star - 1e-12


_RELABEL_JOINTS = [
    (f"2x3x3-(2035,{k})", dirichlet_joint(np.random.default_rng((2035, k)), (2, 3, 3)),
     (NONE, SE))
    for k in range(20)
] + [
    (f"erasure-{pb}-{pe}", make_erasure_joint(ErasureParams(pb, pe)),
     (NONE, SB, SE, BOTH) if pb <= 0.5 else (NONE, SE))
    for pb, pe in ((0.1, 0.3), (0.3, 0.6), (0.5, 0.2), (0.25, 0.9), (0.7, 0.5), (0.9, 0.1))
]


class TestRelabelling:
    """Certified solves of a joint and of its relabelled copies bound each other.

    Listing a variable's symbols in another order leaves the distribution as
    it is, so a value reached on one listing is a value of the other's
    problem, at most its upper bound. The certified solves are ``none`` (the
    two-row envelope), ``se`` (its closed form) and, on erasure joints with
    p_b <= 1/2, ``sb`` and ``both``. Searched solves are left out: they miss
    each other by up to 4.3e-3 (ROADMAP item 5).
    """

    @pytest.mark.parametrize("joint, settings", [case[1:] for case in _RELABEL_JOINTS],
                             ids=[case[0] for case in _RELABEL_JOINTS])
    def test_certified_solves_bound_each_other(self, joint, settings):
        rng = np.random.default_rng(35)
        relabelled = [
            permute_symbols(joint, {name: rng.permutation(a.size) for name, a in joint.variables})
            for _ in range(3)
        ]
        for other in relabelled:
            assert cells_of(other) == pytest.approx(cells_of(joint), rel=1e-15, abs=0.0)
        for switches in settings:
            result = maximize_equivocation(joint, switches)
            assert result.certified
            for other in relabelled:
                moved = maximize_equivocation(other, switches)
                assert moved.certified
                assert moved.delta_star <= result.upper_bound + 1e-12
                assert result.delta_star <= moved.upper_bound + 1e-12
