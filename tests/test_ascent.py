import functools

import numpy as np
import pytest

from secomp import ascent
from secomp.ascent import OptimizerConfig, maximize_channel, u_channel
from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.orderings import search_less_noisy_violation
from secomp.probability import Channel, build_joint, mutual_information_of, rename_variable
from secomp.regions import (
    SwitchConfig,
    maximize_equivocation,
    secrecy_entropy_objective,
    secrecy_objective,
)

from conftest import dirichlet_joint, random_channel

SWITCHES = [SwitchConfig.from_name(name) for name in ("none", "sb", "se", "both")]


def table_of(channel):
    """Channel rows as a one-table stack (1, rows, symbols)."""
    return channel.rows.reshape(1, -1, channel.rows.shape[-1])


class TestStackedObjective:
    @pytest.mark.parametrize("switches", SWITCHES, ids=lambda s: s.name)
    def test_matches_secrecy_objective(self, switches):
        rng = np.random.default_rng(101)
        cond = switches.conditioning_vars()
        for _ in range(10):
            joint = dirichlet_joint(rng, (2, 3, 3))
            objective = secrecy_entropy_objective(joint, "B", cond)
            for n_symbols in (2, 5):
                channel = random_channel(rng, joint, cond, "U", n_symbols)
                value = objective(table_of(channel))[0]
                assert value == pytest.approx(
                    secrecy_objective(joint, channel, switches), abs=1e-12
                )

    def test_matches_coded_objective(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            joint = dirichlet_joint(rng, (2, 3, 3), names=("A", "C", "E"))
            joint_v = build_joint(joint, random_channel(rng, joint, ("C",), "V", 3))
            objective = secrecy_entropy_objective(joint_v, "V", ("A",))
            channel = random_channel(rng, joint_v, ("A",), "U", 3)
            with_u = build_joint(joint_v, channel)
            expected = mutual_information_of(with_u, "A", "V", "U") - mutual_information_of(
                with_u, "A", "E", "U"
            )
            assert objective(table_of(channel))[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("stronger,weaker", [("B", "E"), ("E", "B")])
    def test_less_noisy_objective(self, stronger, weaker):
        # With U - A - (B, E) the violation I(U;weaker) - I(U;stronger) is the
        # secrecy objective with X = stronger, Y = weaker minus its constant-U value.
        rng = np.random.default_rng(107)
        for _ in range(10):
            joint = dirichlet_joint(rng, (3, 3, 2))
            objective = secrecy_entropy_objective(joint, stronger, ("A",), weaker)
            baseline = mutual_information_of(joint, "A", stronger) - mutual_information_of(
                joint, "A", weaker
            )
            channel = random_channel(rng, joint, ("A",), "U", 4)
            with_u = build_joint(joint, channel)
            expected = mutual_information_of(with_u, "U", weaker) - mutual_information_of(
                with_u, "U", stronger
            )
            value = objective(table_of(channel))[0] - baseline
            assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("switches", SWITCHES, ids=lambda s: s.name)
    def test_matches_on_joint_with_massless_cells(self, switches):
        # The erasure joint has zero cells and, under sb/se/both, rows of
        # conditioning cells without mass; their columns drop out of P.
        rng = np.random.default_rng(109)
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        cond = switches.conditioning_vars()
        objective = secrecy_entropy_objective(joint, "B", cond)
        assert objective.proj.shape[1] < 18
        for _ in range(5):
            channel = random_channel(rng, joint, cond, "U", 4)
            assert objective(table_of(channel))[0] == pytest.approx(
                secrecy_objective(joint, channel, switches), abs=1e-12
            )


class TestIncrementalMoves:
    def test_vertex_values_match_full_recompute(self):
        # Column generation scores a channel as sum_u lam_u c(q_u) over its
        # posteriors, c(q) the value of the one-column table q; on tables
        # with one row moved to each vertex of its simplex in turn, the sum
        # equals the value recomputed in full.
        rng = np.random.default_rng(127)
        joint = dirichlet_joint(rng, (2, 3, 3))
        objective = secrecy_entropy_objective(joint, "B", ("A", "E"))
        live, rho, scaled = objective.live, objective.rho, objective.scaled
        w = rng.dirichlet(np.ones(4), size=(3, objective.n_rows))
        for r in range(objective.n_rows):
            for u in range(4):
                cand = w.copy()
                cand[:, r, :] = np.eye(4)[u]
                joint_ru = rho[:, None] * cand[:, live, :]
                lam = joint_ru.sum(axis=1)
                q = np.moveaxis(joint_ru, 1, 2) / lam[:, :, None]
                c = objective.value((q @ scaled)[..., None])
                np.testing.assert_allclose((lam * c).sum(axis=1), objective(cand),
                                           rtol=0.0, atol=1e-12)


class TestMaximizeChannel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_ends_below_an_injected_start(self, seed):
        joint = dirichlet_joint(np.random.default_rng(seed), (3, 3, 3))
        cond = (("A", joint.alphabet("A")),)
        copy_a = Channel.copy_of(cond[0], "U")
        cfg = OptimizerConfig(starts=2, seed=seed)
        for stronger, weaker in (("B", "E"), ("E", "B")):
            objective = secrecy_entropy_objective(joint, stronger, ("A",), weaker)
            bound = mutual_information_of(joint, "A", stronger, (weaker,))
            result = maximize_channel(objective, cond, cfg, lambda: bound, [copy_a])
            values, best = np.array(result.objective_trace), result.best_u
            start_value = objective(table_of(u_channel(cond, copy_a.rows)))[0]
            # No channel scored first reaches I(A;X|Y) here, so column
            # generation runs: the trace is the grid witness, the copy of A,
            # the uniform channel, then the witness of column generation.
            assert len(values) == 4
            assert result.rounds >= 1 and not result.hit_max_rounds
            assert values[1] == start_value
            assert values[-1] >= values[:-1].max() - 1e-12
            assert values.max() <= result.upper_bound == bound
            assert best.to_var[1].symbols == ("u0", "u1", "u2", "u3")
            assert objective(table_of(best))[0] == pytest.approx(values.max(), abs=1e-12)


# delta_star of the multi-start ascent this solver replaced, at
# OptimizerConfig(starts=8): column generation must never be below them.
# Less-noisy-be is the secrecy maximum behind the check, X = E and Y = B.
JOINTS = {
    "erasure-0.7-0.5": lambda: make_erasure_joint(ErasureParams(0.7, 0.5)),
    "2x3x3-(2008,0)": lambda: dirichlet_joint(np.random.default_rng((2008, 0)), (2, 3, 3)),
    "2x3x3-(2008,1)": lambda: dirichlet_joint(np.random.default_rng((2008, 1)), (2, 3, 3)),
    "3x3x3-7": lambda: dirichlet_joint(np.random.default_rng(7), (3, 3, 3)),
    "5x2x2-300": lambda: dirichlet_joint(np.random.default_rng(300), (5, 2, 2)),
    "3x3x3-200": lambda: dirichlet_joint(np.random.default_rng(200), (3, 3, 3)),
}
ASCENT_VALUES = {
    ("erasure-0.7-0.5", "sb"): 0.44064544961534613,
    ("erasure-0.7-0.5", "both"): 0.4406454496153461,
    ("2x3x3-(2008,0)", "sb"): 0.8343691687850385,
    ("2x3x3-(2008,0)", "both"): 0.8552035082844482,
    ("2x3x3-(2008,1)", "sb"): 0.8361254781959667,
    ("2x3x3-(2008,1)", "both"): 0.8698425285353241,
    ("3x3x3-7", "none"): 0.0024625157427109468,
    ("3x3x3-7", "sb"): 1.2301864169188566,
    ("5x2x2-300", "none"): 0.01896672513413845,
    ("3x3x3-200", "less-noisy-be"): 0.036652616446743336,
}
CG = OptimizerConfig(starts=8)


@functools.cache
def solve(name, setting):
    """The searched solve: (joint, OptResult, switches its objective is scored under)."""
    joint = JOINTS[name]()
    if setting == "less-noisy-be":
        # I(A;E|U) - I(A;B|U) is the none objective with B and E swapped.
        opt = search_less_noisy_violation(joint, CG, "e_less_noisy_than_b").opt
        swapped = rename_variable(rename_variable(rename_variable(joint, "B", "X"), "E", "B"),
                                  "X", "E")
        return swapped, opt, SwitchConfig()
    switches = SwitchConfig.from_name(setting)
    return joint, maximize_equivocation(joint, switches, CG), switches


class TestColumnGeneration:
    @pytest.mark.parametrize("case", list(ASCENT_VALUES), ids="-".join)
    def test_never_below_the_ascent(self, case):
        _, opt, _ = solve(*case)
        assert not opt.certified and opt.rounds >= 1 and not opt.hit_max_rounds
        assert opt.delta_star >= ASCENT_VALUES[case] - 1e-9

    @pytest.mark.parametrize("case", list(ASCENT_VALUES), ids="-".join)
    def test_result_is_its_channel_and_under_the_bound(self, case):
        joint, opt, switches = solve(*case)
        assert secrecy_objective(joint, opt.best_u, switches) == pytest.approx(
            opt.delta_star, abs=1e-12)
        assert opt.delta_star == max(opt.objective_trace)
        assert opt.delta_star <= opt.upper_bound

    @pytest.mark.parametrize("name", ["erasure-0.7-0.5", "2x3x3-(2008,0)", "2x3x3-(2008,1)"])
    def test_both_at_least_sb(self, name):
        assert solve(name, "both")[1].delta_star >= solve(name, "sb")[1].delta_star - 1e-12

    def test_same_seed_same_output(self):
        joint, first, switches = solve("3x3x3-7", "sb")
        again = maximize_equivocation(joint, switches, CG)
        assert again.objective_trace == first.objective_trace
        assert (again.rounds, again.evaluations) == (first.rounds, first.evaluations)
        np.testing.assert_array_equal(again.best_u.rows, first.best_u.rows)

    def test_pricing_finds_what_the_ascent_missed(self):
        # The ascent stops at 0.836125 on this joint at any number of starts;
        # with pricing switched off, the master over the first columns alone
        # gives 0 here.
        assert solve("2x3x3-(2008,1)", "sb")[1].delta_star >= 0.8807

    def test_round_cap(self, monkeypatch):
        monkeypatch.setattr(ascent, "MAX_ROUNDS", 1)
        joint, _, switches = solve("2x3x3-(2008,1)", "sb")
        capped = maximize_equivocation(joint, switches, CG)
        assert (capped.rounds, capped.hit_max_rounds) == (1, True)
        assert secrecy_objective(joint, capped.best_u, switches) == pytest.approx(
            capped.delta_star, abs=1e-12)
