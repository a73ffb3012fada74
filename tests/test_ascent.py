import numpy as np
import pytest

from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.orderings import less_noisy_objective
from secomp.probability import build_joint, mutual_information_of
from secomp.regions import SwitchConfig, secrecy_entropy_objective, secrecy_objective

from conftest import dirichlet_joint, random_channel

SWITCHES = [SwitchConfig.from_name(name) for name in ("none", "sb", "se", "both")]


def table_of(channel):
    """Channel rows as a one-start optimizer table (1, rows, symbols)."""
    return channel.rows.reshape(1, -1, channel.rows.shape[-1])


def sequential_vertex(objective, w, r, f):
    """Reference vertex step: try each one-hot row in turn, keep strict gains."""
    pick = np.full(w.shape[0], -1)
    for u in range(w.shape[2]):
        cand = w.copy()
        cand[:, r, :] = 0.0
        cand[:, r, u] = 1.0
        f_cand = objective(cand)
        take = f_cand > f
        pick = np.where(take, u, pick)
        f = np.where(take, f_cand, f)
    return pick


def batched_vertex(objective, w, r, f):
    f_vertex = objective.vertex_values(objective.marginals(w), w, r)
    u = np.argmax(f_vertex, axis=1)
    return np.where(f_vertex[np.arange(w.shape[0]), u] > f, u, -1)


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
        rng = np.random.default_rng(107)
        for _ in range(10):
            joint = dirichlet_joint(rng, (3, 3, 2))
            objective = less_noisy_objective(joint, stronger, weaker)
            channel = random_channel(rng, joint, ("A",), "U", 4)
            with_u = build_joint(joint, channel)
            expected = mutual_information_of(with_u, "U", weaker) - mutual_information_of(
                with_u, "U", stronger
            )
            assert objective(table_of(channel))[0] == pytest.approx(expected, abs=1e-12)

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
    def test_line_point_matches_full_recompute(self):
        rng = np.random.default_rng(113)
        for switches in SWITCHES:
            joint = dirichlet_joint(rng, (2, 3, 3))
            objective = secrecy_entropy_objective(joint, "B", switches.conditioning_vars())
            n_starts, n_symbols = 4, 5
            w = rng.dirichlet(np.ones(n_symbols), size=(n_starts, objective.n_rows))
            m0 = objective.marginals(w)
            for r in range(objective.n_rows):
                delta = rng.dirichlet(np.ones(n_symbols), size=n_starts) - w[:, r, :]
                dm = objective.row_step(r, delta)
                t = rng.uniform(size=n_starts)
                moved = w.copy()
                moved[:, r, :] += t[:, None] * delta
                np.testing.assert_allclose(
                    objective.value(m0 + t[:, None, None] * dm), objective(moved),
                    rtol=0.0, atol=1e-12,
                )

    def test_vertex_values_match_full_recompute(self):
        rng = np.random.default_rng(127)
        joint = dirichlet_joint(rng, (2, 3, 3))
        objective = secrecy_entropy_objective(joint, "B", ("A", "E"))
        w = rng.dirichlet(np.ones(4), size=(3, objective.n_rows))
        m = objective.marginals(w)
        for r in range(objective.n_rows):
            f_vertex = objective.vertex_values(m, w, r)
            for u in range(4):
                cand = w.copy()
                cand[:, r, :] = np.eye(4)[u]
                np.testing.assert_allclose(f_vertex[:, u], objective(cand), rtol=0.0, atol=1e-12)

    def test_batched_vertex_step_picks_sequential_vertex(self):
        rng = np.random.default_rng(131)
        for switches in SWITCHES:
            joint = dirichlet_joint(rng, (2, 3, 3))
            objective = secrecy_entropy_objective(joint, "B", switches.conditioning_vars())
            w = rng.dirichlet(np.ones(4), size=(6, objective.n_rows))
            f = objective(w)
            for r in range(objective.n_rows):
                np.testing.assert_array_equal(
                    batched_vertex(objective, w, r, f), sequential_vertex(objective, w, r, f)
                )

    def test_batched_vertex_step_breaks_ties_like_sequential(self):
        # With every row uniform, both vertices of row 0 give mirror-image
        # marginals and so exactly the same value: the first one must win.
        joint = dirichlet_joint(np.random.default_rng(137), (2, 3, 3))
        objective = secrecy_entropy_objective(joint, "B", ("A",))
        w = np.full((3, objective.n_rows, 2), 0.5)
        f = objective(w) - 1.0
        f_vertex = objective.vertex_values(objective.marginals(w), w, 0)
        assert np.array_equal(f_vertex[:, 0], f_vertex[:, 1])
        batched = batched_vertex(objective, w, 0, f)
        np.testing.assert_array_equal(batched, [0, 0, 0])
        np.testing.assert_array_equal(batched, sequential_vertex(objective, w, 0, f))
