import math

import numpy as np
import pytest

from secomp.ascent import (
    _DIRECTIONS_PER_ROW,
    _GOLDEN_ITERS,
    _INVPHI,
    AscentResult,
    OptimizerConfig,
    maximize_channel,
    multistart_ascent,
    u_channel,
)
from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.orderings import less_noisy_objective
from secomp.probability import Channel, build_joint, mutual_information_of
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


# Reference ascent: the golden-section search, sweep and multi-start loop as
# they were before their fixed per-call costs were hoisted (one eval per
# opening point and for t = 1, per-row direction draws, per-sweep live-row
# test). The library's ascent must reproduce it bit for bit.


def _reference_value(objective, m):
    return objective.const + objective.column_values(m).sum(axis=-1)


def _reference_golden_max(eval_t, n_batch, iters):
    a = np.zeros(n_batch)
    b = np.ones(n_batch)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = eval_t(x1)
    f2 = eval_t(x2)
    for _ in range(iters):
        left = f1 >= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        old_x1, old_f1 = x1, f1
        old_x2, old_f2 = x2, f2
        x1 = np.where(left, b - _INVPHI * (b - a), old_x2)
        x2 = np.where(left, old_x1, a + _INVPHI * (b - a))
        f_new = eval_t(np.where(left, x1, x2))
        f1 = np.where(left, f_new, old_f2)
        f2 = np.where(left, old_f1, f_new)
    t = np.where(f1 >= f2, x1, x2)
    return t, np.maximum(f1, f2)


def _reference_sweep(objective, w, f, rngs):
    n_starts, n_rows, n_symbols = w.shape
    ones = np.ones(n_symbols)
    every = np.arange(n_starts)
    t_one = np.ones(n_starts)
    live = objective.proj.any(axis=1)
    m = objective.marginals(w)
    for r in range(n_rows):
        directions = [
            np.stack([rng.dirichlet(ones) for rng in rngs])
            for _ in range(_DIRECTIONS_PER_ROW)
        ]
        if not live[r]:
            continue
        f_vertex = objective.vertex_values(m, w, r)
        u = np.argmax(f_vertex, axis=1)
        f_u = f_vertex[every, u]
        take = f_u > f
        if take.any():
            w[take, r, :] = 0.0
            w[take, r, u[take]] = 1.0
            f = np.where(take, f_u, f)
            m = objective.marginals(w)
        for z in directions:
            base = w[:, r, :].copy()
            delta = z - base
            dm = objective.row_step(r, delta)

            def eval_t(t):
                return _reference_value(objective, m + t[:, None, None] * dm)

            t_best, f_best = _reference_golden_max(eval_t, n_starts, _GOLDEN_ITERS)
            f_vertex = eval_t(t_one)
            t_best = np.where(f_vertex > f_best, 1.0, t_best)
            f_best = np.maximum(f_vertex, f_best)
            take = f_best > f
            if take.any():
                moved = base[take] + t_best[take, None] * delta[take]
                w[take, r, :] = np.maximum(moved, 0.0)
                f = np.where(take, f_best, f)
                m = objective.marginals(w)
    return f


def _reference_multistart_ascent(objective, n_symbols, cfg, extra_rows=()):
    n_starts = cfg.starts + len(extra_rows)
    rngs = [np.random.default_rng((cfg.seed, s)) for s in range(n_starts)]
    w = np.empty((n_starts, objective.n_rows, n_symbols))
    ones = np.ones(n_symbols)
    for s in range(cfg.starts):
        w[s] = rngs[s].dirichlet(ones, size=objective.n_rows)
    for i, rows in enumerate(extra_rows):
        w[cfg.starts + i] = rows
    f = _reference_value(objective, objective.marginals(w))
    active = np.ones(n_starts, dtype=bool)
    sweeps = np.zeros(n_starts, dtype=int)
    for _ in range(cfg.max_iters):
        idx = np.flatnonzero(active)
        w_run = w[idx]
        f_run = _reference_sweep(objective, w_run, f[idx], [rngs[s] for s in idx])
        sweeps[idx] += 1
        active[idx] = (f_run - f[idx]) >= cfg.tol
        w[idx] = w_run
        f[idx] = f_run
        if not active.any():
            break
    return AscentResult(f, w, sweeps, bool(active.any()))


def _ascent_cases():
    joints = {
        "dirichlet": dirichlet_joint(np.random.default_rng(139), (2, 2, 3)),
        "erasure": make_erasure_joint(ErasureParams(0.1, 0.3)),
    }
    for joint_name, joint in joints.items():
        for switches in SWITCHES:
            cond = switches.conditioning_vars()
            n_rows = math.prod(joint.alphabet(v).size for v in cond)
            yield (f"{joint_name}-{switches.name}",
                   secrecy_entropy_objective(joint, "B", cond), n_rows + 1)
        yield f"{joint_name}-less-noisy", less_noisy_objective(joint, "B", "E"), 3


ASCENT_CASES = list(_ascent_cases())


class TestAscentMatchesReference:
    @pytest.mark.parametrize("case", ASCENT_CASES, ids=lambda case: case[0])
    @pytest.mark.parametrize("starts", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_bit_identical_to_reference(self, case, starts, seed):
        _, objective, n_symbols = case
        # A sweep cap keeps the slow cases short and also runs starts that hit it.
        cfg = OptimizerConfig(starts=starts, seed=seed, max_iters=30)
        uniform = [np.full((objective.n_rows, n_symbols), 1.0 / n_symbols)]
        got = multistart_ascent(objective, n_symbols, cfg, uniform)
        want = _reference_multistart_ascent(objective, n_symbols, cfg, uniform)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.tables, want.tables)
        assert np.array_equal(got.sweeps, want.sweeps)
        assert got.hit_max_iters == want.hit_max_iters


class TestMaximizeChannel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_ends_below_an_injected_start(self, seed):
        joint = dirichlet_joint(np.random.default_rng(seed), (3, 3, 3))
        cond = (("A", joint.alphabet("A")),)
        copy_a = Channel.copy_of(cond[0], "U")
        cfg = OptimizerConfig(starts=2, max_iters=20, seed=seed)
        for stronger, weaker in (("B", "E"), ("E", "B")):
            objective = less_noisy_objective(joint, stronger, weaker)
            ascent, best = maximize_channel(objective, cond, cfg, [copy_a])
            start_value = objective(table_of(u_channel(cond, copy_a.rows)))[0]
            # Random starts come first, then the injected one, then uniform.
            assert len(ascent.values) == cfg.starts + 2
            assert ascent.values[cfg.starts] >= start_value - 1e-12
            assert best.to_var[1].symbols == ("u0", "u1", "u2", "u3")
            assert objective(table_of(best))[0] == pytest.approx(ascent.values.max(), abs=1e-12)
