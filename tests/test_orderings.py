import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.orderings import (
    _phase1_simplex,
    check_stochastic_degradation,
    is_physically_degraded,
    search_less_noisy_violation,
)
from secomp.probability import (
    Alphabet,
    Channel,
    JointPMF,
    build_joint,
    marginalize,
    mutual_information_of,
)
from secomp.regions import OptimizerConfig, SwitchConfig, maximize_equivocation

from conftest import dirichlet_joint

FAST = OptimizerConfig(starts=8, max_iters=60, tol=1e-7, seed=5)


def markov_chain_joint(rng, n_a=2, n_b=3, n_e=3):
    """Random joint where the weaker observation factors through the stronger."""
    p_a = rng.dirichlet(np.ones(n_a))
    alph_a = Alphabet("A", tuple(f"a{i}" for i in range(n_a)))
    base = JointPMF((("A", alph_a),), p_a)
    to_b = Channel(
        (("A", alph_a),),
        ("B", Alphabet("B", tuple(f"b{i}" for i in range(n_b)))),
        rng.dirichlet(np.ones(n_b), size=n_a),
    )
    with_b = build_joint(base, to_b)
    to_e = Channel(
        (("B", with_b.alphabet("B")),),
        ("E", Alphabet("E", tuple(f"e{i}" for i in range(n_e)))),
        rng.dirichlet(np.ones(n_e), size=n_b),
    )
    return build_joint(with_b, to_e)


def compose_error(joint, certificate):
    """Max deviation of p(strong|a) @ q(weak|strong) from p(weak|a)."""
    strong = certificate.from_vars[0][0]
    weak = certificate.to_var[0]
    p_as = marginalize(joint, ("A", strong)).mass
    p_aw = marginalize(joint, ("A", weak)).mass
    p_a = p_as.sum(axis=1)
    keep = p_a > 0
    p_s_given_a = p_as[keep] / p_a[keep, None]
    p_w_given_a = p_aw[keep] / p_a[keep, None]
    return float(np.abs(p_s_given_a @ certificate.rows - p_w_given_a).max())


class TestPhase1Simplex:
    def test_finds_feasible_point(self):
        a_eq = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b_eq = np.array([1.0, 1.5])
        x = _phase1_simplex(a_eq, b_eq)
        assert x is not None
        assert (x >= 0).all()
        np.testing.assert_allclose(a_eq @ x, b_eq, atol=1e-10)

    def test_detects_infeasibility(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
        a_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
        b_eq = np.array([1.0, 2.0])
        assert _phase1_simplex(a_eq, b_eq) is None

    def test_nonnegativity_blocks_otherwise_solvable_system(self):
        a_eq = np.array([[1.0, 1.0]])
        b_eq = np.array([-0.5])
        assert _phase1_simplex(a_eq, b_eq) is None

    def test_handles_redundant_rows(self):
        a_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
        b_eq = np.array([1.0, 2.0])
        x = _phase1_simplex(a_eq, b_eq)
        assert x is not None
        np.testing.assert_allclose(a_eq @ x, b_eq, atol=1e-10)


def degradation_lp(joint, strong, weak):
    """The degradation LP built entry by entry, variables q[s, w] s-major.

    One row per (a, w): sum_s p(s|a) q[s, w] = p(w|a); then one row per
    supported s: sum_w q[s, w] = 1.
    """
    p_as = marginalize(joint, ("A", strong)).mass
    p_aw = marginalize(joint, ("A", weak)).mass
    p_a = p_as.sum(axis=1)
    keep = p_a > 0
    p_s = p_as[keep] / p_a[keep, None]
    p_w = p_aw[keep] / p_a[keep, None]
    support = np.flatnonzero(p_as.sum(axis=0) > 0)
    n_w = p_w.shape[1]
    rows, rhs = [], []
    for a in range(p_s.shape[0]):
        for w in range(n_w):
            row = np.zeros(support.size * n_w)
            for k, s in enumerate(support):
                row[k * n_w + w] = p_s[a, s]
            rows.append(row)
            rhs.append(p_w[a, w])
    for k in range(support.size):
        row = np.zeros(support.size * n_w)
        row[k * n_w : (k + 1) * n_w] = 1.0
        rows.append(row)
        rhs.append(1.0)
    return np.array(rows), np.array(rhs)


class TestPhase1AgainstLinprog:
    """scipy's HiGHS solver as a second solver for the degradation LPs."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_feasibility_verdict(self, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng((2008, 9, seed))
        sizes = [(2, 3, 3), (2, 4, 3), (3, 3, 4), (3, 4, 4)][seed % 4]
        chain = markov_chain_joint(rng, *sizes)
        for joint in (chain, dirichlet_joint(rng, sizes)):
            for direction, strong, weak in (
                ("e_degraded_wrt_b", "B", "E"),
                ("b_degraded_wrt_e", "E", "B"),
            ):
                a_eq, b_eq = degradation_lp(joint, strong, weak)
                x = _phase1_simplex(a_eq, b_eq)
                ref = linprog(
                    np.zeros(a_eq.shape[1]), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                    method="highs",
                )
                assert ref.status in (0, 2)  # solved or infeasible
                feasible = ref.status == 0
                assert (x is not None) == feasible
                verdict = check_stochastic_degradation(joint, direction)
                assert (verdict.kind == "degraded") == feasible
                if joint is chain and direction == "e_degraded_wrt_b":
                    assert feasible
                if feasible:
                    assert np.abs(a_eq @ x - b_eq).max() <= 1e-10


class TestDegradation:
    def test_erasure_pair_is_degraded_with_known_certificate(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        verdict = check_stochastic_degradation(joint, "e_degraded_wrt_b")
        assert verdict.kind == "degraded"
        rows = verdict.certificate.rows
        # The degrading channel is itself an erasure channel with rate
        # (p_e - p_b) / (1 - p_b) = 2/9 that also fixes the erasure symbol.
        assert rows[0, 2] == pytest.approx(2 / 9, abs=1e-6)
        assert rows[1, 2] == pytest.approx(2 / 9, abs=1e-6)
        assert rows[0, 0] == pytest.approx(7 / 9, abs=1e-6)
        assert rows[2, 2] == pytest.approx(1.0, abs=1e-9)
        assert compose_error(joint, verdict.certificate) <= 1e-8

    def test_reversed_direction_is_infeasible(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        assert check_stochastic_degradation(joint, "b_degraded_wrt_e").kind == "not_degraded"
        reversed_joint = make_erasure_joint(ErasureParams(0.3, 0.1))
        assert (
            check_stochastic_degradation(reversed_joint, "e_degraded_wrt_b").kind
            == "not_degraded"
        )

    def test_identical_observations_give_identity_certificate(self):
        alph_a = Alphabet("A", ("0", "1"))
        base = JointPMF((("A", alph_a),), np.array([0.5, 0.5]))
        to_b = Channel(
            (("A", alph_a),),
            ("B", Alphabet("B", ("0", "1", "e"))),
            np.array([[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]]),
        )
        with_b = build_joint(base, to_b)
        joint = build_joint(with_b, Channel.copy_of(("B", with_b.alphabet("B")), "E"))
        verdict = check_stochastic_degradation(joint, "e_degraded_wrt_b")
        assert verdict.kind == "degraded"
        np.testing.assert_allclose(verdict.certificate.rows, np.eye(3), atol=1e-8)
        assert verdict.physically_degraded

    def test_certificates_sound_on_random_markov_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            joint = markov_chain_joint(rng)
            verdict = check_stochastic_degradation(joint, "e_degraded_wrt_b")
            assert verdict.kind == "degraded"
            assert compose_error(joint, verdict.certificate) <= 1e-8

    def test_physical_flag_separates_couplings(self):
        # Independent erasures share the right marginals but are not a chain.
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        assert is_physically_degraded(joint, "e_degraded_wrt_b") is False
        verdict = check_stochastic_degradation(joint, "e_degraded_wrt_b")
        assert verdict.physically_degraded is False
        rng = np.random.default_rng(9)
        chain = markov_chain_joint(rng)
        assert is_physically_degraded(chain, "e_degraded_wrt_b") is True

    def test_rejects_unknown_direction(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        with pytest.raises(ValueError):
            check_stochastic_degradation(joint, "b_degraded_wrt_a")


class TestLessNoisy:
    def test_degraded_instance_not_falsified(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        verdict = search_less_noisy_violation(joint, FAST)
        assert verdict.kind == "less_noisy_not_falsified"
        assert verdict.budget_used == FAST.starts + 2

    def test_trivial_violation_found_with_unit_gap(self):
        alph_a = Alphabet("A", ("0", "1"))
        base = JointPMF((("A", alph_a),), np.array([0.5, 0.5]))
        with_b = build_joint(
            base, Channel.uniform((("A", alph_a),), ("B", Alphabet("B", ("b",))))
        )
        joint = build_joint(with_b, Channel.copy_of(("A", alph_a), "E"))
        verdict = search_less_noisy_violation(joint, FAST)
        assert verdict.kind == "less_noisy_falsified"
        assert verdict.gap == pytest.approx(1.0, abs=1e-6)

    def test_reversed_erasure_violation(self):
        joint = make_erasure_joint(ErasureParams(0.3, 0.1))
        # The identity witness alone already certifies a 0.2-bit gap.
        witness = Channel.copy_of(("A", joint.alphabet("A")), "U")
        extended = build_joint(joint, witness)
        by_hand = mutual_information_of(extended, "U", "E") - mutual_information_of(
            extended, "U", "B"
        )
        assert by_hand == pytest.approx(0.2, abs=1e-12)
        verdict = search_less_noisy_violation(joint, FAST)
        assert verdict.kind == "less_noisy_falsified"
        assert verdict.gap >= 0.2 - 1e-2

    def test_witness_value_reproducible_through_measures(self):
        joint = make_erasure_joint(ErasureParams(0.3, 0.1))
        verdict = search_less_noisy_violation(joint, FAST)
        extended = build_joint(joint, verdict.witness)
        gap = mutual_information_of(extended, "U", "E") - mutual_information_of(
            extended, "U", "B"
        )
        assert gap == pytest.approx(verdict.gap, abs=1e-9)

    def test_opposite_direction_on_reversed_instance(self):
        joint = make_erasure_joint(ErasureParams(0.3, 0.1))
        verdict = search_less_noisy_violation(
            joint, FAST, direction="e_less_noisy_than_b"
        )
        assert verdict.kind == "less_noisy_not_falsified"

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_degradation_implies_no_witness(self, seed):
        rng = np.random.default_rng(seed)
        joint = markov_chain_joint(rng)
        assert check_stochastic_degradation(joint, "e_degraded_wrt_b").kind == "degraded"
        cfg = OptimizerConfig(starts=4, max_iters=35, tol=1e-6, seed=seed % 1000)
        assert search_less_noisy_violation(joint, cfg).kind == "less_noisy_not_falsified"


class TestRelabelingAndCoupling:
    def permute_bob(self, joint, perm):
        alph = joint.alphabet("B")
        symbols = tuple(alph.symbols[i] for i in perm)
        mass = joint.mass[:, perm, :]
        return JointPMF(
            (("A", joint.alphabet("A")), ("B", Alphabet("B", symbols)), ("E", joint.alphabet("E"))),
            mass,
        )

    def test_relabeling_bob_preserves_verdicts(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        shuffled = self.permute_bob(joint, [2, 0, 1])
        for original, renamed in (
            (check_stochastic_degradation(joint), check_stochastic_degradation(shuffled)),
            (
                search_less_noisy_violation(joint, FAST),
                search_less_noisy_violation(shuffled, FAST),
            ),
        ):
            assert original.kind == renamed.kind

    def coupled_erasure_joint(self, pb, pe):
        """Same (A,B) and (A,E) marginals, but Eve erased whenever Bob is."""
        assert pe >= pb
        mass = np.zeros((2, 3, 3))
        for a in range(2):
            mass[a, a, a] += 0.5 * (1.0 - pe)
            mass[a, a, 2] += 0.5 * (pe - pb)
            mass[a, 2, 2] += 0.5 * pb
        return JointPMF(
            (
                ("A", Alphabet("A", ("0", "1"))),
                ("B", Alphabet("B", ("0", "1", "e"))),
                ("E", Alphabet("E", ("0", "1", "e"))),
            ),
            mass,
        )

    def test_coupling_invisible_to_verdicts_and_open_switch_value(self):
        independent = make_erasure_joint(ErasureParams(0.25, 0.5))
        coupled = self.coupled_erasure_joint(0.25, 0.5)
        np.testing.assert_allclose(
            marginalize(independent, ("A", "B")).mass,
            marginalize(coupled, ("A", "B")).mass,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            marginalize(independent, ("A", "E")).mass,
            marginalize(coupled, ("A", "E")).mass,
            atol=1e-15,
        )
        assert not np.allclose(independent.mass, coupled.mass)
        assert (
            check_stochastic_degradation(independent).kind
            == check_stochastic_degradation(coupled).kind
        )
        assert (
            search_less_noisy_violation(independent, FAST).kind
            == search_less_noisy_violation(coupled, FAST).kind
        )
        d_ind = maximize_equivocation(independent, SwitchConfig(), FAST).delta_star
        d_cpl = maximize_equivocation(coupled, SwitchConfig(), FAST).delta_star
        assert d_ind == pytest.approx(d_cpl, abs=1e-3)
