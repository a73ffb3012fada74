from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secomp.erasure import ErasureParams, make_erasure_joint
from secomp import ascent, orderings
from secomp.lp import phase1_simplex
from secomp.orderings import (
    WITNESS_TOL,
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
    rename_variable,
)
from secomp.regions import OptimizerConfig, SwitchConfig, maximize_equivocation

from conftest import dirichlet_joint, markov_chain_joint

FAST = OptimizerConfig(starts=8, seed=5)


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
        x = phase1_simplex(a_eq, b_eq)
        assert x is not None
        assert (x >= 0).all()
        np.testing.assert_allclose(a_eq @ x, b_eq, atol=1e-10)

    def test_detects_infeasibility(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
        a_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
        b_eq = np.array([1.0, 2.0])
        assert phase1_simplex(a_eq, b_eq) is None

    def test_nonnegativity_blocks_otherwise_solvable_system(self):
        a_eq = np.array([[1.0, 1.0]])
        b_eq = np.array([-0.5])
        assert phase1_simplex(a_eq, b_eq) is None

    def test_handles_redundant_rows(self):
        a_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
        b_eq = np.array([1.0, 2.0])
        x = phase1_simplex(a_eq, b_eq)
        assert x is not None
        np.testing.assert_allclose(a_eq @ x, b_eq, atol=1e-10)

    @pytest.mark.parametrize("form", ["list", "int", "float"])
    def test_leaves_its_inputs_alone(self, form):
        # Rows 0 and 2 have b < 0; the solve negates them as it stacks the
        # tableau, which must match solving the negated system bit for bit.
        a_rows = [[-1, -1, 0, 0], [0, 1, 1, 0], [0, 0, -1, -1]]
        b_rows = [-2, 3, -4]
        a_eq, b_eq = {
            "list": (a_rows, b_rows),
            "int": (np.array(a_rows), np.array(b_rows)),
            "float": (np.array(a_rows, dtype=float), np.array(b_rows, dtype=float)),
        }[form]
        before = [np.array(v).tobytes() for v in (a_eq, b_eq)]
        x = phase1_simplex(a_eq, b_eq)
        assert [np.array(v).tobytes() for v in (a_eq, b_eq)] == before
        negated = phase1_simplex(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0, 1.0]]), np.array([2.0, 3.0, 4.0]))
        assert x is not None
        assert x.tobytes() == negated.tobytes()
        np.testing.assert_allclose(np.array(a_rows) @ x, b_rows, atol=1e-10)


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
                x = phase1_simplex(a_eq, b_eq)
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


def marginalized_conditionals(joint, var):
    """(p(a), p(var | a)) through ``marginalize``: how the check built them before."""
    pax = marginalize(joint, ("A", var))
    arr = pax.mass if pax.var_names == ("A", var) else pax.mass.T
    pa = arr.sum(axis=1)
    keep = pa > 0.0
    return pa[keep], arr[keep] / pa[keep, None]


def degradation_joints(rng, sizes, count):
    """(variables, mass) of Dirichlet joints and Markov chains, some with a
    zero-mass source symbol, zero-mass B and E symbols, or a 1e-13 share."""
    for k in range(count):
        joint = markov_chain_joint(rng, *sizes) if k % 2 else dirichlet_joint(rng, sizes)
        mass = joint.mass.copy()
        if k % 4 == 1:
            mass[rng.integers(sizes[0])] = 0.0
        elif k % 4 == 2:
            mass[:, rng.integers(sizes[1])] = 0.0
            mass[:, :, rng.integers(sizes[2])] = 0.0
        elif k % 4 == 3:
            mass[tuple(rng.integers(n) for n in sizes)] = 1e-13 * mass.sum()
        yield joint.variables, mass / mass.sum()


def in_order(variables, mass, order):
    """The joint over (A, B, E) ``variables`` with its axes in ``order``.

    Every order renormalizes the same cells summed in the same memory
    order, so all of them hold the same bits.
    """
    axes = tuple("ABE".index(name) for name in order)
    return JointPMF(tuple(variables[i] for i in axes), np.transpose(mass, axes))


class TestDegradation:
    @pytest.mark.parametrize("sizes", [(2, 3, 3), (3, 4, 4), (3, 3, 2), (2, 2, 3), (4, 3, 5)])
    def test_variable_order_and_reference_bits(self, sizes, monkeypatch):
        # The conditionals come from the joint's mass with its axes moved to
        # (A, strong, weak). Each pairwise marginal is renormalized as a
        # ``JointPMF`` renormalizes a ``marginalize`` result, so the system
        # phase 1 sees is the one built through ``marginalize``, bit for bit,
        # and every verdict is the one at (A, B, E) order.
        systems = []
        solve = orderings.phase1_simplex
        monkeypatch.setattr(orderings, "phase1_simplex",
                            lambda a_eq, b_eq: systems.append((a_eq, b_eq)) or solve(a_eq, b_eq))
        rng = np.random.default_rng((2008, 33, *sizes))
        for variables, mass in degradation_joints(rng, sizes, 40):
            for direction, (strong, weak) in orderings._DEGRADATION_ROLES.items():
                at_abe = check_stochastic_degradation(in_order(variables, mass, "ABE"), direction)
                for order in permutations("ABE"):
                    moved = in_order(variables, mass, order)
                    systems.clear()
                    verdict = check_stochastic_degradation(moved, direction)
                    _, p_strong = marginalized_conditionals(moved, strong)
                    _, p_weak = marginalized_conditionals(moved, weak)
                    support = np.flatnonzero(marginalize(moved, strong).mass > 0.0)
                    expected = orderings._degradation_system(p_strong[:, support], p_weak)
                    assert [v.tobytes() for v in systems[0]] == [v.tobytes() for v in expected]
                    assert verdict.kind == at_abe.kind
                    assert verdict.physically_degraded == at_abe.physically_degraded
                    if verdict.certificate is None:
                        assert at_abe.certificate is None
                    else:
                        rows = verdict.certificate.rows
                        assert rows.tobytes() == at_abe.certificate.rows.tobytes()

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

    def test_physical_flag_is_is_physically_degraded(self):
        # The check reads the flag off the array it builds the system from;
        # it must agree with the public function on both sides of
        # MARKOV_TOL. Chains A - B - E, and the same chains with B and E
        # swapped, with one cell's mass moved by 0.1x the tolerance stay
        # chains in their direction, and by 10x they do not always.
        rng = np.random.default_rng((2008, 34))
        cases = [(joint.variables, joint.mass, None, None) for joint in
                 [dirichlet_joint(rng, (2, 3, 3)) for _ in range(4)]
                 + [markov_chain_joint(rng) for _ in range(4)]]
        for scale in (0.1, 10.0):
            for _ in range(6):
                chain = markov_chain_joint(rng, 2, 3, 3)
                mass = chain.mass.copy()
                source, sink = rng.choice(mass.size, 2, replace=False)
                mass.flat[source] -= scale * orderings.MARKOV_TOL
                mass.flat[sink] += scale * orderings.MARKOV_TOL
                a, (_, alph_b), (_, alph_e) = chain.variables
                cases += [(chain.variables, mass, scale, "e_degraded_wrt_b"),
                          ((a, ("B", alph_e), ("E", alph_b)), mass.transpose(0, 2, 1), scale,
                           "b_degraded_wrt_e")]
        flags = {}
        for variables, mass, scale, chain_direction in cases:
            for direction in orderings._DEGRADATION_ROLES:
                for order in permutations("ABE"):
                    joint = in_order(variables, mass, order)
                    flag = is_physically_degraded(joint, direction)
                    verdict = check_stochastic_degradation(joint, direction)
                    assert verdict.physically_degraded is flag
                    if direction == chain_direction:
                        flags.setdefault((scale, direction), set()).add(flag)
        for direction in orderings._DEGRADATION_ROLES:
            assert flags[0.1, direction] == {True}
            assert flags[10.0, direction] == {False, True}

    def test_rejects_unknown_direction(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        with pytest.raises(ValueError):
            check_stochastic_degradation(joint, "b_degraded_wrt_a")

    def test_system_is_the_kron_build(self):
        # The system is placed into zeros; the two Kronecker products it
        # replaces multiply each entry by an exact 0.0 or 1.0, so the two
        # builds agree bit for bit, zero conditionals included.
        rng = np.random.default_rng(10)
        for _ in range(200):
            n_a, n_sup, n_w = rng.integers(1, 6, 3)
            p_strong = rng.dirichlet(np.ones(n_sup), size=n_a)
            p_strong[rng.random(p_strong.shape) < 0.2] = 0.0
            p_weak = rng.dirichlet(np.ones(n_w), size=n_a)
            a_eq, b_eq = orderings._degradation_system(p_strong, p_weak)
            expected = np.vstack([np.kron(p_strong, np.eye(n_w)),
                                  np.kron(np.eye(n_sup), np.ones(n_w))])
            assert a_eq.shape == expected.shape
            assert a_eq.tobytes() == expected.tobytes()
            assert b_eq.tobytes() == np.concatenate([p_weak.ravel(), np.ones(n_sup)]).tobytes()


class TestLessNoisy:
    def test_degraded_instance_not_falsified(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        verdict = search_less_noisy_violation(joint, FAST)
        assert verdict.kind == "less_noisy_not_falsified"
        # A binary source takes the envelope path: its witness, the copy of A
        # and the uniform channel are the channels scored.
        assert verdict.budget_used == 3

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
        cfg = OptimizerConfig(starts=4, seed=seed % 1000)
        assert search_less_noisy_violation(joint, cfg).kind == "less_noisy_not_falsified"


def swap_b_and_e(joint):
    """The same joint with the names B and E exchanged."""
    return rename_variable(rename_variable(rename_variable(joint, "B", "X"), "E", "B"), "X", "E")


class TestSharedSolver:
    """The less-noisy checks run the secrecy solver behind ``--switches none``."""

    @pytest.mark.parametrize("sizes", [(2, 3, 3), (3, 3, 3)], ids=["2x3x3", "3x3x3"])
    @pytest.mark.parametrize("direction", ["b_less_noisy_than_e", "e_less_noisy_than_b"])
    def test_gap_never_exceeds_upper(self, sizes, direction, monkeypatch):
        # The bound holds wherever the search stops; a short cap keeps |A| = 3 quick.
        monkeypatch.setattr(ascent, "MAX_ROUNDS", 5)
        rng = np.random.default_rng(2028)
        kinds = []
        for _ in range(10):
            verdict = search_less_noisy_violation(dirichlet_joint(rng, sizes), FAST, direction)
            kinds.append(verdict.kind)
            assert verdict.upper_bound >= 0.0
            if verdict.kind == "less_noisy_falsified":
                assert verdict.gap <= verdict.upper_bound
        assert "less_noisy_falsified" in kinds

    def test_chains_prove_b_less_noisy_at_any_source_size(self, monkeypatch):
        # A - B - E: I(A;E|B) = 0 bounds the violation wherever the search stops.
        monkeypatch.setattr(ascent, "MAX_ROUNDS", 3)
        rng = np.random.default_rng(2029)
        for _ in range(10):
            joint = markov_chain_joint(rng, n_a=3)
            verdict = search_less_noisy_violation(joint, OptimizerConfig(starts=2, seed=1))
            assert verdict.kind == "less_noisy_not_falsified"
            assert verdict.upper_bound <= 1e-12

    @pytest.mark.parametrize("sizes", [(3, 3, 4), (3, 4, 3)], ids=["3x3x4", "3x4x3"])
    def test_ternary_chains_are_proved_without_a_search(self, sizes):
        # On A - B - E the uniform channel meets the bound I(A;B|E) of the
        # secrecy objective, so the first stage certifies: no start runs.
        rng = np.random.default_rng(2031)
        for seed in range(5):
            joint = markov_chain_joint(rng, *sizes)
            verdict = search_less_noisy_violation(joint, OptimizerConfig(starts=8, seed=seed))
            assert verdict.kind == "less_noisy_not_falsified"
            assert verdict.upper_bound <= WITNESS_TOL
            assert verdict.opt.certified
            assert verdict.opt.rounds == 0
            assert not verdict.opt.hit_max_rounds

    @pytest.mark.parametrize("k", range(24))
    def test_violation_is_the_none_value_above_its_baseline(self, k):
        # With U - A - (B, E): I(U;E) - I(U;B) = [I(A;B|U) - I(A;E|U)] - [I(A;B) - I(A;E)].
        rng = np.random.default_rng((2030, k))
        joint = JointPMF(dirichlet_joint(rng, (2, 3, 3)).variables,
                         rng.dirichlet(np.full(18, (0.3, 1.0, 3.0)[k % 3])).reshape(2, 3, 3))
        for direction, named in (("b_less_noisy_than_e", joint),
                                 ("e_less_noisy_than_b", swap_b_and_e(joint))):
            none = maximize_equivocation(named, SwitchConfig(), FAST)
            baseline = mutual_information_of(named, "A", "B") - mutual_information_of(
                named, "A", "E"
            )
            expected = max(none.objective_trace) - baseline
            verdict = search_less_noisy_violation(joint, FAST, direction)
            if verdict.kind == "less_noisy_falsified":
                assert verdict.gap == pytest.approx(expected, abs=1e-12)
            else:
                assert expected <= WITNESS_TOL
            assert verdict.upper_bound >= expected - 1e-12


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
