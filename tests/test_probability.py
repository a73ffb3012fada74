import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secomp.erasure import ErasureParams, make_erasure_joint
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

from conftest import cells_of, dirichlet_joint, entropy_brute, mi_brute, random_channel


def bernoulli_half():
    return JointPMF((("X", Alphabet("X", ("0", "1"))),), np.array([0.5, 0.5]))


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            Alphabet("X", ())

    def test_rejects_duplicates(self):
        with pytest.raises(DistributionError):
            Alphabet("X", ("a", "a"))


class TestJointPMF:
    def test_mass_is_immutable(self):
        joint = bernoulli_half()
        with pytest.raises(ValueError):
            joint.mass[0] = 0.3

    def test_rejects_negative_mass(self):
        with pytest.raises(DistributionError):
            JointPMF((("X", Alphabet("X", ("0", "1"))),), np.array([1.1, -0.1]))

    def test_rejects_badly_normalized(self):
        with pytest.raises(DistributionError):
            JointPMF((("X", Alphabet("X", ("0", "1"))),), np.array([0.6, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_mass(self, bad):
        with pytest.raises(DistributionError):
            JointPMF((("X", Alphabet("X", ("0", "1"))),), np.array([bad, 0.5]))

    def test_renormalizes_within_tolerance(self):
        joint = JointPMF(
            (("X", Alphabet("X", ("0", "1"))),), np.array([0.5, 0.5 + 5e-10])
        )
        assert joint.mass.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DistributionError):
            JointPMF((("X", Alphabet("X", ("0", "1"))),), np.array([1.0, 0.0, 0.0]))

    def test_rejects_no_or_repeated_variables(self):
        alph = Alphabet("X", ("0", "1"))
        with pytest.raises(DistributionError, match="at least one variable"):
            JointPMF((), np.array(1.0))
        with pytest.raises(DistributionError, match="duplicate variable names"):
            JointPMF((("X", alph), ("X", alph)), np.full((2, 2), 0.25))


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert entropy_of(bernoulli_half(), "X") == 1.0

    def test_uniform_four_symbols_is_two_bits(self):
        joint = JointPMF(
            (("X", Alphabet("X", ("a", "b", "c", "d"))),), np.full(4, 0.25)
        )
        assert entropy_of(joint, "X") == 2.0

    def test_erasure_conditional_entropy(self):
        # A is recovered exactly from B unless erased; the brute-force oracle
        # over the six-cell (A, B) joint agrees and equals the erasure rate.
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        value = entropy_of(joint, "A", "B")
        oracle = entropy_brute(cells_of(marginalize(joint, ("A", "B"))), (0,), (1,))
        assert value == pytest.approx(oracle, abs=1e-13)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_rejects_overlapping_sets(self):
        with pytest.raises(DistributionError):
            entropy_of(make_erasure_joint(ErasureParams(0.1, 0.2)), "A", ("A", "B"))

    def test_rejects_unknown_variable(self):
        with pytest.raises(DistributionError):
            entropy_of(bernoulli_half(), "Z")

    def test_rejects_empty_target(self):
        with pytest.raises(DistributionError, match="target variable set is empty"):
            entropy_of(bernoulli_half(), ())


class TestMutualInformation:
    def test_erasure_source_to_bob(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        assert mutual_information_of(joint, "A", "B") == pytest.approx(0.75, abs=1e-12)

    def test_independent_variables(self):
        alph = Alphabet("X", ("0", "1"))
        joint = JointPMF(
            (("X", alph), ("Y", Alphabet("Y", ("0", "1")))), np.full((2, 2), 0.25)
        )
        assert mutual_information_of(joint, "X", "Y") == 0.0

    def test_erasure_conditional_on_eve(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        assert mutual_information_of(joint, "A", "B", "E") == pytest.approx(
            0.375, abs=1e-12
        )

    def test_matches_brute_force_on_random_joints(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            joint = dirichlet_joint(rng, (2, 3, 3))
            cells = cells_of(joint)
            assert mutual_information_of(joint, "A", "B", "E") == pytest.approx(
                mi_brute(cells, (0,), (1,), (2,)), abs=1e-12
            )

    @pytest.mark.parametrize(
        "x, y, given",
        [("A", "A", ()), ("A", ("B", "E"), "E"), ("A", "B", "A"), ("A", ("B", "B"), ()),
         ("Z", "B", ()), ("A", "Z", ()), ("A", "B", "Z")],
        ids=["x-with-y", "y-with-given", "x-with-given", "repeat-in-y",
             "unknown-x", "unknown-y", "unknown-given"],
    )
    def test_rejects_overlapping_repeated_and_unknown_names(self, x, y, given):
        # The two entropies' checks cover every case: H(X|Z) checks x and z,
        # and H(X|Y,Z) checks every name once more, y against z included.
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        with pytest.raises(DistributionError):
            mutual_information_of(joint, x, y, given)


class TestMarginalize:
    def test_keep_all_is_identity(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        again = marginalize(joint, ("A", "B", "E"))
        assert again.var_names == joint.var_names
        np.testing.assert_array_equal(again.mass, joint.mass)

    def test_erasure_source_marginal_is_uniform(self):
        joint = make_erasure_joint(ErasureParams(0.3, 0.7))
        np.testing.assert_allclose(marginalize(joint, "A").mass, [0.5, 0.5], atol=1e-15)

    def test_erasure_bob_marginal(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        np.testing.assert_allclose(
            marginalize(joint, "B").mass, [0.375, 0.375, 0.25], atol=1e-15
        )

    def test_rejects_empty_and_unknown(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        with pytest.raises(DistributionError):
            marginalize(joint, ())
        with pytest.raises(DistributionError):
            marginalize(joint, "Z")


class TestBuildJoint:
    def test_constant_attachment_roundtrips(self):
        base = make_erasure_joint(ErasureParams(0.25, 0.5))
        channel = Channel.uniform(
            (("A", base.alphabet("A")),), ("U", Alphabet("U", ("u",)))
        )
        extended = build_joint(base, channel)
        back = marginalize(extended, ("A", "B", "E"))
        np.testing.assert_allclose(back.mass, base.mass, atol=1e-15)

    def test_copy_channel_gives_full_information(self):
        base = make_erasure_joint(ErasureParams(0.25, 0.5))
        extended = build_joint(base, Channel.copy_of(("A", base.alphabet("A")), "U"))
        assert mutual_information_of(extended, "A", "U") == pytest.approx(
            entropy_of(base, "A"), abs=1e-12
        )

    def test_erasure_attachment_against_enumeration(self):
        base = make_erasure_joint(ErasureParams(0.25, 0.5))
        rng = np.random.default_rng(5)
        channel = random_channel(rng, base, ("A",), "U", 3)
        extended = build_joint(base, channel)
        assert extended.mass.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            marginalize(extended, ("A", "B", "E")).mass, base.mass, atol=1e-12
        )
        # cell-by-cell product oracle
        for a, b, e, u in np.ndindex(2, 3, 3, 3):
            assert extended.mass[a, b, e, u] == pytest.approx(
                base.mass[a, b, e] * channel.rows[a, u], abs=1e-15
            )

    def test_rejects_name_collision(self):
        base = make_erasure_joint(ErasureParams(0.25, 0.5))
        with pytest.raises(DistributionError):
            build_joint(base, Channel.copy_of(("A", base.alphabet("A")), "B"))

    def test_rejects_unknown_conditioning_variable(self):
        base = make_erasure_joint(ErasureParams(0.25, 0.5))
        with pytest.raises(DistributionError):
            build_joint(
                base,
                Channel.uniform(
                    (("Z", Alphabet("Z", ("0",))),), ("U", Alphabet("U", ("u",)))
                ),
            )

    def test_rejects_non_stochastic_rows(self):
        base = make_erasure_joint(ErasureParams(0.25, 0.5))
        with pytest.raises(DistributionError):
            Channel(
                (("A", base.alphabet("A")),),
                ("U", Alphabet("U", ("u0", "u1"))),
                np.array([[0.2, 0.2], [0.5, 0.5]]),
            )


class TestRename:
    def test_rename_preserves_mass(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        renamed = rename_variable(joint, "B", "C")
        assert renamed.var_names == ("A", "C", "E")
        np.testing.assert_array_equal(renamed.mass, joint.mass)

    def test_rename_rejects_collision(self):
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        with pytest.raises(DistributionError):
            rename_variable(joint, "B", "E")


class TestInvariants:
    def test_chain_rule_on_dirichlet_joints(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            joint = dirichlet_joint(rng, (3, 3, 3))
            lhs = mutual_information_of(joint, "A", ("B", "E"))
            rhs = mutual_information_of(joint, "A", "B") + mutual_information_of(
                joint, "A", "E", "B"
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            joint = dirichlet_joint(rng, (3, 2, 4))
            assert (
                entropy_of(joint, "A", ("B", "E"))
                <= entropy_of(joint, "A", "B") + 1e-12
            )

    def test_measures_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(120):
            joint = dirichlet_joint(rng, (2, 3, 3))
            assert entropy_of(joint, "A", ("B", "E")) >= -1e-12
            assert mutual_information_of(joint, "A", "B", "E") >= -1e-12

    def test_data_processing_through_attached_channel(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            joint = dirichlet_joint(rng, (2, 3, 3))
            channel = random_channel(rng, joint, ("A",), "U", 3)
            extended = build_joint(joint, channel)
            i_ua = mutual_information_of(extended, "U", "A")
            assert mutual_information_of(extended, "U", "B") <= i_ua + 1e-10
            assert mutual_information_of(extended, "U", "E") <= i_ua + 1e-10

    def test_attach_then_marginalize_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            joint = dirichlet_joint(rng, (2, 3, 3))
            channel = random_channel(rng, joint, ("A", "E"), "U", 4)
            extended = build_joint(joint, channel)
            np.testing.assert_allclose(
                marginalize(extended, ("A", "B", "E")).mass, joint.mass, atol=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_chain_rule_fuzzed(self, seed):
        rng = np.random.default_rng(seed)
        joint = dirichlet_joint(rng, (2, 2, 3))
        lhs = mutual_information_of(joint, "B", ("A", "E"))
        rhs = mutual_information_of(joint, "B", "E") + mutual_information_of(
            joint, "B", "A", "E"
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs >= -1e-12


class TestChannelHelpers:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rows(self, bad):
        alph = Alphabet("X", ("0", "1"))
        with pytest.raises(DistributionError):
            Channel((("X", alph),), ("Y", Alphabet("Y", ("a", "b"))), [[bad, 0.5], [0.5, 0.5]])

    def test_rejects_repeated_names_and_wrong_shape(self):
        alph = Alphabet("X", ("0", "1"))
        with pytest.raises(DistributionError, match="duplicate variable names"):
            Channel((("X", alph),), ("X", alph), np.eye(2))
        with pytest.raises(DistributionError, match="does not match"):
            Channel((("X", alph),), ("Y", Alphabet("Y", ("a", "b", "c"))), np.eye(2))

    def test_lift_keeps_conditional_law(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        channel = Channel.copy_of(("A", joint.alphabet("A")), "U")
        lifted = channel.lift(
            (("A", joint.alphabet("A")), ("B", joint.alphabet("B")))
        )
        assert lifted.from_names == ("A", "B")
        for b in range(3):
            np.testing.assert_array_equal(lifted.rows[:, b, :], channel.rows)

    def test_lift_rejects_dropping(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        channel = Channel.copy_of(("A", joint.alphabet("A")), "U")
        with pytest.raises(DistributionError):
            channel.lift((("B", joint.alphabet("B")),))

    def test_lift_rejects_alphabet_swap(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        channel = Channel.copy_of(("A", joint.alphabet("A")), "U")
        with pytest.raises(DistributionError):
            channel.lift(
                (("A", Alphabet("A", ("x", "y"))), ("B", joint.alphabet("B")))
            )
