import numpy as np
import pytest

from secomp.erasure import (
    ErasureParams,
    erasure_delta,
    gap_filler_u,
    make_erasure_joint,
    optimal_u_for_switches,
)
from secomp.probability import entropy_of, mutual_information_of
from secomp.regions import SwitchConfig, closed_form_delta, secrecy_objective

SB = SwitchConfig.from_name("sb")
SE = SwitchConfig.from_name("se")
BOTH = SwitchConfig.from_name("both")
NONE = SwitchConfig()


class TestParams:
    @pytest.mark.parametrize("pb,pe", [(-0.1, 0.5), (0.5, 1.5)])
    def test_rejects_out_of_range(self, pb, pe):
        with pytest.raises(ValueError):
            ErasureParams(pb, pe)


class TestJointConstruction:
    def test_cell_products(self):
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        # indices: symbols ("0","1") for A, ("0","1","e") for B and E
        assert joint.mass[0, 0, 2] == pytest.approx(0.5 * 0.75 * 0.5, abs=1e-15)
        assert joint.mass[1, 2, 1] == pytest.approx(0.5 * 0.25 * 0.5, abs=1e-15)
        assert joint.mass[0, 1, 0] == 0.0  # B cannot disagree with A
        assert joint.mass.sum() == pytest.approx(1.0, abs=1e-15)

    def test_no_erasures_means_perfect_side_information(self):
        joint = make_erasure_joint(ErasureParams(0.0, 0.0))
        assert entropy_of(joint, "A", "B") == pytest.approx(0.0, abs=1e-12)

    def test_fully_erased_bob_is_useless(self):
        joint = make_erasure_joint(ErasureParams(1.0, 0.5))
        assert mutual_information_of(joint, "A", "B") == 0.0

    def test_symbol_order_has_erasure_last(self):
        joint = make_erasure_joint(ErasureParams(0.3, 0.4))
        assert joint.alphabet("B").symbols == ("0", "1", "e")
        assert joint.alphabet("E").symbols == ("0", "1", "e")


class TestDeltaFormulas:
    @pytest.mark.parametrize(
        "pb,pe,switches,expected",
        [
            (0.1, 0.3, NONE, 0.2),
            (0.4, 0.2, NONE, 0.0),
            (0.25, 0.5, SB, 0.5),
            (0.25, 0.5, SE, 0.375),
            (0.25, 0.5, BOTH, 0.5),
        ],
    )
    def test_reported_values(self, pb, pe, switches, expected):
        assert erasure_delta(ErasureParams(pb, pe), switches) == pytest.approx(
            expected, abs=1e-15
        )

    def test_agrees_with_closed_form_when_bob_is_stronger(self):
        grid = np.round(np.arange(0.0, 1.01, 0.1), 10)
        for pb in grid:
            for pe in grid:
                if pe < pb:
                    continue
                params = ErasureParams(pb, pe)
                joint = make_erasure_joint(params)
                assert erasure_delta(params, NONE) == pytest.approx(
                    closed_form_delta(joint, "less_noisy"), abs=1e-12
                )

    def test_encoder_value_equals_conditional_information(self):
        grid = np.round(np.arange(0.0, 1.01, 0.1), 10)
        for pb in grid:
            for pe in grid:
                params = ErasureParams(pb, pe)
                joint = make_erasure_joint(params)
                assert erasure_delta(params, SE) == pytest.approx(
                    mutual_information_of(joint, "A", "B", "E"), abs=1e-12
                )

    def test_monotone_in_both_rates(self):
        grid = np.round(np.arange(0.0, 1.01, 0.1), 10)
        for switches in (NONE, SB, SE, BOTH):
            for pe in grid:
                deltas = [erasure_delta(ErasureParams(pb, pe), switches) for pb in grid]
                assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))
            for pb in grid:
                deltas = [erasure_delta(ErasureParams(pb, pe), switches) for pe in grid]
                assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))


class TestOptimalChannel:
    """The explicit S_B-closed channels: the gap filler here, the binary channel below."""

    def test_reveals_source_exactly_on_erasures(self):
        # Every (a, b) cell, the zero-mass ones with b != a included: u_a where
        # Bob is erased, the constant c wherever he sees a bit.
        channel = gap_filler_u(SB)
        assert channel.to_var[1].symbols == ("u0", "u1", "c")
        c, u0, u1 = [0, 0, 1], [1, 0, 0], [0, 1, 0]
        np.testing.assert_array_equal(channel.rows, [[c, c, u0], [c, c, u1]])

    def test_objective_matches_reported_delta(self):
        # The gap filler's own value is p_e (1 - p_b), below erasure_delta's p_e.
        params = ErasureParams(0.25, 0.5)
        joint = make_erasure_joint(params)
        channel = gap_filler_u(SB)
        value = secrecy_objective(joint, channel, SB)
        assert value == pytest.approx(params.p_e * (1.0 - params.p_b), abs=1e-12)
        assert value < erasure_delta(params, SB) - 0.1

    def test_lifted_variant_for_both_switches(self):
        params = ErasureParams(0.25, 0.5)
        joint = make_erasure_joint(params)
        channel = gap_filler_u(BOTH)
        assert set(channel.from_names) == {"A", "B", "E"}
        value = secrecy_objective(joint, channel, BOTH)
        assert value == pytest.approx(params.p_e * (1.0 - params.p_b), abs=1e-12)

    def test_rejects_configurations_without_bob_at_encoder(self):
        for switches in (NONE, SE):
            with pytest.raises(ValueError):
                gap_filler_u(switches)
            with pytest.raises(ValueError):
                optimal_u_for_switches(ErasureParams(0.25, 0.5), switches)


class TestBinaryChannelCertificate:
    """The binary channel of ``erasure_delta``'s docstring attains its S_B-closed value."""

    def test_attains_the_reported_value_on_the_grid(self):
        grid = np.round(np.arange(0.0, 1.01, 0.1), 10)
        for pb in grid:
            for pe in grid:
                params = ErasureParams(pb, pe)
                joint = make_erasure_joint(params)
                value = secrecy_objective(joint, optimal_u_for_switches(params, SB), SB)
                assert value == pytest.approx(erasure_delta(params, SB), abs=1e-12)
                lifted = secrecy_objective(joint, optimal_u_for_switches(params, BOTH), BOTH)
                assert lifted == pytest.approx(erasure_delta(params, BOTH), abs=1e-12)
                assert erasure_delta(params, BOTH) == erasure_delta(params, SB)
                assert value <= entropy_of(joint, "A", "E") + 1e-12

    def test_reaches_eve_uncertainty_up_to_half(self):
        for pb in (0.0, 0.1, 0.25, 0.4, 0.5):
            params = ErasureParams(pb, 0.6)
            assert erasure_delta(params, SB) == 0.6
        assert erasure_delta(ErasureParams(0.7, 0.5), SB) == pytest.approx(0.440645449615, abs=1e-12)
