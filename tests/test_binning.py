import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dirichlet_joint
from secomp.binning import (
    SimReport,
    _TIE_REL_TOL,
    _gap_trial,
    _sw_context,
    _sw_trial,
    exact_posterior_entropy,
    make_binning_code,
    run_erasure_encoder_scheme,
    run_sw_binning,
)
from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.probability import entropy_of


# Reference binning simulator: every sequence's symbols come from one full
# (|A|^n, n) table and each member's likelihood is a row product over it.
# The library's simulator must reproduce it bit for bit.


def _sequence_table(n_seq, n, alphabet_size):
    """(n_seq, n) symbol-index table; position 0 is the most significant."""
    table = np.empty((n_seq, n), dtype=np.uint8)
    idx = np.arange(n_seq)
    for pos in range(n - 1, -1, -1):
        table[:, pos] = idx % alphabet_size
        idx //= alphabet_size
    return table


class _RefContext(NamedTuple):
    n: int
    code: object
    flat: np.ndarray
    cell_shape: tuple
    radix: np.ndarray
    seq_table: np.ndarray
    p_a_given_b: np.ndarray
    p_a_given_e: np.ndarray
    members_order: np.ndarray
    members_start: np.ndarray
    members_end: np.ndarray


def _reference_context(joint, n, rate, seed):
    mass = np.moveaxis(joint.mass, joint.axes(("A", "B", "E")), (0, 1, 2))
    n_a = mass.shape[0]
    code = make_binning_code(n, rate, n_a, seed)
    p_ab = mass.sum(axis=2)
    p_ae = mass.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_a_given_b = np.where(p_ab.sum(axis=0) > 0.0, p_ab / p_ab.sum(axis=0), 1.0 / n_a)
        p_a_given_e = np.where(p_ae.sum(axis=0) > 0.0, p_ae / p_ae.sum(axis=0), 1.0 / n_a)
    order = np.argsort(code.bin_of, kind="stable")
    sorted_bins = code.bin_of[order]
    return _RefContext(
        n=n,
        code=code,
        flat=mass.reshape(-1),
        cell_shape=mass.shape,
        radix=(n_a ** np.arange(n - 1, -1, -1)).astype(np.int64),
        seq_table=_sequence_table(n_a**n, n, n_a),
        p_a_given_b=p_a_given_b,
        p_a_given_e=p_a_given_e,
        members_order=order,
        members_start=np.searchsorted(sorted_bins, np.arange(code.n_bins), side="left"),
        members_end=np.searchsorted(sorted_bins, np.arange(code.n_bins), side="right"),
    )


def _reference_trial(ctx, rng):
    """(error, tie, equiv, seq_index, decoded_index) of one trial."""
    cells = rng.choice(ctx.flat.size, size=ctx.n, p=ctx.flat)
    a_idx, b_idx, e_idx = np.unravel_index(cells, ctx.cell_shape)
    seq_index = int(a_idx @ ctx.radix)
    bin_index = int(ctx.code.bin_of[seq_index])
    members = np.sort(
        ctx.members_order[ctx.members_start[bin_index] : ctx.members_end[bin_index]]
    )
    symbols = ctx.seq_table[members]
    bob = ctx.p_a_given_b[symbols, b_idx[None, :]].prod(axis=1)
    best = bob.max()
    winners = np.flatnonzero(bob >= best * (1.0 - _TIE_REL_TOL))
    decoded_index = int(members[winners[0]])
    tie = winners.size > 1
    error = tie or decoded_index != seq_index
    eve = ctx.p_a_given_e[symbols, e_idx[None, :]].prod(axis=1)
    equiv = exact_posterior_entropy(eve) / ctx.n
    return error, tie, equiv, seq_index, decoded_index


def _reference_run(joint, n, rate, trials, seed):
    ctx = _reference_context(joint, n, rate, seed)
    records = [_reference_trial(ctx, np.random.default_rng((seed, 1, t))) for t in range(trials)]
    errors = np.array([r[0] for r in records])
    ties = np.array([r[1] for r in records])
    equivs = np.array([r[2] for r in records])
    stderr = float(equivs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimReport(
        trials=trials,
        p_e_hat=float(errors.mean()),
        equiv_hat=float(equivs.mean()),
        equiv_stderr=stderr,
        seed=seed,
        ties=int(ties.sum()),
        wrong_decodes=int(errors.sum() - ties.sum()),
    )


def _enumerated_gap_equiv(record, n):
    """Eve's gap-scheme equivocation by enumerating her candidate blocks."""
    free = np.flatnonzero(record.eve_erased)
    n_candidates = 1 << free.size
    candidates = np.tile(record.a, (n_candidates, 1))
    if free.size:
        combos = (np.arange(n_candidates)[:, None] >> np.arange(free.size)[None, :]) & 1
        candidates[:, free] = combos
    bob_erased = record.bob_erased
    match = (candidates[:, bob_erased] == record.a[bob_erased]).all(axis=1)
    return exact_posterior_entropy(match.astype(float)) / n


class TestPosteriorEntropy:
    def test_point_mass_is_zero(self):
        assert exact_posterior_entropy([1.0]) == 0.0

    def test_uniform_four(self):
        assert exact_posterior_entropy([1.0, 1.0, 1.0, 1.0]) == 2.0

    def test_three_to_one_split(self):
        assert exact_posterior_entropy([3.0, 1.0]) == pytest.approx(0.8113, abs=1e-4)

    def test_point_mass_is_positive_zero(self):
        for weights in ([1.0], [0.0, 2.0], [0.0, 0.0, 5.0]):
            value = exact_posterior_entropy(weights)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            exact_posterior_entropy([])
        with pytest.raises(ValueError):
            exact_posterior_entropy([0.0, 0.0])
        with pytest.raises(ValueError):
            exact_posterior_entropy([1.0, -0.5])

    @settings(max_examples=80)
    @given(
        # zeros are legal entries, but nonzero weights stay far from the
        # denormal range so that rescaling cannot underflow them to zero
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-9, 1e6)), min_size=1, max_size=12
        ).filter(lambda w: sum(w) > 0),
        scale=st.floats(1e-3, 1e3),
    )
    def test_scale_invariant_and_bounded(self, weights, scale):
        w = np.asarray(weights)
        h = exact_posterior_entropy(w)
        assert 0.0 <= h <= math.log2(len(weights)) + 1e-9
        assert exact_posterior_entropy(w * scale) == pytest.approx(h, abs=1e-9)

    @settings(max_examples=50)
    @given(
        weights=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=10),
        seed=st.integers(0, 100),
    )
    def test_permutation_invariant(self, weights, seed):
        rng = np.random.default_rng(seed)
        w = np.asarray(weights)
        shuffled = rng.permutation(w)
        assert exact_posterior_entropy(shuffled) == pytest.approx(
            exact_posterior_entropy(w), abs=1e-9
        )


class TestBinningCode:
    def test_bin_count_rounds_the_rate_up(self):
        code = make_binning_code(n=16, rate=0.65, alphabet_size=2, seed=0)
        assert code.n_bins == 2 ** math.ceil(16 * 0.65)
        assert code.bin_of.shape == (2**16,)
        assert code.bin_of.min() >= 0 and code.bin_of.max() < code.n_bins

    def test_full_rate_is_one_sequence_per_bin(self):
        code = make_binning_code(n=8, rate=1.0, alphabet_size=2, seed=0)
        np.testing.assert_array_equal(code.bin_of, np.arange(256))

    def test_rate_zero_is_single_bin(self):
        code = make_binning_code(n=8, rate=0.0, alphabet_size=2, seed=0)
        assert code.n_bins == 1
        assert (code.bin_of == 0).all()

    def test_deterministic_in_seed(self):
        a = make_binning_code(n=10, rate=0.5, alphabet_size=2, seed=4)
        b = make_binning_code(n=10, rate=0.5, alphabet_size=2, seed=4)
        np.testing.assert_array_equal(a.bin_of, b.bin_of)

    def test_rejects_oversized_enumeration(self):
        with pytest.raises(ValueError):
            make_binning_code(n=21, rate=0.5, alphabet_size=2, seed=0)


class TestSwBinning:
    def test_full_rate_reveals_everything_exactly(self):
        joint = make_erasure_joint(ErasureParams(0.5, 0.8))
        report = run_sw_binning(joint, n=10, rate=1.0, trials=40, seed=3)
        assert report.p_e_hat == 0.0
        assert report.equiv_hat == 0.0

    def test_single_bin_matches_side_information_entropy(self):
        joint = make_erasure_joint(ErasureParams(0.3, 0.5))
        report = run_sw_binning(joint, n=12, rate=0.0, trials=200, seed=3)
        h_a_e = entropy_of(joint, "A", "E")
        assert abs(report.equiv_hat - h_a_e) <= 3 * report.equiv_stderr

    def test_reproducible_bit_for_bit(self):
        joint = make_erasure_joint(ErasureParams(0.5, 0.8))
        first = run_sw_binning(joint, n=12, rate=0.6, trials=60, seed=11)
        second = run_sw_binning(joint, n=12, rate=0.6, trials=60, seed=11)
        assert first == second

    def test_equivocation_floor_with_realized_bin_rate(self):
        # The bin index spends ceil(n*rate) bits, so that is the rate the
        # information-theoretic floor H(A|E) - H(J) can charge.
        joint = make_erasure_joint(ErasureParams(0.5, 0.8))
        n, rate = 14, 0.6
        realized = math.ceil(n * rate) / n
        h_a_e = entropy_of(joint, "A", "E")
        for seed in range(5):
            report = run_sw_binning(joint, n=n, rate=rate, trials=150, seed=seed)
            assert report.equiv_hat >= h_a_e - realized - 3 * report.equiv_stderr

    def test_trial_records_satisfy_structural_invariants(self):
        joint = make_erasure_joint(ErasureParams(0.5, 0.8))
        ctx = _sw_context(joint, n=12, rate=0.6, seed=21)
        ref = _reference_context(joint, n=12, rate=0.6, seed=21)
        n_erased_cap = 0
        for t in range(80):
            record = _sw_trial(ctx, np.random.default_rng((21, 1, t)))
            # announced bin really contains the drawn sequence
            assert ctx.code.bin_of[record.seq_index] == record.bin_index
            assert ctx.code.bin_of[record.decoded_index] == record.bin_index
            # decoding failure implies a competitor at least as likely
            if record.error and not record.tie:
                bob_true = np.prod(
                    ref.p_a_given_b[ref.seq_table[record.seq_index], record.b]
                )
                bob_decoded = np.prod(
                    ref.p_a_given_b[ref.seq_table[record.decoded_index], record.b]
                )
                assert bob_decoded >= bob_true
            # per-trial equivocation never exceeds what Eve's own symbols allow
            eve_only = (record.e == 2).sum() / ctx.n
            assert record.equiv <= eve_only + 1e-12
            n_erased_cap = max(n_erased_cap, record.equiv)
        assert n_erased_cap > 0  # the cap is actually exercised

    @pytest.mark.parametrize("sizes", [(2, 3, 3), (3, 2, 2)])
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 8])
    def test_bins_list_their_members_with_base_a_digits(self, sizes, n):
        joint = dirichlet_joint(np.random.default_rng((31, n)), sizes)
        n_a = sizes[0]
        n_seq = n_a**n
        digits = np.array([np.unravel_index(i, (n_a,) * n) for i in range(n_seq)])
        cases = set()
        for rate in (0.0, 0.5, math.log2(n_a)):
            ctx = _sw_context(joint, n=n, rate=rate, seed=n)
            code = ctx.code
            cases.add(code.n_bins >= n_seq)
            assert ctx.bin_offsets[0] == 0 and ctx.bin_offsets[-1] == n_seq
            for bin_index in range(code.n_bins):
                members = ctx.members_order[
                    ctx.bin_offsets[bin_index] : ctx.bin_offsets[bin_index + 1]
                ]
                np.testing.assert_array_equal(members, np.flatnonzero(code.bin_of == bin_index))
                # Read each member's (position, observer, symbol) triples off
                # the factor indices and compare them with its digits.
                high, low = np.divmod(members, ctx.low_size)
                picked = np.concatenate(
                    (ctx.head_index[:, :, high], ctx.tail_index[:, :, low])
                )
                position, observer, symbol = (
                    picked // (2 * n_a), picked // n_a % 2, picked % n_a
                )
                assert (position == np.arange(n)[:, None, None]).all()
                assert (observer == np.arange(2)[:, None]).all()
                assert (symbol == digits[members].T[:, None, :]).all()
        assert cases == {True, False}

    @pytest.mark.parametrize(
        "make_joint",
        [
            lambda: make_erasure_joint(ErasureParams(0.1, 0.3)),
            lambda: make_erasure_joint(ErasureParams(0.5, 0.8)),
            lambda: dirichlet_joint(np.random.default_rng(7), (2, 3, 3)),
            lambda: dirichlet_joint(np.random.default_rng(8), (3, 2, 4)),
        ],
        ids=["erasure-0.1-0.3", "erasure-0.5-0.8", "dirichlet-2x3x3", "dirichlet-3x2x4"],
    )
    def test_matches_full_sequence_table_reference(self, make_joint):
        joint = make_joint()
        for n, rate, seed in [
            (1, 0.0, 0), (5, 0.4, 1), (8, 0.25, 2), (8, 1.0, 3), (9, 0.5, 4), (10, 0.0, 5),
        ]:
            assert run_sw_binning(joint, n, rate, 40, seed) == _reference_run(
                joint, n, rate, 40, seed
            )
            ctx = _sw_context(joint, n, rate, seed)
            ref = _reference_context(joint, n, rate, seed)
            for t in range(40):
                record = _sw_trial(ctx, np.random.default_rng((seed, 1, t)))
                got = (record.error, record.tie, record.equiv, record.seq_index,
                       record.decoded_index)
                assert got == _reference_trial(ref, np.random.default_rng((seed, 1, t)))

    def test_decoding_failures_split_into_ties_and_wrong_decodes(self):
        erasure = make_erasure_joint(ErasureParams(0.1, 0.3))
        dirichlet = dirichlet_joint(np.random.default_rng(9), (2, 3, 3))
        for joint, rate in [(erasure, 0.0), (erasure, 0.4), (dirichlet, 0.3), (dirichlet, 0.6)]:
            report = run_sw_binning(joint, n=10, rate=rate, trials=120, seed=1)
            assert report.ties + report.wrong_decodes == round(report.p_e_hat * report.trials)
        assert run_sw_binning(erasure, n=10, rate=0.0, trials=120, seed=1).ties > 0
        assert run_sw_binning(dirichlet, n=10, rate=0.3, trials=120, seed=1).wrong_decodes > 0
        for joint in (erasure, dirichlet):
            full = run_sw_binning(joint, n=10, rate=1.0, trials=40, seed=1)
            assert (full.ties, full.wrong_decodes) == (0, 0)
        gap = run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), n=8, trials=40, seed=1)
        assert (gap.ties, gap.wrong_decodes) == (0, 0)

    def test_full_rate_n18_stays_under_ten_mib(self):
        # The bin table and its index arrays are 8 bytes per sequence each;
        # a table of every sequence's symbols would add n bytes per sequence.
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        tracemalloc.start()
        try:
            run_sw_binning(joint, n=18, rate=1.0, trials=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * 2**18

    def test_rejects_bad_rate_and_size(self):
        joint = make_erasure_joint(ErasureParams(0.5, 0.8))
        with pytest.raises(ValueError):
            run_sw_binning(joint, n=10, rate=1.5, trials=10, seed=0)
        with pytest.raises(ValueError):
            run_sw_binning(joint, n=10, rate=-0.1, trials=10, seed=0)
        with pytest.raises(ValueError):
            run_sw_binning(joint, n=25, rate=0.5, trials=10, seed=0)
        with pytest.raises(ValueError):
            run_sw_binning(joint, n=10, rate=0.5, trials=0, seed=0)
        with pytest.raises(ValueError):
            run_sw_binning(joint, n=10, rate=math.nan, trials=10, seed=0)
        with pytest.raises(ValueError):
            run_sw_binning(joint, n=10, rate=1.0, trials=10, seed=-1)


class TestGapScheme:
    def test_no_bob_erasures_means_nothing_sent(self):
        report = run_erasure_encoder_scheme(ErasureParams(0.0, 0.5), n=10, trials=400, seed=3)
        assert report.p_e_hat == 0.0
        assert abs(report.equiv_hat - 0.5) <= 4 * report.equiv_stderr

    def test_omniscient_eve_learns_everything(self):
        report = run_erasure_encoder_scheme(ErasureParams(0.25, 0.0), n=10, trials=100, seed=3)
        assert report.equiv_hat == 0.0

    def test_fully_erased_bob_forces_full_disclosure(self):
        report = run_erasure_encoder_scheme(ErasureParams(1.0, 0.5), n=8, trials=100, seed=3)
        assert report.equiv_hat == 0.0

    def test_equivocation_tracks_reported_optimum(self):
        report = run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), n=12, trials=300, seed=7)
        assert report.p_e_hat == 0.0
        assert abs(report.equiv_hat - 0.375) <= 0.1

    def test_trial_equivocation_counts_untransmitted_eve_gaps(self):
        for t in range(50):
            record = _gap_trial(ErasureParams(0.25, 0.5), 10, np.random.default_rng((5, t)))
            free = (record.eve_erased & ~record.bob_erased).sum()
            assert record.equiv == pytest.approx(free / 10, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 8, 12])
    @pytest.mark.parametrize("p_b,p_e", [(0.25, 0.5), (0.1, 0.9), (0.6, 0.7)])
    def test_counted_posterior_equals_enumeration(self, n, p_b, p_e):
        params = ErasureParams(p_b, p_e)
        for t in range(200):
            record = _gap_trial(params, n, np.random.default_rng((n, 1, t)))
            assert record.equiv == _enumerated_gap_equiv(record, n)

    def test_reproducible_bit_for_bit(self):
        first = run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), n=8, trials=50, seed=2)
        second = run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), n=8, trials=50, seed=2)
        assert first == second

    def test_rejects_oversized_blocklength(self):
        with pytest.raises(ValueError):
            run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), n=13, trials=10, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), n=8, trials=10, seed=-3)
