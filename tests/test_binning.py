import math
import tracemalloc
import warnings
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import dirichlet_joint
from secomp import binning
from secomp.binning import (
    BinningCode,
    SimReport,
    _BATCH_ELEMENTS,
    _TIE_REL_TOL,
    _bin_rows,
    _gap_trials,
    _random_bins,
    _score_chunk,
    _segment_sums,
    _sw_context,
    _sw_trials,
    _trial_uniforms,
    exact_posterior_entropy,
    make_binning_code,
    run_erasure_encoder_scheme,
    run_sw_binning,
)
from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.probability import Alphabet, JointPMF, entropy_of
from secomp.streams import _PCG64_MULT, _add128, _lcg_sums, _mul128, pcg64_outputs, pcg64_states


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


def _context(joint, n, rate, seed):
    """_sw_context of the code make_binning_code builds for these arguments, at any rate."""
    return _sw_context(joint, make_binning_code(n, rate, joint.alphabet("A").size, seed))


def _records(batch):
    """One record per trial from a batch's per-trial arrays, as Python scalars or rows."""
    for values in zip(*batch):
        yield SimpleNamespace(**{
            name: value.item() if value.ndim == 0 else value
            for name, value in zip(batch._fields, values)
        })


def _gap_trial_draws(params, n, seed, t):
    """(a, bob_erased, eve_erased) of gap trial t, drawn in order from its own stream."""
    rng = np.random.default_rng((seed, 1, t))
    a = rng.integers(0, 2, size=n)
    return a, rng.random(n) < params.p_b, rng.random(n) < params.p_e


def _enumerated_gap_equiv(a, bob_erased, eve_erased):
    """Eve's gap-scheme equivocation by enumerating her candidate blocks."""
    n = a.size
    free = np.flatnonzero(eve_erased)
    n_candidates = 1 << free.size
    candidates = np.tile(a, (n_candidates, 1))
    if free.size:
        combos = (np.arange(n_candidates)[:, None] >> np.arange(free.size)[None, :]) & 1
        candidates[:, free] = combos
    match = (candidates[:, bob_erased] == a[bob_erased]).all(axis=1)
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
        # NaN and inf weights must not read as a point mass.
        for weights in ([math.nan], [1.0, math.nan], [math.inf], [1.0, math.inf]):
            with pytest.raises(ValueError):
                exact_posterior_entropy(weights)

    def test_overflowing_sum_is_rescaled(self):
        # The weights are finite and only their sum overflows, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_posterior_entropy([1e308] * 2) == 1.0
            assert exact_posterior_entropy([1e308] * 4) == 2.0
            assert exact_posterior_entropy([1e308, 0.0, 1e308]) == 1.0

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

    @pytest.mark.parametrize("seed", range(3))
    def test_segment_sums_are_each_segments_own_sum(self, seed):
        # Lengths 1-300 cross the 8-term unroll and the 128-term blocks of
        # numpy's pairwise summation; each appears twice, shuffled or in order.
        rng = np.random.default_rng(seed)
        shuffled = rng.permutation(np.tile(np.arange(1, 301), 2))
        values = rng.standard_normal(shuffled.sum()) * 10.0 ** rng.integers(-8, 8, shuffled.sum())
        for lengths in (shuffled, np.sort(shuffled)):
            own = [segment.sum() for segment in np.split(values, lengths.cumsum()[:-1])]
            assert _segment_sums(values, lengths).tolist() == own
        for length in (1, 7, 8, 9, 127, 128, 129, 300):
            same = values[: 5 * length]
            assert _segment_sums(same, np.full(5, length)).tolist() == [
                segment.sum() for segment in same.reshape(5, length)
            ]


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

    def test_huge_blocklength_is_rejected_at_once(self):
        # The limit is exact at the boundary, and n is bounded before
        # |A|^n is formed: 3^(10^9) alone would take hours. One symbol has
        # one sequence at every n and is held to the binary blocklength.
        for alphabet_size, largest, rate in ((1, 20, 0.0), (2, 20, 0.5), (3, 12, 0.5)):
            code = make_binning_code(n=largest, rate=rate, alphabet_size=alphabet_size, seed=0)
            assert code.bin_of.size == alphabet_size**largest
            with pytest.raises(ValueError, match="enumeration limit"):
                make_binning_code(n=largest + 1, rate=rate, alphabet_size=alphabet_size, seed=0)
        with pytest.raises(ValueError, match="blocklength 1000000000 exceeds 20"):
            make_binning_code(n=10**9, rate=0.0, alphabet_size=1, seed=0)
        with pytest.raises(ValueError, match=r"3\^1000000000 sequences exceed"):
            make_binning_code(n=10**9, rate=0.5, alphabet_size=3, seed=0)

    def test_rejects_a_malformed_table(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            BinningCode(n=2, rate=0.5, n_bins=2, bin_of=np.zeros((2, 2)), seed=0)
        with pytest.raises(ValueError, match="bin index out of range"):
            BinningCode(n=2, rate=0.5, n_bins=2, bin_of=np.array([0, 1, 2, 1]), seed=0)

    @pytest.mark.parametrize("field,value,message", [
        ("p_e_hat", 1.5, "p_e_hat"),
        ("equiv_hat", -0.1, "equiv_hat"),
        ("ties", -1, "counts of trials"),
        ("wrong_decodes", 11, "counts of trials"),
    ])
    def test_report_rejects_impossible_fields(self, field, value, message):
        fields = dict(trials=10, p_e_hat=0.2, equiv_hat=0.5, equiv_stderr=0.1, seed=0)
        with pytest.raises(ValueError, match=message):
            SimReport(**{**fields, field: value})

    def test_negative_seed_is_rejected(self):
        # Rates 0 and 1 draw no table, and still check the seed.
        for rate in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match="seed must be nonnegative"):
                make_binning_code(n=4, rate=rate, alphabet_size=2, seed=-1)
            with pytest.raises(TypeError):
                make_binning_code(n=4, rate=rate, alphabet_size=2, seed=1.5)

    @pytest.mark.parametrize("seed", [0, 9])
    def test_rate_zero_table_steps_no_stream(self, monkeypatch, seed):
        # integers(0, 1, size) returns zeros without reading its stream.
        def no_stream(*args):
            raise AssertionError("a one-bin table stepped a PCG64 stream")

        monkeypatch.setattr("secomp.binning.pcg64_states", no_stream)
        monkeypatch.setattr("secomp.binning.pcg64_outputs", no_stream)
        code = make_binning_code(n=10, rate=0.0, alphabet_size=2, seed=seed)
        np.testing.assert_array_equal(
            code.bin_of, np.random.default_rng((seed, 0)).integers(0, 1, 2**10, dtype=np.int64)
        )

    @pytest.mark.parametrize("seed", [0, 3, 2**32, 2**70 + 1])
    def test_table_is_default_rng_integers(self, seed):
        # A block steps _BATCH_ELEMENTS 64-bit outputs, two draws each: sizes
        # below, at and past one block, odd sizes, and 3^12.
        block = 2 * _BATCH_ELEMENTS
        for bits in range(20):
            for size in (1, 6, 7, block - 1, block, block + 1, 2 * block + 3, 3**12):
                rng = np.random.default_rng((seed, 0))
                np.testing.assert_array_equal(
                    _random_bins(seed, bits, size),
                    rng.integers(0, 2**bits, size, dtype=np.int64),
                    err_msg=f"bits {bits}, size {size}",
                )
        code = make_binning_code(n=12, rate=0.9, alphabet_size=3, seed=seed)
        np.testing.assert_array_equal(
            code.bin_of,
            np.random.default_rng((seed, 0)).integers(0, code.n_bins, 3**12, dtype=np.int64),
        )

    @pytest.mark.parametrize("bits", [1, 8, 19, 31])
    def test_integers_are_top_bits_of_32_bit_words(self, bits):
        # What _random_bins rests on: with a power-of-two range, integers
        # rejects no draw and reads the 32-bit words of the 64-bit outputs,
        # low half first. The halves are cut with shifts, so the reference
        # does not depend on byte order.
        size = 1001
        raw = np.random.default_rng((5, 0)).bit_generator.random_raw(-(-size // 2))
        words = np.stack((raw & np.uint64(2**32 - 1), raw >> np.uint64(32)), axis=1)
        np.testing.assert_array_equal(
            np.random.default_rng((5, 0)).integers(0, 2**bits, size, dtype=np.int64),
            (words.reshape(-1)[:size] >> np.uint64(32 - bits)).astype(np.int64),
        )

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -5.0, 3.0])
    def test_rejects_a_rate_outside_zero_to_log_alphabet(self, rate):
        # Unchecked, NaN and inf crashed in the bin count, -5 gave one bin
        # and 3.0 gave 4096 bins over 16 sequences.
        with pytest.raises(ValueError, match=r"rate must lie in \[0, log2 2\]"):
            make_binning_code(n=4, rate=rate, alphabet_size=2, seed=0)


def _joined(halves):
    """Python ints high << 64 | low of a pair of uint64 arrays."""
    return [int(high) << 64 | int(low) for high, low in zip(*halves)]


def _split(value):
    """One-entry uint64 arrays (high, low) of a 128-bit Python int."""
    return np.array([value >> 64], dtype=np.uint64), np.array([value % 2**64], dtype=np.uint64)


def _derived_states(seed, trials):
    t = np.arange(trials.start, trials.stop, dtype=np.uint32)
    state, step = pcg64_states(seed, [np.ones_like(t), t])
    return list(zip(_joined(state), _joined(step)))


def _default_rng_state(seed, t):
    """State s_0 and step s_1 - s_0 = s_0 (mult - 1) + inc mod 2^128 of trial t's stream."""
    state = np.random.default_rng((seed, 1, t)).bit_generator.state["state"]
    return state["state"], (state["state"] * (_PCG64_MULT - 1) + state["inc"]) % 2**128


_U128 = st.integers(0, 2**128 - 1)


class TestTrialStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 1])
    def test_states_are_default_rngs(self, seed):
        # One to four 32-bit seed words: the trial index lands in the pool
        # or, past the pool's four words, in the extra-entropy rounds.
        derived = _derived_states(seed, range(3000))
        for t, state_and_step in enumerate(derived):
            assert state_and_step == _default_rng_state(seed, t)
        assert _derived_states(seed, range(1000, 1200)) == derived[1000:1200]

    def test_trial_index_must_fit_one_word(self):
        last = 2**32 - 1
        assert _derived_states(7, range(last, last + 1)) == [_default_rng_state(7, last)]
        with pytest.raises(ValueError):
            _trial_uniforms(7, range(last, last + 2), 1)

    @settings(max_examples=300, deadline=None)
    @given(a=_U128, b=_U128)
    @example(a=2**64 - 1, b=1)
    @example(a=2**128 - 1, b=2**128 - 1)
    def test_limb_arithmetic_is_mod_2_128(self, a, b):
        # The helpers against Python ints; the examples carry out of the low
        # words and fill every 32-bit part of both low words.
        a_halves, b_halves = _split(a), _split(b)
        assert _joined(_add128(a_halves, b_halves)) == [(a + b) % 2**128]
        assert _joined(_mul128(a_halves, b_halves)) == [a * b % 2**128]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        start=st.integers(0, 2**32 - 8),
        trials=st.integers(1, 8),
        count=st.integers(1, 24),
        skip=st.integers(0, 6),
    )
    @example(seed=2**70 - 1, start=2**32 - 8, trials=8, count=24, skip=6)
    def test_uniforms_match_default_rng_after_a_skip(self, seed, start, trials, count, skip):
        got = _trial_uniforms(seed, range(start, start + trials), count, skip)
        for t, row in zip(range(start, start + trials), got):
            rng = np.random.default_rng((seed, 1, t))
            rng.bit_generator.random_raw(skip)
            np.testing.assert_array_equal(row, rng.random(count))

    @pytest.mark.parametrize("count", [1, 8, 24, _BATCH_ELEMENTS])
    def test_one_block_holds_a_few_block_sized_arrays(self, count):
        # A block draws _BATCH_ELEMENTS doubles. Its per-trial states and
        # per-draw 128-bit products are uint64 arrays no larger than the
        # block, so the peak is a fixed number of block-sized arrays whatever
        # the shape; the warm-up call keeps one-time allocations out of it.
        trials = range(_BATCH_ELEMENTS // count)
        _trial_uniforms(0, range(2), count)
        tracemalloc.start()
        try:
            _trial_uniforms(0, trials, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 8 * _BATCH_ELEMENTS

    def test_lcg_sums_are_python_int_sums(self):
        # C_j = 1 + mult + ... + mult^(j - 1) mod 2^128.
        expected, power = [], 1
        for _ in range(_BATCH_ELEMENTS):
            expected.append(((expected[-1] if expected else 0) + power) % 2**128)
            power = power * _PCG64_MULT % 2**128
        for j in (1, 2, 3, 1000, _BATCH_ELEMENTS):
            table = _lcg_sums(j)
            assert _joined(table) == expected[:j]
            for half in table:
                with pytest.raises(ValueError, match="read-only"):
                    half[0] = 0
        with pytest.raises(ValueError, match="at most"):
            _lcg_sums(_BATCH_ELEMENTS + 1)

    @pytest.mark.parametrize("seed", [0, 2**70 + 1])
    def test_blocks_cover_many_streams_past_a_skip(self, seed):
        # Five streams read _BATCH_ELEMENTS // 5 outputs a range, so 7,000
        # outputs take three ranges, the last one short; the last stream
        # is trial 2^32 - 1.
        t = np.array([0, 1, 2, 1000, 2**32 - 1], dtype=np.uint32)
        skip, count, width = 5, 7000, _BATCH_ELEMENTS // 5
        state, step = pcg64_states(seed, [np.ones_like(t), t])
        columns = range(0, count, width)
        blocks = [pcg64_outputs(state, step, skip + column, min(width, count - column))
                  for column in columns]
        assert list(columns) == [0, width, 2 * width] and count > 2 * width
        assert all(outputs.size <= _BATCH_ELEMENTS for outputs in blocks)
        got = np.concatenate(blocks, axis=1)
        expected = [np.random.default_rng((seed, 1, int(i))).bit_generator.random_raw(skip + count)
                    for i in t]
        np.testing.assert_array_equal(got, np.array(expected)[:, skip:])

    @pytest.mark.parametrize("seed", [2**32, 2**70 + 1])
    def test_uniforms_are_default_rng_draws(self, seed):
        np.testing.assert_array_equal(
            _trial_uniforms(seed, range(200), 5),
            [np.random.default_rng((seed, 1, t)).random(5) for t in range(200)],
        )
        # A skip passes over whole 64-bit outputs of the stream.
        skipped = _trial_uniforms(seed, range(100, 200), 5, skip=3)
        for t, row in zip(range(100, 200), skipped):
            rng = np.random.default_rng((seed, 1, t))
            rng.bit_generator.random_raw(3)
            np.testing.assert_array_equal(row, rng.random(5))


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
        ctx = _context(joint, n=12, rate=0.6, seed=21)
        ref = _reference_context(joint, n=12, rate=0.6, seed=21)
        n_erased_cap = 0
        for record in _records(_sw_trials(ctx, range(80))):
            _, b, e = np.unravel_index(record.cells, ctx.cell_shape)
            # announced bin really contains the drawn sequence
            assert ctx.code.bin_of[record.seq_index] == record.bin_index
            assert ctx.code.bin_of[record.decoded_index] == record.bin_index
            # decoding failure implies a competitor at least as likely
            if record.error and not record.tie:
                bob_true = np.prod(
                    ref.p_a_given_b[ref.seq_table[record.seq_index], b]
                )
                bob_decoded = np.prod(
                    ref.p_a_given_b[ref.seq_table[record.decoded_index], b]
                )
                assert bob_decoded >= bob_true
            # per-trial equivocation never exceeds what Eve's own symbols allow
            eve_only = (e == 2).sum() / ctx.n
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
            ctx = _context(joint, n=n, rate=rate, seed=n)
            code = ctx.code
            k = ctx.head_digits
            cases.add(code.n_bins >= n_seq)
            assert ctx.bin_offsets[0] == 0 and ctx.bin_offsets[-1] == n_seq
            assert 1 <= k <= n and (k == 1 or n_a**k * code.n_bins <= n_seq)
            # All bins in one set of padded rows, and each bin in rows of its own.
            every = _bin_rows(ctx, np.arange(code.n_bins))
            for bin_index in range(code.n_bins):
                members = ctx.members_order[
                    ctx.bin_offsets[bin_index] : ctx.bin_offsets[bin_index + 1]
                ]
                np.testing.assert_array_equal(members, np.flatnonzero(code.bin_of == bin_index))
                alone = _bin_rows(ctx, np.array([bin_index]))
                for rows, row in ((every, bin_index), (alone, 0)):
                    size = rows.sizes[row]
                    assert size == members.size
                    np.testing.assert_array_equal(rows.members[row, :size], members)
                    assert (rows.members[row, size:] == n_seq - 1).all()
                    # Read each member's digits off the index rows: the head
                    # number holds position p at place |A|^p, and digits[j]
                    # is position k + j.
                    head = rows.head[row, :size]
                    read = [head // n_a**p % n_a for p in range(k)]
                    read += [tail[row, :size] for tail in rows.digits]
                    np.testing.assert_array_equal(np.array(read).T, digits[members])
        assert cases == {True, False}

    @pytest.mark.parametrize(
        "sizes,n,rate", [((2, 3, 3), 9, 0.5), ((2, 2, 3), 10, 0.3), ((3, 2, 2), 6, 0.9)]
    )
    def test_mixed_chunk_matches_reference(self, sizes, n, rate):
        # One chunk: a bin drawn by several trials, and bins of other sizes
        # drawn by one trial each, in no particular order.
        joint = dirichlet_joint(np.random.default_rng((41, n)), sizes)
        seed = 5
        ctx = _context(joint, n, rate, seed)
        ref = _reference_context(joint, n, rate, seed)
        records = _sw_trials(ctx, range(1000))
        sizes_of = np.diff(ctx.bin_offsets)[records.bin_index]
        shared = np.bincount(records.bin_index).argmax()
        picked = list(np.flatnonzero(records.bin_index == shared)[:4])
        seen = {sizes_of[picked[0]]}
        for t in range(1000):
            if sizes_of[t] not in seen:
                seen.add(sizes_of[t])
                picked.append(t)
        assert len(picked) >= 7
        picked = np.random.default_rng(0).permutation(picked)
        bins, bin_row = np.unique(records.bin_index[picked], return_inverse=True)
        bin_rows = _bin_rows(ctx, bins)
        assert len(set(bin_rows.sizes)) == len(bins) > 1
        scored = _score_chunk(
            ctx, bin_rows, bin_row.reshape(-1), records.cells[picked], records.seq_index[picked]
        )
        for t, error, tie, equiv, decoded_index in zip(picked, *scored):
            got = (bool(error), bool(tie), float(equiv), int(records.seq_index[t]),
                   int(decoded_index))
            assert got == _reference_trial(ref, np.random.default_rng((seed, 1, t)))

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
            ctx = _context(joint, n, rate, seed)
            ref = _reference_context(joint, n, rate, seed)
            for t, record in enumerate(_records(_sw_trials(ctx, range(40)))):
                got = (record.error, record.tie, record.equiv, record.seq_index,
                       record.decoded_index)
                assert got == _reference_trial(ref, np.random.default_rng((seed, 1, t)))

    def test_run_longer_than_one_block_matches_reference(self):
        # A block draws at most _BATCH_ELEMENTS numbers, so this run spans two.
        joint = dirichlet_joint(np.random.default_rng(7), (2, 3, 3))
        n = 12
        trials = _BATCH_ELEMENTS // n + 40
        assert run_sw_binning(joint, n, 0.75, trials, 6) == _reference_run(
            joint, n, 0.75, trials, 6
        )

    @pytest.mark.parametrize("n", [1, 8])
    def test_cell_draw_is_generator_choice(self, n):
        # The erasure joint has cells without mass, which a searchsorted on
        # a flat run of the cumulative sum must skip exactly as choice does.
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        ctx = _context(joint, n, 0.5, 0)
        flat = _reference_context(joint, n, 0.5, 0).flat
        assert (flat == 0.0).any()
        for s in range(200):
            drawn = ctx.cdf.searchsorted(np.random.default_rng((s, 1)).random(n), side="right")
            chosen = np.random.default_rng((s, 1)).choice(flat.size, n, p=flat)
            assert np.array_equal(drawn, chosen)

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

    def test_full_rate_run_holds_only_the_table(self):
        # A full-rate run is answered from its code, so beyond the identity
        # table no count, sum or sort over the 2^18 sequences is held or made.
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        run_sw_binning(joint, 4, 1.0, 5, 0)
        tracemalloc.start()
        try:
            report = run_sw_binning(joint, 18, 1.0, 5, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == SimReport(5, 0.0, 0.0, 0.0, 0)
        assert peak <= 8 * 2**18 + 64 * 1024

    @pytest.mark.parametrize("sizes,n,rate", [
        ((2, 3, 3), 10, 1.0), ((3, 2, 4), 5, math.log2(3)), ((1, 2, 2), 7, 0.0),
    ], ids=["binary", "ternary-past-full", "one-symbol"])
    def test_full_rate_run_is_answered_from_its_code(self, monkeypatch, sizes, n, rate):
        # 2^ceil(n rate) bins hold the |A|^n sequences at most one a bin, so
        # Bob decodes exactly, Eve's posterior is a point mass and no trial
        # is drawn or scored.
        joint = dirichlet_joint(np.random.default_rng((51, n)), sizes)
        code = make_binning_code(n, rate, sizes[0], 4)
        assert code.n_bins >= sizes[0] ** n

        def unreachable(*args, **kwargs):
            raise AssertionError("a full-rate run draws or scores a trial")

        monkeypatch.setattr(binning, "_sw_context", unreachable)
        monkeypatch.setattr(binning, "_trial_uniforms", unreachable)
        report = run_sw_binning(joint, n, rate, np.int64(30), 4)
        assert report == SimReport(30, 0.0, 0.0, 0.0, 4)
        assert type(report.trials) is int
        assert report.ties == report.wrong_decodes == 0

    def test_zero_posterior_at_the_truth_is_an_error(self):
        # p(a = 1) = 1e-30, so the all-ones block's likelihood, 1e-330 at
        # Bob and at Eve, underflows to 0 in a bin that holds other members.
        alphabets = [Alphabet(name, symbols) for name, symbols in
                     (("A", ("0", "1")), ("B", ("0",)), ("E", ("0",)))]
        joint = JointPMF(tuple((a.name, a) for a in alphabets),
                         np.array([1.0 - 1e-30, 1e-30]).reshape(2, 1, 1))
        n = 11
        ctx = _context(joint, n, 0.5, 0)
        seq_index = np.array([2**n - 1])
        bin_rows = _bin_rows(ctx, ctx.code.bin_of[seq_index])
        assert bin_rows.sizes[0] > 1
        cells = np.ones((1, n), dtype=np.int64)
        with pytest.raises(ArithmeticError, match="zero posterior at Bob"):
            _score_chunk(ctx, bin_rows, np.zeros(1, dtype=np.int64), cells, seq_index)

    def test_single_bin_n16_memory_is_set_by_the_batch_budget(self):
        # Rate 0 puts all 2^16 sequences in one bin. Scoring the 100 trials
        # together would hold 100 x 2 x 2^16 likelihoods (100 MiB); a chunk
        # holds _BATCH_ELEMENTS of them, or one trial's if that is more.
        joint = make_erasure_joint(ErasureParams(0.1, 0.3))
        members = 2**16
        chunk_bytes = 8 * max(_BATCH_ELEMENTS, 2 * members)
        tracemalloc.start()
        try:
            run_sw_binning(joint, n=16, rate=0.0, trials=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The bin table and the member order, then a few chunk-sized arrays.
        assert peak <= 2 * 8 * members + 8 * chunk_bytes

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

    def test_rejects_non_integer_blocklength_and_trials(self):
        # At rate 1 a float n used to pass into a full-rate code, and below it
        # failed deep inside the bin table's draw.
        joint = make_erasure_joint(ErasureParams(0.5, 0.8))
        for n in (4.5, 4.0):
            for rate in (0.0, 0.5, 1.0):
                with pytest.raises(TypeError):
                    make_binning_code(n, rate, 2, 0)
                with pytest.raises(TypeError):
                    run_sw_binning(joint, n, rate, 10, 0)
        for rate in (0.5, 1.0):
            with pytest.raises(TypeError):
                run_sw_binning(joint, 4, rate, 2.5, 0)
        with pytest.raises(TypeError):
            run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), 4.5, 10, 0)
        with pytest.raises(TypeError):
            run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), 4, 2.5, 0)
        assert make_binning_code(np.int64(4), 0.5, 2, 0).n == 4
        for rate in (0.5, 1.0):
            report = run_sw_binning(joint, np.int64(4), rate, np.int64(10), 0)
            assert report == run_sw_binning(joint, 4, rate, 10, 0)
            assert type(report.trials) is int
        report = run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), np.int64(4),
                                            np.int64(10), 0)
        assert report == run_erasure_encoder_scheme(ErasureParams(0.25, 0.5), 4, 10, 0)
        assert type(report.trials) is int


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
        params, n, seed = ErasureParams(0.25, 0.5), 10, 5
        for t, equiv in enumerate(_gap_trials(params, n, seed, range(50))):
            _, bob_erased, eve_erased = _gap_trial_draws(params, n, seed, t)
            assert equiv == (eve_erased & ~bob_erased).sum() / n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_trial_draws_are_default_rng_streams(self, n):
        # The erasure uniforms follow the n source bits, which take ceil(n/2)
        # 64-bit outputs: an odd n leaves a cached 32-bit half that the
        # uniforms must not consume.
        params, seed = ErasureParams(0.25, 0.5), 2**70 + 1
        for t, equiv in enumerate(_gap_trials(params, n, seed, range(300))):
            _, bob_erased, eve_erased = _gap_trial_draws(params, n, seed, t)
            assert equiv == (eve_erased & ~bob_erased).sum() / n

    def test_run_longer_than_one_block_matches_per_trial_streams(self):
        params, n, seed = ErasureParams(0.25, 0.5), 12, 3
        trials = 2 * (_BATCH_ELEMENTS // (2 * n)) + 7
        equivs = np.empty(trials)
        for t in range(trials):
            _, bob_erased, eve_erased = _gap_trial_draws(params, n, seed, t)
            equivs[t] = int((eve_erased & ~bob_erased).sum()) / n
        report = run_erasure_encoder_scheme(params, n, trials, seed)
        assert report.equiv_hat == float(equivs.mean())
        assert report.equiv_stderr == float(equivs.std(ddof=1) / math.sqrt(trials))

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("p_b,p_e", [(0.25, 0.5), (0.1, 0.9), (0.6, 0.7)])
    def test_counted_posterior_equals_enumeration(self, n, p_b, p_e):
        params = ErasureParams(p_b, p_e)
        for t, equiv in enumerate(_gap_trials(params, n, n, range(200))):
            assert equiv == _enumerated_gap_equiv(*_gap_trial_draws(params, n, n, t))

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
