"""secomp.streams' draws against the installed numpy.random, bit for bit.

binning's trial and bin-table streams are checked in test_binning.py; these
tests cover the draws that read one stream in order: the exponential
ziggurat, the Dirichlet quantizers of the coded sweep and column
generation's pricing starts.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from secomp import streams
from secomp.ascent import _PERTURB, _PULL, OptimizerConfig, _random_starts
from secomp.cli import _sample_v_channels
from secomp.probability import Alphabet, Channel
from secomp.streams import _BLOCK as BLOCK, Streams


def _rejected(outputs):
    """Which 64-bit outputs the ziggurat's fast test rejects, and their strips."""
    ke, _, _ = streams._ziggurat()
    ri = outputs >> np.uint64(3)
    idx = (ri & np.uint64(0xFF)).astype(np.intp)
    return (ri >> np.uint64(8)) >= ke[idx], idx


class TestStandardExponential:
    def test_matches_default_rng_through_both_rare_branches(self, monkeypatch):
        # 200,000 draws pass two blocks of the LCG sums table. Each rare
        # branch is seen through the helper that takes it: the tail of strip
        # 0, and another strip's wedge, which keeps its candidate or rejects.
        branches = set()
        unlikely = streams._unlikely

        def recording(idx, x, uniform):
            value = unlikely(idx, x, uniform)
            branches.add("tail" if idx == 0 else "wedge kept" if value is not None
                         else "wedge rejected")
            return value

        monkeypatch.setattr(streams, "_unlikely", recording)
        seed = 2**70 + 5
        stream = Streams(seed, [])
        rng = np.random.default_rng(seed)
        (got,) = stream.standard_exponential(200_000)
        np.testing.assert_array_equal(got, rng.standard_exponential(200_000))
        assert branches == {"tail", "wedge kept", "wedge rejected"}
        assert got.max() > streams._ZIGGURAT_EXP_R  # only the tail draws past r
        # The stream stands where the Generator's does.
        np.testing.assert_array_equal(stream.random(3), [rng.random(3)])

    def test_a_rejection_at_the_end_of_what_was_read(self):
        # A draw of count exponentials first reads count outputs; when the
        # last of them is rejected, its uniform is the next output.
        seed = 11
        rejected, _ = _rejected(np.random.default_rng(seed).bit_generator.random_raw(300))
        counts = np.flatnonzero(rejected) + 1
        assert counts.size
        for count in [1, 2, *counts.tolist()]:
            stream = Streams(seed, [])
            rng = np.random.default_rng(seed)
            np.testing.assert_array_equal(stream.standard_exponential(count),
                                          [rng.standard_exponential(count)], err_msg=str(count))
            np.testing.assert_array_equal(stream.random(2), [rng.random(2)])


class TestStreamReads:
    @pytest.mark.parametrize("first", [0, 5, BLOCK - 3, BLOCK, BLOCK + 9])
    def test_raw_reads_in_order_across_blocks(self, first):
        # A read that ends past the LCG sums table jumps the streams to where
        # it starts, and a read longer than the table jumps once a table.
        words = [np.array([2, 2], dtype=np.uint32), np.array([0, 7], dtype=np.uint32)]
        generators = [np.random.default_rng((2**32, 2, int(i))).bit_generator for i in words[1]]
        streams_2i = Streams(2**32, words)
        for count in [first, 3, BLOCK - 1, 2, BLOCK + 7, 1]:
            np.testing.assert_array_equal(
                streams_2i.raw(count), [generator.random_raw(count) for generator in generators]
            )

    def test_rows_read_on_where_their_exponentials_stopped(self):
        # 40 streams of 50 draws: most rows meet a rejection and read past
        # the others, some more than once, and the next read of each row
        # starts where its own Generator's does.
        index = np.arange(40, dtype=np.uint32)
        streams_2i = Streams(5, [np.full_like(index, 2), index])
        generators = [np.random.default_rng((5, 2, i)) for i in range(40)]
        for _ in range(3):
            np.testing.assert_array_equal(
                streams_2i.standard_exponential(50),
                [generator.standard_exponential(50) for generator in generators],
            )
            np.testing.assert_array_equal(
                streams_2i.random(7), [generator.random(7) for generator in generators]
            )

    @pytest.mark.parametrize("skip", [0, 5, BLOCK - 3])
    def test_skip_passes_over_outputs_unread(self, monkeypatch, skip):
        # Skipping computes no output; past a skip of BLOCK - 3, a read of 10
        # crosses the edge of the LCG sums table.
        words = [np.array([2, 2], dtype=np.uint32), np.array([0, 7], dtype=np.uint32)]
        generators = [np.random.default_rng((2**32, 2, int(i))).bit_generator for i in words[1]]
        streams_2i = Streams(2**32, words)
        with monkeypatch.context() as patched:
            patched.setattr(streams, "_pcg64_outputs", None)
            streams_2i.skip(skip)
        for generator in generators:
            generator.random_raw(skip)
        np.testing.assert_array_equal(
            streams_2i.raw(10), [generator.random_raw(10) for generator in generators]
        )

    def test_skip_after_an_exponential_draw(self):
        # The draw leaves the rows at different positions; each skips from its
        # own, and the read after the skip crosses the LCG sums table's edge.
        index = np.arange(40, dtype=np.uint32)
        streams_2i = Streams(5, [np.full_like(index, 2), index])
        generators = [np.random.default_rng((5, 2, i)) for i in range(40)]
        streams_2i.standard_exponential(50)
        for generator in generators:
            generator.standard_exponential(50)
        assert np.unique(streams_2i._read).size > 1
        streams_2i.skip(BLOCK - 55)
        for generator in generators:
            generator.bit_generator.random_raw(BLOCK - 55)
        np.testing.assert_array_equal(
            streams_2i.raw(10), [generator.bit_generator.random_raw(10) for generator in generators]
        )

    @pytest.mark.parametrize("count", [0, 1, 5, BLOCK, 2**40 + 3])
    def test_jump_is_generator_advance(self, count):
        state, step = streams._jump(*streams._pcg64_states(9, []), count)
        bit_generator = np.random.default_rng(9).bit_generator
        bit_generator.advance(count)
        expected = bit_generator.state["state"]
        s_0 = expected["state"]
        s_1 = (s_0 * streams._PCG64_MULT + expected["inc"]) % 2**128
        assert [int(high[0]) << 64 | int(low[0]) for high, low in (state, step)] == [
            s_0, (s_1 - s_0) % 2**128]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**72), k=st.integers(2, 8), size=st.integers(1, 6),
       count=st.integers(1, 4))
@example(seed=2**32, k=8, size=6, count=4)
@example(seed=2**70 + 5, k=2, size=1, count=4)
def test_dirichlet_is_default_rngs(seed, k, size, count):
    # The coded sweep's quantizer streams (seed, 2, i), seeded in one pass.
    index = np.arange(count, dtype=np.uint32)
    streams_2i = Streams(seed, [np.full_like(index, 2), index])
    expected = [np.random.default_rng((seed, 2, i)).dirichlet(np.ones(k), size)
                for i in range(count)]
    np.testing.assert_array_equal(streams_2i.dirichlet(k, size), expected)


@pytest.mark.parametrize("seed", [0, 2**32])
def test_v_channels_are_default_rng_dirichlet_rows(seed):
    alph_c = Alphabet("C", ("0", "1", "e"))
    channels = _sample_v_channels(alph_c, 9, seed)
    assert len(channels) == 9
    for i, channel in enumerate(channels[2:]):
        rows = np.random.default_rng((seed, 2, i)).dirichlet(np.ones(5), size=3)
        expected = Channel(channel.from_vars, channel.to_var, rows)
        np.testing.assert_array_equal(channel.rows, expected.rows)
    assert len(_sample_v_channels(alph_c, 1, seed)) == 1


@pytest.mark.parametrize("seed", [0, 3, 2**70 + 5])
@pytest.mark.parametrize("k", [1, 3, 16, 64])
@pytest.mark.parametrize("starts", [1, 2, 17, 64])
def test_column_generation_starts_are_default_rngs(seed, k, starts):
    # The start logits, then the perturbed target, from one default_rng(seed).
    rho = np.arange(1.0, k + 1.0) / (k * (k + 1) / 2)
    logits, target = _random_starts(rho, OptimizerConfig(starts=starts, seed=seed))
    rng = np.random.default_rng(seed)
    expected = np.log(rng.dirichlet(np.ones(k), size=starts) * (1.0 - _PULL) + _PULL * rho)
    np.testing.assert_array_equal(logits, expected)
    np.testing.assert_array_equal(target, rho * (1.0 + _PERTURB * rng.random(k)))
