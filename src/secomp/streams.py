"""Seeded draws: the numbers ``numpy.random.default_rng`` draws, without ``numpy.random``.

Every seeded draw in secomp reproduces one of numpy's ``default_rng``
streams bit for bit, yet no Generator is built, so no command imports
``numpy.random``: importing it costs a fresh process about 10 ms and 6 MB,
and building one Generator per binning trial costs more than a short
trial's arithmetic. Every number comes from uint64 array arithmetic over
many streams at once instead. ``pcg64_states`` runs SeedSequence's entropy
mixing and ``generate_state(4, uint64)``, then PCG64's seeding step on
128-bit numbers held as (high, low) uint64 halves (``_add128`` and
``_mul128`` add and multiply them mod 2^128). PCG64 steps its LCG, state *
mult + inc, before each 64-bit output, so j steps take a state s_0 to s_0 +
(s_1 - s_0) * C_j, C_j = 1 + mult + ... + mult^(j-1) (F. Brown, "Random
Number Generation with Arbitrary Strides", 1994). ``pcg64_states`` returns
s_0 and the step s_1 - s_0, ``pcg64_outputs`` reads any run of outputs off
one cached table of the C_j, ``_lcg_sums``, and ``jump`` moves a stream L
steps on: the state gains the step times C_L and the step is multiplied by
mult^L, both numbers from ``pow``. All of it is exact integer arithmetic, so
the outputs are the very ones numpy computes.

The draws read the XSL-RR outputs as numpy's Generator reads them.
``doubles`` is ``Generator.random``: an output's top 53 bits times 2^-53.
``Streams`` seeds many streams in one pass, computes their outputs together
and reads each stream's outputs in order, so a draw whose count of outputs
depends on their values consumes exactly the outputs numpy's does.
``Streams.standard_exponential`` is numpy's exponential ziggurat over
numpy's own tables: an output is accepted at once about 98 % of the time,
and a stream that meets a rejection is drawn one output at a time. Each rare
branch reads one more output (the tail past the base strip, and the wedge
test, which rejects by drawing again), with ``math.log1p`` and ``math.exp``,
the C library functions numpy calls. ``Streams.dirichlet`` with every
concentration 1 normalizes k exponentials a row as ``Generator.dirichlet``
does: summed left to right, times the reciprocal of the sum.
"""

from __future__ import annotations

import binascii
import functools
import itertools
import math

import numpy as np

# The most outputs per stream one call of pcg64_outputs reads: the cached
# table of LCG sums holds at most this many entries.
BLOCK = 2**14

# numpy.random.SeedSequence's hash constants (INIT_A and MULT_A mix the
# entropy into the pool, INIT_B and MULT_B draw the state from it) and
# PCG64's 128-bit LCG multiplier: what pcg64_states needs to rebuild the
# state default_rng((seed, *words)) starts in.
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
# Shift counts and masks of the uint64 limb arithmetic, typed so that no
# operand is a Python int: numpy 1.24's value-based casting would turn some
# mixes of Python ints and uint64 into float64.
_U1, _U3, _U8, _U11, _U32, _U58, _U63 = (np.uint64(k) for k in (1, 3, 8, 11, 32, 58, 63))
_U64_MASK8 = np.uint64(0xFF)
_U64_MASK32 = np.uint64(_MASK32)

# The start of the exponential ziggurat's tail, as numpy writes it.
_ZIGGURAT_EXP_R = 7.69711747013104972
# Outputs computed past those a read asks for, at the least, since a rejected
# exponential reads a few more.
_SPARE_OUTPUTS = 64


@functools.cache
def _hash_constants(init: int, mult: int, rows: tuple[int, ...]) -> list[np.ndarray]:
    """SeedSequence's running hash constant, (value before, value after) each update.

    One read-only (2, r, 1) uint32 array of r consecutive updates for each r
    in rows, in turn; the constants never depend on the data, so they are
    computed once.
    """
    updates = itertools.accumulate(itertools.repeat(mult), lambda const, m: const * m & _MASK32,
                                   initial=init)
    pairs = itertools.pairwise(updates)
    arrays = [np.array(list(itertools.islice(pairs, r)), dtype=np.uint32).T[..., None]
              for r in rows]
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value's rows, row i with row i of (before, after) constants."""
    before, after = constants
    value = (value ^ before) * after
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> np.uint32(16)


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(a + b) mod 2^128 on (high, low) uint64 halves."""
    low = a[1] + b[1]
    # The low words wrapped exactly when their sum is below either of them.
    return a[0] + b[0] + (low < b[1]).astype(np.uint64), low


def _mul128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2^128 on (high, low) uint64 halves.

    uint64 products wrap mod 2^64, so only the high word of low * low needs
    the low words split into 32-bit parts; the cross terms enter the high
    word mod 2^64 whole.
    """
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a1, a0 = a_lo >> _U32, a_lo & _U64_MASK32
    b1, b0 = b_lo >> _U32, b_lo & _U64_MASK32
    cross = a1 * b0
    middle = (a0 * b0 >> _U32) + (cross & _U64_MASK32) + a0 * b1
    carry = (cross >> _U32) + (middle >> _U32) + a1 * b1
    return carry + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _halves(value: int) -> tuple[np.uint64, np.uint64]:
    """(high, low) uint64 halves of a 128-bit Python int."""
    return np.uint64(value >> 64), np.uint64(value & _MASK64)


def pcg64_states(seed: int, words: list[np.ndarray]) -> tuple[tuple, tuple]:
    """PCG64 ``((state_hi, state_lo), (step_hi, step_lo))`` of ``default_rng((seed, *words))``.

    The state is s_0 and the step s_1 - s_0 = s_0 * (mult - 1) + inc mod
    2^128, the only pair a draw reads. seed is a nonnegative int and words
    are the entropy words that follow it, uint32 arrays of shape (streams,);
    entry i of each half, a uint64 array, belongs to the stream of entry i
    of every word: binning's bin table stream (seed, 0) is one entry of
    [0], and trial t's stream (seed, 1, t) is entry t of [1, t]. No words
    give the one stream of ``default_rng(seed)``. SeedSequence splits each
    entropy integer into little-endian 32-bit words. Its hash constants
    never depend on the data, so every stream's pool, a word a row, is mixed
    in one pass of uint32 array arithmetic.
    """
    shape = words[0].shape if words else (1,)
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(shape, word, dtype=np.uint32) for word in seed_words] + words
    zeros = np.zeros(shape, dtype=np.uint32)
    entropy = np.stack(entropy + [zeros] * (_POOL_SIZE - len(entropy)))
    # The pool's words, then each word's mix into the other three, then each
    # entropy word past the pool's mixed into all four.
    extra = len(entropy) - _POOL_SIZE
    mixing = iter(_hash_constants(*_HASH_A, (_POOL_SIZE,) + (_POOL_SIZE - 1,) * _POOL_SIZE
                                  + (_POOL_SIZE,) * extra))
    pool = _hashmix(entropy[:_POOL_SIZE], next(mixing))
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(mixing)))
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, next(mixing)))
    # generate_state(4, uint64): eight 32-bit words drawn from the pool words in
    # turn, paired little-endian.
    (drawing,) = _hash_constants(*_HASH_B, (2 * _POOL_SIZE,))
    drawn = _hashmix(np.concatenate([pool, pool]), drawing)
    s_hi, s_lo, q_hi, q_lo = drawn[0::2].astype(np.uint64) | drawn[1::2].astype(np.uint64) << _U32
    del entropy, pool, drawn  # before the 128-bit temporaries below
    # PCG64's srandom from initstate = (s_hi, s_lo) and initseq = (q_hi, q_lo):
    # inc = 2 * initseq + 1, state = (initstate + inc) * mult + inc.
    inc = (q_hi << _U1 | q_lo >> _U63, q_lo << _U1 | _U1)
    state = _add128(_mul128(_add128((s_hi, s_lo), inc), _halves(_PCG64_MULT)), inc)
    return state, _add128(_mul128(state, _halves(_PCG64_MULT - 1)), inc)


def _xsl_rr(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR outputs of states (high, low).

    The halves xored, rotated right by the state's top 6 bits.
    """
    value = high ^ low
    rotation = high >> _U58
    return value >> rotation | value << (-rotation & _U63)


@functools.cache
def _lcg_sums(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (high, low) uint64 arrays of C_1 ... C_count, C_j = 1 + mult + ... + mult^(j - 1).

    Doubled as C_(L+k) = C_L + mult^L * C_k, mult^L from ``pow``; shared, so count is at
    most BLOCK.
    """
    if count > BLOCK:
        raise ValueError(f"the LCG sums table holds at most {BLOCK} entries")
    sums = (np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.uint64))
    while (done := len(sums[0])) < count:
        last = tuple(half[-1:] for half in sums)
        head = tuple(half[: count - done] for half in sums)
        more = _add128(last, _mul128(_halves(pow(_PCG64_MULT, done, 1 << 128)), head))
        sums = tuple(map(np.concatenate, zip(sums, more)))
    for half in sums:
        half.flags.writeable = False
    return sums


def pcg64_outputs(state: tuple, step: tuple, first: int, count: int) -> np.ndarray:
    """XSL-RR outputs first + 1 ... first + count of streams at states s_0 with steps s_1 - s_0.

    Entry (i, k) is the output of stream i's state s_0 + (s_1 - s_0) * C_(first + k + 1); the
    sums come from the power-of-two table that holds them, so callers ask for few sizes, and
    first + count is at most BLOCK.
    """
    table = _lcg_sums(1 << (first + count - 1).bit_length())
    sums = tuple(half[first : first + count] for half in table)
    state, step = (tuple(half[:, None] for half in pair) for pair in (state, step))
    return _xsl_rr(*_add128(state, _mul128(step, sums)))


def jump(state: tuple, step: tuple, count: int) -> tuple[tuple, tuple]:
    """The (state, step) pairs of streams count outputs on.

    The state gains the step times C_count and the step is multiplied by
    mult^count. C_count = (mult^count - 1) / (mult - 1) mod 2^128 is exact
    from mult^count taken mod 2^128 (mult - 1), a multiple of mult - 1.
    """
    modulus = (_PCG64_MULT - 1) << 128
    lcg_sum = (pow(_PCG64_MULT, count, modulus) - 1) // (_PCG64_MULT - 1)
    return (_add128(state, _mul128(step, _halves(lcg_sum))),
            _mul128(step, _halves(pow(_PCG64_MULT, count, 1 << 128))))


def doubles(outputs: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles of 64-bit outputs: the top 53 bits times 2^-53."""
    return (outputs >> _U11) * 2.0**-53


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray, list[float]]:
    """numpy's ``ke_double`` (uint64) and ``we_double`` arrays and its ``fe_double`` values."""
    from ._numpy_ziggurat import TABLES  # only draws of exponentials read the tables

    ke, we, fe = np.frombuffer(binascii.a2b_base64(TABLES), dtype="<u8").reshape(3, -1)
    return ke, we.view("<f8"), fe.view("<f8").tolist()


def _unlikely(idx: int, x: float, uniform: float) -> float | None:
    """numpy's ``standard_exponential_unlikely`` given its one uniform; None draws again.

    Strip 0 draws from the tail past r; another strip keeps its candidate x
    when the uniform lands under exp(-x) in the strip's wedge.
    """
    if idx == 0:
        return _ZIGGURAT_EXP_R - math.log1p(-uniform)
    fe = _ziggurat()[2]
    return x if (fe[idx - 1] - fe[idx]) * uniform + fe[idx] < math.exp(-x) else None


def _ziggurat_candidates(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate draws, their strips and whether the fast test rejects them, of 64-bit outputs."""
    ke, we, _ = _ziggurat()
    ri = outputs >> _U3
    idx = (ri & _U64_MASK8).astype(np.intp)
    ri >>= _U8
    return ri * we[idx], idx, ri >= ke[idx]


class Streams:
    """The streams of ``default_rng((seed, *words))``, one per entry of the words, read in order.

    Row i of every draw belongs to the stream of entry i of the words, and
    each stream is read as its Generator reads it. All are seeded in one
    pass (see ``pcg64_states``) and their outputs computed together; a row
    reads past the others only when a draw reads its outputs one by one.
    """

    def __init__(self, seed: int, words: list[np.ndarray]) -> None:
        self._state, self._step = pcg64_states(seed, words)
        # The outputs from stream position _first on, and each row's next
        # position; the (state, step) pair stands at position _anchor.
        self._read = np.zeros(len(self._state[0]), dtype=np.intp)
        self._outputs = np.empty((len(self._read), 0), dtype=np.uint64)
        self._first = self._anchor = 0

    def _compute(self, stop: int) -> None:
        """Hold every stream's outputs up to position stop, dropping those all rows have read."""
        end = self._first + self._outputs.shape[1]
        if stop <= end:
            return
        stop = max(stop, end + _SPARE_OUTPUTS)
        keep = int(self._read.min(initial=end))
        blocks = [self._outputs[:, keep - self._first :]]
        for start in range(end, stop, BLOCK):
            width = min(BLOCK, stop - start)
            if start - self._anchor + width > BLOCK:
                self._state, self._step = jump(self._state, self._step, start - self._anchor)
                self._anchor = start
            blocks.append(pcg64_outputs(self._state, self._step, start - self._anchor, width))
        self._outputs, self._first = np.concatenate(blocks, axis=1), keep

    def _take(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next count outputs of each stream in rows, an index array, a row each."""
        read = self._read[rows]
        self._compute(int(read.max(initial=self._first)) + count)
        self._read[rows] = read + count
        return self._outputs[rows[:, None], (read - self._first)[:, None] + np.arange(count)]

    def raw(self, count: int) -> np.ndarray:
        """The next count 64-bit outputs of every stream."""
        return self._take(np.arange(len(self._read)), count)

    def random(self, count: int) -> np.ndarray:
        """``Generator.random(count)`` of every stream."""
        return doubles(self.raw(count))

    def standard_exponential(self, count: int) -> np.ndarray:
        """``Generator.standard_exponential(count)`` of every stream, by numpy's ziggurat.

        Every draw reads at least one output, so each stream's first count
        outputs are tested together; a row with a rejection among them is
        then drawn again one output at a time.
        """
        outputs = self.raw(count)
        values, idx, rejected = _ziggurat_candidates(outputs)
        for row in np.flatnonzero(rejected.any(axis=1)).tolist():
            self._exponential_row(row, values[row], outputs[row], idx[row], rejected[row])
        return values

    def _exponential_row(self, row: int, values: np.ndarray, outputs: np.ndarray,
                         idx: np.ndarray, rejected: np.ndarray) -> None:
        """Fill values, one row's draws, from its first outputs, whose candidates they hold.

        A rejected output's rare branch reads the output after it as its
        uniform, and the next draw starts past that; a pass that fills too
        few draws reads as many outputs as draws are left, for another.
        """
        candidates, done = values.copy(), 0
        while True:
            start = 0
            for rejection in np.flatnonzero(rejected).tolist():
                if rejection < start:
                    continue  # read as the uniform of the rejection before it
                values[done : done + rejection - start] = candidates[start:rejection]
                done += rejection - start
                after = (outputs[rejection + 1] if rejection + 1 < outputs.size
                         else self._take(np.array([row]), 1)[0, 0])
                value = _unlikely(int(idx[rejection]), float(candidates[rejection]),
                                  float(doubles(after)))
                if value is not None:
                    values[done] = value
                    done += 1
                start = rejection + 2
            tail = candidates[start:]
            values[done : done + tail.size] = tail
            done += tail.size
            if done == values.size:
                return
            outputs = self._take(np.array([row]), values.size - done)[0]
            candidates, idx, rejected = _ziggurat_candidates(outputs)

    def dirichlet(self, k: int, size: int) -> np.ndarray:
        """``Generator.dirichlet(np.ones(k), size)`` of every stream: (streams, size, k).

        Each row of k exponentials is summed left to right, as ``cumsum``
        adds, and multiplied by the reciprocal of its sum.
        """
        x = self.standard_exponential(size * k).reshape(-1, size, k)
        return x * (1.0 / x.cumsum(axis=2)[..., -1:])

