"""Small-blocklength Monte Carlo checks of the random-binning achievability.

Two schemes are simulated with exact per-realization posteriors:

* plain random binning of the source block, decoded by Bob via exact maximum
  posterior within the announced bin (constant auxiliary variable, side
  information used uncoded), with the eavesdropper's equivocation computed
  from her exact bin-restricted posterior;
* the erasure transmit-the-gaps scheme, where the encoder knows Bob's
  observation and sends exactly the bits Bob is missing (the gap-filling
  auxiliary sequence), and the eavesdropper conditions her exact posterior
  on the filled positions and values.

Blocklengths stay desk-scale because Bob's decoding and Eve's posterior
enumerate every member of the announced bin; that is the point, since exact
posteriors make the equivocation estimate unbiased with a reportable standard
error. A binning run holds O(|A|^n) integers of index (the bin table, one
member ordering and the bin offsets) plus the index rows of the bins it is
scoring, never a table of every sequence's symbols. In the gap scheme Eve's
posterior is uniform over 2^k blocks, k the number of positions she misses
that the transmission does not fill, so it is counted exactly rather than
enumerated.

Trial streams. Trial t draws exactly what ``default_rng((seed, 1, t))``
would draw, and the bin table comes from ``default_rng((seed, 0))``; reports
are reproducible bit for bit and the per-trial records are aggregated in
trial order. Building one Generator per trial costs more than a short
trial's arithmetic, so no Generator is built for a trial: the block's
doubles come from its PCG64 states by uint64 array arithmetic.
``_trial_states`` runs SeedSequence's entropy mixing and its
``generate_state(4, uint64)`` on uint32 arrays over the trial indices, then
PCG64's seeding step on 128-bit numbers held as (high, low) uint64 halves,
which ``_add128`` and ``_mul128`` add and multiply mod 2^128. PCG64 takes
one LCG step, state * mult + inc mod 2^128, before each 64-bit output, so
after j steps the state is the affine map state * mult^j + inc * (1 + mult
+ ... + mult^(j-1)). ``_trial_uniforms`` composes that map as Python ints
for each column j = skip + k + 1 it draws and applies it to every trial's
halves at once. PCG64's XSL-RR output (the halves xored, rotated right by
the state's top 6 bits) and ``Generator.random``'s double, the output's top
53 bits times 2^-53, then finish each draw. Every step is exact integer
arithmetic, so the doubles are the very numbers numpy's ``next64`` and
``random`` compute from the same states. A binning trial skips nothing and
draws its n joint cells with numpy's own ``Generator.choice`` algorithm (n
uniforms searched in the normalized cumulative sum of the cell masses),
with the sum built once per run, so the cells drawn are the ones
``choice(size, n, p=flat)`` returns. A gap trial's stream opens with its
source bits, ``integers(0, 2, n)``: n 32-bit halves of ceil(n/2) outputs,
which no equivocation reads, so the gap scheme skips them.

Batches. Within a block the cells, sequence indices and bins of every trial
are computed together. The trials are sorted by the size of their bin, then
by bin, and cut into chunks, and a chunk is scored in one pass over all its
(trial, member) pairs: Bob's and Eve's likelihoods form one (2, trials,
members) array, zero past each trial's bin. A member's likelihood is the
product of its n factors taken left to right, as a single trial takes them:
its first k digits are read off a per-trial table of prefix products, with
|A|^k no larger than the mean bin size, and each later position's factor is
multiplied in. The index work, each member's head number and later digits,
is done once per bin of the chunk and shared by the trials that drew it;
consecutive chunks of one bin reuse it. MAP decoding, ties and Eve's
posterior entropies are then taken row by row. Each entropy sums a row's own
terms only, grouped by length, so every record equals the one-trial
computation bit for bit. ``_BATCH_ELEMENTS`` bounds the working set: it caps
the numbers a block draws and the likelihoods, head tables and bin index
rows a chunk holds; a trial whose bin alone exceeds it is a chunk of its
own.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .erasure import ErasureParams
from .probability import JointPMF, require_variables

# Exhaustive posterior enumeration must fit: |A|^n sequences.
_MAX_SEQUENCES = 2**20
# The gap scheme's posterior is counted in O(n), so this is not a cost limit:
# it is the range the scheme is specified for, over which the tests check the
# count against enumerating every candidate block.
_MAX_GAP_SCHEME_N = 12

# Posterior ties are compared with this relative slack; for erasure-style
# conditionals the weights are exact dyadics and ties are exact anyway.
_TIE_REL_TOL = 1e-12

# Entries one batch may hold: a block of trials draws at most this many
# numbers, and a chunk of trials holds at most this many member
# likelihoods, head-table entries and bin index entries.
_BATCH_ELEMENTS = 2**14

# numpy.random.SeedSequence's hash constants (INIT_A and MULT_A mix the
# entropy into the pool, INIT_B and MULT_B draw the state from it) and
# PCG64's 128-bit LCG multiplier: what _trial_states needs to rebuild the
# state default_rng((seed, 1, t)) starts in.
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT_HALVES = (np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64))
# Shift counts and masks of the uint64 limb arithmetic, typed so that no
# operand is a Python int: numpy 1.24's value-based casting would turn some
# mixes of Python ints and uint64 into float64.
_U1, _U11, _U32, _U58, _U63 = (np.uint64(k) for k in (1, 11, 32, 58, 63))
_U64_MASK32 = np.uint64(_MASK32)


@dataclass(frozen=True, eq=False)
class BinningCode:
    """Seeded random assignment of source sequences to bins.

    The table is materialized explicitly for exact reproducibility. When the
    bin count reaches the sequence count the assignment is the identity, so
    full-rate codes reveal the sequence and give zero equivocation exactly.
    """

    n: int
    rate: float
    n_bins: int
    bin_of: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.bin_of, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("bin_of must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_bins):
            raise ValueError("bin index out of range")
        arr.flags.writeable = False
        object.__setattr__(self, "bin_of", arr)


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo summary: error rate and per-symbol equivocation.

    ``ties`` counts trials whose decoding failed on a posterior tie and
    ``wrong_decodes`` those where another sequence strictly won; together they
    are the trials behind ``p_e_hat``. The gap scheme decodes exactly and
    reports 0 for both.
    """

    trials: int
    p_e_hat: float
    equiv_hat: float
    equiv_stderr: float
    seed: int
    ties: int = 0
    wrong_decodes: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_e_hat <= 1.0:
            raise ValueError("p_e_hat must be in [0, 1]")
        if self.equiv_hat < 0.0:
            raise ValueError("equiv_hat must be nonnegative")
        if min(self.ties, self.wrong_decodes) < 0 or self.ties + self.wrong_decodes > self.trials:
            raise ValueError("ties and wrong_decodes must be counts of trials")


def exact_posterior_entropy(weights) -> float:
    """Shannon entropy in bits of the normalized weight vector."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size == 0:
        raise ValueError("empty weight vector")
    if (w < 0.0).any():
        raise ValueError("weights must be nonnegative")
    if w.sum() <= 0.0:
        raise ValueError("all weights are zero")
    return float(_entropy_rows(w[None])[0])


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each consecutive segment of values, bit for bit that segment's own ``.sum()``.

    numpy's pairwise summation groups a sum's terms by the sum's length
    alone, so each run of consecutive segments of one length is summed as
    the rows of one matrix. ``np.add.reduceat`` adds a segment's terms one
    by one and would not give the same bits.
    """
    steps = lengths[1:] - lengths[:-1]
    if not steps.any():
        return values.reshape(len(lengths), lengths[0]).sum(axis=1)
    sums = np.empty(len(lengths))
    edges = [0, *(np.flatnonzero(steps) + 1).tolist(), len(lengths)]
    lengths, ends = lengths.tolist(), lengths.cumsum().tolist()
    for first, stop in zip(edges[:-1], edges[1:]):
        length = lengths[first]
        segments = values[ends[first] - length : ends[stop - 1]]
        sums[first:stop] = segments.reshape(stop - first, length).sum(axis=1)
    return sums


def _entropy_rows(w: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
    """Entropy in bits of each row of w, its first lengths[i] entries normalized to sum 1.

    Rows are nonnegative with positive sums and zero past their lengths;
    lengths None means every row is full. A binning trial's likelihoods meet
    these conditions by construction, so the trials call this directly
    instead of checking them. Each row's sum runs over its own entries, and
    over its positive probabilities alone, as ``_segment_sums`` sums them:
    the result is bit for bit that of the row by itself.
    """
    if lengths is None:
        sums = w.sum(axis=1)
    else:
        sums = _segment_sums(w[np.arange(w.shape[1]) < lengths[:, None]], lengths)
    p = w / sums[:, None]
    positive = p > 0.0
    terms = p[positive]
    del p  # before log2's temporary, so a row of 2^20 members peaks lower
    terms *= np.log2(terms)
    # "+ 0.0" turns the -0.0 of a point mass into 0.0 and changes no other value.
    return -_segment_sums(terms, positive.sum(axis=1)) + 0.0


def make_binning_code(n: int, rate: float, alphabet_size: int, seed: int) -> BinningCode:
    """Assign every length-n sequence a bin; 2^ceil(n*rate) bins.

    Raises ValueError for a rate outside [0, log2 alphabet_size], a
    blocklength below 1 or past the enumeration limit.
    """
    if not 0.0 <= rate <= math.log2(alphabet_size) + 1e-12:
        raise ValueError(f"rate must lie in [0, log2 {alphabet_size}], got {rate}")
    if n < 1:
        raise ValueError("blocklength must be positive")
    n_seq = alphabet_size**n
    if n_seq > _MAX_SEQUENCES:
        raise ValueError(
            f"{alphabet_size}^{n} sequences exceed the enumeration limit {_MAX_SEQUENCES}"
        )
    bits = max(math.ceil(n * rate - 1e-9), 0)
    n_bins = 2**bits
    if n_bins >= n_seq:
        table = np.arange(n_seq, dtype=np.int64)
    else:
        rng = np.random.default_rng((seed, 0))
        table = rng.integers(0, n_bins, size=n_seq, dtype=np.int64)
    return BinningCode(n=n, rate=rate, n_bins=n_bins, bin_of=table, seed=seed)


def _hash_constants(init: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """SeedSequence's running hash constant: (value before, value after) each update."""
    const = init
    while True:
        updated = const * mult & _MASK32
        yield np.uint32(const), np.uint32(updated)
        const = updated


def _hashmix(value: np.ndarray, constants: Iterator) -> np.ndarray:
    before, after = next(constants)
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


def _seed_sequence_states(seed: int, t: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((seed, 1, t)).generate_state(4, uint64)``: four uint64 arrays over t.

    SeedSequence splits each entropy integer into little-endian 32-bit
    words, so trial t's entropy is the words of seed, then 1, then t. The
    hash constants never depend on the data, which lets every trial's pool
    be mixed in one pass of uint32 array arithmetic.
    """
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full_like(t, word) for word in seed_words + [1]] + [t]
    mixing = _hash_constants(*_HASH_A)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else np.zeros_like(t), mixing)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], mixing))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, mixing))
    # Eight 32-bit words drawn from the pool, paired little-endian.
    drawing = _hash_constants(*_HASH_B)
    words = (_hashmix(pool[i % _POOL_SIZE], drawing).astype(np.uint64) for i in range(8))
    return [low | next(words) << _U32 for low in words]


def _trial_states(seed: int, trials: range) -> tuple[tuple, tuple]:
    """PCG64 ``((state_hi, state_lo), (inc_hi, inc_lo))`` of ``default_rng((seed, 1, t))``.

    Each half is a uint64 array with one entry per t in trials, in order.
    """
    if trials.stop > 1 << 32:
        raise ValueError("trial indices must fit in one 32-bit word")
    t = np.arange(trials.start, trials.stop, dtype=np.uint32)
    s_hi, s_lo, q_hi, q_lo = _seed_sequence_states(seed, t)
    # PCG64's srandom from initstate = (s_hi, s_lo) and initseq = (q_hi, q_lo):
    # inc = 2 * initseq + 1, state = (initstate + inc) * mult + inc.
    inc = (q_hi << _U1 | q_lo >> _U63, q_lo << _U1 | _U1)
    state = _add128(_mul128(_add128((s_hi, s_lo), inc), _PCG64_MULT_HALVES), inc)
    return state, inc


def _trial_uniforms(seed: int, trials: range, count: int, skip: int = 0) -> np.ndarray:
    """One row of ``count`` uniforms per trial t in trials, after ``skip`` 64-bit outputs.

    Row i holds what ``default_rng((seed, 1, t)).random(count)`` returns for
    the i-th t once that stream has given its first ``skip`` outputs.
    """
    # PCG64 steps its LCG, state -> state * mult + inc, before each output,
    # so column k reads the state after j = skip + k + 1 steps:
    # state * mult^j + inc * (1 + mult + ... + mult^(j-1)).
    mult, add = 1, 0
    maps = np.empty((4, count), dtype=np.uint64)
    for step in range(skip + count):
        mult, add = mult * _PCG64_MULT & _MASK128, add * _PCG64_MULT + 1 & _MASK128
        if step >= skip:
            maps[:, step - skip] = np.array(
                [mult >> 64, mult & _MASK64, add >> 64, add & _MASK64], dtype=np.uint64
            )
    mult_hi, mult_lo, add_hi, add_lo = maps
    (state_hi, state_lo), (inc_hi, inc_lo) = _trial_states(seed, trials)
    high, low = _add128(
        _mul128((state_hi[:, None], state_lo[:, None]), (mult_hi, mult_lo)),
        _mul128((inc_hi[:, None], inc_lo[:, None]), (add_hi, add_lo)),
    )
    # XSL-RR: the two halves xored, rotated right by the state's top 6 bits.
    value = high ^ low
    rotation = high >> _U58
    out = value >> rotation | value << (-rotation & _U63)
    # Generator.random keeps an output's top 53 bits as a multiple of 2^-53.
    return (out >> _U11).astype(np.float64) * 2.0**-53


def _trial_blocks(trials: int, draws_per_trial: int) -> Iterator[range]:
    """Consecutive ranges of trial indices, each drawing at most _BATCH_ELEMENTS numbers."""
    step = max(1, _BATCH_ELEMENTS // draws_per_trial)
    return (range(start, min(start + step, trials)) for start in range(0, trials, step))


class _SwContext(NamedTuple):
    n: int
    code: BinningCode
    # Cumulative cell masses scaled to end at 1, as Generator.choice builds them.
    cdf: np.ndarray
    cell_shape: tuple[int, int, int]
    radix: np.ndarray
    # Bin j holds members_order[bin_offsets[j] : bin_offsets[j + 1]], in
    # ascending sequence index because the argsort is stable.
    members_order: np.ndarray
    bin_offsets: np.ndarray
    # cell_factors[w, c, a] is P(a | b) for w = 0 and P(a | e) for w = 1 at
    # joint cell c = (., b, e), so a trial's drawn cells give a (2, n, |A|)
    # factor block.
    cell_factors: np.ndarray
    # A member's likelihood is read off a table over its first head_digits
    # digits, k >= 1 with |A|^k no larger than the mean bin size, then
    # multiplied by each later digit's factor. The table puts position p at
    # place |A|^p, so a member's head number has its k digits reversed;
    # reversed_halves reverse the low k // 2 and the high k - k // 2.
    head_digits: int
    reversed_halves: tuple[np.ndarray, np.ndarray]


class _SwTrials(NamedTuple):
    """Records of a block of binning trials: entry (or row) i belongs to its i-th trial."""

    error: np.ndarray
    tie: np.ndarray
    equiv: np.ndarray
    seq_index: np.ndarray
    bin_index: np.ndarray
    decoded_index: np.ndarray
    # (trials, n) drawn joint cells, flat indices into the (A, B, E) table.
    cells: np.ndarray


def _reversed_digits(n_digits: int, alphabet_size: int) -> np.ndarray:
    """Entry s is s with its n_digits base-|A| digits in reverse order."""
    rest = np.arange(alphabet_size**n_digits)
    reversed_s = np.zeros_like(rest)
    for _ in range(n_digits):
        rest, digit = np.divmod(rest, alphabet_size)
        reversed_s = reversed_s * alphabet_size + digit
    return reversed_s


def _sw_context(joint_abe: JointPMF, n: int, rate: float, seed: int) -> _SwContext:
    require_variables(joint_abe, ("A", "B", "E"))
    mass = np.moveaxis(joint_abe.mass, joint_abe.axes(("A", "B", "E")), (0, 1, 2))
    n_a, n_b, n_e = mass.shape
    code = make_binning_code(n, rate, n_a, seed)
    p_ab = mass.sum(axis=2)
    p_ae = mass.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_a_given_b = np.where(p_ab.sum(axis=0) > 0.0, p_ab / p_ab.sum(axis=0), 1.0 / n_a)
        p_a_given_e = np.where(p_ae.sum(axis=0) > 0.0, p_ae / p_ae.sum(axis=0), 1.0 / n_a)
    _, b_of_cell, e_of_cell = np.unravel_index(np.arange(mass.size), mass.shape)
    offsets = np.zeros(code.n_bins + 1, dtype=np.int64)
    np.cumsum(np.bincount(code.bin_of, minlength=code.n_bins), out=offsets[1:])
    cdf = mass.reshape(-1).cumsum()
    cdf /= cdf[-1]
    head_digits = n
    while head_digits > 1 and n_a**head_digits * code.n_bins > n_a**n:
        head_digits -= 1
    return _SwContext(
        n=n,
        code=code,
        cdf=cdf,
        cell_shape=(n_a, n_b, n_e),
        radix=(n_a ** np.arange(n - 1, -1, -1)).astype(np.int64),
        # A stable sort has one answer; numpy radix-sorts 8- and 16-bit keys.
        members_order=np.argsort(code.bin_of.astype(np.min_scalar_type(code.n_bins - 1)),
                                 kind="stable"),
        bin_offsets=offsets,
        cell_factors=np.stack((p_a_given_b.T[b_of_cell], p_a_given_e.T[e_of_cell])),
        head_digits=head_digits,
        reversed_halves=(_reversed_digits(head_digits // 2, n_a),
                         _reversed_digits(head_digits - head_digits // 2, n_a)),
    )


class _BinRows(NamedTuple):
    """Padded member rows of distinct bins and the index work of scoring them."""

    sizes: np.ndarray
    # Each bin's members in ascending order, padded with the last sequence index.
    members: np.ndarray
    # A member's head number, its first head_digits digits reversed, and
    # digits[j], its digit at position head_digits + j in the smallest
    # unsigned type that holds a symbol.
    head: np.ndarray
    digits: np.ndarray


def _bin_rows(ctx: _SwContext, bins: np.ndarray) -> _BinRows:
    """The rows of the distinct bins in bins, in that order."""
    starts, sizes = ctx.bin_offsets[bins], ctx.bin_offsets[bins + 1] - ctx.bin_offsets[bins]
    columns = np.arange(sizes.max())
    members = ctx.members_order.take(starts[:, None] + columns, mode="clip")
    members[columns >= sizes[:, None]] = ctx.code.bin_of.size - 1
    n_a, n_tail = ctx.cell_shape[0], ctx.n - ctx.head_digits
    # Floor division by a scalar is much faster than np.divmod.
    head = members
    digits = np.empty((n_tail,) + members.shape, dtype=np.min_scalar_type(n_a - 1))
    for position in range(n_tail - 1, -1, -1):
        rest = head // n_a
        digits[position] = head - n_a * rest
        head = rest
    low_size = n_a ** (ctx.head_digits // 2)
    high = head // low_size
    reversed_low, reversed_high = ctx.reversed_halves
    head = reversed_low[head - low_size * high] * (n_a**ctx.head_digits // low_size)
    head += reversed_high[high]
    return _BinRows(sizes=sizes, members=members, head=head, digits=digits)


def _score_chunk(
    ctx: _SwContext, bin_rows: _BinRows, bin_row: np.ndarray, cells: np.ndarray,
    seq_index: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(error, tie, equiv, decoded_index) of trials whose bins have rows in bin_rows.

    Trial i's bin is row bin_row[i], and cells holds the trials' drawn
    joint cells, one row per trial.
    """
    trials, (n_bins, width) = len(cells), bin_rows.members.shape
    n_a = ctx.cell_shape[0]
    # Bob's (row 0) and Eve's (row 1) likelihoods of every member of each
    # trial's bin, each the product of its n factors taken left to right.
    # A trial's head table is built by prefix products, each position's
    # factors on the slowest axis so that every product runs over the whole
    # table; then each member multiplies in its later digits' factors one
    # position at a time.
    factors = ctx.cell_factors.take(cells.T, axis=1)
    table = factors[:, 0, :, None, :]
    for position in range(1, ctx.head_digits):
        table = (factors[:, position, :, :, None] * table).reshape(2, trials, 1, -1)
    tails = factors[:, ctx.head_digits :]
    if n_bins == 1:
        # The trials share the bin's index rows.
        likelihood = table.reshape(2, trials, -1).take(bin_rows.head[0], axis=2)
        del table
        for factor, digit in zip(tails.swapaxes(0, 1), bin_rows.digits[:, 0]):
            likelihood *= factor.take(digit, axis=2)
        truth = bin_rows.members[0].searchsorted(seq_index)
    else:
        # Each trial offsets its bin's index rows into its own part of the
        # flattened tables, and its entries past the bin's size are zeroed.
        trial = np.arange(trials)[:, None]
        likelihood = table.reshape(2, -1).take(
            bin_rows.head[bin_row] + table.shape[3] * trial, axis=1
        )
        del table
        tails = tails.reshape(2, len(tails[0]), trials * n_a).swapaxes(0, 1)
        for factor, digit in zip(tails, bin_rows.digits):
            likelihood *= factor.take(digit[bin_row] + n_a * trial, axis=1)
        likelihood[:, np.arange(width) >= bin_rows.sizes[bin_row, None]] = 0.0
        # Shifted by r |A|^n, row r of members ascends and stays below the
        # next row, so one search of the flattened rows finds every truth.
        shift = ctx.code.bin_of.size
        keys = bin_rows.members + shift * np.arange(n_bins)[:, None]
        truth = keys.reshape(-1).searchsorted(seq_index + shift * bin_row) - width * bin_row
    at_truth = likelihood[:, np.arange(trials), truth]
    for observer, zero in zip(("Bob", "Eve"), (at_truth <= 0.0).any(axis=1)):
        if zero:
            raise ArithmeticError(f"sampled sequence has zero posterior at {observer}")
    bob, eve = likelihood
    winners = bob >= (bob.max(axis=1) * (1.0 - _TIE_REL_TOL))[:, None]
    decoded_index = bin_rows.members[bin_row, winners.argmax(axis=1)]
    tie = winners.sum(axis=1) > 1
    lengths = None if n_bins == 1 else bin_rows.sizes[bin_row]
    return (tie | (decoded_index != seq_index), tie, _entropy_rows(eve, lengths) / ctx.n,
            decoded_index)


def _chunks(ctx: _SwContext, sizes: np.ndarray, run: np.ndarray) -> Iterator[slice]:
    """Consecutive slices of trials sorted by (bin size, bin), each within _BATCH_ELEMENTS.

    run numbers the sorted trials' bins 0, 1, ... in order. A chunk's
    likelihoods and head tables take 2 (m + |A|^k) entries a trial and its
    bin rows 2 m entries and m (n - k) digits a bin, m its largest bin and
    k the head digits, counting a digit by its bytes; a trial past the
    budget alone is a chunk of its own.
    """
    n_a, n_tail = ctx.cell_shape[0], ctx.n - ctx.head_digits
    per_trial = 2 * (sizes + n_a**ctx.head_digits)
    per_bin = sizes * (2 + n_tail * np.min_scalar_type(n_a - 1).itemsize / 8)
    # Sizes ascend, so the trials that fill the budget alone come last.
    shared = (per_trial + per_bin).searchsorted(_BATCH_ELEMENTS, side="right")
    start = 0
    while start < shared:
        # No chunk holds more trials than fit at its first trial's cost.
        end = min(shared, start + int(_BATCH_ELEMENTS // per_trial[start]))
        cost = (np.arange(1, end - start + 1) * per_trial[start:end]
                + (run[start:end] - run[start] + 1) * per_bin[start:end])
        stop = start + cost.searchsorted(_BATCH_ELEMENTS, side="right")
        yield slice(start, stop)
        start = stop
    yield from (slice(i, i + 1) for i in range(shared, len(sizes)))


def _sw_trials(ctx: _SwContext, trials: range) -> _SwTrials:
    """Records of the binning trials with indices in trials, scored a chunk at a time."""
    cells = ctx.cdf.searchsorted(_trial_uniforms(ctx.code.seed, trials, ctx.n), side="right")
    # The source symbol is a cell's leading index in the (A, B, E) table.
    seq_index = (cells // (ctx.cell_shape[1] * ctx.cell_shape[2])) @ ctx.radix
    bin_index = ctx.code.bin_of[seq_index]
    # Sorted by bin size, chunks pad little; sorted by bin within a size, a
    # bin's trials are adjacent, so a chunk's bins are a range of runs and
    # consecutive chunks of one bin share its rows.
    sizes = ctx.bin_offsets[bin_index + 1] - ctx.bin_offsets[bin_index]
    order = np.lexsort((bin_index, sizes))
    sorted_bins = bin_index[order]
    starts_run = np.r_[True, sorted_bins[1:] != sorted_bins[:-1]]
    run = starts_run.cumsum() - 1
    run_bins = sorted_bins[starts_run]
    sorted_cells, sorted_seq_index = cells[order], seq_index[order]
    scored = []
    runs = bin_rows = None
    for chunk in _chunks(ctx, sizes[order], run):
        chunk_runs = (run[chunk.start], run[chunk.stop - 1] + 1)
        if chunk_runs != runs:
            runs = chunk_runs
            bin_rows = _bin_rows(ctx, run_bins[runs[0] : runs[1]])
        scored.append(_score_chunk(
            ctx, bin_rows, run[chunk] - runs[0], sorted_cells[chunk], sorted_seq_index[chunk]
        ))
    unsort = order.argsort()
    error, tie, equiv, decoded_index = (np.concatenate(field)[unsort] for field in zip(*scored))
    return _SwTrials(
        error=error,
        tie=tie,
        equiv=equiv,
        seq_index=seq_index,
        bin_index=bin_index,
        decoded_index=decoded_index,
        cells=cells,
    )


def _check_run(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # Trial t's stream is default_rng((seed, 1, t)) with t one 32-bit word;
    # checked before the per-trial records are allocated.
    if trials > 1 << 32:
        raise ValueError("trials must be <= 2**32")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _summarize(equivs: np.ndarray, seed: int, errors: np.ndarray, ties: np.ndarray) -> SimReport:
    trials = equivs.size
    stderr = float(equivs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    n_ties = int(ties.sum())
    return SimReport(
        trials=trials,
        p_e_hat=float(errors.mean()),
        equiv_hat=float(equivs.mean()),
        equiv_stderr=stderr,
        seed=seed,
        ties=n_ties,
        wrong_decodes=int(errors.sum()) - n_ties,
    )


def run_sw_binning(
    joint_abe: JointPMF, n: int, rate: float, trials: int, seed: int
) -> SimReport:
    """Simulate random binning with uncoded side information at Bob.

    Per trial: draw an i.i.d. block from the joint, announce the bin of the
    source block, decode at Bob by exact maximum posterior within the bin
    (any tie counts as an error), and score the eavesdropper's equivocation
    as the entropy of her exact posterior over the bin, per symbol.
    Raises ValueError for a rate outside [0, log2 |A|], a blocklength past
    the enumeration limit, fewer than one or more than 2^32 trials, or a
    negative seed.
    """
    _check_run(trials, seed)
    ctx = _sw_context(joint_abe, n, rate, seed)
    errors = np.empty(trials, dtype=bool)
    ties = np.empty(trials, dtype=bool)
    equivs = np.empty(trials)
    for block in _trial_blocks(trials, n):
        record = _sw_trials(ctx, block)
        span = slice(block.start, block.stop)
        errors[span], ties[span], equivs[span] = record.error, record.tie, record.equiv
    return _summarize(equivs, seed, errors, ties)


def _gap_trials(params: ErasureParams, n: int, seed: int, trials: range) -> np.ndarray:
    """Eve's per-symbol equivocation in each gap-scheme trial with index in trials."""
    # Past the skipped source bits come Bob's n erasure uniforms, then Eve's.
    uniforms = _trial_uniforms(seed, trials, 2 * n, skip=-(-n // 2))
    bob_erased = uniforms[:, :n] < params.p_b
    eve_erased = uniforms[:, n:] < params.p_e
    # The gap-filling sequence is "the source bit where Bob is erased, a
    # constant elsewhere", so the transmission pins down both the filled
    # positions and their values for everyone listening. Eve's posterior is
    # uniform over the 2^k blocks free at her k erased, unfilled positions,
    # with entropy exactly k bits.
    return (eve_erased & ~bob_erased).sum(axis=1) / n


def run_erasure_encoder_scheme(
    params: ErasureParams, n: int, trials: int, seed: int
) -> SimReport:
    """Simulate the transmit-the-gaps scheme for erasure side information.

    The encoder sees Bob's observation and sends the source bits at Bob's
    erased positions in increasing index order, so Bob reconstructs exactly
    and the error probability is zero by construction. The transmission is
    the gap-filling auxiliary sequence itself, so the eavesdropper learns the
    filled positions along with their values; her exact posterior is uniform
    over the source blocks matching her own unerased symbols and the filled
    bits, leaving per-symbol equivocation p_e * (1 - p_b) in expectation at
    every blocklength. Trial t's erasures are the 2n uniforms that
    ``default_rng((seed, 1, t))`` draws after its source block,
    ``integers(0, 2, n)``; her equivocation counts positions only, so the
    block is skipped, never drawn.
    """
    if not 1 <= n <= _MAX_GAP_SCHEME_N:
        raise ValueError(f"blocklength must lie in [1, {_MAX_GAP_SCHEME_N}], got {n}")
    _check_run(trials, seed)
    equivs = np.empty(trials)
    for block in _trial_blocks(trials, 2 * n):
        equivs[block.start : block.stop] = _gap_trials(params, n, seed, block)
    exact = np.zeros(trials, dtype=bool)
    return _summarize(equivs, seed, exact, exact)
