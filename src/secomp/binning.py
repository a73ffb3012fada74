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
error. A full-rate binning run is answered from its code. Below full rate a
run holds O(|A|^n) integers of index (the bin table, its stable sort by bin,
the bin offsets and the head map, whose |A|^k entries are at most the mean
bin size; see Batches) plus the index rows of the bins it is scoring, never a
table of every sequence's symbols. In the gap scheme Eve's posterior is
uniform over 2^k blocks, k the number of positions she misses that the
transmission does not fill, so it is counted exactly rather than enumerated.

Trial streams. Trial t draws exactly what ``default_rng((seed, 1, t))``
would draw, and the bin table is what ``default_rng((seed, 0))`` would
draw; reports are reproducible bit for bit and the per-trial records are
aggregated in trial order. The numbers come from ``secomp.streams.Streams``,
which reads many streams at once without a Generator, so a simulation never
imports ``numpy.random``: a block of trials is one ``Streams`` of their
(seed, 1, t) streams, and the bin table reads the one stream (seed, 0) a
block of outputs at a time. A trial's doubles are ``Streams.random``'s, and
a table entry is the top bits of one 32-bit half of an output, as
``Generator.integers`` takes it for a power-of-two bin count.
A binning trial draws its n joint cells with numpy's own
``Generator.choice`` algorithm (n uniforms searched in the normalized
cumulative sum of the cell masses), with the sum built once per run, so the
cells drawn are the ones ``choice(size, n, p=flat)`` returns. A gap trial
skips the ceil(n/2) outputs of its source bits, which no equivocation reads.

Batches. Within a block the cells, sequence indices and bins of every trial
are computed together. The trials are sorted by the size of their bin, then
by bin, and cut into chunks, and a chunk is scored in one pass over all its
(trial, member) pairs: Bob's and Eve's likelihoods form one (2, trials,
members) array, zero past each trial's bin. A member's likelihood is the
product of its n factors taken left to right, as a single trial takes them:
its first k digits are read off a per-trial table of prefix products, with
|A|^k no larger than the mean bin size, and each later position's factor is
multiplied in. The index work, each member's head number (one gather in the
run's head map, which reverses k digits) and later digits, is done once per
bin of the chunk and shared by the trials that drew it; consecutive chunks of
one bin reuse it. MAP decoding, ties and Eve's posterior entropies are then
taken row by row. Each entropy sums a row's own terms only, grouped by
length, so every record equals the one-trial computation bit for bit.
``_BATCH_ELEMENTS`` bounds the working set: it caps the numbers a block of
trials draws, the 64-bit outputs a block of the bin table holds, and the
likelihoods, head tables and bin index rows a chunk holds; a trial whose bin
alone exceeds it is a chunk of its own.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .erasure import ErasureParams
from .probability import JointPMF, require_variables
from .streams import Streams

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
# numbers, a block of bin-table outputs holds at most this many, and a chunk
# of trials holds at most this many member likelihoods, head-table entries
# and bin index entries.
_BATCH_ELEMENTS = 2**14


@dataclass(frozen=True, eq=False)
class BinningCode:
    """Seeded random assignment of source sequences to bins.

    The table is materialized explicitly for exact reproducibility: below
    full rate, ``bin_of`` is ``default_rng((seed, 0)).integers(0, n_bins,
    |A|^n)``, drawn without a Generator (see the module docstring). When the
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
    # Written so that NaN fails the check.
    if not ((w >= 0.0) & (w < math.inf)).all():
        raise ValueError("negative, NaN or infinite weight")
    with np.errstate(over="ignore"):
        total = w.sum()
    if total == math.inf:
        # Finite weights whose sum overflows; the entropy does not change with scale.
        w = w / w.max()
    elif not total > 0.0:
        raise ValueError("weights must have a positive sum")
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

    Raises ValueError for a negative seed, a rate outside [0, log2
    alphabet_size], a blocklength below 1 or past the enumeration limit, and
    TypeError for a seed or blocklength that is not an integer.
    """
    seed = _checked_seed(seed)
    n = operator.index(n)
    if not 0.0 <= rate <= math.log2(alphabet_size) + 1e-12:
        raise ValueError(f"rate must lie in [0, log2 {alphabet_size}], got {rate}")
    if n < 1:
        raise ValueError("blocklength must be positive")
    # 2^bit_length > limit: the capped exponent rejects the same n, with no huge power.
    max_n = _MAX_SEQUENCES.bit_length()
    n_seq = alphabet_size ** min(n, max_n)
    if n_seq > _MAX_SEQUENCES:
        raise ValueError(
            f"{alphabet_size}^{n} sequences exceed the enumeration limit {_MAX_SEQUENCES}"
        )
    if n >= max_n:
        # Only a one-symbol source gets here: it has one sequence at every n,
        # but a trial's work grows with n, so it is held to the binary limit.
        raise ValueError(f"blocklength {n} exceeds {max_n - 1}, the enumeration limit of a "
                         "binary source")
    bits = max(math.ceil(n * rate - 1e-9), 0)
    n_bins = 2**bits
    if n_bins >= n_seq:
        table = np.arange(n_seq, dtype=np.int64)
    else:
        table = _random_bins(seed, bits, n_seq)
    return BinningCode(n=n, rate=rate, n_bins=n_bins, bin_of=table, seed=seed)


def _checked_seed(seed: int) -> int:
    """seed as a Python int: TypeError unless it is an integer, ValueError if negative."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return seed


def _random_bins(seed: int, bits: int, size: int) -> np.ndarray:
    """``default_rng((seed, 0)).integers(0, 2**bits, size, dtype=np.int64)``, 0 <= bits <= 32.

    ``integers`` draws a range of at most 2^32 values by Lemire's method from
    the stream's 32-bit words, and PCG64 splits each 64-bit output into two
    such words, low half first. A power-of-two range never rejects a word,
    so draw i is the top ``bits`` bits of word i, and a range of one value
    is all zeros whatever the stream. A block's outputs are read as
    little-endian uint32 pairs, which puts each low word first.
    """
    if not bits:
        return np.zeros(size, dtype=np.int64)
    stream = Streams(seed, [np.zeros(1, dtype=np.uint32)])
    outputs = -(-size // 2)
    bins = np.empty(2 * outputs, dtype=np.int64)
    shift = np.uint32(32 - bits)
    for first in range(0, outputs, _BATCH_ELEMENTS):
        (block,) = stream.raw(min(_BATCH_ELEMENTS, outputs - first))
        words = block.astype("<u8", copy=False).view("<u4")
        bins[2 * first : 2 * first + words.size] = words >> shift
    return bins[:size]


def _trial_uniforms(seed: int, trials: range, count: int, skip: int = 0) -> np.ndarray:
    """One row of ``count`` uniforms per trial t in trials, after ``skip`` 64-bit outputs.

    Row i holds what ``default_rng((seed, 1, t)).random(count)`` returns for
    the i-th t once that stream has given its first ``skip`` outputs.
    """
    if trials.stop > 1 << 32:
        raise ValueError("trial indices must fit in one 32-bit word")
    t = np.arange(trials.start, trials.stop, dtype=np.uint32)
    stream = Streams(seed, [np.ones_like(t), t])
    stream.skip(skip)
    return stream.random(count)


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
    # ascending sequence index: the argsort is stable.
    members_order: np.ndarray
    bin_offsets: np.ndarray
    # cell_factors[w, c, a] is P(a | b) for w = 0 and P(a | e) for w = 1 at
    # joint cell c = (., b, e), so a trial's drawn cells give a (2, n, |A|)
    # factor block.
    cell_factors: np.ndarray
    # A member's likelihood is read off a table over its first head_digits
    # digits, k >= 1 with |A|^k no larger than the mean bin size, then
    # multiplied by each later digit's factor. The table puts position p at
    # place |A|^p, so a member's head number has its k digits reversed:
    # head_map[s] is s with its k digits reversed, |A|^k entries.
    head_digits: int
    head_map: np.ndarray


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


def _sw_context(joint_abe: JointPMF, code: BinningCode) -> _SwContext:
    mass = np.moveaxis(joint_abe.mass, joint_abe.axes(("A", "B", "E")), (0, 1, 2))
    n_a, n_b, n_e = mass.shape
    n, n_seq = code.n, code.bin_of.size
    with np.errstate(invalid="ignore", divide="ignore"):
        p_a_given_b, p_a_given_e = (np.where(p.sum(axis=0) > 0.0, p / p.sum(axis=0), 1.0 / n_a)
                                    for p in (mass.sum(axis=2), mass.sum(axis=1)))
    _, b_of_cell, e_of_cell = np.unravel_index(np.arange(mass.size), mass.shape)
    offsets = np.zeros(code.n_bins + 1, dtype=np.int64)
    np.cumsum(np.bincount(code.bin_of, minlength=code.n_bins), out=offsets[1:])
    # A stable sort has one answer; numpy radix-sorts 8- and 16-bit keys.
    members_order = np.argsort(code.bin_of.astype(np.min_scalar_type(code.n_bins - 1)),
                               kind="stable")
    cdf = mass.reshape(-1).cumsum()
    cdf /= cdf[-1]
    head_digits = n
    while head_digits > 1 and n_a**head_digits * code.n_bins > n_seq:
        head_digits -= 1
    # s = high |A|^(k // 2) + low reverses to reversed(low) |A|^((k + 1) // 2) + reversed(high).
    low, high = (_reversed_digits(k, n_a) for k in (head_digits // 2, (head_digits + 1) // 2))
    return _SwContext(
        n=n,
        code=code,
        cdf=cdf,
        cell_shape=(n_a, n_b, n_e),
        radix=(n_a ** np.arange(n - 1, -1, -1)).astype(np.int64),
        members_order=members_order,
        bin_offsets=offsets,
        cell_factors=np.stack((p_a_given_b.T[b_of_cell], p_a_given_e.T[e_of_cell])),
        head_digits=head_digits,
        head_map=(low * high.size + high[:, None]).reshape(-1),
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
    return _BinRows(sizes=sizes, members=members, head=ctx.head_map[head], digits=digits)


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


def _check_run(trials: int, seed: int) -> tuple[int, int]:
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # Trial t's stream is default_rng((seed, 1, t)) with t one 32-bit word;
    # checked before the per-trial records are allocated.
    if trials > 1 << 32:
        raise ValueError("trials must be <= 2**32")
    return trials, _checked_seed(seed)


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
    as the entropy of her exact posterior over the bin, per symbol. At full
    rate a bin holds at most one sequence, so the run is answered from its
    code. Raises ValueError for a rate outside [0, log2 |A|], a blocklength
    past the enumeration limit, fewer than one or more than 2^32 trials, or
    a negative seed, and TypeError for a non-integer n, trials or seed.
    """
    trials, seed = _check_run(trials, seed)
    require_variables(joint_abe, ("A", "B", "E"))
    code = make_binning_code(n, rate, joint_abe.alphabet("A").size, seed)
    if code.n_bins >= code.bin_of.size:
        return SimReport(trials, 0.0, 0.0, 0.0, seed)
    ctx = _sw_context(joint_abe, code)
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
    n = operator.index(n)
    if not 1 <= n <= _MAX_GAP_SCHEME_N:
        raise ValueError(f"blocklength must lie in [1, {_MAX_GAP_SCHEME_N}], got {n}")
    trials, seed = _check_run(trials, seed)
    equivs = np.empty(trials)
    for block in _trial_blocks(trials, 2 * n):
        equivs[block.start : block.stop] = _gap_trials(params, n, seed, block)
    exact = np.zeros(trials, dtype=bool)
    return _summarize(equivs, seed, exact, exact)
