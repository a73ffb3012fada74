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
member ordering and the bin offsets) plus factor indices for the two halves
of a sequence's digits, never a table of every sequence's symbols. In the
gap scheme Eve's posterior is uniform over 2^k blocks, k the number of
positions she misses that the transmission does not fill, so it is counted
exactly rather than enumerated.
Trial t draws from default_rng((seed, 1, t)), the bin table from
default_rng((seed, 0)); reports are reproducible bit for bit and the
per-trial records are aggregated in trial order.
"""

from __future__ import annotations

import math
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
    total = w.sum()
    if total <= 0.0:
        raise ValueError("all weights are zero")
    p = w / total
    p = p[p > 0.0]
    # "+ 0.0" turns the -0.0 of a point mass into 0.0 and changes no other value.
    return float(-(p * np.log2(p)).sum()) + 0.0


def make_binning_code(n: int, rate: float, alphabet_size: int, seed: int) -> BinningCode:
    """Assign every length-n sequence a bin; 2^ceil(n*rate) bins."""
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


class _SwContext(NamedTuple):
    n: int
    code: BinningCode
    flat: np.ndarray
    cell_shape: tuple[int, int, int]
    radix: np.ndarray
    # Bin j holds members_order[bin_offsets[j] : bin_offsets[j + 1]], in
    # ascending sequence index because the argsort is stable.
    members_order: np.ndarray
    bin_offsets: np.ndarray
    # cell_factors[c, w, a] is P(a | b) for w = 0 and P(a | e) for w = 1 at
    # joint cell c = (., b, e), so a trial's drawn cells give an (n, 2, |A|)
    # factor block. A sequence index is high * low_size + low; head_index
    # and tail_index pick from the flattened block the factors of every
    # high part (first ceil(n/2) positions) and every low part (the rest).
    cell_factors: np.ndarray
    low_size: int
    head_index: np.ndarray
    tail_index: np.ndarray


class _SwTrial(NamedTuple):
    error: bool
    tie: bool
    equiv: float
    seq_index: int
    bin_index: int
    decoded_index: int
    a: np.ndarray
    b: np.ndarray
    e: np.ndarray


def _factor_index(n_digits: int, first: int, alphabet_size: int) -> np.ndarray:
    """(n_digits, 2, |A|^n_digits) flat indices into an (n, 2, |A|) factor block.

    Entry [j, w, s] addresses position first + j, observer w and symbol
    digits[j, s], the j-th most significant base-|A| digit of s.
    """
    place = alphabet_size ** np.arange(n_digits - 1, -1, -1)
    digits = np.arange(alphabet_size**n_digits) // place[:, None] % alphabet_size
    pos = first + np.arange(n_digits)
    return (pos[:, None, None] * 2 + np.arange(2)[:, None]) * alphabet_size + digits[:, None, :]


def _sw_context(joint_abe: JointPMF, n: int, rate: float, seed: int) -> _SwContext:
    require_variables(joint_abe, ("A", "B", "E"))
    mass = np.moveaxis(joint_abe.mass, joint_abe.axes(("A", "B", "E")), (0, 1, 2))
    n_a, n_b, n_e = mass.shape
    if not 0.0 <= rate <= math.log2(n_a) + 1e-12:
        raise ValueError(f"rate must lie in [0, log2 {n_a}], got {rate}")
    code = make_binning_code(n, rate, n_a, seed)
    p_ab = mass.sum(axis=2)
    p_ae = mass.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_a_given_b = np.where(p_ab.sum(axis=0) > 0.0, p_ab / p_ab.sum(axis=0), 1.0 / n_a)
        p_a_given_e = np.where(p_ae.sum(axis=0) > 0.0, p_ae / p_ae.sum(axis=0), 1.0 / n_a)
    _, b_of_cell, e_of_cell = np.unravel_index(np.arange(mass.size), mass.shape)
    offsets = np.zeros(code.n_bins + 1, dtype=np.int64)
    np.cumsum(np.bincount(code.bin_of, minlength=code.n_bins), out=offsets[1:])
    n_low = n // 2
    return _SwContext(
        n=n,
        code=code,
        flat=mass.reshape(-1),
        cell_shape=(n_a, n_b, n_e),
        radix=(n_a ** np.arange(n - 1, -1, -1)).astype(np.int64),
        members_order=np.argsort(code.bin_of, kind="stable"),
        bin_offsets=offsets,
        cell_factors=np.stack((p_a_given_b.T[b_of_cell], p_a_given_e.T[e_of_cell]), axis=1),
        low_size=n_a**n_low,
        head_index=_factor_index(n - n_low, 0, n_a),
        tail_index=_factor_index(n_low, n - n_low, n_a),
    )


def _sw_trial(ctx: _SwContext, rng: np.random.Generator) -> _SwTrial:
    cells = rng.choice(ctx.flat.size, size=ctx.n, p=ctx.flat)
    a_idx, b_idx, e_idx = np.unravel_index(cells, ctx.cell_shape)
    seq_index = int(a_idx @ ctx.radix)
    bin_index = int(ctx.code.bin_of[seq_index])
    members = ctx.members_order[
        ctx.bin_offsets[bin_index] : ctx.bin_offsets[bin_index + 1]
    ]
    # Bob's and Eve's likelihoods of every member, each the product of its n
    # factors taken left to right: the high digits' partial products are
    # formed once per trial, then each member multiplies in its low digits'
    # factors one position at a time.
    factors = ctx.cell_factors.take(cells, axis=0).reshape(-1)
    head = factors.take(ctx.head_index).prod(axis=0)
    tail = factors.take(ctx.tail_index)
    high, low = np.divmod(members, ctx.low_size)
    bob, eve = np.concatenate(
        (head.take(high, axis=1)[None], tail.take(low, axis=2))
    ).prod(axis=0)
    true_pos = int(np.searchsorted(members, seq_index))
    if bob[true_pos] <= 0.0:
        raise ArithmeticError("sampled sequence has zero posterior at Bob")
    best = bob.max()
    winners = np.flatnonzero(bob >= best * (1.0 - _TIE_REL_TOL))
    decoded_index = int(members[winners[0]])
    tie = winners.size > 1
    error = tie or decoded_index != seq_index
    if eve[true_pos] <= 0.0:
        raise ArithmeticError("sampled sequence has zero posterior at Eve")
    equiv = exact_posterior_entropy(eve) / ctx.n
    return _SwTrial(
        error=error,
        tie=tie,
        equiv=equiv,
        seq_index=seq_index,
        bin_index=bin_index,
        decoded_index=decoded_index,
        a=np.asarray(a_idx),
        b=np.asarray(b_idx),
        e=np.asarray(e_idx),
    )


def _check_run(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def run_sw_binning(
    joint_abe: JointPMF, n: int, rate: float, trials: int, seed: int
) -> SimReport:
    """Simulate random binning with uncoded side information at Bob.

    Per trial: draw an i.i.d. block from the joint, announce the bin of the
    source block, decode at Bob by exact maximum posterior within the bin
    (any tie counts as an error), and score the eavesdropper's equivocation
    as the entropy of her exact posterior over the bin, per symbol.
    Raises ValueError for a rate outside [0, log2 |A|], a blocklength past
    the enumeration limit, fewer than one trial or a negative seed.
    """
    _check_run(trials, seed)
    ctx = _sw_context(joint_abe, n, rate, seed)
    errors = np.zeros(trials, dtype=bool)
    ties = np.zeros(trials, dtype=bool)
    equivs = np.zeros(trials)
    for t in range(trials):
        record = _sw_trial(ctx, np.random.default_rng((seed, 1, t)))
        errors[t] = record.error
        ties[t] = record.tie
        equivs[t] = record.equiv
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


class _GapTrial(NamedTuple):
    equiv: float
    message_length: int
    a: np.ndarray
    bob_erased: np.ndarray
    eve_erased: np.ndarray


def _gap_trial(params: ErasureParams, n: int, rng: np.random.Generator) -> _GapTrial:
    a = rng.integers(0, 2, size=n)
    bob_erased = rng.random(n) < params.p_b
    eve_erased = rng.random(n) < params.p_e
    # The gap-filling sequence is "the source bit where Bob is erased, a
    # constant elsewhere", so the transmission pins down both the filled
    # positions and their values for everyone listening. Eve's posterior is
    # uniform over the 2^k blocks free at her k erased, unfilled positions,
    # with entropy exactly k bits.
    equiv = int((eve_erased & ~bob_erased).sum()) / n
    return _GapTrial(
        equiv=equiv,
        message_length=int(bob_erased.sum()),
        a=a,
        bob_erased=bob_erased,
        eve_erased=eve_erased,
    )


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
    every blocklength.
    """
    if not 1 <= n <= _MAX_GAP_SCHEME_N:
        raise ValueError(f"blocklength must lie in [1, {_MAX_GAP_SCHEME_N}], got {n}")
    _check_run(trials, seed)
    equivs = np.zeros(trials)
    for t in range(trials):
        equivs[t] = _gap_trial(params, n, np.random.default_rng((seed, 1, t))).equiv
    stderr = float(equivs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimReport(
        trials=trials,
        p_e_hat=0.0,
        equiv_hat=float(equivs.mean()),
        equiv_stderr=stderr,
        seed=seed,
    )
