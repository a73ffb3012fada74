"""Binary erasure side information: constructors and closed-form values.

Alice's source is a fair bit; Bob and Eve each see it through independent
erasure channels with probabilities p_b and p_e. Nearly everything about this
family has a closed form, which makes it the ground-truth oracle for the
region optimizer, the ordering checks, and the binning simulators; the one
value without a proof of optimality is the S_B-closed one for p_b > 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probability import Alphabet, Channel, JointPMF
from .regions import SwitchConfig

# Symbol order is part of the contract: "e" (erasure) is always last.
ALPHABET_A = Alphabet("A", ("0", "1"))
ALPHABET_B = Alphabet("B", ("0", "1", "e"))
ALPHABET_E = Alphabet("E", ("0", "1", "e"))
_AB = (("A", ALPHABET_A), ("B", ALPHABET_B))


@dataclass(frozen=True)
class ErasureParams:
    """Erasure probabilities at Bob and at Eve."""

    p_b: float
    p_e: float

    def __post_init__(self) -> None:
        for label, value in (("p_b", self.p_b), ("p_e", self.p_e)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")


def make_erasure_joint(params: ErasureParams) -> JointPMF:
    """Joint PMF of (A, B, E): A uniform, B and E independent erasures of A."""
    mass = np.zeros((2, 3, 3))
    for a in range(2):
        for b, pb in ((a, 1.0 - params.p_b), (2, params.p_b)):
            for e, pe in ((a, 1.0 - params.p_e), (2, params.p_e)):
                mass[a, b, e] += 0.5 * pb * pe
    return JointPMF(
        (("A", ALPHABET_A), ("B", ALPHABET_B), ("E", ALPHABET_E)), mass
    )


def erasure_delta(params: ErasureParams, switches: SwitchConfig) -> float:
    """Equivocation rate in bits/symbol for this switch setting.

    ``none``: max(p_e - p_b, 0), exact. ``se``: I(A;B|E) = p_e (1 - p_b),
    exact (U = copy of E; see ``regions.maximize_equivocation``).

    ``sb`` and ``both``: p_e for p_b <= 1/2, exact. Every channel gives
    I(A;B|U) - I(A;E|U) = H(A|E,U) - H(A|B,U) <= H(A|E) = p_e. A binary U
    attains it: U = A where Bob is erased, and elsewhere U = A with
    probability keep = (1/2 - p_b) / (1 - p_b), U = 1 - A otherwise. Then
    P(U = A) = 1/2 whatever Bob saw, so U is independent of (A, E), and A
    is a function of (B, U). For p_b > 1/2 the value is p_e h(p_b), the
    same U with keep = 0 (U = A where Bob is erased, 1 - A elsewhere): a
    lower bound on the objective's maximum, which the optimizer matches.

    The ``sb``/``both`` value (``delta_star``) is the maximum of the
    single-letter objective: an achievable (inner) value of the
    equivocation, not the region's equivocation. For p_b <= 1/2 it meets
    the outer bound H(A|E) = p_e, so the two agree; for p_b > 1/2 no
    converse is known to meet p_e h(p_b).
    """
    if switches.name == "none":
        return max(params.p_e - params.p_b, 0.0)
    if switches.name == "se":
        return params.p_e * (1.0 - params.p_b)
    if params.p_b <= 0.5:
        return params.p_e
    return params.p_e * _binary_entropy(params.p_b)


def _binary_entropy(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def optimal_u_for_switches(params: ErasureParams, switches: SwitchConfig) -> Channel:
    """The binary channel that attains ``erasure_delta`` with S_B closed.

    U = A where Bob is erased; elsewhere U = A with probability keep, else
    1 - A, where keep = (1/2 - p_b) / (1 - p_b) for p_b <= 1/2 and 0 above
    (see ``erasure_delta`` for why its value is p_e, then p_e h(p_b)).
    """
    keep = max(0.5 - params.p_b, 0.0) / (1.0 - params.p_b) if params.p_b < 1.0 else 0.0
    rows = np.full((2, 3, 2), 0.5)
    for a in range(2):
        rows[a, a] = [keep, 1.0 - keep] if a == 0 else [1.0 - keep, keep]
        rows[a, 2] = np.eye(2)[a]
    return _for_switches(switches, Channel(_AB, ("U", Alphabet("U", ("0", "1"))), rows))


def gap_filler_u(switches: SwitchConfig) -> Channel:
    """The gap filler: the channel of the ``erasure-scheme`` simulator, for S_B closed.

    U reveals A exactly where Bob is erased and is a constant symbol
    elsewhere, so the transmission fills Bob's gaps. Its value is
    p_e (1 - p_b), below what ``erasure_delta`` reports for every
    0 < p_b < 1 and p_e > 0.
    """
    rows = np.zeros((2, 3, 3))
    rows[:, :2, 2] = 1.0  # c wherever Bob sees a bit, B = A or not
    rows[:, 2, :2] = np.eye(2)  # u0 or u1, the value of A, where Bob is erased
    return _for_switches(switches, Channel(_AB, ("U", Alphabet("U", ("u0", "u1", "c"))), rows))


def _for_switches(switches: SwitchConfig, channel: Channel) -> Channel:
    """``channel`` on (A, B), lifted to (A, B, E) when S_E is closed too; S_B must be closed."""
    if not switches.s_b:
        raise ValueError(f"no explicit channel for switches {switches.name!r}; use the optimizer")
    return channel.lift(_AB + (("E", ALPHABET_E),)) if switches.s_e else channel
