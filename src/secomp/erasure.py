"""Binary erasure side information: constructors and closed-form values.

Alice's source is a fair bit; Bob and Eve each see it through independent
erasure channels with probabilities p_b and p_e. Everything about this family
has a closed form, which makes it the ground-truth oracle for the region
optimizer, the ordering checks, and the binning simulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probability import Alphabet, Channel, JointPMF
from .regions import SwitchConfig

# Symbol order is part of the contract: "e" (erasure) is always last.
ALPHABET_A = Alphabet("A", ("0", "1"))
ALPHABET_B = Alphabet("B", ("0", "1", "e"))
ALPHABET_E = Alphabet("E", ("0", "1", "e"))


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
    """Optimal equivocation rate in bits/symbol for this switch setting.

    Without encoder side information the value is max(p_e - p_b, 0); with
    either or both sequences at the encoder it is p_e * (1 - p_b).
    """
    if switches.name == "none":
        return max(params.p_e - params.p_b, 0.0)
    return params.p_e * (1.0 - params.p_b)


def optimal_u_for_switches(params: ErasureParams, switches: SwitchConfig) -> Channel:
    """The equivocation-optimal auxiliary channel when the encoder sees B.

    U reveals A exactly where Bob is erased and is a constant symbol
    elsewhere, so the transmission fills Bob's gaps while telling Eve as
    little as possible. Only configurations with S_B closed have this
    explicit form; when S_E is closed too, the same channel is lifted to
    condition (vacuously) on E as well.
    """
    del params  # the optimal channel does not depend on the erasure rates
    if not switches.s_b:
        raise ValueError(
            "no explicit optimal channel for switches "
            f"{switches.name!r}; use the region optimizer"
        )
    u_alphabet = Alphabet("U", ("u0", "u1", "c"))

    def assign(symbols: tuple[str, ...]) -> str:
        a, b = symbols
        return f"u{a}" if b == "e" else "c"

    channel = Channel.deterministic(
        (("A", ALPHABET_A), ("B", ALPHABET_B)), ("U", u_alphabet), assign
    )
    if switches.s_e:
        channel = channel.lift(
            (("A", ALPHABET_A), ("B", ALPHABET_B), ("E", ALPHABET_E))
        )
    return channel
