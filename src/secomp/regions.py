"""Compression-equivocation rate regions and auxiliary-channel search.

The secrecy objective I(A;B|U) - I(A;E|U) is maximized over conditional
channels p(u|.) whose conditioning set depends on which side-information
sequences the encoder sees. With only S_E closed the maximum is I(A;B|E),
at U = copy of E, and no search runs (see ``maximize_equivocation``).
Elsewhere the objective is not concave in the channel, so
``ascent.maximize_channel``, shared with the orderings search, runs a
multi-start local ascent over the product of row simplexes: Dirichlet(1)
starts, vertex steps and golden-section line searches along random
in-simplex directions, until a full sweep improves by less than ``tol``.
The uniform channel, whose objective is the plain Slepian-Wolf baseline
I(A;B) - I(A;E), is ascended too, so searched values are certified lower
bounds on the true maximum, never below the baseline; ``starts_agreeing``,
``sweeps`` and ``hit_max_iters`` are the convergence diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ascent import EntropyObjective, OptimizerConfig, maximize_channel, u_channel
from .probability import (
    Channel,
    DistributionError,
    JointPMF,
    VarSpec,
    build_joint,
    entropy_of,
    mutual_information_of,
    require_variables,
)

# Objective magnitudes below numerical resolution are reported as exactly 0.
_SNAP_TOL = 1e-12


def _snap(value: float) -> float:
    return value if value >= _SNAP_TOL else 0.0


# Switch setting name -> (S_B closed, S_E closed).
_SWITCHES = {
    "none": (False, False),
    "sb": (True, False),
    "se": (False, True),
    "both": (True, True),
}


@dataclass(frozen=True)
class SwitchConfig:
    """Which side-information sequences the encoder observes.

    ``s_b`` (``s_e``) is true when switch S_B (S_E) is closed. Closing a
    switch adds the corresponding variable to the conditioning set of the
    auxiliary channel: none -> {A}, S_B -> {A,B}, S_E -> {A,E},
    both -> {A,B,E}.
    """

    s_b: bool = False
    s_e: bool = False

    @classmethod
    def from_name(cls, name: str) -> "SwitchConfig":
        if name not in _SWITCHES:
            raise ValueError(f"unknown switch configuration {name!r}")
        return cls(*_SWITCHES[name])

    @property
    def name(self) -> str:
        return next(k for k, v in _SWITCHES.items() if v == (self.s_b, self.s_e))

    def conditioning_vars(self) -> tuple[str, ...]:
        return ("A",) + ("B",) * self.s_b + ("E",) * self.s_e


@dataclass(frozen=True)
class RatePoint:
    """A (R_A, R_C, delta) triple in bits/symbol; R_C is None when uncoded."""

    r_a: float
    r_c: float | None
    delta: float

    def __post_init__(self) -> None:
        for label, value in (("r_a", self.r_a), ("r_c", self.r_c), ("delta", self.delta)):
            if value is None:
                continue
            if value < -_SNAP_TOL:
                raise ValueError(f"{label} must be nonnegative, got {value}")
            if value < 0.0:
                object.__setattr__(self, label, 0.0)


@dataclass(frozen=True, eq=False)
class OptResult:
    """Outcome of one auxiliary-channel maximization.

    ``delta_star`` is max(0, best objective found); a code may always reveal
    everything, so equivocation 0 is trivially achievable and negative
    objectives are clamped. ``objective_trace`` holds each start's final
    value (random starts first, then injected ones); ``starts_agreeing``
    counts starts within ``tol`` of the best. ``sweeps`` holds the sweeps
    each start ran before it froze, in trace order; ``hit_max_iters`` is true
    when some start was still improving after ``max_iters`` sweeps. The
    S_E-closed closed form counts as one agreeing start that ran no sweep:
    trace ``(delta_star,)``, ``sweeps == (0,)``, ``hit_max_iters`` false.
    """

    delta_star: float
    best_u: Channel
    objective_trace: tuple[float, ...]
    starts_agreeing: int
    sweeps: tuple[int, ...]
    hit_max_iters: bool


@dataclass(frozen=True, eq=False)
class CodedBoundResult:
    """Corner of the helper-quantized achievable region for one V channel.

    The certified achievable set is every (R_A', R_C', delta') with
    R_A' >= corner.r_a, R_C' >= corner.r_c, delta' <= corner.delta and
    R_A' + delta' >= H(A|E). ``sum_ok`` records whether the corner itself
    already sits on or above that last floor.
    """

    corner: RatePoint
    sum_ok: bool
    opt: OptResult


def secrecy_objective(
    joint_abe: JointPMF, u_channel: Channel, switches: SwitchConfig
) -> float:
    """I(A;B|U) - I(A;E|U) for the given auxiliary channel; may be negative.

    The channel must condition on exactly the variables the switch
    configuration makes available to the encoder.
    """
    require_variables(joint_abe, ("A", "B", "E"))
    cond = switches.conditioning_vars()
    if set(u_channel.from_names) != set(cond):
        raise DistributionError(
            f"channel conditions on {u_channel.from_names}, but switches "
            f"{switches.name!r} require conditioning set {cond}"
        )
    joint_u = build_joint(joint_abe, u_channel)
    u_name = u_channel.to_var[0]
    return mutual_information_of(joint_u, "A", "B", (u_name,)) - mutual_information_of(
        joint_u, "A", "E", (u_name,)
    )


def closed_form_delta(joint_abe: JointPMF, mode: str) -> float:
    """Closed-form equivocation value, clamped at 0.

    ``less_noisy``: I(A;B) - I(A;E), valid when Bob's side information is
    less noisy than Eve's (the caller asserts the hypothesis; see the
    orderings module for checking it). ``se_closed``: I(A;B|E), the exact
    value when the encoder sees Eve's side information.
    """
    require_variables(joint_abe, ("A", "B", "E"))
    if mode == "less_noisy":
        value = mutual_information_of(joint_abe, "A", "B") - mutual_information_of(
            joint_abe, "A", "E"
        )
    elif mode == "se_closed":
        value = mutual_information_of(joint_abe, "A", "B", ("E",))
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'less_noisy' or 'se_closed'")
    return max(0.0, value)


def maximize_equivocation(
    joint_abe: JointPMF,
    switches: SwitchConfig,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> OptResult:
    """Maximize I(A;B|U) - I(A;E|U) over channels p(u | conditioning set).

    With only S_E closed this is I(A;B|E), at U = copy of E, found without a
    search. Every channel p(u|a,e) gives U - (A,E) - B, so

        I(A;B|U) - I(A;E|U) = H(A|E,U) - H(A|B,U)
                           <= H(A|E,U) - H(A|B,E,U) = I(A;B|E,U)
                            = I(A;B|E) - I(U;B|E) <= I(A;B|E),

    with equality at U = E. Other settings run ``maximize_channel``, with
    results deterministic for a fixed ``cfg.seed``.
    """
    require_variables(joint_abe, ("A", "B", "E"))
    cond_vars = tuple((v, joint_abe.alphabet(v)) for v in switches.conditioning_vars())
    if switches.s_e and not switches.s_b:
        delta = _snap(closed_form_delta(joint_abe, "se_closed"))
        copy_e = Channel.copy_of(("E", joint_abe.alphabet("E")), "U").lift(cond_vars)
        best_u = u_channel(cond_vars, copy_e.rows)
        return OptResult(delta_star=delta, best_u=best_u, objective_trace=(delta,),
                         starts_agreeing=1, sweeps=(0,), hit_max_iters=False)
    return _maximize_secrecy(joint_abe, "B", cond_vars, cfg)


def coded_inner_bound_sample(
    joint_ace: JointPMF,
    v_channel: Channel,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CodedBoundResult:
    """Achievable corner for one helper quantizer V with V - C - (A,E).

    Returns the corner (R_A = H(A|V), R_C = I(C;V), delta =
    max(0, max_U I(A;V|U) - I(A;E|U)) over p(u|a)). The same
    (U, V) pair feeds all conditions, so the region certified by this corner
    is their intersection over that pair.
    """
    require_variables(joint_ace, ("A", "C", "E"))
    if v_channel.from_names != ("C",):
        raise DistributionError(
            f"helper quantizer must condition on C only, got {v_channel.from_names}"
        )
    v_name = v_channel.to_var[0]
    joint_v = build_joint(joint_ace, v_channel)
    r_a = entropy_of(joint_v, "A", (v_name,))
    r_c = mutual_information_of(joint_v, "C", v_name)
    opt = _maximize_secrecy(joint_v, v_name, (("A", joint_v.alphabet("A")),), cfg)
    h_a_e = entropy_of(joint_ace, "A", ("E",))
    sum_ok = bool(r_a + opt.delta_star >= h_a_e - 1e-9)
    corner = RatePoint(r_a=r_a, r_c=r_c, delta=opt.delta_star)
    return CodedBoundResult(corner=corner, sum_ok=sum_ok, opt=opt)


def secrecy_entropy_objective(
    joint: JointPMF, x_var: str, cond_vars: tuple[str, ...]
) -> EntropyObjective:
    """I(A;X|U) - I(A;E|U) as an entropy-term objective over p(u | cond_vars)."""
    a_ax = joint.axis("A")
    x_ax = joint.axis(x_var)
    e_ax = joint.axis("E")
    # I(A;X|U) - I(A;E|U) = H(A|E,U) - H(A|X,U), written as joint entropies.
    return EntropyObjective.from_terms(
        joint.mass,
        tuple(joint.axis(v) for v in cond_vars),
        terms=[
            ((a_ax, e_ax), +1.0),
            ((e_ax,), -1.0),
            ((a_ax, x_ax), -1.0),
            ((x_ax,), +1.0),
        ],
    )


def _maximize_secrecy(
    joint: JointPMF,
    x_var: str,
    cond_vars: tuple[VarSpec, ...],
    cfg: OptimizerConfig,
) -> OptResult:
    """Shared core: maximize I(A;X|U) - I(A;E|U) over p(u | cond_vars)."""
    names = tuple(v for v, _ in cond_vars)
    objective = secrecy_entropy_objective(joint, x_var, names)
    ascent, best_u = maximize_channel(objective, cond_vars, cfg)
    f = ascent.values
    best_value = float(f.max())
    return OptResult(
        delta_star=_snap(best_value),
        best_u=best_u,
        objective_trace=tuple(f.tolist()),
        starts_agreeing=int(np.sum(f >= best_value - cfg.tol)),
        sweeps=tuple(ascent.sweeps.tolist()),
        hit_max_iters=ascent.hit_max_iters,
    )
