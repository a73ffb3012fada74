"""Compression-equivocation rate regions: the secrecy objective, its candidates and bounds.

The secrecy objective I(A;B|U) - I(A;E|U) is maximized over conditional
channels p(u|.) whose conditioning set depends on which side-information
sequences the encoder sees. With only S_E closed the maximum is I(A;B|E),
at U = copy of E, and no search runs (see ``maximize_equivocation``).
Elsewhere ``maximize_secrecy`` solves max I(A;X|U) - I(A;Y|U): X = B for
the uncoded settings, X = V for a coded corner, and X, Y the stronger and
weaker observation for the orderings' less-noisy checks. This module
decides what is maximized over which channels, the candidates scored
first and the analytic upper bound; ``secomp.ascent`` finds the maximum.
An equivocation is never negative, since a code may always reveal
everything, so the equivocations ``maximize_equivocation`` and
``coded_inner_bound_sample`` return are floored at 0 here, in
``_as_equivocation``; ``maximize_secrecy`` returns the raw maximum. The
result is ``ascent.OptResult``, re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .ascent import (
    EntropyObjective,
    OptimizerConfig,
    OptResult,
    maximize_channel,
    u_channel,
)
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


@dataclass(frozen=True, eq=False)
class CodedBoundResult:
    """Corner (r_a, r_c, delta) of the helper-quantized achievable region for one V channel.

    Rates are in bits/symbol; ``delta`` is ``opt.delta_star``. The
    certified achievable set is every (R_A', R_C', delta') with
    R_A' >= r_a, R_C' >= r_c, delta' <= delta and R_A' + delta' >= H(A|E).
    ``sum_ok`` records whether the corner itself already sits on or above
    that last floor.
    """

    r_a: float
    r_c: float
    sum_ok: bool
    opt: OptResult

    @property
    def delta(self) -> float:
        return self.opt.delta_star


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


# Equivocations below numerical resolution are reported as exactly 0.
_SNAP_TOL = 1e-12


def _as_equivocation(opt: OptResult) -> OptResult:
    """``opt`` read as an equivocation, never negative: a code may always reveal everything.

    ``delta_star`` below _SNAP_TOL becomes 0.0 and ``upper_bound`` is at least 0.0.
    """
    delta = opt.delta_star if opt.delta_star >= _SNAP_TOL else 0.0
    return replace(opt, delta_star=delta, upper_bound=max(opt.upper_bound, 0.0))


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

    with equality at U = E. Other settings run ``maximize_secrecy``: exact
    and independent of ``cfg`` for S_B open on a binary source and wherever
    a channel scored before the search reaches H(A|E), else a search
    deterministic for a fixed ``cfg.seed``. Every se and every sb channel
    is a both channel, so with both switches closed ``sb`` is solved first,
    with the same ``cfg`` (its search runs where ``sb`` needs one), and the
    copy of E and ``sb``'s best channel are scored: ``both`` is at least
    ``se`` and at least ``sb``, and its ``evaluations`` include ``sb``'s.
    Every setting's result is floored at 0 by ``_as_equivocation``.
    """
    require_variables(joint_abe, ("A", "B", "E"))
    cond_vars = tuple((v, joint_abe.alphabet(v)) for v in switches.conditioning_vars())
    copy_e = Channel.copy_of(("E", joint_abe.alphabet("E")), "U")
    if not switches.s_e:
        opt = maximize_secrecy(joint_abe, "B", cond_vars, cfg)
    elif not switches.s_b:
        # Known without a search: one agreeing entry, nothing scored, its own bound.
        value = closed_form_delta(joint_abe, "se_closed")
        delta = value if value >= _SNAP_TOL else 0.0
        opt = OptResult(delta_star=delta, best_u=u_channel(cond_vars, copy_e.lift(cond_vars).rows),
                        objective_trace=(delta,), rounds=0, hit_max_rounds=False, evaluations=0,
                        upper_bound=delta)
    else:
        sb = maximize_secrecy(joint_abe, "B", cond_vars[:2], cfg)
        opt = maximize_secrecy(joint_abe, "B", cond_vars, cfg, candidates=[copy_e, sb.best_u])
        opt = replace(opt, evaluations=opt.evaluations + sb.evaluations)
    return _as_equivocation(opt)


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
    opt = _as_equivocation(maximize_secrecy(joint_v, v_name, (("A", joint_v.alphabet("A")),), cfg))
    h_a_e = entropy_of(joint_ace, "A", ("E",))
    sum_ok = bool(r_a + opt.delta_star >= h_a_e - 1e-9)
    return CodedBoundResult(r_a=r_a, r_c=r_c, sum_ok=sum_ok, opt=opt)


def secrecy_entropy_objective(
    joint: JointPMF, x_var: str, cond_vars: tuple[str, ...], y_var: str = "E"
) -> EntropyObjective:
    """I(A;X|U) - I(A;Y|U) as an entropy-term objective over p(u | cond_vars)."""
    a_ax = joint.axis("A")
    x_ax = joint.axis(x_var)
    y_ax = joint.axis(y_var)
    # I(A;X|U) - I(A;Y|U) = H(A|Y,U) - H(A|X,U), written as joint entropies.
    return EntropyObjective.from_terms(
        joint.mass,
        tuple(joint.axis(v) for v in cond_vars),
        terms=[
            ((a_ax, y_ax), +1.0),
            ((y_ax,), -1.0),
            ((a_ax, x_ax), -1.0),
            ((x_ax,), +1.0),
        ],
    )


def maximize_secrecy(
    joint: JointPMF,
    x_var: str,
    cond_vars: tuple[VarSpec, ...],
    cfg: OptimizerConfig,
    y_var: str = "E",
    candidates: Sequence[Channel] = (),
) -> OptResult:
    """Maximize I(A;X|U) - I(A;Y|U) over p(u | cond_vars), scoring ``candidates`` first.

    The one core behind the ``none``, ``sb`` and ``both`` solves, the coded
    corners and both less-noisy checks. Where the two-row envelope does not
    apply, ``maximize_channel`` gets an analytic bound and skips the search
    when a channel scored without one reaches it. Channels p(u|a) give
    U - A - (X, Y), so the objective H(A|Y,U) - H(A|X,U) is at most
    I(A;X|Y,U) <= I(A;X|Y); channels that also see other variables are
    bounded by H(A|Y,U) <= H(A|Y). The result is ``maximize_channel``'s,
    not floored at 0.
    """
    names = tuple(v for v, _ in cond_vars)
    objective = secrecy_entropy_objective(joint, x_var, names, y_var)

    def bound() -> float:
        if names == ("A",):
            return mutual_information_of(joint, "A", x_var, (y_var,))
        return entropy_of(joint, "A", (y_var,))

    return maximize_channel(objective, cond_vars, cfg, bound, candidates)
