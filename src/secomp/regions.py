"""Compression-equivocation rate regions and auxiliary-channel search.

The secrecy objective I(A;B|U) - I(A;E|U) is maximized over conditional
channels p(u|.) whose conditioning set depends on which side-information
sequences the encoder sees. The objective is not concave in the channel, so
the search is a multi-start local ascent over the product of row simplexes:
each start draws every row from a symmetric Dirichlet(1), then sweeps row by
row doing golden-section line search along random in-simplex directions until
a full sweep improves the objective by less than ``tol``.

Deterministic warm starts are injected on top of the random ones: any
caller-supplied channels; with S_E closed and S_B open, U = copy of E, whose
objective I(A;B|E) is the exact maximum for that setting; and last the
uniform (input-ignoring) channel, whose objective is the plain Slepian-Wolf
baseline I(A;B) - I(A;E). Reported values are therefore certified lower
bounds on the true maximum, never below the baseline; ``starts_agreeing``,
``sweeps`` and ``hit_max_iters`` are the convergence diagnostics. The ascent
itself lives in the ``ascent`` module, shared with the orderings search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ascent import EntropyObjective, OptimizerConfig, multistart_ascent, rows_for_start
from .probability import (
    Alphabet,
    Channel,
    DistributionError,
    JointPMF,
    build_joint,
    entropy_of,
    mutual_information_of,
    require_variables,
)

# Objective magnitudes below numerical resolution are reported as exactly 0.
_SNAP_TOL = 1e-12


@dataclass(frozen=True)
class SwitchConfig:
    """Which side-information sequences the encoder observes.

    Closing a switch adds the corresponding variable to the conditioning set
    of the auxiliary channel: none -> {A}, S_B -> {A,B}, S_E -> {A,E},
    both -> {A,B,E}.
    """

    s_b: str = "open"
    s_e: str = "open"

    def __post_init__(self) -> None:
        for label, value in (("s_b", self.s_b), ("s_e", self.s_e)):
            if value not in ("open", "closed"):
                raise ValueError(f"{label} must be 'open' or 'closed', got {value!r}")

    @classmethod
    def from_name(cls, name: str) -> "SwitchConfig":
        table = {
            "none": ("open", "open"),
            "sb": ("closed", "open"),
            "se": ("open", "closed"),
            "both": ("closed", "closed"),
        }
        if name not in table:
            raise ValueError(f"unknown switch configuration {name!r}")
        return cls(*table[name])

    @property
    def name(self) -> str:
        return {
            ("open", "open"): "none",
            ("closed", "open"): "sb",
            ("open", "closed"): "se",
            ("closed", "closed"): "both",
        }[(self.s_b, self.s_e)]

    def conditioning_vars(self) -> tuple[str, ...]:
        cond: tuple[str, ...] = ("A",)
        if self.s_b == "closed":
            cond += ("B",)
        if self.s_e == "closed":
            cond += ("E",)
        return cond


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
    when some start was still improving after ``max_iters`` sweeps.
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
    R_A' >= corner.r_a, R_C' >= corner.r_c, delta' <= delta_star and
    R_A' + delta' >= H(A|E). ``sum_ok`` records whether the corner itself
    already sits on or above that last floor.
    """

    corner: RatePoint
    delta_star: float
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
    extra_starts: Sequence[Channel] = (),
) -> OptResult:
    """Maximize I(A;B|U) - I(A;E|U) over channels p(u | conditioning set).

    ``extra_starts`` channels (conditioning set must match the switches) are
    ascended alongside the random starts. With S_E closed and S_B open, U =
    copy of E follows them: its objective I(A;B|E) is the maximum for that
    setting. The uniform channel is always injected last. Results are
    deterministic for a fixed ``cfg.seed``.
    """
    require_variables(joint_abe, ("A", "B", "E"))
    cond_vars = switches.conditioning_vars()
    starts = list(extra_starts)
    alph_e = joint_abe.alphabet("E")
    fits = cfg.u_cardinality is None or cfg.u_cardinality >= alph_e.size
    # Under "both" this start is not the optimum, and ascending it costs
    # hundreds of sweeps, so only "se" gets it.
    if switches.name == "se" and fits:
        copy_e = Channel.copy_of(("E", alph_e), "U")
        starts.append(copy_e.lift(tuple((v, joint_abe.alphabet(v)) for v in cond_vars)))
    return _maximize_secrecy(
        joint_abe, x_var="B", cond_vars=cond_vars, cfg=cfg, extra_starts=starts
    )


def coded_inner_bound_sample(
    joint_ace: JointPMF,
    v_channel: Channel,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CodedBoundResult:
    """Achievable corner for one helper quantizer V with V - C - (A,E).

    Returns the corner (R_A = H(A|V), R_C = I(C;V)) together with
    delta_star = max(0, max_U I(A;V|U) - I(A;E|U)) over p(u|a). The same
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
    opt = _maximize_secrecy(joint_v, x_var=v_name, cond_vars=("A",), cfg=cfg)
    h_a_e = entropy_of(joint_ace, "A", ("E",))
    sum_ok = bool(r_a + opt.delta_star >= h_a_e - 1e-9)
    corner = RatePoint(r_a=r_a, r_c=r_c, delta=opt.delta_star)
    return CodedBoundResult(corner=corner, delta_star=opt.delta_star, sum_ok=sum_ok, opt=opt)


def default_u_cardinality(joint: JointPMF, cond_vars: Sequence[str]) -> int:
    """(Product of the conditioning alphabet sizes) + 1."""
    return int(np.prod([joint.alphabet(v).size for v in cond_vars])) + 1


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
    cond_vars: tuple[str, ...],
    cfg: OptimizerConfig,
    extra_starts: Sequence[Channel] = (),
) -> OptResult:
    """Shared core: maximize I(A;X|U) - I(A;E|U) over p(u | cond_vars)."""
    n_symbols = cfg.u_cardinality or default_u_cardinality(joint, cond_vars)
    sizes = tuple(joint.alphabet(v).size for v in cond_vars)
    objective = secrecy_entropy_objective(joint, x_var, cond_vars)
    cond_specs = tuple((v, joint.alphabet(v)) for v in cond_vars)
    injected = [rows_for_start(ch, joint, cond_vars, n_symbols) for ch in extra_starts]
    injected.append(np.full((objective.n_rows, n_symbols), 1.0 / n_symbols))
    ascent = multistart_ascent(objective, n_symbols, cfg, injected)
    f, w = ascent.values, ascent.tables
    best = int(np.argmax(f))
    best_value = float(f[best])
    delta_star = best_value if best_value >= _SNAP_TOL else 0.0
    u_alphabet = Alphabet("U", tuple(f"u{i}" for i in range(n_symbols)))
    best_u = Channel(cond_specs, ("U", u_alphabet), w[best].reshape(*sizes, n_symbols))
    trace = tuple(float(v) for v in f)
    agreeing = int(np.sum(f >= best_value - cfg.tol))
    return OptResult(
        delta_star=delta_star,
        best_u=best_u,
        objective_trace=trace,
        starts_agreeing=agreeing,
        sweeps=tuple(int(k) for k in ascent.sweeps),
        hit_max_iters=ascent.hit_max_iters,
    )
