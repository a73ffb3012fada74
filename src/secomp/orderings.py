"""Side-information orderings: stochastic degradation and less-noisy checks.

Stochastic degradation is decided exactly (up to numerical tolerance) by a
linear-programming feasibility problem: does some channel carry the stronger
observation onto the weaker one while matching both conditionals given the
source? The less-noisy ordering quantifies over every auxiliary channel from
the source. The checker maximizes the violation I(U; weaker-hypothesis side)
- I(U; stronger) and reports a witness when the maximum is meaningfully
positive. With U - A - (B, E), I(A;X) = I(U;X) + I(A;X|U), so the violation
is the secrecy objective I(A;stronger|U) - I(A;weaker|U) minus its value at
a constant U, I(A;stronger) - I(A;weaker) (van Dijk, IEEE T-IT 1997). The
check is therefore ``regions.maximize_secrecy`` with Y = weaker over
channels p(u|a), with the copy of A as a candidate, read raw: the violation
and its certified ``upper_bound`` are the solve's maximum and bound minus
that baseline. A non-falsification with ``upper_bound <= WITNESS_TOL`` is
a proof at the given prior; otherwise it is evidence, not proof, and the
verdict names say so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ascent import OptimizerConfig
from .lp import phase1_simplex
from .probability import Channel, JointPMF, entropy_of, marginalize, require_variables
from .regions import OptResult, maximize_secrecy

# A degradation certificate must reproduce the weaker conditional this well.
COMPOSITION_TOL = 1e-8
# Witness objective values above this count as a falsification.
WITNESS_TOL = 1e-6

# Each check's direction -> its (stronger, weaker) observation.
_DEGRADATION_ROLES = {"e_degraded_wrt_b": ("B", "E"), "b_degraded_wrt_e": ("E", "B")}
_LESS_NOISY_ROLES = {"b_less_noisy_than_e": ("B", "E"), "e_less_noisy_than_b": ("E", "B")}


def _roles(table: dict[str, tuple[str, str]], direction: str) -> tuple[str, str]:
    if direction not in table:
        raise ValueError(
            f"unknown direction {direction!r}; expected {' or '.join(map(repr, table))}"
        )
    return table[direction]


@dataclass(frozen=True, eq=False)
class OrderingVerdict:
    """Outcome of an ordering check.

    ``kind`` is one of ``degraded``, ``not_degraded``,
    ``less_noisy_falsified``, ``less_noisy_not_falsified``. Degradation
    verdicts carry the degrading channel as ``certificate`` and a
    ``physically_degraded`` flag for whether the given joint itself forms the
    Markov chain (degradation as checked here only constrains the pairwise
    marginals). Falsifications carry the ``witness`` channel and its ``gap``;
    non-falsifications record the ``budget_used`` in channels scored (the
    envelope's or grid witness, the copy of A, the uniform channel, and
    column generation's witness where it ran). Less-noisy
    verdicts carry a certified ``upper_bound`` on the violation, at least
    ``gap``; ``opt`` is the secrecy solve behind them, for its diagnostics.
    """

    kind: str
    certificate: Channel | None = None
    witness: Channel | None = None
    gap: float | None = None
    budget_used: int | None = None
    physically_degraded: bool | None = None
    upper_bound: float | None = None
    opt: OptResult | None = None


def _conditionals_given_a(joint: JointPMF, var: str) -> tuple[np.ndarray, np.ndarray]:
    """(p(a), p(var | a)) with zero-mass source symbols dropped."""
    pax = marginalize(joint, ("A", var))
    arr = pax.mass if pax.var_names == ("A", var) else pax.mass.T
    pa = arr.sum(axis=1)
    keep = pa > 0.0
    return pa[keep], arr[keep] / pa[keep, None]


def is_physically_degraded(
    joint_abe: JointPMF, direction: str = "e_degraded_wrt_b"
) -> bool:
    """Whether the joint itself forms the Markov chain A - stronger - weaker."""
    require_variables(joint_abe, ("A", "B", "E"))
    mid, last = _roles(_DEGRADATION_ROLES, direction)
    order = ("A", mid, last)
    arr = np.moveaxis(joint_abe.mass, joint_abe.axes(order), (0, 1, 2))
    p_mid = arr.sum(axis=(0, 2))
    p_a_mid = arr.sum(axis=2)
    p_mid_last = arr.sum(axis=0)
    # A - mid - last holds iff p(a,m,l) p(m) == p(a,m) p(m,l) cell by cell.
    lhs = arr * p_mid[None, :, None]
    rhs = p_a_mid[:, :, None] * p_mid_last[None, :, :]
    return bool(np.abs(lhs - rhs).max() <= 1e-10)


def check_stochastic_degradation(
    joint_abe: JointPMF, direction: str = "e_degraded_wrt_b"
) -> OrderingVerdict:
    """Decide whether the weaker observation factors through the stronger one.

    Solves the feasibility LP: find rows q(weak | strong) >= 0 summing to 1
    with sum_s p(strong=s | a) q(weak=w | s) = p(weak=w | a) for every (a, w).
    Feasible systems yield a ``degraded`` verdict whose certificate is
    re-verified against the composition equation outside the solver. The
    certificate is one vertex of a feasible set that is often degenerate,
    so it moves with the last bits of the conditionals: computing them with
    other rounding can return another vertex that passes the same recheck.
    """
    require_variables(joint_abe, ("A", "B", "E"))
    strong, weak = _roles(_DEGRADATION_ROLES, direction)
    _, p_strong = _conditionals_given_a(joint_abe, strong)
    _, p_weak = _conditionals_given_a(joint_abe, weak)
    n_s = p_strong.shape[1]
    n_w = p_weak.shape[1]
    strong_marginal = marginalize(joint_abe, strong).mass
    support = np.flatnonzero(strong_marginal > 0.0)
    physically = is_physically_degraded(joint_abe, direction)

    # Variables q[s, w] for supported s, flattened s-major: one row per (a, w)
    # for the composition, then one per supported s for the row sums.
    n_sup = support.size
    a_eq = np.vstack([
        np.kron(p_strong[:, support], np.eye(n_w)),
        np.kron(np.eye(n_sup), np.ones(n_w)),
    ])
    b_eq = np.concatenate([p_weak.ravel(), np.ones(n_sup)])
    solution = phase1_simplex(a_eq, b_eq)
    if solution is None:
        return OrderingVerdict(kind="not_degraded", physically_degraded=physically)

    rows = np.full((n_s, n_w), 1.0 / n_w)
    rows[support] = solution.reshape(n_sup, n_w)
    rows /= rows.sum(axis=1, keepdims=True)
    residual = np.abs(p_strong @ rows - p_weak).max()
    if residual > COMPOSITION_TOL:
        raise ArithmeticError(
            f"feasible LP certificate fails composition recheck ({residual:.3e})"
        )
    certificate = Channel(
        ((strong, joint_abe.alphabet(strong)),),
        (weak, joint_abe.alphabet(weak)),
        rows,
    )
    return OrderingVerdict(
        kind="degraded", certificate=certificate, physically_degraded=physically
    )


def search_less_noisy_violation(
    joint_abe: JointPMF,
    cfg: OptimizerConfig = OptimizerConfig(),
    direction: str = "b_less_noisy_than_e",
) -> OrderingVerdict:
    """Try to falsify the less-noisy ordering by maximizing its violation.

    For the default direction the hypothesis is that B is less noisy than E,
    i.e. I(U;E) <= I(U;B) for every p(u|a). The checker maximizes
    I(A;B|U) - I(A;E|U) through ``maximize_secrecy``, scoring the identity
    copy of A (the canonical witness family) and the uniform channel besides
    its own channels; the violation I(U;E) - I(U;B) is that maximum minus
    its value at a constant U, I(A;B) - I(A;E). For a binary source that is
    the exact envelope and ``cfg`` is not used.
    """
    require_variables(joint_abe, ("A", "B", "E"))
    stronger, weaker = _roles(_LESS_NOISY_ROLES, direction)
    a_spec = ("A", joint_abe.alphabet("A"))
    opt = maximize_secrecy(joint_abe, stronger, (a_spec,), cfg, weaker,
                           candidates=[Channel.copy_of(a_spec, "U")])
    # The objective's value at a constant U, I(A;stronger) - I(A;weaker).
    baseline = entropy_of(joint_abe, "A", weaker) - entropy_of(joint_abe, "A", stronger)
    gap = opt.delta_star - baseline
    upper = opt.upper_bound - baseline
    if gap <= WITNESS_TOL:
        return OrderingVerdict(kind="less_noisy_not_falsified",
                               budget_used=len(opt.objective_trace), upper_bound=upper, opt=opt)
    return OrderingVerdict(kind="less_noisy_falsified", witness=opt.best_u, gap=gap,
                           upper_bound=upper, opt=opt)

