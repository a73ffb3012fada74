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
from .probability import Channel, JointPMF, entropy_of, require_variables
from .regions import OptResult, maximize_secrecy

# A degradation certificate must reproduce the weaker conditional this well.
COMPOSITION_TOL = 1e-8
# The joint is physically degraded when its Markov identity holds this well.
MARKOV_TOL = 1e-10
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
    marginals): every |p(a,m,l) p(m) - p(a,m) p(m,l)| is at most the
    absolute tolerance ``MARKOV_TOL``. Falsifications carry the ``witness``
    channel and its ``gap``; non-falsifications record the ``budget_used``
    in channels scored (the envelope's or grid witness, the copy of A, the
    uniform channel, and column generation's witness where it ran). Less-noisy
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


def _degradation_system(p_strong: np.ndarray, p_weak: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a_eq, b_eq) of the degradation LP for p(strong | a) over the supported s, and p(weak | a).

    Variables q[s, w], flattened s-major: one row per (a, w) for the
    composition sum_s p(s | a) q[s, w] = p(w | a), then one per s for the
    row sums. Every entry is a p(s | a) or 1.0, placed into zeros.
    """
    (n_a, n_sup), n_w = p_strong.shape, p_weak.shape[1]
    a_eq = np.zeros((n_a * n_w + n_sup, n_sup * n_w))
    w, s = np.arange(n_w), np.arange(n_sup)
    a_eq[: n_a * n_w].reshape(n_a, n_w, n_sup, n_w)[:, w, :, w] = p_strong
    a_eq[n_a * n_w:].reshape(n_sup, n_sup, n_w)[s, s] = 1.0
    return a_eq, np.concatenate([p_weak.ravel(), np.ones(n_sup)])


def _is_markov(arr: np.ndarray, p_a_mid: np.ndarray) -> bool:
    """Whether (A, mid, last) mass ``arr``, p(a, mid) = ``p_a_mid``, forms A - mid - last."""
    p_mid = arr.sum(axis=(0, 2))
    p_mid_last = arr.sum(axis=0)
    # A - mid - last holds iff p(a,m,l) p(m) == p(a,m) p(m,l) cell by cell.
    lhs = arr * p_mid[None, :, None]
    rhs = p_a_mid[:, :, None] * p_mid_last[None, :, :]
    return bool(np.abs(lhs - rhs).max() <= MARKOV_TOL)


def _moved(joint_abe: JointPMF, direction: str) -> tuple[str, str, np.ndarray]:
    """(strong, weak, the joint's mass with its axes moved to (A, strong, weak))."""
    require_variables(joint_abe, ("A", "B", "E"))
    strong, weak = _roles(_DEGRADATION_ROLES, direction)
    return strong, weak, np.moveaxis(joint_abe.mass, joint_abe.axes(("A", strong, weak)), (0, 1, 2))


def is_physically_degraded(joint_abe: JointPMF, direction: str = "e_degraded_wrt_b") -> bool:
    """Whether the joint itself forms the Markov chain A - stronger - weaker."""
    arr = _moved(joint_abe, direction)[2]
    return _is_markov(arr, arr.sum(axis=2))


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
    So they come from the joint's mass with axes moved to (A, strong, weak),
    each pairwise marginal divided by its sum as ``JointPMF`` renormalizes
    a ``marginalize`` result, which keeps the bits that route gave.
    """
    strong, weak, arr = _moved(joint_abe, direction)
    m_as = arr.sum(axis=2)
    p_as, p_aw = (m / float(m.sum()) for m in (m_as, arr.sum(axis=1)))
    keep = p_as.sum(axis=1) > 0.0
    p_strong, p_weak = (p[keep] / p[keep].sum(axis=1, keepdims=True) for p in (p_as, p_aw))
    _, n_s, n_w = arr.shape
    support = np.flatnonzero(p_as.sum(axis=0) > 0.0)
    physically = _is_markov(arr, m_as)

    solution = phase1_simplex(*_degradation_system(p_strong[:, support], p_weak))
    if solution is None:
        return OrderingVerdict(kind="not_degraded", physically_degraded=physically)

    rows = np.full((n_s, n_w), 1.0 / n_w)
    rows[support] = solution.reshape(support.size, n_w)
    rows /= rows.sum(axis=1, keepdims=True)
    certificate = Channel(
        ((strong, joint_abe.alphabet(strong)),),
        (weak, joint_abe.alphabet(weak)),
        rows,
    )
    residual = np.abs(p_strong @ certificate.rows - p_weak).max()
    if residual > COMPOSITION_TOL:
        raise ArithmeticError(
            f"feasible LP certificate fails composition recheck ({residual:.3e})"
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

