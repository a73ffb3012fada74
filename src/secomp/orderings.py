"""Side-information orderings: stochastic degradation and less-noisy checks.

Stochastic degradation is decided exactly (up to numerical tolerance) by a
linear-programming feasibility problem: does some channel carry the stronger
observation onto the weaker one while matching both conditionals given the
source? The less-noisy ordering quantifies over every auxiliary channel from
the source. The checker maximizes the violation I(U; weaker-hypothesis side)
- I(U; stronger) and reports a witness when the maximum is meaningfully
positive. With U - A - (B, E) the violation is sum_u p(u) f(p_{A|u}) - f(p_A)
for f(q) = I_q(A; weaker) - I_q(A; stronger), so its maximum is the upper
concave envelope of f at p_A minus f(p_A). For a binary source
``ascent.maximize_channel`` computes that envelope exactly, and the verdict
carries a certified ``upper_bound`` on the violation: a non-falsification
with ``upper_bound <= WITNESS_TOL`` is a proof at the given prior. Larger
sources run the multi-start search, where the absence of a witness is
evidence, not proof, and the verdict names say so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probability import (
    Channel,
    JointPMF,
    entropy_of,
    marginalize,
    require_variables,
)
from .ascent import EntropyObjective, OptimizerConfig, maximize_channel

# A degradation certificate must reproduce the weaker conditional this well.
COMPOSITION_TOL = 1e-8
# Witness objective values above this count as a falsification.
WITNESS_TOL = 1e-6

_LP_FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OrderingVerdict:
    """Outcome of an ordering check.

    ``kind`` is one of ``degraded``, ``not_degraded``,
    ``less_noisy_falsified``, ``less_noisy_not_falsified``. Degradation
    verdicts carry the degrading channel as ``certificate`` and a
    ``physically_degraded`` flag for whether the given joint itself forms the
    Markov chain (degradation as checked here only constrains the pairwise
    marginals). Falsifications carry the ``witness`` channel and its ``gap``;
    non-falsifications record the search ``budget_used`` in channels scored
    (starts, or the envelope's witness and injected channels). Less-noisy
    verdicts carry the envelope's certified ``upper_bound`` on the violation
    when the source is binary, else None.
    """

    kind: str
    certificate: Channel | None = None
    witness: Channel | None = None
    gap: float | None = None
    budget_used: int | None = None
    physically_degraded: bool | None = None
    upper_bound: float | None = None


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
    mid, last = _direction_roles(direction)
    order = ("A", mid, last)
    arr = np.moveaxis(joint_abe.mass, joint_abe.axes(order), (0, 1, 2))
    p_mid = arr.sum(axis=(0, 2))
    p_a_mid = arr.sum(axis=2)
    p_mid_last = arr.sum(axis=0)
    # A - mid - last holds iff p(a,m,l) p(m) == p(a,m) p(m,l) cell by cell.
    lhs = arr * p_mid[None, :, None]
    rhs = p_a_mid[:, :, None] * p_mid_last[None, :, :]
    return bool(np.abs(lhs - rhs).max() <= 1e-10)


def _direction_roles(direction: str) -> tuple[str, str]:
    if direction == "e_degraded_wrt_b":
        return "B", "E"
    if direction == "b_degraded_wrt_e":
        return "E", "B"
    raise ValueError(
        f"unknown direction {direction!r}; expected 'e_degraded_wrt_b' or 'b_degraded_wrt_e'"
    )


def check_stochastic_degradation(
    joint_abe: JointPMF, direction: str = "e_degraded_wrt_b"
) -> OrderingVerdict:
    """Decide whether the weaker observation factors through the stronger one.

    Solves the feasibility LP: find rows q(weak | strong) >= 0 summing to 1
    with sum_s p(strong=s | a) q(weak=w | s) = p(weak=w | a) for every (a, w).
    Feasible systems yield a ``degraded`` verdict whose certificate is
    re-verified against the composition equation outside the solver.
    """
    require_variables(joint_abe, ("A", "B", "E"))
    strong, weak = _direction_roles(direction)
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
    solution = _phase1_simplex(a_eq, b_eq, tol=_LP_FEASIBILITY_TOL)
    if solution is None:
        return OrderingVerdict(kind="not_degraded", physically_degraded=physically)

    rows = np.full((n_s, n_w), 1.0 / n_w)
    rows[support] = solution.reshape(n_sup, n_w)
    rows = np.maximum(rows, 0.0)
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
    i.e. I(U;E) <= I(U;B) for every p(u|a); the checker maximizes
    I(U;E) - I(U;B) over channels with the usual cardinality bound through
    ``maximize_channel``, scoring the identity copy of A (the canonical
    witness family) and the uniform channel besides its own channels. For a
    binary source that is the exact envelope and ``cfg`` is not used.
    """
    require_variables(joint_abe, ("A", "B", "E"))
    if direction == "b_less_noisy_than_e":
        stronger, weaker = "B", "E"
    elif direction == "e_less_noisy_than_b":
        stronger, weaker = "E", "B"
    else:
        raise ValueError(
            f"unknown direction {direction!r}; expected 'b_less_noisy_than_e' "
            "or 'e_less_noisy_than_b'"
        )
    a_spec = ("A", joint_abe.alphabet("A"))
    objective = less_noisy_objective(joint_abe, stronger, weaker)
    starts = [Channel.copy_of(a_spec, "U")]
    ascent, witness = maximize_channel(objective, (a_spec,), cfg, starts)
    gap = float(ascent.values.max())
    if gap <= WITNESS_TOL:
        return OrderingVerdict(kind="less_noisy_not_falsified", budget_used=len(ascent.values),
                               upper_bound=ascent.upper_bound)
    return OrderingVerdict(kind="less_noisy_falsified", witness=witness, gap=gap,
                           upper_bound=ascent.upper_bound)


def less_noisy_objective(
    joint_abe: JointPMF, stronger: str, weaker: str
) -> EntropyObjective:
    """I(U;weaker) - I(U;stronger) as an entropy-term objective over p(u|a)."""
    # I(U;weaker) - I(U;stronger) = H(weaker) - H(stronger)
    #                               + H(stronger,U) - H(weaker,U).
    return EntropyObjective.from_terms(
        joint_abe.mass,
        (joint_abe.axis("A"),),
        terms=[
            ((joint_abe.axis(stronger),), +1.0),
            ((joint_abe.axis(weaker),), -1.0),
        ],
        const=entropy_of(joint_abe, weaker) - entropy_of(joint_abe, stronger),
    )


def _phase1_simplex(
    a_eq: np.ndarray, b_eq: np.ndarray, tol: float = _LP_FEASIBILITY_TOL
) -> np.ndarray | None:
    """Find x >= 0 with a_eq @ x = b_eq, or None on certified infeasibility.

    Textbook phase-1 tableau simplex with Bland's rule; the systems here have
    a few dozen variables at most, so no factorization tricks are needed.
    """
    a_eq = np.asarray(a_eq, dtype=float).copy()
    b_eq = np.asarray(b_eq, dtype=float).copy()
    m, n = a_eq.shape
    flip = b_eq < 0.0
    a_eq[flip] *= -1.0
    b_eq[flip] *= -1.0
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a_eq
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b_eq
    # Objective row: reduced costs for minimizing the sum of artificials.
    tableau[m, :n] = -a_eq.sum(axis=0)
    tableau[m, -1] = -b_eq.sum()
    basis = np.arange(n, n + m)
    for _ in range(50_000):
        # Bland's rule: the lowest-index column with a negative reduced cost.
        negative = np.flatnonzero(tableau[m, : n + m] < -1e-11)
        if negative.size == 0:
            break
        entering = negative[0]
        column = tableau[:m, entering]
        candidates = np.flatnonzero(column > 1e-11)
        if candidates.size == 0:
            return None
        ratios = tableau[candidates, -1] / column[candidates]
        best = ratios.min()
        ties = candidates[ratios <= best + 1e-12]
        leaving = ties[np.argmin(basis[ties])]
        pivot_row = tableau[leaving] / tableau[leaving, entering]
        tableau -= np.outer(tableau[:, entering], pivot_row)
        tableau[leaving] = pivot_row
        basis[leaving] = entering
    else:
        raise ArithmeticError("phase-1 simplex failed to terminate")
    if -tableau[m, -1] > tol:
        return None
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = tableau[:m, -1][real]
    return np.maximum(x, 0.0)
