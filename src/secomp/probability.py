"""Exact probability calculus and information measures on finite alphabets.

Joint distributions are dense numpy arrays with one axis per named variable;
the symbol order inside an :class:`Alphabet` fixes array indexing everywhere.
Alphabets here are tiny (a handful of symbols), so dense storage beats any
sparse cleverness. All information measures are in bits.

Every value type is immutable after construction and safe to share across
concurrent workers; the operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Tolerance on ingested normalization. After validation every distribution is
# renormalized by its machine sum, so downstream identities hold to ~1e-12.
INGEST_TOL = 1e-9

# Differences of entropies may round to tiny negatives; anything closer to
# zero than this is reported as exactly zero.
_CLAMP_TOL = 1e-12


class DistributionError(ValueError):
    """A PMF or channel violates its construction contract."""


@dataclass(frozen=True)
class Alphabet:
    """Named, ordered set of distinct symbol labels."""

    name: str
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise DistributionError(f"alphabet {self.name!r} is empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise DistributionError(f"alphabet {self.name!r} repeats a symbol")

    @property
    def size(self) -> int:
        return len(self.symbols)


VarSpec = tuple[str, Alphabet]


def _as_names(vars_: str | Iterable[str]) -> tuple[str, ...]:
    if isinstance(vars_, str):
        return (vars_,)
    return tuple(vars_)


@dataclass(frozen=True, eq=False)
class JointPMF:
    """Joint PMF over named variables, one array axis per variable."""

    variables: tuple[VarSpec, ...]
    mass: np.ndarray

    def __post_init__(self) -> None:
        variables = tuple((name, alph) for name, alph in self.variables)
        if not variables:
            raise DistributionError("a joint needs at least one variable")
        names = [n for n, _ in variables]
        if len(set(names)) != len(names):
            raise DistributionError(f"duplicate variable names in {names}")
        arr = np.array(self.mass, dtype=float)
        shape = tuple(alph.size for _, alph in variables)
        if arr.shape != shape:
            raise DistributionError(
                f"mass shape {arr.shape} does not match alphabet sizes {shape}"
            )
        # Written so that NaN fails both checks.
        if not (arr >= 0.0).all():
            raise DistributionError("negative or NaN probability mass")
        total = float(arr.sum())
        if not abs(total - 1.0) <= INGEST_TOL:
            raise DistributionError(
                f"mass sums to {total!r}, expected 1 within {INGEST_TOL}"
            )
        arr /= total
        arr.flags.writeable = False
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "mass", arr)

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise DistributionError(f"unknown variable {name!r}")

    def axes(self, names: str | Iterable[str]) -> tuple[int, ...]:
        return tuple(self.axis(n) for n in _as_names(names))

    def alphabet(self, name: str) -> Alphabet:
        return self.variables[self.axis(name)][1]


@dataclass(frozen=True, eq=False)
class Channel:
    """Conditional PMF p(to | from_1, ..., from_k) as a stochastic array.

    ``rows`` has one axis per conditioning variable plus a final axis over the
    output alphabet; every row (slice along the last axis) is a PMF.
    """

    from_vars: tuple[VarSpec, ...]
    to_var: VarSpec
    rows: np.ndarray

    def __post_init__(self) -> None:
        from_vars = tuple((n, a) for n, a in self.from_vars)
        to_name, to_alph = self.to_var
        names = [n for n, _ in from_vars] + [to_name]
        if len(set(names)) != len(names):
            raise DistributionError(f"duplicate variable names in channel: {names}")
        arr = np.array(self.rows, dtype=float)
        shape = tuple(a.size for _, a in from_vars) + (to_alph.size,)
        if arr.shape != shape:
            raise DistributionError(
                f"channel rows shape {arr.shape} does not match {shape}"
            )
        if not (arr >= 0.0).all():
            raise DistributionError("negative or NaN channel entry")
        sums = arr.sum(axis=-1)
        if not (np.abs(sums - 1.0) <= INGEST_TOL).all():
            raise DistributionError("channel rows are not stochastic")
        arr = arr / sums[..., None]
        arr.flags.writeable = False
        object.__setattr__(self, "from_vars", from_vars)
        object.__setattr__(self, "to_var", (to_name, to_alph))
        object.__setattr__(self, "rows", arr)

    @property
    def from_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.from_vars)

    @classmethod
    def uniform(cls, from_vars: Sequence[VarSpec], to_var: VarSpec) -> "Channel":
        """Channel whose output ignores the input (every row uniform)."""
        from_vars = tuple(from_vars)
        to_name, to_alph = to_var
        shape = tuple(a.size for _, a in from_vars) + (to_alph.size,)
        return cls(from_vars, to_var, np.full(shape, 1.0 / to_alph.size))

    @classmethod
    def copy_of(cls, var: VarSpec, to_name: str) -> "Channel":
        """Identity channel: the output is an exact copy of the input."""
        name, alph = var
        to_alph = Alphabet(to_name, alph.symbols)
        return cls((var,), (to_name, to_alph), np.eye(alph.size))

    def lift(self, new_from_vars: Sequence[VarSpec]) -> "Channel":
        """Recondition on a superset of variables, ignoring the extra ones."""
        new_from_vars = tuple(new_from_vars)
        full = tuple(a.size for _, a in new_from_vars) + (self.to_var[1].size,)
        lifted = np.broadcast_to(_aligned_rows(self, new_from_vars), full).copy()
        return Channel(new_from_vars, self.to_var, lifted)


def _aligned_rows(channel: Channel, target: tuple[VarSpec, ...]) -> np.ndarray:
    """The channel's rows with one axis per target variable, then the output axis.

    Every conditioning variable must be in ``target`` with the same
    alphabet. Its axis moves to that variable's place in ``target``; every
    other target variable gets a size-1 axis, so the result broadcasts
    against an array over ``target``.
    """
    names = [n for n, _ in target]
    from_names = channel.from_names
    for name, alph in channel.from_vars:
        if name not in names:
            raise DistributionError(f"conditioning variable {name!r} is not among {names}")
        if target[names.index(name)][1].symbols != alph.symbols:
            raise DistributionError(f"alphabet mismatch on conditioning variable {name!r}")
    order = sorted(range(len(from_names)), key=lambda i: names.index(from_names[i]))
    rows = np.transpose(channel.rows, (*order, len(from_names)))
    shape = tuple(a.size if n in from_names else 1 for n, a in target)
    return rows.reshape(shape + (channel.to_var[1].size,))


def require_variables(joint: JointPMF, names: Iterable[str]) -> None:
    """Raise unless the joint is over exactly the given variable set."""
    names = set(names)
    if set(joint.var_names) != names:
        raise DistributionError(
            f"joint over {joint.var_names} where variables {sorted(names)} are required"
        )


def build_joint(base: JointPMF, attach: Channel) -> JointPMF:
    """Extend ``base`` with the channel's output variable.

    The new variable is conditionally independent of every non-conditioning
    variable given the channel inputs, by construction:
    p(base, u) = p(base) * p(u | conditioning projection of base).
    """
    new_name = attach.to_var[0]
    if new_name in base.var_names:
        raise DistributionError(f"variable {new_name!r} already present in joint")
    mass = base.mass[..., None] * _aligned_rows(attach, base.variables)
    return JointPMF((*base.variables, attach.to_var), mass)


def marginalize(joint: JointPMF, keep_vars: str | Iterable[str]) -> JointPMF:
    """Marginal joint over ``keep_vars``, preserving the original axis order."""
    keep = set(_as_names(keep_vars))
    if not keep:
        raise DistributionError("must keep at least one variable")
    for name in keep:
        joint.axis(name)  # raises on unknown names
    kept = tuple(v for v in joint.variables if v[0] in keep)
    return JointPMF(kept, _marginal_array(joint, keep))


def rename_variable(joint: JointPMF, old: str, new: str) -> JointPMF:
    """Same distribution with one variable renamed."""
    joint.axis(old)
    if new in joint.var_names and new != old:
        raise DistributionError(f"variable {new!r} already present")
    variables = tuple((new if n == old else n, a) for n, a in joint.variables)
    return JointPMF(variables, joint.mass)


def _marginal_array(joint: JointPMF, keep: set[str]) -> np.ndarray:
    drop = tuple(i for i, (n, _) in enumerate(joint.variables) if n not in keep)
    return joint.mass.sum(axis=drop) if drop else joint.mass


def _check_disjoint(joint: JointPMF, *groups: tuple[str, ...]) -> None:
    seen: set[str] = set()
    for group in groups:
        for name in group:
            joint.axis(name)
            if name in seen:
                raise DistributionError(f"variable {name!r} appears in two roles")
            seen.add(name)


def entropy_of(
    joint: JointPMF,
    target_vars: str | Iterable[str],
    given_vars: str | Iterable[str] = (),
) -> float:
    """Conditional Shannon entropy H(target | given) in bits.

    Terms with zero joint mass contribute nothing; only cells with positive
    mass enter the sum, so 0*log(0) never arises.
    """
    target = _as_names(target_vars)
    given = _as_names(given_vars)
    if not target:
        raise DistributionError("target variable set is empty")
    _check_disjoint(joint, target, given)
    keep = set(target) | set(given)
    kept_names = [n for n in joint.var_names if n in keep]
    ptg = _marginal_array(joint, keep)
    t_axes = tuple(i for i, n in enumerate(kept_names) if n in set(target))
    pg = ptg.sum(axis=t_axes, keepdims=True)
    pg = np.broadcast_to(pg, ptg.shape)
    mask = ptg > 0.0
    vals = ptg[mask] * (np.log2(pg[mask]) - np.log2(ptg[mask]))
    return float(vals.sum())


def mutual_information_of(
    joint: JointPMF,
    x_vars: str | Iterable[str],
    y_vars: str | Iterable[str],
    given_vars: str | Iterable[str] = (),
) -> float:
    """Conditional mutual information I(X;Y|Z) = H(X|Z) - H(X|Y,Z), in bits."""
    x = _as_names(x_vars)
    y = _as_names(y_vars)
    g = _as_names(given_vars)
    # The second entropy checks every name and that x, y and g share none.
    value = entropy_of(joint, x, g) - entropy_of(joint, x, tuple(y) + tuple(g))
    if -_CLAMP_TOL < value < 0.0:
        return 0.0
    return value
