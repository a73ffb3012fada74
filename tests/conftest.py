import math
from collections import defaultdict

import numpy as np

from secomp import ascent
from secomp.ascent import u_cardinality
from secomp.probability import Alphabet, Channel, JointPMF


def dirichlet_joint(rng, sizes, names=("A", "B", "E")):
    """Random dense joint with Dirichlet(1) cell masses."""
    mass = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    variables = tuple(
        (name, Alphabet(name, tuple(f"{name.lower()}{i}" for i in range(size))))
        for name, size in zip(names, sizes)
    )
    return JointPMF(variables, mass)


def grid_witness(joint, objective, cond, result):
    """The grid witness of the first stage; ``result`` must have scored it first."""
    n_symbols = u_cardinality(tuple((v, joint.alphabet(v)) for v in cond))
    live, rho = ascent._balanced_rows(objective)
    witness, _, bound = ascent._search_free_witness(objective, live, rho, n_symbols)
    assert bound is None and witness is not None
    assert objective(witness[None])[0] == result.objective_trace[0]
    return witness


def random_channel(rng, joint, cond_vars, to_name, n_symbols):
    specs = tuple((v, joint.alphabet(v)) for v in cond_vars)
    shape = tuple(a.size for _, a in specs)
    rows = rng.dirichlet(np.ones(n_symbols), size=shape)
    alphabet = Alphabet(to_name, tuple(f"{to_name.lower()}{i}" for i in range(n_symbols)))
    return Channel(specs, (to_name, alphabet), rows)


def cells_of(joint):
    """Joint as a dict from symbol tuples to probabilities (test oracle form)."""
    cells = {}
    for idx in np.ndindex(*joint.mass.shape):
        p = float(joint.mass[idx])
        if p > 0.0:
            symbols = tuple(a.symbols[i] for (_, a), i in zip(joint.variables, idx))
            cells[symbols] = p
    return cells


def entropy_brute(cells, target_axes, given_axes=()):
    """H(target | given) by direct summation over a cell dictionary."""
    ptg = defaultdict(float)
    pg = defaultdict(float)
    for symbols, p in cells.items():
        t = tuple(symbols[i] for i in target_axes)
        g = tuple(symbols[i] for i in given_axes)
        ptg[(t, g)] += p
        pg[g] += p
    return sum(p * math.log2(pg[g] / p) for (_, g), p in ptg.items() if p > 0.0)


def mi_brute(cells, x_axes, y_axes, given_axes=()):
    return entropy_brute(cells, x_axes, given_axes) - entropy_brute(
        cells, x_axes, tuple(y_axes) + tuple(given_axes)
    )
