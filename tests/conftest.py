import math
from collections import defaultdict

import numpy as np

from secomp import ascent
from secomp.probability import Alphabet, Channel, JointPMF, build_joint


def dirichlet_joint(rng, sizes, names=("A", "B", "E")):
    """Random dense joint with Dirichlet(1) cell masses."""
    mass = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    variables = tuple(
        (name, Alphabet(name, tuple(f"{name.lower()}{i}" for i in range(size))))
        for name, size in zip(names, sizes)
    )
    return JointPMF(variables, mass)


def permute_symbols(joint, perms):
    """The same distribution with each variable's symbols listed in another order.

    perms maps a variable name to a permutation of its symbol indices: index
    i of the result holds symbol perms[name][i] and its mass. Variables not
    named keep their order.
    """
    mass, variables = joint.mass, []
    for axis, (name, alphabet) in enumerate(joint.variables):
        perm = list(perms.get(name, range(alphabet.size)))
        mass = np.take(mass, perm, axis=axis)
        variables.append((name, Alphabet(name, tuple(alphabet.symbols[i] for i in perm))))
    return JointPMF(tuple(variables), mass)


def markov_chain_joint(rng, n_a=2, n_b=3, n_e=3):
    """Random joint where the weaker observation factors through the stronger."""
    p_a = rng.dirichlet(np.ones(n_a))
    alph_a = Alphabet("A", tuple(f"a{i}" for i in range(n_a)))
    base = JointPMF((("A", alph_a),), p_a)
    to_b = Channel(
        (("A", alph_a),),
        ("B", Alphabet("B", tuple(f"b{i}" for i in range(n_b)))),
        rng.dirichlet(np.ones(n_b), size=n_a),
    )
    with_b = build_joint(base, to_b)
    to_e = Channel(
        (("B", with_b.alphabet("B")),),
        ("E", Alphabet("E", tuple(f"e{i}" for i in range(n_e)))),
        rng.dirichlet(np.ones(n_e), size=n_b),
    )
    return build_joint(with_b, to_e)


def grid_witness(joint, objective, cond, result):
    """The grid witness of the first stage; ``result`` must have scored it first."""
    witness, _, bound = ascent._search_free_witness(objective)
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
