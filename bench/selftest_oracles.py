"""Check the benchmark's oracles against closed forms.

Run with ``python3 bench/selftest_oracles.py``; it prints one line per check
and exits 1 if any fails. It needs numpy and scipy but not secomp.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

import oracles


def erasure_joint(p_b: float, p_e: float) -> np.ndarray:
    """(A, B, E) with A a fair bit and independent erasures, "e" last."""
    p = np.zeros((2, 3, 3))
    for a in range(2):
        for b, wb in ((a, 1.0 - p_b), (2, p_b)):
            for e, we in ((a, 1.0 - p_e), (2, p_e)):
                p[a, b, e] += 0.5 * wb * we
    return p


def degraded_joint(rng: np.random.Generator) -> np.ndarray:
    """A - B - E built from a prior and two channels."""
    pa = rng.dirichlet(np.ones(2))
    b_given_a = rng.dirichlet(np.ones(3), size=2)
    e_given_b = rng.dirichlet(np.ones(3), size=3)
    return pa[:, None, None] * b_given_a[:, :, None] * e_given_b[None, :, :]


def binary_entropy(x: float) -> float:
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def main() -> int:
    failures = []

    def check(name: str, ok: bool, detail: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)

    grid = (0.0, 0.1, 0.25, 0.3, 0.5, 0.8, 1.0)
    for p_b, p_e in itertools.product(grid, grid):
        p = erasure_joint(p_b, p_e)
        cmi = oracles.mutual_information(p, (0,), (1,), (2,))
        check(f"I(A;B|E) erasure({p_b},{p_e})", abs(cmi - p_e * (1 - p_b)) < 1e-12,
              f"{cmi!r} vs {p_e * (1 - p_b)!r}")
        g, eps = oracles.binary_envelope(p)
        want = max(p_e - p_b, 0.0)
        check(f"envelope erasure({p_b},{p_e})", g - 1e-12 <= want <= g + eps + 1e-12,
              f"[{g!r}, {g + eps!r}] vs {want!r}")
        h = oracles.entropy(p, (0,), (2,))
        check(f"H(A|E) erasure({p_b},{p_e})", abs(h - p_e) < 1e-12, f"{h!r} vs {p_e!r}")

    rng = np.random.default_rng(2013)
    for i in range(4):
        # Bit through a binary symmetric channel: I(A;B) = 1 - h(eps).
        eps = rng.uniform(0.01, 0.49)
        p = np.zeros((2, 2, 1))
        p[:, :, 0] = 0.5 * np.array([[1 - eps, eps], [eps, 1 - eps]])
        mi = oracles.mutual_information(p, (0,), (1,))
        check(f"I(A;B) BSC({eps:.3f})", abs(mi - (1 - binary_entropy(eps))) < 1e-12, f"{mi!r}")

        d = degraded_joint(rng)
        gap = oracles.markov_gap(d, 1, 2)
        check(f"Markov gap of a built chain #{i}", abs(gap) < 1e-12, f"{gap!r}")
        t, residual = oracles.degradation_distance(d, 1, 2)
        check(f"LP finds the building channel #{i}", t < 1e-9 and residual < 1e-9,
              f"t={t:.3e} residual={residual:.3e}")
        # A prior-independent objective: the envelope is then the objective itself.
        c = rng.dirichlet(np.ones(3))
        flat = 0.5 * np.stack([c, c])[:, :, None] * np.ones((1, 1, 1))
        g, eps_ = oracles.binary_envelope(flat)
        check(f"envelope of a useless channel #{i}", abs(g) <= 1e-12 and eps_ <= 1e-10,
              f"g={g!r} eps={eps_!r}")

    # Erasure degradation: E is degraded wrt B exactly when p_e >= p_b.
    for p_b, p_e in ((0.1, 0.3), (0.3, 0.1), (0.25, 0.25)):
        t, _ = oracles.degradation_distance(erasure_joint(p_b, p_e), 1, 2)
        check(f"erasure({p_b},{p_e}) degradation", (t < 1e-9) == (p_e >= p_b), f"t={t:.3e}")

    # Binning: with every sequence in one bin the equivocation is H(A|E);
    # with one sequence per bin it is 0.
    p = erasure_joint(0.1, 0.3)
    p_ae = p.sum(axis=1)
    n = 6
    one_bin = oracles.binning_equivocation(p_ae, n, np.zeros(2**n, dtype=np.int64), 1)
    check("binning, one bin", abs(one_bin - 0.3) < 1e-12, f"{one_bin!r}")
    identity = oracles.binning_equivocation(p_ae, n, np.arange(2**n), 2**n)
    check("binning, identity bins", abs(identity) < 1e-12, f"{identity!r}")
    # Two bins by the first bit: that bit is revealed, the rest keep H(A|E).
    by_first = np.arange(2**n) >> (n - 1)
    first = oracles.binning_equivocation(p_ae, n, by_first, 2)
    check("binning, first bit revealed", abs(first - 0.3 * (n - 1) / n) < 1e-12, f"{first!r}")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
