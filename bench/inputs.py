"""Write one workload's distribution files and its batch of CLI commands.

    python3 bench/inputs.py --workload region --seed 0 --out DIR

writes the distribution files into DIR and the command batch into
DIR/manifest.json. This is also the set-up step that ``setup_s`` times:
a fresh interpreter imports secomp, writes the erasure-family files through
the CLI (``preset erasure``) and writes every other joint from numpy's
``default_rng`` seeded with (seed, stream, index). The program never sees
the benchmark seed except through these files and the ``--seed`` flags
written into the batch.

Commands that feed the known se-closed shortfall use inputs that do not
depend on the seed (the erasure joint at (0.1, 0.3) and two joints drawn
from the fixed stream 2008, all with ``--seed 0``), so every run counts the
same failures. The other region commands on the erasure joint are fixed too:
the time of a ``both`` solve swings by 2x with the optimizer seed, and that
swing would otherwise dominate ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from secomp import cli  # noqa: E402

WORKLOADS = ("region", "order", "simulate")

# Source of the seed-independent joints behind the known se-closed failures.
FIXED_STREAM = 2008


def _write_joint(path: Path, mass: np.ndarray, names=("A", "B", "E")) -> None:
    alphabets = {n: [f"{n.lower()}{i}" for i in range(k)] for n, k in zip(names, mass.shape)}
    records = []
    for idx in np.ndindex(*mass.shape):
        if mass[idx] > 0.0:
            rec = {n: alphabets[n][i] for n, i in zip(names, idx)}
            rec["p"] = float(mass[idx])
            records.append(rec)
    path.write_text(json.dumps({"alphabets": alphabets, "pmf": records}))


def _dirichlet(rng: np.random.Generator, sizes) -> np.ndarray:
    return rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)


def _degraded(rng: np.random.Generator, sizes) -> np.ndarray:
    """A - B - E built from a prior and two channels."""
    n_a, n_b, n_e = sizes
    pa = rng.dirichlet(np.ones(n_a))
    b_given_a = rng.dirichlet(np.ones(n_b), size=n_a)
    e_given_b = rng.dirichlet(np.ones(n_e), size=n_b)
    return pa[:, None, None] * b_given_a[:, :, None] * e_given_b[None, :, :]


def _preset(path: Path, p_b: float, p_e: float) -> None:
    argv = ["preset", "erasure", "--pb", repr(p_b), "--pe", repr(p_e), "-o", str(path)]
    if cli.main(argv) != 0:
        raise RuntimeError(f"secomp {' '.join(argv)} failed")


def _uncoded(path: Path, switches: str, seed: int, starts: int | None = None) -> dict:
    argv = ["region", "uncoded", "-i", str(path), "--switches", switches, "--seed", str(seed)]
    if starts is not None:
        argv += ["--starts", str(starts)]
    return {"kind": "uncoded", "argv": argv, "joint": str(path), "switches": switches}


def region(out: Path, seed: int) -> list[dict]:
    erasure = out / "erasure.json"
    _preset(erasure, 0.1, 0.3)
    # The seeded commands (two none solves, one coded sweep) stay light, so
    # they sit with the erasure none solve below the five fixed sb/se/both
    # solves and cmd_p50_s reads a fixed command on every seed.
    batch = [
        _uncoded(erasure, "none", 0),
        _uncoded(erasure, "sb", 0, starts=8),
        _uncoded(erasure, "se", 0, starts=8),
        _uncoded(erasure, "both", 0, starts=2),
    ]
    for k in range(2):
        path = out / f"fixed{k}.json"
        _write_joint(path, _dirichlet(np.random.default_rng((FIXED_STREAM, k)), (2, 3, 3)))
        batch.append(_uncoded(path, "se", 0, starts=4))
    for k in range(2):
        path = out / f"dirichlet{k}.json"
        _write_joint(path, _dirichlet(np.random.default_rng((seed, 1, k)), (2, 3, 3)))
        batch.append(_uncoded(path, "none", seed, starts=16))
    coded = out / "coded.json"
    _write_joint(coded, _dirichlet(np.random.default_rng((seed, 2)), (2, 3, 3)), ("A", "C", "E"))
    batch.append({
        "kind": "coded",
        "argv": ["region", "coded", "-i", str(coded), "--v-grid", "6", "--starts", "4",
                 "--seed", str(seed)],
        "joint": str(coded),
    })
    return batch


def order(out: Path, seed: int) -> list[dict]:
    # (path, built physically degraded, runs less-noisy searches). Searches
    # stay on |A| = 2: with |A| = 3 a search that finds no witness can take
    # 0.1 s or 1.7 s depending on the joint, and a few such tails would set
    # wall_s; the ternary joints get the degradation checks only. The search
    # time also follows the draw of random starts (30 ms on one --seed, 60 ms
    # on another, for every joint alike), so the searches keep --seed 0.
    joints = []
    for k, sizes in enumerate([(2, 3, 3)] * 4 + [(3, 4, 4)] * 3):
        path = out / f"dirichlet{k}.json"
        _write_joint(path, _dirichlet(np.random.default_rng((seed, 3, k)), sizes))
        joints.append((path, False, k == 0))
    for k, sizes in enumerate([(2, 3, 3), (2, 4, 3), (2, 3, 4), (3, 3, 4)]):
        path = out / f"degraded{k}.json"
        _write_joint(path, _degraded(np.random.default_rng((seed, 4, k)), sizes))
        joints.append((path, True, sizes[0] == 2))
    pairs = np.random.default_rng((seed, 5)).uniform(0.05, 0.95, size=(3, 2))
    for k, (p_b, p_e) in enumerate(pairs):
        path = out / f"erasure{k}.json"
        _preset(path, float(p_b), float(p_e))
        joints.append((path, False, k < 2))
    batch = []
    for path, built, searched in joints:
        checks = ["degraded-eb", "degraded-be"]
        if searched:
            checks += ["less-noisy-eb", "less-noisy-be"]
        for check in checks:
            argv = ["order", "-i", str(path), "--check", check]
            if check.startswith("less-noisy"):
                argv += ["--starts", "4", "--seed", "0"]
            batch.append({"kind": "order", "argv": argv, "joint": str(path),
                          "check": check, "built_degraded": built})
    return batch


def simulate(out: Path, seed: int) -> list[dict]:
    joint = out / "dirichlet.json"
    _write_joint(joint, _dirichlet(np.random.default_rng((seed, 6)), (2, 3, 3)))
    erasure = out / "erasure.json"
    _preset(erasure, 0.1, 0.3)

    def binning(path: Path, n: int, rate: float, trials: int) -> dict:
        argv = ["simulate", "binning", "-i", str(path), "--n", str(n), "--rate", repr(rate),
                "--trials", str(trials), "--seed", str(seed)]
        return {"kind": "binning", "argv": argv, "joint": str(path), "n": n, "rate": rate,
                "seed": seed}

    def gap(p_b: float, p_e: float, trials: int) -> dict:
        argv = ["simulate", "erasure-scheme", "--pb", repr(p_b), "--pe", repr(p_e),
                "--n", "12", "--trials", str(trials), "--seed", str(seed)]
        return {"kind": "gap", "argv": argv, "p_b": p_b, "p_e": p_e}

    # The batch is 4 commands well under and 4 well over the full-rate n = 18
    # run, so cmd_p50_s is that run's latency on every seed. A gap-scheme
    # trial enumerates 2^(erasures at Eve) blocks, so the seeded pair keeps
    # p_e <= 0.5 and few trials to stay in the fast half.
    p_b, p_e = np.random.default_rng((seed, 7)).uniform((0.05, 0.05), (0.95, 0.5))
    batch = [binning(joint, 16, 0.5, 150), binning(joint, 16, 0.75, 150),
             binning(erasure, 17, 0.65, 150), gap(float(p_b), float(p_e), 300)]
    batch += [binning(joint, 18, 1.0, 60)]
    # Blocklength 8 is small enough for the exact expectation oracle.
    batch += [binning(joint, 16, 0.25, 150), binning(joint, 8, 0.25, 2000),
              binning(joint, 8, 0.5, 2000), gap(0.25, 0.5, 2000)]
    return batch


def write(workload: str, seed: int, out: Path) -> None:
    """Write the workload's inputs and its command batch into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    batch = {"region": region, "order": order, "simulate": simulate}[workload](out, seed)
    (out / "manifest.json").write_text(json.dumps(batch, indent=1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
