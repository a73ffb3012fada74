"""Golden stdout for CLI commands whose output is fixed by exact arithmetic.

``data/cli_golden.json`` holds four input distributions and, for each
command, the exit code and stdout an earlier version of the CLI printed. An
argument ``@name`` stands for the input file ``name``. The commands are the
ones whose printed digits do not hinge on near-tie comparisons: information
measures, presets, degradation LPs, the exact-posterior simulators, the
S_E-closed value, I(A;B|E) at U = copy of E, on the erasure and Dirichlet
joints, and the binary-source commands the concave envelope solves without
a seed: ``none``, the less-noisy checks and a coded sweep. Their entries
were recorded from the envelope solver; their printed channels are the
uniform channel or the copy of A, which the witness reproduces exactly.
``sb`` and ``both`` on the erasure joint (p_b = 0.1) are certified by the
grid LP's witness without a search; each is recorded at two --starts/--seed
pairs with the same stdout, and its printout survived a 1e-15 relative
perturbation of every input cell. Solves whose best channel is picked among
values equal up to the last bits are left out, because a change that only
moves rounding can reprint them: ``sb`` and ``both`` where the search runs,
and ``se`` on the degraded joint, where other channels tie with copy of E.
Three simulator cases pin the edges of the per-trial seeding, recorded while
each trial still built its own ``default_rng((seed, 1, t))``: ``binning`` at
seed 2^32 (two 32-bit seed words) on the Dirichlet joint, ``binning`` at seed
2^70 + 1 (three words, so the trial index enters after the pool is full) and
rate 0 on the erasure joint (cells without mass, one bin holding every
sequence), and ``erasure-scheme`` at seed 2^32 + 3. The coded sweep at
``--v-grid 6`` and seed 2^32, whose quantizer streams (seed, 2, i) carry
two seed words, was recorded while each quantizer still came from
``default_rng((seed, 2, i)).dirichlet``.
"""

import json
from pathlib import Path

import pytest

from secomp.cli import build_parser, main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def _run_case(case, capsys, inputs: Path) -> None:
    argv = [str(inputs / a[1:]) if a.startswith("@") else a for a in case["argv"]]
    code = main(argv)
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


@pytest.fixture
def inputs_dir(tmp_path):
    for name, data in GOLDEN["inputs"].items():
        (tmp_path / name).write_text(json.dumps(data))
    return tmp_path


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"])
)
def test_stdout_matches_golden(case, capsys, inputs_dir):
    _run_case(case, capsys, inputs_dir)


def test_one_parser_serves_every_call(capsys, inputs_dir):
    # main() reuses one parser for the life of the process: a rejected flag
    # must leave nothing behind, and commands in any order print the same.
    with pytest.raises(SystemExit) as exc:
        main(["order", "-i", str(inputs_dir / "erasure.json"), "--check", "sideways"])
    assert exc.value.code == 1
    capsys.readouterr()
    mix = GOLDEN["cases"][::2]
    for case in mix + mix[::-1]:
        _run_case(case, capsys, inputs_dir)
    assert build_parser() is build_parser()
