"""Golden stdout for CLI commands whose output is fixed by exact arithmetic.

``data/cli_golden.json`` holds three input distributions and, for each
command, the exit code and stdout an earlier version of the CLI printed. An
argument ``@name`` stands for the input file ``name``. The commands are the
ones whose printed digits do not hinge on near-tie comparisons: information
measures, presets, degradation LPs, the exact-posterior simulators, and the
S_E-closed solve on the erasure joint, which ends at U = copy of E. Solves
whose best start is picked among values equal up to the last bits (``both``,
or ``none`` with many tied starts) are left out, because a change that only
moves rounding can reprint them.
"""

import json
from pathlib import Path

import pytest

from secomp.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"])
)
def test_stdout_matches_golden(case, capsys, tmp_path):
    for name, data in GOLDEN["inputs"].items():
        (tmp_path / name).write_text(json.dumps(data))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in case["argv"]]
    code = main(argv)
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
