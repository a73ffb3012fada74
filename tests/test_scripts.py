"""Smoke runs of the experiment scripts at tiny sizes."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv, code=0):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc.value.code == code


def test_erasure_region_sweep(monkeypatch, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_script(monkeypatch, "erasure_region_sweep.py", "--steps", "2", "--starts", "2",
               "-o", str(out))
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert [float(row["p_b"]) for row in rows] == [0.0, 1.0]
    for row in rows:  # equivocation never exceeds H(A|E) = p_e = 0.5
        assert 0.0 <= float(row["optimizer_none"]) <= 0.5 + 1e-9
        assert 0.0 <= float(row["optimizer_sb"]) <= 0.5 + 1e-9
    assert f"wrote {out}" in capsys.readouterr().out


def test_erasure_region_sweep_rejects_no_steps(monkeypatch, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_script(monkeypatch, "erasure_region_sweep.py", "--steps", "0", "-o", str(out), code=2)
    assert "--steps must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_binning_rate_sweep(monkeypatch, tmp_path, capsys):
    out = tmp_path / "rates.csv"
    run_script(monkeypatch, "binning_rate_sweep.py", "--n", "4", "--trials", "5",
               "--rates", "0.5", "1.0", "-o", str(out))
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert [float(row["rate"]) for row in rows] == [0.5, 1.0]
    assert all(0.0 <= float(row["p_e_hat"]) <= 1.0 for row in rows)
    assert f"wrote {out}" in capsys.readouterr().out


@pytest.mark.parametrize("name,argv,message", [
    ("binning_rate_sweep.py", ("--trials", "0"), "trials must be >= 1"),
    ("binning_rate_sweep.py", ("--pe", "2"), "p_e"),
    ("erasure_region_sweep.py", ("--pe", "2", "--steps", "2"), "p_e"),
    ("erasure_region_sweep.py", ("--starts", "0", "--steps", "2"), "starts must be >= 1"),
], ids=["binning trials 0", "binning pe 2", "erasure pe 2", "erasure starts 0"])
def test_out_of_range_flag_is_a_usage_error(monkeypatch, tmp_path, capsys, name, argv, message):
    out = tmp_path / "out.csv"
    run_script(monkeypatch, name, *argv, "-o", str(out), code=2)
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()
