import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import dirichlet_joint
from secomp import cli, orderings
from secomp.binning import run_erasure_encoder_scheme, run_sw_binning
from secomp.cli import distribution_to_dict, load_distribution, main
from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.probability import entropy_of, mutual_information_of, rename_variable


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_preset(capsys, tmp_path, pb, pe, name="dist.json"):
    path = tmp_path / name
    code, out, err = run_cli(
        capsys, "preset", "erasure", "--pb", str(pb), "--pe", str(pe), "-o", str(path)
    )
    assert code == 0, err
    return path


def write_coded_preset(capsys, tmp_path, pb, pe):
    """The erasure preset with B renamed C, the helper-coded (A, C, E) layout."""
    path = write_preset(capsys, tmp_path, pb, pe)
    data = json.loads(path.read_text())
    data["alphabets"] = {"A": data["alphabets"]["A"], "C": data["alphabets"]["B"],
                         "E": data["alphabets"]["E"]}
    for rec in data["pmf"]:
        rec["C"] = rec.pop("B")
    path.write_text(json.dumps(data))
    return path


class TestPreset:
    def test_writes_valid_distribution(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.25, 0.5)
        data = json.loads(path.read_text())
        assert list(data["alphabets"]) == ["A", "B", "E"]
        assert data["alphabets"]["B"] == ["0", "1", "e"]
        total = sum(rec["p"] for rec in data["pmf"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_stdout_when_no_output_flag(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "erasure", "--pb", "0.1", "--pe", "0.3")
        assert code == 0
        assert json.loads(out)["alphabets"]["A"] == ["0", "1"]

    def test_rejects_out_of_range_probability(self, capsys):
        code, _, err = run_cli(capsys, "preset", "erasure", "--pb", "1.5", "--pe", "0.3")
        assert code == 1
        assert "p_b" in err

    @pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
    def test_unwritable_output_is_exit_one(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run_cli(
            capsys, "preset", "erasure", "--pb", "0.1", "--pe", "0.3", "-o", str(path)
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}:") and "Traceback" not in err


class TestMeasures:
    def test_round_trip_matches_in_memory_values(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.25, 0.5)
        code, out, _ = run_cli(capsys, "measures", "-i", str(path))
        assert code == 0
        table = json.loads(out)
        joint = make_erasure_joint(ErasureParams(0.25, 0.5))
        assert table["entropies"]["A"] == pytest.approx(entropy_of(joint, "A"), abs=1e-12)
        assert table["conditional_entropies"]["A|B"] == pytest.approx(
            entropy_of(joint, "A", "B"), abs=1e-12
        )
        assert table["mutual_informations"]["A;B"] == pytest.approx(
            mutual_information_of(joint, "A", "B"), abs=1e-12
        )
        assert table["conditional_mutual_informations"]["A;B|E"] == pytest.approx(
            mutual_information_of(joint, "A", "B", "E"), abs=1e-12
        )

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.25, 0.5)
        _, first, _ = run_cli(capsys, "measures", "-i", str(path))
        _, second, _ = run_cli(capsys, "measures", "-i", str(path))
        assert first == second

    def test_two_variable_file_has_no_conditional_information_entries(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({
            "alphabets": {"X": ["0", "1"], "Y": ["0", "1"]},
            "pmf": [
                {"X": "0", "Y": "0", "p": 0.4}, {"X": "0", "Y": "1", "p": 0.1},
                {"X": "1", "Y": "0", "p": 0.1}, {"X": "1", "Y": "1", "p": 0.4},
            ],
        }))
        code, out, _ = run_cli(capsys, "measures", "-i", str(path))
        assert code == 0
        table = json.loads(out)
        assert table["conditional_mutual_informations"] == {}
        assert set(table["mutual_informations"]) == {"X;Y"}


class TestRegion:
    def test_uncoded_baseline(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        code, out, _ = run_cli(
            capsys, "region", "uncoded", "-i", str(path),
            "--switches", "none", "--starts", "6", "--seed", "1",
        )
        assert code == 0
        result = json.loads(out)
        assert set(result) == {"r_a_min", "delta_star", "best_u", "starts_agreeing"}
        assert result["r_a_min"] == pytest.approx(0.1, abs=1e-9)
        assert result["delta_star"] == pytest.approx(0.2, abs=1e-3)
        pmfs = [row["pmf"] for row in result["best_u"]["rows"]]
        for pmf in pmfs:
            assert sum(pmf) == pytest.approx(1.0, abs=1e-9)

    def test_seeded_optimizer_output_is_byte_identical(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        argv = ("region", "uncoded", "-i", str(path), "--switches", "none",
                "--starts", "5", "--seed", "9")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_uncoded_encoder_side_information(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.25, 0.5)
        code, out, _ = run_cli(
            capsys, "region", "uncoded", "-i", str(path),
            "--switches", "sb", "--starts", "6", "--seed", "1",
        )
        assert code == 0
        result = json.loads(out)
        assert result["delta_star"] >= 0.375 - 1e-2
        assert result["delta_star"] <= 0.5 + 1e-9
        assert result["best_u"]["conditioning"] == ["A", "B"]

    def test_coded_sweep_emits_csv(self, capsys, tmp_path):
        path = write_coded_preset(capsys, tmp_path, 0.1, 0.3)
        code, out, _ = run_cli(
            capsys, "region", "coded", "-i", str(path),
            "--v-grid", "4", "--starts", "4", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r_a,r_c,delta_star"
        assert len(lines) == 5
        # first sampled quantizer is the identity copy of C
        r_a, r_c, delta = map(float, lines[1].split(","))
        assert r_a == pytest.approx(0.1, abs=1e-9)
        assert delta == pytest.approx(0.2, abs=1e-3)
        # second is the constant quantizer
        r_a, r_c, delta = map(float, lines[2].split(","))
        assert (r_c, delta) == (0.0, 0.0)


class TestOrder:
    def test_degraded_verdict_with_certificate(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        code, out, _ = run_cli(capsys, "order", "-i", str(path), "--check", "degraded-eb")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["kind"] == "degraded"
        assert verdict["physically_degraded"] is False
        for row in verdict["certificate"]["rows"]:
            assert sum(row["pmf"]) == pytest.approx(1.0, abs=1e-9)

    def test_less_noisy_witness_direction(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.3, 0.1)
        code, out, _ = run_cli(
            capsys, "order", "-i", str(path), "--check", "less-noisy-eb",
            "--starts", "6", "--seed", "1",
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["kind"] == "less_noisy_falsified"
        assert verdict["gap"] >= 0.19
        code, out, _ = run_cli(
            capsys, "order", "-i", str(path), "--check", "less-noisy-be",
            "--starts", "6", "--seed", "1",
        )
        assert json.loads(out)["kind"] == "less_noisy_not_falsified"


DIAGNOSTICS = ["upper_bound", "rounds", "hit_max_rounds", "evaluations", "certified"]


class TestDiagnostics:
    def run_both_ways(self, capsys, *argv):
        _, plain, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--diagnostics")
        assert code == 0
        plain, extended = json.loads(plain), json.loads(out)
        assert list(extended) == list(plain) + DIAGNOSTICS
        assert {k: extended[k] for k in plain} == plain
        return extended

    def test_certified_solve(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        for switches in ("sb", "both"):
            out = self.run_both_ways(capsys, "region", "uncoded", "-i", str(path),
                                     "--switches", switches, "--starts", "2")
            assert out["delta_star"] == out["upper_bound"] == 0.3
            assert out["rounds"] == 0
            assert out["certified"] is True and out["hit_max_rounds"] is False
            assert out["evaluations"] > 969  # the grid LP's points and the channels scored

    def test_search(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.7, 0.5)
        out = self.run_both_ways(capsys, "region", "uncoded", "-i", str(path),
                                 "--switches", "sb", "--starts", "2")
        assert out["certified"] is False
        assert out["rounds"] >= 1 and out["hit_max_rounds"] is False
        assert 0.440645449 <= out["delta_star"] < out["upper_bound"] == 0.5
        code, both, _ = run_cli(capsys, "region", "uncoded", "-i", str(path),
                                "--switches", "both", "--starts", "2")
        assert code == 0
        assert json.loads(both)["delta_star"] >= out["delta_star"]

    # sb on the 2x3x3 joint has six cells with mass, so column generation
    # starts from the vertices with no grid stage; none on the 3x3x3 joint
    # has three, so the grid stage runs first.
    @pytest.mark.parametrize("seed,sizes,switches,floor", [
        ((2008, 1), (2, 3, 3), "sb", 0.8807), (7, (3, 3, 3), "none", -np.inf),
    ], ids=["sb-2x3x3", "none-3x3x3"])
    def test_search_on_dirichlet_joints(self, capsys, tmp_path, seed, sizes, switches, floor):
        path = tmp_path / "dirichlet.json"
        joint = dirichlet_joint(np.random.default_rng(seed), sizes)
        path.write_text(json.dumps(distribution_to_dict(joint)))
        out = self.run_both_ways(capsys, "region", "uncoded", "-i", str(path),
                                 "--switches", switches, "--starts", "2")
        assert out["certified"] is False
        assert out["rounds"] >= 1 and out["hit_max_rounds"] is False
        assert floor <= out["delta_star"] <= out["upper_bound"]

    def test_less_noisy_check(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.3, 0.1)
        out = self.run_both_ways(capsys, "order", "-i", str(path), "--check", "less-noisy-eb")
        assert out["gap"] <= out["upper_bound"]
        assert out["certified"] is True

    def test_degradation_check_rejects_it(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.3, 0.1)
        code, out, err = run_cli(capsys, "order", "-i", str(path), "--check", "degraded-eb",
                                 "--diagnostics")
        assert (code, out) == (1, "")
        assert "--diagnostics" in err


class TestRowShareBelowRounding:
    @pytest.mark.parametrize("switches", ["sb", "both"])
    def test_tiny_erasure_probability_solves(self, capsys, tmp_path, switches):
        path = write_preset(capsys, tmp_path, 1e-15, 0.3)
        code, out, err = run_cli(capsys, "region", "uncoded", "-i", str(path),
                                 "--switches", switches, "--starts", "2")
        assert code == 0, err
        assert json.loads(out)["delta_star"] == pytest.approx(0.3, abs=1e-12)


class TestSimulate:
    def test_binning_report_fields(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.5, 0.8)
        code, out, _ = run_cli(
            capsys, "simulate", "binning", "-i", str(path),
            "--n", "10", "--rate", "1.0", "--trials", "20", "--seed", "0",
        )
        assert code == 0
        report = json.loads(out)
        assert report == {
            "trials": 20, "p_e_hat": 0.0, "equiv_hat": 0.0,
            "equiv_stderr": 0.0, "seed": 0,
        }

    def test_erasure_scheme_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "erasure-scheme",
            "--pb", "0.25", "--pe", "0.5", "--n", "8", "--trials", "100", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)
        assert report["p_e_hat"] == 0.0
        assert 0.2 <= report["equiv_hat"] <= 0.55

    def test_python_m_secomp_prints_what_main_prints(self, capsys):
        argv = ["simulate", "erasure-scheme", "--pb", "0.25", "--pe", "0.5", "--n", "8",
                "--trials", "100", "--seed", "7", "--diagnostics"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "secomp", *argv], capture_output=True,
                              env={**os.environ, "PYTHONPATH": path}, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")

    def test_full_rate_binning_of_2_to_32_trials_prints_at_once(self, capsys, tmp_path):
        # A full-rate run is answered from its code. Drawing the trials
        # instead would allocate tens of GiB of per-trial records, so the
        # command runs in a child capped at 4 GiB of address space, with one
        # BLAS thread so that numpy's own reservations stay well under it.
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))\n"
                  "from secomp.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = ["simulate", "binning", "-i", str(path), "--n", "8", "--rate", "1.0",
                "--trials", str(2**32)]
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=env, timeout=60, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == {
            "trials": 2**32, "p_e_hat": 0.0, "equiv_hat": 0.0, "equiv_stderr": 0.0, "seed": 0,
        }

    def test_diagnostics_append_ties_and_wrong_decodes(self, capsys, tmp_path):
        # A Dirichlet joint decodes wrongly as well as on ties.
        joint = dirichlet_joint(np.random.default_rng(9), (2, 3, 3))
        path = tmp_path / "dirichlet.json"
        path.write_text(json.dumps(distribution_to_dict(joint)))
        commands = [
            (("binning", "-i", str(path), "--n", "10", "--rate", "0.3", "--trials", "120"),
             run_sw_binning(load_distribution(path), 10, 0.3, 120, 1)),
            (("erasure-scheme", "--pb", "0.1", "--pe", "0.3", "--n", "10", "--trials", "120"),
             run_erasure_encoder_scheme(ErasureParams(0.1, 0.3), 10, 120, 1)),
        ]
        for args, report in commands:
            argv = ("simulate", *args, "--seed", "1")
            code, plain, _ = run_cli(capsys, *argv)
            assert code == 0
            code, out, _ = run_cli(capsys, *argv, "--diagnostics")
            assert code == 0
            # The default report is the diagnostic one minus its last two fields.
            assert out.startswith(plain[: plain.rindex("\n}")])
            extra = {k: v for k, v in json.loads(out).items() if k not in json.loads(plain)}
            assert extra == {"ties": report.ties, "wrong_decodes": report.wrong_decodes}
        assert commands[0][1].ties > 0 and commands[0][1].wrong_decodes > 0


class TestExitCodes:
    def test_malformed_json_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "measures", "-i", str(path))
        assert code == 1
        assert "JSON" in err or "json" in err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["not utf-8", "nested too deep"])
    def test_undecodable_file_is_exit_one(self, capsys, tmp_path, content):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "measures", "-i", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_symbol_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "alphabets": {"A": ["0", "1"]},
            "pmf": [{"A": "2", "p": 1.0}],
        }))
        code, _, _ = run_cli(capsys, "measures", "-i", str(path))
        assert code == 1

    def test_unnormalized_mass_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps({
            "alphabets": {"A": ["0", "1"]},
            "pmf": [{"A": "0", "p": 0.9}, {"A": "1", "p": 0.4}],
        }))
        code, _, err = run_cli(capsys, "measures", "-i", str(path))
        assert code == 2
        assert "invariant" in err

    @pytest.mark.parametrize("bad", ["NaN", '"nan"', '"inf"'])
    @pytest.mark.parametrize("command,flags", [
        ("measures", ()),
        ("region uncoded", ("--starts", "2")),
        ("simulate binning", ("--n", "4", "--rate", "0.5", "--trials", "2")),
        ("order", ("--check", "degraded-eb")),
    ], ids=["measures", "region uncoded", "simulate binning", "order degraded-eb"])
    def test_non_finite_mass_is_exit_one(self, capsys, tmp_path, command, flags, bad):
        # Python's json module reads the bare NaN literal; the strings reach float().
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        data = json.loads(path.read_text())
        data["pmf"][0]["p"] = "BAD"
        path.write_text(json.dumps(data).replace('"BAD"', bad))
        code, out, err = run_cli(capsys, *command.split(), "-i", str(path), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "non-finite" in err

    @pytest.mark.parametrize("field,value", [("p", True), ("p", "0.5"), ("Z", "1")],
                             ids=["boolean p", "string p", "unknown key"])
    def test_malformed_record_is_exit_one(self, capsys, tmp_path, field, value):
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        data = json.loads(path.read_text())
        data["pmf"][0][field] = value
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "measures", "-i", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("data,message", [
        ([1, 2], "must be an object"),
        ({"pmf": []}, "must be an object"),
        ({"alphabets": {"A": ["0"]}}, "must be an object"),
        ({"alphabets": ["A"], "pmf": []}, "'alphabets' must map"),
        ({"alphabets": {}, "pmf": []}, "'alphabets' must map"),
        ({"alphabets": {"A": ["0", 1]}, "pmf": []}, "list of strings"),
        ({"alphabets": {"A": []}, "pmf": []}, "alphabet 'A' is empty"),
        ({"alphabets": {"A": ["0", "0"]}, "pmf": []}, "alphabet 'A' repeats a symbol"),
        ({"alphabets": {"A": ["0"]}, "pmf": {"A": "0", "p": 1.0}}, "'pmf' must be a list"),
        ({"alphabets": {"A": ["0"]}, "pmf": [{"A": "0"}]}, "needs a 'p' field"),
        ({"alphabets": {"A": ["0"]}, "pmf": ["A"]}, "needs a 'p' field"),
        ({"alphabets": {"A": ["0"], "B": ["0"]}, "pmf": [{"A": "0", "p": 1.0}]},
         "misses variable 'B'"),
    ], ids=["not an object", "no alphabets", "no pmf", "alphabets not an object",
            "no variables", "symbol not a string", "empty alphabet", "repeated symbol",
            "pmf not a list", "record without p", "record not an object",
            "record misses a variable"])
    def test_malformed_file_is_exit_one(self, capsys, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "measures", "-i", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_variable_named_p_is_exit_one(self, capsys, tmp_path):
        # 'p' keys each record's mass, so a variable of that name cannot be read back.
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"alphabets": {"p": ["0", "1"]}, "pmf": [{"p": 1.0}]}))
        code, out, err = run_cli(capsys, "measures", "-i", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "named 'p'" in err
        joint = rename_variable(make_erasure_joint(ErasureParams(0.1, 0.3)), "B", "p")
        with pytest.raises(ValueError, match="named 'p'"):
            distribution_to_dict(joint)

    @pytest.mark.parametrize("command,flags,run", [
        ("simulate binning", ("--n", "3", "--rate", "0.5", "--trials", str(2**32)),
         "run_sw_binning"),
        ("simulate erasure-scheme", ("--pb", "0.25", "--pe", "0.5", "--n", "3",
                                     "--trials", str(2**32)), "run_erasure_encoder_scheme"),
        ("region uncoded", ("--switches", "sb", "--starts", str(10**12)),
         "maximize_equivocation"),
    ], ids=["binning", "erasure-scheme", "region-uncoded"])
    def test_out_of_memory_run_is_exit_one(self, capsys, tmp_path, monkeypatch, command, flags,
                                           run):
        # 2^32 trials pass the range check, but their per-trial records need
        # tens of GiB, as do 10^12 pricing starts; the run is replaced by one
        # that fails as numpy would.
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 32.0 GiB")

        monkeypatch.setattr(cli, run, out_of_memory)
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        inputs = () if command == "simulate erasure-scheme" else ("-i", str(path))
        code, out, err = run_cli(capsys, *command.split(), *inputs, *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "memory" in err and "Traceback" not in err

    def test_simplex_lost_to_rounding_is_exit_two(self, capsys, tmp_path, monkeypatch):
        # The solve is replaced by one that fails as the simplex does when
        # rounding keeps it from an optimum.
        def lost_to_rounding(*args):
            raise ArithmeticError("simplex failed to terminate")

        monkeypatch.setattr(cli, "maximize_equivocation", lost_to_rounding)
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        code, out, err = run_cli(capsys, "region", "uncoded", "-i", str(path),
                                 "--switches", "both")
        assert code == 2
        assert out == ""
        assert err.startswith("invariant breach:") and "Traceback" not in err

    def test_failed_composition_recheck_is_exit_two(self, capsys, tmp_path, monkeypatch):
        # A feasible point whose rows, uniform q(e|b), do not compose to p(e|a).
        monkeypatch.setattr(orderings, "phase1_simplex",
                            lambda a_eq, b_eq: np.ones(a_eq.shape[1]))
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        code, out, err = run_cli(capsys, "order", "-i", str(path), "--check", "degraded-eb")
        assert code == 2
        assert out == ""
        assert err.startswith("invariant breach:") and "composition recheck" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("error,code", [(ArithmeticError, 2), (MemoryError, 1)],
                             ids=["invariant breach", "out of memory"])
    def test_failed_coded_corner_leaves_stdout_empty(self, capsys, tmp_path, monkeypatch,
                                                     error, code):
        # The second quantizer's corner fails after the first one is solved.
        solve = cli.coded_inner_bound_sample
        calls = []

        def fails_second(*args):
            calls.append(1)
            if len(calls) == 2:
                raise error("the second corner fails")
            return solve(*args)

        monkeypatch.setattr(cli, "coded_inner_bound_sample", fails_second)
        path = write_coded_preset(capsys, tmp_path, 0.1, 0.3)
        got, out, err = run_cli(capsys, "region", "coded", "-i", str(path), "--v-grid", "3")
        assert (got, len(calls)) == (code, 2)
        assert out == ""
        assert err and "Traceback" not in err

    def test_bad_flag_is_exit_one(self, capsys, tmp_path):
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        with pytest.raises(SystemExit) as exc:
            main(["order", "-i", str(path), "--check", "sideways"])
        assert exc.value.code == 1

    def test_huge_blocklength_is_exit_one(self, capsys, tmp_path):
        # |A| = 3: the blocklength is rejected before 3^(10^9) is formed.
        # |A| = 1 has one sequence at every n and is held to n <= 20, as
        # |A| = 2 is.
        for n_a, n, rate, message in ((3, "1000000000", "0.5", "enumeration limit"),
                                      (1, "21", "0", "blocklength 21 exceeds 20")):
            path = tmp_path / f"source{n_a}.json"
            joint = dirichlet_joint(np.random.default_rng(3), (n_a, 2, 2))
            path.write_text(json.dumps(distribution_to_dict(joint)))
            code, out, err = run_cli(capsys, "simulate", "binning", "-i", str(path),
                                     "--n", n, "--rate", rate, "--trials", "2")
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_missing_file_is_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "measures", "-i", "/nonexistent/d.json")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "binning", "--n", "0"),
            ("simulate", "binning", "--n", "25"),
            ("simulate", "binning", "--rate", "2"),
            ("simulate", "binning", "--rate", "nan"),
            ("simulate", "binning", "--trials", "0"),
            ("simulate", "binning", "--seed", "-1"),
            ("simulate", "erasure-scheme", "--n", "13"),
            ("simulate", "erasure-scheme", "--seed", "-3"),
            # Past 2^32 trial indices, rejected before any per-trial array
            # is allocated (5e9 trials would need 37 GiB).
            ("simulate", "binning", "--trials", "5000000000"),
            ("simulate", "erasure-scheme", "--trials", "5000000000"),
            ("region", "uncoded", "--starts", "0"),
            ("region", "uncoded", "--seed", "-1"),
            # The S_E-closed value is a closed form that reads neither flag.
            ("region", "uncoded", "--switches", "se", "--starts", "0"),
            ("region", "uncoded", "--switches", "se", "--seed", "-1"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_flag_is_exit_one(self, capsys, tmp_path, argv):
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        command, flags = argv[:2], argv[2:]
        defaults = {
            ("simulate", "binning"): {"-i": str(path), "--n": "8", "--rate": "0.5",
                                      "--trials": "5", "--seed": "0"},
            ("simulate", "erasure-scheme"): {"--pb": "0.25", "--pe": "0.5", "--n": "8",
                                             "--trials": "5", "--seed": "0"},
            ("region", "uncoded"): {"-i": str(path), "--starts": "2", "--seed": "0"},
        }[command]
        defaults.update(zip(flags[::2], flags[1::2]))
        full = [*command, *(item for pair in defaults.items() for item in pair)]
        code, out, err = run_cli(capsys, *full)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("v_grid", ["0", "-1"])
    def test_nonpositive_v_grid_is_exit_one(self, capsys, tmp_path, v_grid):
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        data = json.loads(path.read_text().replace('"B"', '"C"'))
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "region", "coded", "-i", str(path), "--v-grid", v_grid)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "v-grid" in err

    @pytest.mark.parametrize("check", ["degraded-eb", "degraded-be"])
    @pytest.mark.parametrize("flag,value", [("--starts", "0"), ("--seed", "-5")])
    def test_degradation_checks_validate_optimizer_flags(self, capsys, tmp_path, check, flag, value):
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        code, out, err = run_cli(capsys, "order", "-i", str(path), "--check", check, flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command,flags,side",
        [
            ("region uncoded", ("--starts", "2"), "C"),
            ("region coded", ("--v-grid", "2", "--starts", "2"), "B"),
            ("order", ("--check", "degraded-eb"), "C"),
            ("simulate binning", ("--n", "4", "--rate", "0.5", "--trials", "2"), "C"),
        ],
        ids=["region uncoded on ACE", "region coded on ABE", "order on ACE",
             "simulate binning on ACE"],
    )
    def test_file_over_wrong_variables_is_exit_one(self, capsys, tmp_path, command, flags, side):
        # region coded needs (A, C, E); the other commands need (A, B, E).
        path = write_preset(capsys, tmp_path, 0.1, 0.3)
        path.write_text(path.read_text().replace('"B"', f'"{side}"'))
        code, out, err = run_cli(capsys, *command.split(), "-i", str(path), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "required" in err


# The JSON path cli used before its one-pass writer, kept as the reference.
def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _jsonable(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def emitted(obj) -> str:
    buf = io.StringIO()
    cli._emit_json(obj, buf)
    return buf.getvalue()


# Quotes, backslashes, control characters, non-ASCII and a lone surrogate,
# each of which json escapes its own way.
_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\ud800\xe9\U0001f600'),
                          st.characters()), max_size=6)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS,
                    _FLOATS.map(np.float64), _TEXT)
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24,
)


class TestJsonWriter:
    """``_emit_json`` against ``json.dumps(indent=2)`` of the rounded tree, its former path."""

    @settings(max_examples=300, deadline=None)
    @given(obj=_TREES)
    @example(obj={"flags": [True, False, None, 1, 0], "empty": [{}, [], ()], "nested": [[[]]]})
    @example(obj={"": {"\u00e9\"\\\x01": [0.1 + 0.2, 1e-320, 1e22, -1.5e-7, np.float64(2 / 3)]}})
    def test_matches_json_dumps_of_rounded_tree(self, obj):
        assert emitted(obj) == json.dumps(_jsonable(obj), indent=2) + "\n"

    @pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0]])
    def test_signed_zeros_keep_their_signs(self, values):
        text = emitted(values)
        assert text == json.dumps(_jsonable(values), indent=2) + "\n"
        assert [math.copysign(1.0, v) for v in json.loads(text)] == [
            math.copysign(1.0, v) for v in values]

    def test_non_finite_values(self):
        values = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)]
        assert emitted(values) == json.dumps(_jsonable(values), indent=2) + "\n"
        assert emitted(values) == (
            "[\n  NaN,\n  Infinity,\n  -Infinity,\n  NaN,\n  -Infinity\n]\n")

    def test_value_on_a_twelve_digit_rounding_boundary(self):
        # The golden less-noisy gap whose 13th digit sits by a rounding boundary.
        obj = {"gap": 0.08268432147945001}
        assert emitted(obj) == json.dumps(_jsonable(obj), indent=2) + "\n"
        assert emitted(obj) == '{\n  "gap": 0.0826843214795\n}\n'

    @pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), object(), {1: 2.0}])
    def test_unencodable_value_writes_nothing(self, bad):
        buf = io.StringIO()
        with pytest.raises(TypeError):
            cli._emit_json({"a": 1.0, "b": bad}, buf)
        assert buf.getvalue() == ""


def test_no_command_imports_numpy_random(capsys, tmp_path):
    # Every seeded draw comes from secomp.streams, which builds no Generator:
    # each subcommand runs in turn in one child, which reports after each
    # whether numpy.random has been imported. The sb solve on the erasure
    # joint (0.7, 0.5) runs column generation and the coded sweep draws its
    # quantizers.
    coded = write_coded_preset(capsys, tmp_path, 0.1, 0.3)
    erasure = write_preset(capsys, tmp_path, 0.7, 0.5, name="erasure.json")
    commands = [
        ["preset", "erasure", "--pb", "0.7", "--pe", "0.5"],
        ["measures", "-i", str(erasure)],
        ["order", "-i", str(erasure), "--check", "degraded-eb"],
        ["order", "-i", str(erasure), "--check", "less-noisy-be", "--starts", "2"],
        ["region", "uncoded", "-i", str(erasure), "--switches", "none"],
        ["region", "uncoded", "-i", str(erasure), "--switches", "se"],
        ["region", "uncoded", "-i", str(erasure), "--switches", "sb", "--starts", "2",
         "--diagnostics"],
        ["region", "coded", "-i", str(coded), "--v-grid", "6"],
        ["simulate", "binning", "-i", str(erasure), "--n", "8", "--rate", "0.5",
         "--trials", "20"],
        ["simulate", "erasure-scheme", "--pb", "0.25", "--pe", "0.5", "--n", "8",
         "--trials", "20"],
    ]
    script = (
        "import contextlib, io, json, sys, numpy\n"
        "print(json.dumps('numpy.random' in sys.modules))\n"
        "from secomp.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    print(json.dumps([code, 'numpy.random' in sys.modules, out.getvalue()]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          check=True)
    with_numpy, *runs = map(json.loads, proc.stdout.splitlines())
    if with_numpy:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert [(argv, code, imported) for argv, (code, imported, _) in zip(commands, runs)] == [
        (argv, 0, False) for argv in commands]
    assert json.loads(runs[6][2])["rounds"] > 0
    assert len(runs[7][2].splitlines()) == 7
