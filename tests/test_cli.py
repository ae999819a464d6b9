"""Command-line interface: exit codes, output contracts, global flags."""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

import potgraph.cli as cli_mod
from potgraph.cli import run_cli
from potgraph.graphs import Graph, contains_subgraph, degree_sequence_of, pattern_k6_c5
from potgraph.sequences import parse_sequence
from potgraph.survey import parse_survey_csv


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors(capsys):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["frobnicate"])[0] == 1
    assert run(capsys, ["graphic"])[0] == 1
    assert run(capsys, ["survey"])[0] == 1  # --n is required
    code, _, err = run(capsys, ["oracle", "5,3^5", "--strategy", "bogus"])
    assert code == 1
    assert "error:" in err


def test_graphic_command(capsys):
    code, out, _ = run(capsys, ["graphic", "5^3,3^3"])
    assert code == 0
    assert out.strip() == "sequence=5^3,3^3 eg=true kw=true agree=true"
    code, out, _ = run(capsys, ["graphic", "3,3,1,1"])
    assert code == 0
    assert out.strip() == "sequence=3^2,1^2 eg=false kw=false agree=true"


def test_graphic_disagreement_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "is_graphic_kw", lambda seq: True)
    code, out, _ = run(capsys, ["graphic", "3,3,1,1"])
    assert code == 3
    assert "agree=false" in out


def test_check_command(capsys):
    code, out, _ = run(capsys, ["check", "5^3,3^3"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is False
    assert data["failing_clause"] == "2"
    code, out, _ = run(capsys, ["check", "5,3^5"])
    assert code == 0
    assert json.loads(out)["verdict"] is True
    # clause (5)(i) has one reading, so there is no switch for another
    code, _, err = run(capsys, ["check", "5,3^5", "--alternative-5i"])
    assert code == 1
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_check_errors(capsys):
    code, _, err = run(capsys, ["check", "5,,3"])
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, ["check", "3,3,1,1"])  # not graphic, n < 6
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, ["check", "9" * 5000])  # past int()'s digit limit
    assert code == 2
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_oracle_writes_witness(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["oracle", "5,3^5"])
    assert code == 0
    data = json.loads(out)
    assert data["potentially"] is True
    assert data["witness_file"] == "witness_5,3^5.txt"
    witness = Graph.from_text((tmp_path / "witness_5,3^5.txt").read_text())
    assert degree_sequence_of(witness) == parse_sequence("5,3^5")
    assert contains_subgraph(witness, pattern_k6_c5())


def test_oracle_witness_options(capsys, tmp_path):
    target = tmp_path / "w.txt"
    code, out, _ = run(capsys, ["oracle", "5,3^5", "--witness", str(target)])
    assert code == 0
    assert target.exists()

    code, out, _ = run(capsys, ["oracle", "5,3^5", "--no-witness-file"])
    assert code == 0
    assert json.loads(out)["witness_file"] is None


def test_oracle_negative_has_no_witness(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["oracle", "5^3,3^3", "--strategy", "full-enumeration"])
    assert code == 0
    data = json.loads(out)
    assert data["potentially"] is False
    assert data["witness_file"] is None
    assert data["strategy"] == "full-enumeration"
    assert list(tmp_path.iterdir()) == []


def test_realize_command(capsys, tmp_path):
    code, out, _ = run(capsys, ["realize", "3,2,2,1"])
    assert code == 0
    realized = Graph.from_text(out)
    assert degree_sequence_of(realized) == parse_sequence("3,2,2,1")

    out_file = tmp_path / "g.txt"
    code, _, _ = run(capsys, ["realize", "5,3^5", "--contain", "--out", str(out_file)])
    assert code == 0
    witness = Graph.from_text(out_file.read_text())
    assert contains_subgraph(witness, pattern_k6_c5())

    code, _, err = run(capsys, ["realize", "5^3,3^3", "--contain"])
    assert code == 2
    assert "no realization" in err

    code, _, err = run(capsys, ["realize", "3,1"])
    assert code == 2


def test_survey_command(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        ["survey", "--n", "6", "--oracle", "--format", "csv", "--out", str(out_file)],
    )
    assert code == 0
    assert f"report written to {out_file}" in out
    meta, records = parse_survey_csv(out_file.read_text())
    assert meta["discrepancy_count"] == "0"
    assert len(records) == 71

    code, out, _ = run(capsys, ["survey", "--n", "6"])
    assert code == 0
    assert json.loads(out)["total_sequences"] == 71

    assert run(capsys, ["survey", "--n", "13"])[0] == 2


def test_survey_discrepancy_exit_code(capsys, catalog_dir):
    with (catalog_dir / "cond7_fixed.txt").open("a") as fh:
        fh.write("5,4^4,3\n")
    code, out, _ = run(
        capsys,
        ["--catalog", str(catalog_dir), "survey", "--n", "6", "--oracle"],
    )
    assert code == 3
    assert json.loads(out)["discrepancies"]


def test_sigma_command(capsys):
    code, out, _ = run(capsys, ["sigma", "--n", "6"])
    assert code == 0
    assert out.strip() == "26"
    for n in ("5", "10"):
        code, _, err = run(capsys, ["sigma", "--n", n])
        assert code == 2
        assert err.strip() == f"error: oracle surveys support 6 <= n <= 9, got n={n}"


def test_budget_flag(capsys):
    code, _, err = run(capsys, ["--budget", "2", "oracle", "5,3^5"])
    assert code == 4
    assert "budget" in err

    code, _, _ = run(capsys, ["--budget", "0", "oracle", "5,3^5"])
    assert code == 2
    # only the oracle reads the budget
    assert run(capsys, ["--budget", "0", "check", "5,3^5"])[0] == 0


def test_jobs_flag(capsys):
    assert run(capsys, ["survey", "--n", "6", "--oracle", "--jobs", "2"])[0] == 0
    assert run(capsys, ["survey", "--n", "6", "--jobs", "0"])[0] == 2


def test_catalog_flag_missing_directory(capsys, tmp_path):
    code, _, err = run(
        capsys, ["--catalog", str(tmp_path / "nowhere"), "check", "5,3^5"]
    )
    assert code == 2
    assert "error:" in err


def test_console_script_installed():
    exe = shutil.which("potgraph")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "check", "5,3^5"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True
