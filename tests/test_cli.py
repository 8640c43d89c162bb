import csv
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from kgpair.reporting import load_schema

GOLDEN_OUTCOMES = [0.3535533906, 0.3603654667]
GOLDEN_SOURCES = [0.01314860997, 0.1767766953, 0.3472168567]


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "kgpair.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def bundled_config() -> Path:
    return Path(str(resources.files("kgpair.configs").joinpath("resonant_c5.cfg")))


def test_resonances_c5_golden(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("resonances", "--c", "5", "--output", str(out))
    assert result.returncode == 0, result.stderr
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("resonance-report"))
    assert doc["resonant_phases"] == ["c11+--", "cc1+--"]
    for got, want in zip(doc["outcome_radii"], GOLDEN_OUTCOMES):
        assert abs(got - want) < 1e-8
    for got, want in zip(doc["source_radii"], GOLDEN_SOURCES):
        assert abs(got - want) < 1e-8


def test_resonances_exit_codes():
    flipped = run_cli("resonances", "--c", "5", "--tau-sep", "0.01")
    assert flipped.returncode == 2
    degenerate = run_cli("resonances", "--c", "1")
    assert degenerate.returncode == 1
    assert "degenerate" in degenerate.stderr


def test_resonances_byte_identical():
    a = run_cli("resonances", "--c", "3.5")
    b = run_cli("resonances", "--c", "3.5")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith("\n")


def test_sweep_rows_match_single_scan(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "sweep", "--from", "4", "--to", "6", "--steps", "3",
        "--grid-step", "0.002", "--output", str(out),
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "c,separated,min_gap"
    assert lines[-1].startswith("# candidate_exceptional_speeds")
    rows = list(csv.DictReader(lines[:-1]))
    assert len(rows) == 3
    mid = rows[1]
    assert float(mid["c"]) == 5.0
    single = run_cli("resonances", "--c", "5", "--grid-step", "0.002")
    report = json.loads(single.stdout)
    assert abs(float(mid["min_gap"]) - report["min_gap"]) < 1e-12


def test_sweep_usage_errors():
    assert run_cli("sweep", "--from", "2", "--to", "10", "--steps", "0").returncode == 1
    assert run_cli("sweep", "--from", "0.5", "--to", "2", "--steps", "3").returncode == 1


def test_invalid_flags_exit_one():
    assert run_cli("resonances", "--speed", "5").returncode == 1
    assert run_cli("resonances").returncode == 1


@pytest.mark.parametrize(
    "args, name",
    [
        (["resonances", "--c", "5", "--tau-sep", "-1"], "tau_sep"),
        (["resonances", "--c", "5", "--tau-sep", "nan"], "tau_sep"),
        (["resonances", "--c", "5", "--r-max", "nan"], "r_max"),
        (["resonances", "--c", "5", "--grid-step", "0"], "grid_step"),
        (["sweep", "--from", "2", "--to", "3", "--steps", "2", "--r-max", "-5"], "r_max"),
        (["cutoff-export", "--c", "5", "--cutoff", "chi-t", "--points", "0"], "--points"),
        (["cutoff-export", "--c", "5", "--cutoff", "chi-t", "--rho", "nan"], "--rho"),
        (["cutoff-export", "--c", "5", "--cutoff", "theta", "--radius-max", "-1"], "--radius-max"),
        (["operator-probe", "--trials", "-3"], "--trials"),
    ],
)
def test_invalid_numbers_exit_one(tmp_path, args, name):
    result = run_cli(*args, "--output", str(tmp_path / "out"))
    assert result.returncode == 1
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr
    assert name in result.stderr


def _tamper_grid_step(doc):
    del doc["grid_step"]


def _tamper_outcome(doc):
    doc.update(outcome_radii=[3.0], separated=True, min_gap=2.5, delta0=0.25)


def _tamper_radius(doc):
    doc["components"][0]["R"] = -1


@pytest.mark.parametrize(
    "tamper, name",
    [(_tamper_grid_step, "grid_step"), (_tamper_outcome, "outcome_radii"), (_tamper_radius, "R = -1")],
)
def test_cutoff_export_rejects_tampered_report(tmp_path, tamper, name):
    report = tmp_path / "report.json"
    assert run_cli("resonances", "--c", "5", "--output", str(report)).returncode == 0
    doc = json.loads(report.read_text())
    tamper(doc)
    report.write_text(json.dumps(doc))
    prefix = tmp_path / "cut"
    result = run_cli("cutoff-export", "--report", str(report), "--cutoff", "chi-t",
                     "--output", str(prefix))
    assert result.returncode == 1
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr
    assert name in result.stderr
    assert not prefix.with_suffix(".csv").exists()


def test_simulate_blow_up_guard_exits_three(tmp_path):
    config = tmp_path / "hot.cfg"
    config.write_text(
        "c = 5.0\ndelta = 1.0\namplitude = 80.0\nn = 128\nt_final = 40.0\ndt = 0.5\n",
        encoding="utf-8",
    )
    prefix = tmp_path / "hot"
    result = run_cli("simulate", "--config", str(config), "--output", str(prefix))
    assert result.returncode == 3, result.stderr
    doc = json.loads(prefix.with_suffix(".json").read_text())
    assert doc["inconclusive"] is True
    assert "growth_ratio" not in doc
    assert len(doc["runs"]["resonant"]["band_energy"]) >= 1


def test_constants_feasible_and_infeasible(tmp_path):
    out = tmp_path / "budget.json"
    result = run_cli("constants", "-A", "10", "-n", "1", "--output", str(out))
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("constants-budget"))
    assert doc["feasible"] and len(doc["inequalities"]) == 12

    hard = run_cli("constants", "-A", "1e9", "-n", "1")
    assert hard.returncode == 2
    doc = json.loads(hard.stdout)
    jsonschema.validate(doc, load_schema("constants-budget"))
    assert doc["feasible"] is False and doc["binding"]


def test_cutoff_export_radial_and_line(tmp_path):
    prefix = tmp_path / "chio"
    # the outcome neighbourhood is only delta0 wide, so the grid must be dense
    result = run_cli(
        "cutoff-export", "--c", "5", "--cutoff", "chi-o",
        "--radius-max", "0.4", "--points", "4096", "--output", str(prefix),
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(prefix.with_suffix(".json").read_text())
    jsonschema.validate(doc, load_schema("cutoff-export"))
    rows = list(csv.DictReader(prefix.with_suffix(".csv").open()))
    assert len(rows) == 4096
    values = {float(r["radius"]): float(r["value"]) for r in rows}
    # 1 near the outcome sphere, 0 at the origin
    assert max(v for r, v in values.items() if abs(r - 0.3536) < 0.001) == 1.0
    assert values[0.0] == 0.0

    prefix2 = tmp_path / "chir"
    result = run_cli(
        "cutoff-export", "--c", "5", "--cutoff", "chi-r", "--index", "c11+--",
        "--rho", "0.5", "--points", "101", "--output", str(prefix2),
    )
    assert result.returncode == 0, result.stderr
    rows = list(csv.DictReader(prefix2.with_suffix(".csv").open()))
    vals = [float(r["value"]) for r in rows]
    assert max(vals) == 1.0 and min(vals) == 0.0


def test_operator_probe_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        result = run_cli("operator-probe", "--seed", "3", "--trials", "16", "--output", str(out))
        assert result.returncode == 0, result.stderr
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    jsonschema.validate(doc, load_schema("operator-probe"))
    for row in doc["holder"]["rows"]:
        assert row["max_normalized_ratio"] <= 1.0 + 1e-6


def test_simulate_bundled_config(tmp_path):
    prefix = tmp_path / "exp"
    result = run_cli("simulate", "--config", str(bundled_config()), "--output", str(prefix))
    assert result.returncode == 0, result.stderr
    doc = json.loads(prefix.with_suffix(".json").read_text())
    jsonschema.validate(doc, load_schema("experiment-record"))
    assert "growth_ratio" in doc
    assert doc["growth_ratio"] >= 5.0
    series = prefix.with_suffix(".csv").read_text().strip().split("\n")
    assert series[0] == "time,resonant_band_energy,detuned_band_energy"
    assert len(series) > 10


def test_simulate_zero_coefficients(tmp_path):
    config = tmp_path / "zero.cfg"
    config.write_text(
        "c = 5.0\nn = 128\nt_final = 10.0\ndt = 0.25\nsample_every = 10\n",
        encoding="utf-8",
    )
    prefix = tmp_path / "zero"
    result = run_cli("simulate", "--config", str(config), "--output", str(prefix))
    assert result.returncode == 0, result.stderr
    doc = json.loads(prefix.with_suffix(".json").read_text())
    assert abs(doc["growth_ratio"] - 1.0) < 1e-9


def test_simulate_missing_config():
    result = run_cli("simulate", "--config", "/nonexistent/path.cfg")
    assert result.returncode == 1
    assert "does not exist" in result.stderr


def test_simulate_rejects_unknown_keys(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("c = 5.0\nwavelength = 3\n", encoding="utf-8")
    result = run_cli("simulate", "--config", str(config), "--output", str(tmp_path / "x"))
    assert result.returncode == 1
    assert "unknown config keys" in result.stderr


def _simulate_error(tmp_path, text):
    config = tmp_path / "bad.cfg"
    config.write_text(text, encoding="utf-8")
    prefix = tmp_path / "bad"
    result = run_cli("simulate", "--config", str(config), "--output", str(prefix))
    assert result.returncode == 1
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr
    assert not prefix.with_suffix(".json").exists()
    return result.stderr


def test_simulate_rejects_outcome_band_above_nyquist(tmp_path):
    # c = 0.5 puts the outcome band near 3.7, above pi * 256 / box ~ 3.15
    stderr = _simulate_error(tmp_path, "c = 0.5\ndelta = 1\neps = 1\nn = 256\n")
    assert "top frequency" in stderr


@pytest.mark.parametrize(
    "line",
    [
        "sample_every = 0",
        "sample_every = 2.5",
        "dt = 0",
        "dt = nan",
        "t_final = -10",
        "t_final = inf",
        "bandwidth = 0",
        "amplitude = nan",
        "amplitude = inf",
        "probe_factor = nan",
        "probe_factor = inf",
        "band_halfwidth_factor = 0",
    ],
)
def test_simulate_rejects_invalid_parameters(tmp_path, line):
    stderr = _simulate_error(tmp_path, f"c = 5.0\ndelta = 1.0\n{line}\n")
    assert line.split()[0] in stderr


def test_simulate_accepts_report_path(tmp_path):
    report_path = tmp_path / "report.json"
    result = run_cli("resonances", "--c", "5", "--output", str(report_path))
    assert result.returncode == 0
    config = tmp_path / "from_report.cfg"
    config.write_text(
        f"report_path = {report_path}\ndelta = 1.0\nn = 128\nt_final = 10.0\ndt = 0.25\n",
        encoding="utf-8",
    )
    prefix = tmp_path / "exp"
    result = run_cli("simulate", "--config", str(config), "--output", str(prefix))
    assert result.returncode == 0, result.stderr


def test_archived_calibration_matches_fresh_run(tmp_path):
    archived = json.loads(
        resources.files("kgpair.configs")
        .joinpath("resonant_c5_calibration.json")
        .read_text("utf-8")
    )
    prefix = tmp_path / "fresh"
    result = run_cli("simulate", "--config", str(bundled_config()), "--output", str(prefix))
    assert result.returncode == 0
    fresh = json.loads(prefix.with_suffix(".json").read_text())
    assert archived["growth_ratio"] == pytest.approx(fresh["growth_ratio"], rel=1e-6)
    assert archived["parameters"] == fresh["parameters"]
