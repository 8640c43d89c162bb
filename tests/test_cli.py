import csv
import hashlib
import json
from dataclasses import replace
from importlib import resources

import jsonschema
import numpy as np
import pytest
from conftest import run_cli, run_cli_subprocess

from kgpair.bilinear import SpectralField
from kgpair.cli import _HANDLERS
from kgpair.cutoffs import CutoffFamily
from kgpair.reporting import curve_csv, load_schema
from kgpair.resonance import ResonanceReport, scan_all

GOLDEN_OUTCOMES = [0.3535533906, 0.3603654667]
GOLDEN_SOURCES = [0.01314860997, 0.1767766953, 0.3472168567]


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
        (["constants", "-A", "nan", "-n", "1"], "A must be finite and positive"),
        (["constants", "-A", "inf", "-n", "1"], "A must be finite and positive"),
        (["constants", "-A", "0", "-n", "1"], "A must be finite and positive"),
        (["cutoff-export", "--c", "5", "--cutoff", "chi-t", "--line", "nan,0,0,0,0,0:1,1,1,1,1,1"],
         "segment coordinates must be finite"),
        (["sweep", "--from", "2", "--to", "inf", "--steps", "3"], "need finite 0 < c_min <= c_max"),
        # each size of work is bounded, and checked before the work starts
        (["resonances", "--c", "1e-300"], "1/c must be finite and positive and at most 1e+16"),
        (["resonances", "--c", "1e308"], "c must be finite and positive and at most 1e+16"),
        (["cutoff-export", "--c", "5", "--cutoff", "chi-t", "--line", "0,0,0,0,0,0:1,1,1,1,1,1",
          "--points", "3000000000"], "--points is limited to integers from 2 to 1000000"),
        (["operator-probe", "--trials", "1001"], "--trials is limited to integers from 1 to 1000"),
        (["sweep", "--from", "2", "--to", "10", "--steps", "10001"],
         "steps is limited to integers from 1 to 10000"),
        (["sweep", "--from", "2", "--to", "1e300", "--steps", "3"], "got 1e+300"),
        # cut-off coordinates square without overflow only below about 1e154
        (["cutoff-export", "--c", "5", "--cutoff", "chi-s", "--line",
          "1e300,0,0,0,0,0:0,0,0,1e300,0,0"],
         "segment coordinates must be finite and at most 1e+100 in absolute value"),
        (["cutoff-export", "--c", "5", "--cutoff", "chi-t", "--rho", "1e300"],
         "lower --rho or --radius-max"),
        (["cutoff-export", "--c", "5", "--cutoff", "theta", "--radius-max", "1e308"],
         "--radius-max must be finite and positive and at most 1e+100"),
        (["operator-probe", "--seed", "-1"], "--seed must be a non-negative integer"),
    ],
)
def test_invalid_numbers_exit_one(tmp_path, args, name):
    # --points 3000000000 once allocated without bound, so it runs in a child
    # process whose timeout fails a regression instead of stalling the suite
    if "3000000000" in args:
        result = run_cli_subprocess(*args, "--output", str(tmp_path / "out"), timeout=30)
    else:
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


def _forge_component(doc):
    # move c11+-- off its resonance and rebuild every derived key to match,
    # so only the comparison of R with the solver's can reject the document
    full = scan_all(doc["c"])
    forged = ResonanceReport.from_components(
        full.c, (replace(comp, R=0.2) if comp.idx.serialize() == "c11+--" else comp
                 for comp in full.components),
        full.tau_sep, full.r_max, full.grid_step,
    )
    doc.update(forged.to_dict())


def _forge_order(doc):
    # the zeros stay where they are; only their multiplicity is overstated
    for comp in doc["components"]:
        comp.update(order=40, tangent=True)


def _omit_component(doc):
    # at c = 150 the tiny cc1+-- zero spoils the separation; dropping it and
    # rebuilding every derived key gives a report that claims separated: true
    full = scan_all(150.0)
    forged = ResonanceReport.from_components(
        full.c, (comp for comp in full.components if comp.idx.serialize() != "cc1+--"),
        full.tau_sep, full.r_max, full.grid_step,
    )
    assert not full.separated and forged.separated
    doc.clear()
    doc.update(forged.to_dict())


def _reorder_components(doc):
    doc["components"].reverse()


def _extra_component_key(doc):
    doc["components"][0]["note"] = "hand-edited"


def _huge_integer_radius(doc):
    doc["components"][0]["R"] = 10**400  # a JSON integer beyond the float range


def _huge_integer_tau_sep(doc):
    doc["tau_sep"] = 10**400


@pytest.mark.parametrize(
    "tamper, name",
    [(_tamper_grid_step, "grid_step"), (_tamper_outcome, "outcome_radii"),
     (_tamper_radius, "components[0].R:"), (_forge_component, "components[1].R:"),
     (_forge_order, "components[0].order:"), (_omit_component, "resonant_phases:"),
     (_reorder_components, "components[0].index:"), (_extra_component_key, "components[0].note:"),
     (_huge_integer_radius, "components[0].R:"), (_huge_integer_tau_sep, "tau_sep:")],
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
    # exit code 3 as a shell sees it, from a child process
    result = run_cli_subprocess("simulate", "--config", str(config), "--output", str(prefix))
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
    rows = list(csv.DictReader(prefix.with_suffix(".csv").read_text().splitlines()))
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
    rows = list(csv.DictReader(prefix2.with_suffix(".csv").read_text().splitlines()))
    vals = [float(r["value"]) for r in rows]
    assert max(vals) == 1.0 and min(vals) == 0.0


def test_cutoff_export_chi_t_golden(tmp_path):
    # sha256 of both outputs as written by the per-row CSV formatter
    prefix = tmp_path / "chit"
    result = run_cli(
        "cutoff-export", "--c", "5", "--cutoff", "chi-t", "--points", "100000",
        "--output", str(prefix),
    )
    assert result.returncode == 0, result.stderr
    digests = {suffix: hashlib.sha256(prefix.with_suffix(suffix).read_bytes()).hexdigest()
               for suffix in (".csv", ".json")}
    assert digests == {
        ".csv": "ca7fd6efb1462c94cbed7ccec2fa449cf89a9cc68751cb1d7170bc25316511f4",
        ".json": "e0c39bf50331806c7fad30c7477c88ec815669a0337d624180bdeb5d31b52344",
    }


def test_cutoff_export_line_matches_one_evaluation(tmp_path):
    # cutoff-export evaluates 4096 points at a time; the values must equal one
    # evaluation over all points
    line = "0.1,0,0,0.05,0.02,0:0.3,0.1,0,0.2,0,0.1"
    prefix = tmp_path / "line"
    result = run_cli(
        "cutoff-export", "--c", "11", "--cutoff", "chi-s", "--line", line,
        "--points", "10000", "--output", str(prefix),
    )
    assert result.returncode == 0, result.stderr
    family = CutoffFamily.build(scan_all(11.0))
    t = np.linspace(0.0, 1.0, 10_000)
    start = np.array([0.1, 0, 0, 0.05, 0.02, 0])
    stop = np.array([0.3, 0.1, 0, 0.2, 0, 0.1])
    pts = start[None, :] + t[:, None] * (stop - start)[None, :]
    values = family.evaluate("chi_s", pts[:, :3], pts[:, 3:], rho=0.1)
    assert prefix.with_suffix(".csv").read_text() == curve_csv({"t": t, "value": values})


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


def test_simulate_bundled_config(bundled_run):
    result, prefix = bundled_run
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
    config.write_text("c = 5.0\nwavelength = 3\nseed = 0\n", encoding="utf-8")
    result = run_cli("simulate", "--config", str(config), "--output", str(tmp_path / "x"))
    assert result.returncode == 1
    assert "unknown config keys: seed, wavelength" in result.stderr


def _simulate_error(tmp_path, text):
    config = tmp_path / "bad.cfg"
    config.write_text(text, encoding="utf-8")
    prefix = tmp_path / "bad"
    argv = ("simulate", "--config", str(config), "--output", str(prefix))
    # dt = 1e-300 once ran until killed: a child process with a timeout, as above
    if "dt = 1e-300" in text:
        result = run_cli_subprocess(*argv, timeout=30)
    else:
        result = run_cli(*argv)
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
        "n = 256.5",
        "detune_factor = abc",
        "detune_factor = inf",
        "box_length = inf",
        "box_length = -256",
        "dt = 1e-300",
        "n = 1099511627776",
    ],
)
def test_simulate_rejects_invalid_parameters(tmp_path, line):
    stderr = _simulate_error(tmp_path, f"c = 5.0\ndelta = 1.0\n{line}\n")
    assert line.split()[0] in stderr


def test_simulate_int_keys_accept_integral_numerals(tmp_path):
    outputs = []
    for n, every in (("128", "10"), ("128.0", "10.0")):
        config = tmp_path / f"n{n}.cfg"
        config.write_text(f"c = 5.0\ndelta = 1.0\nn = {n}\nt_final = 10.0\n"
                          f"sample_every = {every}\n", encoding="utf-8")
        prefix = tmp_path / f"n{n}"
        result = run_cli("simulate", "--config", str(config), "--output", str(prefix))
        assert result.returncode == 0, result.stderr
        outputs.append(prefix.with_suffix(".json").read_bytes())
    assert outputs[0] == outputs[1]


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


def test_simulate_reads_report_path_from_the_config_directory(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    assert run_cli("resonances", "--c", "5", "--output", str(sub / "report.json")).returncode == 0
    (sub / "run.cfg").write_text("report_path = report.json\ndelta = 1.0\nn = 128\n"
                                 "t_final = 10.0\n", encoding="utf-8")
    outputs = []
    for i, (cwd, config) in enumerate(((sub, "run.cfg"), (tmp_path, "sub/run.cfg"))):
        monkeypatch.chdir(cwd)
        prefix = tmp_path / f"exp{i}"
        result = run_cli("simulate", "--config", config, "--output", str(prefix))
        assert result.returncode == 0, result.stderr
        outputs.append(prefix.with_suffix(".json").read_bytes())
    assert outputs[0] == outputs[1]
    (sub / "run.cfg").write_text("report_path = missing.json\n", encoding="utf-8")
    result = run_cli("simulate", "--config", "sub/run.cfg", "--output", str(tmp_path / "bad"))
    assert result.returncode == 1
    assert result.stderr.startswith("kgpair: error: config key report_path: ")
    assert "sub/missing.json" in result.stderr


@pytest.mark.parametrize("line", ["c = 7.0", "r_max = 50.0", "grid_step = 1e-3", "tau_sep = 0.5"])
def test_simulate_rejects_report_path_with_a_scan_key(tmp_path, line):
    # the report fixes its own scan, so a scan key next to it would be ignored
    stderr = _simulate_error(tmp_path, f"report_path = report.json\n{line}\ndelta = 1.0\n")
    assert stderr == f"kgpair: error: config key report_path excludes {line.split()[0]}\n"


def test_archived_calibration_matches_fresh_run(bundled_run):
    result, prefix = bundled_run
    assert result.returncode == 0
    configs = resources.files("kgpair.configs")
    for suffix in (".json", ".csv"):
        archived = configs.joinpath(f"resonant_c5_calibration{suffix}").read_bytes()
        assert prefix.with_suffix(suffix).read_bytes() == archived, suffix
    archived = json.loads(configs.joinpath("resonant_c5_calibration.json").read_text("utf-8"))
    fresh = json.loads(prefix.with_suffix(".json").read_text())
    assert archived["growth_ratio"] == pytest.approx(fresh["growth_ratio"], rel=1e-6)
    # a regenerated archive may move only by rounding: the calibrated ratio is pinned
    assert archived["growth_ratio"] == pytest.approx(15088.439860238235, rel=1e-12)


def test_simulate_rejects_repeated_keys(tmp_path):
    stderr = _simulate_error(tmp_path, "c = 5.0\nn = 256\n# the same key again\nn = 512\n")
    assert "bad.cfg:4: duplicate config key n" in stderr


def test_deeply_nested_report_exits_one(tmp_path):
    # deeper than the JSON decoder's recursion limit
    report = tmp_path / "deep.json"
    report.write_text("[" * 100_000 + "]" * 100_000)
    prefix = tmp_path / "cut"
    result = run_cli("cutoff-export", "--report", str(report), "--cutoff", "chi-t",
                     "--output", str(prefix))
    assert result.returncode == 1
    assert result.stderr == f"kgpair: error: report {report} is nested too deeply to read\n"
    stderr = _simulate_error(tmp_path, f"report_path = {report}\n")
    assert stderr == (f"kgpair: error: config key report_path: report {report} "
                      "is nested too deeply to read\n")


@pytest.fixture
def subcommand_runs(tmp_path):
    """One run per subcommand: (arguments, exit code, suffixes of the files
    written under --output, where none means the output is stdout)."""
    config = tmp_path / "short.cfg"
    config.write_text("c = 5.0\ndelta = 1.0\nn = 128\nt_final = 10.0\n", encoding="utf-8")
    return {
        "resonances": (["resonances", "--c", "5", "--tau-sep", "0.01"], 2, ()),
        "sweep": (["sweep", "--from", "2", "--to", "10", "--steps", "9"], 0, ()),
        "constants": (["constants", "-A", "10", "-n", "1"], 0, ()),
        "cutoff-export": (["cutoff-export", "--c", "5", "--cutoff", "chi-t", "--points", "100000"],
                          0, (".csv", ".json")),
        "operator-probe": (["operator-probe", "--seed", "0"], 0, ()),
        "simulate": (["simulate", "--config", str(config)], 0, (".csv", ".json")),
    }


@pytest.mark.parametrize("command", _HANDLERS)
def test_in_process_runs_match_a_child_process(tmp_path, subcommand_runs, command):
    # run_cli calls main in this process, where module caches (_STEP_TABLES,
    # SymbolGrid._cache) outlive a call; two calls in a row and a fresh
    # process must give the same exit code, stdout, stderr and output bytes
    args, code, suffixes = subcommand_runs[command]
    outputs = []
    for i, run in enumerate((run_cli, run_cli, run_cli_subprocess)):
        prefix = tmp_path / f"run{i}"
        result = run(*args, *(("--output", str(prefix)) if suffixes else ()))
        assert result.returncode == code, result.stderr
        files = [prefix.with_suffix(suffix).read_bytes() for suffix in suffixes]
        outputs.append((result.stdout, result.stderr, files))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--seed", "0", "--c", "5"],
         "e3da0ed2d8ee4eacb2f6729f56f88a8ec2a5f6cb971708f5c00876958c336832"),
        (["--seed", "3", "--c", "3.3", "--trials", "16"],
         "e99a444c06f4207fbded891c1c303d972702d5197d0fd66f824ea7326433930d"),
    ],
)
def test_operator_probe_golden(tmp_path, args, digest):
    # sha256 of the output as written when every norm took its own transform
    # and each shell pair rebuilt the 64^3 field
    out = tmp_path / "probe.json"
    result = run_cli("operator-probe", *args, "--output", str(out))
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_operator_probe_transforms_the_shell_field_once(monkeypatch, tmp_path):
    calls = []
    original = SpectralField.from_physical.__func__

    def counted(cls, values, box_length):
        calls.append(np.shape(values))
        return original(cls, values, box_length)

    monkeypatch.setattr(SpectralField, "from_physical", classmethod(counted))
    result = run_cli("operator-probe", "--seed", "1", "--trials", "8",
                     "--output", str(tmp_path / "probe.json"))
    assert result.returncode == 0, result.stderr
    assert calls.count((64, 64, 64)) == 1


@pytest.mark.filterwarnings("error")
def test_cutoff_export_tiny_rho_warns_nothing(tmp_path):
    # rho = 1e-300 scales the bump's argument past 1e154, whose square overflows
    prefix = tmp_path / "tiny"
    result = run_cli(
        "cutoff-export", "--c", "5", "--cutoff", "chi-t", "--rho", "1e-300",
        "--line", "1,0,0,0,0,0:0,0,0,1,0,0", "--output", str(prefix),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    values = [float(row["value"]) for row in csv.DictReader(prefix.with_suffix(".csv").read_text().splitlines())]
    assert all(np.isfinite(values))
