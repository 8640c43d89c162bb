import csv
import hashlib
import inspect
import json
from dataclasses import fields, replace
from importlib import resources

import jsonschema
import numpy as np
import pytest
from conftest import run_cli, run_cli_subprocess

from kgpair import bilinear
from kgpair.bilinear import SpectralField
from kgpair.cli import _CONFIG_TYPES, _HANDLERS
from kgpair.cutoffs import CutoffFamily
from kgpair.reporting import curve_csv, load_schema, to_canonical_json
from kgpair.resonance import ResonanceReport, scan_all
from kgpair.simulator import NonlinearityCoefficients, run_resonant_amplification

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
    forged = ResonanceReport(
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
    forged = ResonanceReport(
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
        ".csv": "263c65122f0f16bb4b1faf05d6583451b20b5bccf4b881a22eb988f5180b5cc5",
        ".json": "d0b3a8466c335115dba0c3728bd274b689f96e0c2877331f197f89a496f2226c",
    }


@pytest.mark.parametrize(
    "args, csv_digest, json_digest",
    [
        (["--c", "0.5", "--cutoff", "chi-s", "--points", "100000"],
         "eb20944575ef23cd743eaa366372b7526ce3ebeeb141d0ded3d9cd3115ae9a59",
         "9ab41b430b551a955369c181b513ec9bdb3f4778229cdf409fb358bbf1e81cea"),
        (["--c", "0.5", "--cutoff", "chi-r", "--points", "100000"],
         "90c2d4e2931e99d27db716adb318cf1978aecb315986165380f64c9f19a42feb",
         "79bcd3776cf14999a2559bb468acf2e4492dbfa9ce0d78c2d9185350ff4d00f3"),
        (["--c", "11", "--cutoff", "chi-s", "--points", "100000"],
         "2e36fd6a64043dfaa38de763d4a4cc430700da82f84db54b50cc9613da05b526",
         "752e3eab434a02081193963efb9f658551d2cd367cf6908d929cb9498c8fe726"),
        (["--c", "11", "--cutoff", "chi-r", "--points", "100000"],
         "6cf2d1e63aa76607cdb62b2af06da98f18e9d328e6496834fa57f16fc7e9fc15",
         "402b84a8e98b30a0fd67c5c0485d14a04b663ac62db09197f18b37f11d02fd18"),
        # a segment away from the component, through the low branch, the
        # theta blend (|p| from M = 2 to 3) and the high branch: 3285 values
        # strictly between 0 and 1
        (["--c", "5", "--cutoff", "chi-t", "--points", "20001",
          "--line=-0.91,-0.65,-0.62,0.07,-0.1,0.91:2.27,1.48,0.86,1.73,2.19,-2.39"],
         "c5e2946ac08a3692b41dc13fd5f1358d4a60496c82eabd3aa3bdabf25b3f79b5",
         "70a93e49cd8f65af0b14ed3eca414d5ed3e31bd2d2f0eb40cb529c158eb63819"),
        # c < 1 swaps the tags (the family is 1cc+--): a segment through the
        # low branch, the theta blend (|p| from M = 6.44 to 7.44) and the high
        # branch around |xi - eta| = 3.49, with 8865 values strictly between 0
        # and 1
        (["--c", "0.3", "--cutoff", "chi-s", "--rho", "0.01", "--points", "20001",
          "--line=0.5,0.2,-0.3,0.1,0.4,0.2:7.5,3,3,4,3,3"],
         "b0422149aa126d5dc62c25c21a791ddb0721d27b5b178f4eea1022b95e0419ef",
         "e95db3c9ce310e07c8d9c3a491e06ca13a0a04c3a6fad2780d4f2405f03695cb"),
        # the radial grid, as written by the per-value %.17g formatter; the
        # chi-o radii below 1e-4 take the exponent layout (1.000010000100001e-05)
        (["--c", "5", "--cutoff", "chi-o", "--points", "100000"],
         "ea4835d89342e980ced7919dd571be3a1d4b3845cbc68a30b2f1b7a479c5a35b",
         "c388e7fccd3aa28b9d4bc9662a8b04eb91de68bd84a87cba82136ecf961d2c8e"),
        (["--c", "5", "--cutoff", "chi-o-tilde", "--points", "100000"],
         "599772fc8120187332b576652427780a6d7e160b6f131d10498339c21882484c",
         "912647d7e5e78d9903a27469ceba7b56684505f8386b2d1f4fcfccbcfa6ef7af"),
        (["--c", "5", "--cutoff", "theta", "--points", "100000"],
         "b598e56c6db68b417eecfe807fc400b7f894150f794d89cc559b09c947921a91",
         "d418fbcb549d56293247ea1831641191b96242f5bc603c4b083f36f2e49dc50b"),
    ],
    ids=["chi-s-c0.5", "chi-r-c0.5", "chi-s-c11", "chi-r-c11", "chi-t-line-c5",
         "chi-s-line-c0.3", "chi-o-radial-c5", "chi-o-tilde-radial-c5", "theta-radial-c5"],
)
def test_cutoff_export_golden(tmp_path, args, csv_digest, json_digest):
    # sha256 of both outputs, pinning the cut-off arithmetic byte for byte
    prefix = tmp_path / "cutoff"
    result = run_cli("cutoff-export", *args, "--output", str(prefix))
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(prefix.with_suffix(".csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(prefix.with_suffix(".json").read_bytes()).hexdigest() == json_digest


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [f.name for f in fields(NonlinearityCoefficients)])
def test_simulate_rejects_non_finite_coefficients(tmp_path, key, value):
    stderr = _simulate_error(tmp_path, f"c = 5.0\n{key} = {value}\n")
    assert f"coefficient {key} must be finite" in stderr


def test_simulate_overflow_is_a_quiet_blow_up(tmp_path):
    # the state overflows in the first step; warnings are errors in the tests
    config = tmp_path / "huge.cfg"
    config.write_text("c = 5.0\nalpha = 1e300\nt_final = 1.0\n", encoding="utf-8")
    prefix = tmp_path / "huge"
    result = run_cli("simulate", "--config", str(config), "--output", str(prefix))
    assert (result.returncode, result.stderr) == (3, "")
    assert json.loads(prefix.with_suffix(".json").read_text())["inconclusive"] is True


def test_config_types_match_the_signatures():
    def keyword_defaults(function):
        return {name: param.default for name, param in inspect.signature(function).parameters.items()
                if param.kind is param.POSITIONAL_OR_KEYWORD}

    scan = keyword_defaults(scan_all)
    run = keyword_defaults(run_resonant_amplification)
    del run["report"], run["coeffs"]
    coefficients = {f.name: f.default for f in fields(NonlinearityCoefficients)}
    assert set(_CONFIG_TYPES) == {*scan, "report_path", *coefficients, *run}
    for key, default in {**scan, **coefficients, **run}.items():
        if default is not inspect.Parameter.empty:
            assert type(default) is _CONFIG_TYPES[key], key


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


def amplify_config(n, t_final) -> str:
    """A simulate config laid out as the benchmark's amplify workload writes them."""
    return (f"c = 7.3\ndelta = 1.1\neps = -0.3\nzeta = 0.2\nn = {n}\nbox_length = 256.0\n"
            f"dt = 0.25\nt_final = {t_final!r}\namplitude = 0.02\nbandwidth = 0.02\n"
            "detune_factor = 10.0\nband_halfwidth_factor = 5.0\nsample_every = 10\n"
            "scheme = ifrk4\n")


@pytest.mark.parametrize(
    "n, t_final, json_digest, csv_digest",
    [
        (1024, 47.0, "128eec9850a75f3e4cb572aac41bad942b80455ae5dda43f5eb7da959b7f2004",
         "f5364260ae726f0d0417809fa014a11b2c3b2f77d102aeb634328a7bfb6c2645"),
        (4096, 16.0, "b1efc1eb2f7f7a3310de1f9248d0bee9e3831580ef64a9ba7aabf1fd9d73aa5c",
         "08be82ac5bb28f646399b9472316ce80d04d2db37ebdeeca6ec2368dec10ea01"),
    ],
    ids=["n1024", "n4096"],
)
def test_simulate_golden(tmp_path, n, t_final, json_digest, csv_digest):
    # sha256 of both outputs as written when the two runs were stepped one
    # after the other; the bundled n = 256 archive pins the third grid
    config = tmp_path / "amplify.cfg"
    config.write_text(amplify_config(n, t_final), encoding="utf-8")
    prefix = tmp_path / "amplify"
    result = run_cli("simulate", "--config", str(config), "--output", str(prefix))
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(prefix.with_suffix(".json").read_bytes()).hexdigest() == json_digest
    assert hashlib.sha256(prefix.with_suffix(".csv").read_bytes()).hexdigest() == csv_digest


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
    "args, digest, without_ridge",
    [
        (["--seed", "0", "--c", "5"],
         "0a87b2e1aa34b667f0a600eed39e84aaec381bf0e230e93509e8640660f65263",
         "17205c971678a15c93cbcb557a444655f20c7c69d8f01aee6c3f353935a4ea6b"),
        (["--seed", "3", "--c", "3.3", "--trials", "16"],
         "431b8d54118554de816806b0c6ce3fa64cb24a548711bd29486d6def7e190c79",
         "c811b290d340dbda6a75b69889abc0d46a777213d3457cecf71dc8225ae54845"),
        # a third seed and speed; the support kernel's operand order (the
        # gathered f coefficients times a complex support value) is pinned by
        # the blocked-product tests of tests/test_bilinear.py
        (["--seed", "123456", "--c", "1.6"],
         "cbd403e20be2973c89e388b732f19fd59c92457e4ddb5a1607372858deb6b0cb",
         "a518130f10094d4cd7aad6df11475e7de162a9654d49f7c5f6bc698125793fc6"),
        # 137 holder pairs, 68 Bernstein and 17 ridge trials: each count
        # crosses the 16-trial stack, and none is a multiple of it; digests
        # taken with one product and one transform per trial
        (["--seed", "5", "--c", "0.7", "--trials", "137"],
         "b3eead04642fc60339a8408f0d27d2721a18e1625179261665e35d52410eb1b0",
         "ee28494256287782fdace4d802c93122b216f29df870750751af20bbfd6aa836"),
    ],
    ids=["seed0-c5", "seed3-c3.3-trials16", "seed123456-c1.6", "seed5-c0.7-trials137"],
)
def test_operator_probe_golden(tmp_path, args, digest, without_ridge):
    # sha256 of the output with the cyclic ridge probe, and of the output with
    # its "ridge" entry removed, so that a change to the ridge alone moves the
    # first digest only. Taken with random_trig as a lattice-shift expansion:
    # its holder bound_constant is the exact coefficient sum
    out = tmp_path / "probe.json"
    result = run_cli("operator-probe", *args, "--output", str(out))
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    doc = json.loads(out.read_text())
    del doc["ridge"]
    assert hashlib.sha256(to_canonical_json(doc).encode()).hexdigest() == without_ridge


def test_operator_probe_golden_trials_cross_the_stack():
    # holder pairs, Bernstein trials and ridge trials of --trials 137
    cap = bilinear._STACK_TRIALS
    for count in (137, 137 // 2, 137 // 8):
        assert count > cap and count % cap


def test_operator_probe_transforms_the_shell_field_once(monkeypatch, tmp_path):
    calls = []
    original = SpectralField.from_physical.__func__

    def counted(cls, values, box_length, dims=None, out=None):
        calls.append(np.shape(values))
        return original(cls, values, box_length, dims, out)

    monkeypatch.setattr(SpectralField, "from_physical", classmethod(counted))
    result = run_cli("operator-probe", "--seed", "1", "--trials", "8",
                     "--output", str(tmp_path / "probe.json"))
    assert result.returncode == 0, result.stderr
    assert calls.count((64, 64, 64)) == 1


def test_operator_probe_skips_exponentials_that_underflow(monkeypatch, tmp_path):
    # numpy takes a slow path for exp arguments that underflow to +0.0. A
    # default item passed about 393 000 of them when the shell Gaussian and
    # the packet envelopes were evaluated on the whole grid; bump and
    # smooth_step still pass a few hundred
    counts = {"args": 0, "below_floor": 0}
    exp = np.exp

    def counted(x, *args, **kwargs):
        counts["args"] += np.size(x)
        counts["below_floor"] += int(np.count_nonzero(np.real(x) < bilinear._EXP_FLOOR))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    result = run_cli("operator-probe", "--seed", "0", "--c", "5", "--output", str(tmp_path / "probe.json"))
    assert result.returncode == 0, result.stderr
    # the item evaluates 743 818 arguments: the counter sees its exponentials
    assert counts["args"] > 700_000
    assert counts["below_floor"] <= 2_000


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
