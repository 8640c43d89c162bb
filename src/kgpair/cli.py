"""Command-line front end: scans, sweeps, constants, cutoff exports,
operator probes, and amplification experiments with reproducible outputs.

Exit codes: 0 success (separated / feasible), 1 usage or input error,
2 negative verdict (not separated / infeasible), 3 blow-up guard tripped.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from kgpair.bilinear import (
    SHELL_BOX,
    bernstein_check,
    holder_bound_probe,
    ridge_bound_probe,
    shell_weighted_ratio,
)
from kgpair.cutoffs import CutoffFamily, bound_probe, theta_radial
from kgpair.dispersion import _require_count, _require_positive
from kgpair.reporting import (
    csv_blocks,
    experiment_csv,
    sweep_csv,
    to_canonical_json,
)
from kgpair.resonance import (
    ConstantsBudget,
    ResonanceReport,
    find_admissible_constants,
    scan_all,
    sweep_speed,
)
from kgpair.simulator import NonlinearityCoefficients, run_resonant_amplification

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_BLOWUP = 3

_CHUNK_POINTS = 4096  # points per cut-off evaluation in cutoff-export
MAX_POINTS = 10**6  # cutoff-export --points: the 6-D segment alone takes 48 MB
MAX_TRIALS = 1000  # operator-probe --trials: 25 times the default of 40
# largest |coordinate| of a cutoff-export point: the cut-offs square
# coordinates, which overflows near 1e154 and turns their values to NaN
MAX_COORD = 1e100


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; code 2 is reserved for negative verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgpair",
        description="Space-time resonance toolkit for two-speed Klein-Gordon pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("resonances", help="scan one speed and report the resonant structure")
    scan.add_argument("--c", type=float, required=True, help="fast wave speed (not 1)")
    scan.add_argument("--r-max", type=float, default=100.0)
    scan.add_argument("--grid-step", type=float, default=1e-3,
                      help="no effect; recorded in the report for its schema")
    scan.add_argument("--tau-sep", type=float, default=1e-6)
    scan.add_argument("--output", type=Path, help="write the JSON report here instead of stdout")

    sweep = sub.add_parser("sweep", help="separation verdicts over a range of speeds")
    sweep.add_argument("--from", dest="c_min", type=float, required=True)
    sweep.add_argument("--to", dest="c_max", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--r-max", type=float, default=100.0)
    sweep.add_argument("--grid-step", type=float, default=1e-3, help="no effect; still validated")
    sweep.add_argument("--tau-sep", type=float, default=1e-6)
    sweep.add_argument("--output", type=Path)

    constants = sub.add_parser("constants", help="search the small-constant budget")
    constants.add_argument("--blowup-exponent", "-A", dest="A", type=float, required=True)
    constants.add_argument("--order", "-n", dest="n", type=int, required=True)
    constants.add_argument("--output", type=Path)

    cutoff = sub.add_parser("cutoff-export", help="evaluate a cutoff on a lattice and emit CSV")
    cutoff.add_argument("--c", type=float, help="speed for an inline scan")
    cutoff.add_argument("--report", type=Path, help="JSON resonance report to reuse")
    cutoff.add_argument(
        "--cutoff",
        required=True,
        choices=["theta", "chi-o", "chi-o-tilde", "chi-r", "chi-s", "chi-t"],
    )
    cutoff.add_argument("--index", help="phase index the family adapts to, e.g. c11+--")
    cutoff.add_argument("--rho", type=float, default=0.1)
    cutoff.add_argument("--points", type=int, default=512)
    cutoff.add_argument("--radius-max", type=float, default=1.0)
    cutoff.add_argument("--line", help="6-D segment 'x0,..,x5:y0,..,y5' in (xi, eta) space")
    cutoff.add_argument("--output", type=Path, default=Path("kgpair-cutoff"))

    probe = sub.add_parser("operator-probe", help="operator-bound measurements")
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument("--trials", type=int, default=40)
    probe.add_argument("--c", type=float, default=5.0, help="speed for the cutoff symbol probe")
    probe.add_argument("--output", type=Path)

    sim = sub.add_parser("simulate", help="resonant amplification experiment from a config file")
    sim.add_argument("--config", type=Path, required=True)
    sim.add_argument("--output", type=Path, default=Path("kgpair-experiment"))
    return parser


def _emit(text: str, output: Path | None):
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def cmd_resonances(args) -> int:
    report = scan_all(args.c, r_max=args.r_max, grid_step=args.grid_step, tau_sep=args.tau_sep)
    _emit(to_canonical_json(report.to_dict()), args.output)
    return EXIT_OK if report.separated else EXIT_NEGATIVE


def cmd_sweep(args) -> int:
    entries = sweep_speed(
        args.c_min,
        args.c_max,
        args.steps,
        r_max=args.r_max,
        grid_step=args.grid_step,
        tau_sep=args.tau_sep,
    )
    _emit(sweep_csv(entries, args.tau_sep), args.output)
    return EXIT_OK


def cmd_constants(args) -> int:
    result = find_admissible_constants(args.A, args.n)
    _emit(to_canonical_json(result.to_dict()), args.output)
    return EXIT_OK if isinstance(result, ConstantsBudget) else EXIT_NEGATIVE


def _read_report(path: Path | str) -> ResonanceReport:
    """The resonance report stored at ``path``, solved again and compared."""
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except RecursionError:  # the JSON decoder's depth limit
        raise ValueError(f"report {path} is nested too deeply to read") from None
    return ResonanceReport.from_dict(doc)


def _load_report(args) -> ResonanceReport:
    if args.report is not None:
        return _read_report(args.report)
    if args.c is None:
        raise ValueError("provide either --c or --report")
    return scan_all(args.c)


def _parse_segment(text: str):
    try:
        start_text, stop_text = text.split(":")
        start = np.array([float(v) for v in start_text.split(",")], dtype=float)
        stop = np.array([float(v) for v in stop_text.split(",")], dtype=float)
    except ValueError:
        raise ValueError("segment must look like 'x0,..,x5:y0,..,y5'") from None
    if start.size != 6 or stop.size != 6:
        raise ValueError("segment endpoints need six coordinates each")
    # the segment's points lie between its endpoints; nan fails the comparison
    if not max(np.abs(start).max(), np.abs(stop).max()) <= MAX_COORD:
        raise ValueError(f"segment coordinates must be finite and at most {MAX_COORD:g} "
                         f"in absolute value, got {text!r}")
    return start, stop


def _evaluate_in_chunks(family: CutoffFamily, name: str, points, count: int,
                        rho: float) -> np.ndarray:
    """``family.evaluate`` at `count` points, built and evaluated in
    consecutive chunks: ``points(part)`` gives the (xi, eta) of the points in
    slice `part`. The cut-offs act point by point, so the values are those of
    one evaluation; the chunks keep the partition's temporaries small, and no
    6-D array of all the points is held while the CSV is written (1e5 points
    take 4.8 MB)."""
    return np.concatenate([
        family.evaluate(name, *points(slice(start, start + _CHUNK_POINTS)), rho=rho)
        for start in range(0, count, _CHUNK_POINTS)
    ])


def cmd_cutoff_export(args) -> int:
    _require_positive("--rho", args.rho)
    _require_positive("--radius-max", args.radius_max, MAX_COORD)
    _require_count("--points", args.points, 2, MAX_POINTS)
    report = _load_report(args)
    family = CutoffFamily.build(report, idx=args.index)
    name = args.cutoff.replace("-", "_")
    doc = {
        "schema": "cutoff-export/1",
        "cutoff": name,
        "rho": args.rho,
        "family": family.parameters(),
    }
    if name in ("theta", "chi_o", "chi_o_tilde"):
        radii = np.linspace(0.0, args.radius_max, args.points)
        if name == "theta":
            values = theta_radial(radii, family.M)
        else:
            direction = np.zeros((args.points, 3))
            direction[:, 0] = radii
            values = family.chi_O(direction) if name == "chi_o" else family.chi_O_tilde(direction)
        blocks = csv_blocks({"radius": radii, "value": values})
        doc["grid"] = {"kind": "radial", "points": args.points, "radius_max": args.radius_max}
    elif args.line is not None:
        start, stop = _parse_segment(args.line)
        t = np.linspace(0.0, 1.0, args.points)

        def segment(part):
            pts = start[None, :] + t[part, None] * (stop - start)[None, :]
            return pts[:, :3], pts[:, 3:]

        values = _evaluate_in_chunks(family, name, segment, t.size, args.rho)
        blocks = csv_blocks({"t": t, "value": values})
        doc["grid"] = {
            "kind": "segment",
            "points": args.points,
            "start": list(start),
            "stop": list(stop),
        }
    else:
        if not family.components:
            raise ValueError("family has no components; pass --line for a custom segment")
        # radial line through the first component; --radius-max counts
        # multiples of the bump support width rho * support_radius
        comp = family.components[0]
        half = 3.0 * args.radius_max * family.support_radius * args.rho
        top = (comp.R + half) * max(1.0, abs(comp.lam))  # the largest |coordinate| of xi, eta
        if not top <= MAX_COORD:
            raise ValueError(f"the component line reaches coordinates of {top:g}, above "
                             f"{MAX_COORD:g}; lower --rho or --radius-max")
        r = comp.R + np.linspace(-half, half, args.points)
        r = r[r > 0.0]

        def component_line(part):
            eta = np.zeros((r[part].size, 3))
            eta[:, 0] = r[part]
            return comp.lam * eta, eta

        values = _evaluate_in_chunks(family, name, component_line, r.size, args.rho)
        blocks = csv_blocks({"eta_radius": r, "value": values})
        doc["grid"] = {
            "kind": "component-line",
            "points": int(r.size),
            "radius_max": args.radius_max,
            "start": [float(r[0])],
            "stop": [float(r[-1])],
        }

    csv_path = args.output.with_suffix(".csv")
    json_path = args.output.with_suffix(".json")
    with csv_path.open("w", encoding="utf-8") as out:
        out.writelines(blocks)
    json_path.write_text(to_canonical_json(doc), encoding="utf-8")
    return EXIT_OK


def cmd_operator_probe(args) -> int:
    _require_count("--trials", args.trials, 1, MAX_TRIALS)
    if args.seed < 0:  # numpy's generators take any size of seed, but no negative one
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    holder = holder_bound_probe(pairs=args.trials, seed=args.seed)
    ridge = ridge_bound_probe(trials=max(4, args.trials // 8), seed=args.seed)
    js = range(6)
    ratios = bernstein_check(js, 6.0, 2.0, trials=max(5, args.trials // 2), seed=args.seed)
    bernstein = [{"j": j, "p": 6.0, "q": 2.0, "max_ratio": ratio} for j, ratio in zip(js, ratios)]
    dxi = 2.0 * math.pi / SHELL_BOX  # the shell lattice step
    pairs = [(rho, s) for s in (0.5, 1.0) for rho in (dxi, 10.0 * dxi)]
    shell = [
        {"s": s, "rho": rho, "ratio": ratio}
        for (rho, s), ratio in zip(pairs, shell_weighted_ratio(16 * dxi, pairs))
    ]
    doc = {
        "schema": "operator-probe/1",
        "seed": args.seed,
        "holder": holder,
        "ridge": ridge,
        "bernstein": bernstein,
        "shell": shell,
        "cutoff_symbols": bound_probe(CutoffFamily.build(scan_all(args.c)), sample_count=10_000,
                                      seed=args.seed),
    }
    _emit(to_canonical_json(doc), args.output)
    return EXIT_OK


# simulate config keys and their types; a key left out takes the default of
# scan_all, NonlinearityCoefficients or run_resonant_amplification
_CONFIG_TYPES = {
    "c": float, "r_max": float, "grid_step": float, "tau_sep": float, "report_path": str,
    "alpha": float, "beta": float, "gamma": float, "delta": float, "eps": float, "zeta": float,
    "n": int, "box_length": float, "dt": float, "t_final": float, "amplitude": float,
    "bandwidth": float, "detune_factor": float, "band_halfwidth_factor": float,
    "sample_every": int, "scheme": str, "probe_factor": float,
}


def _config_value(key: str, text: str):
    """``text`` as the type of ``key``; an int key takes integral numerals such as 256.0."""
    kind = _CONFIG_TYPES[key]
    if kind is str:
        return text
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"config key {key} must be a number, got {text!r}") from None
    if kind is int:
        if not value.is_integer():
            raise ValueError(f"config key {key} must be an integer, got {text!r}")
        return int(value)
    return value


def parse_config(path: Path) -> dict:
    if not path.exists():
        raise ValueError(f"config file {path} does not exist")
    lines = {}
    for lineno, raw in enumerate(path.read_text("utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key}")
        lines[key] = value.strip()
    unknown = set(lines) - set(_CONFIG_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return {key: _config_value(key, text) for key, text in lines.items()}


def cmd_simulate(args) -> int:
    config = parse_config(args.config)
    scan = {key: config.pop(key) for key in ("c", "r_max", "grid_step", "tau_sep") if key in config}
    report_path = config.pop("report_path", None)
    if report_path is not None:
        if scan:  # the report fixes its own scan
            raise ValueError(f"config key report_path excludes {', '.join(scan)}")
        try:  # a relative path is read from the config file's directory
            report = _read_report(args.config.parent / report_path)
        except (ValueError, OSError) as exc:
            raise ValueError(f"config key report_path: {exc}") from None
    elif "c" in scan:
        report = scan_all(**scan)
    else:
        raise ValueError("config must set either c or report_path")
    coeffs = NonlinearityCoefficients(
        **{f.name: config.pop(f.name) for f in fields(NonlinearityCoefficients) if f.name in config}
    )
    record = run_resonant_amplification(report, coeffs, **config)
    args.output.with_suffix(".json").write_text(
        to_canonical_json(record), encoding="utf-8"
    )
    args.output.with_suffix(".csv").write_text(experiment_csv(record), encoding="utf-8")
    return EXIT_BLOWUP if record["inconclusive"] else EXIT_OK


_HANDLERS = {
    "resonances": cmd_resonances,
    "sweep": cmd_sweep,
    "constants": cmd_constants,
    "cutoff-export": cmd_cutoff_export,
    "operator-probe": cmd_operator_probe,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"kgpair: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
