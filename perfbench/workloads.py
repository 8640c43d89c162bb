"""The three benchmark workloads: seeded item generators, the CLI calls that
make up one item, and the checks on each item's outputs.

An item is one unit of closed-loop work. ``execute`` is the timed part: the
CLI calls a user would make, plus the small amount of client logic that
chains them. ``check`` runs outside the timed interval and returns the list
of problems found together with the item's canonical output bytes.

Inputs come from continuous distributions, so apart from the fixed anchor
item of a run nothing repeats and no cache outliving one CLI call can show a
gain that one-process-per-command users would not see. The inputs follow a
seeded low-discrepancy sequence, so every run sees nearly the same mix of
cheap and costly items.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

WORKLOADS = ("analysis", "probe", "amplify")

# README c = 5 table and the archived c = 5 calibration record
ANCHOR_C5_RADII = ((0.1767766953, 5e-11), (0.01314860997, 5e-12))
ANCHOR_C5_MIN_GAP = (0.0063365, 5e-8)
ANCHOR_GROWTH_RATIO = 15088.439860238235
ANCHOR_GROWTH_RTOL = 1e-6

Z_TOL = 1e-10
CLOSED_FORM_RTOL = 1e-10
HOLDER_SLACK = 1e-9

SIM_BOX = 256.0
SIM_BANDWIDTH = 0.02
SIM_DETUNE = 10.0
SIM_HALFWIDTH_FACTOR = 5.0
# horizon range per grid size: a step costs about 1.2, 2 and 5.7 ms at
# n = 256, 1024, 4096, so every grid gets about the same item time and the
# latency percentiles do not sit on a boundary between grid classes
SIM_HORIZONS = {256: (85.0, 95.0), 1024: (45.0, 50.0), 4096: (15.0, 17.0)}
SIM_GRIDS = tuple(SIM_HORIZONS)

FAST_SPEEDS = (1.5, 12.0)
SLOW_SPEEDS = (0.25, 0.9)
FAST_SHARE = 0.75


class Schemas:
    """Validators for the JSON schemas shipped in the source tree."""

    def __init__(self, root: Path):
        self._dir = root / "src" / "kgpair" / "schemas"
        self._validators = {}

    def errors(self, name: str, doc) -> list[str]:
        if name not in self._validators:
            schema = json.loads((self._dir / f"{name}.json").read_text("utf-8"))
            self._validators[name] = jsonschema.Draft7Validator(schema)
        return [f"{name}: {err.message}" for err in self._validators[name].iter_errors(doc)]


def _bracket(speed: float, r: float) -> float:
    return math.sqrt(1.0 + speed * speed * r * r)


def _phase_at_component(c: float, comp: dict) -> float:
    """Z(R) = s0<lam R>_k + s1<R>_l + s2<|lam - 1| R>_m, from the report alone."""
    index, R, lam = comp["index"], comp["R"], comp["lambda"]
    speeds = [c if tag == "c" else 1.0 for tag in index[:3]]
    signs = [1.0 if ch == "+" else -1.0 for ch in index[3:]]
    moduli = (abs(lam) * R, R, abs(lam - 1.0) * R)
    return sum(s * _bracket(v, r) for s, v, r in zip(signs, speeds, moduli))


def _read_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


class Item:
    """One closed-loop unit of work; subclasses define the CLI calls."""

    anchor = False
    outputs: tuple = ()

    def __init__(self, index: int, params: dict):
        self.index = index
        self.params = params

    def prepare(self, work: Path):
        """Untimed: remove the previous item's outputs and write input files."""
        for name in self.outputs:
            (work / name).unlink(missing_ok=True)

    def execute(self, invoke, work: Path) -> list[int]:
        raise NotImplementedError

    def check(self, codes: list[int], work: Path, schemas: Schemas) -> tuple[list[str], bytes]:
        raise NotImplementedError


class AnalysisItem(Item):
    outputs = ("report.json", "budget.json", "cutoff.json", "cutoff.csv")

    def execute(self, invoke, work):
        c, A = self.params["c"], self.params["A"]
        report_path = work / "report.json"
        codes = [invoke(["resonances", "--c", repr(c), "--output", str(report_path)])]
        report = json.loads(report_path.read_text("utf-8"))
        order = max((comp["order"] for comp in report["components"]), default=1)
        codes.append(invoke(["constants", "-A", repr(A), "-n", str(order),
                             "--output", str(work / "budget.json")]))
        if report["separated"]:
            codes.append(invoke(["cutoff-export", "--report", str(report_path),
                                 "--cutoff", "chi-t", "--points", "100000",
                                 "--output", str(work / "cutoff")]))
        return codes

    def check(self, codes, work, schemas):
        problems: list[str] = []
        report = _read_json(work / "report.json", problems)
        budget = _read_json(work / "budget.json", problems)
        if report is None or budget is None:
            return problems, b""
        problems += schemas.errors("resonance-report", report)
        problems += schemas.errors("constants-budget", budget)
        if codes[0] != (0 if report["separated"] else 2):
            problems.append(f"resonances exit {codes[0]}, separated={report['separated']}")
        if codes[1] != (0 if budget["feasible"] else 2):
            problems.append(f"constants exit {codes[1]}, feasible={budget['feasible']}")
        c = self.params["c"]
        for comp in report["components"]:
            z = _phase_at_component(c, comp)
            if not abs(z) <= Z_TOL:
                problems.append(f"|Z(R)| = {abs(z):.3e} at {comp['index']} R={comp['R']!r}")
        if c > 1.0:
            R = math.sqrt(3.0 / (4.0 * (c * c - 1.0)))
            found = [comp for comp in report["components"] if comp["index"] == "c11+--"]
            if not any(abs(comp["R"] - R) <= CLOSED_FORM_RTOL * R
                       and abs(comp["lambda"] - 2.0) <= CLOSED_FORM_RTOL * 2.0
                       for comp in found):
                problems.append(f"no c11+-- component at R = {R!r}, lambda = 2")
        if budget["feasible"]:
            bad = [ineq["name"] for ineq in budget.get("inequalities", []) if not ineq["ok"]]
            if bad:
                problems.append(f"feasible budget fails {bad}")
        if report["separated"]:
            if len(codes) < 3 or codes[2] != 0:
                problems.append(f"cutoff-export exit {codes[2:]}")
            header = _read_json(work / "cutoff.json", problems)
            if header is not None:
                problems += schemas.errors("cutoff-export", header)
            try:
                values = _csv_column(work / "cutoff.csv", 1)
            except (OSError, ValueError) as exc:
                problems.append(f"cutoff.csv: {exc}")
            else:
                if values.size == 0 or not np.all(np.isfinite(values)):
                    problems.append("cutoff values missing or non-finite")
                elif values.min() < 0.0 or values.max() > 1.0:
                    problems.append(f"cutoff values span [{values.min()!r}, {values.max()!r}]")
        if self.anchor:
            radii = sorted((comp["R"] for comp in report["components"]), reverse=True)
            if len(radii) != len(ANCHOR_C5_RADII) or not all(
                    abs(got - want) <= tol for (want, tol), got in zip(ANCHOR_C5_RADII, radii)):
                problems.append(f"anchor radii {radii} differ from the README table")
            gap = report["min_gap"]
            if gap is None or not abs(gap - ANCHOR_C5_MIN_GAP[0]) <= ANCHOR_C5_MIN_GAP[1]:
                problems.append(f"anchor min_gap {gap!r} != {ANCHOR_C5_MIN_GAP[0]}")
        return problems, _concat(work, self.outputs)


class ProbeItem(Item):
    outputs = ("probe.json",)

    def execute(self, invoke, work):
        return [invoke(["operator-probe", "--seed", str(self.params["seed"]),
                        "--c", repr(self.params["c"]), "--output", str(work / "probe.json")])]

    def check(self, codes, work, schemas):
        problems: list[str] = []
        if codes != [0]:
            problems.append(f"operator-probe exit {codes}")
        doc = _read_json(work / "probe.json", problems)
        if doc is None:
            return problems, b""
        problems += schemas.errors("operator-probe", doc)
        for row in doc["holder"]["rows"]:
            ratio = row["max_normalized_ratio"]
            if ratio is None or not ratio <= 1.0 + HOLDER_SLACK:
                problems.append(f"holder {row['symbol']} ratio {ratio!r} > 1")
        return problems, _concat(work, self.outputs)


class AmplifyItem(Item):
    outputs = ("experiment.json", "experiment.csv")

    def __init__(self, index, params, config_text: str):
        super().__init__(index, params)
        self.config_text = config_text

    def prepare(self, work):
        super().prepare(work)
        (work / "experiment.cfg").write_text(self.config_text, encoding="utf-8")

    def execute(self, invoke, work):
        return [invoke(["simulate", "--config", str(work / "experiment.cfg"),
                        "--output", str(work / "experiment")])]

    def check(self, codes, work, schemas):
        problems: list[str] = []
        if codes != [0]:
            problems.append(f"simulate exit {codes}")
        doc = _read_json(work / "experiment.json", problems)
        if doc is None:
            return problems, b""
        problems += schemas.errors("experiment-record", doc)
        ratio = doc.get("growth_ratio")
        if doc["inconclusive"]:
            problems.append("experiment inconclusive")
        elif ratio is None or not (math.isfinite(ratio) and ratio > 0.0):
            problems.append(f"growth_ratio {ratio!r}")
        elif self.anchor and not abs(ratio - ANCHOR_GROWTH_RATIO) <= ANCHOR_GROWTH_RTOL * ANCHOR_GROWTH_RATIO:
            problems.append(f"anchor growth_ratio {ratio!r} != {ANCHOR_GROWTH_RATIO}")
        return problems, _concat(work, self.outputs)


def _csv_column(path: Path, column: int) -> np.ndarray:
    lines = path.read_text("utf-8").splitlines()[1:]
    return np.array([line.split(",")[column] for line in lines], dtype=float)


def _concat(work: Path, names) -> bytes:
    paths = [work / name for name in names]
    return b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in paths if p.exists())


def outcome_band_fits(c: float, n: int, box_length: float) -> bool:
    """True when both runs' outcome bands 2*carrier +- halfwidth sit below Nyquist.

    Mirrors the simulator's lattice snapping for the c11+-- component, whose
    R = sqrt(3 / (4 (c^2 - 1))) and lambda = 2 hold in closed form for c > 1.
    """
    R = math.sqrt(3.0 / (4.0 * (c * c - 1.0)))
    cells = max(1, round(R * box_length / (2.0 * math.pi)))
    box = 2.0 * math.pi * cells / R
    dxi = 2.0 * math.pi / box
    detuned = round((R + SIM_DETUNE * SIM_BANDWIDTH) / dxi) * dxi
    top = 2.0 * max(R, detuned) + SIM_HALFWIDTH_FACTOR * SIM_BANDWIDTH
    return top < math.pi * n / box


def _amplify_config(c, n, t_final, delta, eps, zeta) -> str:
    lines = [
        f"c = {c!r}",
        f"delta = {delta!r}",
        f"eps = {eps!r}",
        f"zeta = {zeta!r}",
        f"n = {n}",
        f"box_length = {SIM_BOX!r}",
        "dt = 0.25",
        f"t_final = {t_final!r}",
        "amplitude = 0.02",
        f"bandwidth = {SIM_BANDWIDTH!r}",
        f"detune_factor = {SIM_DETUNE!r}",
        f"band_halfwidth_factor = {SIM_HALFWIDTH_FACTOR!r}",
        "sample_every = 10",
        "scheme = ifrk4",
    ]
    return "\n".join(lines) + "\n"


def _rd_points(rng, dims: int):
    """Endless rotated R_d sequence: low-discrepancy points in [0, 1)^dims.

    Point k is frac(shift + k * alpha), with alpha_j = phi^-(j+1) for the
    root phi > 1 of x^(dims+1) = x + 1 and a seeded shift. Every prefix of
    the sequence spreads evenly over the cube whatever the shift, so runs
    with different seeds see different inputs but nearly the same mix of
    cheap and costly items, and the latency percentiles depend on the
    program rather than on the draw.
    """
    phi = 2.0
    for _ in range(64):
        phi -= (phi ** (dims + 1) - phi - 1.0) / ((dims + 1) * phi ** dims - 1.0)
    alpha = np.array([phi ** -(j + 1) for j in range(dims)]) % 1.0
    shift = rng.uniform(size=dims)
    k = 0
    while True:
        k += 1
        yield (shift + k * alpha) % 1.0


def _lerp(lo: float, hi: float, u: float) -> float:
    return float(lo + (hi - lo) * u)


def _speed(u: float) -> float:
    """Three quarters of [0, 1) map onto c > 1 and one quarter onto 0 < c < 1."""
    if u < FAST_SHARE:
        return _lerp(*FAST_SPEEDS, u / FAST_SHARE)
    return _lerp(*SLOW_SPEEDS, (u - FAST_SHARE) / (1.0 - FAST_SHARE))


def _analysis_params(rng):
    for u_c, u_a in _rd_points(rng, 2):
        yield {"c": _speed(u_c), "A": math.exp(_lerp(math.log(2.0), math.log(50.0), u_a))}


def _probe_params(rng):
    for (u_c,) in _rd_points(rng, 1):
        yield {"seed": int(rng.integers(0, 2**31)), "c": _speed(u_c)}


def _amplify_params(rng):
    """The grids take turns, so every stretch of items holds each in equal share."""
    first = int(rng.integers(len(SIM_GRIDS)))
    for k, (u_c, u_t, u_d, u_e, u_z) in enumerate(_rd_points(rng, 5), start=first):
        n = SIM_GRIDS[k % len(SIM_GRIDS)]
        c = _lerp(*FAST_SPEEDS, u_c)
        if not outcome_band_fits(c, n, SIM_BOX):
            continue
        yield {
            "c": c,
            "n": n,
            "t_final": _lerp(*SIM_HORIZONS[n], u_t),
            "delta": _lerp(0.5, 1.5, u_d),
            "eps": _lerp(-0.5, 0.5, u_e),
            "zeta": _lerp(-0.5, 0.5, u_z),
        }


def items(workload: str, seed: int, root: Path):
    """Endless item sequence of a workload; the same seed gives the same items.

    After the workload's anchor item (if any) the parameters follow a seeded
    low-discrepancy sequence (``_rd_points``).
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    index = 0
    if workload == "analysis":
        make_params, make_item = _analysis_params, AnalysisItem
        anchor = AnalysisItem(0, {"c": 5.0, "A": 10.0})
    elif workload == "probe":
        make_params, make_item = _probe_params, ProbeItem
        anchor = None
    elif workload == "amplify":
        make_params = _amplify_params
        bundled = root / "src" / "kgpair" / "configs" / "resonant_c5.cfg"
        anchor = AmplifyItem(0, {"config": "resonant_c5.cfg"}, bundled.read_text("utf-8"))

        def make_item(i, params):
            return AmplifyItem(i, params, _amplify_config(**params))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if anchor is not None:
        anchor.anchor = True
        yield anchor
        index = 1
    for index, params in enumerate(make_params(rng), start=index):
        yield make_item(index, params)
