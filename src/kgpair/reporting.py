"""Deterministic serialization for reports and probe results.

Every floating-point number is printed with 17 significant digits (lossless
round trip) and dictionary keys are emitted in sorted order, so identical
inputs produce byte-identical documents.  Infinities and NaN, which strict
JSON cannot carry, serialize as null in JSON; CSV cells print them as nan,
inf and -inf.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

_BLOCK_ROWS = 4096  # rows per formatted block of csv_blocks


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        return "null"
    return format(value, ".17g")


def _encode(obj, pieces: list):
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(_format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                pieces.append(",")
            pieces.append(json.dumps(key))
            pieces.append(":")
            _encode(obj[key], pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(",")
            _encode(item, pieces)
        pieces.append("]")
    else:
        try:
            _encode(obj.item(), pieces)  # numpy scalars
        except AttributeError:
            raise TypeError(f"cannot serialize {type(obj).__name__}") from None


def to_canonical_json(obj) -> str:
    pieces: list = []
    _encode(obj, pieces)
    pieces.append("\n")
    return "".join(pieces)


def sweep_csv(entries, tau_sep: float) -> str:
    """CSV of (c, separated, min_gap) with a trailing candidate summary line."""
    lines = ["c,separated,min_gap"]
    candidates = []
    for entry in entries:
        gap = "" if math.isinf(entry.min_gap) else format(entry.min_gap, ".17g")
        lines.append(f"{format(entry.c, '.17g')},{int(entry.separated)},{gap}")
        if not entry.separated:
            candidates.append(format(entry.c, ".17g"))
    summary = ";".join(candidates) if candidates else "none"
    lines.append(f"# candidate_exceptional_speeds(tau_sep={format(tau_sep, '.17g')}): {summary}")
    return "\n".join(lines) + "\n"


def csv_blocks(columns: dict):
    """CSV text of equal-length named columns, as an iterator of pieces: the
    header line, then blocks of at most ``_BLOCK_ROWS`` rows.

    Every value is converted to float and printed as ``%.17g`` (the same text
    as ``format(value, ".17g")``); one ``%`` operation formats a whole block.
    The columns are checked and copied into one table before the iterator is
    returned, so a caller may stream the pieces to a file.
    """
    names = list(columns)
    with np.errstate(invalid="ignore"):  # float32 signalling NaNs print as nan
        arrays = [np.asarray(columns[name], dtype=float) for name in names]
    if any(array.ndim != 1 for array in arrays):
        raise ValueError("CSV columns must be one-dimensional")
    lengths = {name: array.size for name, array in zip(names, arrays)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"CSV columns have unequal lengths: {lengths}")
    table = np.stack(arrays, axis=1) if arrays else np.empty((0, 0))
    row = ",".join(["%.17g"] * len(names)) + "\n"

    def blocks():
        yield ",".join(names) + "\n"
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            yield row * len(block) % tuple(block.ravel().tolist())

    return blocks()


def curve_csv(columns: dict) -> str:
    """CSV from equal-length named columns of floats."""
    return "".join(csv_blocks(columns))


def experiment_csv(record: dict) -> str:
    """Time series of the band energies of both experiment runs."""
    res = record["runs"]["resonant"]
    det = record["runs"]["detuned"]
    n = min(len(res["times"]), len(det["times"]))
    return curve_csv(
        {
            "time": res["times"][:n],
            "resonant_band_energy": res["band_energy"][:n],
            "detuned_band_energy": det["band_energy"][:n],
        }
    )


def load_schema(name: str) -> dict:
    """Load one of the JSON schemas shipped with the package."""
    text = resources.files("kgpair.schemas").joinpath(f"{name}.json").read_text("utf-8")
    return json.loads(text)
