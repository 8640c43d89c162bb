"""Deterministic serialization for reports and probe results.

Every floating-point number is printed with 17 significant digits (lossless
round trip) and dictionary keys are emitted in sorted order, so identical
inputs produce byte-identical documents.  Infinities and NaN, which strict
JSON cannot carry, serialize as null in JSON; CSV cells print them as nan,
inf and -inf.

CSV cells hold the exact text of ``"%.17g" % value``.  `csv_blocks` formats
a block of rows at once: numpy finds each value's decimal exponent and 17
digits from one longdouble product with a table of powers of ten, and lays
out the text, sign, exponent and separators as bytes.  A value whose digits
that product cannot prove, and NaN and the infinities, are formatted by
Python instead, and so is a block of fewer than 512 values.  That kernel is
`kgpair.format17g`: it is imported, and its tables built, on the first
block that needs it, not on import.
"""

from __future__ import annotations

import json
import math

import numpy as np

_BLOCK_ROWS = 4096  # rows per piece of csv_blocks
# values per _format_block call: its temporaries take up to about 240 bytes
# a value, so 8192 values stay near 2 MiB, below the 4 MiB at which numpy
# asks for huge pages
_BLOCK_VALUES = 8192
# a smaller block is formatted by Python: the kernel's fixed cost, about 0.1 ms
# of numpy calls, is more than it saves there (measured crossover near 500
# values), and a process that writes only small CSVs never builds its tables
_KERNEL_MIN_VALUES = 512


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


def _format_block(table: np.ndarray) -> str:
    """`table` (rows, columns) of float64 as CSV rows, each value as %.17g."""
    if table.size < _KERNEL_MIN_VALUES:
        row = ",".join(["%.17g"] * table.shape[1]) + "\n"
        return row * len(table) % tuple(table.ravel().tolist())
    # imported here, so that importing the package does not compile the kernel
    from kgpair.format17g import format_block

    return format_block(table)


def csv_blocks(columns: dict):
    """CSV text of equal-length named columns, as an iterator of pieces: the
    header line, then blocks of at most ``_BLOCK_ROWS`` rows.

    Every value is converted to float and printed as ``%.17g`` (the same text
    as ``format(value, ".17g")``); ``_format_block`` formats a whole block.
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

    step = max(1, _BLOCK_VALUES // max(1, len(names)))  # rows per _format_block call

    def blocks():
        yield ",".join(names) + "\n"
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            yield "".join(_format_block(block[row:row + step])
                          for row in range(0, len(block), step))

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

