import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kgpair.reporting import csv_blocks, curve_csv, load_schema, sweep_csv, to_canonical_json
from kgpair.resonance import ResonanceReport, SweepEntry, scan_all


def test_floats_are_17_significant_digits():
    text = to_canonical_json({"x": 0.1})
    assert '"x":0.10000000000000001' in text
    assert json.loads(text) == {"x": 0.1}


def test_infinities_serialize_as_null():
    doc = json.loads(to_canonical_json({"gap": math.inf, "bad": math.nan}))
    assert doc == {"gap": None, "bad": None}


def test_keys_sorted_and_deterministic():
    a = to_canonical_json({"b": 1, "a": [1.5, {"z": True, "y": None}]})
    b = to_canonical_json({"a": [1.5, {"y": None, "z": True}], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_canonical_json({"x": object()})


def test_sweep_csv_layout():
    entries = [
        SweepEntry(c=2.0, separated=True, min_gap=0.5),
        SweepEntry(c=3.0, separated=False, min_gap=1e-9),
        SweepEntry(c=4.0, separated=True, min_gap=math.inf),
    ]
    text = sweep_csv(entries, tau_sep=1e-6)
    lines = text.strip().split("\n")
    assert lines[0] == "c,separated,min_gap"
    assert lines[1].startswith("2,1,0.5")
    assert lines[2].startswith("3,0,")
    assert lines[3] == "4,1,"  # infinite gap leaves the cell empty
    assert lines[4].startswith("# candidate_exceptional_speeds")
    assert "3" in lines[4]


def test_curve_csv_round_trip():
    text = curve_csv({"x": [0.0, 1.0], "y": [2.0, 3.5]})
    assert text == "x,y\n0,2\n1,3.5\n"


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_curve_csv_matches_joined_text(rows):
    columns = {"x": [0.1 * i for i in range(rows)], "y": [math.nan, -math.inf, 1e300][:rows]}
    lines = ["x,y"] + [f"{format(x, '.17g')},{format(y, '.17g')}"
                       for x, y in zip(columns["x"], columns["y"])]
    assert curve_csv(columns) == "\n".join(lines) + "\n"


def per_row_csv(columns: dict) -> str:
    """Reference: the former curve_csv, one format() call per value, one string per row."""
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    lines.append("")
    return "\n".join(lines)


NEG_NAN = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
SPECIAL_FLOATS = np.array(
    [math.nan, NEG_NAN, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
     2.2250738585072014e-308, 0.1, 1.0 / 3.0, 2.0**53 + 2.0, 1e16, 123456789.0])


def _column(kind: str, rows: int, rng):
    """One column of the given kind: specials, random bit patterns and normals mixed."""
    if kind.startswith("int"):
        values = rng.integers(-2**40, 2**40, size=rows)
        return values if kind == "int-array" else values.tolist()
    if kind == "float32-array":
        return rng.integers(0, 2**32, size=rows, dtype=np.uint32).view(np.float32)
    values = np.where(rng.uniform(size=rows) < 0.5,
                      rng.choice(SPECIAL_FLOATS, size=rows),
                      rng.integers(0, 2**64, size=rows, dtype=np.uint64).view(np.float64))
    values = np.where(rng.uniform(size=rows) < 0.3, rng.normal(size=rows), values)
    return values if kind == "float-array" else values.tolist()


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097])
@given(
    kinds=st.lists(st.sampled_from(["float-array", "float-list", "int-array", "int-list",
                                    "float32-array"]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_curve_csv_matches_per_row_reference(rows, kinds, seed):
    rng = np.random.default_rng(seed)
    columns = {f"col{i}": _column(kind, rows, rng) for i, kind in enumerate(kinds)}
    expected = per_row_csv(columns)
    assert curve_csv(columns) == expected
    assert "".join(csv_blocks(columns)) == expected


@given(st.lists(st.tuples(st.floats(), st.floats(width=32)), max_size=30))
def test_curve_csv_matches_per_row_reference_on_drawn_floats(pairs):
    columns = {"x": [x for x, _ in pairs], "y": np.array([y for _, y in pairs], dtype=np.float32)}
    assert curve_csv(columns) == per_row_csv(columns)


def test_csv_blocks_split_rows_into_blocks_of_4096():
    pieces = list(csv_blocks({"x": np.arange(10_000.0)}))
    assert pieces[0] == "x\n"
    assert [piece.count("\n") for piece in pieces[1:]] == [4096, 4096, 1808]


def test_curve_csv_rejects_unequal_columns():
    # zip used to truncate to the shortest column silently
    with pytest.raises(ValueError, match="unequal lengths"):
        curve_csv({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0]})
    with pytest.raises(ValueError, match="unequal lengths"):
        csv_blocks({"x": np.zeros(4097), "y": np.zeros(4096)})
    with pytest.raises(ValueError, match="one-dimensional"):
        curve_csv({"x": np.zeros((2, 2))})


def _nonfinite_to_none(doc):
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    if isinstance(doc, list):
        return [_nonfinite_to_none(item) for item in doc]
    if isinstance(doc, dict):
        return {key: _nonfinite_to_none(value) for key, value in doc.items()}
    return doc


_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(_JSON_DOCS)
def test_canonical_json_round_trip(doc):
    assert json.loads(to_canonical_json(doc)) == _nonfinite_to_none(doc)


def test_report_json_round_trip_through_schema():
    report = scan_all(5.0)
    doc = json.loads(to_canonical_json(report.to_dict()))
    jsonschema.validate(doc, load_schema("resonance-report"))
    rebuilt = ResonanceReport.from_dict(doc)
    assert rebuilt.resonant_indices == report.resonant_indices
    assert rebuilt.min_gap == pytest.approx(report.min_gap)
    assert rebuilt.components[0].source_radii == report.components[0].source_radii


@example(c=150.0, r_max=100.0)  # not separated
@example(c=5.0, r_max=1e-4)  # no components
@given(c=st.one_of(st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
                   st.floats(1.05, 2000.0, exclude_min=True, exclude_max=True)),
       r_max=st.floats(1e-4, 200.0))
def test_report_read_back_is_byte_identical(c, r_max):
    written = to_canonical_json(scan_all(c, r_max=r_max).to_dict())
    assert to_canonical_json(ResonanceReport.from_dict(json.loads(written)).to_dict()) == written


def test_empty_report_round_trip():
    report = scan_all(5.0, r_max=1e-4)
    doc = json.loads(to_canonical_json(report.to_dict()))
    assert doc["min_gap"] is None
    rebuilt = ResonanceReport.from_dict(doc)
    assert math.isinf(rebuilt.min_gap)
    assert rebuilt.delta0 == 1.0


def test_all_schemas_load():
    for name in (
        "resonance-report",
        "constants-budget",
        "experiment-record",
        "operator-probe",
        "cutoff-export",
    ):
        schema = load_schema(name)
        jsonschema.Draft7Validator.check_schema(schema)
