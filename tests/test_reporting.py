import json
import math

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgpair.reporting import curve_csv, load_schema, sweep_csv, to_canonical_json
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
