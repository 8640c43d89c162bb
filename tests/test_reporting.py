import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import load_schema

from kgpair import format17g, reporting
from kgpair.reporting import csv_blocks, curve_csv, sweep_csv, to_canonical_json
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


def percent_g(values) -> str:
    """Reference: one %.17g line per value, formatted by Python."""
    return "".join("%.17g\n" % value for value in np.asarray(values, dtype=float).tolist())


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=float)
    if values.size:  # repeated up to a size that the numpy kernel formats
        values = np.resize(values, max(values.size, 2 * reporting._KERNEL_MIN_VALUES))
    assert curve_csv({"x": values}) == "x\n" + percent_g(values)
    # and the same values spread over two columns, with both separators
    pairs = values[:values.size // 2 * 2].reshape(-1, 2)
    assert curve_csv({"a": pairs[:, 0], "b": pairs[:, 1]}) == "a,b\n" + "".join(
        "%.17g,%.17g\n" % (a, b) for a, b in pairs.tolist())


def test_block_kernel_matches_python_on_a_million_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, size=(5 * 10**5, 2), dtype=np.uint64)
    pairs = bits.view(np.float64)
    assert curve_csv({"a": pairs[:, 0], "b": pairs[:, 1]}) == "a,b\n" + "".join(
        "%.17g,%.17g\n" % (a, b) for a, b in pairs.tolist())


@given(st.lists(st.floats(), max_size=200), st.lists(st.floats(width=32), max_size=50))
def test_block_kernel_matches_python_on_drawn_floats(doubles, singles):
    assert_formats_like_python(doubles + singles)


def _least_double_at_least(k: int) -> float:
    """The smallest double >= 10**k, found with exact rational arithmetic."""
    nearest = float(f"1e{k}")
    if math.isinf(nearest) or Fraction(nearest) >= Fraction(10)**k:
        return nearest
    return math.nextafter(nearest, math.inf)


def test_block_kernel_at_every_power_of_ten_and_its_neighbours():
    values = []
    for k in range(-323, 309):
        power = float(f"1e{k}")
        values += [math.nextafter(power, 0.0), power, math.nextafter(power, math.inf)]
    assert_formats_like_python(values)
    assert_formats_like_python([-value for value in values])


def test_block_kernel_on_values_that_round_up_into_the_next_decade():
    # the double just below 10**k can round to 17 digits of 10**k: the
    # exponent moves up by one and the digits are 1 and sixteen zeros
    below = [math.nextafter(_least_double_at_least(k), 0.0) for k in range(-323, 309)]
    carried = [value for value in below if ("%.17g" % value).lstrip("-").startswith("1e")]
    assert len(carried) >= 10  # 1e-14 is one of them
    assert_formats_like_python(carried + [-value for value in carried] + [9.9999999999999999e16])


def test_block_kernel_on_exact_ties():
    # m / 2**(p + 1) with odd m is a tie at 17 significant digits when its
    # exponent k is 16 - p: Python rounds it half to even
    rng = np.random.default_rng(21)
    values = [1 + 2**-17, 1.00000762939453125]
    for p in range(1, 40):
        k = 16 - p
        low, high = math.ceil(10.0**k * 2.0**(p + 1)), min(10.0**(k + 1) * 2.0**(p + 1), 2.0**53)
        if low >= high:
            continue
        m = rng.integers(low // 2, high // 2, size=50) * 2 + 1
        values += [float(v) / 2.0**(p + 1) for v in m.tolist()]
    assert len(values) > 1000
    assert_formats_like_python(values + [-value for value in values])


@pytest.mark.parametrize("values", [
    [1e-5, 0.0001, 9.9999999999999991e-5, 0.00010000000000000001],  # fixed from k = -4
    [1e16, 1e17, 9.9999999999999984e16, 1.0000000000000002e16, 123456789012345678.0],
    [1e99, 1e100, 1e-99, 1e-100, 1.7976931348623157e308],  # 2 and 3 exponent digits
])
def test_block_kernel_at_the_fixed_and_exponent_switch(values):
    assert_formats_like_python(values + [-value for value in values])


def test_block_kernel_on_zeros_specials_and_subnormals():
    neg_nan = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
    subnormals = np.array([1, 2, 3, 12345, 2**52 - 1], dtype=np.uint64).view(np.float64)
    values = np.concatenate([[0.0, -0.0, math.nan, neg_nan, math.inf, -math.inf],
                             subnormals, -subnormals, [2.2250738585072014e-308]])
    assert "%.17g" % neg_nan == "nan"
    assert_formats_like_python(values)


def test_block_kernel_on_float32_and_int_columns():
    rng = np.random.default_rng(22)
    singles = rng.integers(0, 2**32, size=5000, dtype=np.uint32).view(np.float32)
    ints = rng.integers(-2**62, 2**62, size=5000)
    columns = {"f": singles, "i": ints, "j": ints.tolist()}
    assert curve_csv(columns) == per_row_csv(columns)


def test_kernel_tables_hold_exact_powers_of_ten():
    tables = format17g._tables()
    for k, bound in zip(range(format17g._K_MIN, format17g._K_MAX + 2), tables.pow10.tolist()):
        assert bound == _least_double_at_least(k)
    bits = np.finfo(np.longdouble).nmant + 1
    for p, power in zip(range(format17g._P_MIN, format17g._P_MAX + 1), tables.scale):
        held = Fraction(*power.as_integer_ratio())
        assert abs(held - Fraction(10)**p) <= held / 2**bits  # within half a unit in the last place


def test_python_formats_few_values_of_a_component_line():
    # the radii of a cutoff-export component line: the kernel proves all but
    # the few whose product is within its error of a half-integer
    comp = scan_all(5.0).components[0]
    radii = comp.R + np.linspace(-1e-3 * comp.R, 1e-3 * comp.R, 10**5)
    _, _, unproven = format17g._decimal(radii)
    assert unproven.sum() <= 0.01 * radii.size


def test_draining_csv_blocks_stays_below_4_mib():
    rng = np.random.default_rng(23)
    columns = {"x": rng.uniform(0.0, 1.0, 10**5), "y": rng.normal(size=10**5)}
    format17g._tables()  # built once per process, not per call
    tracemalloc.start()
    try:
        for _ in csv_blocks(columns):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_import_and_small_blocks_leave_the_kernel_unloaded():
    code = ("import sys\n"
            "import kgpair.cli, kgpair.reporting as r\n"
            "r.curve_csv({'x': [0.5] * (r._KERNEL_MIN_VALUES - 1)})\n"
            "assert 'kgpair.format17g' not in sys.modules\n"
            "r.curve_csv({'x': [0.5] * r._KERNEL_MIN_VALUES})\n"
            "assert sys.modules['kgpair.format17g']._tables.cache_info().currsize == 1\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


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
