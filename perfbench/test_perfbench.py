"""Tests of the benchmark itself: run them with ``python3 -m pytest perfbench``."""

import json

import pytest

import run
import spans


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def _attributes() -> dict:
    """Every attribute of the kgpair modules and of the classes they define."""
    snapshot = {}
    for mod in spans.kgpair_modules():
        for key, value in vars(mod).items():
            snapshot[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("kgpair"):
                for attr, member in vars(value).items():
                    snapshot[(mod.__name__, key, attr)] = member
    return snapshot


@pytest.mark.parametrize("workload", ["analysis", "probe", "amplify"])
def test_untraced_run_leaves_kgpair_untouched(cli, workload, tmp_path):
    before = _attributes()
    result = run.run_untraced(run.Runner(cli, workload, 0, tmp_path), seconds=1e-3)
    after = _attributes()
    assert result["failures"] == {}
    # the warnings machinery may add __warningregistry__; nothing else changes
    assert all(after.get(key) is value for key, value in before.items())


def test_traced_run_restores_kgpair(cli, tmp_path):
    before = _attributes()
    result = run.run_traced(run.Runner(cli, "analysis", 0, tmp_path), seconds=1e-3, count_items=1)
    after = _attributes()
    assert result["failures"] == {}
    assert result["recorder"].spans
    assert all(after.get(key) is value for key, value in before.items())


def test_traced_counts_and_digests_repeat(cli, tmp_path):
    def counts():
        result = run.run_traced(run.Runner(cli, "amplify", 3, tmp_path), seconds=1e-3,
                                count_items=2)
        metrics = spans.rollup(result["recorder"], 2, len(result["durations"]))
        exact = {k: v for k, v in metrics.items()
                 if k.endswith((".calls", "_per_step", "_per_point", ".z_points"))}
        return exact, result["digests"][:2]

    first, second = counts(), counts()
    assert first == second
    assert first[0]["simulator.fft_calls_per_step"][0] == 16


def test_self_time_excludes_children():
    rec = spans.Recorder()
    rec.item = 0
    rec.enter("outer")
    rec.enter("inner")
    inner = rec.exit()
    outer = rec.exit()
    (_, inner_parent, *_, inner_self), (outer_id, outer_parent, *_, outer_self) = rec.spans
    assert inner_parent == outer_id and outer_parent is None
    assert inner_self == pytest.approx(inner)
    assert outer_self == pytest.approx(outer - inner)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    fake = {"durations": [1.0], "failures": {}, "setup": [1.0]}
    e2e = set(run.end_to_end("analysis", fake)) - {"failed_fraction"}
    layer = set(spans.rollup(spans.Recorder(), 1, 1)) | {"trace.overhead_frac"}
    assert [m["name"] for m in spec["end_to_end"]] and e2e == {
        m["name"] for m in spec["end_to_end"]}
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.TAIL_PERCENTILE)
